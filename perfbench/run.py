"""perfbench: the degsimsek benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke]

Run it from the root of a checkout.  The package is pure Python and runs
from `src/`, so there is nothing to build.  Workloads (see README.md here):

  verify   `degsimsek verify` over the whole registry, order 8, 2 workers
  table    `degsimsek table --family y1star` route A, 10 x 10, CSV
  session  seeded closed loops of 1,760 library queries in one process

Every unit (one suite, one table, one whole query stream) runs in a fresh
interpreter, so caches start cold.  Units repeat until `--seconds` of
measuring is used up; timings are medians over the units.  The host's speed
changes by up to 1.7x within seconds, so a gauge process (gauge.py) samples it
all through the run on the units' vCPU, and each timing is scaled by the
speed the gauge saw while it was taken: seconds at the reference host speed.
With `--trace 1` untraced and traced units alternate; the per-layer metrics
come from the traced units, and the tracing overhead from both.  Outputs are
checked against references made before timing, and the last line printed is
the JSON result.  `--smoke` runs one tiny unit of each kind, for the
benchmark's own tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
from pathlib import Path
import platform
import statistics
import subprocess
import sys
import time

from session import make_queries
from tracer import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKERS = 2            # the verify thread pool; nproc of the reference box
SETUP_SAMPLES = 5      # import-only interpreters per run, besides the units
TIME_LIMIT_S = 170     # a run must end within 180 s
# a gauge slice on the reference box (2 vCPUs, Python 3.11.7) in its fast
# state; timings are reported as if the host ran at that speed
GAUGE_REF_S = 0.0044
GAUGE_PAD_S = 0.3      # gauge slices this close to a window also count

# statuses a passing suite may report; anything else is a failed check
OK_STATUSES = {"pass", "expected-discrepancy", "trivially-true",
               "not-applicable"}
SYMBOLIC_IDS = 11
RATIONAL_IDS = 12
GRID_POINTS = 5 + 2    # fixed points plus the seeded random ones


class UnitError(RuntimeError):
    """A unit or reference process failed or ran out of time."""


# ---------------------------------------------------------------------------
# Workloads: inputs from the seed, a reference made before timing, and the
# gate that checks one unit's output against it.
# ---------------------------------------------------------------------------

class CliWorkload:
    """A workload whose unit is one `degsimsek.cli.main(argv)` call; that
    call is also its one query."""

    argv: list[str]

    def spec(self, unit: int) -> dict:
        return {"workload": self.name, "argv": self.argv}

    @staticmethod
    def latencies(result: dict) -> list[float]:
        return [result["run_s"]]


class Verify(CliWorkload):
    name = "verify"

    def __init__(self, seed: int, smoke: bool):
        self.argv = ["verify", "--order", "2" if smoke else "8",
                     "--workers", str(WORKERS), "--seed", str(seed),
                     "--random-points", str(GRID_POINTS - 5),
                     "--format", "json"]

    def reference(self, timeout: float) -> dict:
        return {"reports": SYMBOLIC_IDS + RATIONAL_IDS * GRID_POINTS}

    @staticmethod
    def gate(result: dict, reference: dict, unit: int) -> tuple[int, int]:
        """(attempted, failed) reports: exit 0, the expected report count,
        and no report outside the passing statuses."""
        expected = reference["reports"]
        try:
            reports = json.loads(result["output"])
        except ValueError:
            return expected, expected
        failed = sum(1 for r in reports if r.get("status") not in OK_STATUSES)
        failed += abs(len(reports) - expected)
        if result["exit"] != 0 and failed == 0:
            failed = 1
        attempted = max(expected, len(reports))
        return attempted, min(failed, attempted)


class Table(CliWorkload):
    name = "table"

    def __init__(self, seed: int, smoke: bool):
        size = "3" if smoke else "10"
        self.argv = ["table", "--family", "y1star", "--n-max", size,
                     "--k-max", size]

    def reference(self, timeout: float) -> dict:
        return spawn("reference.py", {"workload": self.name,
                                      "argv": self.argv + ["--route", "B"]},
                     timeout)

    @staticmethod
    def gate(result: dict, reference: dict, unit: int) -> tuple[int, int]:
        """(attempted, failed) cells: each must equal route B's cell; the
        header may differ only in the route line."""
        got = result["output"].splitlines()
        want = reference["output"].splitlines()
        cells = [line.split(",")[1:] for line in want[8:]]
        attempted = sum(len(row) for row in cells)
        if result["exit"] != 0 or got[:1] + got[2:8] != want[:1] + want[2:8]:
            return attempted, attempted
        failed = 0
        for n, row in enumerate(cells):
            line = got[8 + n] if 8 + n < len(got) else ""
            mine = line.split(",")[1:]
            failed += sum(1 for k, cell in enumerate(row)
                          if k >= len(mine) or mine[k] != cell)
        if len(got) != len(want):
            failed = max(failed, 1)
        return attempted, min(failed, attempted)


class Session:
    """Unit i runs stream i (cycling) of STREAMS streams drawn from the
    seed, so the percentiles pool several streams and depend less on the
    points and indices one stream happens to draw."""
    name = "session"
    STREAMS = 12

    def __init__(self, seed: int, smoke: bool):
        self.streams = [make_queries(seed * self.STREAMS + i,
                                     2 if smoke else 12)
                        for i in range(1 if smoke else self.STREAMS)]

    def queries(self, unit: int) -> list[list]:
        return self.streams[unit % len(self.streams)]

    def spec(self, unit: int) -> dict:
        return {"workload": self.name, "queries": self.queries(unit)}

    def reference(self, timeout: float) -> dict:
        every = [query for stream in self.streams for query in stream]
        return spawn("reference.py", {"workload": self.name,
                                      "queries": every}, timeout)

    def gate(self, result: dict, reference: dict,
             unit: int) -> tuple[int, int]:
        """(attempted, failed) queries: each answer must equal the
        reference answer."""
        answers = result.get("answers", [])
        queries = self.queries(unit)
        failed = 0
        for i, query in enumerate(queries):
            want = reference["answers"].get(json.dumps(query))
            if i >= len(answers) or answers[i] != want:
                failed += 1
        return len(queries), failed

    @staticmethod
    def latencies(result: dict) -> list[float]:
        return result["latencies"]


WORKLOADS = {cls.name: cls for cls in (Verify, Table, Session)}


# ---------------------------------------------------------------------------
# Processes.
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(script: str, payload: dict, timeout: float) -> dict:
    """Run a perfbench script in a fresh interpreter and parse its JSON
    line; the child is killed and reaped if it overruns `timeout`."""
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / script), repr(started)],
            input=json.dumps(payload), capture_output=True, text=True,
            env=child_env(), cwd=ROOT, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise UnitError(f"{script} overran {timeout:.0f} s") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-5:]
        raise UnitError(f"{script} exited {proc.returncode}: "
                        + " | ".join(tail))
    result = json.loads(proc.stdout.splitlines()[-1])
    result["wall_s"] = time.monotonic() - started
    return result


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def src_sha256() -> str:
    """Digest of the package sources, which identifies the code measured
    when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "degsimsek").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Measurement.
# ---------------------------------------------------------------------------

def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 10..90 by tens), interpolated."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def measure(workload, seconds: float, trace: bool, smoke: bool,
            t_start: float) -> dict:
    """Reference, then set-up samples and units until the window is used,
    with the gauge sampling the host's speed throughout; each unit gets the
    speeds of its set-up and run windows."""

    def left() -> float:
        return TIME_LIMIT_S - (time.monotonic() - t_start)

    reference = workload.reference(left())
    spawn("unit.py", {"workload": "setup"}, left())   # writes bytecode caches
    gauge = subprocess.Popen([sys.executable, str(HERE / "gauge.py")],
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             text=True, cwd=ROOT)
    try:
        run = measure_units(workload, seconds, trace, smoke, reference, left)
    finally:
        try:
            out, _ = gauge.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            gauge.kill()
            out, _ = gauge.communicate()
    slices = json.loads(out.splitlines()[-1]) if gauge.returncode == 0 else []
    if not slices:
        raise UnitError("the host-speed gauge took no samples")
    for result in run["setup"] + run["plain"] + run["traced"]:
        for kind in ("setup", "run"):
            if kind + "_window" in result:
                result[kind + "_speed"] = speed(result[kind + "_window"],
                                                slices)
    run["reference"] = reference
    run["slices"] = slices
    return run


def measure_units(workload, seconds: float, trace: bool, smoke: bool,
                  reference: dict, left) -> dict:
    """Set-up samples, then gated units until the window is used."""
    setup = [spawn("unit.py", {"workload": "setup"}, left())
             for _ in range(SETUP_SAMPLES)]
    plain, traced = [], []
    attempted = failed = 0
    error = None
    window = time.monotonic()
    while True:
        # a traced run alternates untraced and traced units, so both
        # medians, and the overhead between them, see the same host states
        use_trace = trace and len(traced) < len(plain)
        unit = len(plain) + len(traced)
        spec = dict(workload.spec(unit), trace=use_trace)
        try:
            result = spawn("unit.py", spec, left())
        except UnitError as exc:
            error = str(exc)
            break
        tried, bad = workload.gate(result, reference, unit)
        attempted += tried
        failed += bad
        setup.append(result)
        (traced if use_trace else plain).append(result)
        if smoke:
            if not trace or traced:
                break
            continue
        if trace and not traced:
            continue
        typical = max(statistics.median(r["wall_s"] for r in units)
                      for units in (plain, traced) if units)
        if (time.monotonic() - window + typical > seconds
                or typical > left()):
            break
    return {"setup": setup, "plain": plain, "traced": traced,
            "attempted": attempted, "failed": failed, "error": error}


def speed(window: list[float], slices: list[list[float]]) -> float:
    """How fast the host ran during `window` against the reference speed:
    the mean speed of the gauge slices near the window (at least the 3
    nearest).  Slices come evenly in time, so a window that is half slow and
    half fast gets the mean of the two speeds, as its work does."""
    lo, hi = window[0] - GAUGE_PAD_S, window[1] + GAUGE_PAD_S
    near = [cpu for start, end, cpu in slices if start < hi and end > lo]
    if len(near) < 3:
        middle = (window[0] + window[1]) / 2
        near = [s[2] for s in sorted(
            slices, key=lambda s: abs((s[0] + s[1]) / 2 - middle))[:3]]
    return statistics.fmean(GAUGE_REF_S / cpu for cpu in near)


def scaled(result: dict, kind: str) -> float:
    """A unit's set-up or run time in seconds at the reference speed."""
    return result[kind + "_s"] * result[kind + "_speed"]


def end_to_end(workload, run: dict) -> dict:
    plain = run["plain"]
    latencies = [x * r["run_speed"]
                 for r in plain for x in workload.latencies(r)]
    return {
        "setup_s": (statistics.median(scaled(r, "setup") for r in run["setup"]),
                    "s"),
        "run_s": (statistics.median(scaled(r, "run") for r in plain), "s"),
        "query_p50_ms": (quantile(latencies, 50) * 1e3, "ms"),
        "query_p90_ms": (quantile(latencies, 90) * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(r["rss_kb"] for r in plain) / 1024,
                        "MB"),
    }


LAYER_UNITS = (("hit_ratio", "ratio", "higher"), ("_s", "s", "lower"),
               ("calls", "count", "lower"), ("series_factors", "count", "lower"))


def layer_unit(name: str) -> tuple[str, str]:
    for suffix, unit, better in LAYER_UNITS:
        if name.endswith(suffix):
            return unit, better
    raise ValueError(f"no unit for layer metric {name!r}")


def per_layer(run: dict) -> tuple[dict, list]:
    """Medians over the traced units, plus the tracing overhead; times at
    the reference host speed, like the end-to-end ones."""
    samples = []
    for r in run["traced"]:
        values, gone = layer_metrics(r["trace"])
        samples.append(({name: value * r["run_speed"] if name.endswith("_s")
                         else value for name, value in values.items()}, gone))
    absent = sorted({name for _, gone in samples for name in gone})
    values = {name: statistics.median(s[0][name] for s in samples)
              for name in samples[0][0]}
    traced_run = statistics.median(scaled(r, "run") for r in run["traced"])
    values["trace.run_s"] = traced_run
    values["trace.overhead_s"] = traced_run - statistics.median(
        scaled(r, "run") for r in run["plain"])
    return {name: (value, layer_unit(name)[0])
            for name, value in values.items()}, absent


def environment(load_start) -> dict:
    return {"git_sha": git_sha(), "src_sha256": src_sha256(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg_start": load_start, "loadavg_end": os.getloadavg()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one tiny unit of each kind, no timing window")
    args = parser.parse_args(argv)
    if not (SRC / "degsimsek" / "cli.py").is_file():
        print(f"perfbench: no src/degsimsek under {ROOT}; run from the root "
              "of a degsimsek checkout", file=sys.stderr)
        return 2

    t_start = time.monotonic()
    load_start = os.getloadavg()
    # every process of the run, the gauge and the units alike, shares one
    # vCPU, so the gauge sees the speed the units see; children inherit this
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    try:
        run = measure(workload, args.seconds, bool(args.trace), args.smoke,
                      t_start)
    except UnitError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if run["error"] or not run["plain"] or (args.trace and not run["traced"]):
        print(f"perfbench: {run['error'] or 'no unit completed'}",
              file=sys.stderr)
        return 1

    absent = []
    if args.trace:
        metrics, absent = per_layer(run)
    else:
        metrics = end_to_end(workload, run)
    env = environment(load_start)
    attempted, failed = run["attempted"], run["failed"]
    correct = failed == 0

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"units={len(run['plain'])}+{len(run['traced'])} traced "
          f"setup_samples={len(run['setup'])} "
          f"latency_samples={sum(len(workload.latencies(r)) for r in run['plain'])}")
    print("env " + json.dumps(env, sort_keys=True))
    units = run["plain"] + run["traced"]
    speeds = [r["run_speed"] for r in units]
    print(f"  host speed / reference: median {statistics.median(speeds):.3g},"
          f" range {min(speeds):.3g}..{max(speeds):.3g}; unscaled median run_s "
          f"{statistics.median(r['run_s'] for r in run['plain']):.6g} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44} {value:.6g} {unit}")
    print(f"  {'fail_frac':44} {failed / attempted:.6g} ({failed}/{attempted})")
    if absent:
        print("absent (function gone, reported as 0): " + ", ".join(absent))

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "env": env, "correct": correct,
              "attempted": attempted, "failed": failed,
              "metrics": {k: v for k, (v, _) in metrics.items()},
              "absent": absent, "gauge": run["slices"],
              "units": [{k: r[k] for k in ("setup_s", "setup_speed", "run_s",
                                           "run_speed", "wall_s", "rss_kb")}
                        for r in units],
              "spans": run["traced"][0]["trace"]["spans"] if run["traced"] else []}
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record) + "\n")

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
