"""One measured unit of a perfbench workload, run in a fresh interpreter.

    python3 perfbench/unit.py SPAWN_MONOTONIC < spec.json

SPAWN_MONOTONIC is the parent's time.monotonic() just before it started this
process (the clock is system-wide), so set-up time is interpreter start plus
`import degsimsek.cli`.  The spec (JSON on stdin) names the workload and its
inputs.  The unit prints one JSON line: set-up time, run time, peak RSS, the
program's output, the set-up and run windows on the system-wide monotonic
clock (to match against the host-speed gauge) and, when traced, the trace
snapshot.
"""

import sys
import time

_SPAWN = float(sys.argv[1])
import degsimsek.cli  # noqa: E402  (the set-up being measured)
SETUP_S = time.monotonic() - _SPAWN

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import degsimsek  # noqa: E402
from session import decode  # noqa: E402


def run_cli(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        code = degsimsek.cli.main(argv)
        run_s = time.perf_counter() - start
    return {"run_s": run_s, "exit": code, "output": out.getvalue()}


def answer(query: tuple):
    """One library call of the session workload."""
    kind = query[0]
    if kind == "y1star":
        _, n, k, route = query
        return degsimsek.y1star(n, k, route)
    if kind == "y1star_at":
        _, n, k, route, lam, alpha = query
        return degsimsek.y1star(n, k, route).evaluate(lam, alpha)
    if kind == "phi":
        _, n, lam, alpha, order = query
        return degsimsek.phi_series(n, lam, alpha, order)
    if kind == "fk":
        _, k, order = query
        return degsimsek.fk_series(k, order)
    if kind == "s2star":
        _, n, k, alpha = query
        return degsimsek.new_deg_stirling2(n, k, alpha)
    if kind == "bernoulli":
        _, n, k = query
        return degsimsek.bernoulli_number(n, k)
    if kind == "apostol":
        _, n, k, lam, alpha = query
        return degsimsek.apostol_euler(n, k, lam, alpha)
    raise ValueError(f"unknown query kind {kind!r}")


def run_session(queries: list[list]) -> dict:
    decoded = [decode(q) for q in queries]
    values = []
    latencies = []
    clock = time.perf_counter
    start = clock()
    for query in decoded:
        t0 = clock()
        values.append(answer(query))
        latencies.append(clock() - t0)
    run_s = clock() - start
    answers = [v.render() if hasattr(v, "render") else str(v) for v in values]
    return {"run_s": run_s, "latencies": latencies, "answers": answers}


def main() -> None:
    spec = json.load(sys.stdin)
    result = {"setup_s": SETUP_S, "setup_window": [_SPAWN, _SPAWN + SETUP_S]}
    if spec["workload"] != "setup":
        tracer = None
        if spec.get("trace"):
            from tracer import Tracer
            tracer = Tracer()
            tracer.install(degsimsek)
        begin = time.monotonic()
        if spec["workload"] == "session":
            result.update(run_session(spec["queries"]))
        else:
            result.update(run_cli(spec["argv"]))
        result["run_window"] = [begin, time.monotonic()]
        result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            result["trace"] = tracer.snapshot()
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
