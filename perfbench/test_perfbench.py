"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest -q perfbench

They run each workload once at tiny size (`--smoke`), check the printed
metrics against BENCHMARK.json, and show that every correctness gate catches
a wrong answer when given a corrupted reference.  Nothing here gates on
wall-clock time.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
import json
from pathlib import Path
import shutil
import subprocess
import sys
import time

import pytest

import run
from tracer import MODULES, Tracer, layer_metrics

REPO = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())


def smoke(workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=REPO, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_prints_every_declared_metric(workload, trace):
    proc = smoke(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


def one_unit(workload):
    return run.spawn("unit.py", dict(workload.spec(0), trace=False), 170)


def test_verify_gate_catches_corruption():
    workload = run.Verify(seed=7, smoke=True)
    reference = workload.reference(170)
    result = one_unit(workload)
    assert workload.gate(result, reference, 0) == (95, 0)
    assert workload.gate(result, {"reports": 96}, 0)[1] == 1
    reports = json.loads(result["output"])
    reports[3]["status"] = "fail"
    broken = dict(result, output=json.dumps(reports))
    assert workload.gate(broken, reference, 0)[1] == 1


def test_table_gate_catches_corruption():
    workload = run.Table(seed=7, smoke=True)
    reference = workload.reference(170)
    result = one_unit(workload)
    assert workload.gate(result, reference, 0) == (16, 0)
    lines = reference["output"].splitlines()
    cells = lines[10].split(",")
    cells[2] = "1*l^9"
    lines[10] = ",".join(cells)
    corrupted = dict(reference, output="\n".join(lines) + "\n")
    assert workload.gate(result, corrupted, 0) == (16, 1)


def test_session_gate_catches_corruption():
    workload = run.Session(seed=7, smoke=True)
    reference = workload.reference(170)
    result = one_unit(workload)
    queries = workload.queries(0)
    assert workload.gate(result, reference, 0) == (len(queries), 0)
    key = json.dumps(queries[5])
    corrupted = {"answers": dict(reference["answers"], **{key: "1/3"})}
    repeats = sum(json.dumps(q) == key for q in queries)
    assert workload.gate(result, corrupted, 0)[1] == repeats


def test_session_streams_are_seeded():
    assert run.Session(3, False).streams == run.Session(3, False).streams
    assert run.Session(3, False).streams != run.Session(4, False).streams
    streams = run.Session(3, False).streams
    assert len(streams) == run.Session.STREAMS
    assert len({str(stream) for stream in streams}) == len(streams)


def test_speed_is_the_mean_over_the_window():
    ref = run.GAUGE_REF_S
    fast, slow = [ref], [2 * ref]
    # slices every 0.1 s: fast over 0..1 s, slow over 1..2 s
    slices = [[t / 10, t / 10 + 0.005] + (fast if t < 10 else slow)
              for t in range(20)]
    assert run.speed([0.0, 0.4], slices) == pytest.approx(1.0)
    assert run.speed([1.5, 1.7], slices) == pytest.approx(0.5)
    assert run.speed([0.5, 1.45], slices) == pytest.approx(0.75)
    # a window far from every slice takes the 3 nearest
    assert run.speed([5.0, 5.01], slices) == pytest.approx(0.5)
    assert run.scaled({"run_s": 3.0, "run_speed": 0.5}, "run") == 1.5


def test_self_time_excludes_children_and_pool_waits():
    tracer = Tracer()

    def leaf():
        time.sleep(0.02)

    def job():
        leaf()

    def root():
        time.sleep(0.01)
        with ThreadPoolExecutor(max_workers=2) as pool:
            for future in [pool.submit(job) for _ in range(2)]:
                future.result()

    leaf = tracer.wrap("m.leaf", leaf)
    job = tracer.wrap("m.job", job)
    root = tracer.wrap("m.root", root)
    root()
    agg = tracer.snapshot()["agg"]
    assert agg["m.leaf"][0] == 2 and agg["m.job"][0] == 2
    assert agg["m.job"][2] < 0.01            # its time is the leaf's
    assert 0.005 < agg["m.root"][2] < 0.025  # waiting on the pool is not self
    spans = tracer.snapshot()["spans"]
    assert {s[4] for s in spans if s[0] == "m.job"} == {"m.root"}


def test_tracer_wraps_every_binding_and_alias():
    code = (
        "import degsimsek, degsimsek.cli\n"
        "from tracer import Tracer\n"
        "t = Tracer(); t.install(degsimsek)\n"
        "from degsimsek import phi, registry, simsek, algebra\n"
        "assert phi.y1star is simsek.y1star is registry.y1star\n"
        "assert hasattr(simsek.y1star, '__wrapped__')\n"
        "assert hasattr(degsimsek.cli.main, '__wrapped__')\n"
        "P = algebra.ParamPoly\n"
        "assert P.__rmul__ is not P.__mul__\n"
        "(P.lam() * 2); (2 * P.lam())\n"
        "agg = t.snapshot()['agg']\n"
        "assert agg['algebra.ParamPoly.__mul__'][0] == 1\n"
        "assert agg['algebra.ParamPoly.__rmul__'][0] == 1\n"
        "print('ok')\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=REPO / "perfbench",
                          env=run.child_env(), capture_output=True, text=True,
                          timeout=60)
    assert proc.stdout.strip() == "ok", proc.stderr


def test_missing_functions_are_reported_absent():
    empty = {"agg": {}, "counters": {}, "spans": [], "wrapped": [],
             "absent": []}
    values, absent = layer_metrics(empty)
    assert set(absent) == set(values)
    assert all(v == 0 for v in values.values())
    assert {f"{m}.calls" for m in MODULES} <= set(absent)
