"""Registry invariants, suite determinism, table round-trips, and the CLI."""

import csv
from fractions import Fraction
import io
import json
from pathlib import Path
import re
import subprocess
import sys

import pytest

from degsimsek.registry import (FIXED_POINTS, REGISTRY, default_grid,
                                random_points, run_suite, suite_failed)
from degsimsek.reports import (IdentityReport, reports_to_csv,
                               reports_to_json, verdict)
from degsimsek.tables import (NumberTable, TableUsageError, build_table,
                              render_csv, render_json)

CORE_IDS = {"FUNC-EQ", "THM-S1", "EXPL-B", "EXPL-C", "EXPL-D", "REL-S2A",
            "REL-S2STAR", "REC-K", "REC-N", "PHI-EGF", "PHI-LOG", "PHI-REC",
            "PHI-DER", "PHI-AE", "PHI-INT", "PHI-FT", "RED-A0",
            "RED-CLASSICAL"}


# ---------------------------------------------------------------------------
# registry structure
# ---------------------------------------------------------------------------

def test_registry_ids_unique_and_complete():
    ids = [entry.id for entry in REGISTRY]
    assert len(ids) == len(set(ids))
    assert CORE_IDS <= set(ids)
    # variants must point at a real core entry
    for entry in REGISTRY:
        if entry.variant_of:
            assert entry.variant_of in CORE_IDS


def test_default_grid_contains_fixed_points():
    grid = default_grid(seed=3, extra=2)
    assert grid[:5] == list(FIXED_POINTS)
    assert len(grid) == 7
    for lam, alpha in grid:
        assert lam not in (0, -1)


def test_random_points_are_seed_stable():
    assert random_points(5, 4) == random_points(5, 4)
    assert random_points(5, 4) != random_points(6, 4)
    for lam, alpha in random_points(0, 50):
        assert lam not in (0, -1)
        assert lam + alpha != -1
        assert abs(lam.numerator) <= 9 and lam.denominator <= 9
        assert abs(alpha.numerator) <= 9 and alpha.denominator <= 9


def test_unknown_filter_id_is_rejected():
    with pytest.raises(KeyError):
        run_suite(["NOT-AN-ID"])


# ---------------------------------------------------------------------------
# suite behaviour
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def suite_reports():
    return run_suite(order=8, seed=0, extra_points=2)


def test_suite_has_no_failures(suite_reports):
    assert not suite_failed(suite_reports)
    statuses = {r.status for r in suite_reports}
    assert "fail" not in statuses


def test_suite_report_per_identity_point(suite_reports):
    grid_size = 7
    rational = [e for e in REGISTRY if e.mode == "rational"]
    symbolic = [e for e in REGISTRY if e.mode == "symbolic"]
    assert len(suite_reports) == len(symbolic) + grid_size * len(rational)


def test_suite_expected_discrepancies(suite_reports):
    by_id = {}
    for r in suite_reports:
        by_id.setdefault(r.id, []).append(r)
    # PHI-INT: pass iff alpha = 0, expected-discrepancy otherwise
    for r in by_id["PHI-INT"]:
        expected = "pass" if r.alpha == 0 else "expected-discrepancy"
        assert r.status == expected, (r.lam, r.alpha, r.status)
    for r in by_id["PHI-INT-CORR"]:
        assert r.status == "pass"
    for r in by_id["REL-S2STAR"]:
        assert r.status == "pass"
    for r in by_id["REL-S2STAR-KIDX"] + by_id["REL-S2STAR-ZERO0"]:
        assert r.status == "expected-discrepancy"
    # the duplicated-lambda reading is indistinguishable exactly at lam = 1
    for r in by_id["REL-S2STAR-DUPL"]:
        expected = "pass" if r.lam == 1 else "expected-discrepancy"
        assert r.status == expected
    assert by_id["EXPL-C-PRINTED"][0].status == "expected-discrepancy"
    for rid in CORE_IDS - {"PHI-INT", "PHI-LOG"}:
        for r in by_id[rid]:
            assert r.status == "pass", (rid, r.mismatch)
    for r in by_id["PHI-LOG"]:
        expected = "trivially-true" if r.alpha == 0 else "pass"
        assert r.status == expected


def test_verify_csv_rows_round_trip_to_json_reports(suite_reports):
    rows = list(csv.reader(io.StringIO(reports_to_csv(suite_reports))))
    header = ["id", "lambda", "alpha", "orders", "status", "mismatch"]
    assert rows[0] == header
    reports = json.loads(reports_to_json(suite_reports))
    assert len(rows) == len(reports) + 1
    for row, report in zip(rows[1:], reports):
        assert len(row) == 6
        assert row == ["" if report[f] is None else report[f] for f in header]
    # the orders "n,k<=8" and many mismatches hold commas
    assert any("," in field for row in rows for field in row)


def test_suite_determinism_across_workers():
    # --workers is accepted and ignored; each run is a fresh interpreter
    for fmt in ("csv", "json"):
        runs = [run_cli("verify", "--seed", "0", "--order", "8", "--format",
                        fmt, "--workers", workers) for workers in ("1", "3")]
        assert [r.returncode for r in runs] == [0, 0]
        assert runs[0].stdout == runs[1].stdout


@pytest.mark.parametrize("order", [2, 12])
def test_symbolic_bound_is_independent_of_order(order):
    # the symbolic checks and REL-S2STAR compare n, k <= 8 at every order;
    # FUNC-EQ's series order N, PHI-EGF's orders in x and t and the phi
    # checks' order K follow it: every entry's orders text, at every point
    reports = run_suite(order=order, extra_points=0)
    assert {r.id for r in reports} == {entry.id for entry in REGISTRY}
    assert not suite_failed(reports)
    expected = {"FUNC-EQ": f"k<=8;N={order}",
                "PHI-EGF": f"Nt={order};K={order}"}
    for r in reports:
        phi = r.id.startswith("PHI-")
        orders = expected.get(r.id, f"K={order};n<=3" if phi else "n,k<=8")
        assert r.orders == orders, (r.id, r.point_index)


BAD_POINTS = [(Fraction(-1), Fraction(0)),      # Apostol-Euler needs lam != -1
              (Fraction(0), Fraction(1, 2)),     # S2* relation needs lam != 0
              (Fraction(1, 2), Fraction(-3, 2))]  # lam + alpha = -1
# the entries whose domain excludes each bad point
OUTSIDE = dict(zip(BAD_POINTS, [
    {"PHI-AE", "PHI-INT", "PHI-INT-CORR"},
    {"REL-S2STAR", "REL-S2STAR-KIDX", "REL-S2STAR-DUPL", "REL-S2STAR-ZERO0"},
    {"PHI-INT-CORR"}]))


@pytest.mark.parametrize("bad", BAD_POINTS)
def test_bad_grid_point_keeps_every_report(bad):
    # a point outside an entry's domain reads not-applicable there, runs
    # every other entry, and fails nothing
    outside = OUTSIDE[bad]
    good = (Fraction(1), Fraction(0))
    ids = [e.id for e in REGISTRY if e.mode == "rational"]
    reports = run_suite(ids, order=2, grid=[good, bad])
    assert len(reports) == 2 * len(ids)
    skipped = [r for r in reports if r.status == "not-applicable"]
    assert {r.id for r in skipped} == outside
    for r in skipped:
        assert (r.point_index, r.lam, r.alpha, r.mismatch) == (1, *bad, "")
    assert not [r for r in reports if r.status == "error"]
    assert not suite_failed(reports)
    # the good point reports exactly what it reports on its own
    alone = run_suite(ids, order=2, grid=[good])
    assert [r.to_dict() for r in reports if r.point_index == 0] == \
        [r.to_dict() for r in alone]


def test_cli_verify_exits_one_on_error_report(monkeypatch, capsys):
    # a check that raises reports error and fails the suite; a point
    # outside a domain reports not-applicable and fails nothing
    from degsimsek import cli, registry
    from degsimsek.algebra import SeriesDomainError

    def broken(ctx, n, order, corrected=False):
        raise SeriesDomainError("broken check")

    monkeypatch.setattr(registry, "check_phi_integral", broken)
    monkeypatch.setattr(registry, "default_grid",
                        lambda seed, extra: [(Fraction(1), Fraction(0)),
                                             BAD_POINTS[2]])
    assert cli.main(["verify", "--identity", "PHI-INT-CORR",
                     "--order", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith(" error  [SeriesDomainError: broken check]")
    assert lines[1].endswith(" not-applicable")
    assert lines[-1] == "2 reports, 1 failures"


def test_run_entry_names_and_places_each_verdict():
    # an entry is data: one that streams EXPL-B's pairs reports under its
    # own id, and a stub with only a stream and metadata reports pass,
    # fail, trivially-true, not-applicable and error through _run_entry,
    # with its orders text at the suite's order, at the point and index of
    # the context it runs on
    from degsimsek.phi import PointContext
    from degsimsek.registry import _BY_ID, RegistryEntry, _run_entry
    expl_b = _BY_ID["EXPL-B"]
    alias = RegistryEntry("ALIAS", "EXPL-B under another id", "symbolic",
                          expl_b.orders, expl_b.pairs)
    report = _run_entry(alias, None, 8, 0)
    assert (report.id, report.lam, report.alpha, report.point_index) == \
        ("ALIAS", None, None, 0)
    assert report.to_dict() == {**_run_entry(expl_b, None, 8, 0).to_dict(),
                                "id": "ALIAS"}

    # at (2/3, -1/4), D = 12: entry 1 of an EGF in u over den 1 is 12 times
    # the coefficient of x^1
    equal = (("n={};x^{}", (1, 0), 0, 1), 5, 5)
    unequal = (("n={};x^{}", (1, 1), 1, 1), 24, 36)

    def stream(*pairs):
        def pairs_at(ctx, order):
            runs.append((ctx, order))
            for pair in pairs:
                if pair is None:
                    raise ValueError("bad stream")
                yield pair
        return pairs_at

    ctx = PointContext(Fraction(2, 3), Fraction(-1, 4))
    cases = [
        (stream(equal), {}, ("K=3", "pass", "")),
        (stream(equal, unequal, None), {},
         ("K=3", "fail", "n=1;x^1;lhs=2;rhs=3")),
        (stream(equal, unequal), {"mismatch_status": lambda lam, alpha:
                                  "expected-discrepancy" if alpha else "fail"},
         ("K=3", "expected-discrepancy", "n=1;x^1;lhs=2;rhs=3")),
        (stream(), {}, ("K=3", "trivially-true", "")),
        (stream(equal), {"domain": lambda lam, alpha: alpha > 0},
         ("", "not-applicable", "")),
        (stream(equal, None), {}, ("", "error", "ValueError: bad stream"))]
    for pairs, fields, (orders, status, mismatch) in cases:
        runs = []
        stub = RegistryEntry("STUB", "a stub", "rational", "K={order}",
                             pairs, **fields)
        report = _run_entry(stub, ctx, 3, 5)
        assert runs == ([] if status == "not-applicable" else [(ctx, 3)])
        assert report == IdentityReport("STUB", Fraction(2, 3),
                                        Fraction(-1, 4), orders, status,
                                        mismatch, 5)


def test_verdict_reports_the_first_unequal_pair():
    # the first unequal pair gives the status and the text, even when a
    # later pair differs too, and the stream is read no further; every
    # pair equal is pass, and no pair at all trivially-true
    described = []

    def describe(where, lhs, rhs):
        described.append(where)
        return f"{where};lhs={lhs};rhs={rhs}"

    pairs = [("n=0", 1, 1), ("n=1", 2, 3), ("n=2", 4, 5)]
    stream = iter(pairs)
    assert verdict(stream, describe) == ("fail", "n=1;lhs=2;rhs=3")
    assert list(stream) == [("n=2", 4, 5)]
    assert verdict(pairs, describe, "expected-discrepancy") == \
        ("expected-discrepancy", "n=1;lhs=2;rhs=3")
    assert described == ["n=1", "n=1"]
    assert verdict([("n=0", 1, 1), ("n=1", {}, {})], describe) == ("pass", "")
    assert verdict(iter(()), describe) == ("trivially-true", "")
    assert verdict([], describe, "expected-discrepancy") == \
        ("trivially-true", "")
    assert described == ["n=1", "n=1"]


# Phi wrong by one at (n, k) = (0, 2) and (2, 0), at lambda = 2/3 and
# alpha = 1/3: PHI-REC then mismatches at n = 0 (x^3) and n = 1 (x^0),
# PHI-INT at n = 1 (x^1) and n = 2 (x^0), and PHI-FT under f = 1 at n = 2
# and under f = x at n = 0.  Each entry reports the first mismatch of its
# stream, in order of n, and of f before n for PHI-FT: not the lowest
# degree, nor the lowest n over every f.
@pytest.mark.parametrize("rid,status,text", [
    ("PHI-REC", "fail", "n=0;x^3;lhs=47/81;rhs=142/243"),
    ("PHI-INT", "expected-discrepancy", "n=1;x^1;lhs=0;rhs=-2/25"),
    ("PHI-FT", "fail", "n=2;f=[1];x^0;lhs=1;rhs=2")])
def test_planted_faults_report_the_first_mismatch_in_stream_order(
        rid, status, text):
    from degsimsek.phi import PointContext
    from degsimsek.registry import _BY_ID, _run_entry
    ctx = PointContext(Fraction(2, 3), Fraction(1, 3))
    # every check reads the context's one kept row per n
    for n, k in ((0, 2), (2, 0)):
        ctx.phi_row(n, 8)[k] += 1
    report = _run_entry(_BY_ID[rid], ctx, 8, 0)
    assert (report.orders, report.status, report.mismatch) == \
        ("K=8;n<=3", status, text)


def test_a_fault_in_the_corrected_variant_fails_the_suite(monkeypatch):
    # PHI-INT-CORR is a variant of PHI-INT, but a correction held to its
    # identity: a one-off fault in its corrected Euler row reports fail at
    # every point and fails the suite, while the rejected readings report
    # what they report without it, expected-discrepancy (or pass where a
    # reading coincides, as DUPL's l^j factor does at lambda = 1), and
    # fail nothing
    from degsimsek.phi import PointContext
    rejected = ["EXPL-C-PRINTED", "REL-S2STAR-KIDX", "REL-S2STAR-DUPL",
                "REL-S2STAR-ZERO0"]
    before = run_suite(rejected, order=4, extra_points=0)
    row = PointContext.corrected_euler_row

    def faulty(self, n):
        nums, den = row(self, n)
        return [nums[0] + 1, *nums[1:]], den

    monkeypatch.setattr(PointContext, "corrected_euler_row", faulty)
    reports = run_suite(["PHI-INT-CORR", *rejected], order=4,
                        extra_points=0)
    corrected = [r for r in reports if r.id == "PHI-INT-CORR"]
    assert len(corrected) == len(FIXED_POINTS)
    assert all(r.status == "fail" and r.mismatch for r in corrected)
    assert suite_failed(reports)
    assert [r for r in reports if r.id in rejected] == before
    assert {r.status for r in before} == {"expected-discrepancy", "pass"}
    assert not suite_failed(before)


def test_a_fault_in_the_shared_reciprocal_fails_every_check_reading_it(
        monkeypatch):
    # algebra._reciprocal inverts the Bernoulli and Apostol-Euler bases of
    # the product chains and the corrected Euler weights of a point; with
    # one wrong coefficient from t^2 on (the later ones extend it), EXPL-D,
    # which reads the Bernoulli chain through route D's weights, never
    # passes, and PHI-AE and PHI-INT-CORR fail at every grid point in
    # their domain
    from degsimsek import algebra, classical, degenerate, phi, simsek
    from degsimsek.registry import _BY_ID
    exact = algebra._reciprocal

    def faulty(nums, den, old=None):
        bs, d = exact(nums, den, old)
        if len(bs) > 2 and (old is None or len(old[0]) <= 2):
            bs = [*bs[:2], bs[2] + d, *bs[3:]]
        return algebra._lowest(bs, d)

    for module in (classical, phi):
        monkeypatch.setattr(module, "_reciprocal", faulty)
    # cold chains and weights, so that every value is read through the fault
    monkeypatch.setattr(classical, "_bernoulli_powers", classical._ProductChain(
        classical._Reciprocal(classical._bernoulli_inner)))
    monkeypatch.setattr(degenerate, "_apostol_chains", {})
    monkeypatch.setattr(simsek, "_route_d_weights", {})
    reports = run_suite(order=8)
    assert suite_failed(reports)
    expl_d = [r for r in reports if r.id == "EXPL-D"]
    assert len(expl_d) == 1 and expl_d[0].status in ("fail", "error")
    for rid in ("PHI-AE", "PHI-INT-CORR"):
        checked = [r for r in reports if r.id == rid]
        assert len(checked) == len(default_grid())
        for r in checked:
            inside = _BY_ID[rid].domain(r.lam, r.alpha)
            assert r.status == ("fail" if inside else "not-applicable"), \
                (rid, r.lam, r.alpha)
        assert any(r.status == "fail" for r in checked)


def test_a_wrong_step_in_route_e_fails_rec_k_and_func_eq(monkeypatch):
    # route E's column recurrence serves REC-K at c = 1 and FUNC-EQ's left
    # side at c = 0: with its step term -k read as -(k + 1) from k = 3 on,
    # both fail, and so does the suite, while EXPL-B, which reads route A
    # and route B alone, passes
    import inspect
    from degsimsek import registry, simsek
    source = inspect.getsource(simsek._fill_k_recurrence)
    assert source.count("(y, -k, 0, 1)") == 1
    namespace = dict(vars(simsek))
    exec(source.replace("(y, -k, 0, 1)", "(y, -k - (k >= 3), 0, 1)"),
         namespace)
    mutant = namespace["_fill_k_recurrence"]
    monkeypatch.setattr(simsek, "_triangle_e", simsek._Triangle(mutant))
    monkeypatch.setattr(registry, "_fill_k_recurrence", mutant)
    reports = run_suite(["EXPL-B", "FUNC-EQ", "REC-K"], order=8)
    assert {r.id: r.status for r in reports} == {
        "EXPL-B": "pass", "FUNC-EQ": "fail", "REC-K": "fail"}
    assert suite_failed(reports)


def test_a_pass_at_order_one_compared_at_least_one_pair(monkeypatch):
    # verify --order 1: every rational entry that reports pass at a point
    # of the default grid walked at least one pair through reports.verdict
    from degsimsek import registry
    from degsimsek.phi import PointContext
    counts = []

    def counting(pairs, describe, mismatch_status="fail"):
        counts.append(0)

        def walk():
            for pair in pairs:
                counts[-1] += 1
                yield pair
        return verdict(walk(), describe, mismatch_status)

    monkeypatch.setattr(registry, "verdict", counting)
    passed = {}
    for idx, point in enumerate(default_grid()):
        ctx = PointContext(*point)
        for entry in REGISTRY:
            if entry.mode != "rational":
                continue
            counts.clear()
            report = registry._run_entry(entry, ctx, 1, idx)
            if report.status == "pass":
                assert counts[0] > 0, (entry.id, point)
                passed[entry.id] = counts[0]
    # one pair per n at x^0 for the derivative checks, which lose an order
    assert passed["PHI-DER"] == passed["PHI-AE"] == 4
    assert {"PHI-EGF", "PHI-REC", "PHI-FT", "REL-S2STAR"} <= set(passed)


def test_suite_filter_runs_subset():
    reports = run_suite(["REC-K", "RED-A0"])
    assert [r.id for r in reports] == ["REC-K", "RED-A0"]
    assert all(r.status == "pass" for r in reports)


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def test_table_golden_entries():
    table = build_table("y1star", "A", 1, 2)
    assert table.entries[1][2] == "1*l^2 + 1*l + -1/2*l*a"
    assert [row[0] for row in table.entries] == ["1", "0"]
    s2 = build_table("stirling2", None, 4, 4)
    assert s2.entries[4][2] == "7"


def test_table_round_trip_csv_and_json():
    cases = [
        build_table("y1star", "B", 3, 4),
        build_table("y1star", "A", 2, 2, lam=Fraction(1, 2)),
        build_table("y1", None, 3, 3, lam=Fraction(2)),
        build_table("deg-stirling1", None, 4, 4),
        build_table("deg-stirling2", None, 4, 4, alpha=Fraction(1, 3)),
        build_table("s2star", None, 3, 3),
        build_table("bernoulli", None, 4, 3),
        build_table("y1deg", None, 3, 3, lam=Fraction(1), alpha=Fraction(1, 2)),
    ]
    # read back with the csv and json modules, each text holds every field
    # of the table
    for table in cases:
        fields = {"family": table.family, "route": table.route,
                  "lambda": "symbolic" if table.lam is None else str(table.lam),
                  "alpha": ("symbolic" if table.alpha is None
                            else str(table.alpha)),
                  "version": table.version}
        rows = list(csv.reader(io.StringIO(render_csv(table))))
        assert dict(rows[:7]) == {**fields, "n_max": str(table.n_max),
                                  "k_max": str(table.k_max)}
        assert rows[7:] == [["n\\k", *map(str, range(table.k_max + 1))]] + [
            [str(n), *row] for n, row in enumerate(table.entries)]
        assert json.loads(render_json(table)) == {
            **fields, "n_range": [0, table.n_max],
            "k_range": [0, table.k_max], "entries": table.entries}


def test_table_csv_rows_parse_back_to_their_cells():
    # table CSV goes through the csv module: every row reads back as its
    # cells, and a cell holding a comma or a quote survives the round trip
    tables = [build_table("y1star", "A", 3, 4),
              build_table("y1star", "C", 3, 3, lam=Fraction(-1, 2),
                          alpha=Fraction(2, 3)),
              NumberTable("y1", "", 0, 1, None, None, [["1", 'a,"b"']])]
    for table in tables:
        rows = list(csv.reader(io.StringIO(render_csv(table))))
        assert rows[:8] == [
            ["family", table.family], ["route", table.route],
            ["n_max", str(table.n_max)], ["k_max", str(table.k_max)],
            ["lambda", "symbolic" if table.lam is None else str(table.lam)],
            ["alpha", "symbolic" if table.alpha is None else str(table.alpha)],
            ["version", table.version],
            ["n\\k", *(str(k) for k in range(table.k_max + 1))]]
        assert rows[8:] == [[str(n), *row]
                            for n, row in enumerate(table.entries)]


def test_table_determinism():
    a = render_csv(build_table("y1star", "E", 4, 4))
    b = render_csv(build_table("y1star", "E", 4, 4))
    assert a == b


def test_table_usage_errors():
    with pytest.raises(TableUsageError):
        build_table("nope", None, 2, 2)
    with pytest.raises(TableUsageError):
        build_table("stirling2", "A", 2, 2)
    with pytest.raises(TableUsageError):
        build_table("stirling1", None, 2, 2, lam=Fraction(1))
    with pytest.raises(TableUsageError):
        build_table("y1", None, 2, 2, alpha=Fraction(1))


def test_symbolic_and_substituted_tables_agree():
    sym = build_table("y1star", "A", 3, 3)
    sub = build_table("y1star", "A", 3, 3, lam=Fraction(1), alpha=Fraction(1, 2))
    from degsimsek.simsek import y1star
    for n in range(4):
        for k in range(4):
            value = y1star(n, k).evaluate(Fraction(1), Fraction(1, 2))
            assert sub.entries[n][k] == str(value)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "degsimsek.cli", *args],
                          capture_output=True, text=True)


def test_cli_compute_goldens():
    out = run_cli("compute", "--family", "y1star", "--route", "B",
                  "--n", "1", "--k", "2")
    assert out.returncode == 0
    assert out.stdout.strip() == "1*l^2 + 1*l + -1/2*l*a"
    out = run_cli("compute", "--family", "y1", "--n", "0", "--k", "3",
                  "--lambda", "1")
    assert out.returncode == 0 and out.stdout.strip() == "4/3"


def test_cli_phi_golden():
    out = run_cli("phi", "--n", "0", "--lambda", "0", "--alpha", "1",
                  "--degree", "4")
    assert out.returncode == 0
    assert out.stdout.strip() == "[1, 1, 0, 0, 0]"


def test_cli_series():
    out = run_cli("series", "--family", "y1star", "--k", "0", "--order", "3")
    assert out.returncode == 0
    assert out.stdout.strip() == "[1, 0, 0, 0]"
    out = run_cli("series", "--family", "y1star", "--k", "2", "--order", "2",
                  "--lambda", "1", "--alpha", "1/2")
    assert out.returncode == 0
    # F_2 at (1, 1/2): [ (2)(3/2)/2, 7/4, ... ]
    assert out.stdout.strip().startswith("[3/2, 7/4")


def test_cli_reads_negative_rational_after_space():
    joined = run_cli("phi", "--n", "1", "--lambda=-1/2", "--alpha=0")
    spaced = run_cli("phi", "--n", "1", "--lambda", "-1/2", "--alpha", "0")
    assert joined.returncode == 0 and joined.stdout.startswith("[0, -1/2")
    assert (spaced.returncode, spaced.stdout) == (0, joined.stdout)
    spaced = run_cli("compute", "--family", "y1star", "--n", "2", "--k", "2",
                     "--lambda", "-3", "--alpha", "-1/3")
    joined = run_cli("compute", "--family", "y1star", "--n", "2", "--k", "2",
                     "--lambda=-3", "--alpha=-1/3")
    assert (spaced.returncode, spaced.stdout) == (0, joined.stdout)
    for bad in ("-1/0", "-x", "-1/2/3"):
        result = run_cli("phi", "--n", "1", "--lambda", bad, "--alpha", "0")
        assert result.returncode == 2, bad
        assert "Traceback" not in result.stderr


def test_cli_caps_the_decimal_exponent_of_a_rational():
    # the cap is accepted; one more exits 2 with a message naming the cap
    # (y*(0,0) = 1 keeps the accepted case's output short)
    accepted = run_cli("compute", "--family", "y1star", "--n", "0", "--k",
                       "0", "--lambda=1e20000", "--alpha=1e-20000")
    assert (accepted.returncode, accepted.stdout) == (0, "1\n")
    rejected = run_cli("phi", "--n", "1", "--lambda=1e20001", "--alpha=0")
    assert rejected.returncode == 2 and rejected.stdout == ""
    assert rejected.stderr.splitlines()[-1] == (
        "degsimsek phi: error: argument --lambda: rational '1e20001' has a "
        "decimal exponent above the cap of 20000")


def test_cli_caps_the_random_points_of_verify(monkeypatch, capsys):
    # argparse reads the cap and rejects one more, with exit 2 and a
    # message naming the cap, before any point is built or suite runs
    from degsimsek import cli
    cap = cli.MAX_RANDOM_POINTS
    assert cap == 10_000
    args = cli.build_parser().parse_args(["verify", "--random-points",
                                          str(cap)])
    assert args.random_points == cap

    def no_suite(*args, **kwargs):
        raise AssertionError("a suite ran")
    monkeypatch.setattr(cli, "run_suite", no_suite)
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--random-points", str(cap + 1)])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.splitlines()[-1] == (
        "degsimsek verify: error: argument --random-points: over the cap "
        "of 10000")


# (argv before the capped flag, the flag, its cap's name in cli, whether
# the cap is route A's); the benchmark, tools/compare_outputs.py,
# tools/uncalled.py and the tests use sizes of at most 16
SIZE_CAPS = [
    (["compute", "--family", "y1star", "--route", "B", "--k", "1"], "--n",
     "MAX_SIZE", False),
    (["compute", "--family", "y1", "--n", "1"], "--k", "MAX_SIZE", False),
    (["series", "--family", "y1deg", "--k", "1"], "--order", "MAX_SIZE",
     False),
    (["series", "--order", "1", "--lambda", "1", "--alpha", "0"], "--k",
     "MAX_SIZE", False),
    (["table", "--family", "stirling2", "--k-max", "1"], "--n-max",
     "MAX_SIZE", False),
    (["table", "--family", "y1star", "--route", "F", "--n-max", "1"],
     "--k-max", "MAX_SIZE", False),
    (["phi", "--lambda", "1", "--alpha", "0"], "--n", "MAX_FK_ROWS", False),
    (["phi", "--n", "1", "--lambda", "1", "--alpha", "0"], "--degree",
     "MAX_FK_ROWS", False),
    (["phi", "--n", "1", "--lambda", "1", "--alpha", "0"], "--order",
     "MAX_FK_ROWS", False),
    (["verify"], "--order", "MAX_FK_ROWS", False),
    (["compute", "--family", "y1star", "--k", "1"], "--n", "MAX_FK", True),
    (["compute", "--family", "y1star", "--route", "A", "--n", "1",
      "--lambda", "1", "--alpha", "0"], "--k", "MAX_FK", True),
    (["series", "--k", "1"], "--order", "MAX_FK", True),
    (["series", "--order", "1"], "--k", "MAX_FK", True),
    (["table", "--family", "y1star", "--k-max", "1"], "--n-max",
     "MAX_FK_ROWS", True),
    (["table", "--family", "y1star", "--route", "A", "--n-max", "1",
      "--lambda", "1", "--alpha", "0"], "--k-max", "MAX_FK_ROWS", True),
]


@pytest.mark.parametrize("argv, flag, name, route_a", SIZE_CAPS)
def test_cli_caps_every_size_flag(monkeypatch, capsys, argv, flag, name,
                                  route_a):
    # the cap reaches the command; one more exits 2 with a message naming
    # the cap before any command runs, from argparse, or for route A's
    # F_k from the check main makes before it runs a command
    from degsimsek import cli
    cap = getattr(cli, name)
    assert (cli.MAX_SIZE, cli.MAX_FK, cli.MAX_FK_ROWS) == (56, 40, 27)
    ran = []
    for command in ("compute", "series", "phi", "table", "verify"):
        monkeypatch.setattr(cli, f"_cmd_{command}",
                            lambda args: ran.append(args) or 0)
    assert cli.main(argv + [flag, str(cap)]) == 0
    assert cap in vars(ran.pop()).values()
    try:
        code = cli.main(argv + [flag, str(cap + 1)])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert (code, ran, captured.out) == (2, [], "")
    shown = ("--degree/--order" if argv[0] == "phi" and flag != "--n"
             else flag)
    assert captured.err.splitlines()[-1] == (
        f"degsimsek {argv[0]}: error: argument {shown}: over the cap of "
        f"{cap}" + (" for route A's F_k" if route_a else ""))


@pytest.mark.parametrize("order, cap", [(1, 10_000), (8, 10_000),
                                        (9, 6_242), (16, 625), (27, 77)])
def test_cli_caps_random_points_with_the_order(monkeypatch, capsys, order,
                                               cap):
    # --random-points and --order are bounded together: random points times
    # order^4 at most MAX_POINT_WORK, which MAX_RANDOM_POINTS reaches at
    # order 8.  The cap at an order reaches run_suite; one point more exits
    # 2 with a message naming the cap there before any point is built, from
    # argparse up to order 8
    from degsimsek import cli
    assert cli.MAX_POINT_WORK == cli.MAX_RANDOM_POINTS * 8**4
    ran = []
    monkeypatch.setattr(cli, "run_suite",
                        lambda ids, **kwargs: ran.append(kwargs) or [])
    argv = ["verify", "--order", str(order), "--random-points"]
    assert cli.main(argv + [str(cap)]) == 0
    assert ran.pop() == {"order": order, "seed": 0, "extra_points": cap}
    capsys.readouterr()
    try:
        code = cli.main(argv + [str(cap + 1)])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert (code, ran, captured.out) == (2, [], "")
    assert captured.err.splitlines()[-1] == (
        "degsimsek verify: error: argument --random-points: over the cap of "
        f"{cap}" + (f" at --order {order}" if order > 8 else ""))


@pytest.mark.parametrize("argv, lines", [
    (["table", "--family", "stirling2", "--n-max", "28", "--k-max", "28"],
     37),
    (["compute", "--family", "y1", "--n", "41", "--k", "1"], 1),
    (["compute", "--family", "y1star", "--route", "B", "--n", "50", "--k",
      "3"], 1),
    (["series", "--k", "41", "--order", "5", "--lambda", "1", "--alpha",
      "0"], 1),
])
def test_cli_runs_cheap_sizes_above_the_route_a_caps(capsys, argv, lines):
    # the route-A caps hold only where route A's symbolic F_k is built:
    # these sizes run in milliseconds, by other families, routes or a
    # series at a point
    from degsimsek import cli
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and len(captured.out.splitlines()) == lines


def test_integer_form_render_keeps_the_int_digit_limit(monkeypatch, capsys,
                                                        terms_reads):
    # a value in the integer form prints like str(Fraction), without
    # building its Fraction terms: up to the interpreter's digit limit,
    # and above it the same ValueError, which cli.main turns into exit 2
    # and its message
    from degsimsek import cli
    from degsimsek.algebra import TruncSeries, _over
    limit = sys.get_int_max_str_digits()
    under = _over({(1, 0): 10**(limit - 1), (0, 0): -1}, 3)
    assert under.render() == f"{Fraction(10**(limit - 1), 3)}*l + -1/3"
    for den in (1, 3):
        over = _over({(1, 0): 10**limit}, den)
        with pytest.raises(ValueError, match="integer string conversion"):
            over.render()
        with pytest.raises(ValueError, match="integer string conversion"):
            str(Fraction(10**limit, den))
    assert terms_reads == []

    def huge_series(k, order, lam, alpha):
        return TruncSeries("t", 0, [_over({(1, 0): 10**limit}, 1)])
    monkeypatch.setattr(cli, "fk_series", huge_series)
    assert cli.main(["series", "--k", "1", "--order", "0"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", (
        f"degsimsek series: a value exceeds the limit of {limit} digits "
        "for integer string conversion\n"))


def test_cli_value_above_the_int_digit_limit_exits_2():
    # phi_0 to degree 1 is [1, lam + 1]: at lam = 10^(D-1) its second
    # coefficient has D digits, the interpreter's limit for writing an int
    limit = sys.get_int_max_str_digits()
    under = run_cli("phi", "--n", "0", f"--lambda=1e{limit - 1}",
                    "--alpha=0", "--degree", "1")
    digits = "1" + "0" * (limit - 2) + "1"
    assert (under.returncode, under.stdout) == (0, f"[1, {digits}]\n")
    for lam in (f"1e{limit}", "1e5000"):
        over = run_cli("phi", "--n", "1", f"--lambda={lam}", "--alpha=0")
        assert (over.returncode, over.stdout, over.stderr) == (2, "", (
            f"degsimsek phi: a value exceeds the limit of {limit} digits "
            "for integer string conversion\n"))


def test_cli_usage_errors_exit_2():
    assert run_cli("compute", "--family", "y1", "--n", "-1", "--k", "0").returncode == 2
    assert run_cli("compute", "--family", "y1", "--n", "1", "--k", "0",
                   "--lambda", "x/y").returncode == 2
    assert run_cli("compute", "--family", "y1", "--n", "1", "--k", "0",
                   "--alpha", "1").returncode == 2
    assert run_cli("table", "--family", "stirling2", "--route", "A",
                   "--n-max", "2", "--k-max", "2").returncode == 2
    assert run_cli("verify", "--identity", "BOGUS").returncode == 2


# The substitution flags each command rejects for a family, with the exact
# stderr; every other family x flag combination runs and exits 0.
SIMSEK_FAMILIES = ("y1", "y1deg", "y1star")
FLAG_ERRORS = {
    ("table", "stirling1", "lambda"): "table: family 'stirling1' takes no "
                                      "lambda substitution",
    ("table", "stirling1", "alpha"): "table: family 'stirling1' takes no "
                                     "alpha substitution",
    ("table", "stirling2", "lambda"): "table: family 'stirling2' takes no "
                                      "lambda substitution",
    ("table", "stirling2", "alpha"): "table: family 'stirling2' takes no "
                                     "alpha substitution",
    ("table", "deg-stirling1", "lambda"): "table: family 'deg-stirling1' "
                                          "takes no lambda substitution",
    ("table", "deg-stirling2", "lambda"): "table: family 'deg-stirling2' "
                                          "takes no lambda substitution",
    ("table", "s2star", "lambda"): "table: family 's2star' takes no lambda "
                                   "substitution",
    ("table", "bernoulli", "lambda"): "table: family 'bernoulli' takes no "
                                      "lambda substitution",
    ("table", "bernoulli", "alpha"): "table: family 'bernoulli' takes no "
                                     "alpha substitution",
    ("table", "y1", "alpha"): "table: family 'y1' takes no alpha "
                              "substitution",
    ("compute", "y1", "alpha"): "compute: family y1 takes no --alpha",
    ("series", "y1", "alpha"): "series: family y1 takes no --alpha",
    ("series", "y1star", "lambda"): "series: give both --lambda and --alpha "
                                    "or neither",
    ("series", "y1star", "alpha"): "series: give both --lambda and --alpha "
                                   "or neither",
}
COMMAND_SIZES = {"table": ["--n-max", "2", "--k-max", "2"],
                 "compute": ["--n", "2", "--k", "2"],
                 "series": ["--k", "2", "--order", "3"]}


@pytest.mark.parametrize("command", ["table", "compute", "series"])
@pytest.mark.parametrize("flag", ["lambda", "alpha"])
def test_cli_family_flag_usage_errors(capsys, command, flag):
    from degsimsek import cli
    from degsimsek.tables import FAMILIES
    value = "1/2" if flag == "lambda" else "1/3"
    for family in FAMILIES:
        argv = [command, "--family", family, f"--{flag}={value}",
                *COMMAND_SIZES[command]]
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        expected = FLAG_ERRORS.get((command, family, flag))
        if command != "table" and family not in SIMSEK_FAMILIES:
            # argparse rejects the family itself
            assert code == 2, argv
            assert captured.err.splitlines()[-1].startswith(
                f"degsimsek {command}: error: argument --family: invalid "
                f"choice: {family!r}"), argv
        elif expected is not None:
            assert (code, captured.err, captured.out) == \
                (2, expected + "\n", ""), argv
        else:
            assert (code, captured.err) == (0, ""), argv
            assert captured.out, argv


@pytest.mark.parametrize("command", ["table", "compute"])
def test_cli_route_flag_usage_errors(monkeypatch, capsys, command):
    # --route names a route of y1star; for every other family it is a
    # usage error, and without it y1star is read by route A
    from degsimsek import cli, simsek, tables
    from degsimsek.tables import FAMILIES
    families = FAMILIES if command == "table" else SIMSEK_FAMILIES
    for family in families:
        argv = [command, "--family", family, "--route", "C",
                *COMMAND_SIZES[command]]
        code = cli.main(argv)
        captured = capsys.readouterr()
        if family == "y1star":
            assert (code, captured.err) == (0, ""), argv
        else:
            quoted = repr(family) if command == "table" else family
            assert (code, captured.out, captured.err) == (
                2, "", f"{command}: family {quoted} has no routes\n"), argv
    routes = set()

    def recording(n, k, route):
        routes.add(route)
        return simsek.y1star(n, k, route)

    monkeypatch.setattr(tables, "y1star", recording)
    assert cli.main([command, "--family", "y1star",
                     *COMMAND_SIZES[command]]) == 0
    assert routes == {"A"}


def test_cli_family_choice_lists():
    from degsimsek import cli
    from degsimsek.tables import FAMILIES
    assert FAMILIES == ("stirling1", "stirling2", "deg-stirling1",
                        "deg-stirling2", "s2star", "bernoulli", "y1",
                        "y1deg", "y1star")
    commands = next(action for action in cli.build_parser()._actions
                    if action.dest == "command").choices
    for command, families in (("table", FAMILIES),
                              ("compute", SIMSEK_FAMILIES),
                              ("series", SIMSEK_FAMILIES)):
        [family] = [action for action in commands[command]._actions
                    if action.dest == "family"]
        assert tuple(family.choices) == families, command


def test_cli_table_bytes_match_library(tmp_path):
    out_path = tmp_path / "table.csv"
    result = run_cli("table", "--family", "y1star", "--route", "A",
                     "--n-max", "1", "--k-max", "2", "--out", str(out_path))
    assert result.returncode == 0
    expected = render_csv(build_table("y1star", "A", 1, 2))
    assert out_path.read_text(encoding="utf-8") == expected


def test_cli_verify_subset_and_list():
    out = run_cli("verify", "--identity", "REC-K,RED-CLASSICAL")
    assert out.returncode == 0
    assert "REC-K" in out.stdout and "0 failures" in out.stdout
    listing = run_cli("verify", "--list")
    assert listing.returncode == 0
    for rid in CORE_IDS:
        assert rid in listing.stdout


def test_cli_verify_exit_one_on_failure(monkeypatch, capsys):
    # exit status must be 1 exactly when some report has status "fail"
    from degsimsek import cli

    def fake_suite(*args, **kwargs):
        return [IdentityReport("PHI-DER", Fraction(1), Fraction(0), "K=8",
                               "fail", "x^0;lhs=0;rhs=1")]

    monkeypatch.setattr(cli, "run_suite", fake_suite)
    assert cli.main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "1 failures" in out


def test_cli_verify_deterministic_bytes():
    args = ("verify", "--identity", "PHI-DER,PHI-INT", "--seed", "11",
            "--random-points", "1", "--format", "json")
    first = run_cli(*args)
    second = run_cli(*args, "--workers", "3")
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout


GOLDEN = Path(__file__).parent / "golden" / "verify_seed0_order8.json"


@pytest.mark.parametrize("workers", ["1", "2"])
def test_cli_verify_matches_golden_bytes(workers):
    # the golden file pins the suite's output bytes; regenerate it only for
    # a deliberate change of output
    result = run_cli("verify", "--seed", "0", "--order", "8", "--format",
                     "json", "--workers", workers)
    assert result.returncode == 0
    assert result.stdout.encode("utf-8") == GOLDEN.read_bytes()


@pytest.mark.parametrize("command", [
    ("table", "--family", "stirling2", "--n-max", "2", "--k-max", "2"),
    ("verify", "--identity", "REC-K"),
])
def test_cli_unwritable_out_exits_2(tmp_path, command):
    target = tmp_path / "missing" / "out.txt"
    result = run_cli(*command, "--out", str(target))
    assert result.returncode == 2
    assert result.stderr.startswith(f"degsimsek {command[0]}: cannot write "
                                    f"{target}: ")
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("identity", [",", " , ", ""])
def test_cli_verify_rejects_empty_identity_list(identity):
    result = run_cli("verify", "--identity", identity)
    assert result.returncode == 2
    assert result.stderr.startswith("verify: ")
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


def test_cli_verify_names_each_unknown_id_once(capsys):
    # run_suite's KeyError is the one unknown-id check: a repeated unknown
    # id is named once, and nothing runs
    from degsimsek import cli
    assert cli.main(["verify", "--identity", "BOGUS,EXPL-B,BOGUS,NOPE"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "verify: unknown identity id(s): BOGUS, NOPE\n")


def test_cli_verify_rejects_order_below_one():
    for order in ("0", "-3"):
        result = run_cli("verify", "--order", order)
        assert result.returncode == 2
        assert "order must be >= 1" in result.stderr
        assert "Traceback" not in result.stderr


def test_run_suite_rejects_order_below_one():
    with pytest.raises(ValueError, match=">= 1"):
        run_suite(["PHI-DER"], order=0)


def test_run_suite_rejects_an_empty_id_list():
    with pytest.raises(ValueError, match="at least one"):
        run_suite([])


def test_repeated_id_runs_and_reports_once(monkeypatch):
    from degsimsek import registry
    runs = []
    check = registry.check_red_a0

    def counting():
        runs.append(1)
        return check()

    monkeypatch.setattr(registry, "check_red_a0", counting)
    reports = run_suite(["RED-A0", "REC-K", "RED-A0"], order=2)
    assert [r.id for r in reports] == ["REC-K", "RED-A0"]
    assert len(runs) == 1
    result = run_cli("verify", "--identity", "RED-A0,RED-A0", "--order", "2")
    assert result.returncode == 0
    assert result.stdout.splitlines()[-1] == "1 reports, 0 failures"
