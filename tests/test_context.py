"""The per-point context and the symbolic stores: differential checks
against the uncached library functions, the integer forms of the symbolic
and REL-S2STAR checks against their definitions, term-by-term references
and sympy oracles, the phi checks against their truncated-series forms,
and count guards on ParamPoly.evaluate, simsek_y1, the factors of route
A's product, the degenerate Stirling rows and the route values."""

from fractions import Fraction
from functools import partial
import math

from hypothesis import example, given, settings, strategies as st
import pytest

from degsimsek import classical, degenerate, phi, registry, simsek
from degsimsek.algebra import ParamPoly, TruncSeries, _over
from degsimsek.degenerate import new_deg_stirling2
from degsimsek.phi import PointContext, log_substitution_rhs, phi_series
from degsimsek.registry import (FIXED_POINTS, REGISTRY, falling_sum,
                                random_points, run_suite)
from degsimsek.reports import (EXPECTED_DISCREPANCY, FAIL, PASS,
                               TRIVIALLY_TRUE, reports_to_json)
from degsimsek.simsek import ROUTES, _int_terms, simsek_y1, y1star

from oracles import (as_row, compose, expl_c_printed_sympy, falling,
                     log1p_series, phi_reference, rel_s2star_reference,
                     rel_s2star_terms, row_values)

POINTS = list(FIXED_POINTS) + random_points(seed=5, count=3)
RATIONAL = [e for e in REGISTRY if e.mode == "rational"]
SYMBOLIC = [e for e in REGISTRY if e.mode == "symbolic"]
PHI = [e for e in REGISTRY if e.id.startswith("PHI-")]
# the REL-S2STAR entry of each reading of check_rel_s2star
READINGS = {reading: registry._BY_ID[rid] for reading, rid in (
    ("j", "REL-S2STAR"), ("k", "REL-S2STAR-KIDX"), ("dup", "REL-S2STAR-DUPL"),
    ("zero0", "REL-S2STAR-ZERO0"))}


def verdict_of(entry, ctx, order=8) -> tuple[str, str, str]:
    """(orders, status, mismatch) of entry's report at ctx, None for a
    symbolic entry, as the suite's registry._run_entry makes it; a check
    that raised fails the test."""
    report = registry._run_entry(entry, ctx, order, 0)
    assert report.status != "error", report.mismatch
    return report.orders, report.status, report.mismatch


def x_series(ctx: PointContext, row: list[int]) -> TruncSeries:
    """The series in x whose EGF in u = x/(q s) is the integer row."""
    return TruncSeries("x", len(row) - 1,
                       [ctx.x_coeff(c, d) for d, c in enumerate(row)])


def s2star(ctx: PointContext, n: int, j: int) -> Fraction:
    """S2*(n, j | alpha/lam) from the context's table, asked for at size
    max(n, j): j! S2*(n, j) over the table's denominator."""
    rows, den = ctx.s2star_table(max(n, j))
    return Fraction(rows[j][n], den * math.factorial(j))


@pytest.mark.parametrize("ratio", [Fraction(0), Fraction(1, 2),
                                   Fraction(-3, 4), Fraction(5, 3)])
def test_s2star_table_matches_new_deg_stirling2(ratio):
    # lam = 2 so the context has to form the ratio alpha/lam itself; the
    # size asked for rises, so the table is built again at every higher size
    ctx = PointContext(2, 2 * ratio)
    for n in range(11):
        for j in range(11):
            assert s2star(ctx, n, j) == new_deg_stirling2(n, j, ratio), (n, j)
    # a second pass reads the finished table, lowest n first
    for n in range(11):
        for j in range(11):
            assert s2star(ctx, n, j) == new_deg_stirling2(n, j, ratio), (n, j)


@pytest.mark.parametrize("point", POINTS)
def test_values_match_direct_evaluation(point):
    lam, alpha = point
    ctx = PointContext(lam, alpha)
    for n in range(7):
        row = ctx.phi_row(n, 8)
        for k in range(9):
            assert ctx.x_coeff(row[k], k) == y1star(n, k).evaluate(lam, alpha)
        assert x_series(ctx, ctx.phi_row(n, 8)) == phi_series(n, lam, alpha, 8)


@pytest.mark.parametrize("point", POINTS[:2] + POINTS[-1:])
def test_shared_context_gives_identical_reports(point):
    # fill one context by running every rational entry in reverse registry
    # order, then compare each entry on it against a fresh context
    shared = PointContext(*point)
    for entry in reversed(RATIONAL):
        verdict_of(entry, shared)
    for entry in RATIONAL:
        fresh = verdict_of(entry, PointContext(*point))
        reused = verdict_of(entry, shared)
        assert fresh == reused, entry.id


def test_suite_evaluates_each_value_once_per_point(monkeypatch):
    # a count, not a clock: the rational checks must read y1star values
    # from the point context instead of substituting them again
    calls = 0
    evaluate = ParamPoly.evaluate

    def counting(self, lam0, alpha0):
        nonlocal calls
        calls += 1
        return evaluate(self, lam0, alpha0)

    monkeypatch.setattr(ParamPoly, "evaluate", counting)
    reports = run_suite(order=8)
    assert len(reports) == 95
    assert calls <= 1000


# the module stores that the symbolic checks and every PointContext read,
# and the F_k cache, which fills the route-A store as it builds
SYMBOLIC_STORES = ((simsek, "_route_a_store"), (simsek, "_fk_cache"),
                   (simsek, "_scaled_y1_store"), (registry, "_falling_sums"))


def empty_symbolic_stores(monkeypatch):
    for module, name in SYMBOLIC_STORES:
        monkeypatch.setattr(module, name, {})


class RecordingStore(dict):
    """A store that appends (n, k, "A") to `misses` at each write, which
    its owner makes once per miss."""

    def __init__(self, misses):
        super().__init__()
        self.misses = misses

    def __setitem__(self, key, value):
        self.misses.append((*key, "A"))
        super().__setitem__(key, value)


def test_symbolic_weights_match_their_definitions(monkeypatch):
    # the integer forms against their ParamPoly definitions, asked for out
    # of order so the memos fill unevenly
    empty_symbolic_stores(monkeypatch)
    a = ParamPoly.alpha()
    for k in reversed(range(9)):
        for n in reversed(range(10)):
            expected = ParamPoly()
            for i in range(k + 1):
                expected = expected + y1star(n, i) * falling(
                    -1, k - i, a) * (math.comb(k, i) * math.factorial(i))
            assert _over(falling_sum(k, n), 1) == expected, (k, n)
            for route in ROUTES:
                assert _over(simsek.scaled_y1star(n, k, route),
                             math.factorial(k)) == y1star(n, k), (n, k, route)
            assert _over(simsek.scaled_y1(n, k), math.factorial(k)) == \
                simsek_y1(n, k), (n, k)
            assert all(isinstance(c, int) for c in falling_sum(k, n).values())
    with pytest.raises(ValueError, match="not integral"):
        _int_terms(y1star(2, 2).terms, 1)


def test_func_eq_right_side_matches_sympy_series():
    # an independent derivation: d! [t^d] of the product of the defining
    # factors l e^t - j a, for k <= 5, with e^t the sympy series, against
    # route E's column recurrence at c = 0, which FUNC-EQ reports as rhs
    import sympy
    l, a, t = sympy.symbols("l a t")
    order = 6
    left = simsek._Triangle(partial(simsek._fill_k_recurrence, c=0))
    exp_t = sympy.series(sympy.exp(t), t, 0, order + 1).removeO()
    for k in range(6):
        series = sympy.expand(sympy.Mul(*[l * exp_t - j * a
                                          for j in range(k)]))
        for d in range(order + 1):
            coeff = sympy.expand(series.coeff(t, d) * math.factorial(d))
            expected = {} if coeff == 0 else {
                key: int(c) for key, c in sympy.Poly(coeff, l, a).terms()}
            assert left.get(d, k) == expected, (k, d)


def test_shared_symbolic_context_gives_identical_reports(monkeypatch):
    # fill the stores by running every symbolic entry in reverse registry
    # order, then compare each entry on them against a run on empty stores
    empty_symbolic_stores(monkeypatch)
    for entry in reversed(SYMBOLIC):
        verdict_of(entry, None)
    shared = [getattr(module, name) for module, name in SYMBOLIC_STORES]
    for entry in SYMBOLIC:
        empty_symbolic_stores(monkeypatch)
        fresh = verdict_of(entry, None)
        for (module, name), store in zip(SYMBOLIC_STORES, shared):
            monkeypatch.setattr(module, name, store)
        reused = verdict_of(entry, None)
        assert fresh == reused, entry.id


def test_suite_builds_symbolic_values_once(monkeypatch, cold_route_a):
    # a count, not a clock: the symbolic checks must read y1 values and
    # the (-1)_{m,a} / (1)_{m,a} factors from their stores instead of
    # rebuilding them inside their innermost loops
    calls = {"simsek_y1": 0, "evaluate": 0}

    def counting(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    for module in (registry, simsek, phi):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counting(name, getattr(module, name)))
    # each degenerate Stirling row is built once, from triangles that hold
    # row 0 only: every entry (m+1, j) is one call of its triangle's step
    built = {"_ds1_step": [], "_ds2_step": []}

    def recording(name, step):
        def wrapper(left, above, m, j):
            built[name].append((m, j))
            return step(left, above, m, j)
        return wrapper

    for name in built:
        monkeypatch.setattr(degenerate, name,
                            recording(name, getattr(degenerate, name)))
    monkeypatch.setattr(degenerate, "_DS1_ROWS", [[{(0, 0): 1}]])
    monkeypatch.setattr(degenerate, "_DS2_ROWS", [[{(0, 0): 1}]])
    # point values come from integer terms, never from ParamPoly.evaluate
    monkeypatch.setattr(ParamPoly, "evaluate", counting(
        "evaluate", ParamPoly.evaluate))
    # route A's symbolic products (l e^t + 1)_{k,a} on cold stores: the
    # one that builds F_8 at order 8; the S2* and Apostol-Euler values
    # come from the library's own chains
    factors = []
    dots = []
    monkeypatch.setattr(degenerate, "_s2star_chains", {})
    monkeypatch.setattr(degenerate, "_apostol_chains", {})
    product = simsek._route_a_product

    def factor_counting(k, order):
        factors.append(k)
        return product(k, order)
    monkeypatch.setattr(simsek, "_route_a_product", factor_counting)
    dot = simsek._pp_dot

    def dot_counting(left, right):
        dots.append(len(left))
        return dot(left, right)
    monkeypatch.setattr(simsek, "_pp_dot", dot_counting)
    reports = run_suite(order=8)
    assert len(reports) == 95
    # k! y1(n,k) is built as integer terms, never from simsek_y1
    assert calls["simsek_y1"] == 0
    assert calls["evaluate"] == 0
    # F_0..F_8 from one product of 8 factors, 9 coefficients each
    assert factors == [8]
    assert len(dots) == 72
    # one S2* chain per alpha/lam of the grid, and (0, 1) for
    # RED-CLASSICAL; one Apostol-Euler chain per lam, at alpha = 0
    grid = registry.default_grid()
    ratios = {alpha / lam for lam, alpha in grid} | {Fraction(0)}
    assert sorted(degenerate._s2star_chains) == sorted(
        (r.numerator, r.denominator) for r in ratios)
    assert sorted(degenerate._apostol_chains) == sorted(
        {(lam.numerator, lam.denominator, 0, 1) for lam, _ in grid})
    # and none of them is read above the suite's order
    for chain in (*degenerate._s2star_chains.values(),
                  *degenerate._apostol_chains.values()):
        order, _, products = chain.state
        assert order <= 8
        assert all(len(nums) <= 9 for nums, _ in products)
    for name, rows in (("_ds1_step", degenerate._DS1_ROWS),
                       ("_ds2_step", degenerate._DS2_ROWS)):
        assert len(rows) == 9, name
        assert sorted(built[name]) == [(m, j) for m in range(8)
                                       for j in range(m + 2)], name


def test_rel_s2star_reads_the_chain_new_deg_stirling2_keeps(monkeypatch,
                                                            cold_chains):
    # a product chain whose step term is doubled from coefficient 3
    # on gives wrong S2* values wherever alpha/lam != 0; REL-S2STAR reads
    # that chain, so it fails at every grid point with alpha != 0
    exact = classical._extend_qq

    def doubled_step(old, prev, x, step, i):
        out = row_values(exact(old, prev, x, step, i))
        start = max(3, 0 if old is None else len(old[0]))
        extra = [0] * start + [-i * step * c
                               for c in row_values(prev)[start:len(out)]]
        return as_row([c + e for c, e in zip(out, extra)])

    monkeypatch.setattr(classical, "_extend_qq", doubled_step)
    reports = [r for r in run_suite(order=8) if r.id == "REL-S2STAR"]
    assert len(reports) == len(registry.default_grid()) == 7
    assert [r.status for r in reports] == [
        PASS if r.alpha == 0 else FAIL for r in reports]
    assert sum(r.status == FAIL for r in reports) == 6


def test_symbolic_job_computes_each_route_value_once(monkeypatch):
    # every route's own formula runs once per (n, k): no route's value
    # stands in for another's, and none is computed again; route A is
    # counted at its store's miss, the other routes at each read
    asked = []
    compute = registry.scaled_y1star

    def recording(n, k, route="A"):
        if route != "A":
            asked.append((n, k, route))
        return compute(n, k, route)

    empty_symbolic_stores(monkeypatch)
    monkeypatch.setattr(simsek, "_route_a_store", RecordingStore(asked))
    monkeypatch.setattr(registry, "scaled_y1star", recording)
    run_suite([e.id for e in SYMBOLIC], order=8)
    assert sorted(asked) == sorted((n, k, route) for n in range(9)
                                   for k in range(9) for route in ROUTES)


def count_route_a_extractions(monkeypatch) -> tuple[list, list]:
    """Empty the symbolic stores and the F_k cache, and record from then
    on every route-A value written to the route-A store, which y1star's
    route A and scaled_y1star share, and every coefficient of F_k
    converted to integer terms: fk_series publishes each value it converts
    as it builds, so the two lists grow together."""
    extracted = []
    converted = []
    empty_symbolic_stores(monkeypatch)
    monkeypatch.setattr(simsek, "_route_a_store", RecordingStore(extracted))

    def counted(terms, scale):
        converted.append(scale)
        return _int_terms(terms, scale)
    monkeypatch.setattr(simsek, "_int_terms", counted)
    return extracted, converted


def test_suite_extracts_each_route_a_value_once(monkeypatch):
    # a count, not a clock: the suite's warm-up builds F_0..F_8 at order 8,
    # which publishes every route-A value the symbolic checks and the grid
    # points read, each once; no read converts a coefficient of F_k again
    extracted, converted = count_route_a_extractions(monkeypatch)
    reports = run_suite(order=8)
    assert len(reports) == 95
    assert len(extracted) <= 81
    assert len(set(extracted)) == len(extracted)
    assert len(converted) == len(extracted)


def test_suites_in_one_process_share_the_route_a_store(monkeypatch):
    # a suite at a higher order between two equal ones: the higher one's
    # F_k builds publish only the values the first did not, and the third
    # run gives the first run's bytes and takes every route-A value from
    # the store
    extracted, converted = count_route_a_extractions(monkeypatch)
    first = reports_to_json(run_suite(order=8))
    assert sorted(extracted) == sorted((n, k, "A") for n in range(9)
                                       for k in range(9))
    extracted.clear()
    run_suite(order=12)
    assert sorted(extracted) == sorted(
        (n, k, "A") for n in range(13) for k in range(13)
        if n > 8 or k > 8)
    extracted.clear()
    converted.clear()
    assert reports_to_json(run_suite(order=8)) == first
    assert extracted == [] == converted


def test_suite_warms_route_a_only_as_far_as_its_selection_compares(
        monkeypatch):
    # EXPL-B compares n, k <= 8 whatever the order: alone at order 20 on
    # cold stores, the suite builds F_8 at order 8, which publishes
    # F_0..F_8 to order 8 into the route-A store, and nothing above
    def warmed():
        """The orders of the F_k built, and the columns of the route-A
        store: the highest n of each k."""
        columns = {}
        for n, k in simsek._route_a_store:
            columns[k] = max(n, columns.get(k, n))
        assert len(simsek._route_a_store) == sum(
            n + 1 for n in columns.values())
        return ({key: series.order for key, series in
                 simsek._fk_cache.items() if isinstance(key, int)}, columns)

    empty_symbolic_stores(monkeypatch)
    reports = run_suite(["EXPL-B"], order=20)
    assert [r.status for r in reports] == [PASS]
    assert warmed() == ({8: 8}, {k: 8 for k in range(9)})
    # FUNC-EQ reads k <= 8 and n <= the order: F_0..F_8 at order 20, and
    # no F_k above
    empty_symbolic_stores(monkeypatch)
    reports = run_suite(["FUNC-EQ"], order=20)
    assert [r.status for r in reports] == [PASS]
    assert warmed() == ({8: 20}, {k: 20 for k in range(9)})
    # PHI-LOG reads phi_n for n <= 3 to x^order: F_0..F_20 at order 4, so
    # no F_k above order 8
    empty_symbolic_stores(monkeypatch)
    reports = run_suite(["PHI-LOG"], order=20)
    # trivially true at alpha = 0
    assert {r.status for r in reports} == {PASS, TRIVIALLY_TRUE}
    assert warmed() == ({20: 4}, {k: 4 for k in range(21)})


# REL-S2STAR and PHI-LOG against references at random points: lam and
# alpha with negative numerators, alpha = 0, and larger denominators
rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


@settings(max_examples=25, deadline=None)
@given(rationals.filter(bool), rationals)
@example(Fraction(-7, 3), Fraction(0))
@example(Fraction(1), Fraction(0))
@example(Fraction(2, 9), Fraction(-5, 8))
def test_rel_s2star_readings_match_term_by_term_reference(lam, alpha):
    ctx = PointContext(lam, alpha)
    for reading in ("j", "k", "dup", "zero0"):
        _, status, mismatch = verdict_of(READINGS[reading], ctx)
        expected = rel_s2star_reference(
            lam, alpha, lambda n, k: y1star(n, k).evaluate(lam, alpha), reading)
        assert (status, mismatch) == expected, reading


@settings(max_examples=15, deadline=None)
@given(rationals.filter(bool), rationals)
@example(Fraction(-7, 3), Fraction(0))
@example(Fraction(2, 9), Fraction(-5, 8))
def test_rel_s2star_readings_equal_the_reference_at_every_term(lam, alpha):
    # each reading's right side from the reference, handed to the check as
    # its left side, passes at every (n, k); raised by one at (8, 8), the
    # last term the check compares, it is reported there: so every term of
    # every reading is pinned, not only the first mismatch with y*
    for reading in ("j", "k", "dup", "zero0"):
        terms = rel_s2star_terms(lam, alpha, reading)
        for raised in (None, (8, 8)):
            ctx = PointContext(lam, alpha)
            for n in range(9):
                ctx.phi_row(n, 8)[:] = [
                    (terms[(n, k)] + ((n, k) == raised))
                    * math.factorial(k) * ctx.qs**k for k in range(9)]
            _, status, mismatch = verdict_of(READINGS[reading], ctx)
            if raised is None:
                assert status == PASS, (reading, mismatch)
            else:
                assert status != PASS, reading
                assert mismatch.startswith("(n,k)=(8,8);"), reading


def test_expl_c_printed_equals_the_reference_at_every_term(monkeypatch):
    # the step-j reading against sympy's expansion of it: the report's
    # first mismatch with route A is the reference's, and the reference
    # handed to the check as route A passes at every (n, k), and is
    # reported at (8, 8), the last term compared, when raised by one there
    printed = expl_c_printed_sympy()
    n, k = next((n, k) for k in range(9) for n in range(9)
                if printed[(n, k)] != simsek.scaled_y1star(n, k))
    lhs = _over(printed[(n, k)], math.factorial(k)).render()
    entry = registry._BY_ID["EXPL-C-PRINTED"]
    _, status, mismatch = verdict_of(entry, None)
    assert (status, mismatch) == (
        EXPECTED_DISCREPANCY,
        f"(n,k)=({n},{k});lhs={lhs};rhs={y1star(n, k).render()}")
    raised = dict(printed)
    raised[(8, 8)] = {**printed[(8, 8)],
                      (0, 0): printed[(8, 8)].get((0, 0), 0) + 1}
    for values, expected in ((printed, PASS), (raised, EXPECTED_DISCREPANCY)):
        monkeypatch.setattr(registry, "scaled_y1star",
                            lambda n, k, route="A": values[(n, k)])
        _, status, mismatch = verdict_of(entry, None)
        assert status == expected
    assert mismatch.startswith("(n,k)=(8,8);")


@settings(max_examples=25, deadline=None)
@given(rationals, rationals.filter(bool), st.integers(0, 3), st.integers(1, 8))
@example(Fraction(0), Fraction(-1, 9), 2, 8)
def test_log_substitution_powers_equal_horner_composition(lam, alpha, n,
                                                          order):
    ctx = PointContext(lam, alpha)
    outer = TruncSeries("x", order, [simsek_y1(n, k).evaluate(lam, 0)
                                     for k in range(order + 1)])
    # log(1 + alpha x)/alpha
    inner = log1p_series(order, alpha, "x")
    assert x_series(ctx, log_substitution_rhs(ctx, n, order)) == \
        compose(outer, inner)


@settings(max_examples=25, deadline=None)
@given(st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
       st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)))
@example(Fraction(-7, 3), Fraction(0))
@example(Fraction(0), Fraction(-999_999, 10**6))
@example(Fraction(-1), Fraction(5, 999_983))
def test_point_values_equal_polynomial_evaluation(lam, alpha):
    # the integer-term evaluation against ParamPoly.evaluate of the route-A
    # polynomial: negative numerators, alpha = 0, denominators up to 10^6
    ctx = PointContext(lam, alpha)
    for n in range(9):
        row = ctx.phi_row(n, 8)
        y1_row = ctx.y1_row(n, 8)
        for k in range(9):
            assert ctx.x_coeff(row[k], k) == \
                y1star(n, k).evaluate(lam, alpha), (n, k)
            assert ctx.x_coeff(y1_row[k], k) == \
                simsek_y1(n, k).evaluate(lam, 0), (n, k)


@pytest.mark.parametrize("rid,route", [("EXPL-B", "B"), ("EXPL-D", "D"),
                                       ("REC-N", "F")])
def test_wrong_route_value_is_reported_as_polynomials(monkeypatch, rid,
                                                      route):
    # one route gives a wrong Y(3,4); the report shows both sides divided
    # by 4! exactly as the polynomials y1star renders
    compute = registry.scaled_y1star
    wrong = {(1, 2): 7, (3, 0): -5}

    def corrupted(n, k, r="A"):
        return wrong if (n, k, r) == (3, 4, route) else compute(n, k, r)

    monkeypatch.setattr(registry, "scaled_y1star", corrupted)
    [report] = run_suite([rid], order=8)
    assert report.status == FAIL
    lhs = _over(wrong, math.factorial(4)).render()
    assert report.mismatch == (f"(n,k)=(3,4);lhs={lhs};"
                               f"rhs={y1star(3, 4).render()}")


def test_s2star_table_matches_sympy_series():
    # an independent derivation: n!/j! [t^n] of the product of the
    # factors e^t - 1 - i r, e^t the sympy series, for n, j <= 6
    import sympy
    t, r = sympy.symbols("t r")
    exp_t = sympy.series(sympy.exp(t), t, 0, 7).removeO()
    contexts = [PointContext(lam, alpha)
                for lam, alpha in ((2, Fraction(-3, 2)), (Fraction(-3, 5), 1),
                                   (Fraction(4, 7), 0))]
    for j in range(7):
        product = sympy.expand(sympy.Mul(*[exp_t - 1 - i * r
                                           for i in range(j)]))
        for n in range(7):
            value = product.coeff(t, n) * sympy.factorial(n) / sympy.factorial(j)
            for ctx in contexts:
                ratio = ctx.alpha / ctx.lam
                expected = value.subs(r, sympy.Rational(ratio.numerator,
                                                        ratio.denominator))
                assert s2star(ctx, n, j) == Fraction(int(expected.p),
                                                     int(expected.q)), (n, j)


# The eight phi entries against their truncated-series forms at random
# points: negative numerators, denominators up to 10^4, lam = 0, alpha = 0;
# with one value of the table raised, so that every check writes mismatches
wide = st.builds(Fraction, st.integers(-10**4, 10**4), st.integers(1, 10**4))
wide_or_zero = st.one_of(st.just(Fraction(0)), wide)


class RaisedTable:
    """simsek's k! y*(n,k) raised by 3 l (by 1 at k = 0) and k! y1(n,k)
    raised by 2 at (n, k) = target, to stand in for phi's reads."""

    def __init__(self, target):
        self.target = target

    def scaled_y1star(self, n, k, route="A"):
        terms = dict(simsek.scaled_y1star(n, k, route))
        if (n, k) == self.target:
            key, step = ((1, 0), 3) if k else ((0, 0), 1)
            terms[key] = terms.get(key, 0) + step
        return terms

    def scaled_y1(self, n, k):
        terms = dict(simsek.scaled_y1(n, k))
        if (n, k) == self.target:
            terms[(0, 0)] = terms.get((0, 0), 0) + 2
        return terms


@settings(max_examples=30, deadline=None)
@given(wide_or_zero, wide_or_zero, st.integers(1, 10),
       st.one_of(st.none(), st.tuples(st.integers(0, 4), st.integers(0, 10))))
@example(Fraction(1), Fraction(1, 2), 8, None)
@example(Fraction(-2, 3), Fraction(7, 5), 3, None)
@example(Fraction(9_999, 7), Fraction(-1, 10**4), 1, None)
@example(Fraction(-3, 8), Fraction(5, 2), 6, (2, 1))
def test_phi_checks_match_their_series_forms(lam, alpha, order, target):
    for k in range(11):
        simsek.fk_series(k, 10)  # route A at the largest order, built once
    raised = RaisedTable(target)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(phi, "scaled_y1star", raised.scaled_y1star)
        patch.setattr(phi, "scaled_y1", raised.scaled_y1)
        ctx = PointContext(lam, alpha)
        values = {}

        def y(n, k):
            if (n, k) not in values:
                values[(n, k)] = y1star(n, k).evaluate(lam, alpha)
                if (n, k) == target:
                    values[(n, k)] += 3 * lam / math.factorial(k) if k else 1
            return values[(n, k)]

        def y1(n, k):
            value = simsek_y1(n, k).evaluate(lam, 0)
            return value + Fraction(2, math.factorial(k)) * ((n, k) == target)

        for entry in PHI:
            if not entry.domain(lam, alpha):
                continue
            _, status, mismatch = verdict_of(entry, ctx, order)
            ns = (registry.PHI_INT_N_VALUES if entry.id.startswith("PHI-INT")
                  else registry.PHI_N_VALUES)
            expected = phi_reference(entry.id, lam, alpha, order, y, y1, ns,
                                     registry.F_TRANSFORM_POLYS)
            assert (status, mismatch) == expected, entry.id


@pytest.mark.parametrize("point,text", [
    ((Fraction(1), Fraction(1, 2)), "n=1;x^1;lhs=0;rhs=-1/8"),
    ((Fraction(-2, 3), Fraction(7, 5)), "n=1;x^1;lhs=0;rhs=42/5"),
    ((Fraction(9_999, 7), Fraction(-1, 10**4)),
     "n=1;x^1;lhs=0;rhs=69993/1001200360000")])
def test_integral_discrepancy_text_at_nonzero_alpha(point, text):
    # the merged PHI-INT report at alpha != 0 records n = 1's first
    # mismatch, written from the integer comparison
    [report] = run_suite(["PHI-INT"], order=8, grid=[point])
    assert (report.status, report.mismatch) == ("expected-discrepancy", text)
