"""The per-point and symbolic evaluation contexts: differential checks
against the uncached library functions, the integer forms of the symbolic
and REL-S2STAR checks against their definitions, term-by-term references
and sympy oracles, and count guards on ParamPoly.evaluate, simsek_y1,
degenerate_falling, the degenerate Stirling rows and the route values."""

from fractions import Fraction
import math

from hypothesis import example, given, settings, strategies as st
import pytest

from degsimsek import degenerate, phi, registry, simsek
from degsimsek.algebra import (QQ, ParamPoly, TruncSeries, _int_terms, _over,
                               series_compose, series_log1p)
from degsimsek.classical import degenerate_falling
from degsimsek.degenerate import new_deg_stirling2
from degsimsek.phi import PointContext, log_substitution_rhs, phi_series
from degsimsek.registry import (FIXED_POINTS, REGISTRY, SymbolicContext,
                                check_rel_s2star, random_points, run_suite)
from degsimsek.reports import FAIL
from degsimsek.simsek import ROUTES, simsek_y1, y1star

from oracles import rel_s2star_reference

POINTS = list(FIXED_POINTS) + random_points(seed=5, count=3)
RATIONAL = [e for e in REGISTRY if e.mode == "rational"]
SYMBOLIC = [e for e in REGISTRY if e.mode == "symbolic"]


@pytest.mark.parametrize("ratio", [Fraction(0), Fraction(1, 2),
                                   Fraction(-3, 4), Fraction(5, 3)])
def test_s2star_table_matches_new_deg_stirling2(ratio):
    # lam = 2 so the context has to form the ratio alpha/lam itself; n rises
    # in the outer loop, so the product restarts at every higher order
    ctx = PointContext(2, 2 * ratio, SymbolicContext())
    for n in range(11):
        for j in range(11):
            assert ctx.s2star(n, j) == new_deg_stirling2(n, j, ratio), (n, j)
    # a second pass reads the finished table, lowest n first
    for n in range(11):
        for j in range(11):
            assert ctx.s2star(n, j) == new_deg_stirling2(n, j, ratio), (n, j)


@pytest.mark.parametrize("point", POINTS)
def test_values_match_direct_evaluation(point):
    lam, alpha = point
    ctx = PointContext(lam, alpha, SymbolicContext())
    for n in range(7):
        for k in range(9):
            assert ctx.y(n, k) == y1star(n, k).evaluate(lam, alpha)
        assert ctx.phi(n, 8) == phi_series(n, lam, alpha, 8)


@pytest.mark.parametrize("point", POINTS[:2] + POINTS[-1:])
def test_shared_context_gives_identical_reports(point):
    # fill one context by running every rational entry in reverse registry
    # order, then compare each entry on it against a fresh context
    shared = PointContext(*point, SymbolicContext())
    for entry in reversed(RATIONAL):
        entry.run(shared, 8)
    for entry in RATIONAL:
        fresh = entry.run(PointContext(*point, SymbolicContext()), 8)
        reused = entry.run(shared, 8)
        assert (fresh.id, fresh.to_dict()) == (reused.id, reused.to_dict())


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


def test_symbolic_weights_match_their_definitions():
    # the integer forms against their ParamPoly definitions, asked for out
    # of order so the memos fill unevenly
    ctx = SymbolicContext()
    a = ParamPoly.alpha()
    for k in reversed(range(9)):
        for n in reversed(range(10)):
            expected = ParamPoly()
            for i in range(k + 1):
                expected = expected + y1star(n, i) * degenerate_falling(
                    ParamPoly.const(-1), k - i, a) * (
                        math.comb(k, i) * math.factorial(i))
            assert _over(ctx.falling_sum(k, n), 1) == expected, (k, n)
            for route in ROUTES:
                assert _over(ctx.scaled(n, k, route), math.factorial(k)) == \
                    y1star(n, k), (n, k, route)
            assert _over(ctx.scaled_y1(n, k), math.factorial(k)) == \
                simsek_y1(n, k), (n, k)
            assert all(isinstance(c, int) for c in ctx.falling_sum(k, n).values())
    with pytest.raises(ValueError, match="not integral"):
        _int_terms(y1star(2, 2), 1)


def test_func_eq_right_side_matches_sympy_series():
    # an independent derivation: N! [t^d] of the product of the defining
    # factors l e^t - j a, for k <= 5, with e^t the sympy series
    import sympy
    l, a, t = sympy.symbols("l a t")
    order = 6
    scale = math.factorial(order)
    exp_t = sympy.series(sympy.exp(t), t, 0, order + 1).removeO()
    for k, rhs in zip(range(6), registry._lam_exp_falling(order)):
        series = sympy.expand(sympy.Mul(*[l * exp_t - j * a
                                          for j in range(k)]))
        for d in range(order + 1):
            coeff = sympy.expand(series.coeff(t, d) * scale)
            expected = {} if coeff == 0 else {
                key: int(c) for key, c in sympy.Poly(coeff, l, a).terms()}
            assert rhs[d] == expected, (k, d)


def test_shared_symbolic_context_gives_identical_reports():
    shared = SymbolicContext()
    for entry in reversed(SYMBOLIC):
        entry.run(shared, 8)
    for entry in SYMBOLIC:
        fresh = entry.run(SymbolicContext(), 8)
        reused = entry.run(shared, 8)
        assert (fresh.id, fresh.to_dict()) == (reused.id, reused.to_dict())


def test_suite_builds_symbolic_values_once(monkeypatch):
    # a count, not a clock: the symbolic checks must read y1 values and
    # the (-1)_{m,a} / (1)_{m,a} factors from the context instead of
    # rebuilding them inside their innermost loops
    calls = {"simsek_y1": 0, "degenerate_falling": 0, "evaluate": 0}

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
    # each degenerate Stirling row is built once, from empty row caches
    built = []
    basis_row = degenerate._falling_basis_row

    def recording(n, source_a, target_a):
        built.append((n, source_a, target_a))
        return basis_row(n, source_a, target_a)

    monkeypatch.setattr(degenerate, "_falling_basis_row", recording)
    monkeypatch.setattr(degenerate, "_DS1_ROWS", {})
    monkeypatch.setattr(degenerate, "_DS2_ROWS", {})
    # point values come from integer terms, never from ParamPoly.evaluate
    monkeypatch.setattr(ParamPoly, "evaluate", counting(
        "evaluate", ParamPoly.evaluate))
    # the factors of every series (x)_{n,a}: at most the F_0..F_8 chain
    factors = []
    for module in (simsek, degenerate):
        falling = module.degenerate_falling

        def factor_counting(x, n, alpha, falling=falling):
            if isinstance(x, TruncSeries):
                factors.append(n)
            return falling(x, n, alpha)
        monkeypatch.setattr(module, "degenerate_falling", factor_counting)
    reports = run_suite(order=8)
    assert len(reports) == 95
    # one k! y1(n,k) per (n, k) <= 8, read by the symbolic checks and by
    # PHI-LOG at every point
    assert calls["simsek_y1"] <= 81
    assert calls["degenerate_falling"] <= 100
    assert calls["evaluate"] == 0
    # F_0..F_8 take 0 + 1 + ... + 8 = 36 factors when nothing is cached;
    # one S2* chain per (n, k) of RED-CLASSICAL would take 324 more
    assert sum(factors) <= 36
    assert sorted(built) == sorted((n, source_a, 1 - source_a)
                                   for n in range(9) for source_a in (0, 1))


def test_symbolic_job_computes_each_route_value_once(monkeypatch):
    # every route's own formula runs once per (n, k): the context never
    # stands one route's value in for another's, and never recomputes one
    asked = []
    compute = registry.scaled_y1star

    def recording(n, k, route="A"):
        asked.append((n, k, route))
        return compute(n, k, route)

    monkeypatch.setattr(registry, "scaled_y1star", recording)
    run_suite([e.id for e in SYMBOLIC], order=8)
    assert sorted(asked) == sorted((n, k, route) for n in range(9)
                                   for k in range(9) for route in ROUTES)


def test_suite_extracts_each_route_a_value_once(monkeypatch):
    # a count, not a clock: every grid point evaluates the symbolic
    # context's route-A integer terms instead of reading F_k again
    from degsimsek import cli, tables
    extracted = []

    def counting(func):
        def wrapper(n, k, route="A"):
            if route == "A":
                extracted.append((n, k))
            return func(n, k, route)
        return wrapper

    for module in (registry, phi, simsek, tables, cli):
        for name in ("y1star", "scaled_y1star"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counting(getattr(module, name)))
    reports = run_suite(order=8)
    assert len(reports) == 95
    assert len(extracted) <= 81
    assert len(set(extracted)) == len(extracted)


# REL-S2STAR and PHI-LOG against references at random points: lam and
# alpha with negative numerators, alpha = 0, and larger denominators
rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


@settings(max_examples=25, deadline=None)
@given(rationals.filter(bool), rationals)
@example(Fraction(-7, 3), Fraction(0))
@example(Fraction(1), Fraction(0))
@example(Fraction(2, 9), Fraction(-5, 8))
def test_rel_s2star_readings_match_term_by_term_reference(lam, alpha):
    ctx = PointContext(lam, alpha, SymbolicContext())
    for reading in ("j", "k", "dup", "zero0"):
        report = check_rel_s2star(ctx, reading)
        expected = rel_s2star_reference(
            lam, alpha, lambda n, k: y1star(n, k).evaluate(lam, alpha), reading)
        assert (report.status, report.mismatch) == expected, reading


@settings(max_examples=25, deadline=None)
@given(rationals, rationals.filter(bool), st.integers(0, 3), st.integers(1, 8))
@example(Fraction(0), Fraction(-1, 9), 2, 8)
def test_log_substitution_powers_equal_horner_composition(lam, alpha, n,
                                                          order):
    ctx = PointContext(lam, alpha, SymbolicContext())
    outer = TruncSeries("x", order, [simsek_y1(n, k).evaluate(lam, 0)
                                     for k in range(order + 1)], QQ)
    x = TruncSeries.variable("x", order, QQ)
    inner = series_log1p(x * alpha) * (1 / alpha)
    assert log_substitution_rhs(ctx, n, order) == series_compose(outer, inner)


@settings(max_examples=25, deadline=None)
@given(st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
       st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)))
@example(Fraction(-7, 3), Fraction(0))
@example(Fraction(0), Fraction(-999_999, 10**6))
@example(Fraction(-1), Fraction(5, 999_983))
def test_point_values_equal_polynomial_evaluation(lam, alpha):
    # the integer-term evaluation against ParamPoly.evaluate of the route-A
    # polynomial: negative numerators, alpha = 0, denominators up to 10^6
    ctx = PointContext(lam, alpha, SymbolicContext())
    for n in range(9):
        for k in range(9):
            assert ctx.y(n, k) == y1star(n, k).evaluate(lam, alpha), (n, k)
            assert ctx.y1(n, k) == simsek_y1(n, k).evaluate(lam, 0), (n, k)


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
    contexts = [PointContext(lam, alpha, SymbolicContext())
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
                assert ctx.s2star(n, j) == Fraction(int(expected.p),
                                                    int(expected.q)), (n, j)
