"""The per-point evaluation context: differential checks against the
uncached library functions, and a count guard on ParamPoly.evaluate."""

from fractions import Fraction

import pytest

from degsimsek.algebra import ParamPoly, poly_eval
from degsimsek.degenerate import new_deg_stirling2
from degsimsek.phi import PointContext, phi_series
from degsimsek.registry import (FIXED_POINTS, REGISTRY, random_points,
                                run_suite)
from degsimsek.simsek import y1star

POINTS = list(FIXED_POINTS) + random_points(seed=5, count=3)
RATIONAL = [e for e in REGISTRY if e.mode == "rational"]


@pytest.mark.parametrize("ratio", [Fraction(0), Fraction(1, 2),
                                   Fraction(-3, 4), Fraction(5, 3)])
def test_s2star_table_matches_new_deg_stirling2(ratio):
    # lam = 2 so the context has to form the ratio alpha/lam itself; n rises
    # in the outer loop, so the product restarts at every higher order
    ctx = PointContext(2, 2 * ratio)
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
    ctx = PointContext(lam, alpha)
    for n in range(7):
        for k in range(9):
            assert ctx.y(n, k) == poly_eval(y1star(n, k), lam, alpha)
        assert ctx.phi(n, 8) == phi_series(n, lam, alpha, 8)


@pytest.mark.parametrize("point", POINTS[:2] + POINTS[-1:])
def test_shared_context_gives_identical_reports(point):
    # fill one context by running every rational entry in reverse registry
    # order, then compare each entry on it against a fresh context
    shared = PointContext(*point)
    for entry in reversed(RATIONAL):
        entry.run(shared, 8)
    for entry in RATIONAL:
        fresh = entry.run(PointContext(*point), 8)
        reused = entry.run(shared, 8)
        assert (fresh.id, fresh.to_dict()) == (reused.id, reused.to_dict())


def test_context_of_another_point_is_rejected():
    from degsimsek.phi import check_phi_derivative
    with pytest.raises(ValueError, match="another point"):
        check_phi_derivative(1, 4, 1, 0, ctx=PointContext(1, Fraction(1, 2)))


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
