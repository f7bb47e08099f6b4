"""The row generating function phi_n and its seven identity checks."""

from fractions import Fraction

import pytest

from degsimsek.phi import (PointContext, check_egf, check_f_transform,
                           check_log_substitution, check_phi_apostol,
                           check_phi_derivative, check_phi_integral,
                           check_phi_recurrence, phi_series)
from degsimsek.registry import (FIXED_POINTS, F_TRANSFORM_POLYS, REGISTRY,
                               _run_entry, random_points)
from degsimsek.reports import verdict
from degsimsek.simsek import y1star

POINTS = list(FIXED_POINTS) + random_points(seed=42, count=5)
[PHI_INT] = [e for e in REGISTRY if e.id == "PHI-INT"]


def at(lam, alpha) -> PointContext:
    """A fresh context at (lam, alpha) on the shared route-A store."""
    return PointContext(lam, alpha)


def run(check, lam, alpha, *args, mismatch_status="fail", **options):
    """The (status, mismatch) verdict of check's pairs at a fresh context
    at (lam, alpha), as the registry walks them."""
    ctx = at(lam, alpha)
    return verdict(check(ctx, *args, **options), ctx.describe,
                   mismatch_status)


def integral(lam, alpha, n, order, corrected=False):
    """check_phi_integral's verdict with the PHI-INT entries' mismatch
    status: expected-discrepancy for the stated form at alpha != 0."""
    status = "expected-discrepancy" if alpha and not corrected else "fail"
    return run(check_phi_integral, lam, alpha, n, order,
               mismatch_status=status, corrected=corrected)


# ---------------------------------------------------------------------------
# phi_series itself
# ---------------------------------------------------------------------------

def test_phi_zero_at_lambda_zero_alpha_one():
    assert phi_series(0, 0, 1, 4).render() == "[1, 1, 0, 0, 0]"


def test_phi_column_values_at_alpha_zero():
    for n in range(4):
        series = phi_series(n, 1, 0, 1)
        d = Fraction(1 if n == 0 else 0)
        assert series.coeffs[0] == d
        assert series.coeffs[1] == d + 1


def test_phi_quadratic_coefficient():
    assert phi_series(1, 1, Fraction(1, 2), 2).coeffs[2] == Fraction(7, 4)


def test_phi_coefficient_consistency():
    lam, alpha = Fraction(2, 3), Fraction(1, 3)
    for n in range(7):
        series = phi_series(n, lam, alpha, 8)
        for k in range(9):
            assert series.coeffs[k] == y1star(n, k).evaluate(lam, alpha)


# ---------------------------------------------------------------------------
# the seven checks at rational points
# ---------------------------------------------------------------------------

def test_egf_passes_on_grid():
    for lam, alpha in POINTS:
        status, mismatch = run(check_egf, lam, alpha, 8)
        assert status == "pass", (lam, alpha, mismatch)


def test_egf_degenerate_point():
    assert run(check_egf, 0, 0, 6)[0] == "pass"


def test_log_substitution():
    for lam, alpha in POINTS:
        for n in range(4):
            status, mismatch = run(check_log_substitution, lam, alpha, n, 8)
            expected = "trivially-true" if alpha == 0 else "pass"
            assert status == expected, (n, lam, alpha, mismatch)


def test_recurrence_check():
    for lam, alpha in POINTS:
        for n in range(4):
            status, mismatch = run(check_phi_recurrence, lam, alpha, n, 8)
            assert status == "pass", (n, lam, alpha, mismatch)


def test_derivative_check():
    for lam, alpha in POINTS:
        for n in range(4):
            status, mismatch = run(check_phi_derivative, lam, alpha, n, 8)
            assert status == "pass", (n, lam, alpha, mismatch)


def test_apostol_check():
    for lam, alpha in POINTS:
        for n in range(4):
            status, mismatch = run(check_phi_apostol, lam, alpha, n, 8)
            assert status == "pass", (n, lam, alpha, mismatch)


def test_checks_at_lambda_zero_edge():
    # at lam = 0 every row n >= 1 of y1star vanishes, so the recurrence and
    # derivative statements degenerate but must still verify
    assert run(check_phi_recurrence, 0, Fraction(1, 3), 0, 6)[0] == "pass"
    assert run(check_phi_derivative, 0, 0, 0, 6)[0] == "pass"
    assert run(check_phi_apostol, 0, Fraction(1, 2), 0, 6)[0] == "pass"
    status, _ = run(check_phi_apostol, Fraction(1, 3), Fraction(1, 5), 2, 8)
    assert status == "pass"


def test_integral_check_exact_at_alpha_zero():
    for lam in (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-2, 3)):
        for n in range(1, 4):
            status, mismatch = integral(lam, 0, n, 8)
            assert status == "pass", (n, lam, mismatch)


def test_integral_check_discrepancy_is_regression_locked():
    status, mismatch = integral(1, Fraction(1, 2), 1, 8)
    assert status == "expected-discrepancy"
    assert mismatch == "n=1;x^1;lhs=0;rhs=-1/8"
    _, again = integral(1, Fraction(1, 2), 1, 8)
    assert again == mismatch
    status2, mismatch2 = integral(Fraction(2, 3), Fraction(1, 3), 1, 8)
    assert status2 == "expected-discrepancy"
    assert mismatch2 == "n=1;x^1;lhs=0;rhs=-2/25"


def test_integral_check_never_passes_silently_at_nonzero_alpha():
    for lam, alpha in POINTS:
        if alpha == 0:
            continue
        for n in range(1, 4):
            status, mismatch = integral(lam, alpha, n, 8)
            assert status == "expected-discrepancy"
            assert mismatch
        # the PHI-INT entry picks that status itself
        report = _run_entry(PHI_INT, at(lam, alpha), 8, 0)
        assert report.status == "expected-discrepancy", (lam, alpha)


def test_corrected_integral_variant_passes():
    [entry] = [e for e in REGISTRY if e.id == "PHI-INT-CORR"]
    for lam, alpha in POINTS:
        for n in range(1, 4):
            status, mismatch = integral(lam, alpha, n, 8, corrected=True)
            assert status == "pass", (n, lam, alpha, mismatch)
        # the suite reports the merged verdict under the variant's own id
        report = _run_entry(entry, at(lam, alpha), 8, 0)
        assert report.id == "PHI-INT-CORR"
        assert report.status == "pass", (lam, alpha, report.mismatch)


def test_integral_check_requires_positive_n():
    with pytest.raises(ValueError):
        integral(1, 0, 0, 8)


def test_f_transform():
    for lam, alpha in POINTS[:5] + random_points(seed=9, count=3):
        for f in F_TRANSFORM_POLYS:
            for n in range(4):
                status, mismatch = run(check_f_transform, lam, alpha, n,
                                       f, 8)
                assert status == "pass", (n, f, lam, alpha, mismatch)


def test_f_transform_constant_f_is_phi():
    # with f = 1 the right side collapses to phi_n itself
    status, _ = run(check_f_transform, Fraction(1, 3), Fraction(2, 7), 5,
                    (Fraction(1),), 6)
    assert status == "pass"


def test_reports_serialize_without_wall_time():
    [entry] = [e for e in REGISTRY if e.id == "PHI-DER"]
    report = _run_entry(entry, at(1, 0), 6, 0)
    data = report.to_dict()
    assert "wall_time" not in data
    assert data["status"] == "pass"
    assert data["lambda"] == "1" and data["alpha"] == "0"


# ---------------------------------------------------------------------------
# the point's log and Lah triangles
# ---------------------------------------------------------------------------

def lah_number(m: int, k: int) -> int:
    """Unsigned Lah number L(m,k) = C(m-1,k-1) m!/k!, with L(0,0) = 1."""
    import sympy
    if m == 0:
        return int(k == 0)
    return int(sympy.binomial(m - 1, k - 1) * sympy.factorial(m)
               / sympy.factorial(k))


@pytest.mark.parametrize("alpha", [Fraction(0), Fraction(-3, 4),
                                   Fraction(13, 2**61 - 1)])
@pytest.mark.parametrize("orders", [(12, 6), (6, 12)])
def test_triangles_are_stirling_and_lah_rows(monkeypatch, alpha, orders):
    from sympy.functions.combinatorial.numbers import stirling
    from degsimsek import phi
    built = []
    step = phi._point_step

    def recording(left, above, m, k, c, lah):
        built.append((lah, m, k))
        return step(left, above, m, k, c, lah)
    monkeypatch.setattr(phi, "_point_step", recording)
    ctx = at(Fraction(-2, 3), alpha)
    c = ctx.rq
    expected = {
        "log": lambda m, k: int(stirling(m, k, kind=1, signed=True))
        * c ** (m - k),
        "lah": lambda m, k: lah_number(m, k) * (-c) ** (m - k)}
    for kind, value in expected.items():
        first, second = (ctx.triangle(kind, order) for order in orders)
        low, high = sorted((first, second), key=len)
        assert [len(row) for row in high] == list(range(1, 14))
        # the lower read is the higher one's prefix, row for row
        assert all(a is b for a, b in zip(low, high)) and len(low) == 7
        for m, row in enumerate(high):
            assert row == [value(m, k) for k in range(m + 1)], (kind, m)
    # rows 1..12 of each triangle, each entry built once
    assert sorted(built) == sorted((lah, m, k) for lah in (False, True)
                                   for m in range(12) for k in range(m + 2))
