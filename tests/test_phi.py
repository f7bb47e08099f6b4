"""The row generating function phi_n and its seven identity checks."""

from fractions import Fraction

import pytest

from degsimsek.phi import (check_egf, check_f_transform,
                           check_log_substitution, check_phi_apostol,
                           check_phi_derivative, check_phi_integral,
                           check_phi_recurrence, phi_series)
from degsimsek.registry import FIXED_POINTS, F_TRANSFORM_POLYS, random_points
from degsimsek.simsek import y1star

POINTS = list(FIXED_POINTS) + random_points(seed=42, count=5)


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


def test_phi_symbolic_mode():
    from degsimsek.phi import phi_series_symbolic
    series = phi_series_symbolic(2, 5)
    for k in range(6):
        assert series.coeffs[k] == y1star(2, k)


# ---------------------------------------------------------------------------
# the seven checks at rational points
# ---------------------------------------------------------------------------

def test_egf_passes_on_grid():
    for lam, alpha in POINTS:
        report = check_egf(8, 8, lam, alpha)
        assert report.status == "pass", (lam, alpha, report.mismatch)


def test_egf_degenerate_point():
    assert check_egf(6, 6, 0, 0).status == "pass"


def test_log_substitution():
    for lam, alpha in POINTS:
        for n in range(4):
            report = check_log_substitution(n, 8, lam, alpha)
            expected = "trivially-true" if alpha == 0 else "pass"
            assert report.status == expected, (n, lam, alpha, report.mismatch)


def test_recurrence_check():
    for lam, alpha in POINTS:
        for n in range(4):
            report = check_phi_recurrence(n, 8, lam, alpha)
            assert report.status == "pass", (n, lam, alpha, report.mismatch)


def test_derivative_check():
    for lam, alpha in POINTS:
        for n in range(4):
            report = check_phi_derivative(n, 8, lam, alpha)
            assert report.status == "pass", (n, lam, alpha, report.mismatch)


def test_apostol_check():
    for lam, alpha in POINTS:
        for n in range(4):
            report = check_phi_apostol(n, 8, lam, alpha)
            assert report.status == "pass", (n, lam, alpha, report.mismatch)


def test_checks_at_lambda_zero_edge():
    # at lam = 0 every row n >= 1 of y1star vanishes, so the recurrence and
    # derivative statements degenerate but must still verify
    assert check_phi_recurrence(0, 6, 0, Fraction(1, 3)).status == "pass"
    assert check_phi_derivative(0, 6, 0, 0).status == "pass"
    assert check_phi_apostol(0, 6, 0, Fraction(1, 2)).status == "pass"
    assert check_phi_apostol(2, 8, Fraction(1, 3), Fraction(1, 5)).status == "pass"


def test_integral_check_exact_at_alpha_zero():
    for lam in (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-2, 3)):
        for n in range(1, 4):
            report = check_phi_integral(n, 8, lam, 0)
            assert report.status == "pass", (n, lam, report.mismatch)


def test_integral_check_discrepancy_is_regression_locked():
    report = check_phi_integral(1, 8, 1, Fraction(1, 2))
    assert report.status == "expected-discrepancy"
    assert report.mismatch == "n=1;x^1;lhs=0;rhs=-1/8"
    again = check_phi_integral(1, 8, 1, Fraction(1, 2))
    assert again.mismatch == report.mismatch
    report2 = check_phi_integral(1, 8, Fraction(2, 3), Fraction(1, 3))
    assert report2.status == "expected-discrepancy"
    assert report2.mismatch == "n=1;x^1;lhs=0;rhs=-2/25"


def test_integral_check_never_passes_silently_at_nonzero_alpha():
    for lam, alpha in POINTS:
        if alpha == 0:
            continue
        for n in range(1, 4):
            report = check_phi_integral(n, 8, lam, alpha)
            assert report.status == "expected-discrepancy"
            assert report.mismatch


def test_corrected_integral_variant_passes():
    for lam, alpha in POINTS:
        for n in range(1, 4):
            report = check_phi_integral(n, 8, lam, alpha, corrected=True)
            assert report.id == "PHI-INT-CORR"
            assert report.status == "pass", (n, lam, alpha, report.mismatch)


def test_integral_check_requires_positive_n():
    with pytest.raises(ValueError):
        check_phi_integral(0, 8, 1, 0)


def test_f_transform():
    for lam, alpha in POINTS[:5] + random_points(seed=9, count=3):
        for f in F_TRANSFORM_POLYS:
            for n in range(4):
                report = check_f_transform(n, f, 8, lam, alpha)
                assert report.status == "pass", (n, f, lam, alpha,
                                                 report.mismatch)


def test_f_transform_constant_f_is_phi():
    # with f = 1 the right side collapses to phi_n itself
    report = check_f_transform(5, (Fraction(1),), 6, Fraction(1, 3),
                               Fraction(2, 7))
    assert report.status == "pass"


def test_reports_serialize_without_wall_time():
    report = check_phi_derivative(1, 6, 1, 0)
    data = report.to_dict()
    assert "wall_time" not in data
    assert data["status"] == "pass"
    assert data["lambda"] == "1" and data["alpha"] == "0"
