"""The three Simsek families and the six-route agreement for y1star."""

from fractions import Fraction
import math

import pytest

from degsimsek import simsek
from degsimsek.algebra import ParamPoly
from degsimsek.classical import (bernoulli_number, degenerate_falling,
                                 stirling1)
from degsimsek.simsek import (ROUTES, deg_simsek_y1, deg_simsek_y1_alt,
                              fk_series, fk_series_via_bernoulli,
                              route_c_printed, simsek_y1, simsek_y1_via_gf,
                              y1star)

L = ParamPoly.lam()
A = ParamPoly.alpha()


def hand_f2_linear_coefficient():
    """Oracle for y*(1,2): expand F_2 = (l e^t + 1)(l e^t + 1 - a)/2 by hand.

    To order 1 the factors are (l+1) + l t and (l+1-a) + l t; the t^1
    coefficient of their product over 2! is the value."""
    c0 = [L + 1, L]
    c1 = [L + 1 - A, L]
    t1 = c0[0] * c1[1] + c0[1] * c1[0]
    return t1 * Fraction(1, 2)


# ---------------------------------------------------------------------------
# y1 and the older degenerate family
# ---------------------------------------------------------------------------

def test_y1_special_cases():
    for n in range(6):
        assert simsek_y1(n, 0) == (ParamPoly.const(1) if n == 0 else ParamPoly())
    for k in range(6):
        assert simsek_y1(0, k) == (L + 1) ** k * Fraction(1, math.factorial(k))
    assert simsek_y1(1, 1) == L


def test_y1_matches_generating_function():
    for n in range(9):
        for k in range(9):
            assert simsek_y1(n, k) == simsek_y1_via_gf(n, k)


def test_y1_lambda_degree_bound():
    for n in range(9):
        for k in range(9):
            assert simsek_y1(n, k).deg_l <= k


def test_deg_simsek_base_row():
    for k in range(7):
        assert deg_simsek_y1(0, k) == (L + 1) ** k * Fraction(1, math.factorial(k))


def test_deg_simsek_routes_agree():
    for n in range(9):
        for k in range(9):
            assert deg_simsek_y1(n, k) == deg_simsek_y1_alt(n, k)


def test_deg_simsek_alpha_zero_is_y1():
    for n in range(9):
        for k in range(9):
            assert deg_simsek_y1(n, k).substitute(alpha=0) == simsek_y1(n, k)


# ---------------------------------------------------------------------------
# y1star routes
# ---------------------------------------------------------------------------

def test_y1star_column_zero_and_one():
    for route in ROUTES:
        for n in range(11):
            expected = ParamPoly.const(1) if n == 0 else ParamPoly()
            assert y1star(n, 0, route) == expected
            assert y1star(n, 1, route) == expected + L


def test_y1star_row_zero_is_degenerate_falling():
    for k in range(11):
        expected = degenerate_falling(L + 1, k, A) * Fraction(1, math.factorial(k))
        assert y1star(0, k) == expected


def test_y1star_1_2_against_hand_expansion():
    oracle = hand_f2_linear_coefficient()
    assert oracle == L**2 + L - L * A * Fraction(1, 2)
    for route in ROUTES:
        assert y1star(1, 2, route) == oracle


def test_route_equivalence_small_grid():
    for n in range(9):
        for k in range(9):
            reference = y1star(n, k, "A")
            for route in "BCDEF":
                assert y1star(n, k, route) == reference, (n, k, route)


def test_printed_c_reading_disagrees():
    # the step-j variant must differ somewhere; first at (n,k) = (0,2)
    assert route_c_printed(0, 2) != y1star(0, 2, "A")
    assert route_c_printed(1, 2) == y1star(1, 2, "A")  # j^1 kills the j=0 term


def test_y1star_alpha_zero_specialization():
    for n in range(11):
        for k in range(11):
            assert y1star(n, k).substitute(alpha=0) == simsek_y1(n, k)


def test_y1star_degree_bounds():
    for n in range(11):
        for k in range(11):
            poly = y1star(n, k)
            assert poly.deg_l <= k
            if k >= 1:
                assert poly.deg_a <= k - 1


def test_unknown_route_rejected():
    with pytest.raises(ValueError):
        y1star(1, 1, "G")


# ---------------------------------------------------------------------------
# the generating function F_k
# ---------------------------------------------------------------------------

def test_fk_series_small_k():
    f0 = fk_series(0, 5)
    assert f0.coeffs[0] == ParamPoly.const(1)
    assert all(c == ParamPoly() for c in f0.coeffs[1:])
    f1 = fk_series(1, 4)
    assert f1.coeffs[0] == L + 1
    for n in range(1, 5):
        assert f1.coeffs[n] == L * Fraction(1, math.factorial(n))
    assert fk_series(2, 3).coeffs[1] == L**2 + L - L * A * Fraction(1, 2)


def test_fk_coefficients_are_y1star():
    for k in range(7):
        series = fk_series(k, 8)
        for n in range(9):
            assert series.coeffs[n] * math.factorial(n) == y1star(n, k)


def test_fk_rational_specialization():
    lam, alpha = Fraction(2, 3), Fraction(1, 5)
    for k in range(6):
        sym = fk_series(k, 7)
        spec = fk_series(k, 7, lam, alpha)
        for n in range(8):
            assert sym.coeffs[n].evaluate(lam, alpha) == spec.coeffs[n]


def test_fk_bernoulli_polynomial_representation():
    # F_k = (a^k/k!) B_k^(k+1)((l e^t + 1)/a + 1) at rational points, a != 0
    for lam, alpha in ((Fraction(1), Fraction(1, 2)),
                       (Fraction(2, 3), Fraction(1, 3)),
                       (Fraction(-3, 5), Fraction(7, 4))):
        for k in range(7):
            direct = fk_series(k, 8, lam, alpha)
            via_bp = fk_series_via_bernoulli(k, 8, lam, alpha)
            assert direct == via_bp
    with pytest.raises(ValueError):
        fk_series_via_bernoulli(2, 4, Fraction(1), Fraction(0))


def test_fk_series_needs_both_point_values_or_neither():
    for kwargs in ({"lam": 1}, {"alpha": Fraction(1, 2)}):
        with pytest.raises(ValueError,
                           match="give both lam and alpha or neither"):
            fk_series(2, 4, **kwargs)


# ---------------------------------------------------------------------------
# the integer recurrences E and F and the integer routes B and C
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fill", ["_fill_k_recurrence", "_fill_n_recurrence"])
def test_triangle_filled_out_of_order_matches_route_b(fill):
    # a fresh triangle grown in a scrambled order: first a tall column
    # block, then a wide row block, then the whole square
    triangle = simsek._Triangle(getattr(simsek, fill))
    for n, k in ((3, 9), (12, 2), (14, 14)):
        triangle.get(n, k)
    for n in range(15):
        for k in range(15):
            assert triangle.get(n, k) == simsek.scaled_y1star(n, k, "B"), \
                (n, k)


def test_route_c_matches_route_b():
    for n in range(13):
        for k in range(13):
            assert y1star(n, k, "C") == y1star(n, k, "B"), (n, k)


def test_route_d_weights_are_signed_stirling_numbers():
    # route D's weights C(k,j) (j/k) B_{k-j}^(k) are the integers s(k,j),
    # since s(k,j) = C(k-1,j-1) B_{k-j}^(k)
    for k in range(1, 16):
        for j in range(1, k + 1):
            weight = (math.comb(k, j) * Fraction(j, k)
                      * bernoulli_number(k - j, k))
            assert weight == stirling1(k, j), (k, j)


def test_stirling1_matches_sympy_signed():
    from sympy.functions.combinatorial.numbers import stirling
    for k in range(9):
        for j in range(k + 1):
            assert stirling1(k, j) == stirling(k, j, kind=1, signed=True), \
                (k, j)
