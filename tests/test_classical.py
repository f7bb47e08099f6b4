"""Stirling triangles, falling factorials, and higher-order Bernoulli
numbers, cross-checked against their generating functions, also through
the Bernoulli polynomials built from them."""

from fractions import Fraction
import math

import pytest

from degsimsek.algebra import ParamPoly, TruncSeries
from degsimsek.classical import (_ProductChain, bernoulli_number, stirling1,
                                 stirling2)

from oracles import (add_constant, as_row, bernoulli_poly,
                     bernoulli_poly_coeffs, count_partitions, exp_series,
                     falling, falling_factorial_coeffs, log1p_series,
                     reciprocal_solve, ring_product, row_values,
                     series_falling)

L = ParamPoly.lam()
A = ParamPoly.alpha()


# ---------------------------------------------------------------------------
# Stirling triangles
# ---------------------------------------------------------------------------

def test_stirling2_base_and_edge():
    assert stirling2(0, 0) == 1
    assert stirling2(5, 7) == 0
    assert stirling2(3, -1) == 0
    for n in range(1, 8):
        assert stirling2(n, 1) == 1


def test_stirling2_4_2_by_enumeration():
    assert count_partitions(4, 2) == 7
    assert stirling2(4, 2) == 7


def test_stirling1_by_expansion():
    # x(x-1)(x-2) = x^3 - 3x^2 + 2x, expanded by convolution
    coeffs = falling_factorial_coeffs(3)
    assert coeffs[2] == -3 and coeffs[1] == 2
    assert stirling1(3, 2) == -3
    assert stirling1(3, 1) == 2
    for n in range(9):
        assert stirling1(n, n) == 1


def test_triangles_match_generating_functions():
    # second kind: n! [t^n] (e^t-1)^k / k!; first kind: n! [t^n] log(1+t)^k / k!
    order = 12
    em1 = add_constant(exp_series(order), -1)
    logt = log1p_series(order)
    for k in range(order + 1):
        gf2 = series_falling(em1, k)
        gf1 = series_falling(logt, k)
        for n in range(k, order + 1):
            scale = Fraction(math.factorial(n), math.factorial(k))
            assert stirling2(n, k) == gf2.coeffs[n] * scale
            assert stirling1(n, k) == gf1.coeffs[n] * scale


def test_basis_inversion_identities():
    # sum_k S2(n,k) (x)_k = x^n  and  (x)_n = sum_k S1(n,k) x^k
    for n in range(13):
        lhs = ParamPoly()
        for k in range(n + 1):
            lhs = lhs + falling(L, k, 1) * stirling2(n, k)
        assert lhs == falling(L, n)
        rhs = ParamPoly()
        for k in range(n + 1):
            rhs = rhs + falling(L, k) * stirling1(n, k)
        assert rhs == falling(L, n, 1)


# ---------------------------------------------------------------------------
# falling factorials: the products P_n = x(x - a)...(x - (n-1)a) that the
# product chains hold, and their Stirling-1 expansion
# ---------------------------------------------------------------------------

def row(order: int, coeffs) -> tuple:
    """The integer row of the series with the given coefficients, padded
    with zeros to `order`."""
    return as_row([*coeffs, *[0] * (order + 1 - len(coeffs))])


def series_t(order: int) -> tuple:
    return row(order, [0, 1])


def test_degenerate_falling_basics():
    a = Fraction(2, 3)
    assert _ProductChain(series_t, a).product(2, 4) == row(4, [0, -a, 1])
    powers = _ProductChain(series_t)
    for n in range(6):
        assert powers.product(n, 6) == row(6, [0] * n + [1])
    one = _ProductChain(lambda order: row(order, [1]), 1)
    assert one.product(2, 3) == row(3, [0])
    five = _ProductChain(lambda order: row(order, [5]), 1)
    assert five.product(0, 3) == row(3, [1])


def test_degenerate_falling_at_alpha_one_is_falling():
    chain = _ProductChain(series_t, 1)
    for n in range(7):
        assert row_values(chain.product(n, 6)) == \
            (falling_factorial_coeffs(n) + [0] * 6)[:7]


def test_degenerate_falling_at_integers_from_stirling1():
    # (x)_{m,a} = sum_j s(m,j) x^j a^(m-j), which route C, falling_sum and
    # the degenerate Stirling bases read off the Stirling-1 rows
    for x in (1, -1, 3):
        for m in range(11):
            expected = falling(Fraction(x), m, A)
            assert ParamPoly({(0, m - j): stirling1(m, j) * x**j
                              for j in range(m + 1)}) == expected, (x, m)


# ---------------------------------------------------------------------------
# Bernoulli numbers, and the polynomials
# B_k^(n)(x) = sum_j C(k,j) B_{k-j}^(n) x^j built from them
# ---------------------------------------------------------------------------

def test_bernoulli_numbers_low_order():
    for k in range(6):
        assert bernoulli_number(0, k) == 1
    assert bernoulli_number(1, 1) == Fraction(-1, 2)
    assert bernoulli_number(2, 1) == Fraction(1, 6)
    assert bernoulli_number(3, 1) == 0


def test_bernoulli_poly_low_order():
    assert bernoulli_poly(0, 3, L) == 1
    # B_1^(1)(x) = x - 1/2 from expanding t e^{xt}/(e^t - 1) to order 1
    assert bernoulli_poly(1, 1, L) == L - Fraction(1, 2)
    # recurrence spot value: B_1^(2)(x) = (1-1/1) B_1^(1) + 1*(x/1-1) B_0^(1)
    assert bernoulli_poly(1, 2, L) == L - 1


def test_bernoulli_poly_against_gf():
    # B_k^(n)(x) = k! [t^k] e^{xt} (t/(e^t-1))^n with x symbolic
    order = 6
    ext = [falling(L, m) * Fraction(1, math.factorial(m)) for m in range(order + 1)]
    t_over_em1 = TruncSeries("t", order, reciprocal_solve(
        [Fraction(1, math.factorial(m + 1)) for m in range(order + 1)], order))
    for n in range(4):
        power = series_falling(t_over_em1, n)
        gf = ring_product(ext, [ParamPoly({(0, 0): c}) for c in power.coeffs],
                          ParamPoly())
        for k in range(order + 1):
            assert bernoulli_poly(k, n, L) == gf[k] * math.factorial(k)


def test_bernoulli_poly_derivative_property():
    # d/dx B_n^(k)(x) = n B_{n-1}^(k)(x)
    for k in range(9):
        for n in range(1, 9):
            c = bernoulli_poly_coeffs(n, k)
            derived = tuple(c[j] * j for j in range(1, n + 1))
            expected = tuple(x * n for x in bernoulli_poly_coeffs(n - 1, k))
            assert derived == expected


def test_bernoulli_poly_recurrence():
    # B_k^(n+1)(x) = (1 - k/n) B_k^(n)(x) + k (x/n - 1) B_{k-1}^(n)(x), n >= 1
    for n in range(1, 7):
        for k in range(9):
            lhs = bernoulli_poly(k, n + 1, L)
            rhs = bernoulli_poly(k, n, L) * (1 - Fraction(k, n))
            if k >= 1:
                rhs = rhs + (L * Fraction(1, n) - 1) \
                    * bernoulli_poly(k - 1, n, L) * k
            assert lhs == rhs


def test_bernoulli_poly_series_argument():
    # evaluation must accept series arguments: B_1^(1)(e^t) = e^t - 1/2
    e = exp_series(5)
    assert bernoulli_poly(1, 1, e) == add_constant(e, Fraction(-1, 2))


def test_index_validation():
    with pytest.raises(ValueError):
        bernoulli_number(-1, 0)
