"""Degenerate Stirling triangles, the new-type S2* numbers, the degenerate
exponential series, and Apostol-Euler numbers."""

from fractions import Fraction
import math
import random

import pytest

from degsimsek.algebra import ParamPoly, SeriesDomainError, TruncSeries
from degsimsek.classical import stirling1, stirling2
from degsimsek.degenerate import (apostol_euler, deg_stirling1, deg_stirling2,
                                  new_deg_stirling2)

from oracles import (deg_exp_series, exp_series, falling, reciprocal_solve,
                     series_falling, terms_degrees)

L = ParamPoly.lam()
A = ParamPoly.alpha()


# ---------------------------------------------------------------------------
# degenerate Stirling triangles
# ---------------------------------------------------------------------------

def test_deg_stirling2_values():
    for n in range(9):
        assert deg_stirling2(n, n) == 1
    # x(x-a) = (x)_2 + (1-a)(x)_1 using x^2 = (x)_2 + (x)_1
    assert deg_stirling2(2, 1) == 1 - A
    assert deg_stirling2(3, 5) == ParamPoly()


def test_deg_stirling1_values():
    for n in range(9):
        assert deg_stirling1(n, n) == 1
    # x(x-1) = x(x-a) + (a-1)x
    assert deg_stirling1(2, 1) == A - 1


def test_deg_triangles_reduce_to_classical():
    for n in range(9):
        for l in range(n + 1):
            assert deg_stirling2(n, l).substitute(alpha=0) == stirling2(n, l)
            assert deg_stirling1(n, l).substitute(alpha=0) == stirling1(n, l)


def test_deg_stirling_basis_identities():
    # defining identities, symbolically in x (the l slot) and a
    for n in range(11):
        lhs = ParamPoly()
        for l in range(n + 1):
            lhs = lhs + deg_stirling2(n, l) * falling(L, l, 1)
        assert lhs == falling(L, n, A)
        rhs = ParamPoly()
        for l in range(n + 1):
            rhs = rhs + deg_stirling1(n, l) * falling(L, l, A)
        assert rhs == falling(L, n, 1)


def test_deg_stirling_rows_match_sympy_ff_expansion():
    # an independent derivation for n <= 6: solve (x)_{n,a} = sum_l c_l
    # ff(x, l) and ff(x, n) = sum_l c_l a^l ff(x/a, l) for the c_l with
    # sympy, matching coefficients of x
    import sympy
    x, a = sympy.symbols("x a")

    def expansion(target, basis, n):
        cs = sympy.symbols(f"c0:{n + 1}")
        residue = sympy.expand(target - sum(c * basis(l)
                                            for l, c in enumerate(cs)))
        solution = sympy.solve(sympy.Poly(residue, x).coeffs(), cs, dict=True)
        return [sympy.Poly(solution[0][c], a) for c in cs]

    def terms(poly):
        return {(0, e[0]): Fraction(int(c)) for e, c in poly.terms() if c}

    for n in range(7):
        degenerate = sympy.Mul(*[x - i * a for i in range(n)])
        row2 = expansion(degenerate, lambda l: sympy.ff(x, l), n)
        row1 = expansion(sympy.expand_func(sympy.ff(x, n)),
                         lambda l: sympy.expand(a**l * sympy.ff(x / a, l)), n)
        for l in range(n + 1):
            assert deg_stirling2(n, l).terms == terms(row2[l]), (n, l)
            assert deg_stirling1(n, l).terms == terms(row1[l]), (n, l)


def test_deg_stirling_triangles_are_mutually_inverse():
    for n in range(9):
        for m in range(9):
            acc = ParamPoly()
            for l in range(min(n, 8) + 1):
                acc = acc + deg_stirling1(n, l) * deg_stirling2(l, m)
            assert acc == (1 if n == m else 0)


def test_deg_stirling_degree_bound():
    for n in range(9):
        for l in range(n + 1):
            assert terms_degrees(deg_stirling2(n, l).terms)[1] <= n - l
            assert terms_degrees(deg_stirling1(n, l).terms)[1] <= n - l


# ---------------------------------------------------------------------------
# new-type degenerate Stirling numbers S2*
# ---------------------------------------------------------------------------

def test_s2star_base_cases():
    for k in range(1, 6):
        assert new_deg_stirling2(0, k, A) == ParamPoly()
    assert new_deg_stirling2(1, 1, A) == 1
    # series extraction is authoritative at k = 0
    assert new_deg_stirling2(0, 0, A) == 1
    for n in range(1, 6):
        assert new_deg_stirling2(n, 0, A) == ParamPoly()


def test_s2star_reduces_to_stirling2():
    for n in range(9):
        for k in range(9):
            assert new_deg_stirling2(n, k, Fraction(0)) == stirling2(n, k)


def test_s2star_symbolic_matches_rational_specialization():
    rng = random.Random(11)
    points = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(6)]
    for alpha0 in points:
        for n in range(11):
            for k in range(11):
                sym = new_deg_stirling2(n, k, A)
                assert sym.substitute(alpha=alpha0) == \
                    new_deg_stirling2(n, k, alpha0)


def test_s2star_not_triangular_in_general():
    # unlike the a=0 case, entries above the diagonal are nonzero polynomials
    assert new_deg_stirling2(1, 2, A) == A * Fraction(-1, 2)


# ---------------------------------------------------------------------------
# the degenerate exponential series, from the falling product
# ---------------------------------------------------------------------------

def test_deg_exp_series_values():
    s = deg_exp_series(Fraction(1), Fraction(1), 5)
    assert s == TruncSeries("t", 5, [1, 1])
    x0 = deg_exp_series(Fraction(0), Fraction(2, 3), 4)
    assert x0 == TruncSeries("t", 4, [1])


def test_deg_exp_series_alpha_zero_is_exp():
    x = Fraction(3, 2)
    s = deg_exp_series(x, Fraction(0), 6)
    expected = [x**n / math.factorial(n) for n in range(7)]
    assert list(s.coeffs) == expected


# ---------------------------------------------------------------------------
# Apostol-Euler numbers
# ---------------------------------------------------------------------------

def test_apostol_euler_constant_term():
    for k in range(4):
        for lam in (Fraction(1), Fraction(2, 3), Fraction(-1, 2)):
            assert apostol_euler(0, k, lam, Fraction(1, 3)) == \
                (2 / (lam + 1)) ** k


def test_apostol_euler_first_order_value():
    # oracle: 2/(l e^t + 1) to order 1 gives E_1 = -2l/(1+l)^2; at l=1: -1/2
    from oracles import reciprocal_solve
    lam = Fraction(1)
    half = [(lam + 1) / 2, lam / 2]  # (l e^t + 1)/2 to order 1
    oracle = reciprocal_solve(half, 1)
    assert oracle[1] == Fraction(-1, 2)
    assert apostol_euler(1, 1, 1, 0) == Fraction(-1, 2)
    for lam in (Fraction(2), Fraction(1, 3), Fraction(-3, 4)):
        assert apostol_euler(1, 1, lam, 0) == -2 * lam / (1 + lam) ** 2


def test_apostol_euler_order_zero():
    for n in range(5):
        assert apostol_euler(n, 0, Fraction(1, 2), Fraction(1, 5)) == \
            (1 if n == 0 else 0)


def test_apostol_euler_alpha_zero_matches_direct_gf():
    # independent path: assemble (2/(l e^t + 1))^k from e^t directly
    for lam in (Fraction(1), Fraction(2, 5), Fraction(-1, 3)):
        for k in range(4):
            half = [(lam * c + (m == 0)) / 2
                    for m, c in enumerate(exp_series(10).coeffs)]
            direct = series_falling(
                TruncSeries("t", 10, reciprocal_solve(half, 10)), k)
            for n in range(11):
                assert apostol_euler(n, k, lam, 0) == \
                    direct.coeffs[n] * math.factorial(n)


def test_apostol_euler_rejects_lam_minus_one():
    with pytest.raises(SeriesDomainError):
        apostol_euler(2, 1, Fraction(-1), Fraction(1, 2))
