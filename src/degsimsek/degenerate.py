"""Degenerate special-number families: the degenerate exponential series,
degenerate Stirling numbers of both kinds, the new-type degenerate Stirling
numbers S2*(n,k|a), and degenerate Apostol-Euler numbers.

The degenerate Stirling triangles are the two change-of-basis matrices
between the ordinary and the a-deformed falling-factorial bases:

    (x)_{n,a} = sum_l  deg_stirling2(n,l) (x)_l
    (x)_n     = sum_l  deg_stirling1(n,l) (x)_{l,a}

They are computed by a triangular solve against the (monic) target basis,
straight from the definitions.
"""

from __future__ import annotations

from fractions import Fraction
import math

from .algebra import (PP, QQ, ParamPoly, SeriesDomainError, TruncSeries,
                      _combine, _over, exp_t, ring_of, series_reciprocal)
from .classical import degenerate_falling

# row caches: n -> list of ParamPoly (index l), polynomials in a only
_DS2_ROWS: dict[int, list[ParamPoly]] = {}
_DS1_ROWS: dict[int, list[ParamPoly]] = {}


def _falling_terms(n: int, step_a: int) -> list[dict]:
    """Integer terms {(deg_l, deg_a): c} of prod_{i<m} (l - i a^step_a)
    for m = 0..n: the falling factorials (l)_m at step_a = 0, the
    degenerate ones (l)_{m,a} at step_a = 1 (l stands for x)."""
    out = [{(0, 0): 1}]
    for i in range(n):
        out.append(_combine([(out[i], 1, 1, 0), (out[i], -i, 0, step_a)]))
    return out


def _falling_basis_row(n: int, source_a: int, target_a: int) -> list[ParamPoly]:
    """Expand the source falling factorial of degree n in the monic target
    basis (step_a as in _falling_terms) by descending triangular
    elimination on the l-degree.  Both bases have integer coefficients and
    are monic, so every step stays in integers."""
    p = _falling_terms(n, source_a)[n]
    basis = _falling_terms(n, target_a)
    row = [ParamPoly() for _ in range(n + 1)]
    for d in range(n, -1, -1):
        c = {(0, j): v for (i, j), v in p.items() if i == d}
        row[d] = _over(c, 1)
        if c:
            p = _combine([(p, 1, 0, 0)] + [(basis[d], -v, 0, j)
                                           for (_, j), v in c.items()])
    assert not p, "basis conversion left a nonzero remainder"
    return row


def deg_stirling2(n: int, l: int) -> ParamPoly:
    """Coefficient of (x)_l in (x)_{n,a}, as a polynomial in a."""
    if n < 0 or l < 0 or l > n:
        return ParamPoly()
    row = _DS2_ROWS.get(n)
    if row is None:
        row = _DS2_ROWS[n] = _falling_basis_row(n, 1, 0)
    return row[l]


def deg_stirling1(n: int, l: int) -> ParamPoly:
    """Coefficient of (x)_{l,a} in (x)_n, as a polynomial in a."""
    if n < 0 or l < 0 or l > n:
        return ParamPoly()
    row = _DS1_ROWS.get(n)
    if row is None:
        row = _DS1_ROWS[n] = _falling_basis_row(n, 0, 1)
    return row[l]


def new_deg_stirling2(n: int, k: int, alpha):
    """New-type degenerate Stirling number S2*(n,k|a): n! times coefficient
    n of (e^t-1)_{k,a}/k!.

    `alpha` may be a rational (value returned as Fraction) or a ParamPoly
    (value returned symbolically).  Series extraction is authoritative at
    k = 0: S2*(0,0|a) = 1 and S2*(n,0|a) = 0 for n >= 1.
    """
    if n < 0 or k < 0:
        return ParamPoly() if isinstance(alpha, ParamPoly) else Fraction(0)
    ring = PP if isinstance(alpha, ParamPoly) else QQ
    em1 = exp_t(n, ring) - 1
    series = degenerate_falling(em1, k, alpha)
    return series.coeffs[n] * Fraction(math.factorial(n), math.factorial(k))


def _s2star_rows(ratio: Fraction, size: int) -> tuple[list[list[int]], int]:
    """(rows, den) with rows[j][n] / den = n! [t^n] (e^t-1)_{j,ratio}
    = j! S2*(n, j | ratio) for n, j <= size: integer numerators over one
    denominator q^size for ratio = p/q.  Row j+1 is row j times the factor
    e^t - 1 - j p/q, a binomial convolution of n!-scaled coefficients."""
    p, q = ratio.numerator, ratio.denominator
    row = [1] + [0] * size  # q^j n! [t^n] of the product
    rows = [row]
    for j in range(size):
        row = [q * sum(math.comb(n, e) * row[n - e] for e in range(1, n + 1))
               - j * p * row[n] for n in range(size + 1)]
        rows.append(row)
    return ([[c * q**(size - j) for c in row] for j, row in enumerate(rows)],
            q**size)


def deg_exp_series(x, alpha, order: int, var: str = "t",
                   ring=None) -> TruncSeries:
    """Degenerate exponential e_a^x as a truncated series: coefficient m is
    (x)_{m,alpha}/m!.  Works for x and alpha in any kit ring; at alpha = 0
    it reduces to exp(x*var)."""
    if ring is None:
        ring = ring_of(x)
    prod = ring.coerce(x) * 0 + 1
    coeffs = [prod]
    for m in range(1, order + 1):
        prod = prod * (x - alpha * (m - 1))
        coeffs.append(prod * Fraction(1, math.factorial(m)))
    return TruncSeries(var, order, coeffs, ring)


def apostol_euler_series(k: int, lam0, alpha0, order: int) -> TruncSeries:
    """The series (2/(lam * e_a(t) + 1))^k whose coefficients carry the
    degenerate Apostol-Euler numbers of order k; needs lam != -1."""
    lam0 = Fraction(lam0)
    alpha0 = Fraction(alpha0)
    if lam0 == -1:
        raise SeriesDomainError("Apostol-Euler numbers need lam != -1")
    inner = deg_exp_series(Fraction(1), alpha0, order)  # e_a(t); exp(t) at a=0
    half = (inner * lam0 + 1) * Fraction(1, 2)
    return series_reciprocal(half) ** k


def apostol_euler(n: int, k: int, lam0, alpha0) -> Fraction:
    """Degenerate first-kind Apostol-Euler number E_n^(k)(lam|a)."""
    if n < 0 or k < 0:
        raise ValueError("apostol_euler needs n, k >= 0")
    series = apostol_euler_series(k, lam0, alpha0, n)
    return series.coeffs[n] * math.factorial(n)

