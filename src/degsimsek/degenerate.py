"""Degenerate special-number families: degenerate Stirling numbers of both
kinds, the new-type degenerate Stirling numbers S2*(n,k|a), and degenerate
Apostol-Euler numbers.

The degenerate Stirling triangles are the two change-of-basis matrices
between the ordinary and the a-deformed falling-factorial bases:

    (x)_{n,a} = sum_l  deg_stirling2(n,l) (x)_l
    (x)_n     = sum_l  deg_stirling1(n,l) (x)_{l,a}

Each grows by classical._grow_rows, as integer terms {(0, j): c} of
Z[a]: (x)_{m+1,a} = (x)_{m,a} (x - m a) and x (x)_l = (x)_{l+1} + l (x)_l
give

    deg_stirling2(m+1,l) = deg_stirling2(m,l-1) + (l - m a) deg_stirling2(m,l)

and (x)_{m+1} = (x)_m (x - m) and x (x)_{l,a} = (x)_{l+1,a} + l a (x)_{l,a}

    deg_stirling1(m+1,l) = deg_stirling1(m,l-1) + (l a - m) deg_stirling1(m,l).

Route C's (1)_{n,a} and falling_sum's (-1)_{n,a} are read off the
Stirling-1 rows, (x)_{n,a} = sum_j s(n,j) a^(n-j) x^j.  So is a symbolic
S2*: n! [t^n] (e^t-1)^j = j! S2(n,j) makes it an integer sum.  A rational S2*
and the Apostol-Euler numbers are read from grow-only product chains, one
per alpha and one per point, which _s2star_chain and _apostol_chain hand to
the library and the verifier alike.
"""

from __future__ import annotations

from fractions import Fraction
import math

from .algebra import (ParamPoly, SeriesDomainError, _combine, _lowest, _over,
                      _point_key)
from .classical import (_grow_rows, _ProductChain, _Reciprocal,
                        _stirling1_row, stirling2)

# Row m of each triangle holds the integer terms of its (m, 0..m) entries.
_DS2_ROWS: list[list[dict]] = [[{(0, 0): 1}]]
_DS1_ROWS: list[list[dict]] = [[{(0, 0): 1}]]


def _ds2_step(left: dict, above: dict, m: int, j: int) -> dict:
    return _combine([(left, 1, 0, 0), (above, j, 0, 0), (above, -m, 0, 1)])


def _ds1_step(left: dict, above: dict, m: int, j: int) -> dict:
    return _combine([(left, 1, 0, 0), (above, -m, 0, 0), (above, j, 0, 1)])


def _deg_rows(n: int) -> tuple[list[dict], list[dict]]:
    """Row n >= 0 of each triangle, deg_stirling2 first: the memoized rows
    themselves, so do not mutate them."""
    return (_grow_rows(_DS2_ROWS, n, {}, _ds2_step)[n],
            _grow_rows(_DS1_ROWS, n, {}, _ds1_step)[n])


def deg_stirling2(n: int, l: int) -> ParamPoly:
    """Coefficient of (x)_l in (x)_{n,a}, as a polynomial in a."""
    if n < 0 or l < 0 or l > n:
        return ParamPoly()
    return _over(_deg_rows(n)[0][l], 1)


def deg_stirling1(n: int, l: int) -> ParamPoly:
    """Coefficient of (x)_{l,a} in (x)_n, as a polynomial in a."""
    if n < 0 or l < 0 or l > n:
        return ParamPoly()
    return _over(_deg_rows(n)[1][l], 1)


# chains of (e^t-1)_{j,a}, keyed by a rational alpha = p/q in lowest terms
# as (p, q): hashing two ints is much cheaper than hashing a Fraction, and
# equal alphas however written share one chain
_s2star_chains: dict[tuple[int, int], _ProductChain] = {}


def _expm1(order: int) -> tuple[tuple[int, ...], int]:
    """The row of e^t - 1 = sum_{m>=1} t^m/m!, over the one denominator
    order!."""
    top = math.factorial(order)
    return _lowest([0] + [top // math.factorial(m)
                          for m in range(1, order + 1)], top)


def _s2star_chain(alpha) -> _ProductChain:
    """The chain of the products (e^t-1)_{j,alpha}, j = 0, 1, ..., at a
    rational alpha, that new_deg_stirling2 and the verifier's S2* tables
    read; made on first use."""
    key = _point_key(alpha)
    chain = _s2star_chains.get(key)
    if chain is None:
        chain = _s2star_chains[key] = _ProductChain(_expm1, Fraction(*key))
    return chain


def new_deg_stirling2(n: int, k: int, alpha):
    """New-type degenerate Stirling number S2*(n,k|a): n! times coefficient
    n of (e^t-1)_{k,a}/k!.

    `alpha` may be a rational (value returned as Fraction, read from the
    alpha's chain and kept on it, so a repeated read returns the same
    Fraction) or a ParamPoly (value returned symbolically, as the sum
    (1/k!) sum_j s(k,j) alpha^(k-j) j! S2(n,j), by Horner in alpha).
    S2*(0,0|a) = 1 and S2*(n,0|a) = 0 for n >= 1.
    """
    symbolic = isinstance(alpha, ParamPoly)
    if n < 0 or k < 0:
        return ParamPoly() if symbolic else Fraction(0)
    if symbolic:
        value = ParamPoly()
        for j, s1 in enumerate(_stirling1_row(k)):
            value = value * alpha + s1 * math.factorial(j) * stirling2(n, j)
        return value * Fraction(1, math.factorial(k))
    try:  # a Fraction alpha's key, read off its slots as in apostol_euler
        chain = _s2star_chains[(alpha._numerator, alpha._denominator)]
    except (AttributeError, KeyError):  # another spelling, or a new alpha
        chain = _s2star_chain(alpha)
    value = chain.values.get((n, k))
    if value is None:
        value = chain.read(n, k, math.factorial(k))
    return value


def _euler_half(p: int, q: int, r: int, s: int,
                order: int) -> tuple[tuple[int, ...], int]:
    """The row of (lam * e_a(t) + 1)/2 at lam = p/q, alpha = r/s, with
    e_a(t) = exp(t) at a = 0, summed in integers: the coefficient
    (1)_{m,a}/m! of e_a is f_m/(s^m m!) with f_m = prod_{i<m} (s - i r), so
    at order N coefficient m >= 1 is p f_m s^(N-m) N!/m! over
    2 q s^N N!."""
    falling = [1]
    for m in range(order):
        falling.append(falling[-1] * (s - m * r))
    nums = [0] * (order + 1)
    weight = 1  # s^(N-m) N!/m!
    for m in range(order, 0, -1):
        nums[m] = p * falling[m] * weight
        weight *= s * m
    nums[0] = (p + q) * weight
    return _lowest(nums, 2 * q * weight)


# chains of (2/(lam * e_a(t) + 1))^k, keyed by the point lam = p/q,
# alpha = r/s in lowest terms as (p, q, r, s), like ParamPoly.evaluate's memo
_apostol_chains: dict[tuple[int, int, int, int], _ProductChain] = {}


def _apostol_chain(lam0, alpha0) -> _ProductChain:
    """The chain of the powers (2/(lam * e_a(t) + 1))^j, j = 0, 1, ..., at
    the point, that apostol_euler and the verifier's Euler weights read;
    made on first use.  Raises at lam = -1, so no chain is ever stored for
    it."""
    key = _point_key(lam0, alpha0)
    chain = _apostol_chains.get(key)
    if chain is None:
        if key[:2] == (-1, 1):
            raise SeriesDomainError("Apostol-Euler numbers need lam != -1")
        chain = _apostol_chains[key] = _ProductChain(
            _Reciprocal(lambda order: _euler_half(*key, order)))
    return chain


def apostol_euler(n: int, k: int, lam0, alpha0) -> Fraction:
    """Degenerate first-kind Apostol-Euler number E_n^(k)(lam|a): n! times
    coefficient n of (2/(lam * e_a(t) + 1))^k; needs lam != -1.  Kept on
    the point's chain once read: a repeated read returns the same
    Fraction."""
    if n < 0 or k < 0:
        raise ValueError("apostol_euler needs n, k >= 0")
    try:  # a Fraction point's key, read off its slots: the numerator and
        # denominator properties cost a Python call each
        chain = _apostol_chains[(lam0._numerator, lam0._denominator,
                                 alpha0._numerator, alpha0._denominator)]
    except (AttributeError, KeyError):  # another spelling, or a new point
        chain = _apostol_chain(lam0, alpha0)
    value = chain.values.get((n, k))
    if value is None:
        value = chain.read(n, k)
    return value
