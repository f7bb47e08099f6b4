"""Simsek number families.

Three families live here, all polynomial in the parameters l (lambda) and
a (alpha):

  * y1(n,k)      -- coefficients of (l*e^t + 1)^k / k!
  * y1deg(n,k)   -- the older degenerate family, coefficients of
                    (l*(1+a*t)^(1/a) + 1)^k / k!
  * y1star(n,k)  -- the new-type degenerate family, coefficients of
                    F_k(t) = (l*e^t + 1)_{k,a} / k!

y1star is computable by six independent routes (A-F below) which must agree
exactly; route A (series extraction from F_k) is the defining one, the rest
are verification surfaces:

  A  n! [t^n] (l*e^t+1)_{k,a}/k!
  B  (1/k!) sum_{l<=k} sum_{j<=l} C(l,j) a^(k-l) s(k,l) l^j j^n
  C  (1/k!) sum_{l<=k} sum_{j<=l} C(k,l) a^(l-j) l^j j^n (1)_{k-l,a} s(l,j)
  D  (1/k!) sum_{j<=k} a^(k-j) C(k,j) (j/k) B_{k-j}^(k) sum_{i<=j} C(j,i) l^i i^n
  E  recurrence in k:  (k+1) y*(n,k+1) = l sum_i C(n,i) y*(i,k) + (1-k*a) y*(n,k)
  F  recurrence in n:  y*(n+1,k) = (l/k) sum_j C(n,j) (y*(j,k-1)+y*(j+1,k-1))
                                   + ((1+a-k*a)/k) y*(n+1,k-1)
     seeded with column y*(n,0) = [n=0] and row y*(0,k) = (l+1)_{k,a}/k!

(s is the signed Stirling-1 triangle, B the higher-order Bernoulli numbers,
and the convention 0^0 = 1 applies in every j^n sum.)
"""

from __future__ import annotations

from fractions import Fraction
import math

from .algebra import (PP, QQ, ParamPoly, TruncSeries, _combine, _int_terms,
                      _over, exp_t)
from .classical import (bernoulli_number, bernoulli_poly, degenerate_falling,
                        stirling1)

_L = ParamPoly.lam()
_A = ParamPoly.alpha()

ROUTES = ("A", "B", "C", "D", "E", "F")


def simsek_y1(n: int, k: int) -> ParamPoly:
    """Simsek number y1(n,k) = (1/k!) sum_j C(k,j) j^n l^j, with 0^0 = 1."""
    if n < 0 or k < 0:
        return ParamPoly()
    inv = Fraction(1, math.factorial(k))
    out = ParamPoly()
    for j in range(k + 1):
        c = inv * math.comb(k, j) * j**n
        if c:
            out = out + ParamPoly.term(c, j, 0)
    return out


def simsek_y1_via_gf(n: int, k: int) -> ParamPoly:
    """Independent route for y1: n! [t^n] (l*e^t+1)^k / k!."""
    base = exp_t(n, PP) * _L + 1
    series = base**k
    return series.coeffs[n] * Fraction(math.factorial(n), math.factorial(k))


def deg_simsek_y1(n: int, k: int) -> ParamPoly:
    """Degenerate Simsek number y1(n,k) of the log-compose family:
    (1/k!) sum_{m<=n} sum_{j<=k} C(k,j) j^m l^j a^(n-m) s(n,m)."""
    if n < 0 or k < 0:
        return ParamPoly()
    inv = Fraction(1, math.factorial(k))
    out = ParamPoly()
    for m in range(n + 1):
        s1 = stirling1(n, m)
        if s1 == 0:
            continue
        for j in range(k + 1):
            c = inv * math.comb(k, j) * j**m * s1
            if c:
                out = out + ParamPoly.term(c, j, n - m)
    return out


def deg_simsek_y1_alt(n: int, k: int) -> ParamPoly:
    """Second route for the same family:
    (1/k!) sum_j C(k,j) l^j (j)_{n,a}, the a^n (j/a)_n product read as the
    polynomial prod_{i<n} (j - i*a)."""
    if n < 0 or k < 0:
        return ParamPoly()
    inv = Fraction(1, math.factorial(k))
    out = ParamPoly()
    for j in range(k + 1):
        prod = degenerate_falling(ParamPoly.const(j), n, _A)
        out = out + prod * ParamPoly.term(inv * math.comb(k, j), j, 0)
    return out


# ---------------------------------------------------------------------------
# The generating function F_k and the six y1star routes.
# ---------------------------------------------------------------------------

_fk_cache: dict[int, TruncSeries] = {}


def fk_series(k: int, order: int, lam=None, alpha=None) -> TruncSeries:
    """F_k(t) = (l*e^t + 1)_{k,a}/k! truncated at `order`.

    Symbolic over ParamPoly by default; pass rationals lam/alpha for a
    specialized series over plain fractions.
    """
    if (lam is None) != (alpha is None):
        raise ValueError("fk_series: give both lam and alpha or neither")
    if lam is None:
        cached = _fk_cache.get(k)
        if cached is not None and cached.order >= order:
            return cached.truncate(order)
        base = exp_t(order, PP) * _L + 1
        series = degenerate_falling(base, k, _A) * Fraction(1, math.factorial(k))
        _fk_cache[k] = series
        return series
    lam = Fraction(lam)
    alpha = Fraction(alpha)
    base = exp_t(order, QQ) * lam + 1
    return degenerate_falling(base, k, alpha) * Fraction(1, math.factorial(k))


def fk_series_via_bernoulli(k: int, order: int, lam, alpha) -> TruncSeries:
    """Cross-check representation of F_k at a rational point with alpha != 0:
    (a^k/k!) * B_k^(k+1)((l*e^t+1)/a + 1), using the order-(k+1) Bernoulli
    polynomial evaluated at a series argument."""
    lam = Fraction(lam)
    alpha = Fraction(alpha)
    if alpha == 0:
        raise ValueError("the Bernoulli representation needs alpha != 0")
    x = (exp_t(order, QQ) * lam + 1) * (1 / alpha) + 1
    poly = bernoulli_poly(k, k + 1, x)
    return poly * Fraction(alpha**k, math.factorial(k))


# Each route's core gives Y(n,k) = k! y*(n,k) as integer terms
# {(deg_l, deg_a): c} of Z[l,a] without zeros: routes B, C and D and the
# recurrences E and F are integer computations at that scale, and route A's
# coefficient is converted to it exactly.  y1star divides by k! once.

def _route_b(n: int, k: int) -> dict:
    terms: dict[tuple[int, int], int] = {}
    for l in range(k + 1):
        s1 = stirling1(k, l)
        for j in range(l + 1):
            c = math.comb(l, j) * s1 * j**n
            if c:
                terms[(j, k - l)] = c  # one term per (j, l)
    return terms


def _route_c(n: int, k: int) -> dict:
    # (1)_{k-l,a} here follows the derivation (step parameter a); the
    # printed step-j variant is exercised separately by the verifier.
    # falling[m] lists the integer coefficients of a^0, a^1, ... in
    # (1)_{m,a}, one factor (1 - m a) more each
    falling = [[1]]
    for m in range(k):
        prev = falling[m]
        falling.append([c - m * p for c, p in zip(prev + [0], [0] + prev)])
    terms: dict[tuple[int, int], int] = {}
    for l in range(k + 1):
        ones = falling[k - l]
        for j in range(l + 1):
            c = math.comb(k, l) * stirling1(l, j) * j**n
            for e, f in enumerate(ones):
                if c * f:
                    key = (j, l - j + e)
                    terms[key] = terms.get(key, 0) + c * f
    return {key: c for key, c in terms.items() if c}


def _route_c_printed(n: int, k: int) -> dict:
    # one term per (l, j): the step-j factor (1)_{k-l,j} is an integer
    return {(j, l - j): c for l in range(k + 1) for j in range(l + 1)
            if (c := math.comb(k, l) * stirling1(l, j) * j**n
                * math.prod(1 - i * j for i in range(k - l)))}


def route_c_printed(n: int, k: int) -> ParamPoly:
    """The step-j reading (1)_{k-l,j} of route C as printed, which disagrees
    with the other routes (the verifier compares its integer terms)."""
    return _over(_route_c_printed(n, k), math.factorial(k))


def _route_d(n: int, k: int) -> dict:
    if k == 0:
        return {(0, 0): 1} if n == 0 else {}
    # the weights C(k,j) (j/k) B_{k-j}^(k) are the integers s(k,j), since
    # s(k,j) = C(k-1,j-1) B_{k-j}^(k); the j = 0 term carries j/k = 0
    terms = {}
    for j in range(1, k + 1):
        w = math.comb(k, j) * Fraction(j, k) * bernoulli_number(k - j, k)
        if w.denominator != 1:
            raise ValueError(f"route D weight ({k},{j}) = {w} is not integral")
        for i in range(j + 1):
            c = w.numerator * math.comb(j, i) * i**n
            if c:
                terms[(i, k - j)] = c
    return terms


class _Triangle:
    """Grow-only (n,k)-triangle filled by an integer recurrence: a cell holds
    Y(n,k) = k! y*(n,k) as integer terms."""

    def __init__(self, fill):
        self.cells: dict[tuple[int, int], dict] = {}
        self.n_max = -1
        self.k_max = -1
        self._fill = fill

    def get(self, n: int, k: int) -> dict:
        if n > self.n_max or k > self.k_max:
            self.n_max = max(n, self.n_max)
            self.k_max = max(k, self.k_max)
            self._fill(self.cells, self.n_max, self.k_max)
        return self.cells[(n, k)]


def _fill_k_recurrence(cells, n_max, k_max):
    """E: Y(n,k+1) = l sum_i C(n,i) Y(i,k) + (1 - k a) Y(n,k)."""
    for n in range(n_max + 1):
        cells[(n, 0)] = {(0, 0): 1} if n == 0 else {}
    for k in range(k_max):
        for n in range(n_max + 1):
            if (n, k + 1) in cells:
                continue
            y = cells[(n, k)]
            cells[(n, k + 1)] = _combine(
                [(cells[(i, k)], math.comb(n, i), 1, 0) for i in range(n + 1)]
                + [(y, 1, 0, 0), (y, -k, 0, 1)])


def _fill_n_recurrence(cells, n_max, k_max):
    """F: Y(n+1,k) = l sum_j C(n,j) (Y(j,k-1) + Y(j+1,k-1))
                     + (1 + a - k a) Y(n+1,k-1),
    with the row Y(0,k) = (l+1)_{k,a} grown a factor (l + 1 - (k-1) a) at
    a time."""
    for n in range(n_max + 1):
        cells[(n, 0)] = {(0, 0): 1} if n == 0 else {}
    for k in range(1, k_max + 1):
        if (0, k) not in cells:
            row = cells[(0, k - 1)]
            cells[(0, k)] = _combine([(row, 1, 1, 0), (row, 1, 0, 0),
                                      (row, 1 - k, 0, 1)])
        for n in range(n_max):
            if (n + 1, k) in cells:
                continue
            parts = []
            for j in range(n + 1):
                c = math.comb(n, j)
                parts += [(cells[(j, k - 1)], c, 1, 0),
                          (cells[(j + 1, k - 1)], c, 1, 0)]
            y = cells[(n + 1, k - 1)]
            cells[(n + 1, k)] = _combine(parts + [(y, 1, 0, 0),
                                                  (y, 1 - k, 0, 1)])


_triangle_e = _Triangle(_fill_k_recurrence)
_triangle_f = _Triangle(_fill_n_recurrence)


def scaled_y1star(n: int, k: int, route: str = "A") -> dict:
    """Y(n,k) = k! y1star(n,k) by the chosen route, as integer terms
    {(deg_l, deg_a): c} of Z[l,a] without zeros.  Do not mutate the result:
    routes E and F hand out their triangles' cells."""
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}; expected one of {ROUTES}")
    if n < 0 or k < 0:
        return {}
    if route == "A":
        return _int_terms(fk_series(k, n).coeffs[n],
                          math.factorial(n) * math.factorial(k))
    if route == "B":
        return _route_b(n, k)
    if route == "C":
        return _route_c(n, k)
    if route == "D":
        return _route_d(n, k)
    if route == "E":
        return _triangle_e.get(n, k)
    return _triangle_f.get(n, k)


def y1star(n: int, k: int, route: str = "A") -> ParamPoly:
    """New-type degenerate Simsek number y1star(n,k) by the chosen route.

    All six routes return identical polynomials in (l, a); route A is the
    definition, the others exist to be checked against it.
    """
    if route == "A" and n >= 0 and k >= 0:
        return fk_series(k, n).coeffs[n] * math.factorial(n)
    # scaled_y1star checks the route, and gives {} for a negative index
    return _over(scaled_y1star(n, k, route), math.factorial(max(k, 0)))
