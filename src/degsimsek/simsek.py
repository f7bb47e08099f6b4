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

E's kernel multiplies by the factor l*e^t + c - k*a with the constant term
c a parameter: route E reads it at c = 1, and the FUNC-EQ check of the
registry at c = 0, where it gives (l*e^t)_{k,a}.
"""

from __future__ import annotations

from fractions import Fraction
import math

from .algebra import (ParamPoly, TruncSeries, _combine, _lowest, _over,
                      _point_key)
from .classical import _ProductChain, _stirling1_row, bernoulli_number

_scaled_y1_store: dict[tuple[int, int], dict] = {}


def scaled_y1(n: int, k: int) -> dict:
    """k! y1(n,k) = sum_j C(k,j) j^n l^j (0^0 = 1) as integer terms
    {(j, 0): c} without zeros, for n, k >= 0.  Computed once per (n, k) and
    kept: do not mutate the result."""
    value = _scaled_y1_store.get((n, k))
    if value is None:
        value = _scaled_y1_store[(n, k)] = {
            (j, 0): math.comb(k, j) * j**n for j in range(k + 1) if j**n}
    return value


def simsek_y1(n: int, k: int) -> ParamPoly:
    """Simsek number y1(n,k) = (1/k!) sum_j C(k,j) j^n l^j, with 0^0 = 1."""
    if n < 0 or k < 0:
        return ParamPoly()
    return _over(scaled_y1(n, k), math.factorial(k))


def deg_simsek_y1(n: int, k: int) -> ParamPoly:
    """Degenerate Simsek number y1(n,k) of the log-compose family:
    (1/k!) sum_{m<=n} sum_{j<=k} C(k,j) j^m l^j a^(n-m) s(n,m)."""
    if n < 0 or k < 0:
        return ParamPoly()
    return _over({(j, n - m): math.comb(k, j) * j**m * s1
                  for m, s1 in enumerate(_stirling1_row(n))
                  for j in range(k + 1)}, math.factorial(k))


# ---------------------------------------------------------------------------
# The generating function F_k and the six y1star routes.
# ---------------------------------------------------------------------------

# k -> F_k at the highest order built so far, and (k, order) -> the series
# fk_series handed out for that order, so that a repeated read is one
# lookup: both go with the route-A store below, and emptying this dict
# empties both
_fk_cache: dict[int | tuple[int, int], TruncSeries] = {}
# (n, k) -> n! k! [t^n] F_k as integer terms, for every n up to the order
# each cached F_k was built at: keep it and _fk_cache emptied together
_route_a_store: dict[tuple[int, int], dict] = {}
# (p, q, r, s) -> the chain of (l e^t + 1)_{j,a} at lam = p/q, alpha = r/s
# in lowest terms; its values hold the series fk_series returned, by (order, k)
_fk_chains: dict[tuple[int, int, int, int], _ProductChain] = {}


def fk_series(k: int, order: int, lam=None, alpha=None) -> TruncSeries:
    """F_k(t) = (l*e^t + 1)_{k,a}/k! truncated at `order`; ValueError
    unless k, order >= 0, raised before any store, cache or chain is
    touched.

    Symbolic by default: a series with ParamPoly coefficients.  Pass
    rationals lam/alpha for a rational series, built from the row of the
    point's chain in _fk_chains.  A symbolic F_k is built once per order
    rise and kept.  A build forms the product
    P = (l*e^t + 1)_{k,a} with `_route_a_product`, as Fraction terms, and
    publishes n! [t^n] P = n! k! [t^n] F_k for every n <= order into the
    route-A store as integer terms, skipping the (n, k) already held, so
    route A only ever reads that store.  Coefficient n of the series
    returned is that stored value over n! k! (`_over`).  The first
    read of (k, order), at a point written any way, is kept too, and later
    reads return the same object, so do not mutate the result.
    """
    if (lam is None) != (alpha is None):
        raise ValueError("fk_series: give both lam and alpha or neither")
    if lam is None:
        key = (k, order)
        series = _fk_cache.get(key)
        if series is not None:
            return series
        cached = _fk_cache.get(k)
        if cached is not None and cached.order >= order:
            series = _fk_cache[key] = cached.truncate(order)
            return series
        if k < 0 or order < 0:
            raise ValueError("fk_series needs k, order >= 0")
        coeffs = []
        k_fact = math.factorial(k)
        n_fact = 1
        for n, c in enumerate(_route_a_product(k, order)):
            terms = _route_a_store.get((n, k))
            if terms is None:
                terms = _route_a_store[(n, k)] = _int_terms(c, n_fact)
            coeffs.append(_over(terms, n_fact * k_fact))
            n_fact *= n + 1
        series = TruncSeries("t", order, coeffs)
        _fk_cache[k] = _fk_cache[key] = series
        return series
    if k < 0 or order < 0:  # before a chain is made for the point
        raise ValueError("fk_series needs k, order >= 0")
    key = _point_key(lam, alpha)
    chain = _fk_chains.get(key) or _fk_chains.setdefault(key, _ProductChain(
        lambda top: _lam_exp_plus_one(*key[:2], top), Fraction(*key[2:])))
    series = chain.values.get((order, k))
    if series is None:
        nums, den = chain.product(k, order)
        den *= math.factorial(k)
        series = chain.values[(order, k)] = TruncSeries(
            "t", order, [Fraction(c, den) for c in nums[:order + 1]])
    return series


def _route_a_product(k: int, order: int) -> list[dict]:
    """The coefficients 0..order of (l*e^t + 1)_{k,a}, the product of the
    factors l*e^t + 1 - j*a for j < k, multiplied one factor at a time as
    lists of Fraction terms {(deg_l, deg_a): nonzero Fraction}: coefficient
    m of each step is one _pp_dot."""
    lam_exp = [{(1, 0): Fraction(1, math.factorial(m))}
               for m in range(1, order + 1)]
    product = [{(0, 0): Fraction(1)}] + [{}] * order
    for j in range(k):
        # l + 1 - j*a, with no zero a-term at j = 0
        factor = [{key: Fraction(c) for key, c in
                   (((1, 0), 1), ((0, 0), 1), ((0, 1), -j)) if c}, *lam_exp]
        product = [_pp_dot(product[:m + 1], factor[m::-1])
                   for m in range(order + 1)]
    return product


def _pp_dot(left: list, right: list) -> dict:
    """sum_r left[r] * right[r] for lists of Fraction terms: coefficient m
    of the truncated product of coefficient lists a and b is
    _pp_dot(a[:m+1], b[m::-1]).  Every term product c1*c2 is added to the
    key of its (l, a) degrees in one dict, and the terms that cancelled
    are dropped at the end."""
    out = {}
    for a, b in zip(left, right):
        right_terms = b.items()
        for (i1, j1), c1 in a.items():
            for (i2, j2), c2 in right_terms:
                key = (i1 + i2, j1 + j2)
                if key in out:
                    out[key] += c1 * c2
                else:
                    out[key] = c1 * c2
    return {key: c for key, c in out.items() if c}


def _int_terms(terms: dict, scale: int) -> dict:
    """scale * terms for Fraction terms, as integer terms; ValueError unless
    that is integral.  Route A scales coefficient n of (l*e^t + 1)_{k,a} by
    n! once, when F_k first reaches order n."""
    out = {}
    for key, c in terms.items():
        q, r = divmod(c.numerator * scale, c.denominator)
        if r:
            raise ValueError(
                f"{scale} * ({ParamPoly(terms).render()}) is not integral")
        out[key] = q
    return out


def _lam_exp_plus_one(p: int, q: int,
                      order: int) -> tuple[tuple[int, ...], int]:
    """The row of lam e^t + 1 at lam = p/q: p N!/m!, plus q N! at m = 0,
    over q N! at order N."""
    top = math.factorial(order)
    nums = [p * (top // math.factorial(m)) for m in range(order + 1)]
    nums[0] += q * top
    return _lowest(nums, q * top)


# Each route's core gives Y(n,k) = k! y*(n,k) as integer terms
# {(deg_l, deg_a): c} of Z[l,a] without zeros: routes B, C and D and the
# recurrences E and F are integer computations at that scale, and route A's
# coefficient is converted to it exactly.  y1star divides by k! once.


def _route_a(n: int, k: int) -> dict:
    """n! k! [t^n] F_k from the route-A store; a miss builds F_k to order
    n, which publishes it."""
    terms = _route_a_store.get((n, k))
    if terms is None:
        fk_series(k, n)
        terms = _route_a_store[(n, k)]
    return terms


def _route_b(n: int, k: int) -> dict:
    powers = [j**n for j in range(k + 1)]
    terms: dict[tuple[int, int], int] = {}
    for l, s1 in enumerate(_stirling1_row(k)):
        for j in range(l + 1):
            c = math.comb(l, j) * s1 * powers[j]
            if c:
                terms[(j, k - l)] = c  # one term per (j, l)
    return terms


def _route_c(n: int, k: int) -> dict:
    # (1)_{k-l,a} here follows the derivation (step parameter a); the
    # printed step-j variant is exercised separately by the verifier.
    # (1)_{m,a} = sum_j s(m,j) a^(m-j), so the reversed row s(m, m..0)
    # lists its integer coefficients of a^0, a^1, ...
    powers = [j**n for j in range(k + 1)]
    terms: dict[tuple[int, int], int] = {}
    for l in range(k + 1):
        ones = _stirling1_row(k - l)[::-1]
        s1 = _stirling1_row(l)
        for j in range(l + 1):
            c = math.comb(k, l) * s1[j] * powers[j]
            for e, f in enumerate(ones):
                if c * f:
                    key = (j, l - j + e)
                    terms[key] = terms.get(key, 0) + c * f
    return {key: c for key, c in terms.items() if c}


def _route_c_printed(n: int, k: int) -> dict:
    # one term per (l, j): the step-j factor (1)_{k-l,j} is an integer
    powers = [j**n for j in range(k + 1)]
    return {(j, l - j): c for l in range(k + 1)
            for j, s1 in enumerate(_stirling1_row(l))
            if (c := math.comb(k, l) * s1 * powers[j]
                * math.prod(1 - i * j for i in range(k - l)))}


_route_d_weights: dict[int, list[int]] = {}


def _route_d_weight_row(k: int) -> list[int]:
    """The n-free weights C(k,j) (j/k) B_{k-j}^(k) for j = 1..k, as
    integers, built once per k.  They are the integers s(k,j), since
    s(k,j) = C(k-1,j-1) B_{k-j}^(k); the j = 0 term carries j/k = 0."""
    row = _route_d_weights.get(k)
    if row is None:
        row = []
        for j in range(1, k + 1):
            w = math.comb(k, j) * Fraction(j, k) * bernoulli_number(k - j, k)
            if w.denominator != 1:
                raise ValueError(
                    f"route D weight ({k},{j}) = {w} is not integral")
            row.append(w.numerator)
        _route_d_weights[k] = row
    return row


def _route_d(n: int, k: int) -> dict:
    if k == 0:
        return {(0, 0): 1} if n == 0 else {}
    powers = [i**n for i in range(k + 1)]
    terms = {}
    for j, w in enumerate(_route_d_weight_row(k), 1):
        for i in range(j + 1):
            c = w * math.comb(j, i) * powers[i]
            if c:
                terms[(i, k - j)] = c
    return terms


class _Triangle:
    """Grow-only (n,k)-triangle filled by an integer recurrence: a cell holds
    integer terms, Y(n,k) = k! y*(n,k) for routes E and F."""

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


def _fill_k_recurrence(cells, n_max, k_max, c=1):
    """E: Y(n,k+1) = l sum_i C(n,i) Y(i,k) + (c - k a) Y(n,k), so that a
    cell holds n! [t^n] (l e^t + c)_{k,a}: route E's Y(n,k) at c = 1, and
    at c = 0 the left side of FUNC-EQ, (l e^t)_{k,a}."""
    for n in range(n_max + 1):
        cells[(n, 0)] = {(0, 0): 1} if n == 0 else {}
    for k in range(k_max):
        for n in range(n_max + 1):
            if (n, k + 1) in cells:
                continue
            y = cells[(n, k)]
            cells[(n, k + 1)] = _combine(
                [(cells[(i, k)], math.comb(n, i), 1, 0) for i in range(n + 1)]
                + [(y, c, 0, 0), (y, -k, 0, 1)])


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

# route -> core, each looked up when it runs, so that a wrapper installed
# on a module-level name (a tracer, a test double) sees every call
_CORES = {
    "A": lambda n, k: _route_a(n, k),
    "B": lambda n, k: _route_b(n, k),
    "C": lambda n, k: _route_c(n, k),
    "D": lambda n, k: _route_d(n, k),
    "E": lambda n, k: _triangle_e.get(n, k),
    "F": lambda n, k: _triangle_f.get(n, k),
}
ROUTES = tuple(_CORES)


def scaled_y1star(n: int, k: int, route: str = "A") -> dict:
    """Y(n,k) = k! y1star(n,k) by the chosen route, as integer terms
    {(deg_l, deg_a): c} of Z[l,a] without zeros.  Do not mutate the result:
    route A hands out its store's values, routes E and F their triangles'
    cells."""
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}; expected one of {ROUTES}")
    if n < 0 or k < 0:
        return {}
    return _CORES[route](n, k)


# Every y1star value read so far, by (n, k, route); it only grows.
_y1star_store: dict[tuple[int, int, str], ParamPoly] = {}


def y1star(n: int, k: int, route: str = "A") -> ParamPoly:
    """New-type degenerate Simsek number y1star(n,k) by the chosen route.

    All six routes return identical polynomials in (l, a); route A is the
    definition, the others exist to be checked against it.  The first read
    of (n, k, route) divides that route's scaled_y1star by k! (route A's
    from the store the symbolic checks read) and keeps it; later reads
    return the same object, so do not mutate the result.
    """
    key = (n, k, route)
    value = _y1star_store.get(key)
    if value is None:
        # scaled_y1star checks the route, and gives {} for a negative index
        value = _y1star_store[key] = _over(scaled_y1star(n, k, route),
                                           math.factorial(max(k, 0)))
    return value
