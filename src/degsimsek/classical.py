"""Classical special-number families: Stirling numbers of both kinds and
higher-order Bernoulli numbers, with the grow-only chains of degenerate
falling-factorial products of a series that the number families read.

Every Stirling-type triangle of the package, here, in `degenerate` and at
a `phi` point, grows row by row through `_grow_rows` by its recurrence
T(m+1, j) = T(m, j-1) + w(m, j) T(m, j), with its own weight w (j for S2,
-m for s); the generating-function route is kept in the test suite as an
independent cross-check, not here.  The Bernoulli powers, like the
rational S2* and the Apostol-Euler numbers of `degenerate` and F_k at a
point in `simsek`, are read from grow-only product chains, which sum
series as integer rows and build a number or a series only to return it.
Caches only ever grow and hold immutable values.
"""

from __future__ import annotations

from fractions import Fraction
import math
from operator import mul

from .algebra import TruncSeries, _lowest, _reciprocal

# Row r of each triangle holds the values for n = r, k = 0..r.
_S2_ROWS: list[list[int]] = [[1]]
_S1_ROWS: list[list[int]] = [[1]]


def _grow_rows(rows: list, n: int, zero, step, *args) -> list:
    """Append rows to the triangle `rows` (row m holds T(m, 0..m)) until it
    holds row n, each by T(m+1, j) = step(T(m, j-1), T(m, j), m, j, *args),
    with T(m, -1) = T(m, m+1) = zero; returns `rows`."""
    for m in range(len(rows) - 1, n):
        prev = [zero, *rows[m], zero]
        rows.append([step(prev[j], prev[j + 1], m, j, *args)
                     for j in range(m + 2)])
    return rows


def _s2_step(left: int, above: int, m: int, j: int) -> int:
    return left + j * above


def _s1_step(left: int, above: int, m: int, j: int) -> int:
    return left - m * above


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind: partitions of an n-set into k
    non-empty blocks.  Out-of-range indices give 0."""
    if n < 0 or k < 0 or k > n:
        return 0
    if len(_S2_ROWS) <= n:
        _grow_rows(_S2_ROWS, n, 0, _s2_step)
    return _S2_ROWS[n][k]


def stirling1(n: int, k: int) -> int:
    """Signed Stirling number of the first kind: the coefficient of x^k in
    the falling factorial x(x-1)...(x-n+1)."""
    if n < 0 or k < 0 or k > n:
        return 0
    return _stirling1_row(n)[k]


def _stirling1_row(n: int) -> list[int]:
    """The signed Stirling numbers s(n, 0..n), for n >= 0: the memoized
    row itself, so do not mutate it."""
    if len(_S1_ROWS) <= n:
        _grow_rows(_S1_ROWS, n, 0, _s1_step)
    return _S1_ROWS[n]


class _ProductChain:
    """Grow-only chain of the products P_j = x(x - a)(x - 2a)...(x - (j-1)a)
    of a series x, all held at one truncation order as integer rows
    (nums, den) in lowest terms (`algebra._lowest`): P_0 = 1 and
    P_{j+1} = P_j * (x - j a), the degenerate falling factorials (x)_{j,a}
    of the series x; at a = 0 they are the powers of x.  `base(order)`
    gives the row of x at a truncation order.

    The chain only extends.  A read at a higher order than the chain's
    extends every product held by its coefficients above the old order; a
    read of a longer product appends products, each extended from nothing.
    Extending every product at once, not only P_0..P_j, keeps the work of
    an order step in the one read that crosses it: left to the later reads
    of each product, it puts more of them in the slow tail.
    The factor x - j a differs from x only in its constant term, so
    coefficient m of P_{j+1} is sum_r P_j[r] x[m-r] - j a P_j[m]: a step of
    one order costs one such sum per product, not a series product, and
    the sums run on the integer numerators.  The state (order, x,
    products) is one tuple replaced whole, so a reader in another thread
    sees an older chain or a newer one, never a mix of the two.

    `values` maps (n, k) to the number `read` returned for it (on an F_k
    chain of `simsek`, (order, k) to the series fk_series returned), stored
    once built, so that a repeated read is one lookup that returns the
    same object."""

    __slots__ = ("base", "step", "state", "values")

    def __init__(self, base, step=0):
        self.base = base
        self.step = step
        self.state = (-1, None, ())
        self.values: dict[tuple[int, int], Fraction | TruncSeries] = {}

    def product(self, j: int, order: int) -> tuple[tuple[int, ...], int]:
        """The row of P_j at `order` or above: its coefficients 0..order
        are those of P_j at `order`."""
        chain_order, x, products = self.state
        if len(products) > j and chain_order >= order:
            return products[j]
        if order > chain_order:
            chain_order, x = order, self.base(order)
        grown = []
        for i in range(max(j + 1, len(products))):
            held = products[i] if i < len(products) else None
            if held is None or len(held[0]) <= chain_order:
                held = (_extend_qq(held, grown[i - 1], x, self.step, i - 1)
                        if i else ((1,) + (0,) * chain_order, 1))
            grown.append(held)
        self.state = (chain_order, x, tuple(grown))
        return grown[j]

    def read(self, n: int, k: int, divisor: int = 1) -> Fraction:
        """n! [t^n] P_k / divisor, kept in `values` under (n, k): the miss
        path of each reader, which looks (n, k) up there first."""
        nums, den = self.product(k, n)
        value = self.values[(n, k)] = Fraction(
            nums[n] * math.factorial(n), den * divisor)
        return value


def _extend_qq(old, prev: tuple, x: tuple, step, i: int) -> tuple:
    """The row of prev * (x - i step) at x's order, summed in integers:
    with prev = a/da, x = xs/dx and i step = p/q, coefficient m is
    (q sum_r a[r] xs[m-r] - p dx a[m]) / (da dx q).  The coefficients of
    `old`, the row of the product at a lower order (or None), are kept, so
    only the ones above its order are summed."""
    (a, da), (xs, dx) = prev, x
    p, q = i * step.numerator, step.denominator
    den = da * dx * q
    if old is None:
        nums = []
    else:
        scale = den // old[1]
        nums = [c * scale for c in old[0]]
    shift = p * dx
    for m in range(len(nums), len(xs)):
        nums.append(q * sum(map(mul, a[:m + 1], xs[m::-1])) - shift * a[m])
    return _lowest(nums, den)


class _Reciprocal:
    """The base 1/y of a product chain, for `y(order)` the row of a series
    at any order.  A higher order extends the row held by its new
    coefficients (`algebra._reciprocal`); like a chain's state it is
    replaced whole, and a lower order is read from it in lowest terms."""

    __slots__ = ("y", "held")

    def __init__(self, y):
        self.y = y
        self.held = None

    def __call__(self, order: int) -> tuple[tuple[int, ...], int]:
        held = self.held
        if held is None or len(held[0]) <= order:
            held = self.held = _reciprocal(*self.y(order), held)
        return _lowest(held[0][:order + 1], held[1])


# ---------------------------------------------------------------------------
# Higher-order Bernoulli numbers B_n^(k):
#   (t/(e^t-1))^k = sum_n B_n^(k) t^n/n!
# ---------------------------------------------------------------------------

def _bernoulli_inner(order: int) -> tuple[tuple[int, ...], int]:
    """The row of (e^t - 1)/t = sum_m t^m/(m+1)!, over the one denominator
    (order+1)!."""
    top = math.factorial(order + 1)
    return _lowest([top // math.factorial(m + 1) for m in range(order + 1)],
                   top)


# t/(e^t - 1)
_bernoulli_base = _Reciprocal(_bernoulli_inner)

# the powers (t/(e^t-1))^k, k = 0, 1, ...
_bernoulli_powers = _ProductChain(_bernoulli_base)


def bernoulli_number(n: int, k: int) -> Fraction:
    """Bernoulli number of order k: n! times coefficient n of (t/(e^t-1))^k.
    Kept on the chain once read: a repeated read returns the same
    Fraction."""
    chain = _bernoulli_powers
    value = chain.values.get((n, k))
    if value is None:
        if n < 0 or k < 0:
            raise ValueError("bernoulli_number needs n, k >= 0")
        value = chain.read(n, k)
    return value
