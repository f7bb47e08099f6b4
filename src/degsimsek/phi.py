"""The row generating function phi_n(x) = sum_k y1star(n,k) x^k and the
mechanical checks of its seven identities.

Every check runs at a rational parameter point (lam0, alpha0): the factors
log(1+a*x)/a, 1/(1+a*x), and the Apostol-Euler weights are not polynomial
in the parameters, so rational substitution is what keeps the comparisons
exact.  Where an identity divides by (1+a*x), the check multiplies through
instead so both sides stay polynomial.

The checks compare in integers.  At lam = p/q and alpha = r/s put
D = q*s and x = D*u.  Then phi_n(x) = sum_k Phi_n[k] u^k/k! with the
integer Phi_n[k] = k! D^k y1star(n,k), and every factor the identities use
is an integer EGF in u as well (entry m is m! times the coefficient of
u^m; c = r*q):

    (l/a) log(1+a*x)           p s (-c)^(m-1) (m-1)!
    (log(1+a*x)/a)^k / k!      D^k s(m,k) c^(m-k)     (signed Stirling)
    (x/(1+a*x))^k / (k! D^k)   L(m,k) (-c)^(m-k)      (Lah numbers)
    1 + a*x                    [1, c]
    d/dx                       entries shifted down by one, over D
    integral dx                entries shifted up by one, times D
    e_a^(l*e^t+1)(x)           entry k: k! D^k F_k(t) = D^k (l*e^t+1)_{k,a},
                               an integer EGF in t, from fk_series

A product of two series is the binomial convolution of their entries.
Each check scales both sides by one integer, so that both are integer
lists, and yields them entry by entry for the registry to compare.  The
Euler weight rows are integers over one denominator each, and a Fraction
is built only to write a mismatch: entry d of den times a side stands for
the coefficient value/(d! D^d den) of x^d.

The integral identity is special: its stated form relies on an
antiderivative of e_a^c(y) with divisor c, while direct differentiation
gives divisor c+a, so the identity is exact only at a=0.  At a != 0 its
entry reports the (deterministic) first mismatch as "expected-discrepancy",
and a corrected-divisor variant (divisor c+a) is checked alongside, clearly
labeled as derived here rather than part of the stated formula family.

Each check takes the PointContext of its point first: it holds the point
and the values the checks share there, each computed once on first use.
"""

from __future__ import annotations

from fractions import Fraction
import math

from .algebra import TruncSeries, _point_rows, _reciprocal
from .classical import _grow_rows, stirling2
from .degenerate import _apostol_chain, _euler_half, _s2star_chain
from .simsek import fk_series, scaled_y1, scaled_y1star, y1star


# (n, p, q, r, s, order) -> the phi_n row phi_series returned at the point
# lam = p/q, alpha = r/s, keyed in lowest terms as ParamPoly.evaluate's
# memo is; it only grows
_phi_rows: dict[tuple[int, int, int, int, int, int], TruncSeries] = {}


def phi_series(n: int, lam0, alpha0, order: int) -> TruncSeries:
    """phi_n at a rational point, as a truncated series in x of the given
    order; coefficient k is y1star(n,k) evaluated at the point.  The first
    read of (n, point, order) is kept, and later reads, with the point
    written any way, return the same object, so do not mutate it."""
    try:  # read off a Fraction's slots, as apostol_euler reads its point
        key = (n, lam0._numerator, lam0._denominator,
               alpha0._numerator, alpha0._denominator, order)
    except AttributeError:  # an int, a float or a string: read it exactly
        return phi_series(n, Fraction(lam0), Fraction(alpha0), order)
    row = _phi_rows.get(key)
    if row is None:
        coeffs = [y1star(n, k).evaluate(lam0, alpha0)
                  for k in range(order + 1)]
        row = _phi_rows[key] = TruncSeries("x", order, coeffs)
    return row


# ---------------------------------------------------------------------------
# Integer EGFs: coefficient lists whose entry m is m! times the coefficient
# of u^m.
# ---------------------------------------------------------------------------

def _conv(a: list[int], b: list[int], order: int) -> list[int]:
    """The product of the EGFs a and b to the given order: entry m is
    sum_j C(m,j) a[j] b[m-j]."""
    out = [0] * (order + 1)
    right = [(j, v) for j, v in enumerate(b[:order + 1]) if v]
    for i, w in enumerate(a[:order + 1]):
        if not w:
            continue
        for j, v in right:
            if i + j > order:
                break
            out[i + j] += math.comb(i + j, i) * w * v
    return out


def _sum_rows(parts, order: int) -> list[int]:
    """sum of c * row over the (c, row) parts, entries 0..order."""
    out = [0] * (order + 1)
    for c, row in parts:
        if c:
            out = [o + c * v for o, v in zip(out, row)]
    return out


def _entries(values: tuple, lhs, rhs, den: int = 1,
             template: str = "n={};x^{}"):
    """The (where, lhs, rhs) triples of den times two sides as integer EGFs
    in u, entry by entry: where = (template, values + (d,), d, den) for
    entry d."""
    return (((template, (*values, d), d, den), a, b)
            for d, (a, b) in enumerate(zip(lhs, rhs)))


# ---------------------------------------------------------------------------
# The values shared by the checks at one point.
# ---------------------------------------------------------------------------

def _point_step(left: int, above: int, m: int, k: int, c: int,
                lah: bool) -> int:
    """The step of PointContext.triangle: weight -(m+k) c for the Lah
    triangle, -m c for the log one."""
    return left - (m + k if lah else m) * c * above


class PointContext:
    """Everything the rational checks read at one point lam = p/q,
    alpha = r/s, each value computed on first use and kept, in integers:
    the rows of phi_n, one grow-only row per n that every read shares,
    and of sum_k y1(n,k) x^k as integer EGFs in u = x/(q s), the
    triangles of the powers of log(1+alpha*x)/alpha and of
    x/(1+alpha*x) in u, the PHI-FT blocks, the Apostol-Euler and
    corrected Euler weight rows over one denominator each, the
    S2*(n, j | alpha/lam) table and the REL-S2STAR weights; x_coeff turns
    an entry of an integer EGF back into the Fraction coefficient of x^d,
    and describe writes a mismatch with it.
    The values are read from simsek.scaled_y1star (route A) and
    simsek.scaled_y1, the integer terms of k! y1star(n,k) and of k! y1(n,k)
    that every point of a suite shares; the S2* table and the Apostol-Euler
    row from the chains new_deg_stirling2 and apostol_euler keep.
    Not locked: keep a context on one thread.
    """

    def __init__(self, lam0, alpha0):
        self.lam = Fraction(lam0)
        self.alpha = Fraction(alpha0)
        p, q = self.lam.numerator, self.lam.denominator
        r, s = self.alpha.numerator, self.alpha.denominator
        self._point = (p, q, r, s)
        self.qs = q * s     # D: x = D u
        self.ps = p * s     # lam D
        self.rq = r * q     # alpha D
        self._phi: dict[int, list[int]] = {}
        self._triangles = {"log": [[1]], "lah": [[1]]}
        self._rows: dict[tuple[str, int], tuple[list[int], int]] = {}
        self._ft_blocks: dict[tuple[int, int, int], list[int]] = {}
        self._s2star = None
        self._s2star_weights: dict[int, tuple[list[int], int]] = {}

    def _numerator(self, terms: dict, k: int) -> int:
        """k! D^k times terms / k! at the point, for integer terms of degree
        <= k in l and in a: sum_(i,j) c p^i q^(k-i) r^j s^(k-j), from the
        power rows that ParamPoly.evaluate reads at the point."""
        lam_pows, alpha_pows, _ = _point_rows(*self._point, k, k)
        return sum(c * lam_pows[i] * alpha_pows[j]
                   for (i, j), c in terms.items())

    def x_coeff(self, value: int, d: int, den: int = 1) -> Fraction:
        """The coefficient of x^d for which value / den is entry d of an
        EGF in u: value / (d! D^d den)."""
        return Fraction(value, math.factorial(d) * self.qs**d * den)

    def describe(self, where, lhs: int, rhs: int) -> str:
        """The mismatch text of two sides at where = (template, values, d,
        den): the location template.format(*values), and each side written
        as the coefficient of x^d it stands for."""
        template, values, d, den = where
        return (f"{template.format(*values)};lhs={self.x_coeff(lhs, d, den)};"
                f"rhs={self.x_coeff(rhs, d, den)}")

    def phi_row(self, n: int, order: int) -> list[int]:
        """Phi_n[0..order] and on: phi_n at the point as an integer EGF in
        u, entry k = k! D^k y1star(n,k).  One grow-only row per n, extended
        to order on first need; the row itself is returned, so it may be
        longer, and a read of one entry is phi_row(n, k)[k]."""
        row = self._phi.setdefault(n, [])
        for k in range(len(row), order + 1):
            row.append(self._numerator(scaled_y1star(n, k), k))
        return row

    def y1_row(self, n: int, order: int) -> list[int]:
        """sum_k y1(n,k) x^k at (lam, 0) as an integer EGF in u: entry k is
        k! D^k y1(n,k)."""
        return [self._numerator(scaled_y1(n, k), k)
                for k in range(order + 1)]

    def triangle(self, kind: str, order: int) -> list[list[int]]:
        """rows[m][k] for k <= m <= order, with c = alpha D: for kind
        "log", s(m,k) c^(m-k), so that column k is (log(1+alpha*x)/alpha)^k
        / (k! D^k) in u; for kind "lah", L(m,k) (-c)^(m-k), so that column
        k is (x/(1+alpha*x))^k / (k! D^k) in u.  One grow-only triangle per
        kind, grown by classical._grow_rows with the weight -m c (Stirling)
        or -(m+k) c (Lah); a read at a lower order is a prefix of it."""
        return _grow_rows(self._triangles[kind], order, 0, _point_step,
                          self.rq, kind == "lah")[:order + 1]

    def _row(self, kind: str, n: int, series) -> tuple[list[int], int]:
        """(nums, den) with nums[j] / den = j! [t^j] series() for j <= n,
        over the one denominator of the row series() gives."""
        row = self._rows.get((kind, n))
        if row is None:
            nums, den = series()
            row = self._rows[(kind, n)] = (
                [math.factorial(j) * nums[j] for j in range(n + 1)], den)
        return row

    def apostol_row(self, n: int) -> tuple[list[int], int]:
        """(nums, den) with nums[j] / den = E_j(lam) = j! [t^j]
        2/(lam*e^t+1), j <= n."""
        return self._row("apostol", n,
                         lambda: _apostol_chain(self.lam, 0).product(1, n))

    def corrected_euler_row(self, n: int) -> tuple[list[int], int]:
        """The weights of 2/(lam*e^t + 1 + alpha), as apostol_row gives
        them: the divisor that direct differentiation of the antiderivative
        actually produces.  Its half is the row of the Apostol-Euler
        chain's (lam*e^t + 1)/2 at alpha = 0, plus alpha/2 = r/(2 s) in
        its constant term."""
        def series():
            nums, den = _euler_half(*self._point[:2], 0, 1, n)
            r, s = self._point[2:]
            nums = [c * 2 * s for c in nums]
            nums[0] += r * den
            return _reciprocal(nums, 2 * s * den)
        return self._row("corrected", n, series)

    def ft_block(self, n: int, k: int, order: int) -> list[int]:
        """(x/(1+alpha*x))^k sum_j C(n,j) y*(j,k) phi_{n-j}(x) as an
        integer EGF in u: the part of the PHI-FT right side that f weights
        by k! sum_m S2(m,k) f_m."""
        block = self._ft_blocks.get((n, k, order))
        if block is None:
            # k! D^k y*(j,k) (x/(1+alpha*x))^k is Phi_j[k] times the Lah
            # column k, which starts at u^k: k <= order
            acc = _sum_rows([(math.comb(n, j) * self.phi_row(j, k)[k],
                              self.phi_row(n - j, order))
                             for j in range(n + 1)], order)
            lah = [0] * k + [row[k] for row
                             in self.triangle("lah", order)[k:]]
            block = self._ft_blocks[(n, k, order)] = _conv(lah, acc, order)
        return block

    def s2star_table(self, size: int) -> tuple[list[list[int]], int]:
        """(rows, den) with rows[j][n] / den = j! S2*(n, j | alpha/lam)
        = n! [t^n] (e^t-1)_{j,alpha/lam} for n, j <= size (at least), read
        from the S2* chain that new_deg_stirling2 keeps, over the lcm of its
        products' denominators; the table is read again when a larger size
        is asked for."""
        if self._s2star is None or len(self._s2star[0]) <= size:
            chain = _s2star_chain(self.alpha / self.lam)
            chain.product(size, size)  # P_0..P_size at order size or above
            products = [chain.product(j, size) for j in range(size + 1)]
            den = math.lcm(*(d for _, d in products))
            self._s2star = ([[math.factorial(n) * c * (den // d)
                              for n, c in enumerate(nums[:size + 1])]
                             for nums, d in products], den)
        return self._s2star

    def s2star_weights(self, k: int) -> tuple[list[int], int]:
        """(nums, den) with nums[j] / den = C(k,j) lam^j (lam+1)_{k-j,alpha}
        for j <= k, over one denominator den = (q s)^k for lam = p/q and
        alpha = r/s: the n-free weights of the S2* relation."""
        weights = self._s2star_weights.get(k)
        if weights is None:
            falling = [1]  # numerators of (lam+1)_{m,alpha} over (q s)^m
            for i in range(k):
                falling.append(falling[-1] * (self.ps + self.qs - i * self.rq))
            weights = self._s2star_weights[k] = (
                [math.comb(k, j) * self.ps**j * falling[k - j]
                 for j in range(k + 1)], self.qs**k)
        return weights


# ---------------------------------------------------------------------------
# The seven checks.  Each yields the (where, lhs, rhs) triples it compares
# at the point of its context, in order, as integers that ctx.describe
# writes back as coefficients of x^d: check_egf all of PHI-EGF's, each
# other check those of one n, which the registry chains over n.  The
# registry walks a stream with reports.verdict, which stops at the first
# unequal pair.
# ---------------------------------------------------------------------------

def check_egf(ctx: PointContext, order: int):
    """sum_n phi_n(x) t^n/n! = e_a^(l*e^t+1)(x), compared as a series in x
    over a series in t, both sides truncated at order in x and in t: the
    coefficient of x^k t^e, times k! D^k e!, is Phi_e[k] on the left and
    k! D^k e! [t^e] F_k on the right, [t^e] F_k = c/d the coefficient that
    fk_series serves at the point: both sides are compared times d."""
    rows = [ctx.phi_row(e, order) for e in range(order + 1)]
    for k in range(order + 1):
        f_k = fk_series(k, order, ctx.lam, ctx.alpha).coeffs
        weight = math.factorial(k) * ctx.qs**k
        for e, row in enumerate(rows):
            scale = math.factorial(e)
            c, d = f_k[e].numerator, f_k[e].denominator
            yield (("x^{};t^{}", (k, e), k, scale * d),
                   row[k] * d, weight * scale * c)


def log_substitution_rhs(ctx: PointContext, n: int,
                         order: int) -> list[int]:
    """sum_k y1(n,k)(lam) L^k with L = log(1+a*x)/a, as an integer EGF in
    u: entry m is sum_k s(m,k) (a D)^(m-k) k! D^k y1(n,k), the y1 row at
    (lam, 0) times the point's log triangle, which every n shares; a != 0."""
    y1 = ctx.y1_row(n, order)
    return [sum(c * v for c, v in zip(row, y1) if c)
            for row in ctx.triangle("log", order)]


def check_log_substitution(ctx: PointContext, n: int, order: int):
    """phi_n(x) = sum_k (log(1+a*x)/a)^k y1(n,k), the y1 values taken at
    (lam, 0)."""
    if ctx.alpha == 0:
        # the inner substitution degenerates to the identity map
        return ()
    return _entries((n,), ctx.phi_row(n, order),
                    log_substitution_rhs(ctx, n, order))


def check_phi_recurrence(ctx: PointContext, n: int, order: int):
    """phi_{n+1}(x) = (l/a) log(1+a*x) sum_i C(n,i) phi_i(x); at a=0 the
    prefactor is its limit l*x, which the log row gives there too."""
    # (l/a) log(1+a*x) = l D times column 1 of the log triangle
    factor = [0] + [ctx.ps * row[1] for row in ctx.triangle("log", order)[1:]]
    acc = _sum_rows([(math.comb(n, i), ctx.phi_row(i, order))
                     for i in range(n + 1)], order)
    return _entries((n,), ctx.phi_row(n + 1, order),
                    _conv(factor, acc, order))


def check_phi_derivative(ctx: PointContext, n: int, order: int):
    """(1+a*x) phi_n'(x) = l sum_i C(n,i) phi_i(x) + phi_n(x), compared to
    x-order K-1 (the derivative loses one order), both sides times D."""
    cmp_order = order - 1
    # D d/dx is d/du, a shift by one entry
    lhs = _conv([1, ctx.rq], ctx.phi_row(n, order)[1:], cmp_order)
    rhs = _sum_rows([(ctx.ps * math.comb(n, i), ctx.phi_row(i, order))
                     for i in range(n + 1)]
                    + [(ctx.qs, ctx.phi_row(n, order))], cmp_order)
    return _entries((n,), lhs, rhs, ctx.qs)


def check_phi_apostol(ctx: PointContext, n: int, order: int):
    """(1+a*x) sum_m C(n,m) E_{n-m}(l) phi_m'(x) = 2 phi_n(x) with the
    first-kind Apostol-Euler weights E_j(l) = j! [t^j] 2/(l*e^t+1),
    compared to x-order K-1, both sides times D and the weights'
    denominator."""
    cmp_order = order - 1
    euler, den = ctx.apostol_row(n)
    acc = _sum_rows([(math.comb(n, m) * euler[n - m],
                      ctx.phi_row(m, order)[1:]) for m in range(n + 1)],
                    cmp_order)
    lhs = _conv([1, ctx.rq], acc, cmp_order)
    rhs = [2 * den * ctx.qs * c for c in ctx.phi_row(n, order)[:order]]
    return _entries((n,), lhs, rhs, den * ctx.qs)


def check_phi_integral(ctx: PointContext, n: int, order: int,
                       corrected: bool = False):
    """int_0^x phi_n = ((1+a*x)/2) sum_i C(n,i) E_{n-i} phi_i(x) - E_n/2,
    for n >= 1, both sides times twice the weights' denominator.

    With corrected=True the weights use the divisor l*e^t+1+a instead (the
    exact-antiderivative variant derived here); at a=0 both coincide.  The
    stated form mismatches whenever a != 0, which the PHI-INT entry reports
    as expected-discrepancy rather than failure.
    """
    if n < 1:
        raise ValueError("the integral identity is stated for n >= 1")
    euler, den = ctx.corrected_euler_row(n) if corrected else ctx.apostol_row(n)
    # the integral dx is D times a shift by one entry the other way
    lhs = [0] + [2 * den * ctx.qs * c for c in ctx.phi_row(n, order)[:order]]
    acc = _sum_rows([(math.comb(n, i) * euler[n - i], ctx.phi_row(i, order))
                     for i in range(n + 1)], order)
    rhs = _conv([1, ctx.rq], acc, order)
    rhs[0] -= euler[n]
    return _entries((n,), lhs, rhs, 2 * den)


def check_f_transform(ctx: PointContext, n: int, f_coeffs, order: int):
    """sum_m y*(n,m) f(m) x^m
       = sum_{j<=n} C(n,j) sum_{m<=deg f} sum_{k<=m} S2(m,k) (x/(1+a*x))^k k!
                     f_m y*(j,k) phi_{n-j}(x)
    for a polynomial f given by its coefficient list.  The right side is
    sum_k (k! sum_m S2(m,k) f_m) ctx.ft_block(n, k): the same finite exact
    sum, reordered so that the blocks serve every f.  Both sides are
    compared times the lcm f_den of f's denominators."""
    f_coeffs = [Fraction(c) for c in f_coeffs]
    # f(m) = sum_i f_nums[i] m^i / f_den, summed in integers
    f_den = math.lcm(*(c.denominator for c in f_coeffs))
    f_nums = [c.numerator * (f_den // c.denominator) for c in f_coeffs]
    lhs = [c * sum(f * m**i for i, f in enumerate(f_nums))
           for m, c in enumerate(ctx.phi_row(n, order)[:order + 1])]
    # block k starts at x^k, so blocks past the order add nothing
    rhs = _sum_rows([(math.factorial(k) * sum(stirling2(m, k) * f
                                              for m, f in enumerate(f_nums)),
                      ctx.ft_block(n, k, order))
                     for k in range(min(len(f_nums), order + 1))], order)
    f_text = " ".join(str(c) for c in f_coeffs)
    return _entries((n, f_text), lhs, rhs, f_den, "n={};f=[{}];x^{}")

