"""The row generating function phi_n(x) = sum_k y1star(n,k) x^k and the
mechanical checks of its seven identities.

Every check runs at a rational parameter point (lam0, alpha0): the factors
log(1+a*x)/a, 1/(1+a*x), and the Apostol-Euler weights are not polynomial
in the parameters, so rational substitution is what keeps the comparisons
exact.  Where an identity divides by (1+a*x), the check multiplies through
instead so both sides stay polynomial.

The integral identity is special: its stated form relies on an
antiderivative of e_a^c(y) with divisor c, while direct differentiation
gives divisor c+a, so the identity is exact only at a=0.  At a != 0 the
check reports the (deterministic) first mismatch as "expected-discrepancy",
and a corrected-divisor variant (divisor c+a) is checked alongside, clearly
labeled as derived here rather than part of the stated formula family.

Each check takes the PointContext of its point first: it holds the point
and the values the checks share there, each computed once on first use.
"""

from __future__ import annotations

from fractions import Fraction
import math

from .algebra import (QQ, SeriesRing, TruncSeries, series_differentiate,
                      series_integrate, series_log1p, series_reciprocal, exp_t)
from .classical import stirling2
from .degenerate import apostol_euler_series, deg_exp_series
from .reports import (EXPECTED_DISCREPANCY, FAIL, PASS, TRIVIALLY_TRUE,
                      IdentityReport, merge_status)
from .simsek import y1star


def phi_series(n: int, lam0, alpha0, order: int) -> TruncSeries:
    """phi_n at a rational point, as a truncated series in x of the given
    order; coefficient k is y1star(n,k) evaluated at the point."""
    lam0 = Fraction(lam0)
    alpha0 = Fraction(alpha0)
    coeffs = [y1star(n, k).evaluate(lam0, alpha0) for k in range(order + 1)]
    return TruncSeries("x", order, coeffs, QQ)


def _first_mismatch(lhs: TruncSeries, rhs: TruncSeries, label: str = "x"):
    """(degree, lhs_text, rhs_text) of the lowest differing coefficient, or
    None when the series agree through the common order."""
    from .algebra import render_scalar
    for d in range(min(lhs.order, rhs.order) + 1):
        a, b = lhs.coeffs[d], rhs.coeffs[d]
        if a != b:
            if isinstance(a, TruncSeries):
                inner = _first_mismatch(a, b, label="t")
                return (f"{label}^{d};{inner[0]}", inner[1], inner[2])
            return (f"{label}^{d}", render_scalar(a), render_scalar(b))
    return None


def _series_report(rid, lam0, alpha0, orders, lhs, rhs, extra="",
                   mismatch_status=FAIL) -> IdentityReport:
    # equal series compare in their integer form; coefficients are read
    # only to locate a mismatch
    miss = None if lhs == rhs else _first_mismatch(lhs, rhs)
    if miss is None:
        return IdentityReport(rid, lam0, alpha0, orders, PASS)
    loc, a, b = miss
    text = f"{extra}{loc};lhs={a};rhs={b}"
    return IdentityReport(rid, lam0, alpha0, orders, mismatch_status, text)


# ---------------------------------------------------------------------------
# The values shared by the checks at one point.
# ---------------------------------------------------------------------------

class PointContext:
    """Everything the rational checks read at one point (lam0, alpha0),
    each value computed on first use and kept: y1star values, phi rows, the
    Apostol-Euler and corrected Euler weight rows, the powers of
    x/(1+alpha*x) and of log(1+alpha*x)/alpha, the PHI-FT blocks, the
    S2*(n, j | alpha/lam) table and the REL-S2STAR weights.
    The y1star values evaluate the route-A polynomials of `table`, and the
    y1 values its scaled Simsek numbers: an object whose y(n, k) and
    scaled_y1(n, k) give them, such as the registry.SymbolicContext shared
    by every point of a suite.
    Not locked: keep a context on one thread.
    """

    def __init__(self, lam0, alpha0, table):
        self.lam = Fraction(lam0)
        self.alpha = Fraction(alpha0)
        self._table = table
        self._y: dict[tuple[int, int], Fraction] = {}
        self._phi: dict[tuple[int, int], TruncSeries] = {}
        self._rows: dict[tuple[str, int], list[Fraction]] = {}
        self._powers: dict[tuple[str, int], list[TruncSeries]] = {}
        self._ft_blocks: dict[tuple[int, int, int], TruncSeries] = {}
        self._s2star = None
        self._s2star_weights: dict[int, tuple[list[int], int]] = {}

    def y(self, n: int, k: int) -> Fraction:
        """y1star(n,k) at the point."""
        value = self._y.get((n, k))
        if value is None:
            value = self._y[(n, k)] = self._table.y(n, k).evaluate(
                self.lam, self.alpha)
        return value

    def y1(self, n: int, k: int) -> Fraction:
        """The Simsek number y1(n,k) at (lam, 0), from the table's integer
        terms of k! y1(n,k), all of degree <= k in l."""
        p, q = self.lam.numerator, self.lam.denominator
        num = sum(c * p**i * q**(k - i)
                  for (i, _), c in self._table.scaled_y1(n, k).items())
        return Fraction(num, q**k * math.factorial(k))

    def phi(self, n: int, order: int) -> TruncSeries:
        """phi_n at the point, equal to phi_series(n, lam0, alpha0, order)."""
        row = self._phi.get((n, order))
        if row is None:
            row = self._phi[(n, order)] = TruncSeries(
                "x", order, [self.y(n, k) for k in range(order + 1)], QQ)
        return row

    def _row(self, kind: str, n: int, series) -> list[Fraction]:
        row = self._rows.get((kind, n))
        if row is None:
            coeffs = series().coeffs
            row = self._rows[(kind, n)] = [
                coeffs[j] * math.factorial(j) for j in range(n + 1)]
        return row

    def apostol_row(self, n: int) -> list[Fraction]:
        """E_0(lam)..E_n(lam) with E_j(lam) = j! [t^j] 2/(lam*e^t+1)."""
        return self._row("apostol", n,
                         lambda: apostol_euler_series(1, self.lam, 0, n))

    def corrected_euler_row(self, n: int) -> list[Fraction]:
        """Weights of 2/(lam*e^t + 1 + alpha): the divisor that direct
        differentiation of the antiderivative actually produces."""
        def series():
            half = (exp_t(n, QQ) * self.lam + 1 + self.alpha) * Fraction(1, 2)
            return series_reciprocal(half)
        return self._row("corrected", n, series)

    def _power(self, kind: str, base, k: int, order: int) -> TruncSeries:
        """base(x)^k to the given x-order, each power one product more than
        the last."""
        powers = self._powers.get((kind, order))
        if powers is None:
            x = TruncSeries.variable("x", order, QQ)
            powers = self._powers[(kind, order)] = [x.ring_one(), base(x)]
        while len(powers) <= k:
            powers.append(powers[-1] * powers[1])
        return powers[k]

    def w_power(self, k: int, order: int) -> TruncSeries:
        """(x/(1+alpha*x))^k to the given x-order."""
        return self._power(
            "w", lambda x: x * series_reciprocal(x * self.alpha + 1), k, order)

    def log_power(self, k: int, order: int) -> TruncSeries:
        """(log(1+alpha*x)/alpha)^k to the given x-order; alpha != 0."""
        return self._power(
            "log", lambda x: series_log1p(x * self.alpha) * (1 / self.alpha),
            k, order)

    def ft_block(self, n: int, k: int, order: int) -> TruncSeries:
        """(x/(1+alpha*x))^k sum_j C(n,j) y*(j,k) phi_{n-j}(x): the part of
        the PHI-FT right side that f weights by k! sum_m S2(m,k) f_m."""
        block = self._ft_blocks.get((n, k, order))
        if block is None:
            acc = TruncSeries.constant(Fraction(0), "x", order, QQ)
            for j in range(n + 1):
                scalar = math.comb(n, j) * self.y(j, k)
                if scalar:
                    acc = acc + self.phi(n - j, order) * scalar
            block = self._ft_blocks[(n, k, order)] = \
                self.w_power(k, order) * acc
        return block

    def s2star_table(self, size: int) -> tuple[list[list[int]], int]:
        """(rows, den) with rows[j][n] / den = n! [t^n] (e^t-1)_{j,alpha/lam}
        = j! S2*(n, j | alpha/lam) for n, j <= size (at least): integer
        numerators over one denominator q^size for alpha/lam = p/q.  Row j+1
        is row j times the factor e^t - 1 - j p/q, a binomial convolution of
        n!-scaled coefficients; the table is built again when a larger size
        is asked for."""
        table = self._s2star
        if table is None or len(table[0]) <= size:
            ratio = self.alpha / self.lam
            p, q = ratio.numerator, ratio.denominator
            row = [1] + [0] * size  # q^j n! [t^n] of the product
            rows = [row]
            for j in range(size):
                row = [q * sum(math.comb(n, e) * row[n - e]
                               for e in range(1, n + 1)) - j * p * row[n]
                       for n in range(size + 1)]
                rows.append(row)
            table = self._s2star = (
                [[c * q**(size - j) for c in row] for j, row in enumerate(rows)],
                q**size)
        return table

    def s2star(self, n: int, j: int) -> Fraction:
        """S2*(n, j | alpha/lam) = n!/j! [t^n] (e^t-1)_{j,alpha/lam}."""
        if n < 0 or j < 0:
            return Fraction(0)
        rows, den = self.s2star_table(max(n, j))
        return Fraction(rows[j][n], den * math.factorial(j))

    def s2star_weights(self, k: int) -> tuple[list[int], int]:
        """(nums, den) with nums[j] / den = C(k,j) lam^j (lam+1)_{k-j,alpha}
        for j <= k, over one denominator den = (q s)^k for lam = p/q and
        alpha = r/s: the n-free weights of the S2* relation."""
        weights = self._s2star_weights.get(k)
        if weights is None:
            p, q = self.lam.numerator, self.lam.denominator
            r, s = self.alpha.numerator, self.alpha.denominator
            falling = [1]  # numerators of (lam+1)_{m,alpha} over (q s)^m
            for i in range(k):
                falling.append(falling[-1] * ((p + q) * s - i * r * q))
            weights = self._s2star_weights[k] = (
                [math.comb(k, j) * (p * s)**j * falling[k - j]
                 for j in range(k + 1)], (q * s)**k)
        return weights


# ---------------------------------------------------------------------------
# The seven checks.  Each returns an IdentityReport for one n at the
# point of its context.
# ---------------------------------------------------------------------------

def check_egf(ctx: PointContext, order: int) -> IdentityReport:
    """sum_n phi_n(x) t^n/n! = e_a^(l*e^t+1)(x), compared as a series in x
    over a series in t, both sides truncated at order in x and in t."""
    lam0, alpha0 = ctx.lam, ctx.alpha
    inner_ring = SeriesRing(QQ, "t", order)
    lhs_cols = []
    for k in range(order + 1):
        col = [ctx.y(m, k) * Fraction(1, math.factorial(m))
               for m in range(order + 1)]
        lhs_cols.append(TruncSeries("t", order, col, QQ))
    lhs = TruncSeries("x", order, lhs_cols, inner_ring)
    c = exp_t(order, QQ) * lam0 + 1
    rhs = deg_exp_series(c, alpha0, order, var="x")
    return _series_report("PHI-EGF", lam0, alpha0,
                          f"Nt={order};K={order}", lhs, rhs)


def log_substitution_rhs(ctx: PointContext, n: int,
                         order: int) -> TruncSeries:
    """sum_k y1(n,k)(lam) L^k with L = log(1+a*x)/a: the y1 column at
    (lam, 0) composed with L, over the powers of L the point shares by
    every n; a != 0."""
    acc = TruncSeries.constant(Fraction(0), "x", order, QQ)
    for k in range(order + 1):
        value = ctx.y1(n, k)
        if value:
            acc = acc + ctx.log_power(k, order) * value
    return acc


def check_log_substitution(ctx: PointContext, n: int,
                           order: int) -> IdentityReport:
    """phi_n(x) = sum_k (log(1+a*x)/a)^k y1(n,k), the y1 values taken at
    (lam, 0)."""
    lam0, alpha0 = ctx.lam, ctx.alpha
    orders = f"K={order};n={n}"
    if alpha0 == 0:
        # the inner substitution degenerates to the identity map
        return IdentityReport("PHI-LOG", lam0, alpha0, orders, TRIVIALLY_TRUE)
    return _series_report("PHI-LOG", lam0, alpha0, orders, ctx.phi(n, order),
                          log_substitution_rhs(ctx, n, order),
                          extra=f"n={n};")


def check_phi_recurrence(ctx: PointContext, n: int,
                         order: int) -> IdentityReport:
    """phi_{n+1}(x) = (l/a) log(1+a*x) sum_i C(n,i) phi_i(x); at a=0 the
    prefactor is its limit l*x."""
    lam0, alpha0 = ctx.lam, ctx.alpha
    lhs = ctx.phi(n + 1, order)
    x = TruncSeries.variable("x", order, QQ)
    if alpha0 == 0:
        factor = x * lam0
    else:
        factor = series_log1p(x * alpha0) * (lam0 / alpha0)
    acc = TruncSeries.constant(Fraction(0), "x", order, QQ)
    for i in range(n + 1):
        acc = acc + ctx.phi(i, order) * math.comb(n, i)
    rhs = factor * acc
    return _series_report("PHI-REC", lam0, alpha0, f"K={order};n={n}",
                          lhs, rhs, extra=f"n={n};")


def check_phi_derivative(ctx: PointContext, n: int,
                         order: int) -> IdentityReport:
    """(1+a*x) phi_n'(x) = l sum_i C(n,i) phi_i(x) + phi_n(x), compared to
    x-order K-1 (the derivative loses one order)."""
    lam0, alpha0 = ctx.lam, ctx.alpha
    cmp_order = order - 1
    x = TruncSeries.variable("x", cmp_order, QQ)
    dphi = series_differentiate(ctx.phi(n, order))
    lhs = (x * alpha0 + 1) * dphi
    acc = TruncSeries.constant(Fraction(0), "x", cmp_order, QQ)
    for i in range(n + 1):
        acc = acc + ctx.phi(i, cmp_order) * math.comb(n, i)
    rhs = acc * lam0 + ctx.phi(n, cmp_order)
    return _series_report("PHI-DER", lam0, alpha0, f"K={order};n={n}",
                          lhs, rhs, extra=f"n={n};")


def check_phi_apostol(ctx: PointContext, n: int,
                      order: int) -> IdentityReport:
    """(1+a*x) sum_m C(n,m) E_{n-m}(l) phi_m'(x) = 2 phi_n(x) with the
    first-kind Apostol-Euler weights E_j(l) = j! [t^j] 2/(l*e^t+1)."""
    lam0, alpha0 = ctx.lam, ctx.alpha
    cmp_order = order - 1
    euler = ctx.apostol_row(n)
    x = TruncSeries.variable("x", cmp_order, QQ)
    acc = TruncSeries.constant(Fraction(0), "x", cmp_order, QQ)
    for m in range(n + 1):
        dphi = series_differentiate(ctx.phi(m, order))
        acc = acc + dphi * (math.comb(n, m) * euler[n - m])
    lhs = (x * alpha0 + 1) * acc
    rhs = ctx.phi(n, cmp_order) * 2
    return _series_report("PHI-AE", lam0, alpha0, f"K={order};n={n}",
                          lhs, rhs, extra=f"n={n};")


def check_phi_integral(ctx: PointContext, n: int, order: int,
                       corrected: bool = False) -> IdentityReport:
    """int_0^x phi_n = ((1+a*x)/2) sum_i C(n,i) E_{n-i} phi_i(x) - E_n/2,
    for n >= 1.

    With corrected=True the weights use the divisor l*e^t+1+a instead (the
    exact-antiderivative variant derived here); at a=0 both coincide.  The
    stated form mismatches whenever a != 0, which is reported as
    expected-discrepancy rather than failure.
    """
    if n < 1:
        raise ValueError("the integral identity is stated for n >= 1")
    lam0, alpha0 = ctx.lam, ctx.alpha
    rid = "PHI-INT-CORR" if corrected else "PHI-INT"
    euler = ctx.corrected_euler_row(n) if corrected else ctx.apostol_row(n)
    lhs = series_integrate(ctx.phi(n, order), order)
    x = TruncSeries.variable("x", order, QQ)
    acc = TruncSeries.constant(Fraction(0), "x", order, QQ)
    for i in range(n + 1):
        acc = acc + ctx.phi(i, order) * (math.comb(n, i) * euler[n - i])
    rhs = (x * alpha0 + 1) * acc * Fraction(1, 2) - euler[n] * Fraction(1, 2)
    mismatch_status = FAIL if (alpha0 == 0 or corrected) else EXPECTED_DISCREPANCY
    return _series_report(rid, lam0, alpha0, f"K={order};n={n}", lhs, rhs,
                          extra=f"n={n};", mismatch_status=mismatch_status)


def check_f_transform(ctx: PointContext, n: int, f_coeffs,
                      order: int) -> IdentityReport:
    """sum_m y*(n,m) f(m) x^m
       = sum_{j<=n} C(n,j) sum_{m<=deg f} sum_{k<=m} S2(m,k) (x/(1+a*x))^k k!
                     f_m y*(j,k) phi_{n-j}(x)
    for a polynomial f given by its coefficient list.  The right side is
    sum_k (k! sum_m S2(m,k) f_m) ctx.ft_block(n, k): the same finite exact
    sum, reordered so that the blocks serve every f."""
    lam0, alpha0 = ctx.lam, ctx.alpha
    f_coeffs = [Fraction(c) for c in f_coeffs]
    # f(m) = sum_i f_nums[i] m^i / f_den, summed in integers
    f_den = math.lcm(*(c.denominator for c in f_coeffs))
    f_nums = [c.numerator * (f_den // c.denominator) for c in f_coeffs]
    lhs = TruncSeries("x", order, [
        ctx.y(n, m) * sum(c * m**i for i, c in enumerate(f_nums))
        for m in range(order + 1)], QQ) * Fraction(1, f_den)
    rhs = TruncSeries.constant(Fraction(0), "x", order, QQ)
    for k in range(len(f_coeffs)):
        weight = math.factorial(k) * sum(stirling2(m, k) * fm
                                         for m, fm in enumerate(f_coeffs))
        if weight:
            rhs = rhs + ctx.ft_block(n, k, order) * weight
    f_text = "f=[" + " ".join(str(c) for c in f_coeffs) + "]"
    return _series_report("PHI-FT", lam0, alpha0,
                          f"K={order};n={n};{f_text}", lhs, rhs,
                          extra=f"n={n};{f_text};")


def merge_reports(rid: str, reports: list[IdentityReport],
                  orders: str) -> IdentityReport:
    """Collapse per-n (or per-f) sub-reports for one identity at one point
    into a single report; the first non-pass sub-report supplies the
    recorded mismatch."""
    status = merge_status([r.status for r in reports])
    mismatch = ""
    for r in reports:
        if r.status in (FAIL, EXPECTED_DISCREPANCY):
            mismatch = r.mismatch
            break
    first = reports[0]
    return IdentityReport(rid, first.lam, first.alpha, orders, status, mismatch)
