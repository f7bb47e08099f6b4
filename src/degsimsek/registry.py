"""Identity registry and the verification suite runner.

Each entry is one identity with a stable id, a self-contained statement,
a mode and the callable that runs it on a context: "symbolic" entries hold
as ParamPoly/series identities in (l, a) and run once, all of them on one
shared SymbolicContext; "rational" entries run at every grid point, all of
them at one point on one shared PointContext.  The symbolic checks and
REL-S2STAR compare n, k <= SYMBOLIC_BOUND whatever the suite's order.
Variant entries (suffixed ids) exercise alternative readings of ambiguous
statements or derived corrections; they can never fail the suite, only
report what they found.

The suite runs serially and is deterministic: for a fixed seed and grid
the report list (sorted by id, then point index), and hence its
serialization, is byte-identical for every run.  An entry that raises at
a point gives an "error" report there; the other reports are kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
import math
import random
import time
from typing import Callable

from .algebra import PP, ParamPoly, TruncSeries, exp_t
from .classical import stirling1, stirling2
from .degenerate import deg_stirling1, deg_stirling2, new_deg_stirling2
from .phi import (PointContext, check_egf, check_f_transform,
                  check_log_substitution, check_phi_apostol,
                  check_phi_derivative, check_phi_integral,
                  check_phi_recurrence, merge_reports)
from .reports import (ERROR, EXPECTED_DISCREPANCY, FAIL, PASS,
                      IdentityReport)
from .simsek import fk_series, route_c_printed, simsek_y1, y1star

_L = ParamPoly.lam()
_A = ParamPoly.alpha()

SYMBOLIC_BOUND = 8

FIXED_POINTS: tuple[tuple[Fraction, Fraction], ...] = (
    (Fraction(1), Fraction(0)),
    (Fraction(1), Fraction(1, 2)),
    (Fraction(2, 3), Fraction(1, 3)),
    (Fraction(1, 2), Fraction(1, 3)),
    (Fraction(2), Fraction(1, 4)),
)

F_TRANSFORM_POLYS: tuple[tuple[Fraction, ...], ...] = (
    (Fraction(1),),                                        # 1
    (Fraction(0), Fraction(1)),                            # x
    (Fraction(0), Fraction(0), Fraction(1)),               # x^2
    (Fraction(0), Fraction(-2), Fraction(0), Fraction(1)),  # x^3 - 2x
)

PHI_N_VALUES = (0, 1, 2, 3)
PHI_INT_N_VALUES = (1, 2, 3)


@dataclass(frozen=True)
class RegistryEntry:
    id: str
    description: str
    mode: str  # "symbolic" | "rational"
    # run(ctx, order): ctx is the PointContext of a rational entry's point,
    # the suite's SymbolicContext for a symbolic entry
    run: Callable[[PointContext | SymbolicContext, int], IdentityReport] = \
        field(compare=False, repr=False)
    variant_of: str | None = None


def _per_n(rid: str, check, ctx: PointContext, order: int,
           ns=PHI_N_VALUES, **options) -> IdentityReport:
    """One phi check for every n in ns at the context's point, merged."""
    subs = [check(ctx, n, order, **options) for n in ns]
    return merge_reports(rid, subs, f"K={order};n<=3")


# The callables look the checks up when they run, so a wrapper installed on
# a module-level name (a tracer, a test double) sees every call.
REGISTRY: tuple[RegistryEntry, ...] = (
    RegistryEntry("EXPL-B", "explicit double sum over C(l,j) a^(k-l) s(k,l) "
                  f"l^j j^n equals the series route, n,k <= {SYMBOLIC_BOUND}",
                  "symbolic",
                  lambda ctx, order: check_route_against_a(ctx, "EXPL-B", "B")),
    RegistryEntry("EXPL-C", "explicit double sum with the (1)_{k-l,a} factor "
                  f"equals the series route, n,k <= {SYMBOLIC_BOUND}",
                  "symbolic",
                  lambda ctx, order: check_route_against_a(ctx, "EXPL-C", "C")),
    RegistryEntry("EXPL-C-PRINTED", "step-j variant (1)_{k-l,j} of EXPL-C; "
                  "recorded as a rejected reading", "symbolic",
                  lambda ctx, order: check_expl_c_printed(ctx), "EXPL-C"),
    RegistryEntry("EXPL-D", "order-k Bernoulli-number formula equals the "
                  f"series route, n,k <= {SYMBOLIC_BOUND}", "symbolic",
                  lambda ctx, order: check_route_against_a(ctx, "EXPL-D", "D")),
    RegistryEntry("FUNC-EQ", "(l e^t)_{k,a} = sum_i (-1)_{k-i,a} C(k,i) i! "
                  "F_i(t), as series with ParamPoly coefficients, "
                  f"k <= {SYMBOLIC_BOUND}", "symbolic",
                  lambda ctx, order: check_func_eq(ctx, order)),
    RegistryEntry("THM-S1", "sum_j a^(k-j) s(k,j) l^j j^n = sum_i (-1)_{k-i,a} "
                  "i! C(k,i) y*(n,i), plus its a=0 reduction, "
                  f"n,k <= {SYMBOLIC_BOUND}", "symbolic",
                  lambda ctx, order: check_thm_s1(ctx)),
    RegistryEntry("REL-S2A", "y*(n,k) = (1/k!) sum_{i,j} S2a(k,i) s(i,j) j! "
                  f"y1(n,j), symbolic, n,k <= {SYMBOLIC_BOUND}", "symbolic",
                  lambda ctx, order: check_rel_s2a(ctx)),
    RegistryEntry("REC-K", "column recurrence (k+1) y*(n,k+1) = l sum C(n,i) "
                  "y*(i,k) + (1-k a) y*(n,k) reproduces the series route",
                  "symbolic",
                  lambda ctx, order: check_route_against_a(ctx, "REC-K", "E")),
    RegistryEntry("REC-N", "row recurrence for y*(n+1,k) from column k-1 "
                  "reproduces the series route", "symbolic",
                  lambda ctx, order: check_route_against_a(ctx, "REC-N", "F")),
    RegistryEntry("RED-A0", "substituting a=0 into y*(n,k) gives the plain "
                  f"Simsek numbers, n,k <= {SYMBOLIC_BOUND}", "symbolic",
                  lambda ctx, order: check_red_a0(ctx)),
    RegistryEntry("RED-CLASSICAL", "degenerate Stirling triangles at a=0 "
                  "equal the classical ones; S2* at a=0 equals S2, "
                  f"n <= {SYMBOLIC_BOUND}",
                  "symbolic", lambda ctx, order: check_red_classical()),
    RegistryEntry("REL-S2STAR", "y*(n,k) = (1/k!) sum_j C(k,j) j! l^j "
                  "(l+1)_{k-j,a} S2*(n,j|a/l) at rational points with l != 0",
                  "rational", lambda ctx, order: check_rel_s2star(ctx, "j")),
    RegistryEntry("REL-S2STAR-KIDX", "variant with the fixed index "
                  "S2*(n,k|a/l) inside the sum; recorded as a rejected "
                  "reading", "rational",
                  lambda ctx, order: check_rel_s2star(ctx, "k"), "REL-S2STAR"),
    RegistryEntry("REL-S2STAR-DUPL", "variant with a duplicated l^j factor; "
                  "recorded as a rejected reading", "rational",
                  lambda ctx, order: check_rel_s2star(ctx, "dup"),
                  "REL-S2STAR"),
    RegistryEntry("REL-S2STAR-ZERO0", "variant dropping the j=0 term per the "
                  "S2*(n,0)=0 convention; mismatches at n=0", "rational",
                  lambda ctx, order: check_rel_s2star(ctx, "zero0"),
                  "REL-S2STAR"),
    RegistryEntry("PHI-EGF", "sum_n phi_n(x) t^n/n! = e_a^(l e^t + 1)(x) as a "
                  "bivariate truncated series", "rational",
                  lambda ctx, order: check_egf(ctx, order)),
    RegistryEntry("PHI-LOG", "phi_n(x) = sum_k (log(1+a x)/a)^k y1(n,k); "
                  "trivially true at a=0", "rational",
                  lambda ctx, order: _per_n("PHI-LOG", check_log_substitution,
                                            ctx, order)),
    RegistryEntry("PHI-REC", "phi_{n+1} = (l/a) log(1+a x) sum_i C(n,i) phi_i",
                  "rational",
                  lambda ctx, order: _per_n("PHI-REC", check_phi_recurrence,
                                            ctx, order)),
    RegistryEntry("PHI-DER", "(1+a x) phi_n' = l sum_i C(n,i) phi_i + phi_n",
                  "rational",
                  lambda ctx, order: _per_n("PHI-DER", check_phi_derivative,
                                            ctx, order)),
    RegistryEntry("PHI-AE", "(1+a x) sum_m C(n,m) E_{n-m}(l) phi_m' = 2 phi_n "
                  "with Apostol-Euler weights", "rational",
                  lambda ctx, order: _per_n("PHI-AE", check_phi_apostol,
                                            ctx, order)),
    RegistryEntry("PHI-INT", "int_0^x phi_n = ((1+a x)/2) sum_i C(n,i) "
                  "E_{n-i}(l) phi_i - E_n(l)/2; exact at a=0, deterministic "
                  "discrepancy at a != 0", "rational",
                  lambda ctx, order: _per_n("PHI-INT", check_phi_integral,
                                            ctx, order, PHI_INT_N_VALUES)),
    RegistryEntry("PHI-INT-CORR", "integral identity with the corrected "
                  "divisor l e^t + 1 + a (derived here, not part of the "
                  "stated family)", "rational",
                  lambda ctx, order: _per_n("PHI-INT-CORR", check_phi_integral,
                                            ctx, order, PHI_INT_N_VALUES,
                                            corrected=True), "PHI-INT"),
    RegistryEntry("PHI-FT", "polynomial-transform identity for f in "
                  "{1, x, x^2, x^3-2x}", "rational",
                  lambda ctx, order: merge_reports("PHI-FT", [
                      check_f_transform(ctx, n, f, order)
                      for f in F_TRANSFORM_POLYS for n in PHI_N_VALUES],
                      f"K={order};n<=3")),
)

_BY_ID = {e.id: e for e in REGISTRY}


def registry_ids() -> list[str]:
    return [e.id for e in REGISTRY]


# ---------------------------------------------------------------------------
# The values shared by the symbolic checks.
# ---------------------------------------------------------------------------

class SymbolicContext:
    """Everything the symbolic checks read, each value computed on first use
    and kept: y1star values per route, y1 values, the THM-S1/FUNC-EQ weights
    and their weighted sums of F_i, and the REL-S2A weights.  Its route-A
    values are also the table every grid point's PointContext evaluates.
    Its point is (None, None): the symbolic checks hold in (l, a).
    Not locked: keep a context on one thread.
    """

    lam = alpha = None

    def __init__(self):
        self._y: dict[tuple[int, int, str], ParamPoly] = {}
        self._y1: dict[tuple[int, int], ParamPoly] = {}
        self._neg_falling = [ParamPoly.const(1)]  # (-1)_{m,a}
        self._weights: dict[tuple[int, int], ParamPoly] = {}
        self._weighted_fk: dict[int, TruncSeries] = {}
        self._s2a_weights: dict[tuple[int, int], ParamPoly] = {}

    def y(self, n: int, k: int, route: str = "A") -> ParamPoly:
        """y1star(n,k) by the given route."""
        value = self._y.get((n, k, route))
        if value is None:
            value = self._y[(n, k, route)] = y1star(n, k, route)
        return value

    def y1(self, n: int, j: int) -> ParamPoly:
        """The Simsek number y1(n,j)."""
        value = self._y1.get((n, j))
        if value is None:
            value = self._y1[(n, j)] = simsek_y1(n, j)
        return value

    def weight(self, k: int, i: int) -> ParamPoly:
        """(-1)_{k-i,a} C(k,i) i!, the weight of y*(n,i) in THM-S1 and of
        F_i in FUNC-EQ."""
        value = self._weights.get((k, i))
        if value is None:
            falling = self._neg_falling
            while len(falling) <= k - i:
                m = len(falling) - 1
                falling.append(falling[m] * (-1 - _A * m))
            value = self._weights[(k, i)] = (
                falling[k - i] * (math.comb(k, i) * math.factorial(i)))
        return value

    def weighted_fk(self, k: int, order: int) -> TruncSeries:
        """sum_i weight(k,i) F_i(t) to the given order: the right side of
        FUNC-EQ, and n! times its t^n coefficient is the right side of
        THM-S1.  The highest order asked for is kept; lower ones read a
        truncation of it."""
        series = self._weighted_fk.get(k)
        if series is None or series.order < order:
            series = TruncSeries.constant(ParamPoly(), "t", order, PP)
            for i in range(k + 1):
                series = series + fk_series(i, order) * self.weight(k, i)
            self._weighted_fk[k] = series
        return series if series.order == order else series.truncate(order)

    def s2a_weight(self, k: int, j: int) -> ParamPoly:
        """(j!/k!) sum_i S2a(k,i) s(i,j), the weight of y1(n,j) in REL-S2A."""
        value = self._s2a_weights.get((k, j))
        if value is None:
            scale = Fraction(math.factorial(j), math.factorial(k))
            value = ParamPoly()
            for i in range(j, k + 1):
                c = stirling1(i, j)
                if c:
                    value = value + deg_stirling2(k, i) * (scale * c)
            self._s2a_weights[(k, j)] = value
        return value


# ---------------------------------------------------------------------------
# Symbolic checks.  Each takes the suite's SymbolicContext first and compares
# n, k <= SYMBOLIC_BOUND.
# ---------------------------------------------------------------------------

def _poly_pair_report(rid: str, pairs, orders: str,
                      mismatch_status: str = FAIL) -> IdentityReport:
    """Compare (location, lhs, rhs) ParamPoly triples; record the first
    difference."""
    for loc, lhs, rhs in pairs:
        if lhs != rhs:
            text = f"{loc};lhs={lhs.render()};rhs={rhs.render()}"
            return IdentityReport(rid, None, None, orders, mismatch_status,
                                  text)
    return IdentityReport(rid, None, None, orders, PASS)


def check_route_against_a(ctx: SymbolicContext, rid: str,
                          route: str) -> IdentityReport:
    def pairs():
        for k in range(SYMBOLIC_BOUND + 1):
            for n in range(SYMBOLIC_BOUND + 1):
                yield (f"(n,k)=({n},{k})", ctx.y(n, k, route), ctx.y(n, k))
    return _poly_pair_report(rid, pairs(), f"n,k<={SYMBOLIC_BOUND}")


def check_expl_c_printed(ctx: SymbolicContext) -> IdentityReport:
    def pairs():
        for k in range(SYMBOLIC_BOUND + 1):
            for n in range(SYMBOLIC_BOUND + 1):
                yield (f"(n,k)=({n},{k})", route_c_printed(n, k), ctx.y(n, k))
    return _poly_pair_report("EXPL-C-PRINTED", pairs(),
                             f"n,k<={SYMBOLIC_BOUND}",
                             mismatch_status=EXPECTED_DISCREPANCY)


def check_func_eq(ctx: SymbolicContext, order: int) -> IdentityReport:
    def pairs():
        lam_exp = exp_t(order, PP) * _L
        rhs = lam_exp * 0 + 1  # (l e^t)_{k,a}, one factor more per k
        for k in range(SYMBOLIC_BOUND + 1):
            if k:
                rhs = rhs * (lam_exp - _A * (k - 1))
            lhs = ctx.weighted_fk(k, order)
            for d in range(order + 1):
                yield (f"k={k};t^{d}", lhs.coeffs[d], rhs.coeffs[d])
    return _poly_pair_report("FUNC-EQ", pairs(),
                             f"k<={SYMBOLIC_BOUND};N={order}")


def check_thm_s1(ctx: SymbolicContext) -> IdentityReport:
    """The right side sum_i weight(k,i) y*(n,i) is read as n! [t^n] of
    sum_i weight(k,i) F_i(t) (route A of every y*(n,i) at once)."""
    def pairs():
        for k in range(SYMBOLIC_BOUND + 1):
            weighted = ctx.weighted_fk(k, SYMBOLIC_BOUND)
            for n in range(SYMBOLIC_BOUND + 1):
                lhs = ParamPoly({(j, k - j): stirling1(k, j) * j**n
                                 for j in range(k + 1)})
                rhs = weighted.coeffs[n] * math.factorial(n)
                yield (f"(n,k)=({n},{k})", lhs, rhs)
                # a = 0 reduction: l^k k^n = sum_i (-1)^(k-i) C(k,i) i! y1(n,i)
                lhs0 = ParamPoly.term(k**n, k, 0)
                rhs0 = ParamPoly()
                for i in range(k + 1):
                    w0 = Fraction((-1) ** (k - i) * math.comb(k, i)
                                  * math.factorial(i))
                    rhs0 = rhs0 + ctx.y1(n, i) * w0
                yield (f"a=0;(n,k)=({n},{k})", lhs0, rhs0)
    return _poly_pair_report("THM-S1", pairs(), f"n,k<={SYMBOLIC_BOUND}")


def check_rel_s2a(ctx: SymbolicContext) -> IdentityReport:
    """y*(n,k) = (1/k!) sum_{i,j} S2a(k,i) s(i,j) j! y1(n,j), with the i-sum
    taken first: sum_j s2a_weight(k,j) y1(n,j), the same finite sum."""
    def pairs():
        for k in range(SYMBOLIC_BOUND + 1):
            for n in range(SYMBOLIC_BOUND + 1):
                rhs = ParamPoly()
                for j in range(k + 1):
                    rhs = rhs + ctx.s2a_weight(k, j) * ctx.y1(n, j)
                yield (f"(n,k)=({n},{k})", ctx.y(n, k), rhs)
    return _poly_pair_report("REL-S2A", pairs(), f"n,k<={SYMBOLIC_BOUND}")


def check_red_a0(ctx: SymbolicContext) -> IdentityReport:
    def pairs():
        for k in range(SYMBOLIC_BOUND + 1):
            for n in range(SYMBOLIC_BOUND + 1):
                yield (f"(n,k)=({n},{k})",
                       ctx.y(n, k).substitute(alpha=0), ctx.y1(n, k))
    return _poly_pair_report("RED-A0", pairs(), f"n,k<={SYMBOLIC_BOUND}")


def check_red_classical() -> IdentityReport:
    def pairs():
        for n in range(SYMBOLIC_BOUND + 1):
            for k in range(n + 1):
                yield (f"S2a->S2;(n,k)=({n},{k})",
                       deg_stirling2(n, k).substitute(alpha=0),
                       ParamPoly.const(stirling2(n, k)))
                yield (f"S1a->S1;(n,k)=({n},{k})",
                       deg_stirling1(n, k).substitute(alpha=0),
                       ParamPoly.const(stirling1(n, k)))
            for k in range(SYMBOLIC_BOUND + 1):
                yield (f"S2*->S2;(n,k)=({n},{k})",
                       ParamPoly.const(new_deg_stirling2(n, k, Fraction(0))),
                       ParamPoly.const(stirling2(n, k)))
    return _poly_pair_report("RED-CLASSICAL", pairs(),
                             f"n,k<={SYMBOLIC_BOUND}")


# ---------------------------------------------------------------------------
# Rational checks beyond the phi family.
# ---------------------------------------------------------------------------

def check_rel_s2star(ctx: PointContext, reading: str) -> IdentityReport:
    """The S2* decomposition at the context's point, which needs lam != 0,
    for n, k <= SYMBOLIC_BOUND.

    reading selects the summation-index/factor variant:
      "j"     sum index inside S2*, single l^j factor (the proved form)
      "k"     S2*(n,k|a/l) fixed outside the j dependence (as printed)
      "dup"   duplicated l^j factor (as in the printed derivation display)
      "zero0" like "j" but with S2*(n,0)=0 for all n (stated convention)

    y*(n,k), (l+1)_{m,a} and S2*(n,j|a/l) are read from the point's context.
    """
    lam0, alpha0 = ctx.lam, ctx.alpha
    if lam0 == 0:
        raise ValueError("the S2* relation needs lam != 0")
    rid = {"j": "REL-S2STAR", "k": "REL-S2STAR-KIDX",
           "dup": "REL-S2STAR-DUPL", "zero0": "REL-S2STAR-ZERO0"}[reading]
    status, mismatch = PASS, ""
    for k in range(SYMBOLIC_BOUND + 1):
        inv = Fraction(1, math.factorial(k))
        # the n-free factor of term j: (1/k!) C(k,j) j! l^j (l+1)_{k-j,a}
        weights = [inv * math.comb(k, j) * math.factorial(j)
                   * lam0 ** (2 * j if reading == "dup" else j)
                   * ctx.lam_falling(k - j) for j in range(k + 1)]
        if reading == "zero0":
            weights[0] = Fraction(0)
        for n in range(SYMBOLIC_BOUND + 1):
            lhs = ctx.y(n, k)
            rhs = Fraction(0)
            for j, weight in enumerate(weights):
                rhs += weight * ctx.s2star(n, k if reading == "k" else j)
            if lhs != rhs:
                status = FAIL if reading == "j" else EXPECTED_DISCREPANCY
                mismatch = f"(n,k)=({n},{k});lhs={lhs};rhs={rhs}"
                break
        if status != PASS:
            break
    return IdentityReport(rid, lam0, alpha0, f"n,k<={SYMBOLIC_BOUND}",
                          status, mismatch)


# ---------------------------------------------------------------------------
# Grid and suite runner.
# ---------------------------------------------------------------------------

def random_points(seed: int, count: int) -> list[tuple[Fraction, Fraction]]:
    """Seed-driven extra grid points with small numerators/denominators,
    avoiding the globally excluded values lam in {0,-1} and lam+alpha=-1."""
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        lam = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        alpha = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if lam in (0, -1) or lam + alpha == -1:
            continue
        points.append((lam, alpha))
    return points


def default_grid(seed: int = 0, extra: int = 2) -> list[tuple[Fraction, Fraction]]:
    return list(FIXED_POINTS) + random_points(seed, extra)


def run_suite(ids=None, *, order: int = 8, seed: int = 0,
              extra_points: int = 2, grid=None) -> list[IdentityReport]:
    """Run the selected registry entries (all by default) and return the
    deterministically ordered report list.

    Everything runs serially: the symbolic entries on one SymbolicContext,
    then the rational entries at each grid point on one PointContext that
    evaluates that SymbolicContext's route-A values."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if ids is None:
        selected = list(REGISTRY)
    else:
        unknown = [i for i in ids if i not in _BY_ID]
        if unknown:
            raise KeyError(f"unknown identity id(s): {', '.join(unknown)}")
        selected = [_BY_ID[i] for i in ids]
    if grid is None:
        grid = default_grid(seed, extra_points)

    # F_0..F_bound at the suite bound: route A then reads truncations and
    # never rebuilds an F_k for a larger n
    bound = max(SYMBOLIC_BOUND, order)
    for k in range(bound + 1):
        fk_series(k, bound)

    symbolic = SymbolicContext()
    reports = [_run_entry(entry, symbolic, order, 0)
               for entry in selected if entry.mode == "symbolic"]
    rational = [e for e in selected if e.mode == "rational"]
    if rational:
        for idx, point in enumerate(grid):
            ctx = PointContext(*point, symbolic)
            reports += [_run_entry(entry, ctx, order, idx)
                        for entry in rational]
    reports.sort(key=lambda r: (r.id, r.point_index))
    return reports


def _run_entry(entry: RegistryEntry, ctx, order: int,
               idx: int) -> IdentityReport:
    """entry.run(ctx, order), timed; an exception becomes an error report
    at the context's point, so it hides no other report."""
    start = time.perf_counter()
    try:
        report = entry.run(ctx, order)
    except Exception as exc:
        report = IdentityReport(entry.id, ctx.lam, ctx.alpha, "", ERROR,
                                f"{type(exc).__name__}: {exc}")
    report.wall_time = time.perf_counter() - start
    report.point_index = idx
    return report


def suite_failed(reports: list[IdentityReport]) -> bool:
    return any(r.status in (FAIL, ERROR) for r in reports)
