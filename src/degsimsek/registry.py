"""Identity registry and the verification suite runner.

Each entry is one identity with a stable id, a self-contained statement,
a mode and the callable that runs it on a context: "symbolic" entries hold
in (l, a), run once, all on one shared SymbolicContext, and compare values
in Z[l,a]; "rational" entries run at every grid point, all of them at one
point on one shared PointContext.  The symbolic checks and REL-S2STAR
compare n, k <= SYMBOLIC_BOUND whatever the suite's order.
Variant entries (suffixed ids) exercise alternative readings of ambiguous
statements or derived corrections; they can never fail the suite, only
report what they found.

The suite runs serially and is deterministic: for a fixed seed and grid
the report list (sorted by id, then point index), and hence its
serialization, is byte-identical for every run.  A rational entry at a
point outside its domain gives a "not-applicable" report there, which does
not fail the suite; an entry that raises gives an "error" report, which
does.  Either way the other reports are kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
import math
import random
import time
from typing import Callable

from .algebra import _combine, _int_terms, _over
from .classical import stirling1, stirling2
from .degenerate import _s2star_rows, deg_stirling1, deg_stirling2
from .phi import (PointContext, check_egf, check_f_transform,
                  check_log_substitution, check_phi_apostol,
                  check_phi_derivative, check_phi_integral,
                  check_phi_recurrence, merge_reports)
from .reports import (ERROR, EXPECTED_DISCREPANCY, FAIL, NOT_APPLICABLE,
                      PASS, IdentityReport)
from .simsek import (_route_c_printed, fk_series, scaled_y1star, simsek_y1,
                     y1star)  # noqa: F401 (perfbench's tracer test reads it)

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


def _everywhere(lam: Fraction, alpha: Fraction) -> bool:
    return True


def _lam_not_minus_one(lam: Fraction, alpha: Fraction) -> bool:
    """The Apostol-Euler weights 2/(lam e^t + 1) need lam != -1."""
    return lam != -1


def _corrected_divisor_nonzero(lam: Fraction, alpha: Fraction) -> bool:
    """The corrected weights 2/(lam e^t + 1 + alpha) need lam + 1 + alpha
    != 0."""
    return lam + 1 + alpha != 0


def _lam_nonzero(lam: Fraction, alpha: Fraction) -> bool:
    """S2*(n, j | alpha/lam) needs lam != 0."""
    return lam != 0


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
    # domain(lam, alpha) of a rational entry: outside it the suite reports
    # "not-applicable" without running the check
    domain: Callable[[Fraction, Fraction], bool] = \
        field(default=_everywhere, compare=False, repr=False)


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
                  "rational", lambda ctx, order: check_rel_s2star(ctx, "j"),
                  domain=_lam_nonzero),
    RegistryEntry("REL-S2STAR-KIDX", "variant with the fixed index "
                  "S2*(n,k|a/l) inside the sum; recorded as a rejected "
                  "reading", "rational",
                  lambda ctx, order: check_rel_s2star(ctx, "k"), "REL-S2STAR",
                  domain=_lam_nonzero),
    RegistryEntry("REL-S2STAR-DUPL", "variant with a duplicated l^j factor; "
                  "recorded as a rejected reading", "rational",
                  lambda ctx, order: check_rel_s2star(ctx, "dup"),
                  "REL-S2STAR", domain=_lam_nonzero),
    RegistryEntry("REL-S2STAR-ZERO0", "variant dropping the j=0 term per the "
                  "S2*(n,0)=0 convention; mismatches at n=0", "rational",
                  lambda ctx, order: check_rel_s2star(ctx, "zero0"),
                  "REL-S2STAR", domain=_lam_nonzero),
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
                                            ctx, order),
                  domain=_lam_not_minus_one),
    RegistryEntry("PHI-INT", "int_0^x phi_n = ((1+a x)/2) sum_i C(n,i) "
                  "E_{n-i}(l) phi_i - E_n(l)/2; exact at a=0, deterministic "
                  "discrepancy at a != 0", "rational",
                  lambda ctx, order: _per_n("PHI-INT", check_phi_integral,
                                            ctx, order, PHI_INT_N_VALUES),
                  domain=_lam_not_minus_one),
    RegistryEntry("PHI-INT-CORR", "integral identity with the corrected "
                  "divisor l e^t + 1 + a (derived here, not part of the "
                  "stated family)", "rational",
                  lambda ctx, order: _per_n("PHI-INT-CORR", check_phi_integral,
                                            ctx, order, PHI_INT_N_VALUES,
                                            corrected=True), "PHI-INT",
                  domain=_corrected_divisor_nonzero),
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

def _minus_one_falling(m: int) -> list[int]:
    """The coefficients of a^0, a^1, ... in (-1)_{m,a} =
    (-1)(-1-a)...(-1-(m-1)a)."""
    out = [1]
    for i in range(m):
        out = [-c - i * p for c, p in zip(out + [0], [0] + out)]
    return out


class SymbolicContext:
    """Everything the symbolic checks read, each value computed on first use
    and kept, all in integers, as terms {(deg_l, deg_a): c} of Z[l,a]: the
    scaled values Y(n,k) = k! y*(n,k) per route, the scaled Simsek numbers
    j! y1(n,j) and the THM-S1/FUNC-EQ sums.  Its route-A values are also
    the table every grid point's PointContext evaluates.
    Its point is (None, None): the symbolic checks hold in (l, a).
    Not locked: keep a context on one thread.
    """

    lam = alpha = None

    def __init__(self):
        self._scaled: dict[tuple[int, int, str], dict] = {}
        self._scaled_y1: dict[tuple[int, int], dict] = {}
        self._falling_sums: dict[tuple[int, int], dict] = {}

    def scaled(self, n: int, k: int, route: str = "A") -> dict:
        """Y(n,k) = k! y*(n,k) by the given route."""
        value = self._scaled.get((n, k, route))
        if value is None:
            value = self._scaled[(n, k, route)] = scaled_y1star(n, k, route)
        return value

    def scaled_y1(self, n: int, j: int) -> dict:
        """j! y1(n,j), the scaled Simsek number."""
        value = self._scaled_y1.get((n, j))
        if value is None:
            value = self._scaled_y1[(n, j)] = _int_terms(simsek_y1(n, j),
                                                         math.factorial(j))
        return value

    def falling_sum(self, k: int, n: int) -> dict:
        """sum_i (-1)_{k-i,a} C(k,i) Y(n,i): the right side of THM-S1, and
        n! [t^n] of the left side of FUNC-EQ."""
        value = self._falling_sums.get((k, n))
        if value is None:
            value = self._falling_sums[(k, n)] = _combine(
                (self.scaled(n, i), math.comb(k, i) * c, 0, e)
                for i in range(k + 1)
                for e, c in enumerate(_minus_one_falling(k - i)))
        return value


# ---------------------------------------------------------------------------
# Symbolic checks.  Each takes the suite's SymbolicContext first and compares
# n, k <= SYMBOLIC_BOUND.
# ---------------------------------------------------------------------------

def _pair_report(rid: str, pairs, orders: str,
                 mismatch_status: str = FAIL) -> IdentityReport:
    """Compare (location, lhs, rhs, den) quadruples, lhs and rhs the
    integer terms of den times each side, and record the first difference
    as the two sides' polynomials."""
    for loc, lhs, rhs, den in pairs:
        if lhs != rhs:
            text = (f"{loc};lhs={_over(lhs, den).render()};"
                    f"rhs={_over(rhs, den).render()}")
            return IdentityReport(rid, None, None, orders, mismatch_status,
                                  text)
    return IdentityReport(rid, None, None, orders, PASS)


def check_route_against_a(ctx: SymbolicContext, rid: str,
                          route: str) -> IdentityReport:
    def pairs():
        for k in range(SYMBOLIC_BOUND + 1):
            for n in range(SYMBOLIC_BOUND + 1):
                yield (f"(n,k)=({n},{k})", ctx.scaled(n, k, route),
                       ctx.scaled(n, k), math.factorial(k))
    return _pair_report(rid, pairs(), f"n,k<={SYMBOLIC_BOUND}")


def check_expl_c_printed(ctx: SymbolicContext) -> IdentityReport:
    def pairs():
        for k in range(SYMBOLIC_BOUND + 1):
            for n in range(SYMBOLIC_BOUND + 1):
                yield (f"(n,k)=({n},{k})", _route_c_printed(n, k),
                       ctx.scaled(n, k), math.factorial(k))
    return _pair_report("EXPL-C-PRINTED", pairs(), f"n,k<={SYMBOLIC_BOUND}",
                        mismatch_status=EXPECTED_DISCREPANCY)


def _lam_exp_falling(order: int):
    """Yield, for k = 0, 1, ..., the integer terms of N! [t^d] (l e^t)_{k,a}
    for d <= N = order: the OGF product of the factors l e^t - j a, j < k.
    Each factor's coefficients are kept scaled by N!, so a product is N!^2
    times the value and each of its coefficients is divided by N! once,
    exactly."""
    scale = math.factorial(order)
    lam_exp = [{(1, 0): scale // math.factorial(d)} for d in range(order + 1)]
    product = [{(0, 0): scale}] + [{}] * order
    j = 0
    while True:
        yield product
        factor = [_combine([(lam_exp[0], 1, 0, 0), ({(0, 1): scale}, -j, 0, 0)])]
        factor += lam_exp[1:]
        product = [{key: v // scale for key, v in _combine(
            (product[d - e], c, dl, da) for e in range(d + 1)
            for (dl, da), c in factor[e].items()).items()}
                   for d in range(order + 1)]
        j += 1


def check_func_eq(ctx: SymbolicContext, order: int) -> IdentityReport:
    """(l e^t)_{k,a} = sum_i (-1)_{k-i,a} C(k,i) i! F_i(t), both sides
    compared as N! = order! times their t^d coefficients, in integers: the
    left side's coefficient is falling_sum(k, d)/d!, the right side's comes
    from _lam_exp_falling."""
    scale = math.factorial(order)

    def pairs():
        for k, rhs in zip(range(SYMBOLIC_BOUND + 1), _lam_exp_falling(order)):
            for d in range(order + 1):
                weight = scale // math.factorial(d)
                lhs = {key: v * weight
                       for key, v in ctx.falling_sum(k, d).items()}
                yield f"k={k};t^{d}", lhs, rhs[d], scale
    return _pair_report("FUNC-EQ", pairs(), f"k<={SYMBOLIC_BOUND};N={order}")


def check_thm_s1(ctx: SymbolicContext) -> IdentityReport:
    """sum_j a^(k-j) s(k,j) l^j j^n = falling_sum(k, n), and its a = 0
    reduction l^k k^n = sum_i (-1)^(k-i) C(k,i) i! y1(n,i)."""
    def pairs():
        for k in range(SYMBOLIC_BOUND + 1):
            for n in range(SYMBOLIC_BOUND + 1):
                lhs = {(j, k - j): c for j in range(k + 1)
                       if (c := stirling1(k, j) * j**n)}
                yield f"(n,k)=({n},{k})", lhs, ctx.falling_sum(k, n), 1
                lhs0 = {(k, 0): k**n} if k**n else {}
                rhs0 = _combine((ctx.scaled_y1(n, i),
                                 (-1) ** (k - i) * math.comb(k, i), 0, 0)
                                for i in range(k + 1))
                yield f"a=0;(n,k)=({n},{k})", lhs0, rhs0, 1
    return _pair_report("THM-S1", pairs(), f"n,k<={SYMBOLIC_BOUND}")


def check_rel_s2a(ctx: SymbolicContext) -> IdentityReport:
    """k! y*(n,k) = sum_j c(k,j) j! y1(n,j) with the weight
    c(k,j) = sum_i S2a(k,i) s(i,j) in Z[a], taken once per k."""
    def pairs():
        for k in range(SYMBOLIC_BOUND + 1):
            weights = [_combine((_int_terms(deg_stirling2(k, i), 1),
                                 stirling1(i, j), 0, 0)
                                for i in range(j, k + 1))
                       for j in range(k + 1)]
            for n in range(SYMBOLIC_BOUND + 1):
                rhs = _combine((ctx.scaled_y1(n, j), c, dl, da)
                               for j, weight in enumerate(weights)
                               for (dl, da), c in weight.items())
                yield (f"(n,k)=({n},{k})", ctx.scaled(n, k), rhs,
                       math.factorial(k))
    return _pair_report("REL-S2A", pairs(), f"n,k<={SYMBOLIC_BOUND}")


def check_red_a0(ctx: SymbolicContext) -> IdentityReport:
    """The a-free terms of k! y*(n,k) are k! y1(n,k)."""
    def pairs():
        for k in range(SYMBOLIC_BOUND + 1):
            for n in range(SYMBOLIC_BOUND + 1):
                lhs = {key: c for key, c in ctx.scaled(n, k).items()
                       if key[1] == 0}
                yield (f"(n,k)=({n},{k})", lhs, ctx.scaled_y1(n, k),
                       math.factorial(k))
    return _pair_report("RED-A0", pairs(), f"n,k<={SYMBOLIC_BOUND}")


def check_red_classical() -> IdentityReport:
    """At a = 0 the degenerate Stirling triangles are the classical ones, and
    the table of j! S2*(n,j|0) (over q^size = 1) is j! S2(n,j)."""
    s2star, _ = _s2star_rows(Fraction(0), SYMBOLIC_BOUND)

    def const(c):
        return {(0, 0): c} if c else {}

    def at_a0(poly):
        return const(_int_terms(poly, 1).get((0, 0), 0))

    def pairs():
        for n in range(SYMBOLIC_BOUND + 1):
            for k in range(n + 1):
                yield (f"S2a->S2;(n,k)=({n},{k})", at_a0(deg_stirling2(n, k)),
                       const(stirling2(n, k)), 1)
                yield (f"S1a->S1;(n,k)=({n},{k})", at_a0(deg_stirling1(n, k)),
                       const(stirling1(n, k)), 1)
            for k in range(SYMBOLIC_BOUND + 1):
                yield (f"S2*->S2;(n,k)=({n},{k})", const(s2star[k][n]),
                       const(math.factorial(k) * stirling2(n, k)),
                       math.factorial(k))
    return _pair_report("RED-CLASSICAL", pairs(), f"n,k<={SYMBOLIC_BOUND}")


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

    Term j of the proved form is weights[j] * rows[j][n] / den, with the
    point's n-free weights C(k,j) l^j (l+1)_{k-j,a} and its table of
    j! S2*(n,j|a/l) (PointContext.s2star_weights and .s2star_table), so
    each right side is one integer dot product over den, compared with
    y*(n,k) from the point's context.
    """
    lam0, alpha0 = ctx.lam, ctx.alpha
    if lam0 == 0:
        raise ValueError("the S2* relation needs lam != 0")
    rid = {"j": "REL-S2STAR", "k": "REL-S2STAR-KIDX",
           "dup": "REL-S2STAR-DUPL", "zero0": "REL-S2STAR-ZERO0"}[reading]
    orders = f"n,k<={SYMBOLIC_BOUND}"
    rows, s2_den = ctx.s2star_table(SYMBOLIC_BOUND)
    for k in range(SYMBOLIC_BOUND + 1):
        weights, den = ctx.s2star_weights(k)
        den *= s2_den * math.factorial(k)
        if reading == "dup":
            p, q = lam0.numerator, lam0.denominator
            weights = [w * p**j * q**(k - j) for j, w in enumerate(weights)]
            den *= q**k
        elif reading == "zero0":
            weights = [0] + weights[1:]
        elif reading == "k":
            # S2*(n,k) = rows[k][n] / (k! s2_den) times sum_j j! weights[j]
            weights = [0] * k + [sum(w * math.factorial(j)
                                     for j, w in enumerate(weights))]
            den *= math.factorial(k)
        for n in range(SYMBOLIC_BOUND + 1):
            rhs = sum(w * rows[j][n] for j, w in enumerate(weights))
            lhs = ctx.y(n, k)
            if rhs * lhs.denominator != lhs.numerator * den:
                status = FAIL if reading == "j" else EXPECTED_DISCREPANCY
                return IdentityReport(
                    rid, lam0, alpha0, orders, status,
                    f"(n,k)=({n},{k});lhs={lhs};rhs={Fraction(rhs, den)}")
    return IdentityReport(rid, lam0, alpha0, orders, PASS)


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
        ids = list(dict.fromkeys(ids))  # a repeated id runs once
        if not ids:
            raise ValueError("run_suite needs at least one identity id")
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
    """entry.run(ctx, order), timed; a point outside the entry's domain
    gives a not-applicable report, and an exception an error report at the
    context's point, so neither hides another report."""
    start = time.perf_counter()
    try:
        if ctx.lam is None or entry.domain(ctx.lam, ctx.alpha):
            report = entry.run(ctx, order)
        else:
            report = IdentityReport(entry.id, ctx.lam, ctx.alpha, "",
                                    NOT_APPLICABLE)
    except Exception as exc:
        report = IdentityReport(entry.id, ctx.lam, ctx.alpha, "", ERROR,
                                f"{type(exc).__name__}: {exc}")
    report.wall_time = time.perf_counter() - start
    report.point_index = idx
    return report


def suite_failed(reports: list[IdentityReport]) -> bool:
    return any(r.status in (FAIL, ERROR) for r in reports)
