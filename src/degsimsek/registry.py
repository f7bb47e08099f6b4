"""Identity registry and the verification suite runner.

Each entry is one identity, held as data: a stable id, a self-contained
statement, a mode, the stream of pairs it compares, its orders text and
the status of a mismatch.  "symbolic" entries hold in (l, a), run once,
and compare values in Z[l,a] that simsek and falling_sum compute once and
keep (FUNC-EQ reads route E's recurrence at c = 0 as well, on a triangle
of its own); "rational" entries run at every grid point, all of them at
one point on one shared PointContext.  The symbolic checks and REL-S2STAR
compare n, k <= SYMBOLIC_BOUND whatever the suite's order.  The S2* and
Apostol-Euler values they compare are the ones new_deg_stirling2 and
apostol_euler serve, read from the same chains.
Variant entries (suffixed ids) exercise alternative readings of ambiguous
statements or derived corrections.  A mismatch of a rejected reading
(EXPL-C-PRINTED and the REL-S2STAR variants) is expected-discrepancy,
which fails nothing; PHI-INT-CORR, the correction derived here, is held
to its identity, so a mismatch there is fail and fails the suite.

An entry's stream yields the (where, lhs, rhs) pairs it compares, in
order (a phi check yields those of one n, which its entry chains over n);
where holds a location template and its integers, written out only at a
mismatch.  _run_entry alone turns an entry into a report: reports.verdict
walks the stream to the first unequal pair and gives the entry's mismatch
status with the pair's text, and _run_entry adds the entry's orders and
id, the context's point and the point's index in the grid.

The suite runs serially and is deterministic: for a fixed seed and grid
the report list (sorted by id, then point index), and hence its
serialization, is byte-identical for every run.  A rational entry at a
point outside its domain gives a "not-applicable" report there, which does
not fail the suite; an entry that raises gives an "error" report, which
does.  Either way the other reports are kept.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from functools import partial
from itertools import chain
import math
import random

from .algebra import _combine, _over
from .classical import _stirling1_row, stirling1, stirling2
from .degenerate import _deg_rows, new_deg_stirling2
from .phi import (PointContext, check_egf, check_f_transform,
                  check_log_substitution, check_phi_apostol,
                  check_phi_derivative, check_phi_integral,
                  check_phi_recurrence)
from .reports import (ERROR, EXPECTED_DISCREPANCY, FAIL, NOT_APPLICABLE,
                      IdentityReport, _Record, verdict)
from .simsek import (_Triangle, _fill_k_recurrence, _route_c_printed,
                     fk_series, scaled_y1, scaled_y1star,
                     y1star)  # noqa: F401 (perfbench's tracer test reads it)

SYMBOLIC_BOUND = 8
_GRID_ORDERS = f"n,k<={SYMBOLIC_BOUND}"
_PHI_ORDERS = "K={order};n<=3"

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


def _fail(lam: Fraction | None, alpha: Fraction | None) -> str:
    return FAIL


def _rejected(lam: Fraction | None, alpha: Fraction | None) -> str:
    """A rejected reading: its mismatch is expected."""
    return EXPECTED_DISCREPANCY


def _exact_at_alpha_zero(lam: Fraction, alpha: Fraction) -> str:
    """The stated integral identity is exact only at alpha = 0."""
    return FAIL if alpha == 0 else EXPECTED_DISCREPANCY


class RegistryEntry(_Record):
    """One identity as data, equal by id, description, mode and variant_of,
    and not hashable.  pairs(ctx, order) yields the pairs it compares, ctx
    None for a symbolic entry; orders is their text, {order} standing for
    the suite's order; mismatch_status(lam, alpha) gives the status of a
    mismatch, and outside domain(lam, alpha) a rational entry reports
    "not-applicable" without running."""

    _FIELDS = ("id", "description", "mode", "variant_of")

    def __init__(self, id: str, description: str, mode: str, orders: str,
                 pairs: Callable, variant_of: str | None = None,
                 mismatch_status: Callable = _fail,
                 domain: Callable[[Fraction, Fraction], bool] = _everywhere):
        self.id = id
        self.description = description
        self.mode = mode  # "symbolic" | "rational"
        self.orders = orders
        self.pairs = pairs
        self.variant_of = variant_of
        self.mismatch_status = mismatch_status
        self.domain = domain


def _per_n(check, ctx, order: int, ns=PHI_N_VALUES, **options):
    """The pairs of one phi check for every n in ns at the context's
    point, chained in order of n."""
    return chain.from_iterable(check(ctx, n, order, **options) for n in ns)


# The callables look the checks up when they run, so a wrapper installed on
# a module-level name (a tracer, a test double) sees every call.
REGISTRY: tuple[RegistryEntry, ...] = (
    RegistryEntry("EXPL-B", "explicit double sum over C(l,j) a^(k-l) s(k,l) "
                  f"l^j j^n equals the series route, n,k <= {SYMBOLIC_BOUND}",
                  "symbolic", _GRID_ORDERS, lambda ctx, order: _grid(
                      lambda n, k: scaled_y1star(n, k, "B"), scaled_y1star)),
    RegistryEntry("EXPL-C", "explicit double sum with the (1)_{k-l,a} factor "
                  f"equals the series route, n,k <= {SYMBOLIC_BOUND}",
                  "symbolic", _GRID_ORDERS, lambda ctx, order: _grid(
                      lambda n, k: scaled_y1star(n, k, "C"), scaled_y1star)),
    RegistryEntry("EXPL-C-PRINTED", "step-j variant (1)_{k-l,j} of EXPL-C; "
                  "recorded as a rejected reading", "symbolic", _GRID_ORDERS,
                  lambda ctx, order: _grid(_route_c_printed, scaled_y1star),
                  "EXPL-C", _rejected),
    RegistryEntry("EXPL-D", "order-k Bernoulli-number formula equals the "
                  f"series route, n,k <= {SYMBOLIC_BOUND}",
                  "symbolic", _GRID_ORDERS, lambda ctx, order: _grid(
                      lambda n, k: scaled_y1star(n, k, "D"), scaled_y1star)),
    RegistryEntry("FUNC-EQ", "(l e^t)_{k,a} = sum_i (-1)_{k-i,a} C(k,i) i! "
                  "F_i(t), as series with ParamPoly coefficients, "
                  f"k <= {SYMBOLIC_BOUND}", "symbolic",
                  f"k<={SYMBOLIC_BOUND};N={{order}}",
                  lambda ctx, order: check_func_eq(order)),
    RegistryEntry("THM-S1", "sum_j a^(k-j) s(k,j) l^j j^n = sum_i (-1)_{k-i,a} "
                  "i! C(k,i) y*(n,i), plus its a=0 reduction, "
                  f"n,k <= {SYMBOLIC_BOUND}", "symbolic", _GRID_ORDERS,
                  lambda ctx, order: check_thm_s1()),
    RegistryEntry("REL-S2A", "y*(n,k) = (1/k!) sum_{i,j} S2a(k,i) s(i,j) j! "
                  f"y1(n,j), symbolic, n,k <= {SYMBOLIC_BOUND}", "symbolic",
                  _GRID_ORDERS, lambda ctx, order: check_rel_s2a()),
    RegistryEntry("REC-K", "column recurrence (k+1) y*(n,k+1) = l sum C(n,i) "
                  "y*(i,k) + (1-k a) y*(n,k) reproduces the series route",
                  "symbolic", _GRID_ORDERS, lambda ctx, order: _grid(
                      lambda n, k: scaled_y1star(n, k, "E"), scaled_y1star)),
    RegistryEntry("REC-N", "row recurrence for y*(n+1,k) from column k-1 "
                  "reproduces the series route",
                  "symbolic", _GRID_ORDERS, lambda ctx, order: _grid(
                      lambda n, k: scaled_y1star(n, k, "F"), scaled_y1star)),
    RegistryEntry("RED-A0", "substituting a=0 into y*(n,k) gives the plain "
                  f"Simsek numbers, n,k <= {SYMBOLIC_BOUND}", "symbolic",
                  _GRID_ORDERS, lambda ctx, order: check_red_a0()),
    RegistryEntry("RED-CLASSICAL", "degenerate Stirling triangles at a=0 "
                  "equal the classical ones; S2* at a=0 equals S2, "
                  f"n <= {SYMBOLIC_BOUND}", "symbolic", _GRID_ORDERS,
                  lambda ctx, order: check_red_classical()),
    RegistryEntry("REL-S2STAR", "y*(n,k) = (1/k!) sum_j C(k,j) j! l^j "
                  "(l+1)_{k-j,a} S2*(n,j|a/l) at rational points with l != 0",
                  "rational", _GRID_ORDERS,
                  lambda ctx, order: check_rel_s2star(ctx, "j"),
                  domain=_lam_nonzero),
    RegistryEntry("REL-S2STAR-KIDX", "variant with the fixed index "
                  "S2*(n,k|a/l) inside the sum; recorded as a rejected "
                  "reading", "rational", _GRID_ORDERS,
                  lambda ctx, order: check_rel_s2star(ctx, "k"),
                  "REL-S2STAR", _rejected, _lam_nonzero),
    RegistryEntry("REL-S2STAR-DUPL", "variant with a duplicated l^j factor; "
                  "recorded as a rejected reading", "rational", _GRID_ORDERS,
                  lambda ctx, order: check_rel_s2star(ctx, "dup"),
                  "REL-S2STAR", _rejected, _lam_nonzero),
    RegistryEntry("REL-S2STAR-ZERO0", "variant dropping the j=0 term per the "
                  "S2*(n,0)=0 convention; mismatches at n=0", "rational",
                  _GRID_ORDERS,
                  lambda ctx, order: check_rel_s2star(ctx, "zero0"),
                  "REL-S2STAR", _rejected, _lam_nonzero),
    RegistryEntry("PHI-EGF", "sum_n phi_n(x) t^n/n! = e_a^(l e^t + 1)(x) as a "
                  "bivariate truncated series", "rational",
                  "Nt={order};K={order}",
                  lambda ctx, order: check_egf(ctx, order)),
    RegistryEntry("PHI-LOG", "phi_n(x) = sum_k (log(1+a x)/a)^k y1(n,k); "
                  "trivially true at a=0", "rational", _PHI_ORDERS,
                  lambda ctx, order: _per_n(check_log_substitution, ctx,
                                            order)),
    RegistryEntry("PHI-REC", "phi_{n+1} = (l/a) log(1+a x) sum_i C(n,i) phi_i",
                  "rational", _PHI_ORDERS,
                  lambda ctx, order: _per_n(check_phi_recurrence, ctx, order)),
    RegistryEntry("PHI-DER", "(1+a x) phi_n' = l sum_i C(n,i) phi_i + phi_n",
                  "rational", _PHI_ORDERS,
                  lambda ctx, order: _per_n(check_phi_derivative, ctx, order)),
    RegistryEntry("PHI-AE", "(1+a x) sum_m C(n,m) E_{n-m}(l) phi_m' = 2 phi_n "
                  "with Apostol-Euler weights", "rational", _PHI_ORDERS,
                  lambda ctx, order: _per_n(check_phi_apostol, ctx, order),
                  domain=_lam_not_minus_one),
    RegistryEntry("PHI-INT", "int_0^x phi_n = ((1+a x)/2) sum_i C(n,i) "
                  "E_{n-i}(l) phi_i - E_n(l)/2; exact at a=0, deterministic "
                  "discrepancy at a != 0", "rational", _PHI_ORDERS,
                  lambda ctx, order: _per_n(check_phi_integral, ctx, order,
                                            PHI_INT_N_VALUES),
                  None, _exact_at_alpha_zero, _lam_not_minus_one),
    RegistryEntry("PHI-INT-CORR", "integral identity with the corrected "
                  "divisor l e^t + 1 + a (derived here, not part of the "
                  "stated family)", "rational", _PHI_ORDERS,
                  lambda ctx, order: _per_n(check_phi_integral, ctx, order,
                                            PHI_INT_N_VALUES, corrected=True),
                  "PHI-INT", domain=_corrected_divisor_nonzero),
    RegistryEntry("PHI-FT", "polynomial-transform identity for f in "
                  "{1, x, x^2, x^3-2x}", "rational", _PHI_ORDERS,
                  lambda ctx, order: chain.from_iterable(
                      check_f_transform(ctx, n, f, order)
                      for f in F_TRANSFORM_POLYS for n in PHI_N_VALUES)),
)

_BY_ID = {e.id: e for e in REGISTRY}


def registry_ids() -> list[str]:
    return [e.id for e in REGISTRY]


# ---------------------------------------------------------------------------
# Symbolic checks.  Each compares n, k <= SYMBOLIC_BOUND, in integers, as
# terms {(deg_l, deg_a): c} of Z[l,a]: the scaled values Y(n,k) = k! y*(n,k)
# of simsek.scaled_y1star per route, the scaled Simsek numbers j! y1(n,j) of
# simsek.scaled_y1 and the THM-S1/FUNC-EQ sums of falling_sum.
# ---------------------------------------------------------------------------

_falling_sums: dict[tuple[int, int], dict] = {}


def falling_sum(k: int, n: int) -> dict:
    """sum_i (-1)_{k-i,a} C(k,i) Y(n,i): the right side of THM-S1, and
    n! [t^n] of the right side of FUNC-EQ, with
    (-1)_{m,a} = sum_j s(m,j) (-1)^j a^(m-j); computed once per (k, n) and
    kept, so do not mutate the result."""
    value = _falling_sums.get((k, n))
    if value is None:
        value = _falling_sums[(k, n)] = _combine(
            (scaled_y1star(n, i), math.comb(k, i) * (-1) ** j * s1, 0,
             k - i - j)
            for i in range(k + 1)
            for j, s1 in enumerate(_stirling1_row(k - i)))
    return value


def _terms_text(where, lhs: dict, rhs: dict) -> str:
    """The mismatch text of the integer terms of den times two sides at
    where = (template, values, den): the location template.format(*values)
    and the two sides' polynomials."""
    template, values, den = where
    return (f"{template.format(*values)};lhs={_over(lhs, den).render()};"
            f"rhs={_over(rhs, den).render()}")


def _grid(left, right):
    """The pairs of left(n, k) and right(n, k), the integer terms of k!
    times each side, over k and then n <= SYMBOLIC_BOUND."""
    return ((("(n,k)=({},{})", (n, k), math.factorial(k)), left(n, k),
             right(n, k))
            for k in range(SYMBOLIC_BOUND + 1)
            for n in range(SYMBOLIC_BOUND + 1))


def check_func_eq(order: int):
    """(l e^t)_{k,a} = sum_i (-1)_{k-i,a} C(k,i) i! F_i(t), both sides
    compared as d! times their t^d coefficients, in integers, the sum
    first: falling_sum(k, d), then d! [t^d] (l e^t)_{k,a}, the cell (d, k)
    of route E's column recurrence at c = 0, from a triangle built for
    this call."""
    left = _Triangle(partial(_fill_k_recurrence, c=0))
    for k in range(SYMBOLIC_BOUND + 1):
        for d in range(order + 1):
            yield (("k={};t^{}", (k, d), math.factorial(d)),
                   falling_sum(k, d), left.get(d, k))


def check_thm_s1():
    """sum_j a^(k-j) s(k,j) l^j j^n = falling_sum(k, n), and its a = 0
    reduction l^k k^n = sum_i (-1)^(k-i) C(k,i) i! y1(n,i)."""
    for k in range(SYMBOLIC_BOUND + 1):
        for n in range(SYMBOLIC_BOUND + 1):
            lhs = {(j, k - j): c for j in range(k + 1)
                   if (c := stirling1(k, j) * j**n)}
            yield ("(n,k)=({},{})", (n, k), 1), lhs, falling_sum(k, n)
            lhs0 = {(k, 0): k**n} if k**n else {}
            rhs0 = _combine((scaled_y1(n, i),
                             (-1) ** (k - i) * math.comb(k, i), 0, 0)
                            for i in range(k + 1))
            yield ("a=0;(n,k)=({},{})", (n, k), 1), lhs0, rhs0


def check_rel_s2a():
    """k! y*(n,k) = sum_j c(k,j) j! y1(n,j) with the weight
    c(k,j) = sum_i S2a(k,i) s(i,j) in Z[a], taken once per k."""
    weights = []
    for k in range(SYMBOLIC_BOUND + 1):
        s2a = _deg_rows(k)[0]
        weights.append([_combine((s2a[i], stirling1(i, j), 0, 0)
                                 for i in range(j, k + 1))
                        for j in range(k + 1)])
    return _grid(scaled_y1star, lambda n, k: _combine(
        (scaled_y1(n, j), c, dl, da) for j, weight in enumerate(weights[k])
        for (dl, da), c in weight.items()))


def check_red_a0():
    """The a-free terms of k! y*(n,k) are k! y1(n,k)."""
    return _grid(lambda n, k: {key: c for key, c in scaled_y1star(n, k).items()
                               if key[1] == 0}, scaled_y1)


def check_red_classical():
    """At a = 0 the degenerate Stirling triangles are the classical ones, and
    new_deg_stirling2(n, k, 0) is S2(n,k), both sides times its
    denominator."""
    def const(c):
        return {(0, 0): c} if c else {}

    for n in range(SYMBOLIC_BOUND + 1):
        s2a, s1a = _deg_rows(n)
        for k in range(n + 1):
            yield (("S2a->S2;(n,k)=({},{})", (n, k), 1),
                   const(s2a[k].get((0, 0), 0)), const(stirling2(n, k)))
            yield (("S1a->S1;(n,k)=({},{})", (n, k), 1),
                   const(s1a[k].get((0, 0), 0)), const(stirling1(n, k)))
        for k in range(SYMBOLIC_BOUND + 1):
            s2star = new_deg_stirling2(n, k, 0)
            yield (("S2*->S2;(n,k)=({},{})", (n, k), s2star.denominator),
                   const(s2star.numerator),
                   const(s2star.denominator * stirling2(n, k)))


# ---------------------------------------------------------------------------
# Rational checks beyond the phi family.
# ---------------------------------------------------------------------------

def check_rel_s2star(ctx: PointContext, reading: str):
    """The pairs of the S2* decomposition at the context's point, which
    needs lam != 0, for k and then n <= SYMBOLIC_BOUND.

    reading selects the summation-index/factor variant:
      "j"     sum index inside S2*, single l^j factor (the proved form)
      "k"     S2*(n,k|a/l) fixed outside the j dependence (as printed)
      "dup"   duplicated l^j factor (as in the printed derivation display)
      "zero0" like "j" but with S2*(n,0)=0 for all n (stated convention)

    Term j of the proved form is weights[j] * rows[j][n] / den, with the
    point's n-free weights C(k,j) l^j (l+1)_{k-j,a} and its table of
    j! S2*(n,j|a/l) (PointContext.s2star_weights and .s2star_table), so
    each right side is one integer dot product over den.  It is compared
    in integers with Phi_n[k] = k! (q s)^k y*(n,k) from the point's context
    (lam = p/q, alpha = r/s): Phi_n[k] den = rhs k! (q s)^k.
    """
    if ctx.lam == 0:
        raise ValueError("the S2* relation needs lam != 0")
    rows, s2_den = ctx.s2star_table(SYMBOLIC_BOUND)
    for k in range(SYMBOLIC_BOUND + 1):
        weights, den = ctx.s2star_weights(k)
        den *= s2_den * math.factorial(k)
        if reading == "dup":
            p, q = ctx.lam.numerator, ctx.lam.denominator
            weights = [w * p**j * q**(k - j) for j, w in enumerate(weights)]
            den *= q**k
        elif reading == "zero0":
            weights = [0] + weights[1:]
        elif reading == "k":
            # S2*(n,k) = rows[k][n] / (k! s2_den) times sum_j j! weights[j]
            weights = [0] * k + [sum(w * math.factorial(j)
                                     for j, w in enumerate(weights))]
            den *= math.factorial(k)
        scale = math.factorial(k) * ctx.qs**k
        for n in range(SYMBOLIC_BOUND + 1):
            rhs = sum(w * rows[j][n] for j, w in enumerate(weights))
            yield (("(n,k)=({},{})", (n, k), k, den),
                   ctx.phi_row(n, k)[k] * den, rhs * scale)


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

    Everything runs serially: the symbolic entries first, then the rational
    entries at each grid point on one PointContext, which evaluates the
    route-A values the symbolic entries read."""
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

    # F_0..F_bound at the bound of what the selection compares: route A
    # then reads truncations and never rebuilds an F_k for a larger n
    bound = max([SYMBOLIC_BOUND] + [order for entry in selected
                                    if "{order}" in entry.orders])
    for k in range(bound + 1):
        fk_series(k, bound)

    reports = [_run_entry(entry, None, order, 0)
               for entry in selected if entry.mode == "symbolic"]
    rational = [e for e in selected if e.mode == "rational"]
    if rational:
        for idx, point in enumerate(grid):
            ctx = PointContext(*point)
            reports += [_run_entry(entry, ctx, order, idx)
                        for entry in rational]
    reports.sort(key=lambda r: (r.id, r.point_index))
    return reports


def _run_entry(entry: RegistryEntry, ctx: PointContext | None, order: int,
               idx: int) -> IdentityReport:
    """The report of entry at point idx of the grid, ctx None for a
    symbolic entry: the verdict of the pairs it compares, written with
    _terms_text or with the context's describe, under the entry's id,
    orders and the context's point.  A point outside the entry's domain
    gives a not-applicable report, and an exception an error report, so
    neither hides another report."""
    lam, alpha = (None, None) if ctx is None else (ctx.lam, ctx.alpha)
    orders, status, mismatch = "", NOT_APPLICABLE, ""
    try:
        if ctx is None or entry.domain(lam, alpha):
            status, mismatch = verdict(
                entry.pairs(ctx, order),
                _terms_text if entry.mode == "symbolic" else ctx.describe,
                entry.mismatch_status(lam, alpha))
            orders = entry.orders.format(order=order)
    except Exception as exc:
        orders, status, mismatch = "", ERROR, f"{type(exc).__name__}: {exc}"
    return IdentityReport(entry.id, lam, alpha, orders, status, mismatch, idx)


def suite_failed(reports: list[IdentityReport]) -> bool:
    return any(r.status in (FAIL, ERROR) for r in reports)
