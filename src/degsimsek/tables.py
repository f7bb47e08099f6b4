"""Rectangular (n,k)-tables of number-family values, with deterministic
CSV and JSON serializations.

Entries are stored as canonical text (rationals as "p/q", polynomials as
"c*l^i*a^j" sums), never as decimals, so emitted bytes are reproducible
and a table read back with csv.reader or json.loads holds them exactly.
"""

from __future__ import annotations

import csv
from fractions import Fraction
import io
import json

from .algebra import ParamPoly, render_scalar
from .classical import bernoulli_number, stirling1, stirling2
from .degenerate import deg_stirling1, deg_stirling2, new_deg_stirling2
from .reports import _Record
from .simsek import ROUTES, deg_simsek_y1, simsek_y1, y1star

KIT_VERSION = "0.1.0"

# family -> (its value at (n, k, route, alpha), the substitutions it
# accepts, its routes); a value is an int, a Fraction or a ParamPoly, and
# only s2star reads alpha, which it takes rational or symbolic.
FAMILY_TABLE = {
    "stirling1": (lambda n, k, *_: stirling1(n, k), (), ()),
    "stirling2": (lambda n, k, *_: stirling2(n, k), (), ()),
    "deg-stirling1": (lambda n, k, *_: deg_stirling1(n, k), ("alpha",), ()),
    "deg-stirling2": (lambda n, k, *_: deg_stirling2(n, k), ("alpha",), ()),
    "s2star": (lambda n, k, route, alpha: new_deg_stirling2(
        n, k, ParamPoly.alpha() if alpha is None else alpha), ("alpha",), ()),
    "bernoulli": (lambda n, k, *_: bernoulli_number(n, k), (), ()),
    "y1": (lambda n, k, *_: simsek_y1(n, k), ("lambda",), ()),
    "y1deg": (lambda n, k, *_: deg_simsek_y1(n, k), ("lambda", "alpha"), ()),
    "y1star": (lambda n, k, route, alpha: y1star(n, k, route),
               ("lambda", "alpha"), ROUTES),
}
FAMILIES = tuple(FAMILY_TABLE)


class TableUsageError(ValueError):
    """Invalid family/route/substitution combination."""


class NumberTable(_Record):
    _FIELDS = ("family", "route", "n_max", "k_max", "lam", "alpha",
               "entries", "version")

    def __init__(self, family: str, route: str, n_max: int, k_max: int,
                 lam: Fraction | None, alpha: Fraction | None,
                 entries: list[list[str]], version: str = KIT_VERSION):
        self.family = family
        self.route = route  # "" when the family has no routes
        self.n_max = n_max
        self.k_max = k_max
        self.lam = lam
        self.alpha = alpha
        self.entries = entries  # rows indexed by n, columns by k
        self.version = version


def _specialize(value, lam, alpha) -> str:
    """Canonical text of a family value after optional substitution."""
    if not isinstance(value, ParamPoly):
        return render_scalar(value)
    if lam is not None and alpha is not None:
        return str(value.evaluate(lam, alpha))
    if lam is not None or alpha is not None:
        value = value.substitute(lam=lam, alpha=alpha)
    return value.render()


def build_table(family: str, route: str | None, n_max: int, k_max: int,
                lam=None, alpha=None) -> NumberTable:
    if family not in FAMILY_TABLE:
        raise TableUsageError(f"unknown family {family!r}")
    value, params, routes = FAMILY_TABLE[family]
    if route and not routes:
        raise TableUsageError(f"family {family!r} has no routes")
    if lam is not None and "lambda" not in params:
        raise TableUsageError(f"family {family!r} takes no lambda substitution")
    if alpha is not None and "alpha" not in params:
        raise TableUsageError(f"family {family!r} takes no alpha substitution")
    if n_max < 0 or k_max < 0:
        raise TableUsageError("table bounds must be non-negative")
    lam = None if lam is None else Fraction(lam)
    alpha = None if alpha is None else Fraction(alpha)
    route = route or (routes[0] if routes else "")

    # top row first: route A then builds each F_k once, at order n_max,
    # which publishes every lower row's value into the route-A store
    entries = [[_specialize(value(n, k, route, alpha), lam, alpha)
                for k in range(k_max + 1)]
               for n in range(n_max, -1, -1)]
    entries.reverse()
    return NumberTable(family, route, n_max, k_max, lam, alpha, entries)


def _param_text(value: Fraction | None) -> str:
    return "symbolic" if value is None else str(value)


def render_csv(table: NumberTable) -> str:
    """The table as CSV: the rows family, route, n_max, k_max, lambda,
    alpha and version, each a name and its value ("symbolic" for a
    parameter left symbolic); the header row n\\k, 0, ..., k_max; then
    for each n the row n, cell_0, ..., cell_k_max."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerows([
        ["family", table.family],
        ["route", table.route],
        ["n_max", table.n_max],
        ["k_max", table.k_max],
        ["lambda", _param_text(table.lam)],
        ["alpha", _param_text(table.alpha)],
        ["version", table.version],
        ["n\\k", *range(table.k_max + 1)],
    ])
    writer.writerows([n, *row] for n, row in enumerate(table.entries))
    return out.getvalue()


def render_json(table: NumberTable) -> str:
    """The table as one JSON object, keys sorted: family, route, n_range
    [0, n_max], k_range [0, k_max], lambda and alpha as render_csv writes
    them, version, and entries, the list of rows of cells."""
    doc = {
        "family": table.family,
        "route": table.route,
        "n_range": [0, table.n_max],
        "k_range": [0, table.k_max],
        "lambda": _param_text(table.lam),
        "alpha": _param_text(table.alpha),
        "version": table.version,
        "entries": table.entries,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
