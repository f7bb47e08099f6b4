"""Identity-check reports and their canonical serializations.

A report is deterministic for fixed inputs, and so are its serialized
forms, which are byte-identical across runs.
"""

from __future__ import annotations

import csv
from fractions import Fraction
import io
import json

PASS = "pass"
FAIL = "fail"
EXPECTED_DISCREPANCY = "expected-discrepancy"
TRIVIALLY_TRUE = "trivially-true"
# the check raised; the suite records "<Type>: <message>" as the mismatch
ERROR = "error"
# the point lies outside the identity's domain; the check did not run
NOT_APPLICABLE = "not-applicable"


class _Record:
    """Base of the record classes: equal when of one class with equal
    `_FIELDS`, shown as Class(field=value, ...).  Written out, not made by
    `dataclasses`, whose import (inspect, ast, dis, tokenize) would add to
    the start-up of every CLI call."""

    _FIELDS: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._FIELDS)
        return f"{type(self).__qualname__}({fields})"


class IdentityReport(_Record):
    _FIELDS = ("id", "lam", "alpha", "orders", "status", "mismatch",
               "point_index")

    def __init__(self, id: str, lam: Fraction | None, alpha: Fraction | None,
                 orders: str, status: str, mismatch: str = "",
                 point_index: int = 0):
        self.id = id
        self.lam = lam
        self.alpha = alpha
        self.orders = orders
        self.status = status
        self.mismatch = mismatch
        self.point_index = point_index

    @property
    def point_text(self) -> str:
        if self.lam is None and self.alpha is None:
            return "symbolic"
        return f"lambda={self.lam};alpha={self.alpha}"

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "lambda": None if self.lam is None else str(self.lam),
            "alpha": None if self.alpha is None else str(self.alpha),
            "orders": self.orders,
            "status": self.status,
            "mismatch": self.mismatch,
        }


CSV_FIELDS = ("id", "lambda", "alpha", "orders", "status", "mismatch")


def verdict(pairs, describe, mismatch_status: str = FAIL) -> tuple[str, str]:
    """The (status, mismatch) verdict of a check from the (where, lhs, rhs)
    triples it compares, walked in order: mismatch_status and
    describe(where, lhs, rhs) at the first unequal pair, pass when every
    pair is equal, and trivially-true when there was no pair, so a check
    that compared nothing never says pass."""
    status = TRIVIALLY_TRUE
    for where, lhs, rhs in pairs:
        if lhs != rhs:
            return mismatch_status, describe(where, lhs, rhs)
        status = PASS
    return status, ""


def reports_to_json(reports: list[IdentityReport]) -> str:
    return json.dumps([r.to_dict() for r in reports],
                      sort_keys=True, indent=2) + "\n"


def reports_to_csv(reports: list[IdentityReport]) -> str:
    """One row per report, quoted where a field holds a comma; a symbolic
    report's point is two empty fields."""
    out = io.StringIO()
    writer = csv.DictWriter(out, CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(r.to_dict() for r in reports)
    return out.getvalue()
