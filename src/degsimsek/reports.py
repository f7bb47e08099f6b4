"""Identity-check reports and their canonical serializations.

A report is deterministic for fixed inputs, and so are its serialized
forms, which are byte-identical across runs and worker counts.
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

# ordering used when merging the verdicts of sub-checks into one
_SEVERITY = {FAIL: 3, EXPECTED_DISCREPANCY: 2, PASS: 1, TRIVIALLY_TRUE: 0}


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


def merge_verdicts(verdicts: list[tuple[str, str]]) -> tuple[str, str]:
    """The (status, mismatch) verdict of a family of sub-checks from theirs:
    the dominant status (fail wins, then expected-discrepancy, then pass,
    then trivially-true, which is also the verdict of no sub-check), and
    the mismatch of the first sub-check that failed or found an expected
    discrepancy."""
    status = max((s for s, _ in verdicts), key=_SEVERITY.__getitem__,
                 default=TRIVIALLY_TRUE)
    mismatch = next((m for s, m in verdicts
                     if s in (FAIL, EXPECTED_DISCREPANCY)), "")
    return status, mismatch


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
