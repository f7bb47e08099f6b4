"""Identity-check reports and their canonical serializations.

A report is deterministic for fixed inputs.  Wall time is carried for
humans but deliberately excluded from the serialized forms, which must be
byte-identical across runs and worker counts.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
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

# ordering used when merging sub-checks into one report
_SEVERITY = {FAIL: 3, EXPECTED_DISCREPANCY: 2, PASS: 1, TRIVIALLY_TRUE: 0}


@dataclass
class IdentityReport:
    id: str
    lam: Fraction | None
    alpha: Fraction | None
    orders: str
    status: str
    mismatch: str = ""
    point_index: int = 0
    wall_time: float = 0.0

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


def merge_status(statuses: list[str]) -> str:
    """The dominant status of a family of sub-checks (fail wins, then
    expected-discrepancy, then pass, then trivially-true)."""
    if not statuses:
        return TRIVIALLY_TRUE
    return max(statuses, key=lambda s: _SEVERITY[s])


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
