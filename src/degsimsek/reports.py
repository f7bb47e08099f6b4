"""Identity-check reports and their canonical serializations.

A report is deterministic for fixed inputs.  Wall time is carried for
humans but deliberately excluded from the serialized forms, which must be
byte-identical across runs and worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import json

PASS = "pass"
FAIL = "fail"
EXPECTED_DISCREPANCY = "expected-discrepancy"
TRIVIALLY_TRUE = "trivially-true"
# the check raised; the suite records "<Type>: <message>" as the mismatch
ERROR = "error"

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

    def csv_line(self) -> str:
        lam = "" if self.lam is None else str(self.lam)
        alpha = "" if self.alpha is None else str(self.alpha)
        return f"{self.id},{lam},{alpha},{self.orders},{self.status},{self.mismatch}"


CSV_HEADER = "id,lambda,alpha,orders,status,mismatch"


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
    lines = [CSV_HEADER]
    lines.extend(r.csv_line() for r in reports)
    return "\n".join(lines) + "\n"
