"""Acceptance criteria for the kit, one test per criterion.

Each test prints a single [acceptance] PASS/FAIL line (run pytest with -s
to see them all).  Every comparison is exact: the tolerance is zero
everywhere, and runtime budgets are asserted where stated.
"""

from fractions import Fraction
import math
import subprocess
import sys
import time

import pytest

from degsimsek.algebra import ParamPoly
from degsimsek.classical import bernoulli_number, stirling1, stirling2
from degsimsek.degenerate import deg_stirling1, deg_stirling2
from degsimsek.registry import FIXED_POINTS, run_suite
from degsimsek.simsek import ROUTES, y1star

from oracles import (count_partitions, falling, falling_factorial_coeffs,
                     reciprocal_solve, sub)

L = ParamPoly.lam()
A = ParamPoly.alpha()

N_MAX = 10


def _report(criterion: str, ok: bool) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion failed: {criterion}"


@pytest.fixture(scope="module")
def fixed_point_reports():
    ids = ["PHI-EGF", "PHI-LOG", "PHI-REC", "PHI-DER", "PHI-AE", "PHI-FT",
           "PHI-INT", "PHI-INT-CORR", "REL-S2STAR"]
    start = time.perf_counter()
    reports = run_suite(ids, order=8, grid=list(FIXED_POINTS))
    return reports, time.perf_counter() - start


def test_criterion_1_route_equivalence():
    start = time.perf_counter()
    ok = True
    for n in range(N_MAX + 1):
        for k in range(N_MAX + 1):
            reference = y1star(n, k, "A")
            for route in ROUTES[1:]:
                if y1star(n, k, route) != reference:
                    ok = False
    elapsed = time.perf_counter() - start
    _report(f"1 route equivalence A-F on 0<=n,k<=10 ({elapsed:.2f}s)",
            ok and elapsed < 10.0)


def test_criterion_2_special_case_columns():
    ok = True
    for n in range(N_MAX + 1):
        delta = 1 if n == 0 else 0
        ok &= y1star(n, 0) == delta
        ok &= y1star(n, 1) == delta + L
    for k in range(N_MAX + 1):
        expected = falling(L + 1, k, A) \
            * Fraction(1, math.factorial(k))
        ok &= y1star(0, k) == expected
    _report("2 special cases y*(n,0), y*(n,1), y*(0,k) symbolic", bool(ok))


def test_criterion_3_alpha_zero_degeneration():
    ok = True
    for n in range(N_MAX + 1):
        for k in range(N_MAX + 1):
            formula = ParamPoly()
            inv = Fraction(1, math.factorial(k))
            for j in range(k + 1):
                c = inv * math.comb(k, j) * j**n
                if c:
                    formula = formula + ParamPoly({(j, 0): c})
            ok &= y1star(n, k).substitute(alpha=0) == formula
    _report("3 alpha=0 degeneration to plain Simsek numbers, n,k<=10",
            bool(ok))


def test_criterion_4_symbolic_identity_suite():
    ids = ["FUNC-EQ", "THM-S1", "REL-S2A", "REC-K", "REC-N", "RED-A0",
           "RED-CLASSICAL", "EXPL-B", "EXPL-C", "EXPL-D"]
    start = time.perf_counter()
    reports = run_suite(ids, order=8)
    elapsed = time.perf_counter() - start
    ok = all(r.status == "pass" for r in reports)
    _report(f"4 symbolic identity suite, indices <=8 ({elapsed:.2f}s)",
            ok and elapsed < 30.0)


def test_criterion_5_rational_identity_suite(fixed_point_reports):
    reports, elapsed = fixed_point_reports
    checked = [r for r in reports
               if r.id in ("PHI-EGF", "PHI-LOG", "PHI-REC", "PHI-DER",
                           "PHI-AE", "PHI-FT", "REL-S2STAR")]
    assert len(checked) == 7 * len(FIXED_POINTS)
    ok = all(r.status in ("pass", "trivially-true") for r in checked)
    # trivially-true only for PHI-LOG at its alpha=0 point
    ok &= all(r.status == "pass" for r in checked
              if not (r.id == "PHI-LOG" and r.alpha == 0))
    _report(f"5 rational suite at 5 fixed points, order 8 ({elapsed:.2f}s)",
            ok and elapsed < 60.0)


def test_criterion_6_integral_theorem_policy(fixed_point_reports):
    reports, _ = fixed_point_reports
    ints = [r for r in reports if r.id == "PHI-INT"]
    corrs = [r for r in reports if r.id == "PHI-INT-CORR"]
    assert len(ints) == len(FIXED_POINTS) and len(corrs) == len(FIXED_POINTS)
    ok = True
    for r in ints:
        if r.alpha == 0:
            ok &= r.status == "pass"
        else:
            ok &= r.status == "expected-discrepancy" and bool(r.mismatch)
    # regression lock: deterministic first mismatches at two pinned points
    locked = {(Fraction(1), Fraction(1, 2)): "n=1;x^1;lhs=0;rhs=-1/8",
              (Fraction(2, 3), Fraction(1, 3)): "n=1;x^1;lhs=0;rhs=-2/25"}
    for r in ints:
        want = locked.get((r.lam, r.alpha))
        if want is not None:
            ok &= r.mismatch == want
    # the corrected-divisor variant is reported alongside and passes
    ok &= all(r.status == "pass" for r in corrs)
    _report("6 integral theorem: exact at alpha=0, locked discrepancy "
            "otherwise, corrected variant reported", bool(ok))


def test_criterion_7_golden_oracle_values():
    ok = count_partitions(4, 2) == 7 == stirling2(4, 2)

    expansion = falling_factorial_coeffs(3)
    ok &= expansion[2] == -3 == stirling1(3, 2)
    ok &= expansion[1] == 2 == stirling1(3, 1)

    recip = reciprocal_solve([1, Fraction(1, 2), Fraction(1, 6)], 2)
    ok &= recip[1] * math.factorial(1) == Fraction(-1, 2) == bernoulli_number(1, 1)
    ok &= recip[2] * math.factorial(2) == Fraction(1, 6) == bernoulli_number(2, 1)

    # hand expansion of F_2 to order 1: factors (l+1)+l t and (l+1-a)+l t
    hand = ((L + 1) * L + L * sub(L + 1, A)) * Fraction(1, 2)
    ok &= hand == sub(L * L + L, L * A * Fraction(1, 2))
    ok &= all(y1star(1, 2, route) == hand for route in ROUTES)

    # x(x-a) - (x)_2 = (1-a) x  and  (x)_2 - x(x-a) = (a-1) x
    diff2 = sub(falling(L, 2, A), falling(L, 2, 1))
    ok &= diff2 == sub(1, A) * L and deg_stirling2(2, 1) == sub(1, A)
    diff1 = sub(falling(L, 2, 1), falling(L, 2, A))
    ok &= diff1 == sub(A, 1) * L and deg_stirling1(2, 1) == sub(A, 1)

    _report("7 golden values pinned by independent oracles", bool(ok))


def test_criterion_8_suite_determinism():
    # `verify` in a fresh interpreter per run; --workers is accepted and
    # ignored, so the bytes must not depend on it
    ok = True
    for fmt in ("csv", "json"):
        runs = [subprocess.run(
            [sys.executable, "-m", "degsimsek.cli", "verify", "--order", "8",
             "--seed", "7", "--random-points", "2", "--format", fmt,
             "--workers", workers], capture_output=True, text=True)
            for workers in ("1", "3")]
        ok &= all(r.returncode == 0 and r.stdout for r in runs)
        ok &= runs[0].stdout == runs[1].stdout
    _report("8 verify is byte-identical for fixed seed across worker counts",
            bool(ok))
