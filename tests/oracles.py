"""Independent oracles used to pin golden values.

Everything here is deliberately written from first principles (enumeration,
list convolution, triangular solves) without importing the package under
test, so a value computed here is evidence, not an echo.
"""

from fractions import Fraction
import math


def set_partitions(items):
    """All partitions of a list into non-empty blocks."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [[head] + partition[i]] + partition[i + 1:]
        yield [[head]] + partition


def count_partitions(n: int, blocks: int | None = None) -> int:
    total = 0
    for partition in set_partitions(list(range(n))):
        if blocks is None or len(partition) == blocks:
            total += 1
    return total


def poly_mul(a, b):
    """Convolution of two coefficient lists."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += Fraction(ca) * Fraction(cb)
    return out


def falling_factorial_coeffs(n: int):
    """Coefficients of x(x-1)...(x-n+1) by repeated convolution."""
    coeffs = [Fraction(1)]
    for i in range(n):
        coeffs = poly_mul(coeffs, [Fraction(-i), Fraction(1)])
    return coeffs


def reciprocal_solve(a, order: int):
    """Solve a*b = 1 for the coefficient list b by the triangular system
    b_0 = 1/a_0, b_m = -(1/a_0) * sum_{j=1..m} a_j b_{m-j}."""
    a = [Fraction(c) for c in a] + [Fraction(0)] * (order + 1 - len(a))
    inv0 = 1 / a[0]
    b = [inv0]
    for m in range(1, order + 1):
        b.append(-inv0 * sum(a[j] * b[m - j] for j in range(1, m + 1)))
    return b


def s2star_table_reference(ratio, bound: int):
    """table[j][n] = S2*(n, j | ratio) = n!/j! [t^n] prod_{i<j} (e^t-1-i*ratio)
    for n, j <= bound, by truncated list convolution."""
    ratio = Fraction(ratio)
    em1 = [Fraction(0)] + [Fraction(1, math.factorial(d))
                           for d in range(1, bound + 1)]
    product = [Fraction(1)] + [Fraction(0)] * bound
    table = []
    for j in range(bound + 1):
        table.append([product[n] * Fraction(math.factorial(n), math.factorial(j))
                      for n in range(bound + 1)])
        factor = [em1[0] - j * ratio] + em1[1:]
        product = poly_mul(product, factor)[: bound + 1]
    return table


def rel_s2star_reference(lam, alpha, y, reading: str, bound: int = 8):
    """(status, mismatch) of the S2* relation at (lam, alpha), lam != 0, for
    n, k <= bound, summed term by term in Fractions:
    y(n,k) = (1/k!) sum_j C(k,j) j! lam^j (lam+1)_{k-j,alpha} S2*(n,j|alpha/lam),
    with the readings "j" (as written), "k" (S2*(n,k) for every j), "dup"
    (lam^(2j)) and "zero0" (no j = 0 term).  y(n, k) gives y*(n,k) at the
    point."""
    lam, alpha = Fraction(lam), Fraction(alpha)
    s2star = s2star_table_reference(alpha / lam, bound)
    falling = [Fraction(1)]  # (lam+1)_{m,alpha}
    for i in range(bound):
        falling.append(falling[-1] * (lam + 1 - alpha * i))
    for k in range(bound + 1):
        weights = [Fraction(math.comb(k, j) * math.factorial(j),
                            math.factorial(k))
                   * lam ** (2 * j if reading == "dup" else j) * falling[k - j]
                   for j in range(k + 1)]
        if reading == "zero0":
            weights[0] = Fraction(0)
        for n in range(bound + 1):
            lhs = y(n, k)
            rhs = sum((w * s2star[k if reading == "k" else j][n]
                       for j, w in enumerate(weights)), Fraction(0))
            if lhs != rhs:
                status = "fail" if reading == "j" else "expected-discrepancy"
                return status, f"(n,k)=({n},{k});lhs={lhs};rhs={rhs}"
    return "pass", ""
