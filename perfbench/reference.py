"""Reference answers for the correctness gate, computed before any timing in
a separate process.

    python3 perfbench/reference.py < spec.json

`table`: the same CLI table by route B (explicit double sum), whose cells
must equal route A's.  `session`: y1star values and their point values by
route B; the phi_n and F_k rows from route B cells; S2*, higher-order
Bernoulli and Apostol-Euler numbers from the independent formulas below,
which share no code with the package.  Prints one JSON line.
"""

from __future__ import annotations

import contextlib
from fractions import Fraction
import io
import json
from math import comb, factorial
import sys

import degsimsek
import degsimsek.cli
from session import decode


def _mul(a: list, b: list, order: int) -> list:
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        if x:
            for j in range(order + 1 - i):
                out[i + j] += x * b[j]
    return out


def _reciprocal(a: list, order: int) -> list:
    inv0 = 1 / Fraction(a[0])
    out = [inv0]
    for m in range(1, order + 1):
        out.append(-inv0 * sum(a[j] * out[m - j] for j in range(1, m + 1)))
    return out


def _power(a: list, k: int, order: int) -> list:
    out = [Fraction(1)] + [Fraction(0)] * order
    for _ in range(k):
        out = _mul(out, a, order)
    return out


def bernoulli(n: int, k: int) -> Fraction:
    """B_n^(k) = n! [t^n] (t/(e^t - 1))^k."""
    shifted_exp = [Fraction(1, factorial(m + 1)) for m in range(n + 1)]
    return _power(_reciprocal(shifted_exp, n), k, n)[n] * factorial(n)


def s2star(n: int, k: int, alpha: Fraction) -> Fraction:
    """S2*(n,k|a) = (1/k!) sum_j c_j j! S2(n,j), where c_j are the
    coefficients of x(x-a)...(x-(k-1)a) and j! S2(n,j) counts surjections."""
    coeffs = [Fraction(1)]
    for i in range(k):
        shifted = [Fraction(0)] + coeffs
        coeffs = [s - i * alpha * c for s, c in zip(shifted, coeffs + [0])]
    total = Fraction(0)
    for j, c in enumerate(coeffs):
        surjections = sum((-1) ** (j - i) * comb(j, i) * i**n
                          for i in range(j + 1))
        total += c * surjections
    return total / factorial(k)


def apostol(n: int, k: int, lam: Fraction, alpha: Fraction) -> Fraction:
    """E_n^(k)(lam|a) = n! [t^n] (2/(lam e_a(t) + 1))^k, with
    e_a(t) = sum_m (1)(1-a)...(1-(m-1)a) t^m/m!."""
    half = []
    falling = Fraction(1)
    for m in range(n + 1):
        if m:
            falling *= 1 - (m - 1) * alpha
        half.append(lam * falling / factorial(m) / 2)
    half[0] += Fraction(1, 2)
    return _power(_reciprocal(half, n), k, n)[n] * factorial(n)


def session_answer(query: tuple) -> str:
    kind = query[0]
    y1star = degsimsek.y1star
    if kind == "y1star":
        _, n, k, _route = query
        return y1star(n, k, "B").render()
    if kind == "y1star_at":
        _, n, k, _route, lam, alpha = query
        return str(y1star(n, k, "B").evaluate(lam, alpha))
    if kind == "phi":
        _, n, lam, alpha, order = query
        cells = [str(y1star(n, k, "B").evaluate(lam, alpha))
                 for k in range(order + 1)]
        return "[" + ", ".join(cells) + "]"
    if kind == "fk":
        _, k, order = query
        cells = [(y1star(n, k, "B") * Fraction(1, factorial(n))).render()
                 for n in range(order + 1)]
        return "[" + ", ".join(cells) + "]"
    if kind == "s2star":
        _, n, k, alpha = query
        return str(s2star(n, k, alpha))
    if kind == "bernoulli":
        _, n, k = query
        return str(bernoulli(n, k))
    if kind == "apostol":
        _, n, k, lam, alpha = query
        return str(apostol(n, k, lam, alpha))
    raise ValueError(f"unknown query kind {kind!r}")


def main() -> None:
    spec = json.load(sys.stdin)
    if spec["workload"] == "table":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = degsimsek.cli.main(spec["argv"])
        result = {"exit": code, "output": out.getvalue()}
    else:
        answers = {}
        for query in spec["queries"]:
            key = json.dumps(query)
            if key not in answers:
                answers[key] = session_answer(decode(query))
        result = {"answers": answers}
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
