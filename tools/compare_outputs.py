"""Compare the CLI output of two source trees, byte for byte.

    python3 tools/compare_outputs.py OLD_ROOT NEW_ROOT

Each ROOT is a checkout of this repository, absolute or relative to the
working directory; the CLI runs from ROOT/src in a fresh interpreter per
case, two cases at a time.  The matrix: `verify --list`, which prints
every registry entry's id, mode, description and variant; `verify` for
seeds 0/7/41 x order 2/8/12 x text/csv/json and for seed 0 x order 1/16
x text/csv/json; once with the argv of `perfbench`'s verify workload,
whose `--workers 2` the CLI accepts and ignores; with `--random-points 8`
at seeds 3 and 11, at seed 19 with order 12 and at seeds 23 and 29 with
order 10, for the REL-S2STAR family, PHI-LOG and PHI-FT alone at orders 3
and 12, for the eight phi checks alone at orders 1, 2 and 16, and for the
symbolic route, recurrence and reduction checks alone at orders 1 and 16,
as JSON;
`table --family y1star`
for routes A-F, symbolic and at two rational points, as CSV and JSON;
`table` for all nine families, symbolic and with --lambda, --alpha or both
wherever the family accepts them, as CSV and JSON;
`compute` and `series` for the families y1, y1deg and y1star, symbolic,
with --lambda only, --alpha only and both, where the CLI accepts the
combination; five larger symbolic cases, where more terms cancel: the
route-A products of `table --family y1star` at 12x12 and `series
--family y1star --k 8 --order 12`, the Stirling-1 sums of `table
--family s2star` at 10x10, and the degenerate Stirling triangles of
`table --family deg-stirling1` and `deg-stirling2` at 16x16; `series
--family y1star --k 56 --order 56` at (-7/11, 13/17), F_k at a point at
the size cap; and `phi` at three points: 152 cases in all, 144 CLI calls and
eight streams.  The eight stream cases run a fixed stream of library
reads with revisits in one interpreter each, with every
answer rendered on its own line, so that a value that changes when it is
read again shows.  The library stream reads `y1star` by every route, its
value at four rational points (one with lambda = 0, one with the large
coprime denominators of (-7/11, 13/17)) before the value is rendered,
`phi_series` at two of them each pass, and `fk_series`.  The suite
stream first reads `new_deg_stirling2` at every alpha/lambda of the seed-7
grid and `apostol_euler(n, 1, lambda, 0)` at its lambda values, to order
14, so that the suites then read the chains behind them held above their
size; it runs `run_suite` twice, at order 12 with seed 7 and then at order
8 with seed 3, and prints both report lists as JSON; it then reads
`scaled_y1star` by every route for n, k <= 12.  A module memo that
outlives a suite, and that a fresh interpreter per case cannot see, shows
there.  The series stream reads `new_deg_stirling2` with rational alpha
and with the symbolic alphas a, 2a, l + a and 0 (a ParamPoly),
`bernoulli_number`, `apostol_euler` and `fk_series` at a point; it builds
series with `TruncSeries` from Fraction coefficients it sums itself, a
polynomial in e^t - 1, and applies `==` and `truncate` to them.
It then reads `apostol_euler`, `new_deg_stirling2`
(rational and the four symbolic alphas) and `bernoulli_number` at three
points with n falling and rising and k above and below what earlier reads
built, so that the grow-only product chains behind the rational values
are rebuilt and extended, and revisits `y1star(...).evaluate` and
`phi_series` at the same points, given once as Fractions and once as
equal ints or unreduced Fractions.
The climb stream reads `apostol_euler`, `new_deg_stirling2` (rational and
the four symbolic alphas) and `bernoulli_number` at n = 0, 1, ..., 12 with
every k <= n, so that each product chain steps up one order at a time, and
route-A `y1star` the same way to n = 8 (F_k is rebuilt at each order,
which costs seconds beyond that); it then reads `scaled_y1star` by route
A for n, k <= 8.  An error that builds up over order extensions shows
there as a byte difference.  The tail stream reads route A below an F_k,
builds that F_k at a higher order, which publishes the route-A values not
read yet, and reads every value again; it reads the product chains out of
order (a high k at a low n, a higher n at a low k, then the high k again)
at two points, with symbolic S2* read alike; and it reads `phi_series` rows of rising
and falling degree at four fresh points, lambda = 0 and alpha = 0 among
them, so that a row of low degree starts each point's power table and
later rows grow it.  Values published ahead of their reads, products
extended out of order and powers read from a shared table show there
byte for byte.  The revisit stream reads each reader that keeps the values
it returned (`fk_series`, `bernoulli_number`, `new_deg_stirling2` at a
rational alpha, `apostol_euler` and `phi_series`) twice in a row for
n, k <= 8, the second time with the point written another way (an
unreduced Fraction, an int, a string or a float), at points that share
lambda or alpha, so that every memo hit is compared byte for byte.  The
point F_k stream reads `fk_series` at four points with the order falling,
then rising above what earlier reads built, and k past the longest
product held, each read made twice, the second time with the point
written another way, so that a point's chain read below its order,
extended and lengthened shows byte for byte.  The top-k stream builds
F_9 first, which publishes every lower F_j into the route-A store, reads
F_0..F_9 and their route-A values in ascending k, then reads F_k at
orders rising above and falling below that build, for k below, at and
above 9, so that series read back from the store, truncated and rebuilt
show byte for byte.
Every differing case is printed
(exit status, stdout or stderr), and so is a case the CLI rejects as a
usage error; the exit status is 1 on any of these, else 0.  It is 2,
before any case runs, when OLD_ROOT cannot run `verify --list`: there is
nothing to compare against.  Stdlib only.
"""

from __future__ import annotations

import argparse
from concurrent.futures import ThreadPoolExecutor
import itertools
import os
from pathlib import Path
import subprocess
import sys

USAGE_ERROR = 2
INTEGER_SUM_IDS = ("REL-S2STAR", "REL-S2STAR-KIDX", "REL-S2STAR-DUPL",
                   "REL-S2STAR-ZERO0", "PHI-LOG", "PHI-FT")
PHI_IDS = ("PHI-EGF", "PHI-LOG", "PHI-REC", "PHI-DER", "PHI-AE", "PHI-INT",
           "PHI-INT-CORR", "PHI-FT")
ROUTE_IDS = ("EXPL-B", "EXPL-C", "EXPL-C-PRINTED", "EXPL-D", "REC-K",
             "REC-N", "RED-A0", "RED-CLASSICAL")

# the substitutions `table` accepts for each family
TABLE_PARAMS = {
    "stirling1": (), "stirling2": (), "bernoulli": (),
    "deg-stirling1": ("--alpha",), "deg-stirling2": ("--alpha",),
    "s2star": ("--alpha",), "y1": ("--lambda",),
    "y1deg": ("--lambda", "--alpha"), "y1star": ("--lambda", "--alpha"),
}

LIBRARY_CASE = ["library stream"]
# rising and falling index tops, so that later passes revisit values and
# read F_k both freshly built and truncated from a longer series
LIBRARY_STREAM = """
from fractions import Fraction
from degsimsek import fk_series, phi_series, y1star
# the last two points bring lam = 0 (powers of 0) and large coprime
# denominators (large powers of 11 and 17)
points = ((Fraction(3, 2), Fraction(1, 3)), (Fraction(-3, 5), Fraction(1, 2)),
          (Fraction(0), Fraction(-2, 5)), (Fraction(-7, 11), Fraction(13, 17)))
for top in (4, 7, 3, 9, 7):
    for lam, alpha in (points[top % 2], points[2 + top % 2]):
        print(phi_series(top, lam, alpha, top).render())
    for k in range(top + 1):
        print(fk_series(k, top).render())
        for route in "ABCDEF":
            for n in range(top + 1):
                value = y1star(n, k, route)
                # evaluated before it is rendered, from the integer form
                at = [value.evaluate(lam, alpha) for lam, alpha in points]
                print(route, n, k, value.render(), *at)
"""

SUITE_CASE = ["suite stream"]
# the second suite reads what the first left in the module stores
SUITE_STREAM = """
from degsimsek import apostol_euler, new_deg_stirling2, run_suite
from degsimsek.registry import default_grid
from degsimsek.reports import reports_to_json
from degsimsek.simsek import scaled_y1star
# the S2* and Apostol-Euler chains the first suite reads, held to order 14
# first, so that the suites read products above the size they ask for
for lam, alpha in default_grid(7):
    for n in range(14, -1, -1):
        print(lam, alpha, n, apostol_euler(n, 1, lam, 0),
              *(new_deg_stirling2(n, k, alpha / lam) for k in range(15)))
for order, seed in ((12, 7), (8, 3)):
    print(reports_to_json(run_suite(order=order, seed=seed)))
for route in "ABCDEF":
    for n in range(13):
        for k in range(13):
            print(route, n, k, sorted(scaled_y1star(n, k, route).items()))
"""

SERIES_CASE = ["series stream"]
SERIES_STREAM = """
from fractions import Fraction as F
from math import factorial
from degsimsek import (ParamPoly, TruncSeries, apostol_euler,
                       bernoulli_number, fk_series, new_deg_stirling2,
                       phi_series, y1star)
l, a = ParamPoly.lam(), ParamPoly.alpha()
points = ((F(3, 2), F(1, 3)), (F(-3, 5), F(1, 2)))
symbolic_alphas = (a, 2 * a, l + a, ParamPoly())


def show(name, value):
    print(name, value.render() if hasattr(value, "render") else value)


def series(coeffs):
    # sum_m coeffs[m] (e^t - 1)^m to t^(len - 1), by Horner over Fraction
    # lists
    n = len(coeffs) - 1
    em1 = [F(0)] + [F(1, factorial(m)) for m in range(1, n + 1)]
    out = [F(0)] * (n + 1)
    for c in reversed(coeffs):
        out = [sum((out[i] * em1[m - i] for i in range(m + 1)), F(0))
               for m in range(n + 1)]
        out[0] += c
    return TruncSeries("t", n, out)


def operations(s, w):
    # w is a second series, z is s with a zero constant term
    z = TruncSeries(s.var, s.order, [0, *s.coeffs[1:]])
    show("eq", (s == w, TruncSeries(s.var, s.order, s.coeffs) == s, z == 0,
                w == w.coeffs[0], z == s))
    for m in range(s.order + 1):
        show(f"truncate {m}", s.truncate(m))
        show(f"zero constant truncate {m}", z.truncate(m))


for top in (4, 7, 3, 9, 7):
    lam, alpha = points[top % 2]
    for n in range(top + 1):
        for k in range(top + 1):
            show(f"S2* {n} {k}", new_deg_stirling2(n, k, alpha))
            for s_alpha in symbolic_alphas:
                show(f"S2* {n} {k} at {s_alpha.render()}",
                     new_deg_stirling2(n, k, s_alpha))
            show(f"B {n} {k}", bernoulli_number(n, k))
            show(f"E {n} {k}", apostol_euler(n, k, lam, alpha))
    for k in range(top + 1):
        show(f"F {k}", fk_series(k, top, lam, alpha))
    qq = series([F((-1) ** m * (m + 2), m * m + 3) for m in range(top + 1)])
    qq2 = series([F(m - 2, 2 * m + 1) for m in range(top + 1)])
    operations(qq, qq2)

# (n, k) with n falling and rising and k above and below the length of the
# chains that earlier reads built; the second pass revisits every value at
# the same points written another way
reads = ((6, 2), (2, 7), (0, 9), (8, 4), (8, 10), (3, 1), (11, 3), (5, 12))
for chain_points in (((F(3, 2), F(1, 3)), (F(-3, 5), F(1, 2)), (F(2), F(0))),
                     ((F(6, 4), F(2, 6)), (F(-6, 10), F(2, 4)), (2, 0))):
    for lam, alpha in chain_points:
        for n, k in reads:
            show(f"E {n} {k} at {lam} {alpha}", apostol_euler(n, k, lam, alpha))
            show(f"S2* {n} {k} at {alpha}", new_deg_stirling2(n, k, alpha))
            for s_alpha in symbolic_alphas:
                show(f"S2* {n} {k} at {s_alpha.render()}",
                     new_deg_stirling2(n, k, s_alpha))
            show(f"B {n} {k}", bernoulli_number(n, k))
            show(f"y1star {n} {k} at {lam} {alpha}",
                 y1star(n, k).evaluate(lam, alpha))
            show(f"phi {n} {k} at {lam} {alpha}", phi_series(n, lam, alpha, k))
"""

CLIMB_CASE = ["climb stream"]
# the pattern of the benchmark's session: one order more at a time
CLIMB_STREAM = """
from fractions import Fraction as F
from degsimsek import (ParamPoly, apostol_euler, bernoulli_number,
                       new_deg_stirling2, y1star)
from degsimsek.simsek import scaled_y1star
l, a = ParamPoly.lam(), ParamPoly.alpha()
lam, alpha = F(3, 2), F(1, 3)
for n in range(13):
    for k in range(n + 1):
        print("E", n, k, apostol_euler(n, k, lam, alpha))
        print("S2*", n, k, new_deg_stirling2(n, k, alpha))
        for s_alpha in (a, 2 * a, l + a, ParamPoly()):
            print("S2* at", s_alpha.render(), n, k,
                  new_deg_stirling2(n, k, s_alpha).render())
        print("B", n, k, bernoulli_number(n, k))
        if n <= 8:
            print("y1star", n, k, y1star(n, k).render())
for n in range(9):
    for k in range(9):
        print("Y", n, k, sorted(scaled_y1star(n, k).items()))
"""

TAIL_CASE = ["tail stream"]
# the first reads of the benchmark's session tail, out of order
TAIL_STREAM = """
from fractions import Fraction as F
from degsimsek import (ParamPoly, apostol_euler, bernoulli_number, fk_series,
                       new_deg_stirling2, phi_series, y1star)
from degsimsek.simsek import scaled_y1star
a = ParamPoly.alpha()
# route A read below an F_k, then the F_k built at a higher order, which
# publishes the values not read yet, then every value read again
for k in (3, 7):
    for n in (0, 2, 5):
        print("A before", n, k, y1star(n, k).render())
    print("F", k, fk_series(k, 10).render())
    for n in range(11):
        print("A after", n, k, sorted(scaled_y1star(n, k).items()),
              y1star(n, k).render())
# chain reads out of order: high k at low n, then higher n at low k, then
# the high k again, at the higher n and at a lower one
for lam, alpha in ((F(3, 2), F(1, 3)), (F(-5, 7), F(2, 9))):
    for n, k in ((1, 9), (7, 2), (11, 1), (3, 9), (11, 9), (2, 12), (12, 12),
                 (5, 4)):
        print("E", n, k, apostol_euler(n, k, lam, alpha))
        print("S2*", n, k, new_deg_stirling2(n, k, alpha))
        print("S2* symbolic", n, k, new_deg_stirling2(n, k, a).render())
        print("B", n, k, bernoulli_number(n, k))
# rows at fresh points, lam = 0 and alpha = 0 among them: a row of low
# degree starts each point's power table and the later rows grow it
for lam, alpha in ((F(0), F(5, 3)), (F(-9, 4), F(0)),
                   (F(-11, 13), F(-17, 19)), (F(7, 2), F(-1, 8))):
    for n, order in ((3, 2), (9, 9), (4, 11), (11, 6)):
        print("phi", n, order, lam, alpha,
              phi_series(n, lam, alpha, order).render())
"""

REVISIT_CASE = ["revisit stream"]
# each value read again at once, at the point written another way; the
# points share lambda or alpha pairwise
REVISIT_STREAM = """
from fractions import Fraction as F
from degsimsek import (apostol_euler, bernoulli_number, fk_series,
                       new_deg_stirling2, phi_series)
spellings = (((F(5, 4), F(-2, 3)), (F(10, 8), F(-4, 6))),
             ((F(5, 4), F(1, 2)), ("5/4", 0.5)),
             ((F(2), F(1, 2)), (2, "2/4")),
             ((F(2), F(0)), (2.0, 0)))
for n in range(9):
    for k in range(9):
        print("F", k, n, fk_series(k, n).render(), fk_series(k, n).render())
        print("B", n, k, bernoulli_number(n, k), bernoulli_number(n, k))
        for point in spellings:
            for lam, alpha in point:
                print("S2*", n, k, alpha, new_deg_stirling2(n, k, alpha))
                print("E", n, k, lam, alpha, apostol_euler(n, k, lam, alpha))
                print("phi", n, k, lam, alpha,
                      phi_series(n, lam, alpha, k).render())
"""

FK_POINT_CASE = ["point F_k stream"]
# F_k at a point with the order falling, then rising above what earlier
# reads built, and k past the longest product held; each read is made
# twice, the second time with the point written another way
FK_POINT_STREAM = """
from fractions import Fraction as F
from degsimsek import fk_series
spellings = (((F(3, 2), F(1, 3)), ("6/4", F(2, 6))),
             ((F(-7, 11), F(13, 17)), (F(-14, 22), "13/17")),
             ((F(0), F(-2, 5)), (0, "-4/10")),
             ((F(2), F(0)), (2, 0.0)))
for order in (9, 6, 3, 0, 5, 12, 7, 16):
    for k in (0, 1, order // 2, order, order + 3, 14):
        for point in spellings:
            for lam, alpha in point:
                print("F", k, order, lam, alpha,
                      fk_series(k, order, lam, alpha).render())
"""

TOP_K_CASE = ["top-k stream"]
# F_9 first, as `verify` warms route A, then the ascending reads of `table`
# and the session, then order rises and falls on lower and higher k
TOP_K_STREAM = """
from degsimsek import fk_series, y1star
from degsimsek.simsek import scaled_y1star
print("F", 9, 7, fk_series(9, 7).render())
reads = [(k, 7) for k in range(10)]
reads += [(4, 11), (2, 5), (11, 4), (4, 9), (0, 12), (9, 11), (10, 10)]
for k, order in reads:
    print("F", k, order, fk_series(k, order).render())
    for n in range(order + 1):
        print("A", n, k, y1star(n, k).render(),
              sorted(scaled_y1star(n, k).items()))
"""

STREAMS = {LIBRARY_CASE[0]: LIBRARY_STREAM, SUITE_CASE[0]: SUITE_STREAM,
           SERIES_CASE[0]: SERIES_STREAM, CLIMB_CASE[0]: CLIMB_STREAM,
           TAIL_CASE[0]: TAIL_STREAM, REVISIT_CASE[0]: REVISIT_STREAM,
           FK_POINT_CASE[0]: FK_POINT_STREAM, TOP_K_CASE[0]: TOP_K_STREAM}


def cases() -> list[list[str]]:
    matrix = [["verify", "--list"]]
    formats = ("text", "csv", "json")
    verify_runs = [*itertools.product(("0", "7", "41"), ("2", "8", "12"),
                                      formats),
                   *itertools.product(("0",), ("1", "16"), formats)]
    for seed, order, fmt in verify_runs:
        matrix.append(["verify", "--seed", seed, "--order", order,
                       "--format", fmt])
    # perfbench's verify argv: the CLI ignores --workers, so one case does
    matrix.append(["verify", "--order", "8", "--workers", "2", "--seed", "0",
                   "--random-points", "2", "--format", "json"])
    # eight random points bring negative lambda and alpha and larger
    # denominators to the point checks' integer sums
    for seed in ("3", "11"):
        matrix.append(["verify", "--seed", seed, "--random-points", "8",
                       "--format", "json"])
    for seed, order in (("19", "12"), ("23", "10"), ("29", "10")):
        matrix.append(["verify", "--random-points", "8", "--seed", seed,
                       "--order", order, "--format", "json"])
    for ids, orders in ((INTEGER_SUM_IDS, ("3", "12")),
                        (PHI_IDS, ("1", "2", "16")),
                        (ROUTE_IDS, ("1", "16"))):
        for order in orders:
            matrix.append(["verify", "--identity", ",".join(ids),
                           "--order", order, "--format", "json"])
    # "--flag=value", so that argparse reads a negative value as a value
    points = ([], ["--lambda=1/2", "--alpha=1/3"],
              ["--lambda=-7/5", "--alpha=0"])
    for route, point, fmt in itertools.product("ABCDEF", points,
                                               ("csv", "json")):
        matrix.append(["table", "--family", "y1star", "--route", route,
                       "--n-max", "8", "--k-max", "8", "--format", fmt,
                       *point])
    subs = ([], ["--lambda=-3/2"], ["--alpha=2/5"],
            ["--lambda=-3/2", "--alpha=2/5"])
    for family, sub, fmt in itertools.product(TABLE_PARAMS, subs,
                                              ("csv", "json")):
        if not {arg.split("=")[0] for arg in sub} <= set(TABLE_PARAMS[family]):
            continue
        if family == "y1star" and len(sub) != 1:
            continue  # symbolic and at both: the route cases above
        matrix.append(["table", "--family", family, "--n-max", "8",
                       "--k-max", "8", "--format", fmt, *sub])
    for family, sub in itertools.product(("y1", "y1deg", "y1star"), subs):
        if family == "y1" and "--alpha=2/5" in sub:
            continue  # y1 takes no --alpha
        matrix.append(["compute", "--family", family, "--n", "5", "--k", "3",
                       *sub])
        if family != "y1star" or len(sub) != 1:
            # series y1star takes both --lambda and --alpha or neither
            matrix.append(["series", "--family", family, "--k", "3",
                           "--order", "6", *sub])
    # larger symbolic sizes, where more terms cancel: route A and an F_k
    # series in the ParamPoly product sums, S2* in its Stirling-1 sums and
    # the degenerate Stirling triangles in their Z[a] rows
    matrix += [["table", "--family", "y1star", "--n-max", "12",
                "--k-max", "12"],
               ["series", "--family", "y1star", "--k", "8", "--order", "12"],
               ["table", "--family", "s2star", "--n-max", "10",
                "--k-max", "10"]]
    matrix += [["table", "--family", family, "--n-max", "16", "--k-max", "16"]
               for family in ("deg-stirling1", "deg-stirling2")]
    # F_k at the size cap, at a point with large coprime denominators
    matrix.append(["series", "--family", "y1star", "--k", "56", "--order",
                   "56", "--lambda=-7/11", "--alpha=13/17"])
    for n, lam, alpha in (("0", "0", "1"), ("3", "2/3", "1/3"),
                          ("6", "-5/2", "-3/4")):
        matrix.append(["phi", "--n", n, f"--lambda={lam}", f"--alpha={alpha}",
                       "--degree", "12"])
    matrix += [LIBRARY_CASE, SUITE_CASE, SERIES_CASE, CLIMB_CASE, TAIL_CASE,
               REVISIT_CASE, FK_POINT_CASE, TOP_K_CASE]
    return matrix


def run(root: Path, args: list[str]) -> tuple[int, bytes, bytes]:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    command = (["-c", STREAMS[args[0]]] if args[0] in STREAMS
               else ["-m", "degsimsek.cli", *args])
    done = subprocess.run([sys.executable, *command],
                          capture_output=True, env=env, cwd=root)
    return done.returncode, done.stdout, done.stderr


def label(case: list[str]) -> str:
    return case[0] if case[0] in STREAMS else f"degsimsek {' '.join(case)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_root", type=Path)
    parser.add_argument("new_root", type=Path)
    args = parser.parse_args(argv)
    # the CLI runs with ROOT as its working directory, so a relative ROOT
    # would point elsewhere there
    args.old_root = args.old_root.resolve()
    args.new_root = args.new_root.resolve()
    for root in (args.old_root, args.new_root):
        if not (root / "src" / "degsimsek").is_dir():
            print(f"compare_outputs: no src/degsimsek under {root}",
                  file=sys.stderr)
            return 2
    code, _, err = run(args.old_root, ["verify", "--list"])
    if code != 0:
        print(f"compare_outputs: {args.old_root} cannot run verify --list "
              f"(exit {code}):\n{err.decode(errors='replace')}",
              file=sys.stderr)
        return 2

    def compare(case):
        return case, run(args.old_root, case), run(args.new_root, case)

    matrix = cases()
    differing = 0
    with ThreadPoolExecutor(max_workers=2) as pool:
        for case, old, new in pool.map(compare, matrix):
            if USAGE_ERROR in (old[0], new[0]):
                # a case the CLI rejects compares nothing
                differing += 1
                print(f"USAGE ERROR: {label(case)}")
            elif old != new:
                differing += 1
                parts = [name for name, a, b in zip(
                    ("exit status", "stdout", "stderr"), old, new) if a != b]
                print(f"DIFFERS ({', '.join(parts)}): {label(case)}")
    print(f"{len(matrix)} cases, {differing} differing")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
