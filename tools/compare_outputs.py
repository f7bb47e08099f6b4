"""Compare the CLI output of two source trees, byte for byte.

    python3 tools/compare_outputs.py OLD_ROOT NEW_ROOT

Each ROOT is a checkout of this repository, absolute or relative to the
working directory; the CLI runs from ROOT/src in a fresh interpreter per
case, two cases at a time.  The matrix: `verify` for
seeds 0/7/41 x workers 1/2/3 x order 2/8/12 x text/csv/json, for seed
0 x workers 1/2/3 x order 1/16 x text/csv/json, with `--random-points 8`
at seeds 3 and 11, and at seed 19 with order 12, for the REL-S2STAR
family, PHI-LOG and PHI-FT alone at orders 3 and 12, and for the symbolic
route, recurrence and reduction checks alone at orders 1 and 16, as JSON;
`table --family y1star`
for routes A-F, symbolic and at two rational points, as CSV and JSON;
`compute` and `series` for the families y1, y1deg and y1star, symbolic,
with --lambda only, --alpha only and both, where the CLI accepts the
combination; and `phi` at three points.  Every differing case is printed (exit status,
stdout or stderr), and so is a case the CLI rejects as a usage error; the
exit status is 1 on any of these, else 0.  It is 2, before any case runs,
when OLD_ROOT cannot run `verify --list`: there is nothing to compare
against.  Stdlib only.
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
ROUTE_IDS = ("EXPL-B", "EXPL-C", "EXPL-C-PRINTED", "EXPL-D", "REC-K",
             "REC-N", "RED-A0", "RED-CLASSICAL")


def cases() -> list[list[str]]:
    matrix = []
    formats = ("text", "csv", "json")
    verify_runs = [
        *itertools.product(("0", "7", "41"), ("1", "2", "3"),
                           ("2", "8", "12"), formats),
        *itertools.product(("0",), ("1", "2", "3"), ("1", "16"), formats)]
    for seed, workers, order, fmt in verify_runs:
        matrix.append(["verify", "--seed", seed, "--workers", workers,
                       "--order", order, "--format", fmt])
    # eight random points bring negative lambda and alpha and larger
    # denominators to the point checks' integer sums
    for seed in ("3", "11"):
        matrix.append(["verify", "--seed", seed, "--random-points", "8",
                       "--format", "json"])
    matrix.append(["verify", "--random-points", "8", "--seed", "19",
                   "--order", "12", "--format", "json"])
    for ids, orders in ((INTEGER_SUM_IDS, ("3", "12")),
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
    for family, sub in itertools.product(("y1", "y1deg", "y1star"), subs):
        if family == "y1" and "--alpha=2/5" in sub:
            continue  # y1 takes no --alpha
        matrix.append(["compute", "--family", family, "--n", "5", "--k", "3",
                       *sub])
        if family != "y1star" or len(sub) != 1:
            # series y1star takes both --lambda and --alpha or neither
            matrix.append(["series", "--family", family, "--k", "3",
                           "--order", "6", *sub])
    for n, lam, alpha in (("0", "0", "1"), ("3", "2/3", "1/3"),
                          ("6", "-5/2", "-3/4")):
        matrix.append(["phi", "--n", n, f"--lambda={lam}", f"--alpha={alpha}",
                       "--degree", "12"])
    return matrix


def run(root: Path, args: list[str]) -> tuple[int, bytes, bytes]:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-m", "degsimsek.cli", *args],
                          capture_output=True, env=env, cwd=root)
    return done.returncode, done.stdout, done.stderr


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
                print(f"USAGE ERROR: degsimsek {' '.join(case)}")
            elif old != new:
                differing += 1
                parts = [name for name, a, b in zip(
                    ("exit status", "stdout", "stderr"), old, new) if a != b]
                print(f"DIFFERS ({', '.join(parts)}): "
                      f"degsimsek {' '.join(case)}")
    print(f"{len(matrix)} cases, {differing} differing")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
