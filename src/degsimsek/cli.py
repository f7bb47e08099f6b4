"""Command-line interface.

Subcommands:
  compute  one number-family value, symbolic or at a rational point
  series   the column generating function F_k (or the y1/y1deg analogue)
  phi      the row generating function phi_n at a rational point
  table    rectangular family tables as CSV or JSON
  verify   run the identity suite; exit 0 on success, 1 on failure

All rationals are read and written as "p/q" text; exit status 2 signals a
usage error.
"""

from __future__ import annotations

import argparse
from fractions import Fraction
import math
import re
import sys

from .algebra import parse_rational
from .phi import phi_series
from .registry import REGISTRY, run_suite, suite_failed
from .reports import ERROR, FAIL, reports_to_csv, reports_to_json
from .simsek import ROUTES, fk_series
from .tables import (FAMILIES, FAMILY_TABLE, TableUsageError, _specialize,
                     build_table, render_csv, render_json)

USAGE_ERROR = 2
# verify builds every --random-points point before it runs a check, each in
# milliseconds, so the cap keeps that build under a minute
MAX_RANDOM_POINTS = 10_000
# The size caps, each the largest size measured to finish within a minute
# with every size flag of the command at it (README's CLI section gives the
# measurements): MAX_SIZE holds every size flag, and a command that builds
# route A's symbolic F_k, the costliest value, is held to MAX_FK when it
# builds one F_k and to MAX_FK_ROWS when it builds F_0..F_k at one order.
MAX_SIZE = 56
MAX_FK = 40
MAX_FK_ROWS = 27
# verify's --random-points and --order held together: random points times
# order^4 at most what MAX_RANDOM_POINTS gives at the default order 8, so
# that the points left at order MAX_FK_ROWS add seconds to its minute
MAX_POINT_WORK = MAX_RANDOM_POINTS * 8**4

# compute and series take the families in l, the Simsek numbers, all of
# which accept --lambda
_SIMSEK_FAMILIES = tuple(family for family, (_, params, _) in
                         FAMILY_TABLE.items() if "lambda" in params)

_RATIONAL_FLAGS = ("--lambda", "--alpha")
_NEGATIVE = re.compile(r"-[\d.]")


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None


def _nonneg(text: str) -> int:
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError("index must be non-negative")
    return value


def _capped(value: int, cap: int) -> int:
    if value <= cap:
        return value
    raise argparse.ArgumentTypeError(f"over the cap of {cap}")


def _size(cap: int):
    """The argparse type of a non-negative size of at most `cap`."""
    return lambda text: _capped(_nonneg(text), cap)


def _order(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError("order must be >= 1")
    return _capped(value, MAX_FK_ROWS)


def _route_a_sizes(args) -> tuple[int, tuple[str, ...]]:
    """The cap and the size flags of a compute, series or table call that
    builds route A's symbolic F_k, else (0, ()): argparse caps every other
    size at MAX_SIZE, and phi's and verify's, which always build F_0..F_k,
    at MAX_FK_ROWS."""
    if (getattr(args, "family", None) == "y1star"
            and getattr(args, "route", None) in (None, "A")):
        if args.command == "compute":
            return MAX_FK, ("--n", "--k")
        if (args.command == "series" and args.lam is None
                and args.alpha is None):
            return MAX_FK, ("--k", "--order")
        if args.command == "table":
            return MAX_FK_ROWS, ("--n-max", "--k-max")
    return 0, ()


def _emit(text: str, out: str | None, command: str) -> int:
    """Write text to the --out file, or to stdout; 0, or USAGE_ERROR with a
    message when the file cannot be written."""
    if not out:
        sys.stdout.write(text)
        return 0
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"degsimsek {command}: cannot write {out}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return USAGE_ERROR
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degsimsek",
        description="Exact computation and verification of new-type "
                    "degenerate Simsek numbers and their relatives.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_point_flags(p):
        p.add_argument("--lambda", dest="lam", type=_rational, default=None,
                       metavar="p/q")
        p.add_argument("--alpha", type=_rational, default=None, metavar="p/q")

    p = sub.add_parser("compute", help="one family value")
    p.add_argument("--family", choices=_SIMSEK_FAMILIES, required=True)
    p.add_argument("--route", choices=ROUTES, default=None)
    p.add_argument("--n", type=_size(MAX_SIZE), required=True)
    p.add_argument("--k", type=_size(MAX_SIZE), required=True)
    add_point_flags(p)

    p = sub.add_parser("series", help="column generating function in t")
    p.add_argument("--family", choices=_SIMSEK_FAMILIES, default="y1star")
    p.add_argument("--k", type=_size(MAX_SIZE), required=True)
    p.add_argument("--order", type=_size(MAX_SIZE), default=8)
    add_point_flags(p)

    p = sub.add_parser("phi", help="row generating function in x")
    p.add_argument("--n", type=_size(MAX_FK_ROWS), required=True)
    p.add_argument("--lambda", dest="lam", type=_rational, required=True,
                   metavar="p/q")
    p.add_argument("--alpha", type=_rational, required=True, metavar="p/q")
    p.add_argument("--degree", "--order", dest="degree",
                   type=_size(MAX_FK_ROWS), default=8)

    p = sub.add_parser("table", help="rectangular family table")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--route", choices=ROUTES, default=None)
    p.add_argument("--n-max", type=_size(MAX_SIZE), required=True)
    p.add_argument("--k-max", type=_size(MAX_SIZE), required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    add_point_flags(p)

    p = sub.add_parser("verify", help="run the identity suite")
    p.add_argument("--list", action="store_true",
                   help="print the registry and exit")
    p.add_argument("--identity", default=None, metavar="ID[,ID...]")
    p.add_argument("--order", type=_order, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--random-points", type=_size(MAX_RANDOM_POINTS),
                   default=2)
    p.add_argument("--workers", type=_nonneg, default=1,
                   help="accepted and ignored: the suite runs serially")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--out", default=None)

    return parser


def _cmd_compute(args) -> int:
    value, params, routes = FAMILY_TABLE[args.family]
    if args.alpha is not None and "alpha" not in params:
        print(f"compute: family {args.family} takes no --alpha",
              file=sys.stderr)
        return USAGE_ERROR
    if args.route and not routes:
        print(f"compute: family {args.family} has no routes", file=sys.stderr)
        return USAGE_ERROR
    route = args.route or (routes[0] if routes else None)
    print(_specialize(value(args.n, args.k, route, None), args.lam,
                      args.alpha))
    return 0


def _cmd_series(args) -> int:
    value, params, _ = FAMILY_TABLE[args.family]
    if args.alpha is not None and "alpha" not in params:
        print(f"series: family {args.family} takes no --alpha",
              file=sys.stderr)
        return USAGE_ERROR
    if args.family == "y1star":
        # F_k, which fk_series gives symbolic or at a point
        if (args.lam is None) != (args.alpha is None):
            print("series: give both --lambda and --alpha or neither",
                  file=sys.stderr)
            return USAGE_ERROR
        print(fk_series(args.k, args.order, args.lam, args.alpha).render())
        return 0
    coeffs = [_specialize(value(n, args.k, "A", None)
                          * Fraction(1, math.factorial(n)),
                          args.lam, args.alpha)
              for n in range(args.order + 1)]
    print("[" + ", ".join(coeffs) + "]")
    return 0


def _cmd_phi(args) -> int:
    # one product publishes y1star(n, k) for every k <= degree, which
    # phi_series would otherwise build F_k by F_k
    fk_series(args.degree, args.n)
    series = phi_series(args.n, args.lam, args.alpha, args.degree)
    print(series.render())
    return 0


def _cmd_table(args) -> int:
    try:
        table = build_table(args.family, args.route, args.n_max, args.k_max,
                            args.lam, args.alpha)
    except TableUsageError as exc:
        print(f"table: {exc}", file=sys.stderr)
        return USAGE_ERROR
    text = render_csv(table) if args.format == "csv" else render_json(table)
    return _emit(text, args.out, "table")


def _cmd_verify(args) -> int:
    if args.list:
        for entry in REGISTRY:
            variant = f" [variant of {entry.variant_of}]" if entry.variant_of else ""
            print(f"{entry.id:18} {entry.mode:9} {entry.description}{variant}")
        return 0
    ids = None
    if args.identity is not None:
        ids = [i.strip() for i in args.identity.split(",") if i.strip()]
        if not ids:
            print("verify: --identity names no identity id", file=sys.stderr)
            return USAGE_ERROR
    try:
        reports = run_suite(ids, order=args.order, seed=args.seed,
                            extra_points=args.random_points)
    except KeyError as exc:  # an unknown id, named once in the message
        print(f"verify: {exc.args[0]}", file=sys.stderr)
        return USAGE_ERROR
    if args.format == "json":
        text = reports_to_json(reports)
    elif args.format == "csv":
        text = reports_to_csv(reports)
    else:
        lines = []
        for r in reports:
            line = f"{r.id:18} {r.point_text:24} {r.status}"
            if r.mismatch:
                line += f"  [{r.mismatch}]"
            lines.append(line)
        failed = sum(1 for r in reports if r.status in (FAIL, ERROR))
        lines.append(f"{len(reports)} reports, {failed} failures")
        text = "\n".join(lines) + "\n"
    status = _emit(text, args.out, "verify")
    return status or (1 if suite_failed(reports) else 0)


def _join_negative_values(argv: list[str]) -> list[str]:
    """Fold a negative value that follows a rational flag into the flag:
    argparse reads "--lambda -1/2" as two options, "--lambda=-1/2" as one
    option and its value."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _RATIONAL_FLAGS and _NEGATIVE.match(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_join_negative_values(argv))
    if (args.command == "verify"
            and args.random_points * args.order**4 > MAX_POINT_WORK):
        print(f"degsimsek verify: error: argument --random-points: over the "
              f"cap of {MAX_POINT_WORK // args.order**4} at --order "
              f"{args.order}", file=sys.stderr)
        return USAGE_ERROR
    cap, flags = _route_a_sizes(args)
    for flag in flags:
        if getattr(args, flag[2:].replace("-", "_")) > cap:
            print(f"degsimsek {args.command}: error: argument {flag}: over "
                  f"the cap of {cap} for route A's F_k", file=sys.stderr)
            return USAGE_ERROR
    handlers = {
        "compute": _cmd_compute,
        "series": _cmd_series,
        "phi": _cmd_phi,
        "table": _cmd_table,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except ValueError as exc:  # str() of an int above the digit limit
        if "integer string conversion" not in str(exc):
            raise
        print(f"degsimsek {args.command}: a value exceeds the limit of "
              f"{sys.get_int_max_str_digits()} digits for integer string "
              "conversion", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
