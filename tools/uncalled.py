"""Functions of the package source with lines that never ran.

    python3 tools/uncalled.py

Under a `sys.settrace` line tracer it runs, in one interpreter, the CLI
cases of `cases()` through `degsimsek.cli.main`, then the `session`
workload's query streams of SESSION_SEEDS through `perfbench/unit.py`'s
`answer`.  It prints each function of `src/`, comprehensions and lambdas
included, with a line that never ran: its count of lines with code and of
lines that never ran, equal for a function nothing called.  Stdlib only.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import os
from pathlib import Path
import sys
import tempfile
import time

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "degsimsek"
SESSION_SEEDS = (0, 1, 2)
SESSION_TOP = 12


def cases(tmp: str) -> list[list[str]]:
    """The CLI argv lists; FILE and DIR stand for a file and a directory
    in `tmp`."""
    from degsimsek.simsek import ROUTES
    from degsimsek.tables import FAMILY_TABLE
    out = ["verify --list", "verify --seed 7 --random-points 4 --out FILE",
           "verify --identity PHI-DER,PHI-AE --order 1"]
    out += [f"verify --order {order} --format {fmt}" for order in (1, 8, 10)
            for fmt in ("text", "csv", "json")]
    points = {"": (), "--lambda=3/2": ("lambda",), "--alpha=2/5": ("alpha",),
              "--lambda=-3/2 --alpha=2/5": ("lambda", "alpha")}
    for family, (_, params, _) in FAMILY_TABLE.items():
        for point, taken in points.items():
            if set(taken) <= set(params):
                out += [f"table --family {family} --n-max 6 --k-max 6 "
                        f"--format {fmt} {point}" for fmt in ("csv", "json")]
            if "lambda" in params:  # also the combinations they reject
                out += [f"compute --family {family} --n 5 --k 3 {point}",
                        f"series --family {family} --k 3 --order 6 {point}"]
    for route in ROUTES:
        out += [f"compute --family y1star --route {route} --n 4 --k 3",
                f"table --family y1star --route {route} --n-max 6 "
                "--k-max 6 --lambda=1/2 --alpha=1/3"]
    out += [f"phi --n {n} --lambda={lam} --alpha={alpha} --degree 10"
            for n, lam, alpha in ((0, 0, 1), (3, "2/3", "1/3"),
                                  (6, "-5/2", "-3/4"))]
    # usage errors, each exit status 2
    out += ["compute --family y1 --n -1 --k 0",
            "compute --family y1 --route C --n 2 --k 1",
            "table --family bernoulli --n-max 2 --k-max 2 --out DIR",
            "table --family stirling1 --n-max 2 --k-max 2 --alpha 1",
            "verify --identity ,", "verify --identity NO-SUCH-ID",
            "verify --order 0", "verify --random-points 10001",
            "verify --order 27 --random-points 78",
            "table --family y1star --n-max 28 --k-max 1",
            "phi --n 1 --lambda -1/0 --alpha 0",
            "phi --n 1 --lambda=1e20001 --alpha 0",
            "phi --n 0 --lambda=1e5000 --alpha 0"]
    paths = {"FILE": os.path.join(tmp, "out"), "DIR": tmp}
    return [[paths.get(arg, arg) for arg in case.split()] for case in out]


def run_cases() -> None:
    """Every CLI case, then every session stream, in this interpreter."""
    import degsimsek.cli
    with tempfile.TemporaryDirectory() as tmp:
        for argv in cases(tmp):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()), \
                    contextlib.suppress(SystemExit):  # argparse's exit 2
                degsimsek.cli.main(argv)
    if SESSION_SEEDS:
        sys.path.insert(0, str(ROOT / "perfbench"))
        # unit.py reads the parent's spawn time from argv when imported
        sys.argv[1:] = [str(time.monotonic())]
        import session
        import unit
        for seed in SESSION_SEEDS:
            for query in session.make_queries(seed, SESSION_TOP):
                unit.answer(session.decode(query))


def trace(run) -> dict[tuple[str, int, str], set[int]]:
    """The lines each code object of src/ ran while `run()` ran, keyed by
    (file, first line, name); a call counts for the first line."""
    ran: dict[tuple[str, int, str], set[int]] = {}

    def on_call(frame, event, arg):
        code = frame.f_code
        if os.path.dirname(code.co_filename) != str(SRC):
            return None
        lines = ran.setdefault((code.co_filename, code.co_firstlineno,
                                code.co_name), {code.co_firstlineno})

        def on_line(frame, event, arg):
            lines.add(frame.f_lineno)
            return on_line
        return on_line

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return ran


def functions(path: Path) -> list:
    """The code object of every function of a module, compiled from its
    source, in source order."""
    stack, out = [compile(path.read_text(), str(path), "exec")], []
    while stack:
        code = stack.pop()
        stack += [const for const in code.co_consts if inspect.iscode(const)]
        if code.co_flags & inspect.CO_NEWLOCALS:  # not a module or class
            out.append(code)
    return sorted(out, key=lambda code: code.co_firstlineno)


def main() -> int:
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    ran = trace(run_cases)
    rows, never_ran = [], 0
    for path in sorted(SRC.glob("*.py")):
        for code in functions(path):
            lines = {line for _, _, line in code.co_lines() if line}
            never = len(lines - ran.get(
                (str(path), code.co_firstlineno, code.co_name), set()))
            if never:
                name = getattr(code, "co_qualname", code.co_name)
                name = f"{path.name}:{code.co_firstlineno} {name}"
                rows.append(f"{name:60} {len(lines):6} {never:6}")
                never_ran += never
    print(f"{'function':60} {'lines':>6} {'never':>6}", *rows, sep="\n")
    print(f"{len(rows)} functions, {never_ran} lines never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
