"""Lines of the package source, per module.

    python3 tools/src_lines.py [ROOT]

ROOT is a checkout of this repository (the current directory by default).
For each module under ROOT/src it prints the total line count and splits
it into code, docstring and comment-plus-blank lines, then the sums.  A
line is code when it holds a token other than a comment or a docstring
(`tokenize`; a docstring is the string that opens a module, class or
function body, found with `ast`); a docstring line holds only docstring
text; every other line is a comment or blank.  So code + docstring +
comment-plus-blank = total.  Stdlib only.
"""

from __future__ import annotations

import argparse
import ast
import io
from pathlib import Path
import sys
import tokenize

# token types that never make a line code
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_starts(source: str) -> set[tuple[int, int]]:
    """(line, column) of the first character of every docstring."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def count(source: str) -> dict[str, int]:
    """{"total", "code", "docstring", "comment_blank"} line counts."""
    total = len(source.splitlines())
    docstrings = docstring_starts(source)
    code: set[int] = set()
    doc: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in NOT_CODE:
            continue
        lines = range(token.start[0], token.end[0] + 1)
        if token.type == tokenize.STRING and token.start in docstrings:
            doc.update(lines)
        else:
            code.update(lines)
    doc -= code
    return {"total": total, "code": len(code), "docstring": len(doc),
            "comment_blank": total - len(code) - len(doc)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", type=Path, nargs="?", default=Path("."))
    args = parser.parse_args(argv)
    src = args.root / "src"
    paths = sorted(src.rglob("*.py"))
    if not paths:
        print(f"src_lines: no Python files under {src}", file=sys.stderr)
        return 2
    fields = ("total", "code", "docstring", "comment_blank")
    sums = dict.fromkeys(fields, 0)
    print(f"{'module':<28}" + "".join(f"{f:>15}" for f in fields))
    for path in paths:
        counts = count(path.read_text())
        for f in fields:
            sums[f] += counts[f]
        name = str(path.relative_to(src))
        print(f"{name:<28}" + "".join(f"{counts[f]:>15}" for f in fields))
    print(f"{'src/':<28}" + "".join(f"{sums[f]:>15}" for f in fields))
    return 0


if __name__ == "__main__":
    sys.exit(main())
