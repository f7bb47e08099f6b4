"""tools/src_lines.py, tools/session_tail.py and tools/uncalled.py: the
line counts add up to each file's line count, the per-kind latency report
covers every query kind of the benchmark's session stream, and the line
trace lists a function no case calls."""

import importlib.util
from pathlib import Path
import subprocess
import sys

REPO = Path(__file__).resolve().parents[1]


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(
        name, REPO / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_src_lines_totals_are_the_line_counts(capsys):
    tool = load_tool("src_lines")
    assert tool.main([str(REPO)]) == 0
    lines = capsys.readouterr().out.splitlines()
    paths = sorted((REPO / "src").rglob("*.py"))
    rows = [line.split() for line in lines[1:-1]]
    assert [row[0] for row in rows] == [
        str(path.relative_to(REPO / "src")) for path in paths]
    for path, row in zip(paths, rows):
        total, code, doc, rest = map(int, row[1:])
        assert total == len(path.read_text().splitlines()), path
        assert code + doc + rest == total and min(code, doc, rest) >= 0
    sums = [sum(int(row[i]) for row in rows) for i in range(1, 5)]
    assert lines[-1].split() == ["src/", *map(str, sums)]


def test_src_lines_splits_code_docstrings_and_comments():
    tool = load_tool("src_lines")
    source = ('"""Module\n\ntext."""\n'
              "# a comment\n"
              "\n"
              "def f(x):  # code with a comment\n"
              "    '''One line.'''\n"
              "    text = '''not a\n"
              "    docstring'''\n"
              "    return (x,\n"
              "            text)\n")
    assert tool.count(source) == {"total": 11, "code": 5, "docstring": 4,
                                  "comment_blank": 2}


def test_session_tail_reports_every_kind():
    # three levels of one stream, in a fresh interpreter so that the
    # stream starts from cold stores
    done = subprocess.run(
        [sys.executable, str(REPO / "tools" / "session_tail.py"), "5", "1",
         "--top", "3"], capture_output=True, text=True, cwd=REPO,
        timeout=300, check=True)
    lines = done.stdout.splitlines()
    assert lines[0].split() == ["kind", "route", "age", "count",
                                "median_us", ">p90", "near", "<=p50"]
    rows = [line.split() for line in lines[1:-1]]
    sys.path.insert(0, str(REPO / "perfbench"))
    try:
        import session
    finally:
        sys.path.remove(str(REPO / "perfbench"))
    assert {(row[0], row[1]) for row in rows} >= {
        (kind, route or "-") for kind, route, _, _ in session.MIX}
    assert sum(int(row[3]) for row in rows) == 2 * session.PER_LEVEL
    # at least half of the queries lie at or below the pooled median
    assert 2 * sum(int(row[7]) for row in rows) >= 2 * session.PER_LEVEL
    assert lines[-1].startswith(f"{2 * session.PER_LEVEL} queries, pooled")


def test_uncalled_lists_a_function_no_case_calls(monkeypatch, capsys):
    tool = load_tool("uncalled")
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(tool, "cases", lambda tmp: [
        ["table", "--family", "stirling2", "--n-max", "3", "--k-max", "3"]])
    monkeypatch.setattr(tool, "SESSION_SEEDS", ())
    assert tool.main() == 0
    lines = capsys.readouterr().out.splitlines()
    rows = {row[1]: row[2:] for row in map(str.split, lines[1:-1])}
    # the table is written as CSV, never as JSON; build_parser runs every
    # line
    lines_with_code, never_ran = rows["render_json"]
    assert lines_with_code == never_ran and "build_parser" not in rows
    assert lines[-1].startswith(f"{len(lines) - 2} functions, ")
