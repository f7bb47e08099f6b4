"""tools/compare_outputs.py on a small case list: relative roots resolve
against the caller's working directory, and an old tree that cannot run
exits 2 instead of comparing two identical failures, and each stream and
table case catches the fault it is there for."""

import importlib.util
from pathlib import Path
import shutil

import pytest

REPO = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", REPO / "tools" / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tool(monkeypatch):
    module = load_tool()
    monkeypatch.setattr(module, "cases", lambda: [
        ["verify", "--list"],
        ["compute", "--family", "y1", "--n", "2", "--k", "1"]])
    return module


def copy_tree(root: Path) -> Path:
    shutil.copytree(REPO / "src", root / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root


def test_relative_roots_from_another_directory(tool, tmp_path, monkeypatch,
                                               capsys):
    # roots given relative to the caller's directory, as in
    # `compare_outputs.py good broken` run beside the two checkouts
    copy_tree(tmp_path / "good")
    broken = copy_tree(tmp_path / "broken")
    with open(broken / "src" / "degsimsek" / "__init__.py", "a") as handle:
        handle.write("\nraise ImportError('broken tree')\n")
    monkeypatch.chdir(tmp_path)
    assert tool.main(["good", "good"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "2 cases, 0 differing"
    # the cases really ran: a broken new tree differs in every case
    assert tool.main(["good", "broken"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "2 cases, 2 differing"
    # a broken old tree leaves nothing to compare against
    assert tool.main(["broken", "good"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot run verify --list" in captured.err


def test_library_stream_catches_a_value_that_changes_on_revisit(
        tool, tmp_path, monkeypatch, capsys):
    # a tree whose y1star answers a repeated read with another value reads
    # alike in every single CLI call, but not in the library stream
    monkeypatch.setattr(tool, "cases", lambda: [
        ["compute", "--family", "y1star", "--n", "2", "--k", "2"],
        tool.LIBRARY_CASE])
    good = copy_tree(tmp_path / "good")
    revisit = copy_tree(tmp_path / "revisit")
    with open(revisit / "src" / "degsimsek" / "simsek.py", "a") as handle:
        handle.write(
            "\n_first_read = y1star\n_read = set()\n\n\n"
            "def y1star(n, k, route='A'):\n"
            "    value = _first_read(n, k, route)\n"
            "    if (n, k, route) in _read:\n"
            "        return value + 1\n"
            "    _read.add((n, k, route))\n"
            "    return value\n")
    assert tool.main([str(good), str(good)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "2 cases, 0 differing"
    assert tool.main([str(good), str(revisit)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "DIFFERS (stdout): library stream", "2 cases, 1 differing"]


def test_library_stream_catches_a_wrong_power_of_zero(tool, tmp_path,
                                                      monkeypatch, capsys):
    # a tree whose polynomial evaluation takes 0^0 as 0 evaluates correctly
    # wherever lambda and alpha are nonzero, but not at the stream's
    # lambda = 0 point
    monkeypatch.setattr(tool, "cases", lambda: [tool.LIBRARY_CASE])
    good = copy_tree(tmp_path / "good")
    wrong = copy_tree(tmp_path / "wrong")
    with open(wrong / "src" / "degsimsek" / "algebra.py", "a") as handle:
        handle.write(
            "\n_exact_powers = _powers\n\n\n"
            "def _powers(base, top):\n"
            "    out = _exact_powers(base, top)\n"
            "    return [0] * len(out) if base == 0 else out\n")
    assert tool.main([str(good), str(wrong)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "DIFFERS (stdout): library stream", "1 cases, 1 differing"]


def test_series_stream_catches_a_wrong_qq_reciprocal(tool, tmp_path,
                                                     monkeypatch, capsys):
    # a tree whose reciprocal of integer rows is off by one in its top
    # coefficient reads alike in route A's CLI value, which reads no chain
    # built on it, but not in the library stream, whose route D reads
    # Bernoulli numbers, nor in the series stream, which reads the
    # Bernoulli and Apostol-Euler chains
    monkeypatch.setattr(tool, "cases", lambda: [
        ["compute", "--family", "y1star", "--n", "2", "--k", "2"],
        tool.LIBRARY_CASE, tool.SERIES_CASE])
    good = copy_tree(tmp_path / "good")
    wrong = copy_tree(tmp_path / "wrong")
    with open(wrong / "src" / "degsimsek" / "algebra.py", "a") as handle:
        handle.write(
            "\n_exact_reciprocal = _reciprocal\n\n\n"
            "def _reciprocal(nums, den, old=None):\n"
            "    bs, d = _exact_reciprocal(nums, den, old)\n"
            "    return _lowest([*bs[:-1], bs[-1] + d], d)\n")
    assert tool.main([str(good), str(good)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "3 cases, 0 differing"
    assert tool.main([str(good), str(wrong)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "DIFFERS (stdout): library stream", "DIFFERS (stdout): series stream",
        "3 cases, 2 differing"]


def test_table_cases_catch_a_wrong_s2star_cell(tool, tmp_path, monkeypatch,
                                               capsys):
    # a tree whose s2star table is wrong in one cell reads alike in the
    # series stream, which reads new_deg_stirling2 directly, and in the
    # other tables, but not in the s2star table cases
    s2star_cases = [case for case in load_tool().cases()
                    if case[:3] == ["table", "--family", "s2star"]]
    # symbolic and at --alpha, CSV and JSON, at 8x8; symbolic at 10x10
    assert len(s2star_cases) == 5
    good = copy_tree(tmp_path / "good")
    wrong = copy_tree(tmp_path / "wrong")
    with open(wrong / "src" / "degsimsek" / "tables.py", "a") as handle:
        handle.write(
            "\n_exact_s2star = new_deg_stirling2\n\n\n"
            "def new_deg_stirling2(n, k, alpha):\n"
            "    value = _exact_s2star(n, k, alpha)\n"
            "    return value + 1 if (n, k) == (3, 2) else value\n")
    monkeypatch.setattr(tool, "cases", lambda: [
        *s2star_cases,
        ["table", "--family", "y1deg", "--n-max", "4", "--k-max", "4"],
        tool.SERIES_CASE])
    assert tool.main([str(good), str(wrong)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        *(f"DIFFERS (stdout): {tool.label(case)}" for case in s2star_cases),
        "7 cases, 5 differing"]


def test_suite_stream_catches_a_memo_that_outlives_a_suite(
        tool, tmp_path, monkeypatch, capsys):
    # a tree that keeps FUNC-EQ's right side from the first suite as one
    # list in stream order, whatever the order of the next, reads alike in
    # every single verify call and in the library stream, but not in the
    # suite stream
    monkeypatch.setattr(tool, "cases", lambda: [
        ["verify", "--identity", "FUNC-EQ", "--order", "12"],
        ["verify", "--identity", "FUNC-EQ", "--order", "8"],
        tool.LIBRARY_CASE, tool.SUITE_CASE])
    good = copy_tree(tmp_path / "good")
    stale = copy_tree(tmp_path / "stale")
    with open(stale / "src" / "degsimsek" / "registry.py", "a") as handle:
        handle.write(
            "\n_exact_func_eq = check_func_eq\n_kept = []\n\n\n"
            "def check_func_eq(order):\n"
            "    pairs = list(_exact_func_eq(order))\n"
            "    if not _kept:\n"
            "        _kept.extend(rhs for _, _, rhs in pairs)\n"
            "    return ((where, lhs, rhs) for (where, lhs, _), rhs\n"
            "            in zip(pairs, _kept))\n")
    assert tool.main([str(good), str(stale)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "DIFFERS (stdout): suite stream", "4 cases, 1 differing"]


def test_climb_stream_catches_an_error_of_one_order_steps(
        tool, tmp_path, monkeypatch, capsys):
    # a tree whose chains go wrong only when a product is extended by one
    # order at order 10 or above reads alike in the series stream, which
    # jumps several orders at a time there, but not in the climb stream
    monkeypatch.setattr(tool, "cases", lambda: [tool.SERIES_CASE,
                                                tool.CLIMB_CASE])
    good = copy_tree(tmp_path / "good")
    wrong = copy_tree(tmp_path / "wrong")
    with open(wrong / "src" / "degsimsek" / "classical.py", "a") as handle:
        handle.write(
            "\n_exact_extend_qq = _extend_qq\n\n\n"
            "def _extend_qq(old, prev, x, step, i):\n"
            "    nums, den = _exact_extend_qq(old, prev, x, step, i)\n"
            "    if old is None or len(old[0]) != len(nums) - 1 \\\n"
            "            or len(nums) < 11:\n"
            "        return nums, den\n"
            "    return _lowest([*nums[:-1], nums[-1] + den], den)\n")
    assert tool.main([str(good), str(wrong)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "DIFFERS (stdout): climb stream", "2 cases, 1 differing"]


def test_revisit_stream_catches_a_memo_keyed_without_alpha(
        tool, tmp_path, monkeypatch, capsys):
    # a tree that keeps apostol_euler's values by (n, k, lambda) alone
    # reads alike in the series stream, whose points have distinct
    # lambdas, but not in the revisit stream, where two points share one
    monkeypatch.setattr(tool, "cases", lambda: [tool.SERIES_CASE,
                                                tool.REVISIT_CASE])
    good = copy_tree(tmp_path / "good")
    stale = copy_tree(tmp_path / "stale")
    with open(stale / "src" / "degsimsek" / "degenerate.py", "a") as handle:
        handle.write(
            "\n_exact_apostol = apostol_euler\n_by_lam = {}\n\n\n"
            "def apostol_euler(n, k, lam0, alpha0):\n"
            "    key = (n, k, Fraction(lam0))\n"
            "    if key not in _by_lam:\n"
            "        _by_lam[key] = _exact_apostol(n, k, lam0, alpha0)\n"
            "    return _by_lam[key]\n")
    assert tool.main([str(good), str(good)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "2 cases, 0 differing"
    assert tool.main([str(good), str(stale)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "DIFFERS (stdout): revisit stream", "2 cases, 1 differing"]
