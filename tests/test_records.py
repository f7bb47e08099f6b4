"""The three record classes (IdentityReport, NumberTable, RegistryEntry):
constructor signatures and defaults, repr text, equality, and that none
is hashable; and a guard that importing the package or its CLI loads none
of the heavy introspection modules."""

from fractions import Fraction
import inspect
import os
from pathlib import Path
import subprocess
import sys

import pytest

from degsimsek.registry import (REGISTRY, RegistryEntry, _everywhere, _fail,
                                _GRID_READS, _rejected)
from degsimsek.reports import IdentityReport
from degsimsek.tables import KIT_VERSION, NumberTable

SRC = Path(__file__).resolve().parents[1] / "src"


def parameters(cls) -> list[tuple[str, object]]:
    return [(name, p.default) for name, p in
            inspect.signature(cls).parameters.items()]


def pairs(ctx, order):
    return ()


# ---------------------------------------------------------------------------
# IdentityReport
# ---------------------------------------------------------------------------

def test_identity_report_signature_and_defaults():
    empty = inspect.Parameter.empty
    assert parameters(IdentityReport) == [
        ("id", empty), ("lam", empty), ("alpha", empty), ("orders", empty),
        ("status", empty), ("mismatch", ""), ("point_index", 0)]
    by_position = IdentityReport("PHI-DER", Fraction(1, 2), Fraction(-3, 4),
                                 "K=8", "fail", "n=1", 3)
    by_keyword = IdentityReport(point_index=3, mismatch="n=1",
                                status="fail", orders="K=8",
                                alpha=Fraction(-3, 4), lam=Fraction(1, 2),
                                id="PHI-DER")
    for report in (by_position, by_keyword):
        assert (report.id, report.lam, report.alpha, report.orders,
                report.status, report.mismatch, report.point_index) == (
                    "PHI-DER", Fraction(1, 2), Fraction(-3, 4), "K=8",
                    "fail", "n=1", 3)
    default = IdentityReport("X", None, None, "", "pass")
    assert (default.mismatch, default.point_index) == ("", 0)
    # a report is a plain mutable record
    default.point_index = 2
    assert default.point_index == 2


def test_identity_report_repr():
    report = IdentityReport("PHI-DER", Fraction(1, 2), Fraction(-3, 4),
                            "K=8", "fail", "n=1", 3)
    assert repr(report) == (
        "IdentityReport(id='PHI-DER', lam=Fraction(1, 2), "
        "alpha=Fraction(-3, 4), orders='K=8', status='fail', "
        "mismatch='n=1', point_index=3)")
    assert repr(IdentityReport("X", None, None, "", "pass")) == (
        "IdentityReport(id='X', lam=None, alpha=None, orders='', "
        "status='pass', mismatch='', point_index=0)")


def test_identity_report_equality_compares_every_field():
    args = ("PHI-DER", Fraction(1, 2), Fraction(-3, 4), "K=8", "fail",
            "n=1", 3)
    report = IdentityReport(*args)
    assert report == IdentityReport(*args)
    assert not report != IdentityReport(*args)
    for i, other in enumerate(("PHI-AE", Fraction(1), Fraction(0), "K=4",
                               "pass", "", 0)):
        changed = list(args)
        changed[i] = other
        assert report != IdentityReport(*changed), i
        assert not report == IdentityReport(*changed), i
    # another type is never equal
    assert report != args
    assert report != report.to_dict()
    # mutable records are not hashable
    with pytest.raises(TypeError):
        hash(report)


def test_identity_report_to_dict_and_point_text():
    report = IdentityReport("PHI-DER", Fraction(1, 2), Fraction(-3, 4),
                            "K=8", "fail", "n=1", 3)
    assert report.to_dict() == {
        "id": "PHI-DER", "lambda": "1/2", "alpha": "-3/4", "orders": "K=8",
        "status": "fail", "mismatch": "n=1"}
    assert report.point_text == "lambda=1/2;alpha=-3/4"
    symbolic = IdentityReport("EXPL-B", None, None, "n,k<=8", "pass")
    assert symbolic.to_dict() == {
        "id": "EXPL-B", "lambda": None, "alpha": None, "orders": "n,k<=8",
        "status": "pass", "mismatch": ""}
    assert symbolic.point_text == "symbolic"
    zero = IdentityReport("PHI-LOG", Fraction(0), Fraction(0), "", "pass")
    assert zero.point_text == "lambda=0;alpha=0"


# ---------------------------------------------------------------------------
# NumberTable
# ---------------------------------------------------------------------------

def test_number_table_signature_and_defaults():
    empty = inspect.Parameter.empty
    assert parameters(NumberTable) == [
        ("family", empty), ("route", empty), ("n_max", empty),
        ("k_max", empty), ("lam", empty), ("alpha", empty),
        ("entries", empty), ("version", KIT_VERSION)]
    entries = [["1", "0"]]
    by_position = NumberTable("y1", "", 0, 1, None, Fraction(2, 5), entries)
    by_keyword = NumberTable(entries=entries, alpha=Fraction(2, 5), lam=None,
                             k_max=1, n_max=0, route="", family="y1")
    for table in (by_position, by_keyword):
        assert (table.family, table.route, table.n_max, table.k_max,
                table.lam, table.alpha, table.entries, table.version) \
            == ("y1", "", 0, 1, None, Fraction(2, 5), entries, "0.1.0")
        assert table.entries is entries
    assert NumberTable("y1", "", 0, 1, None, None, entries, "9.9").version \
        == "9.9"


def test_number_table_repr():
    table = NumberTable("y1", "", 0, 1, None, Fraction(2, 5), [["1", "0"]])
    assert repr(table) == (
        "NumberTable(family='y1', route='', n_max=0, k_max=1, lam=None, "
        "alpha=Fraction(2, 5), entries=[['1', '0']], version='0.1.0')")


def test_number_table_equality_compares_every_field():
    args = ("y1star", "A", 1, 1, Fraction(1, 2), Fraction(1, 3),
            [["1", "0"], ["0", "1/2"]], "0.1.0")
    table = NumberTable(*args)
    assert table == NumberTable(*args)
    assert not table != NumberTable(*args)
    for i, other in enumerate(("y1", "B", 2, 0, None, Fraction(1, 4),
                               [["1", "0"], ["0", "1"]], "0.2.0")):
        changed = list(args)
        changed[i] = other
        assert table != NumberTable(*changed), i
    assert table != args
    with pytest.raises(TypeError):
        hash(table)


# ---------------------------------------------------------------------------
# RegistryEntry
# ---------------------------------------------------------------------------

def test_registry_entry_signature_and_defaults():
    empty = inspect.Parameter.empty
    assert parameters(RegistryEntry) == [
        ("id", empty), ("description", empty), ("mode", empty),
        ("orders", empty), ("pairs", empty), ("variant_of", None),
        ("mismatch_status", _fail), ("domain", _everywhere),
        ("reads", _GRID_READS)]
    by_position = RegistryEntry("X-1", "an identity", "rational", "K={order}",
                                pairs, "X", _rejected, bool, (3, None))
    by_keyword = RegistryEntry(reads=(3, None), domain=bool,
                               mismatch_status=_rejected, variant_of="X",
                               pairs=pairs, orders="K={order}",
                               mode="rational", description="an identity",
                               id="X-1")
    for entry in (by_position, by_keyword):
        assert (entry.id, entry.description, entry.mode, entry.orders,
                entry.pairs, entry.variant_of, entry.mismatch_status,
                entry.domain, entry.reads) == (
                    "X-1", "an identity", "rational", "K={order}", pairs, "X",
                    _rejected, bool, (3, None))
    default = RegistryEntry("X", "an identity", "symbolic", "", pairs)
    assert default.variant_of is None
    assert default.mismatch_status is _fail
    assert default.domain is _everywhere
    assert default.reads is _GRID_READS and _GRID_READS == (8, 8)


def test_registry_entry_repr_leaves_out_run_and_domain():
    # the stream, the orders text, the mismatch status and the domain take
    # no part in the repr
    entry = RegistryEntry("X-1", "an identity", "rational", "K={order}",
                          pairs, "X", _rejected, bool)
    assert repr(entry) == ("RegistryEntry(id='X-1', description='an "
                           "identity', mode='rational', variant_of='X')")
    assert repr(REGISTRY[0]) == (
        "RegistryEntry(id='EXPL-B', description='explicit double sum over "
        "C(l,j) a^(k-l) s(k,l) l^j j^n equals the series route, n,k <= 8', "
        "mode='symbolic', variant_of=None)")


def test_registry_entry_equality_ignores_run_and_domain():
    # equal by id, description, mode and variant_of alone; the stream,
    # the orders text, the mismatch status and the domain take no part,
    # and an entry is a plain record: not hashable
    entry = RegistryEntry("X-1", "an identity", "rational", "K={order}",
                          pairs, "X")
    same = RegistryEntry("X-1", "an identity", "rational", "n<=3", print,
                         "X", _rejected, bool)
    assert entry == same
    assert not entry != same
    for changed in (RegistryEntry("X-2", "an identity", "rational", "",
                                  pairs, "X"),
                    RegistryEntry("X-1", "another", "rational", "", pairs,
                                  "X"),
                    RegistryEntry("X-1", "an identity", "symbolic", "",
                                  pairs, "X"),
                    RegistryEntry("X-1", "an identity", "rational", "",
                                  pairs)):
        assert entry != changed
        assert not entry == changed
    assert entry != ("X-1", "an identity", "rational", "X")
    with pytest.raises(TypeError):
        hash(entry)
    # no two registered entries are equal
    assert all(a != b for i, a in enumerate(REGISTRY) for b in REGISTRY[i + 1:])


# ---------------------------------------------------------------------------
# what an import loads
# ---------------------------------------------------------------------------

# the machinery behind dataclasses and typing, which the package does not
# need at run time
HEAVY_MODULES = ("dataclasses", "inspect", "typing", "ast", "dis", "tokenize")

PROBE = """
import sys
loaded = [set(sys.modules)]
import degsimsek
loaded.append(set(sys.modules))
import degsimsek.cli
loaded.append(set(sys.modules))
heavy = set(sys.argv[1:])
print(sorted((loaded[1] - loaded[0]) & heavy))
print(sorted((loaded[2] - loaded[0]) & heavy))
"""


def test_import_loads_no_introspection_modules():
    # -S: no site module, which would load typing itself on some setups
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-S", "-c", PROBE, *HEAVY_MODULES],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    package, cli = done.stdout.splitlines()
    assert package == "[]", f"import degsimsek loads {package}"
    assert cli == "[]", f"import degsimsek.cli loads {cli}"
