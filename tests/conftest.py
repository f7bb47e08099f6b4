"""Fixtures shared by the test modules."""

import pytest

from degsimsek import classical, degenerate, simsek
from degsimsek.algebra import ParamPoly


@pytest.fixture
def cold_chains(monkeypatch):
    """Empty product chains behind bernoulli_number, new_deg_stirling2,
    apostol_euler and fk_series at a point for one test; the warm ones
    come back afterwards."""
    monkeypatch.setattr(classical, "_bernoulli_powers",
                        classical._ProductChain(classical._bernoulli_base))
    monkeypatch.setattr(degenerate, "_s2star_chains", {})
    monkeypatch.setattr(degenerate, "_apostol_chains", {})
    monkeypatch.setattr(simsek, "_fk_chains", {})


@pytest.fixture
def terms_reads(monkeypatch) -> list:
    """Record each read of ParamPoly.terms, which builds a Fraction per
    term, for one test: the polynomial read is appended to the returned
    list."""
    reads = []
    inner = ParamPoly.terms

    def counted(poly):
        reads.append(poly)
        return inner.fget(poly)
    monkeypatch.setattr(ParamPoly, "terms", property(counted))
    return reads
