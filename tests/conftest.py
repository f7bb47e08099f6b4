"""Fixtures shared by the test modules."""

import pytest

from degsimsek import classical, degenerate, phi, simsek
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


def empty_route_a(monkeypatch):
    """Empty the route-A store, the F_k cache read from it, the y1star
    store and the phi_series rows read from the y1star store; the
    monkeypatch brings the warm ones back."""
    for module, name in ((simsek, "_route_a_store"), (simsek, "_fk_cache"),
                         (simsek, "_y1star_store"), (phi, "_phi_rows")):
        monkeypatch.setattr(module, name, {})


@pytest.fixture
def cold_route_a(monkeypatch):
    """Route A cold for one test (`empty_route_a`); the warm stores come
    back afterwards."""
    empty_route_a(monkeypatch)


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
