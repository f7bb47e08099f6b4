"""Fixtures shared by the test modules."""

import pytest

from degsimsek import classical, degenerate


@pytest.fixture
def cold_chains(monkeypatch):
    """Empty product chains behind bernoulli_number, new_deg_stirling2 and
    apostol_euler for one test; the warm ones come back afterwards."""
    monkeypatch.setattr(classical, "_bernoulli_powers",
                        classical._ProductChain(classical._bernoulli_base))
    monkeypatch.setattr(degenerate, "_s2star_chains", {})
    monkeypatch.setattr(degenerate, "_apostol_chains", {})
