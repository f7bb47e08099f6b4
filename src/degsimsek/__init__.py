"""Exact computation of new-type degenerate Simsek numbers, the special
number families around them, and mechanical verification of their
identities over polynomials in (l, a) or rational sample grids."""

from .algebra import (ParamPoly, SeriesDomainError, SeriesStructureError,
                      TruncSeries)
from .classical import bernoulli_number, stirling1, stirling2
from .degenerate import (apostol_euler, deg_stirling1, deg_stirling2,
                         new_deg_stirling2)
from .phi import phi_series
from .registry import REGISTRY, run_suite
from .simsek import deg_simsek_y1, fk_series, simsek_y1, y1star
from .tables import NumberTable, build_table

__version__ = "0.1.0"

__all__ = [
    "ParamPoly", "TruncSeries",
    "SeriesDomainError", "SeriesStructureError",
    "stirling1", "stirling2", "bernoulli_number",
    "deg_stirling1", "deg_stirling2", "new_deg_stirling2", "apostol_euler",
    "simsek_y1", "deg_simsek_y1", "y1star", "fk_series",
    "phi_series",
    "REGISTRY", "run_suite",
    "NumberTable", "build_table",
]
