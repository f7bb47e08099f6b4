"""Exact computation of new-type degenerate Simsek numbers, the special
number families around them, and mechanical verification of their
identities over polynomials in (l, a) or rational sample grids."""

from .algebra import (ParamPoly, SeriesDomainError, SeriesStructureError,
                      TruncSeries, series_compose, series_differentiate,
                      series_exp, series_integrate, series_log1p,
                      series_reciprocal)
from .classical import (bernoulli_number, bernoulli_poly, degenerate_falling,
                        falling_factorial, stirling1, stirling2)
from .degenerate import (apostol_euler, deg_exp_series, deg_stirling1,
                         deg_stirling2, new_deg_stirling2)
from .phi import phi_series
from .registry import REGISTRY, run_suite
from .simsek import deg_simsek_y1, fk_series, simsek_y1, y1star
from .tables import NumberTable, build_table

__version__ = "0.1.0"

__all__ = [
    "ParamPoly", "TruncSeries",
    "SeriesDomainError", "SeriesStructureError",
    "series_exp", "series_log1p", "series_reciprocal",
    "series_compose", "series_differentiate", "series_integrate",
    "stirling1", "stirling2", "falling_factorial", "degenerate_falling",
    "bernoulli_number", "bernoulli_poly",
    "deg_stirling1", "deg_stirling2", "new_deg_stirling2", "deg_exp_series",
    "apostol_euler",
    "simsek_y1", "deg_simsek_y1", "y1star", "fk_series",
    "phi_series",
    "REGISTRY", "run_suite",
    "NumberTable", "build_table",
]
