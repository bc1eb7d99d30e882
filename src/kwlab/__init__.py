"""Numerical laboratory for the Kazdan-Warner equation −Δu + α = S·e^{2u/n}
on flat tori: a spectral Newton–Krylov solver, a pseudo-arclength
continuation through folds, critical thresholds, and executable a-priori
estimates.
"""

from .domain import (
    RegionMask,
    ScalarField,
    TorusDomain,
    ball_mask,
    integrate,
    make_cutoff,
    make_torus,
    sublevel_mask,
)
from .problem import ProblemInstance
from .solvers import SolveReport
from .threshold import ProbeRecord, ThresholdReport

__all__ = [
    "ProbeRecord",
    "ProblemInstance",
    "RegionMask",
    "ScalarField",
    "SolveReport",
    "ThresholdReport",
    "TorusDomain",
    "ball_mask",
    "integrate",
    "make_cutoff",
    "make_torus",
    "sublevel_mask",
]

__version__ = "0.1.0"
