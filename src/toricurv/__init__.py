"""Curvature invariants of immersed tori in Euclidean balls.

Exact trigonometric immersions, their second-fundamental-form invariants,
flat subtorus designs certified in rational arithmetic, and runnable checks
of the sharp normal-curvature bounds, with a search probe for the open
pointwise case.
"""

__version__ = "0.1.0"

from .designs import (
    DesignReport,
    FrameMatrix,
    builtin_design,
    clifford,
    parse_frame_matrix,
    subtorus_immersion,
    validate_design,
)
from .errors import ToricurvError
from .explore import SearchConfig, SearchResult, optimize
from .formats import load_immersion, parse_immersion, save_immersion
from .immersion import (
    FourierImmersion,
    FourierTerm,
    Jet,
    Signature,
    evaluate_jet,
    immersion_rank_check,
    transform,
)
from .intrinsic import ConformalTrace, conformal_rate, conformal_trace
from .pointwise import PointInvariants, extremal_normal_curvature, invariants_at
from .quadrature import (
    SphereSampler,
    TorusGrid,
    monomial_selftest,
    sphere_average_mc,
)
from .verify import CheckReport, run_checks

__all__ = [name for name in dir() if not name.startswith("_")]
