"""Solvers and diagnostics for Caputo fractional initial value problems.

The package builds piecewise-polynomial discretizations of the Caputo
derivative of order 0 < alpha < 1 (degrees 1..3 with all admissible
evaluation offsets), steps implicit one-leg methods built on them, and
exposes the stability and truncation diagnostics used to validate them.
"""

from .expr import ExprError, ExprEvalError, ExprSyntaxError, evaluate, parse
from .harness import (
    ConfigError,
    ConvergenceRow,
    RunConfig,
    TruncationSample,
    linear_complex,
    load_config,
    mlf_decay,
    nonlinear_square,
    run_convergence,
    run_truncation_study,
)
from .kernel import backward_diff, kernel_table
from .operator import GridSpec, Trajectory, apply_discrete_caputo
from .oracle import (
    PiecewiseInterpolant,
    build_interpolant,
    caputo_monomial,
    oracle_discrete_caputo,
)
from .solver import (
    NewtonConfig,
    NewtonDivergedError,
    PivotBreakdownError,
    ProblemSpec,
    SolveReport,
    solve,
)
from .special import MittagLefflerError, binom_series, mittag_leffler
from .stability import (
    LocusCurve,
    RegionVerdict,
    boundary_locus,
    in_stability_region,
)
from .weights import (
    ALL_SCHEMES,
    SchemeId,
    WeightConsistencyError,
    WeightTable,
    piece_layout,
    weight_table,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # special functions
    "MittagLefflerError", "mittag_leffler", "binom_series",
    # kernel integrals
    "kernel_table", "backward_diff",
    # weights
    "SchemeId", "ALL_SCHEMES", "WeightTable", "WeightConsistencyError",
    "weight_table", "piece_layout",
    # operator
    "GridSpec", "Trajectory", "apply_discrete_caputo",
    # reference evaluation
    "PiecewiseInterpolant", "build_interpolant",
    "oracle_discrete_caputo", "caputo_monomial",
    # time stepping
    "ProblemSpec", "NewtonConfig", "SolveReport", "solve",
    "NewtonDivergedError", "PivotBreakdownError",
    # stability
    "LocusCurve", "RegionVerdict",
    "boundary_locus", "in_stability_region",
    # expressions
    "parse", "evaluate", "ExprError", "ExprSyntaxError", "ExprEvalError",
    # harness
    "mlf_decay", "linear_complex", "nonlinear_square",
    "ConvergenceRow", "run_convergence", "TruncationSample", "run_truncation_study",
    "RunConfig", "load_config", "ConfigError",
]
