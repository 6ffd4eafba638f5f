"""Symbolic-numeric construction of singular solutions to nonlinear wave
equations with polynomial gradient nonlinearities.

Pipeline: admissibility checks on the blowup surface, reduction to a
slice-evaluator equation with a regular singular point, order-by-order
solution, and independent residual verification.
"""

from .errors import (
    BranchSelectionError,
    CharacteristicSurfaceError,
    CompatibilityError,
    ConditionError,
    DomainError,
    InputError,
    NoRealRootError,
    ReductionError,
    SchemaError,
    SingularDivisionError,
    SingwaveError,
    TimeReversalError,
    TriangularityError,
    VanishingDivisorError,
)
from .fuchsian import RecursionSpec, assemble_solution, solve_recursion
from .geometry import (
    Hypersurface,
    check_higher_conditions,
    check_pseudo_eikonal,
    check_time_reversal,
    make_hypersurface,
    solve_pseudo_eikonal,
)
from .nonlinearity import NMonomial, Nonlinearity, monomial
from .reduction import (
    ReducedEquation,
    SingularSolution,
    TransformedOperator,
    build_elliptic_reduction,
    build_fractional_reduction,
    build_log_reduction,
    build_negative_side,
    transform_operator,
)
from .series import Exponent, SeriesContext, SigmaSeries, XSeries
from .verify import (
    GridSpec,
    ResidualReport,
    default_grid,
    numeric_residual,
    rational_grid,
    symbolic_residual,
)

__version__ = "0.1.0"

__all__ = [
    "BranchSelectionError",
    "CharacteristicSurfaceError",
    "CompatibilityError",
    "ConditionError",
    "DomainError",
    "Exponent",
    "GridSpec",
    "Hypersurface",
    "InputError",
    "NMonomial",
    "NoRealRootError",
    "Nonlinearity",
    "RecursionSpec",
    "ReducedEquation",
    "ReductionError",
    "ResidualReport",
    "SchemaError",
    "SeriesContext",
    "SigmaSeries",
    "SingularDivisionError",
    "SingularSolution",
    "SingwaveError",
    "TimeReversalError",
    "TransformedOperator",
    "TriangularityError",
    "VanishingDivisorError",
    "XSeries",
    "assemble_solution",
    "build_elliptic_reduction",
    "build_fractional_reduction",
    "build_log_reduction",
    "build_negative_side",
    "check_higher_conditions",
    "check_pseudo_eikonal",
    "check_time_reversal",
    "default_grid",
    "make_hypersurface",
    "monomial",
    "numeric_residual",
    "rational_grid",
    "solve_pseudo_eikonal",
    "solve_recursion",
    "symbolic_residual",
    "transform_operator",
]
