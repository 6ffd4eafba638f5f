"""Exception hierarchy.

The CLI maps these onto exit codes: schema problems -> 2, failed
admissibility conditions -> 3, numerical verification failures -> 4.
"""


class SingwaveError(Exception):
    """Base class for all package errors."""


class CompatibilityError(SingwaveError):
    """Operands built over different variable sets, base points or truncations."""


class SingularDivisionError(SingwaveError):
    """Reciprocal of a series whose constant term vanishes at the base point."""


class DomainError(SingwaveError):
    """Evaluation outside the side of the blowup surface the solution lives on."""


class InputError(SingwaveError):
    """Invalid user-supplied data (degrees, indices, parameters)."""


class CharacteristicSurfaceError(SingwaveError):
    """The surface t = psi(x) is characteristic: 1 - |grad psi|^2 = 0 at the base point."""


class ConditionError(SingwaveError):
    """A compatibility condition between surface, coefficient and nonlinearity fails."""


class TimeReversalError(ConditionError):
    """The quadratic part mixes tau with xi, so no negative-side solution is available."""


class BranchSelectionError(SingwaveError):
    """The requested root of the first-order equation is degenerate (double root)."""


class NoRealRootError(SingwaveError):
    """The first-order equation has no real root for the transverse slope."""


class ReductionError(SingwaveError):
    """The reduced equation cannot be assembled (failed cancellation)."""


class VanishingDivisorError(SingwaveError):
    """A divisor of the order-by-order recursion vanishes (invalid regime)."""


class TriangularityError(SingwaveError):
    """A slice evaluator was asked to read a coefficient it must not depend on."""


class SchemaError(SingwaveError):
    """Problem or solution file does not match the expected schema."""
