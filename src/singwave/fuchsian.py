"""Order-by-order solution of the reduced equations.

The logarithmic-family divisor k(k+1) never vanishes for k >= 1, the
fractional divisor (k+m)(k+m+1) never vanishes for k >= 0, so one
direct pass determines every coefficient uniquely: the recursion is the
constructive content of the existence statements.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, VanishingDivisorError
from .reduction import (
    REGIME_FRACTIONAL,
    ReducedEquation,
    SingularSolution,
    SliceEvaluator,
)
from .series import SigmaSeries, XSeries, _inv_scalar

DEFAULT_ORDER = 8


@dataclass
class RecursionSpec:
    """A reduced equation plus the data that selects one solution:
    the trace v0 on the surface (log family only) and the truncation
    order K.  A solve makes O(K^2) XSeries products (235 at K=10 and 675
    at K=20 for n=1, D=4), and its rational wall time grows about as K^2
    there; each product visits at most C(2n+D, D) term pairs."""

    equation: ReducedEquation
    v0: XSeries | None = None
    K: int = DEFAULT_ORDER

    def __post_init__(self):
        eq = self.equation
        if eq.regime == REGIME_FRACTIONAL:
            if self.v0 is not None:
                raise InputError("the fractional regime has no free trace; leave v0 unset")
        else:
            if self.v0 is None:
                self.v0 = eq.xctx.zero()
            elif self.v0.ctx != eq.xctx:
                raise InputError("v0 lives over a different series context")
        if self.K > eq.max_order:
            raise InputError(
                f"requested order {self.K} exceeds the equation's truncation {eq.max_order}"
            )
        for k in range(eq.first_index, self.K + 1):
            if eq.divisor(k) == 0:
                raise VanishingDivisorError(f"recursion divisor vanishes at k={k}")


def solve_recursion(spec: RecursionSpec) -> SigmaSeries:
    """All coefficients of v through order K, in one pass of the
    equation's online evaluator over the growing list of solved
    coefficients.

    Logarithmic family: v_0 is the trace, v_k = rhs_slice(v_0..v_{k-1}) / (k(k+1)).
    Fractional regime:  v_k = rhs_slice(v_0..v_{k-1}) / ((k+m)(k+m+1)), from k = 0.
    """
    eq = spec.equation
    coeffs: list[XSeries] = [] if eq.regime == REGIME_FRACTIONAL else [spec.v0]
    evaluator = SliceEvaluator(eq, coeffs)
    for k in range(eq.first_index, spec.K + 1):
        coeffs.append(evaluator.numerator() * _inv_scalar(eq.divisor(k)))
    return SigmaSeries(eq.sigma_kind, eq.m, spec.K, eq.xctx, coeffs)


def assemble_solution(spec: RecursionSpec, v: SigmaSeries,
                      f=None, surface: XSeries | None = None) -> SingularSolution:
    """Package the solved series with its surface and evaluators.

    ``surface`` overrides the equation's stored surface; the negative-side
    builder works with the reflected psi, but the assembled solution is
    expressed with the original one (its transverse variable is
    psi(x) - t)."""
    eq = spec.equation
    if surface is None:
        surface = eq.surface if eq.regime != "negative_side" else -eq.surface
    return SingularSolution(
        regime=eq.regime,
        a=eq.a,
        m=eq.m,
        surface=surface,
        v=v,
        v0=spec.v0,
        f=f,
    )
