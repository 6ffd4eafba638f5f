"""Blowup-surface geometry.

The singular locus is the graph t = psi(x).  This module derives the
quantities the reduction needs (gradient, Laplacian, the principal
function Psi = 1 - |grad psi|^2), checks the compatibility conditions
linking (psi, a, f), and constructs psi from (f_2, a) by solving the
first-order equation

    1 - |grad psi|^2 = a * f_2(psi(x), x; -1, grad psi(x))

order by order in the first variable (classical noncharacteristic
first-order theory: prescribe psi on {x_0 = base}, pick a root for the
transverse slope, then every higher Taylor coefficient solves a linear
equation).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BranchSelectionError,
    CharacteristicSurfaceError,
    InputError,
    NoRealRootError,
)
from .nonlinearity import Nonlinearity
from .series import XSeries, _is_exact, _inv_scalar, exact_fraction_root

#: coefficients below this are treated as zero when float arithmetic is in play
FLOAT_ZERO_TOL = 1e-10


@dataclass(frozen=True)
class Hypersurface:
    """The surface t = psi(x) with derived fields.

    ``grad``, ``lap`` and ``Psi`` are always recomputed from ``psi``;
    the surface must be noncharacteristic at the base point.
    """

    psi: XSeries
    grad: tuple
    lap: XSeries
    Psi: XSeries

    @property
    def n(self) -> int:
        return self.psi.n


def make_hypersurface(psi: XSeries) -> Hypersurface:
    """Derive gradient, Laplacian and Psi = 1 - |grad psi|^2 from psi.

    Raises CharacteristicSurfaceError when Psi vanishes at the base
    point (the surface is tangent to the light cones there).
    """
    grad = tuple(psi.partial(i) for i in range(psi.n))
    lap = psi.ctx.zero()
    Psi = psi.ctx.constant(1)
    for i, g in enumerate(grad):
        lap = lap + g.partial(i)
        Psi = Psi - g * g
    base_value = Psi.constant_term()
    if base_value == 0 or abs(float(base_value)) < 1e-12:
        raise CharacteristicSurfaceError(
            "1 - |grad psi|^2 vanishes at the base point; the surface is characteristic"
        )
    return Hypersurface(psi, grad, lap, Psi)


def residual_is_zero(residual: XSeries, *extra_exact) -> bool:
    """Zero test honoring the arithmetic mode: exact when every datum is
    int/Fraction, |coeff| <= 1e-10 otherwise."""
    exact = all(_is_exact(v) for v in (*residual.coeffs.values(), *extra_exact))
    return residual.is_zero(0.0 if exact else FLOAT_ZERO_TOL)


def worst_coefficient(residual: XSeries) -> str:
    """'<value> at exponent <exponent>' for the coefficient of largest
    magnitude (the first in graded-lex order among equals)."""
    exponent, value = max(residual.coeffs.items(), key=lambda kv: abs(float(kv[1])))
    return f"{value} at exponent {list(exponent)}"


# ----------------------------------------------------------------------
# compatibility checks
# ----------------------------------------------------------------------


def check_pseudo_eikonal(h: Hypersurface, f: Nonlinearity, a) -> XSeries:
    """Residual of 1 - |grad psi|^2 = a * f_2(psi, x; -1, grad psi).

    Returns Psi - a * f_2(Sigma); the condition holds iff the residual
    vanishes (to the working degree) and Psi is nonzero at the base.
    """
    if a == 0:
        raise InputError("the blowup coefficient a must be nonzero")
    return h.Psi - f.part_on_surface(2, h.psi) * a


def check_higher_conditions(h: Hypersurface, f: Nonlinearity, a, m: int) -> tuple:
    """Residuals of the two degree-(m+1) compatibility conditions.

    residual_top = Psi - ((-m+1)^m a^m / m^(m-1)) * f_{m+1}(Sigma)
    residual_m   = f_m(Sigma)

    Both must vanish for the fractional-power construction.
    """
    if a == 0:
        raise InputError("the blowup coefficient a must be nonzero")
    if m < 2:
        raise InputError("fractional regime needs m >= 2; use the log-case path for m = 1")
    if f.m != m:
        raise InputError(f"nonlinearity has top degree {f.m + 1}, expected {m + 1}")
    factor = ((-m + 1) ** m) * a**m * _inv_scalar(m ** (m - 1))
    residual_top = h.Psi - f.part_on_surface(m + 1, h.psi) * factor
    residual_m = f.part_on_surface(m, h.psi)
    return residual_top, residual_m


def check_time_reversal(f: Nonlinearity) -> bool:
    """True iff every monomial of f_2 has an even tau power, i.e. f_2 is
    free of tau*xi_j cross terms.  This is the (psi-independent)
    sufficient condition for solutions on the negative side."""
    return all(mono.tau_power % 2 == 0 for mono in f.part(2))


# ----------------------------------------------------------------------
# constructing psi from (f_2, a)
# ----------------------------------------------------------------------


def solve_pseudo_eikonal(f: Nonlinearity, a, init: XSeries, branch) -> XSeries:
    """Construct psi with psi(base_0, x') = init and the transverse slope
    chosen by ``branch`` ("+", "-", or a numeric slope hint).

    The scalar equation for p = d psi/d x_0 at the base point is a
    quadratic (f_2 has xi_0-degree at most 2 by homogeneity), solved in
    closed form; each higher Taylor coefficient of psi then satisfies a
    linear equation with the simple-root derivative as its pivot.
    """
    if a == 0:
        raise InputError("the blowup coefficient a must be nonzero")
    ctx = init.ctx
    n = ctx.n
    if n < 1:
        raise InputError("need at least one spatial variable to develop psi")
    if any(e[0] != 0 for e in init.coeffs):
        raise InputError("initial data must not depend on the first variable")
    base = ctx.base_point

    psi0_base = init.eval(base)
    tangential = [init.partial(i).eval(base) for i in range(n)]

    def g_scalar(p):
        xi = [p] + tangential[1:]
        value = 1 - p * p
        for i in range(1, n):
            value = value - tangential[i] * tangential[i]
        return value - a * f.eval_numeric(psi0_base, base, -1, xi, part=2)

    # exact quadratic reconstruction from three samples (f_2 is quadratic)
    half = Fraction(1, 2)
    gc = g_scalar(0)
    gp = g_scalar(1)
    gm = g_scalar(-1)
    A = (gp + gm) * half - gc
    B = (gp - gm) * half
    C = gc

    root = _pick_root(A, B, C, branch)
    e0 = tuple(1 if j == 0 else 0 for j in range(n))
    coeffs = dict(init.coeffs)
    coeffs[e0] = root

    pivot = 2 * A * root + B  # dG/dp at the chosen root
    if abs(float(pivot)) < 1e-12:
        # degenerate slope equation: acceptable only when the condition is
        # identically satisfied (e.g. f_2 = (tau^2 - |xi|^2)/a), in which
        # case the initial guess already solves it order by order
        candidate = XSeries(ctx, coeffs)
        residual = check_pseudo_eikonal(make_hypersurface(candidate), f, a)
        if residual_is_zero(residual.up_to_reliable(), a):
            return candidate
        raise BranchSelectionError("double root for the transverse slope; no simple branch")
    inv_pivot = _inv_scalar(pivot)

    D = ctx.max_degree
    for r in range(1, D):
        # equations at total degree r with x0-degree beta1 pin down the
        # psi coefficients at degree r+1 with x0-degree beta1 + 1; lower
        # beta1 batches feed the later ones, hence the recomputation of G
        for beta1 in range(r + 1):
            G = check_pseudo_eikonal(make_hypersurface(XSeries(ctx, coeffs)), f, a)
            for beta in ctx.exponents_of_degree(r):
                if beta[0] != beta1:
                    continue
                val = G.coeffs.get(beta, 0)
                if val == 0:
                    continue
                target = tuple(p + 1 if j == 0 else p for j, p in enumerate(beta))
                coeffs[target] = -val * inv_pivot * _inv_scalar(beta1 + 1)
    return XSeries(ctx, coeffs)


def _pick_root(A, B, C, branch):
    exact = all(_is_exact(v) for v in (A, B, C))
    if A == 0:
        if B == 0:
            if C != 0:
                raise NoRealRootError("the slope equation has no solution (no p dependence)")
            # identically satisfied: any slope works, but one must be named
            if isinstance(branch, str) and branch in ("+", "-"):
                raise InputError(
                    "the slope equation is identically satisfied; give a numeric "
                    "slope hint instead of a sign branch"
                )
            try:
                return branch if _is_exact(branch) else float(branch)
            except (TypeError, ValueError):
                raise InputError(f"bad branch {branch!r}") from None
        return -C * _inv_scalar(B)
    disc = B * B - 4 * A * C
    if disc < 0:
        raise NoRealRootError("no real root for the transverse slope")
    if exact:
        sq = exact_fraction_root(disc)
        if sq is None:
            raise InputError(
                "the slope discriminant is not a rational square; "
                "use float arithmetic for this problem"
            )
    else:
        sq = float(disc) ** 0.5
    if sq == 0:
        raise BranchSelectionError("double root for the transverse slope; no simple branch")
    inv_2A = _inv_scalar(2 * A)
    roots = sorted([(-B + sq) * inv_2A, (-B - sq) * inv_2A])
    if branch == "+":
        return roots[1]
    if branch == "-":
        return roots[0]
    try:
        hint = float(branch)
    except (TypeError, ValueError):
        raise InputError(f"branch must be '+', '-' or a numeric slope hint, got {branch!r}")
    return min(roots, key=lambda r: abs(float(r) - hint))
