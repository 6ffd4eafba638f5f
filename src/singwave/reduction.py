"""Coordinate transform and the reduced equations, evaluated online.

In the frame T = t - psi(x), X = x the wave operator takes the form

    box = Psi dTT + 2 sum_i psi_i dXi dT + (lap psi) dT - lap_X,
    Psi = 1 - |grad psi|^2,

and the elliptic Laplacian with T = x_0 - phi(x') takes the analogous
form with principal coefficient 1 + |grad' phi|^2, cross terms
-2 phi_i, first-order -lap' phi and tangential Laplacian +lap'.

Substituting the singular ansatz and cancelling the leading pole (which
is exactly the compatibility condition checked by the geometry module)
leaves an equation solvable order by order in sigma: slice k fixes
coefficient k of the regular part v from the lower ones through an
invertible integer divisor, k(k+1) in the logarithmic regimes and
(k+m)(k+m+1) in the fractional regime.

``SliceEvaluator`` runs that recursion in one forward pass.  The jets
sigma u_t and sigma grad u (pole-free by the homogeneity shift
f_l(jets) = sigma^(-l) f_l(sigma jets)), their powers, and f on them are
online series: each coefficient is formed once, when every coefficient
of v it reads is solved.  ``ReducedEquation.rhs_slice(known)`` runs the
same evaluator over ``known``, so lower triangularity holds by
construction.  The leading slice is the cancellation certificate, checked
to vanish when the equation is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

from .errors import (
    DomainError,
    InputError,
    ReductionError,
    TimeReversalError,
    TriangularityError,
)
from .geometry import (
    Hypersurface,
    check_higher_conditions,
    check_pseudo_eikonal,
    check_time_reversal,
    make_hypersurface,
    residual_is_zero,
    worst_coefficient,
)
from .nonlinearity import Nonlinearity, monomial
from .series import SeriesContext, SigmaSeries, XSeries, _inv_scalar

REGIME_LOG = "log"
REGIME_FRACTIONAL = "fractional"
REGIME_ELLIPTIC = "elliptic"
REGIME_NEGATIVE = "negative_side"


@dataclass(frozen=True)
class TransformedOperator:
    """The second-order operator in the (T, X) frame:
    coeff_TT dTT + sum_i coeff_iT[i] dXi dT + coeff_T dT + laplacian_sign lap_X.
    """

    coeff_TT: XSeries
    coeff_iT: tuple
    coeff_T: XSeries
    laplacian_sign: int
    grad: tuple  # gradient of the surface function; drives the jet substitution

    def apply_slice(self, w, j: int, m: int) -> XSeries | None:
        """Slice j of m^2 s^m box(s^m W) for W = sum_i w(i) s^i, s = T^(1/m):

            j(j+m) coeff_TT w_j + m j (sum_i coeff_iT[i] dXi w_{j-m}
            + coeff_T w_{j-m}) + m^2 laplacian_sign lap_X w_{j-2m}.

        ``w(i)`` is None for a coefficient that vanishes or is not yet
        known, which then contributes nothing; None when no term does."""
        terms = []
        top, low, lowest = w(j), w(j - m), w(j - 2 * m)
        if top is not None and j:
            terms.append(top * (j * (j + m)) * self.coeff_TT)
        if low is not None and j:
            terms += [low.partial(i) * (m * j) * c for i, c in enumerate(self.coeff_iT)]
            terms.append(low * (m * j) * self.coeff_T)
        if lowest is not None and self.coeff_iT:
            laps = [lowest.partial(i).partial(i) for i in range(len(self.coeff_iT))]
            terms.append(sum(laps[1:], laps[0]) * (self.laplacian_sign * m * m))
        return sum(terms[1:], terms[0]) if terms else None


def transform_operator(h: Hypersurface, regime: str) -> TransformedOperator:
    """The wave operator's coefficients (Psi, 2 psi_i, lap psi, -1), read
    off the hypersurface."""
    if regime not in (REGIME_LOG, REGIME_FRACTIONAL, REGIME_NEGATIVE):
        raise InputError(f"no wave operator for the {regime!r} regime")
    return TransformedOperator(coeff_TT=h.Psi, coeff_iT=tuple(g * 2 for g in h.grad),
                               coeff_T=h.lap, laplacian_sign=-1, grad=h.grad)


def elliptic_operator(phi: XSeries) -> TransformedOperator:
    """The Laplacian's coefficients (1 + |grad phi|^2, -2 phi_i, -lap phi,
    +1) in the frame T = x_0 - phi(x')."""
    grad = tuple(phi.partial(i) for i in range(phi.n))
    principal = phi.ctx.constant(1)
    lap = phi.ctx.zero()
    for i, g in enumerate(grad):
        principal = principal + g * g
        lap = lap + g.partial(i)
    return TransformedOperator(
        coeff_TT=principal,
        coeff_iT=tuple(g * (-2) for g in grad),
        coeff_T=-lap,
        laplacian_sign=1,
        grad=grad,
    )


# ----------------------------------------------------------------------
# reduced equations
# ----------------------------------------------------------------------


@dataclass
class ReducedEquation:
    """Slice-evaluator form of the reduced equation.

    ``rhs_slice(known)`` returns the numerator determining the
    coefficient with index ``len(known)``; dividing by ``divisor`` at
    that index yields the coefficient.  ``first_index`` is 1 for the
    logarithmic family (index 0 is the free trace) and 0 for the
    fractional regime (no free data).
    """

    regime: str
    a: object
    m: int
    sigma_kind: str
    xctx: SeriesContext
    max_order: int
    operator: TransformedOperator
    f: Nonlinearity
    surface: XSeries
    principal_inv: XSeries
    certificate: XSeries = field(init=False)
    first_index: int = field(init=False)
    coefficients: dict = field(init=False, repr=False)

    def __post_init__(self):
        self.first_index = 0 if self.regime == REGIME_FRACTIONAL else 1
        # the monomial coefficients at t = psi + sigma^m, v-free; the top
        # part is read one order beyond max_order
        kind, m, order, one = self.sigma_kind, self.m, self.max_order + 1, self.xctx.constant(1)
        t = SigmaSeries(kind, m, order, self.xctx,
                        [self.surface] + [self.xctx.zero()] * (m - 1) + [one])
        self.coefficients = self.f.coefficients_at(
            [SigmaSeries.from_xseries(one, kind, m, order), t], range(m + 2))
        self.certificate = SliceEvaluator(self, []).certificate()
        if not residual_is_zero(self.certificate, self.a):
            raise ReductionError("leading pole fails to cancel: certificate = "
                                 + worst_coefficient(self.certificate))

    def divisor(self, k: int) -> int:
        if self.regime == REGIME_FRACTIONAL:
            return (k + self.m) * (k + self.m + 1)
        return k * (k + 1)

    def rhs_slice(self, known: Sequence[XSeries]) -> XSeries:
        """Numerator of coefficient ``k = len(known)`` given the strictly
        lower coefficients.  Never reads anything beyond ``known``."""
        k = len(known)
        if k < self.first_index:
            raise TriangularityError(
                f"coefficient {k} is free data in the {self.regime} regime, not determined"
            )
        if k > self.max_order:
            raise InputError(f"order {k} beyond the equation's truncation {self.max_order}")
        return SliceEvaluator(self, list(known)).numerator()


class SliceEvaluator:
    """The reduced equation of ``eq`` over a growing list ``v`` of solved
    coefficients (v[0] is the trace in the log family); entries of ``v``
    must not change once appended.

    With w_j = v_{j + first_index} (w_{-1} is the trace) the ansatz is
    u = u_sing + s^m W, s = T^(1/m), and the jets tau~ = s u_t and
    xi~ = s grad u have the coefficients

        tau~_0 = tau0,  tau~_j = (j - 1 + m)/m w_{j-1},
        xi~_j = dX w_{j-m-1} - tau~_j grad psi,

    tau0 = -a in the log family (m = 1) and a(m-1)/m in the fractional
    regime.  With F_l = f_l(t, x; tau~, xi~), slice j of m^2 s^m (box u - f)
    is apply_slice(w, j) + [j = m-1] m^2 tau0 coeff_T
    - m^2 (sum_{l <= m} F_l[j-m+l] + F_{m+1}[j+1]), and reads w_j only
    through j(j+m) Psi w_j: that fixes w_j.  The leading slice,
    -m tau0 Psi - m^2 F_{m+1}[0], is the certificate.
    """

    def __init__(self, eq: ReducedEquation, v: list):
        self.eq, self.v = eq, v
        m = eq.m
        inv_m = _inv_scalar(m)
        if eq.regime == REGIME_FRACTIONAL:
            self.tau0, self.pole = eq.a * (m - 1) * inv_m, eq.a * m * (m - 1)
        else:
            self.tau0 = self.pole = -eq.a
        tau0 = eq.xctx.constant(self.tau0)

        def tau_at(j):
            if j == 0:
                return tau0
            w = self.w(j - 1)
            return None if w is None else w * (j - 1 + m) * inv_m

        def xi_at(i, g, j):
            t, lower = tau[j], self.w(j - m - 1)
            out = None if t is None else -(t * g)
            if lower is not None:
                out = lower.partial(i) if out is None else lower.partial(i) + out
            return out

        tau = OnlineSeries(self, tau_at, 1)
        xi = [OnlineSeries(self, partial(xi_at, i, g), 1)
              for i, g in enumerate(eq.operator.grad)]
        coeffs = {l: tuple(None if c is None else OnlineSeries(self, c.coeff, None)
                           for c in part) for l, part in eq.coefficients.items()}
        self.F = eq.f.on_series(coeffs, tau, xi)

    @property
    def solved(self) -> int:
        """The number of solved w entries."""
        return len(self.v) - self.eq.first_index

    def w(self, i: int) -> XSeries | None:
        """w_i; None when it vanishes or is not solved yet."""
        i += self.eq.first_index
        return self.v[i] if 0 <= i < len(self.v) and not self.v[i].is_zero() else None

    def _F(self, l: int, j: int) -> XSeries | None:
        return None if self.F[l] is None else self.F[l][j]

    def certificate(self) -> XSeries:
        m = self.eq.m
        top = self._F(m + 1, 0)
        out = self.eq.operator.coeff_TT * (-m * self.tau0)
        return out if top is None else out - top * (m * m)

    def numerator(self) -> XSeries:
        """Numerator of the next coefficient, v_{len(v)}."""
        eq, m, j = self.eq, self.eq.m, self.solved
        E = eq.operator.apply_slice(self.w, j, m) or eq.xctx.zero()
        if j == m - 1:
            E = E + eq.operator.coeff_T * self.pole
        for F in [self._F(l, j - m + l) for l in range(m + 1)] + [self._F(m + 1, j + 1)]:
            if F is not None:
                E = E - F * (m * m)
        return -(E * eq.principal_inv)


class OnlineSeries:
    """A sigma series whose coefficient j is ``fn(j)`` (None for zero),
    computed from the solved prefix of an evaluator's v.  Coefficient j
    reads the unknowns through w_{j - lag} at most (lag None: not at all);
    it is kept once that entry is solved, and before that it is computed
    afresh on each request, with the unsolved entries taken as zero."""

    __slots__ = ("ev", "fn", "lag", "done")

    def __init__(self, ev: SliceEvaluator, fn, lag: int | None):
        self.ev, self.fn, self.lag, self.done = ev, fn, lag, []

    def __getitem__(self, j: int) -> XSeries | None:
        if j < 0:
            return None
        done = self.done
        if j < len(done):
            return done[j]
        value = self.fn(j)
        if value is not None and value.is_zero():
            value = None
        if j == len(done) and (self.lag is None or j - self.lag < self.ev.solved):
            done.append(value)
        return value

    def _lag(self, other: "OnlineSeries") -> int | None:
        return min((x.lag for x in (self, other) if x.lag is not None), default=None)

    def __mul__(self, other: "OnlineSeries") -> "OnlineSeries":
        def fn(j):
            # the Cauchy sum in the order of SigmaSeries.__mul__
            acc = None
            for i in range(j + 1):
                a = self[i]
                if a is not None:
                    b = other[j - i]
                    if b is not None:
                        acc = a * b if acc is None else acc + a * b
            return acc
        return OnlineSeries(self.ev, fn, self._lag(other))

    def __add__(self, other: "OnlineSeries") -> "OnlineSeries":
        def fn(j):
            a, b = self[j], other[j]
            return b if a is None else a if b is None else a + b
        return OnlineSeries(self.ev, fn, self._lag(other))


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------


def build_log_reduction(f: Nonlinearity, h: Hypersurface, a, K: int = 8,
                        regime: str = REGIME_LOG) -> ReducedEquation:
    """Reduced equation for the logarithmic ansatz u = -a log T + v.

    Requires the pseudo-eikonal residual of (h, f, a) to vanish; that
    residual is exactly what cancels the T^-2 pole.
    """
    if f.m != 1:
        raise InputError("logarithmic regime needs a quadratic nonlinearity (m = 1)")
    residual = check_pseudo_eikonal(h, f, a)
    if not residual_is_zero(residual, a):
        raise ReductionError("pseudo-eikonal condition fails: residual = "
                             + worst_coefficient(residual))
    op = transform_operator(h, regime)
    return ReducedEquation(
        regime=regime, a=a, m=1, sigma_kind="T", xctx=h.psi.ctx, max_order=K,
        operator=op, f=f, surface=h.psi, principal_inv=op.coeff_TT.reciprocal(),
    )


def build_fractional_reduction(f: Nonlinearity, h: Hypersurface, a, m: int,
                               K: int = 8) -> ReducedEquation:
    """Reduced equation for the fractional ansatz u = a T^((m-1)/m) + T v,
    solved in s = T^(1/m)."""
    residual_top, residual_m = check_higher_conditions(h, f, a, m)
    if not residual_is_zero(residual_top, a):
        raise ReductionError("top-degree condition fails: residual = "
                             + worst_coefficient(residual_top))
    if not residual_is_zero(residual_m, a):
        raise ReductionError("degree-m restriction must vanish on the surface: residual = "
                             + worst_coefficient(residual_m))
    op = transform_operator(h, REGIME_FRACTIONAL)
    return ReducedEquation(
        regime=REGIME_FRACTIONAL, a=a, m=m, sigma_kind="s", xctx=h.psi.ctx, max_order=K,
        operator=op, f=f, surface=h.psi, principal_inv=op.coeff_TT.reciprocal(),
    )


def build_negative_side(f: Nonlinearity, h: Hypersurface, a, K: int = 8) -> ReducedEquation:
    """Reduced equation on {t < psi(x)} via the reflection s = -t.

    Needs f_2 free of tau*xi cross terms; the construction then runs the
    logarithmic build on the reflected data (psi -> -psi, f -> f with
    t -> -t, tau -> -tau) and the assembled solution is read at s = -t.
    """
    if not check_time_reversal(f):
        raise TimeReversalError(
            "f_2 mixes tau with xi (odd tau powers); no negative-side solution"
        )
    f_rev = f.negate_time()
    h_rev = make_hypersurface(-h.psi)
    return build_log_reduction(f_rev, h_rev, a, K, regime=REGIME_NEGATIVE)


def build_elliptic_reduction(phi: XSeries, a, K: int = 8) -> ReducedEquation:
    """Reduced equation for lap u = (1/a) |grad u|^2 with blowup along
    x_0 = phi(x'): u = -a log(x_0 - phi) + v.

    phi lives over the n-1 tangential variables; no compatibility
    condition is needed because the principal coefficient
    1 + |grad phi|^2 is positive.
    """
    if a == 0:
        raise InputError("the blowup coefficient a must be nonzero")
    op = elliptic_operator(phi)
    return ReducedEquation(
        regime=REGIME_ELLIPTIC, a=a, m=1, sigma_kind="T", xctx=phi.ctx, max_order=K,
        operator=op, f=gradient_square_f(phi.ctx, a), surface=phi,
        principal_inv=op.coeff_TT.reciprocal(),
    )


def gradient_square_f(ctx: SeriesContext, a) -> Nonlinearity:
    """f = (tau^2 + |xi|^2) / a, the right side of lap u = (1/a) |grad u|^2."""
    inv_a = _inv_scalar(a)
    monos = [monomial(ctx, inv_a, tau_power=2)]
    for i in range(ctx.n):
        monos.append(monomial(ctx, inv_a, xi_powers=tuple(2 if j == i else 0
                                                          for j in range(ctx.n))))
    return Nonlinearity.decompose_homogeneous(monos, 1, ctx)


# ----------------------------------------------------------------------
# assembled solutions
# ----------------------------------------------------------------------


@dataclass
class SingularSolution:
    """A constructed singular solution with pointwise evaluators.

    ``surface`` is psi (wave regimes; the original psi for the negative
    side) or phi (elliptic).  ``v`` is the regular part; for the
    negative side it is the series of the reflected problem, read at
    T = psi(x) - t.  Evaluators take (t, x); for the elliptic regime t
    plays the role of x_0 and x holds the tangential variables.
    """

    regime: str
    a: object
    m: int
    surface: XSeries
    v: SigmaSeries
    v0: XSeries | None
    f: Nonlinearity | None = None  # the problem's nonlinearity (original orientation)

    def __post_init__(self):
        self._grad = tuple(self.surface.partial(i) for i in range(self.surface.n))
        self._vT = self.v.deriv_sigma()
        self._vXi = tuple(self.v.partial_x(i) for i in range(self.surface.n))
        if self.regime == REGIME_FRACTIONAL:
            m = self.m
            self._V1 = self.v.map_indexed(lambda k, c: c * (m + k) * _inv_scalar(m))

    # -- frame helpers ----------------------------------------------------------

    def transverse(self, t, x):
        """T > 0 on the valid side; raises DomainError otherwise."""
        psi_val = self.surface.eval(x)
        T = psi_val - t if self.regime == REGIME_NEGATIVE else t - psi_val
        if T <= 0:
            side = "t < psi(x)" if self.regime == REGIME_NEGATIVE else "t > psi(x)"
            raise DomainError(f"evaluation point is not on the solution side ({side})")
        return T

    def sigma(self, T):
        return self.v.sigma_of(T)

    # -- evaluators -------------------------------------------------------------

    def eval_u(self, t, x):
        T = self.transverse(t, x)
        s = self.sigma(T)
        if self.regime == REGIME_FRACTIONAL:
            return self.a * s ** (self.m - 1) + T * self.v.eval_at_sigma(s, x)
        return -self.a * math.log(float(T)) + self.v.eval_at_sigma(s, x)

    def eval_du_dt(self, t, x):
        """d u / d t; for the elliptic regime this is d u / d x_0."""
        T = self.transverse(t, x)
        s = self.sigma(T)
        if self.regime == REGIME_FRACTIONAL:
            pole = self.a * (self.m - 1) * _inv_scalar(self.m)
            return pole / s + self._V1.eval_at_sigma(s, x)
        value = -self.a / T + self._vT.eval_at_sigma(s, x)
        return -value if self.regime == REGIME_NEGATIVE else value

    def eval_du_dxi(self, t, x, i: int):
        T = self.transverse(t, x)
        s = self.sigma(T)
        g = self._grad[i].eval(x)
        if self.regime == REGIME_FRACTIONAL:
            du_dt = self.eval_du_dt(t, x)
            return -g * du_dt + T * self._vXi[i].eval_at_sigma(s, x)
        dT_u = -self.a / T + self._vT.eval_at_sigma(s, x)
        sign = 1 if self.regime == REGIME_NEGATIVE else -1
        # d/dx_i = (d T/d x_i) dT + dXi; dT/dx_i is -psi_i on the positive
        # side and +psi_i on the negative side
        return sign * g * dT_u + self._vXi[i].eval_at_sigma(s, x)

    def eval_gradient(self, t, x):
        return [self.eval_du_dxi(t, x, i) for i in range(self.surface.n)]
