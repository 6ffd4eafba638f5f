"""Coordinate transform and reduced slice-evaluator equations.

In the frame T = t - psi(x), X = x the wave operator takes the form

    box = Psi dTT + 2 sum_i psi_i dXi dT + (lap psi) dT - lap_X,
    Psi = 1 - |grad psi|^2,

and the elliptic Laplacian with T = x_0 - phi(x') takes the analogous
form with principal coefficient 1 + |grad' phi|^2, cross terms
-2 phi_i, first-order -lap' phi and tangential Laplacian +lap'.

Substituting the singular ansatz and cancelling the leading pole (which
is exactly the compatibility condition checked by the geometry module)
leaves an equation solvable order by order in sigma: each slice
determines one coefficient of the regular part v through an invertible
integer divisor, k(k+1) in the logarithmic regimes and (k+m)(k+m+1) in
the fractional regime.

A ``ReducedEquation`` is an evaluator, not a stored operator catalogue:
``rhs_slice(known)`` assembles the full equation functional with the
next unknown coefficient zeroed and returns the numerator of that
coefficient.  Strict lower-triangularity holds by construction, because
the evaluator receives only the already-determined coefficients.

For the nonlinear side the evaluator uses the homogeneity shift

    f_l(jets) = sigma^(-l) * f_l(sigma * jets),

which keeps every intermediate series pole-free: sigma * u_t and
sigma * grad u are regular.  The leading slices produced this way are
the cancellation certificates; they are checked to vanish when the
equation is built and stored for inspection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
)
from .nonlinearity import Nonlinearity, monomial
from .series import SeriesContext, SigmaSeries, XSeries, _inv_scalar

REGIME_LOG = "log"
REGIME_FRACTIONAL = "fractional"
REGIME_ELLIPTIC = "elliptic"
REGIME_NEGATIVE = "negative_side"


@dataclass(frozen=True)
class TransformedOperator:
    """The second-order operator in the (T, X) frame.

    Applying it to a regular sigma series (kind T) gives
    coeff_TT * w_TT + sum_i coeff_iT[i] * w_T,i + coeff_T * w_T
    + laplacian_sign * lap_X w.
    """

    coeff_TT: XSeries
    coeff_iT: tuple
    coeff_T: XSeries
    laplacian_sign: int
    grad: tuple  # gradient of the surface function; drives the jet substitution

    def apply(self, w: SigmaSeries) -> SigmaSeries:
        wT = w.deriv_sigma()
        wTT = wT.deriv_sigma()
        out = wTT * self.coeff_TT
        for i, c in enumerate(self.coeff_iT):
            out = out + wT.partial_x(i) * c
        out = out + wT * self.coeff_T
        lap = None
        for i in range(len(self.coeff_iT)):
            term = w.partial_x(i).partial_x(i)
            lap = term if lap is None else lap + term
        if lap is not None:
            out = out + lap * self.laplacian_sign
        return out


def transform_operator(h: Hypersurface, regime: str) -> TransformedOperator:
    """Operator coefficients for the given regime.

    Wave regimes read (Psi, 2 psi_i, lap psi, -1) off the hypersurface;
    the elliptic regime treats h.psi as phi(x') and returns
    (1 + |grad phi|^2, -2 phi_i, -lap phi, +1).
    """
    if regime in (REGIME_LOG, REGIME_FRACTIONAL, REGIME_NEGATIVE):
        return TransformedOperator(
            coeff_TT=h.Psi,
            coeff_iT=tuple(g * 2 for g in h.grad),
            coeff_T=h.lap,
            laplacian_sign=-1,
            grad=h.grad,
        )
    if regime == REGIME_ELLIPTIC:
        return elliptic_operator(h.psi)
    raise InputError(f"unknown regime {regime!r}")


def elliptic_operator(phi: XSeries) -> TransformedOperator:
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
    inhomogeneous_data: SigmaSeries = field(init=False)
    first_index: int = field(init=False)

    def __post_init__(self):
        self.first_index = 0 if self.regime == REGIME_FRACTIONAL else 1
        self.certificate = self._certificate_slice()
        if not residual_is_zero(self.certificate, self.a):
            raise ReductionError(
                "leading pole fails to cancel; offending coefficient "
                f"{max(self.certificate.coeffs.items(), key=lambda kv: abs(float(kv[1])))}"
            )
        zero_known = [self.xctx.zero()] * self.first_index
        self.inhomogeneous_data = SigmaSeries(
            self.sigma_kind, self.m, self.max_order, self.xctx,
            [self.xctx.zero()] * self.first_index
            + [self.rhs_slice(zero_known + [self.xctx.zero()] * (k - self.first_index))
               for k in range(self.first_index, self.max_order + 1)],
        )

    # -- public contract ---------------------------------------------------

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
        if self.regime == REGIME_FRACTIONAL:
            return -self._fractional_slices(known, k).coeff(k)
        return -self._log_slices(known, k).coeff(k - 1)

    # -- logarithmic family --------------------------------------------------

    def _log_jets(self, vbar: SigmaSeries):
        """Regular jets sigma * u_t and sigma * grad u for the log ansatz."""
        p = vbar.deriv_sigma()
        tau = p.shift(1) + self.xctx.constant(-self.a)
        xi = []
        for i, g in enumerate(self.operator.grad):
            q = vbar.partial_x(i) - p * g
            xi.append(q.shift(1) + g * self.a)
        t_series = SigmaSeries.from_xseries(self.surface, "T", 1, vbar.max_order) + \
            SigmaSeries("T", 1, vbar.max_order, self.xctx,
                        [self.xctx.zero(), self.xctx.constant(1)])
        return t_series, tau, xi

    def _log_slices(self, known: Sequence[XSeries], k: int) -> SigmaSeries:
        """E = (1/Psi) * (T box u - T f) as a regular series, assembled with
        coefficient k of v set to zero; slice k-1 carries the equation for
        coefficient k."""
        cap = k
        vbar = SigmaSeries("T", 1, cap, self.xctx, list(known))
        t_series, tau, xi = self._log_jets(vbar)
        F = [self.f.eval_part_on_jet(l, t_series, tau, xi) for l in range(3)]
        op = self.operator
        E = SigmaSeries.from_xseries(op.coeff_T * (-self.a), "T", 1, cap)
        E = E + op.apply(vbar).shift(1)
        # T^-1 slice of T*f cancels against a*Psi (the certificate); the
        # remaining slices of f_2 shift down by one
        E = E - SigmaSeries("T", 1, cap, self.xctx,
                            [F[2].coeff(j + 1) for j in range(cap + 1)])
        E = E - F[1]
        E = E - F[0].shift(1)
        return E * self.principal_inv

    # -- fractional regime ------------------------------------------------------

    def _fractional_jets(self, vbar: SigmaSeries):
        """Regular jets s * u_t and s * grad u for the fractional ansatz
        u = a T^((m-1)/m) + T v, together with t = psi + s^m."""
        m = self.m
        A = vbar.map_indexed(lambda j, c: c * (j + m)).shift(1) + \
            self.xctx.constant(self.a * (m - 1))
        tau = A * _inv_scalar(m)
        xi = []
        for i, g in enumerate(self.operator.grad):
            xi.append(vbar.partial_x(i).shift(m + 1) - tau * g)
        t_series = SigmaSeries.from_xseries(self.surface, "s", m, vbar.max_order) + \
            SigmaSeries("s", m, vbar.max_order, self.xctx,
                        [self.xctx.zero()] * m + [self.xctx.constant(1)])
        return t_series, tau, xi

    def _fractional_slices(self, known: Sequence[XSeries], k: int) -> SigmaSeries:
        """E = (1/Psi) * m^2 s^m (box u - f) with coefficient k of v zeroed;
        slice k carries the equation for coefficient k."""
        m = self.m
        cap = k + 1  # the top-degree part contributes from one slice higher
        vbar = SigmaSeries("s", m, cap, self.xctx, list(known))
        t_series, tau, xi = self._fractional_jets(vbar)
        F = [self.f.eval_part_on_jet(l, t_series, tau, xi) for l in range(m + 2)]
        op = self.operator

        # m^2 s^m box u, singular parts cancelled:
        #   Psi sum_k k(k+m) v_k s^k                      (T dTT + 2 dT block)
        #   + sum_i 2 psi_i m(m+k) dXi v_k s^(k+m)        (cross block)
        #   + lap psi (m(m+k) v_k) s^(k+m)                (first-order block)
        #   - m^2 lap_X v s^(2m)                          (tangential block)
        #   + a m(m-1) lap psi s^(m-1)                    (from the pole ansatz)
        E = vbar.map_indexed(lambda j, c: c * (j * (j + m))) * op.coeff_TT
        for i, c in enumerate(op.coeff_iT):
            E = E + vbar.partial_x(i).map_indexed(
                lambda j, ci: ci * (m * (m + j))).shift(m) * c
        E = E + vbar.map_indexed(lambda j, c: c * (m * (m + j))).shift(m) * op.coeff_T
        lap = None
        for i in range(len(op.coeff_iT)):
            term = vbar.partial_x(i).partial_x(i)
            lap = term if lap is None else lap + term
        if lap is not None:
            E = E + lap.shift(2 * m) * (op.laplacian_sign * m * m)
        inhom = SigmaSeries.zeros("s", m, cap, self.xctx) + \
            SigmaSeries("s", m, cap, self.xctx,
                        [self.xctx.zero()] * (m - 1) + [op.coeff_T * (self.a * m * (m - 1))])
        E = E + inhom

        mm = m * m
        for l in range(m + 1):
            E = E - F[l].shift(m - l) * mm
        # the top part enters as s^-1 F_{m+1}: slice 0 is the certificate,
        # the rest shifts down by one
        E = E - SigmaSeries("s", m, cap, self.xctx,
                            [F[m + 1].coeff(j + 1) * mm for j in range(cap + 1)])
        return E * self.principal_inv

    # -- certificates -----------------------------------------------------------

    def _certificate_slice(self) -> XSeries:
        """The v-independent leading pole coefficient that the compatibility
        conditions force to vanish: a*Psi - [F_2]_0 in the log family,
        -a(m-1)*Psi - m^2 [F_{m+1}]_0 in the fractional regime."""
        if self.regime == REGIME_FRACTIONAL:
            m = self.m
            vbar = SigmaSeries.zeros("s", m, 1, self.xctx)
            t_series, tau, xi = self._fractional_jets(vbar)
            top = self.f.eval_part_on_jet(m + 1, t_series, tau, xi)
            return self.operator.coeff_TT * (-self.a * (m - 1)) - top.coeff(0) * (m * m)
        vbar = SigmaSeries.zeros("T", 1, 1, self.xctx)
        t_series, tau, xi = self._log_jets(vbar)
        f2 = self.f.eval_part_on_jet(2, t_series, tau, xi)
        return self.operator.coeff_TT * self.a - f2.coeff(0)


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
        worst = max(residual.coeffs.items(), key=lambda kv: abs(float(kv[1])))
        raise ReductionError(
            f"pseudo-eikonal condition fails: residual coefficient {worst[0]} = {worst[1]}"
        )
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
        worst = max(residual_top.coeffs.items(), key=lambda kv: abs(float(kv[1])))
        raise ReductionError(
            f"top-degree condition fails: residual coefficient {worst[0]} = {worst[1]}"
        )
    if not residual_is_zero(residual_m, a):
        worst = max(residual_m.coeffs.items(), key=lambda kv: abs(float(kv[1])))
        raise ReductionError(
            f"degree-m restriction must vanish on the surface: coefficient {worst[0]} = {worst[1]}"
        )
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
