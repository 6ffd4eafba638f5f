"""Independent verification of assembled solutions.

``symbolic_residual`` substitutes the solution into the original
equation as a formal series and returns the residual slice by slice.
It is deliberately a different computation from the reduction: the
derivative jets are built over a bounded Laurent-type window (exponents
from the leading pole up to the requested order) by applying the
first-order coordinate chain rules

    d/dt   = dT,        d/dx_i = -(d surface/d x_i) dT + dX_i

twice, and the nonlinearity is evaluated monomial by monomial on those
pole-tracking jets.  Nothing is shared with the reduction's operator
coefficients, homogeneity shifts or split bookkeeping; agreement is
evidence, not tautology.

No logarithm ever enters: the equation consumes only derivatives of u,
and the derivative jets of -a log T are Laurent.  The window is a
bounded Laurent view (lowest exponent -2 in T, or -(m+1) in s), not a
general Laurent implementation.

``numeric_residual`` evaluates the same residual pointwise from exact
closed-form derivatives of the singular part plus polynomial evaluation
of the derivatives of v, so no series truncation enters beyond the one
already in v; it then fits the residual decay order and the blowup rate
of u_t in log-log coordinates.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import CompatibilityError, DomainError, InputError
from .nonlinearity import Nonlinearity
from .reduction import (
    REGIME_ELLIPTIC,
    REGIME_FRACTIONAL,
    REGIME_NEGATIVE,
    SingularSolution,
    gradient_square_f,
)
from .series import SeriesContext, SigmaSeries, XSeries, _inv_scalar, _is_exact, horner


# ----------------------------------------------------------------------
# bounded Laurent window with XSeries coefficients
# ----------------------------------------------------------------------


class PoleSeries:
    """sum over e of c_e(x) sigma^e for integer e in a bounded window.

    ``low`` is the exponent of ``coeffs[0]``; everything above ``high``
    is silently dropped (the verification order is fixed up front).
    """

    __slots__ = ("kind", "m", "low", "high", "xctx", "coeffs")

    def __init__(self, kind, m, low, high, xctx, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[0].is_zero():
            coeffs.pop(0)
            low += 1
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        if not coeffs:
            low = 0
        if low + len(coeffs) - 1 > high:
            coeffs = coeffs[: high - low + 1]
        self.kind = kind
        self.m = m
        self.low = low
        self.high = high
        self.xctx = xctx
        self.coeffs = tuple(coeffs)

    @classmethod
    def constant(cls, xs: XSeries, exponent: int, kind, m, high):
        return cls(kind, m, exponent, high, xs.ctx, [xs])

    @classmethod
    def from_sigma(cls, sigma: SigmaSeries, high: int):
        return cls(sigma.kind, sigma.m, 0, high, sigma.xctx, list(sigma.coeffs))

    def coeff(self, exponent: int) -> XSeries:
        idx = exponent - self.low
        if 0 <= idx < len(self.coeffs):
            return self.coeffs[idx]
        return self.xctx.zero()

    def exponents(self):
        return range(self.low, self.low + len(self.coeffs))

    def _check(self, other: "PoleSeries"):
        if (self.kind, self.m, self.high, self.xctx) != (other.kind, other.m, other.high, other.xctx):
            raise CompatibilityError("pole series windows differ")

    def __add__(self, other):
        self._check(other)
        if not self.coeffs:
            return other
        if not other.coeffs:
            return self
        low = min(self.low, other.low)
        top = max(self.low + len(self.coeffs), other.low + len(other.coeffs)) - 1
        coeffs = [self.coeff(e) + other.coeff(e) for e in range(low, top + 1)]
        return PoleSeries(self.kind, self.m, low, self.high, self.xctx, coeffs)

    def __neg__(self):
        return PoleSeries(self.kind, self.m, self.low, self.high, self.xctx,
                          [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, PoleSeries):
            self._check(other)
            if not self.coeffs or not other.coeffs:
                return PoleSeries(self.kind, self.m, 0, self.high, self.xctx, [])
            low = self.low + other.low
            size = self.high - low + 1
            out = [self.xctx.zero() for _ in range(max(size, 0))]
            for i, ci in enumerate(self.coeffs):
                if ci.is_zero():
                    continue
                for j, cj in enumerate(other.coeffs):
                    if i + j >= size:
                        break
                    if not cj.is_zero():
                        out[i + j] = out[i + j] + ci * cj
            return PoleSeries(self.kind, self.m, low, self.high, self.xctx, out)
        return PoleSeries(self.kind, self.m, self.low, self.high, self.xctx,
                          [c * other for c in self.coeffs])

    __rmul__ = __mul__

    def d_T(self) -> "PoleSeries":
        """Derivative with respect to T: in kind 's', T = sigma^m, so the
        exponent drops by m and picks up the factor e/m."""
        if self.kind == "T":
            coeffs = [c * e for e, c in zip(self.exponents(), self.coeffs)]
            return PoleSeries(self.kind, self.m, self.low - 1, self.high, self.xctx, coeffs)
        inv_m = _inv_scalar(self.m)
        coeffs = [c * e * inv_m for e, c in zip(self.exponents(), self.coeffs)]
        return PoleSeries(self.kind, self.m, self.low - self.m, self.high, self.xctx, coeffs)

    def d_X(self, i: int) -> "PoleSeries":
        return PoleSeries(self.kind, self.m, self.low, self.high, self.xctx,
                          [c.partial(i) for c in self.coeffs])


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------


@dataclass
class ResidualReport:
    """Symbolic residual slices plus numeric samples and fits.

    ``symbolic_orders`` pairs each sigma exponent with the largest
    coefficient magnitude of its residual slice.  Fitted quantities
    carry least-squares standard errors; they are None when fewer than
    two usable samples exist (e.g. the residual is identically zero).
    """

    symbolic_orders: list = field(default_factory=list)
    samples: list = field(default_factory=list)  # (T, x, residual, u, du_dt)
    fitted_slope: float | None = None
    fitted_slope_stderr: float | None = None
    fitted_blowup_exponent: float | None = None
    fitted_blowup_stderr: float | None = None

    def max_symbolic(self, from_order: int | None = None) -> float:
        vals = [v for k, v in self.symbolic_orders if from_order is None or k >= from_order]
        return max(vals, default=0.0)

    def max_numeric(self) -> float:
        return max((abs(float(s[2])) for s in self.samples), default=0.0)


# ----------------------------------------------------------------------
# symbolic substitution oracle
# ----------------------------------------------------------------------


def _work_problem(sol: SingularSolution, f: Nonlinearity | None):
    """Surface, gradient, nonlinearity and operator sign in the frame the
    series actually lives in (reflected for the negative side, the
    gradient-square right side for the elliptic case)."""
    if sol.regime == REGIME_NEGATIVE:
        if f is None:
            raise InputError("the negative-side residual needs the nonlinearity")
        return -sol.surface, f.negate_time(), -1
    if sol.regime == REGIME_ELLIPTIC:
        return sol.surface, gradient_square_f(sol.surface.ctx, sol.a), +1
    if f is None:
        raise InputError("the residual needs the nonlinearity")
    return sol.surface, f, -1


def symbolic_residual(sol: SingularSolution, f: Nonlinearity | None = None,
                      through_order: int | None = None) -> dict:
    """Slices of (wave or Laplace operator applied to u) minus f(jets of u),
    as a map {sigma exponent: XSeries}.

    For a solution solved through order K the slices vanish up to
    truncation: through order K-2 in the log family, K-m in the
    fractional regime.  Higher slices would read truncated-away
    coefficients of v and are not computed.
    """
    K = sol.v.max_order
    reliable = K - 2 if sol.regime != REGIME_FRACTIONAL else K - sol.m
    if through_order is None:
        through_order = reliable
    if through_order > reliable:
        raise InputError(
            f"through_order {through_order} beyond the reliable order {reliable} at K={K}"
        )
    surface, f_work, op_sign = _work_problem(sol, f)
    ctx = surface.ctx
    n = ctx.n
    grad = [surface.partial(i) for i in range(n)]
    kind, m = sol.v.kind, sol.v.m
    # each pole factor (depth 1 in sigma-units of m) pulls higher jet
    # entries down into the requested slices; widen the internal window
    # so every slice <= through_order is assembled from complete data
    high = through_order + 2 * m
    a = sol.a

    def pole(xs, e):
        return PoleSeries.constant(xs, e, kind, m, high)

    v_jet = PoleSeries.from_sigma(sol.v, high)

    if sol.regime == REGIME_FRACTIONAL:
        # u = a s^(m-1) + s^m v is itself Laurent-representable
        u_jet = pole(ctx.constant(a), m - 1) + PoleSeries(
            kind, m, m, high, ctx, list(sol.v.coeffs))
        u_t = u_jet.d_T()
        u_xi = [u_jet.d_X(i) - u_t * grad[i] for i in range(n)]
    else:
        # only derivative jets of u exist (u itself carries the log)
        vT = v_jet.d_T()
        u_t = pole(ctx.constant(-a), -1) + vT
        u_xi = [pole(grad[i] * a, -1) + v_jet.d_X(i) - vT * grad[i] for i in range(n)]

    def d_dxi(w, i):
        return w.d_X(i) - w.d_T() * grad[i]

    operator_part = u_t.d_T()
    for i in range(n):
        term = d_dxi(u_xi[i], i)
        operator_part = operator_part + term * op_sign

    # f on the jets, monomial by monomial over the pole window
    one = pole(ctx.constant(1), 0)
    t_jet = pole(surface, 0) + pole(ctx.constant(1), m)
    t_pows = [one]
    tau_pows = [one]
    xi_pows = [[one] for _ in range(n)]

    def grow(cache, base, k):
        while len(cache) <= k:
            cache.append(cache[-1] * base)
        return cache[k]

    f_jet = PoleSeries(kind, m, 0, high, ctx, [])
    for l, part in enumerate(f_work.parts):
        for mono in part:
            term = PoleSeries(kind, m, 0, high, ctx, [])
            for d, cd in enumerate(mono.coeff):
                if not cd.is_zero():
                    term = term + grow(t_pows, t_jet, d) * cd
            if not term.coeffs:
                continue
            if mono.tau_power:
                term = term * grow(tau_pows, u_t, mono.tau_power)
            for i, p in enumerate(mono.xi_powers):
                if p:
                    term = term * grow(xi_pows[i], u_xi[i], p)
            f_jet = f_jet + term

    residual = operator_part - f_jet
    lowest = -2 if sol.regime != REGIME_FRACTIONAL else -(m + 1)
    # Both the solver and this oracle apply one x-derivative after
    # degree-capped products, losing different degree-(D+1) information;
    # the slices are therefore exact through x-degree D-1 and compared
    # only there.
    x_reliable = ctx.max_degree - 1
    slices = {}
    for e in range(min(lowest, residual.low if residual.coeffs else lowest), through_order + 1):
        slices[e] = residual.coeff(e).truncated(x_reliable).with_reliable(x_reliable)
    return slices


# ----------------------------------------------------------------------
# numeric sampling
# ----------------------------------------------------------------------

TRUST_REGION_T = 0.5


@dataclass(frozen=True)
class GridSpec:
    """Sample grid: transverse distances T and absolute spatial points."""

    t_values: tuple
    x_points: tuple

    def __post_init__(self):
        if not self.t_values or not self.x_points:
            raise InputError("empty verification grid")
        for T in self.t_values:
            if T <= 0:
                raise DomainError("grid T values must be positive")
            if float(T) > TRUST_REGION_T:
                raise InputError(f"grid T value {T} outside the trust region T <= {TRUST_REGION_T}")


def default_grid(ctx: SeriesContext, radius: float = 0.2, n_points: int = 5,
                 exponents: Sequence[float] = (-3.0, -2.5, -2.0, -1.5, -1.0, -0.5)) -> GridSpec:
    """T on a half-decade log grid, x at the base point plus points in a
    ball around it (deterministic, seeded)."""
    t_values = tuple(10.0**e for e in exponents)
    n = ctx.n
    if n == 0:
        return GridSpec(t_values, ((),))
    rng = np.random.RandomState(20240817)
    points = [tuple(float(b) for b in ctx.base_point)]
    for _ in range(n_points - 1):
        direction = rng.standard_normal(n)
        direction /= np.linalg.norm(direction)
        r = radius * rng.uniform() ** (1.0 / n)
        points.append(tuple(float(b) + r * d for b, d in zip(ctx.base_point, direction)))
    return GridSpec(t_values, tuple(points))


def rational_grid(ctx: SeriesContext, t_values: Sequence, offsets: Sequence = ()) -> GridSpec:
    """Exact-arithmetic grid: Fractions for T, coordinate offsets for x."""
    points = [tuple(ctx.base_point)]
    for off in offsets:
        points.append(tuple(b + o for b, o in zip(ctx.base_point, off)))
    return GridSpec(tuple(Fraction(t) for t in t_values), tuple(points))


def numeric_residual(sol: SingularSolution, f: Nonlinearity | None = None,
                     grid: GridSpec | None = None) -> ResidualReport:
    """Point samples of the residual, the blowup rate of u_t, and their
    log-log fits, together with the symbolic slices."""
    surface, f_work, op_sign = _work_problem(sol, f)
    if grid is None:
        grid = default_grid(surface.ctx)

    report = ResidualReport()
    try:
        slices = symbolic_residual(sol, f)
        report.symbolic_orders = [(e, xs.max_abs()) for e, xs in sorted(slices.items())]
    except InputError:
        report.symbolic_orders = []

    # every x-polynomial is evaluated once per grid point; each sample
    # then only runs Horner in sigma over those values
    series = _sample_series(sol, surface)
    at_points = [_values_at(series, x, f_work) for x in grid.x_points]
    for T in grid.t_values:
        for x, values in zip(grid.x_points, at_points):
            residual, u_val, du_dt = _residual_at(sol, series, values, f_work, op_sign, T, x)
            report.samples.append((T, x, residual, u_val, du_dt))

    report.fitted_slope, report.fitted_slope_stderr = _loglog_fit(
        [(s[0], s[2]) for s in report.samples])
    report.fitted_blowup_exponent, report.fitted_blowup_stderr = _loglog_fit(
        [(s[0], s[4]) for s in report.samples], negate=True)
    return report


def _sample_series(sol: SingularSolution, surface: XSeries) -> dict:
    """The series a residual sample reads, derived once per call: the
    surface and its partials (XSeries), v and its derivatives
    (SigmaSeries); lists hold one entry per variable where indexed."""
    n = surface.ctx.n
    v = sol.v
    grad = [surface.partial(i) for i in range(n)]
    vXi = [v.partial_x(i) for i in range(n)]
    series = {"psi": [surface], "grad": grad, "gii": [g.partial(i) for i, g in enumerate(grad)],
              "v": [v], "vXi": vXi, "vXii": [w.partial_x(i) for i, w in enumerate(vXi)]}
    if sol.regime == REGIME_FRACTIONAL:
        V1 = v.map_indexed(lambda k, c: c * (sol.m + k) * _inv_scalar(sol.m))
        series.update(V1=[V1], V1x=[V1.partial_x(i) for i in range(n)])
    else:
        vT = v.deriv_sigma()
        series.update(vT=[vT], vTT=[vT.deriv_sigma()], vTx=[vT.partial_x(i) for i in range(n)])
    return series


def _values_at(series: dict, point, f_work: Nonlinearity) -> dict:
    """Each XSeries of ``series`` evaluated at ``point``, each SigmaSeries
    as its evaluated sigma-coefficients, and under "f" the coefficient
    layers of the nonlinearity."""
    values = {name: [s.eval(point) if isinstance(s, XSeries)
                     else [c.eval(point) for c in s.coeffs] for s in items]
              for name, items in series.items()}
    values["f"] = f_work.layer_values(point)
    return values


def _residual_at(sol: SingularSolution, series: dict, values: dict, f_work: Nonlinearity,
                 op_sign: int, T, x):
    """Residual, u and du/dt at one sample point, from the values of
    ``_values_at`` at x.

    Works in the frame of the stored series (reflected frame for the
    negative side); u and du/dt are converted back to the original
    orientation for reporting."""
    a = sol.a
    sigma = sol.v.sigma_of(T)
    grad_vals = values["grad"]
    lap_val = sum(values["gii"], 0 if all(_is_exact(p) for p in x) else 0.0)
    t_work = values["psi"][0] + T

    def at(name, i=0):
        return horner(values[name][i], sigma)

    if sol.regime == REGIME_FRACTIONAL:
        m = sol.m
        w0 = a * (m - 1) * _inv_scalar(m)
        u_t = w0 / sigma + at("V1")
        u_tt = -w0 * _inv_scalar(m) / sigma ** (m + 1) \
            + _eval_dT(series["V1"][0], values["V1"][0], 0, sigma, m)
        u_xis = [-g * u_t + sigma**m * at("vXi", i) for i, g in enumerate(grad_vals)]
        lap_u = 0
        for i, g in enumerate(grad_vals):
            lap_u = lap_u + g * g * u_tt \
                - g * _eval_dT(series["vXi"][i], values["vXi"][i], m, sigma, m) \
                - values["gii"][i] * u_t \
                - g * at("V1x", i) \
                + sigma**m * at("vXii", i)
        f_val = f_work.eval_numeric(t_work, x, u_t, u_xis, layers=values["f"])
        residual = u_tt - lap_u - f_val
        u_val = a * sigma ** (m - 1) + sigma**m * at("v")
        return residual, u_val, u_t

    # logarithmic family: u = -a log T + v
    vT, vTT = at("vT"), at("vTT")
    u_t = -a / T + vT
    u_tt = a / (T * T) + vTT
    u_xis = [a * g / T - g * vT + at("vXi", i) for i, g in enumerate(grad_vals)]
    sum_sq = sum((g * g for g in grad_vals), 0 * T)
    lap_tangential = a * sum_sq / (T * T) + a * lap_val / T + sum_sq * vTT - lap_val * vT
    for i, g in enumerate(grad_vals):
        lap_tangential = lap_tangential - 2 * g * at("vTx", i) + at("vXii", i)
    f_val = f_work.eval_numeric(t_work, x, u_t, u_xis, layers=values["f"])
    residual = u_tt + op_sign * lap_tangential - f_val
    u_val = -a * math.log(float(T)) + at("v")
    du_dt = -u_t if sol.regime == REGIME_NEGATIVE else u_t
    return residual, u_val, du_dt


def _eval_dT(series: SigmaSeries, values: list, shift: int, sigma, m: int):
    """d/dT of sigma^shift * series, termwise from the values of its
    sigma-coefficients (the exponents may be negative; sigma > 0 makes
    that harmless numerically).  Zero coefficients are skipped."""
    total = 0
    for k, (c, value) in enumerate(zip(series.coeffs, values)):
        e = k + shift
        if c.is_zero() or e == 0:
            continue
        total = total + value * e * _inv_scalar(m) * sigma ** (e - m)
    return total


def _loglog_fit(pairs, negate: bool = False):
    """Least-squares slope of log10|y| against log10 T with its standard
    error; None when fewer than two nonzero samples remain."""
    xs, ys = [], []
    for T, y in pairs:
        fy = abs(float(y))
        if fy == 0.0:
            continue
        xs.append(math.log10(float(T)))
        ys.append(math.log10(fy))
    if len(set(xs)) < 2:
        return None, None
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    dof = len(xs) - 2
    if dof > 0 and np.ptp(xs) > 0:
        stderr = float(np.sqrt((resid @ resid) / dof / ((xs - xs.mean()) @ (xs - xs.mean()))))
    else:
        stderr = 0.0
    if negate:
        slope = -slope
    return float(slope), stderr


# ----------------------------------------------------------------------
# artifact writers
# ----------------------------------------------------------------------


def write_residual_csv(report: ResidualReport, path, n: int):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["T"] + [f"x{i + 1}" for i in range(n)] + ["residual", "u", "du_dt"])
        for T, x, residual, u, du_dt in report.samples:
            writer.writerow([float(T)] + [float(c) for c in x]
                            + [float(residual), float(u), float(du_dt)])


def fit_summary(report: ResidualReport) -> dict:
    return {
        "samples": len(report.samples),
        "max_residual": report.max_numeric(),
        "symbolic_orders": [[k, float(v)] for k, v in report.symbolic_orders],
        "fitted_slope": report.fitted_slope,
        "fitted_slope_stderr": report.fitted_slope_stderr,
        "fitted_blowup_exponent": report.fitted_blowup_exponent,
        "fitted_blowup_stderr": report.fitted_blowup_stderr,
    }
