"""The transformed operator against a brute-force change of variables,
the four regime builders, triangularity, and cancellation certificates."""

import math
import random
from fractions import Fraction as F

import pytest

from singwave.errors import InputError, ReductionError, TimeReversalError, TriangularityError
from singwave.geometry import make_hypersurface
from singwave.nonlinearity import Nonlinearity, monomial
from singwave.reduction import (
    build_elliptic_reduction,
    build_fractional_reduction,
    build_log_reduction,
    build_negative_side,
    elliptic_operator,
    transform_operator,
)
from singwave.series import SeriesContext, SigmaSeries

from helpers import (
    ctx_rational,
    dalembert_f,
    ode_f_tau2,
    ode_f_tau2_plus_1,
    pure_power_f,
    random_admissible_log_problem,
    random_xseries,
    tpoly_diff_t,
    tpoly_diff_x,
    tpoly_on_sigma,
)


# ----------------------------------------------------------------------
# transformed operator
# ----------------------------------------------------------------------


def test_operator_coefficients_linear_psi():
    ctx = SeriesContext(2, (0.0, 0.0), 3)
    psi = ctx.variable(0) * 0.6 + ctx.variable(1) * 0.3
    op = transform_operator(make_hypersurface(psi), "log")
    assert op.coeff_TT == ctx.constant(1 - 0.36 - 0.09)
    assert op.coeff_iT[0] == ctx.constant(1.2)
    assert op.coeff_iT[1] == ctx.constant(0.6)
    assert op.coeff_T.is_zero()
    assert op.laplacian_sign == -1


def test_operator_zero_psi_is_plain_wave_operator():
    ctx = SeriesContext(1, (0.0,), 3)
    op = transform_operator(make_hypersurface(ctx.zero()), "log")
    assert op.coeff_TT == ctx.constant(1.0)
    assert op.coeff_iT[0].is_zero()
    assert op.coeff_T.is_zero()


def test_elliptic_operator_zero_phi():
    ctx = SeriesContext(2, (0.0, 0.0), 3)
    op = elliptic_operator(ctx.zero())
    assert op.coeff_TT == ctx.constant(1.0)
    assert op.laplacian_sign == 1
    assert all(c.is_zero() for c in op.coeff_iT)


def _apply(op, y, K):
    """Slices 0..K-2 of the operator applied to the T-series y, read off
    ``apply_slice``: slice k of it is slice k+1 of T box(y), which is
    apply_slice with m = 1 and w_i = y_{i+1}."""
    def w(i):
        return y.coeff(i + 1) if i >= -1 else None

    return [op.apply_slice(w, k + 1, 1) or y.xctx.zero() for k in range(K - 1)]


def _tpoly_box(w, ctx, n):
    """Brute-force wave operator on a (t, x)-polynomial: d_tt w - lap w."""
    out = tpoly_diff_t(tpoly_diff_t(w))
    out = list(out) + [ctx.zero()] * (len(w) - len(out))
    for i in range(n):
        lap_i = tpoly_diff_x(tpoly_diff_x(w, i), i)
        for d, c in enumerate(lap_i):
            out[d] = out[d] - c
    return tuple(out)


def test_operator_identity_against_brute_force():
    """Applying the transformed operator to w(psi + T, x) agrees with
    transplanting box(w) computed directly in (t, x) coordinates."""
    rng = random.Random(59)
    n = 2
    D = 10
    ctx = ctx_rational(n, D)
    K = 6
    for _ in range(5):
        psi = random_xseries(ctx, rng, degree=2) / 3
        try:
            h = make_hypersurface(psi)
        except Exception:
            continue
        op = transform_operator(h, "log")
        # w: polynomial in (t, x), t-degree <= 3, x-degree <= 2
        w = tuple(random_xseries(ctx, rng, degree=2) for _ in range(4))
        w_sigma = tpoly_on_sigma(w, psi, "T", 1, K)
        boxed = _tpoly_box(w, ctx, n)
        expected = tpoly_on_sigma(boxed, psi, "T", 1, K)
        got = _apply(op, w_sigma, K)  # top sigma order loses one derivative
        for k in range(K - 1):
            assert got[k] == expected.coeff(k), f"slice {k} differs"


def test_elliptic_operator_identity_against_brute_force():
    """Same check for the elliptic frame: T = x0 - phi(x'), tangential
    Laplacian enters with a plus sign."""
    rng = random.Random(61)
    ctx = ctx_rational(1, 8)  # one tangential variable
    K = 5
    phi = random_xseries(ctx, rng, degree=2) / 2
    op = elliptic_operator(phi)
    w = tuple(random_xseries(ctx, rng, degree=2) for _ in range(4))  # poly in (x0, x')
    w_sigma = tpoly_on_sigma(w, phi, "T", 1, K)
    lap = tpoly_diff_t(tpoly_diff_t(w))  # d^2/dx0^2
    lap = list(lap) + [ctx.zero()] * (len(w) - len(lap))
    for d, c in enumerate(tpoly_diff_x(tpoly_diff_x(w, 0), 0)):
        lap[d] = lap[d] + c
    expected = tpoly_on_sigma(tuple(lap), phi, "T", 1, K)
    got = _apply(op, w_sigma, K)
    for k in range(K - 1):
        assert got[k] == expected.coeff(k)


# ----------------------------------------------------------------------
# log reduction
# ----------------------------------------------------------------------


def _inhomogeneous_data(eq):
    """Every slice with the unknown coefficients set to zero: the data
    that drives the recursion."""
    zero = eq.xctx.zero()
    return SigmaSeries(eq.sigma_kind, eq.m, eq.max_order, eq.xctx,
                       [zero] * eq.first_index
                       + [eq.rhs_slice([zero] * k)
                          for k in range(eq.first_index, eq.max_order + 1)])


def test_log_prototype_rhs_vanishes():
    ctx = SeriesContext(1, (0.0,), 3)
    eq = build_log_reduction(ode_f_tau2(ctx), make_hypersurface(ctx.zero()), 1.0, K=6)
    assert eq.certificate.is_zero()
    assert _inhomogeneous_data(eq).is_zero()
    known = [ctx.zero()]
    for k in range(1, 6):
        num = eq.rhs_slice(known)
        assert num.is_zero()
        known.append(ctx.zero())


def test_forced_ode_slices():
    # T v'' + 2 v' = T (v')^2 + T: first slice numerator is 1 at order 2
    ctx = ctx_rational(1, 3)
    eq = build_log_reduction(ode_f_tau2_plus_1(ctx, F(1)), make_hypersurface(ctx.zero()),
                             F(1), K=6)
    assert eq.rhs_slice([ctx.zero()]).is_zero()       # order 1
    assert eq.rhs_slice([ctx.zero(), ctx.zero()]) == ctx.constant(F(1))  # order 2


def test_log_reduction_rejects_failed_condition():
    ctx = SeriesContext(1, (0.0,), 3)
    with pytest.raises(ReductionError):
        build_log_reduction(ode_f_tau2(ctx), make_hypersurface(ctx.zero()), 2.0, K=6)


def test_plane_wave_reduction_is_trivial():
    ctx = ctx_rational(2, 4)
    a = F(2)
    f = dalembert_f(ctx, a)
    psi = ctx.variable(0) * F(1, 2)
    eq = build_log_reduction(f, make_hypersurface(psi), a, K=6)
    assert eq.certificate.is_zero()
    assert _inhomogeneous_data(eq).is_zero()


def test_rhs_slice_is_lower_triangular():
    """Probe: perturbing coefficient k must leave the slices determining
    orders <= k unchanged."""
    rng = random.Random(67)
    f, h, a, _ = random_admissible_log_problem(rng, n=1, D=3)
    eq = build_log_reduction(f, h, a, K=6)
    ctx = h.psi.ctx
    series = [ctx.constant(F(1, 2)), ctx.constant(F(1, 3)), ctx.constant(F(-1, 5)),
              ctx.constant(F(2, 7)), ctx.constant(F(-1, 11))]
    k = 3
    perturbed = list(series)
    perturbed[k] = perturbed[k] + 1
    for order in range(1, k + 1):
        assert eq.rhs_slice(series[:order]) == eq.rhs_slice(perturbed[:order])
    # beyond k the perturbation must show up (sanity that the probe bites)
    assert eq.rhs_slice(series[: k + 1]) != eq.rhs_slice(perturbed[: k + 1])
    with pytest.raises(TriangularityError):
        eq.rhs_slice([])  # the trace is free data, never determined


def test_rhs_slice_order_cap():
    ctx = SeriesContext(1, (0.0,), 3)
    eq = build_log_reduction(ode_f_tau2(ctx), make_hypersurface(ctx.zero()), 1.0, K=3)
    with pytest.raises(InputError):
        eq.rhs_slice([ctx.zero()] * 5)


# ----------------------------------------------------------------------
# fractional reduction
# ----------------------------------------------------------------------


def test_fractional_prototype_m2():
    ctx = SeriesContext(1, (0.0,), 3)
    eq = build_fractional_reduction(pure_power_f(ctx, 2), make_hypersurface(ctx.zero()),
                                    math.sqrt(2.0), 2, K=6)
    assert eq.certificate.max_abs() < 1e-10
    assert eq.divisor(0) == 6
    assert eq.divisor(1) == 12
    assert eq.rhs_slice([]).max_abs() < 1e-10


def test_fractional_prototype_m3():
    ctx = SeriesContext(1, (0.0,), 3)
    eq = build_fractional_reduction(pure_power_f(ctx, 3), make_hypersurface(ctx.zero()),
                                    3 ** (2 / 3) / 2, 3, K=6)
    assert eq.certificate.max_abs() < 1e-10
    assert eq.divisor(0) == 12


def test_fractional_rejects_bad_coefficient():
    ctx = SeriesContext(1, (0.0,), 3)
    with pytest.raises(ReductionError):
        build_fractional_reduction(pure_power_f(ctx, 2), make_hypersurface(ctx.zero()),
                                   1.0, 2, K=6)


def test_fractional_rejects_nonvanishing_part_m():
    ctx = SeriesContext(1, (0.0,), 3)
    f = Nonlinearity.decompose_homogeneous(
        [monomial(ctx, -1.0, tau_power=3), monomial(ctx, 1.0, tau_power=2)], 2, ctx)
    with pytest.raises(ReductionError):
        build_fractional_reduction(f, make_hypersurface(ctx.zero()), math.sqrt(2.0), 2, K=6)


def test_fractional_with_t_weighted_quadratic_part():
    # f = -tau^3 + t*tau^2: the t factor makes f_2 vanish on the surface,
    # and its T-quotient must drive a nonzero correction series
    ctx = SeriesContext(1, (0.0,), 3)
    f = Nonlinearity.decompose_homogeneous(
        [monomial(ctx, -1.0, tau_power=3),
         monomial(ctx, [ctx.zero(), ctx.constant(1.0)], tau_power=2)], 2, ctx)
    eq = build_fractional_reduction(f, make_hypersurface(ctx.zero()), math.sqrt(2.0), 2, K=6)
    assert eq.certificate.max_abs() < 1e-10
    assert not _inhomogeneous_data(eq).is_zero(1e-12)


# ----------------------------------------------------------------------
# negative side and elliptic
# ----------------------------------------------------------------------


def test_negative_side_plane_wave():
    ctx = ctx_rational(2, 4)
    a = F(1)
    f = dalembert_f(ctx, a)
    psi = ctx.variable(0) * F(1, 2)
    eq = build_negative_side(f, make_hypersurface(psi), a, K=6)
    assert eq.regime == "negative_side"
    assert eq.certificate.is_zero()


def test_negative_side_rejects_cross_terms():
    ctx = SeriesContext(2, (0.0, 0.0), 3)
    f = Nonlinearity.decompose_homogeneous(
        [monomial(ctx, 1.0, tau_power=1, xi_powers=(1, 0))], 1, ctx)
    psi = ctx.variable(0) * 0.5
    with pytest.raises(TimeReversalError):
        build_negative_side(f, make_hypersurface(psi), 1.0, K=6)


def test_negative_side_ode_prototype():
    ctx = SeriesContext(1, (0.0,), 3)
    eq = build_negative_side(ode_f_tau2(ctx), make_hypersurface(ctx.zero()), 1.0, K=6)
    assert _inhomogeneous_data(eq).is_zero()


def test_elliptic_flat_interface_is_exact():
    ctx = SeriesContext(2, (0.0, 0.0), 3)
    eq = build_elliptic_reduction(ctx.zero(), 1.7, K=6)
    assert eq.certificate.is_zero()
    assert _inhomogeneous_data(eq).is_zero()


def test_elliptic_affine_interface():
    ctx = ctx_rational(1, 3)
    eq = build_elliptic_reduction(ctx.variable(0) * F(1, 4), F(3, 2), K=6)
    assert eq.certificate.is_zero()
    assert _inhomogeneous_data(eq).is_zero()  # affine phi has zero curvature data


def test_elliptic_rejects_zero_a():
    ctx = SeriesContext(1, (0.0,), 3)
    with pytest.raises(InputError):
        build_elliptic_reduction(ctx.zero(), 0.0, K=4)


def test_elliptic_curved_interface_has_data():
    ctx = ctx_rational(1, 4)
    phi = ctx.from_coeffs({(2,): F(1, 3)})
    eq = build_elliptic_reduction(phi, F(1), K=6)
    assert eq.certificate.is_zero()
    assert not _inhomogeneous_data(eq).is_zero()


# ----------------------------------------------------------------------
# certificates across random admissible problems
# ----------------------------------------------------------------------


def test_certificates_vanish_on_random_admissible_problems():
    rng = random.Random(71)
    for _ in range(6):
        f, h, a, _ = random_admissible_log_problem(rng, n=rng.choice([1, 2]), D=3)
        eq = build_log_reduction(f, h, a, K=5)
        assert eq.certificate.is_zero()
