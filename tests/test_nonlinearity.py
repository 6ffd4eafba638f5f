"""Homogeneous decomposition, surface restriction, the split into
on-surface value plus T-quotient, and jet evaluation."""

import random
from fractions import Fraction as F

import pytest

from singwave.errors import InputError
from singwave.nonlinearity import Nonlinearity, monomial
from singwave.series import SeriesContext, SigmaSeries

from helpers import ctx_rational, random_xseries


def _ctx(n=1, D=3):
    return SeriesContext(n, (0.0,) * n, D)


def test_decompose_routes_by_degree():
    ctx = _ctx(1)
    # tau^2 - xi^2 + 3 tau + t*x
    monos = [
        monomial(ctx, 1.0, tau_power=2),
        monomial(ctx, -1.0, xi_powers=(2,)),
        monomial(ctx, 3.0, tau_power=1),
        monomial(ctx, [ctx.zero(), ctx.variable(0)]),  # t * x
    ]
    f = Nonlinearity.decompose_homogeneous(monos, 1, ctx)
    assert len(f.part(2)) == 2
    assert len(f.part(1)) == 1
    assert len(f.part(0)) == 1


def test_decompose_cubic_prototype():
    ctx = _ctx(1)
    f = Nonlinearity.decompose_homogeneous([monomial(ctx, -1.0, tau_power=3)], 2, ctx)
    assert len(f.part(3)) == 1
    assert all(not f.part(l) for l in (0, 1, 2))


def test_decompose_empty():
    ctx = _ctx(1)
    f = Nonlinearity.decompose_homogeneous([], 1, ctx)
    assert all(not f.part(l) for l in range(3))


def test_decompose_rejects_degree_overflow():
    ctx = _ctx(1)
    with pytest.raises(InputError):
        Nonlinearity.decompose_homogeneous([monomial(ctx, 1.0, tau_power=3)], 1, ctx)


def test_t_degree_cap():
    ctx = _ctx(1)
    deep = [ctx.constant(1.0)] * 6  # t-degree 5 > default cap 4
    with pytest.raises(InputError):
        Nonlinearity.decompose_homogeneous([monomial(ctx, deep, tau_power=2)], 1, ctx)


# ----------------------------------------------------------------------
# restriction to the surface
# ----------------------------------------------------------------------


def test_eval_on_sigma_linear_psi():
    ctx = _ctx(2)
    ctx = SeriesContext(2, (0.0, 0.0), 3)
    f = Nonlinearity.decompose_homogeneous(
        [monomial(ctx, 1.0, tau_power=2), monomial(ctx, -1.0, xi_powers=(2, 0)),
         monomial(ctx, -1.0, xi_powers=(0, 2))], 1, ctx)
    psi = ctx.variable(0) * 0.6 + ctx.variable(1) * 0.3
    restricted = f.part_on_surface(2, psi)
    assert restricted == ctx.constant(1 - 0.36 - 0.09)


def test_eval_on_sigma_dalembert_gives_psi_function():
    # f_2 = (tau^2 - |xi|^2)/a restricted to the surface is (1 - |grad psi|^2)/a
    ctx = ctx_rational(2, 3)
    a = F(2)
    from helpers import dalembert_f

    f = dalembert_f(ctx, a)
    rng = random.Random(5)
    psi = random_xseries(ctx, rng, degree=2)
    expected = (ctx.constant(1)
                - psi.partial(0) * psi.partial(0)
                - psi.partial(1) * psi.partial(1)) / a
    assert f.part_on_surface(2, psi) == expected


def test_eval_on_sigma_t_coefficient_vanishes_at_zero_surface():
    ctx = _ctx(1)
    f = Nonlinearity.decompose_homogeneous(
        [monomial(ctx, [ctx.zero(), ctx.constant(1.0)], tau_power=2)], 1, ctx)  # t*tau^2
    assert f.part_on_surface(2, ctx.zero()).is_zero()


# ----------------------------------------------------------------------
# split into on-surface + T-quotient
# ----------------------------------------------------------------------


def _split(f, l, psi, K):
    """f_l(t, x; -1, grad psi) at t = psi + T, as the on-surface value and
    the T-quotient: f_l = on_sigma + T * tilde."""
    ctx = psi.ctx

    def const(xs):
        return SigmaSeries.from_xseries(xs, "T", 1, K + 1)

    t = SigmaSeries("T", 1, K + 1, ctx, [psi, ctx.constant(1)])
    full = f.eval_part_on_jet(l, t, const(ctx.constant(-1)),
                              [const(psi.partial(i)) for i in range(ctx.n)])
    return full.coeff(0), SigmaSeries("T", 1, K, ctx, [full.coeff(k + 1) for k in range(K + 1)])


def test_split_t_factor():
    ctx = _ctx(1)
    f = Nonlinearity.decompose_homogeneous(
        [monomial(ctx, [ctx.zero(), ctx.constant(1.0)], tau_power=2)], 1, ctx)
    on_sigma, tilde = _split(f, 2, ctx.zero(), K=4)
    assert on_sigma.is_zero()
    assert tilde.coeff(0) == ctx.constant(1.0)
    assert all(tilde.coeff(k).is_zero() for k in range(1, 5))


def test_split_constant_coefficient_has_zero_tilde():
    ctx = _ctx(1)
    f = Nonlinearity.decompose_homogeneous([monomial(ctx, 2.5, tau_power=2)], 1, ctx)
    rng = random.Random(2)
    psi = random_xseries(SeriesContext(1, (F(0),), 3), rng, degree=2)
    on_sigma, tilde = _split(f, 2, psi, K=4)
    assert on_sigma == psi.ctx.constant(F(5, 2))
    assert tilde.is_zero()


def test_split_quadratic_t_dependence():
    # f_2 = t^2 tau^2 with psi = x: on_sigma = x^2, tilde = 2x + T
    ctx = ctx_rational(1, 3)
    f = Nonlinearity.decompose_homogeneous(
        [monomial(ctx, [ctx.zero(), ctx.zero(), ctx.constant(F(1))], tau_power=2)], 1, ctx)
    psi = ctx.variable(0)
    on_sigma, tilde = _split(f, 2, psi, K=4)
    assert on_sigma == psi * psi
    assert tilde.coeff(0) == psi * 2
    assert tilde.coeff(1) == ctx.constant(F(1))
    assert tilde.coeff(2).is_zero()


def test_split_resummation_identity():
    """on_sigma is the surface restriction, and on_sigma + T*tilde summed
    at a point equals f_l evaluated there pointwise."""
    rng = random.Random(17)
    ctx = ctx_rational(2, 6)  # high enough that nothing is truncated
    psi = random_xseries(ctx, rng, degree=2)
    f = Nonlinearity.decompose_homogeneous(
        [monomial(ctx, [random_xseries(ctx, rng, degree=1) for _ in range(3)],
                  tau_power=1, xi_powers=(1, 0))], 1, ctx)
    K = 4
    on_sigma, tilde = _split(f, 2, psi, K)
    assert on_sigma == f.part_on_surface(2, psi)
    x, T = (F(1, 3), F(-1, 5)), F(2, 7)
    resummed = on_sigma.eval(x) + T * tilde.eval_at_sigma(T, x)
    slopes = [psi.partial(i).eval(x) for i in range(2)]
    assert resummed == f.eval_numeric(psi.eval(x) + T, x, -1, slopes, part=2)


# ----------------------------------------------------------------------
# jet evaluation
# ----------------------------------------------------------------------


def _const_sigma(ctx, value, K=3):
    return SigmaSeries.from_xseries(ctx.constant(value), "T", 1, K)


def _seq_sigma(ctx, values, K=3):
    return SigmaSeries("T", 1, K, ctx, [ctx.constant(v) for v in values])


def test_eval_on_jet_square():
    ctx = _ctx(1)
    f = Nonlinearity.decompose_homogeneous([monomial(ctx, 1.0, tau_power=2)], 1, ctx)
    sigma = _seq_sigma(ctx, [0.0, 1.0])  # tau = T
    out = f.eval_on_jet(_const_sigma(ctx, 0.0), sigma, [_const_sigma(ctx, 0.0)])
    assert [out.coeff(k).constant_term() for k in range(3)] == [0, 0.0, 1.0]


def test_eval_on_jet_difference_of_squares():
    ctx = _ctx(1)
    f = Nonlinearity.decompose_homogeneous(
        [monomial(ctx, 1.0, tau_power=2), monomial(ctx, -1.0, xi_powers=(2,))], 1, ctx)
    tau = _seq_sigma(ctx, [1.0, 1.0])
    xi = _seq_sigma(ctx, [0.0, 1.0])
    out = f.eval_on_jet(_const_sigma(ctx, 0.0), tau, [xi])
    assert [out.coeff(k).constant_term() for k in range(3)] == [1.0, 2.0, 0]


def test_eval_on_jet_cubic_constant():
    ctx = _ctx(1)
    f = Nonlinearity.decompose_homogeneous([monomial(ctx, -1.0, tau_power=3)], 2, ctx)
    out = f.eval_on_jet(_const_sigma(ctx, 0.0), _const_sigma(ctx, 2.0),
                        [_const_sigma(ctx, 0.0)])
    assert out.coeff(0).constant_term() == -8.0


def test_reassembly_parts_sum_to_whole():
    rng = random.Random(23)
    ctx = ctx_rational(2, 2)
    monos = []
    for j, alpha in [(2, (0, 0)), (1, (1, 0)), (0, (0, 2)), (1, (0, 0)), (0, (1, 0)), (0, (0, 0))]:
        monos.append(monomial(ctx, [random_xseries(ctx, rng, degree=1) for _ in range(2)],
                              tau_power=j, xi_powers=alpha))
    f = Nonlinearity.decompose_homogeneous(monos, 1, ctx)
    K = 3
    t = SigmaSeries("T", 1, K, ctx, [random_xseries(ctx, rng, degree=1) for _ in range(2)])
    tau = SigmaSeries("T", 1, K, ctx, [random_xseries(ctx, rng, degree=1) for _ in range(2)])
    xi = [SigmaSeries("T", 1, K, ctx, [random_xseries(ctx, rng, degree=1) for _ in range(2)])
          for _ in range(2)]
    whole = f.eval_on_jet(t, tau, xi)
    parts = None
    for l in range(3):
        piece = f.eval_on_jet(t, tau, xi, part=l)
        parts = piece if parts is None else parts + piece
    assert whole == parts


def test_homogeneity_scaling_exact():
    rng = random.Random(31)
    ctx = ctx_rational(1, 2)
    f = Nonlinearity.decompose_homogeneous(
        [monomial(ctx, F(3), tau_power=2), monomial(ctx, F(-1), tau_power=1, xi_powers=(1,)),
         monomial(ctx, F(2), xi_powers=(2,))], 1, ctx)
    lam = F(5, 3)
    t = _const_sigma(ctx, 0.0, K=2)
    tau = SigmaSeries("T", 1, 2, ctx, [random_xseries(ctx, rng, degree=1) for _ in range(2)])
    xi = [SigmaSeries("T", 1, 2, ctx, [random_xseries(ctx, rng, degree=1) for _ in range(2)])]
    scaled = f.eval_on_jet(t, tau * lam, [xi[0] * lam], part=2)
    unscaled = f.eval_on_jet(t, tau, xi, part=2)
    assert scaled == unscaled * lam**2


def test_negate_time_flips_odd_powers():
    ctx = ctx_rational(1, 2)
    # f = t*tau + tau^2: time reversal gives t*tau (two sign flips) and tau^2
    f = Nonlinearity.decompose_homogeneous(
        [monomial(ctx, [ctx.zero(), ctx.constant(F(1))], tau_power=1),
         monomial(ctx, F(1), tau_power=2)], 1, ctx)
    rev = f.negate_time()
    mono_lin = rev.part(1)[0]
    assert mono_lin.coeff[1] == ctx.constant(F(1))  # (-1)^(d+j) = (-1)^2
    mono_quad = rev.part(2)[0]
    assert mono_quad.coeff[0] == ctx.constant(F(1))


def test_eval_numeric_matches_jet_constants():
    ctx = _ctx(1)
    f = Nonlinearity.decompose_homogeneous(
        [monomial(ctx, [ctx.constant(2.0), ctx.constant(1.0)], tau_power=1, xi_powers=(1,))],
        1, ctx)
    # f = (2 + t) tau xi at t=0.5, tau=3, xi=-2
    assert f.eval_numeric(0.5, (0.0,), 3.0, [-2.0]) == pytest.approx((2.5) * 3 * -2)


def test_pure_ode_dimension_zero():
    ctx = SeriesContext(0, (), 3)
    f = Nonlinearity.decompose_homogeneous([monomial(ctx, 1.0, tau_power=2)], 1, ctx)
    out = f.eval_on_jet(SigmaSeries.from_xseries(ctx.constant(0.0), "T", 1, 2),
                        SigmaSeries.from_xseries(ctx.constant(3.0), "T", 1, 2), [])
    assert out.coeff(0).constant_term() == 9.0
