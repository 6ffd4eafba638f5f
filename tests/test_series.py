"""Truncated series arithmetic: ring identities, reciprocal, calculus,
sigma-series operations, and the exact-rational mode."""

import random
from fractions import Fraction as F

import pytest

from singwave.errors import CompatibilityError, DomainError, InputError, SingularDivisionError
from singwave.series import SeriesContext, SigmaSeries, XSeries, _exact_int_root

from helpers import ctx_rational, random_xseries


def test_product_ring_identity():
    ctx = SeriesContext(1, (0.0,), 4)
    one_plus = ctx.constant(1) + ctx.variable(0)
    one_minus = ctx.constant(1) - ctx.variable(0)
    assert one_plus * one_minus == ctx.constant(1) - ctx.variable(0) ** 2


def test_additive_identity():
    ctx = SeriesContext(2, (0.0, 0.0), 3)
    p = ctx.variable(0) * 2 + ctx.constant(5)
    assert p + ctx.zero() == p


def test_binomial_square_truncated():
    ctx = SeriesContext(2, (0.0, 0.0), 2)
    s = (ctx.variable(0) + ctx.variable(1)) ** 2
    assert s.coeffs == {(2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0}


def test_truncation_is_silent():
    ctx = SeriesContext(1, (0.0,), 2)
    x = ctx.variable(0)
    cube = x * x * x
    assert cube.is_zero()


def test_ring_laws_random_rational():
    rng = random.Random(7)
    ctx = ctx_rational(3, 4)
    for _ in range(25):
        a = random_xseries(ctx, rng)
        b = random_xseries(ctx, rng)
        c = random_xseries(ctx, rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_reciprocal_constant():
    ctx = SeriesContext(1, (0.0,), 3)
    assert ctx.constant(2.0).reciprocal() == ctx.constant(0.5)


def test_reciprocal_geometric_series():
    ctx = SeriesContext(1, (0.0,), 3)
    x = ctx.variable(0)
    inv = (ctx.constant(1) - x).reciprocal()
    assert inv == ctx.constant(1) + x + x**2 + x**3


def test_reciprocal_zero_constant_term_raises():
    ctx = SeriesContext(1, (0.0,), 3)
    with pytest.raises(SingularDivisionError):
        ctx.variable(0).reciprocal()


def test_reciprocal_roundtrip_random():
    rng = random.Random(13)
    ctx = ctx_rational(2, 4)
    for _ in range(20):
        a = random_xseries(ctx, rng)
        c0 = a.constant_term()
        if abs(float(c0)) < F(1, 10):
            a = a + 1
        residual = a * a.reciprocal() - 1
        assert residual.max_abs() < 1e-12


def test_partial_power_rule():
    ctx = SeriesContext(2, (0.0, 0.0), 3)
    x, y = ctx.variable(0), ctx.variable(1)
    p = x**2 * y
    assert p.partial(0) == x * y * 2
    assert (x**2).partial(1).is_zero()


def test_partial_of_linear_form():
    ctx = SeriesContext(3, (0.0, 0.0, 0.0), 2)
    p = ctx.variable(0) * 2 + ctx.variable(1) * 3 + ctx.variable(2) * 5
    assert p.partial(0) == ctx.constant(2.0)


def test_partial_reduces_reliable_degree():
    ctx = SeriesContext(1, (0.0,), 4)
    p = ctx.variable(0) ** 3
    assert p.reliable_degree == 4
    assert p.partial(0).reliable_degree == 3


def test_partials_commute_random():
    rng = random.Random(3)
    ctx = ctx_rational(3, 4)
    for _ in range(15):
        a = random_xseries(ctx, rng)
        for i in range(3):
            for j in range(i + 1, 3):
                assert a.partial(i).partial(j) == a.partial(j).partial(i)


def test_eval_examples():
    ctx = SeriesContext(1, (0.0,), 2)
    p = ctx.constant(1) - ctx.variable(0) ** 2
    assert p.eval((0.5,)) == 0.75
    assert p.eval((0.0,)) == p.constant_term()
    ctx2 = SeriesContext(2, (0.0, 0.0), 1)
    q = ctx2.variable(0) + ctx2.variable(1)
    assert q.eval((1.0, 2.0)) == 3.0


def test_eval_off_center_base_point():
    ctx = SeriesContext(2, (1.0, -2.0), 3)
    p = ctx.variable(0) * ctx.variable(1)  # the function x0 * x1
    assert p.eval((1.5, 4.0)) == pytest.approx(6.0)


def test_incompatible_contexts_raise():
    a = SeriesContext(1, (0.0,), 3).constant(1)
    b = SeriesContext(1, (1.0,), 3).constant(1)
    with pytest.raises(CompatibilityError):
        a + b


def test_exponent_overflow_rejected():
    ctx = SeriesContext(1, (0.0,), 2)
    with pytest.raises(InputError):
        XSeries(ctx, {(3,): 1.0})


# ----------------------------------------------------------------------
# sigma series
# ----------------------------------------------------------------------


def _sigma(ctx, coeffs, K=2, kind="T", m=1):
    return SigmaSeries(kind, m, K, ctx, [ctx.constant(c) for c in coeffs])


def test_sigma_product():
    ctx = SeriesContext(1, (0.0,), 2)
    s = _sigma(ctx, [1.0, 1.0])
    sq = s * s
    assert [sq.coeff(k).constant_term() for k in range(3)] == [1.0, 2.0, 1.0]


def test_sigma_shift():
    ctx = SeriesContext(1, (0.0,), 2)
    s = _sigma(ctx, [1.0, 2.0], K=3)
    shifted = s.shift(1)
    assert shifted.coeff(0).is_zero()
    assert shifted.coeff(1).constant_term() == 1.0
    assert shifted.coeff(2).constant_term() == 2.0


def test_sigma_kind_mismatch():
    ctx = SeriesContext(1, (0.0,), 2)
    t_series = SigmaSeries("T", 1, 2, ctx, [ctx.constant(1)])
    s_series = SigmaSeries("s", 2, 2, ctx, [ctx.constant(1)])
    with pytest.raises(CompatibilityError):
        t_series + s_series


def test_sigma_eval_fractional_square():
    ctx = SeriesContext(1, (0.0,), 2)
    sq = SigmaSeries("s", 2, 2, ctx, [ctx.zero(), ctx.zero(), ctx.constant(1)])
    assert sq.eval(0.09, (0.0,)) == pytest.approx(0.09)


def test_sigma_eval_constant_and_affine():
    ctx = SeriesContext(1, (0.0,), 2)
    c = SigmaSeries("s", 2, 2, ctx, [ctx.constant(3.5)])
    assert c.eval(0.2, (0.0,)) == 3.5
    affine = SigmaSeries("s", 2, 2, ctx, [ctx.constant(1), ctx.constant(1)])
    assert affine.eval(0.25, (0.0,)) == pytest.approx(1.5)


def test_sigma_eval_rejects_nonpositive_T():
    ctx = SeriesContext(1, (0.0,), 2)
    s = _sigma(ctx, [1.0])
    with pytest.raises(DomainError):
        s.eval(0.0, (0.0,))
    with pytest.raises(DomainError):
        s.eval(-0.3, (0.0,))


def test_sigma_eval_product_matches_value_product():
    # degrees chosen so neither the sigma nor the x truncation bites
    rng = random.Random(11)
    ctx = ctx_rational(2, 3)
    K = 4
    for _ in range(10):
        a = SigmaSeries("T", 1, K, ctx, [random_xseries(ctx, rng, degree=1) for _ in range(3)])
        b = SigmaSeries("T", 1, K, ctx, [random_xseries(ctx, rng, degree=1) for _ in range(3)])
        T, x = F(1, 7), (F(1, 5), F(-1, 6))
        lhs = (a * b).eval(T, x)
        rhs = a.eval(T, x) * b.eval(T, x)
        if rhs != 0:
            assert abs(float((lhs - rhs) / rhs)) < 1e-10


def test_sigma_truncates_in_products():
    ctx = SeriesContext(1, (0.0,), 1)
    s = SigmaSeries("T", 1, 2, ctx, [ctx.constant(0), ctx.constant(1), ctx.constant(1)])
    # (T + T^2)^2 = T^2 + O(T^3), truncated at K = 2
    sq = s * s
    assert sq.coeff(2).constant_term() == 1.0
    assert len(sq.coeffs) <= 3


def test_rational_mode_is_exact():
    ctx = ctx_rational(1, 6)
    x = ctx.variable(0)
    inv = (ctx.constant(1) - x).reciprocal()
    assert inv.coeffs[(6,)] == F(1)
    assert ((ctx.constant(1) - x) * inv) == ctx.constant(F(1))


def test_sigma_of_exact_rational_root():
    ctx = ctx_rational(1, 2)
    s = SigmaSeries("s", 2, 2, ctx, [ctx.constant(F(1))])
    assert s.sigma_of(F(9, 16)) == F(3, 4)
    assert isinstance(s.sigma_of(F(1, 3)), float)  # no exact square root


def test_exact_int_root_of_400_digit_integers():
    root = 10**200 - 3
    square = root**2
    assert len(str(square)) == 400
    assert _exact_int_root(square, 2) == root
    assert _exact_int_root(square + 1, 2) is None  # 400 digits, not a square
    assert _exact_int_root(10**400, 2) == 10**200
    cube = (10**133 + 1) ** 3
    assert _exact_int_root(cube, 3) == 10**133 + 1
    assert _exact_int_root(cube - 1, 3) is None
    assert [_exact_int_root(v, 3) for v in (0, 1, 8, 9, -8)] == [0, 1, 2, None, None]
    s = SigmaSeries("s", 2, 2, ctx_rational(1, 2), [ctx_rational(1, 2).constant(F(1))])
    assert s.sigma_of(F(1, 10**400)) == F(1, 10**200)


def test_core_operations():
    ctx = ctx_rational(1, 3)
    x = ctx.variable(0)
    assert x * x == x**2
    assert (x - x).is_zero()
    assert ctx.constant(F(4)).reciprocal() == ctx.constant(F(1, 4))
    assert (x**3).partial(0) == x**2 * 3
    s = SigmaSeries.from_xseries(ctx.constant(F(2)), "T", 1, 3)
    assert (s * s).coeff(0) == ctx.constant(F(4))
    assert s.shift(2).coeff(2) == ctx.constant(F(2))
