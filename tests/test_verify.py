"""The substitution oracle and the numeric sampler: pole bookkeeping,
truncation-order scaling, blowup-rate fits, grids and artifact writers."""

import csv
import math
import random
from fractions import Fraction as F

import pytest

from singwave.errors import DomainError, InputError
from singwave.fuchsian import RecursionSpec, assemble_solution, solve_recursion
from singwave.geometry import make_hypersurface
from singwave.reduction import (
    build_elliptic_reduction,
    build_fractional_reduction,
    build_log_reduction,
    build_negative_side,
)
from singwave.series import SeriesContext
from singwave.verify import (
    GridSpec,
    default_grid,
    fit_summary,
    numeric_residual,
    rational_grid,
    symbolic_residual,
    write_residual_csv,
)

from helpers import (
    ctx_rational,
    dalembert_f,
    ode_f_tau2,
    ode_f_tau2_plus_1,
    pure_power_f,
    random_admissible_fractional_problem,
    random_admissible_log_problem,
)


def _solve(eq, v0, K, f):
    spec = RecursionSpec(eq, v0, K=K)
    return assemble_solution(spec, solve_recursion(spec), f=f)


def _log_prototype(K=8):
    ctx = SeriesContext(1, (0.0,), 3)
    f = ode_f_tau2(ctx)
    eq = build_log_reduction(f, make_hypersurface(ctx.zero()), 1.0, K=K)
    return _solve(eq, ctx.zero(), K, f), f, ctx


def test_log_prototype_all_slices_vanish():
    sol, f, _ = _log_prototype()
    slices = symbolic_residual(sol, f)
    assert set(slices) == set(range(-2, 7))
    assert all(v.is_zero() for v in slices.values())


def test_forced_ode_slices_vanish_through_reliable_order():
    ctx = ctx_rational(1, 3)
    f = ode_f_tau2_plus_1(ctx, F(1))
    eq = build_log_reduction(f, make_hypersurface(ctx.zero()), F(1), K=8)
    sol = _solve(eq, ctx.zero(), 8, f)
    slices = symbolic_residual(sol, f, through_order=6)
    assert all(v.is_zero() for v in slices.values())


def test_unmatched_constant_survives():
    # substituting u = -log t into u_tt - (u_t)^2 - 1 leaves exactly -1
    sol, _, ctx = _log_prototype()
    f_forced = ode_f_tau2_plus_1(ctx, 1.0)
    slices = symbolic_residual(sol, f_forced)
    assert slices[0].max_abs() == 1.0
    assert slices[-2].is_zero() and slices[-1].is_zero()
    assert all(slices[k].is_zero() for k in range(1, 7))


def test_pole_slices_always_vanish_for_solved_problems():
    rng = random.Random(89)
    for _ in range(4):
        f, h, a, v0 = random_admissible_log_problem(rng, n=1, D=3)
        eq = build_log_reduction(f, h, a, K=6)
        sol = _solve(eq, v0, 6, f)
        slices = symbolic_residual(sol, f)
        assert slices[-2].is_zero()
        assert slices[-1].is_zero()
        assert all(slices[k].is_zero() for k in range(0, 5))


def test_through_order_precondition():
    sol, f, _ = _log_prototype(K=4)
    with pytest.raises(InputError):
        symbolic_residual(sol, f, through_order=3)  # beyond K - 2


def test_monotone_improvement_in_K():
    ctx = ctx_rational(1, 3)
    f = ode_f_tau2_plus_1(ctx, F(1))

    def vanishing_count(K):
        eq = build_log_reduction(f, make_hypersurface(ctx.zero()), F(1), K=K)
        sol = _solve(eq, ctx.zero(), K, f)
        slices = symbolic_residual(sol, f)
        return sum(1 for v in slices.values() if v.is_zero())

    counts = [vanishing_count(K) for K in (4, 6, 8)]
    assert counts[0] <= counts[1] <= counts[2]
    assert counts == [5, 7, 9]  # slices -2..K-2 all vanish


def test_fractional_slices_and_blowup_fit():
    ctx = SeriesContext(1, (0.0,), 3)
    f = pure_power_f(ctx, 2)
    a = math.sqrt(2.0)
    eq = build_fractional_reduction(f, make_hypersurface(ctx.zero()), a, 2, K=8)
    sol = _solve(eq, None, 8, f)
    slices = symbolic_residual(sol, f)
    assert min(slices) == -3
    assert all(v.max_abs() < 1e-10 for v in slices.values())
    report = numeric_residual(sol, f)
    assert report.fitted_blowup_exponent == pytest.approx(0.5, abs=0.05)


def test_fractional_t_weighted_quadratic_part_solves():
    # f = -tau^3 + t tau^2: the t factor vanishes on the surface, its
    # T-quotient drives a nonzero correction (T^2/10 + ..., found by
    # matching s-orders); the oracle must still see zero slices
    ctx = SeriesContext(1, (0.0,), 3)
    from singwave.nonlinearity import Nonlinearity, monomial

    f = Nonlinearity.decompose_homogeneous(
        [monomial(ctx, -1.0, tau_power=3),
         monomial(ctx, [ctx.zero(), ctx.constant(1.0)], tau_power=2)], 2, ctx)
    eq = build_fractional_reduction(f, make_hypersurface(ctx.zero()),
                                    math.sqrt(2.0), 2, K=10)
    spec = RecursionSpec(eq, None, K=10)
    v = solve_recursion(spec)
    assert v.coeff(2).constant_term() == pytest.approx(0.1)
    sol = assemble_solution(spec, v, f=f)
    slices = symbolic_residual(sol, f)
    assert max(x.max_abs() for x in slices.values()) < 1e-12


def test_fractional_with_spatial_surface_exact():
    # top coefficient -2 Psi(x)/a^2 makes any surface admissible for m=2;
    # the correction series is nonzero and the oracle is exactly zero.
    # First slice by hand: v_1 = -(a m (m-1) lap psi / Psi)|_base / 12
    ctx = ctx_rational(1, 4)
    psi = ctx.variable(0, F(1, 10)) + ctx.from_coeffs({(2,): F(1, 5)})
    h = make_hypersurface(psi)
    from singwave.nonlinearity import Nonlinearity, monomial

    f = Nonlinearity.decompose_homogeneous(
        [monomial(ctx, h.Psi * F(-2), tau_power=3)], 2, ctx)
    eq = build_fractional_reduction(f, h, F(1), 2, K=8)
    spec = RecursionSpec(eq, None, K=8)
    v = solve_recursion(spec)
    assert v.coeff(1).constant_term() == F(-20, 297)
    assert not v.is_zero()
    sol = assemble_solution(spec, v, f=f)
    slices = symbolic_residual(sol, f)
    assert all(x.is_zero() for x in slices.values())


def test_seeded_fractional_problems_have_zero_symbolic_residual():
    # curved surfaces with forcing at m = 2, 3 and n = 1, 2: every term of
    # the reduced equation (cross, first-order, tangential, f_0..f_{m+1})
    # is live, and the independent oracle must see exact zeros
    for seed in range(2):
        for m in (2, 3):
            for n in (1, 2):
                f, h, a = random_admissible_fractional_problem(random.Random(200 + seed), m,
                                                               n=n, D=3)
                eq = build_fractional_reduction(f, h, a, m, K=6)
                sol = _solve(eq, None, 6, f)
                assert not sol.v.is_zero()
                slices = symbolic_residual(sol, f)
                assert all(x.is_zero() for x in slices.values()), (seed, m, n)


def test_negative_side_symbolic_residual():
    ctx = ctx_rational(1, 3)
    f = ode_f_tau2(ctx)
    eq = build_negative_side(f, make_hypersurface(ctx.zero()), F(1), K=6)
    sol = _solve(eq, ctx.zero(), 6, f)
    slices = symbolic_residual(sol, f)
    assert all(v.is_zero() for v in slices.values())


def test_elliptic_symbolic_residual():
    ctx = ctx_rational(2, 3)
    eq = build_elliptic_reduction(ctx.zero(), F(17, 10), K=6)
    sol = _solve(eq, ctx.zero(), 6, None)
    slices = symbolic_residual(sol)
    assert all(v.is_zero() for v in slices.values())


# ----------------------------------------------------------------------
# numeric sampling
# ----------------------------------------------------------------------


def test_plane_wave_pointwise_exactness():
    ctx = ctx_rational(2, 4)
    a = F(2)
    f = dalembert_f(ctx, a)
    psi = ctx.variable(0) * F(1, 2)
    eq = build_log_reduction(f, make_hypersurface(psi), a, K=6)
    sol = _solve(eq, ctx.constant(F(7)), 6, f)
    grid = rational_grid(ctx, [F(1, 100), F(1, 10), F(2, 5)],
                         [(F(1, 10), F(-1, 8)), (F(-1, 16), F(1, 32))])
    report = numeric_residual(sol, f, grid)
    assert all(s[2] == 0 for s in report.samples)
    assert report.max_numeric() == 0.0


def test_truncation_order_scaling_between_K6_and_K8():
    ctx = SeriesContext(1, (0.0,), 3)
    f = ode_f_tau2_plus_1(ctx, 1.0)

    def slope(K):
        eq = build_log_reduction(f, make_hypersurface(ctx.zero()), 1.0, K=K)
        sol = _solve(eq, ctx.zero(), K, f)
        grid = GridSpec(tuple(10.0**e for e in (-1.1, -0.9, -0.7, -0.5, -0.35)), ((0.0,),))
        report = numeric_residual(sol, f, grid)
        return report.fitted_slope

    s6, s8 = slope(6), slope(8)
    assert s6 >= 6 - 2 - 0.5
    assert s8 >= 8 - 2 - 0.5
    assert abs((s8 - s6) - 2.0) <= 0.5


def test_report_fields_and_samples_positive_T():
    sol, f, _ = _log_prototype()
    report = numeric_residual(sol, f)
    assert len(report.samples) == 30  # 6 T values x 5 x-points
    assert all(s[0] > 0 for s in report.samples)
    assert report.fitted_blowup_exponent == pytest.approx(1.0, abs=0.01)
    summary = fit_summary(report)
    assert summary["samples"] == 30
    assert summary["max_residual"] < 1e-12


def test_grid_validation():
    with pytest.raises(InputError):
        GridSpec((), ((0.0,),))
    with pytest.raises(DomainError):
        GridSpec((-0.1,), ((0.0,),))
    with pytest.raises(InputError):
        GridSpec((0.7,), ((0.0,),))  # beyond the trust region


def test_default_grid_shape():
    ctx = SeriesContext(2, (0.0, 0.0), 3)
    grid = default_grid(ctx)
    assert len(grid.t_values) == 6
    assert len(grid.x_points) == 5
    assert all(math.dist(p, (0.0, 0.0)) <= 0.2 + 1e-12 for p in grid.x_points)


def test_csv_writer(tmp_path):
    sol, f, _ = _log_prototype()
    report = numeric_residual(sol, f)
    path = tmp_path / "residual.csv"
    write_residual_csv(report, path, n=1)
    with open(path) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["T", "x1", "residual", "u", "du_dt"]
    assert len(rows) == 31


def test_numeric_samples_equal_per_sample_evaluation_bitwise():
    # the sampler evaluates each x-polynomial once per grid point; redoing
    # every sample from eval_at_sigma must give the same floats
    ctx = SeriesContext(2, (0.0, 0.0), 3)
    a = 2.0
    f = dalembert_f(ctx, a)
    psi = ctx.variable(0) * 0.3 + ctx.from_coeffs({(0, 2): 0.1, (1, 1): -0.05})
    v0 = ctx.constant(0.7) + ctx.variable(1) * 0.2
    sol = _solve(build_log_reduction(f, make_hypersurface(psi), a, K=6), v0, 6, f)
    report = numeric_residual(sol, f)
    assert len(report.samples) == 30
    v, surface = sol.v, sol.surface
    vT = v.deriv_sigma()
    vTT = vT.deriv_sigma()
    for T, x, residual, u, du_dt in report.samples:
        sigma = v.sigma_of(T)
        grad = [surface.partial(i).eval(x) for i in range(2)]
        lap = sum((surface.partial(i).partial(i).eval(x) for i in range(2)), 0.0)
        u_t = -a / T + vT.eval_at_sigma(sigma, x)
        u_tt = a / (T * T) + vTT.eval_at_sigma(sigma, x)
        u_xis = [a * g / T - g * vT.eval_at_sigma(sigma, x)
                 + v.partial_x(i).eval_at_sigma(sigma, x) for i, g in enumerate(grad)]
        sum_sq = sum((g * g for g in grad), 0 * T)
        lap_t = a * sum_sq / (T * T) + a * lap / T + sum_sq * vTT.eval_at_sigma(sigma, x) \
            - lap * vT.eval_at_sigma(sigma, x)
        for i, g in enumerate(grad):
            lap_t = lap_t - 2 * g * vT.partial_x(i).eval_at_sigma(sigma, x) \
                + v.partial_x(i).partial_x(i).eval_at_sigma(sigma, x)
        f_val = f.eval_numeric(surface.eval(x) + T, x, u_t, u_xis)
        assert residual == u_tt + -1 * lap_t - f_val
        assert u == -a * math.log(T) + v.eval_at_sigma(sigma, x)
        assert du_dt == u_t
