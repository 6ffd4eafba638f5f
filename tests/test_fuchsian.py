"""The order-by-order recursion: the trace, closed-form prototypes
against an independent brute-force oracle, the one-pass contract,
determinism, the divisor law, and assembled-solution evaluators."""

import math
import random
from fractions import Fraction as F

import pytest

from singwave.errors import DomainError, InputError, VanishingDivisorError
from singwave.fuchsian import RecursionSpec, assemble_solution, solve_recursion
from singwave.geometry import make_hypersurface
from singwave.reduction import (
    build_fractional_reduction,
    build_log_reduction,
    build_negative_side,
)
from singwave.series import SeriesContext, SigmaSeries, XSeries, _inv_scalar
from singwave.verify import symbolic_residual

from helpers import (
    as_float,
    brute_force_forced_ode,
    ctx_rational,
    dalembert_f,
    ode_f_tau2,
    ode_f_tau2_plus_1,
    pure_power_f,
    random_admissible_fractional_problem,
    random_admissible_log_problem,
)


def _forced_ode_spec(K=8):
    ctx = ctx_rational(1, 3)
    eq = build_log_reduction(ode_f_tau2_plus_1(ctx, F(1)), make_hypersurface(ctx.zero()),
                             F(1), K=K)
    return RecursionSpec(eq, ctx.zero(), K=K), ctx


def test_forced_ode_against_brute_force_oracle():
    spec, ctx = _forced_ode_spec(K=8)
    v = solve_recursion(spec)
    oracle = brute_force_forced_ode(8)
    for k in range(9):
        assert v.coeff(k).constant_term() == oracle[k], f"order {k}"
    assert oracle[2] == F(1, 6)
    assert oracle[3] == 0
    assert oracle[4] == F(1, 180)


def test_log_prototype_vanishes():
    ctx = SeriesContext(1, (0.0,), 3)
    eq = build_log_reduction(ode_f_tau2(ctx), make_hypersurface(ctx.zero()), 1.0, K=8)
    v = solve_recursion(RecursionSpec(eq, ctx.zero(), K=8))
    assert v.max_abs() < 1e-14


def test_plane_wave_constant_trace_stays_constant():
    ctx = ctx_rational(2, 4)
    a = F(2)
    f = dalembert_f(ctx, a)
    psi = ctx.variable(0) * F(1, 2)
    eq = build_log_reduction(f, make_hypersurface(psi), a, K=6)
    v = solve_recursion(RecursionSpec(eq, ctx.constant(F(7)), K=6))
    assert v.coeff(0) == ctx.constant(F(7))
    assert all(v.coeff(k).is_zero() for k in range(1, 7))


def test_fractional_prototypes_vanish():
    ctx = SeriesContext(1, (0.0,), 3)
    for m, a in [(2, math.sqrt(2.0)), (3, 3 ** (2 / 3) / 2)]:
        eq = build_fractional_reduction(pure_power_f(ctx, m), make_hypersurface(ctx.zero()),
                                        a, m, K=8)
        v = solve_recursion(RecursionSpec(eq, None, K=8))
        assert v.max_abs() < 1e-12, f"m={m}"


def test_fractional_rejects_trace():
    ctx = SeriesContext(1, (0.0,), 3)
    eq = build_fractional_reduction(pure_power_f(ctx, 2), make_hypersurface(ctx.zero()),
                                    math.sqrt(2.0), 2, K=6)
    with pytest.raises(InputError):
        RecursionSpec(eq, ctx.zero(), K=6)


# ----------------------------------------------------------------------
# the trace
# ----------------------------------------------------------------------


def test_shift_constant_trace_plane_wave_zeroes_rhs():
    ctx = ctx_rational(2, 4)
    a = F(2)
    f = dalembert_f(ctx, a)
    psi = ctx.variable(0) * F(1, 2)
    eq = build_log_reduction(f, make_hypersurface(psi), a, K=6)
    known = [ctx.constant(F(7))]
    for k in range(1, 6):
        assert eq.rhs_slice(known).is_zero()
        known.append(ctx.zero())


def test_ode_trace_enters_only_through_derivatives():
    # T v'' + 2 v' = T (v')^2 + T is invariant under v -> v + const
    ctx = ctx_rational(1, 3)
    eq = build_log_reduction(ode_f_tau2_plus_1(ctx, F(1)), make_hypersurface(ctx.zero()),
                             F(1), K=6)
    v_zero = solve_recursion(RecursionSpec(eq, ctx.zero(), K=6))
    v_five = solve_recursion(RecursionSpec(eq, ctx.constant(F(5)), K=6))
    assert v_five.coeff(0) == ctx.constant(F(5))
    for k in range(1, 7):
        assert v_zero.coeff(k) == v_five.coeff(k)


# ----------------------------------------------------------------------
# the one-pass contract
# ----------------------------------------------------------------------


def _seeded_specs(K):
    """(label, spec) over seeded log (n = 1, 2) and fractional (m = 2, 3)
    problems, each in rational and float arithmetic."""
    for seed in range(2):
        for n in (1, 2):
            problem = random_admissible_log_problem(random.Random(100 + seed), n=n, D=3)
            for arithmetic, (f, h, a, v0) in (("rational", problem), ("float", as_float(*problem))):
                yield (f"log n={n} seed={seed} {arithmetic}",
                       RecursionSpec(build_log_reduction(f, h, a, K=K), v0, K=K))
        for m in (2, 3):
            problem = random_admissible_fractional_problem(random.Random(200 + seed), m, D=3)
            for arithmetic, (f, h, a, *_) in (("rational", problem), ("float", as_float(*problem))):
                yield (f"m={m} seed={seed} {arithmetic}",
                       RecursionSpec(build_fractional_reduction(f, h, a, m, K=K), None, K=K))


def test_one_pass_equals_rhs_slice_from_scratch_bitwise():
    for label, spec in _seeded_specs(K=6):
        eq = spec.equation
        v = solve_recursion(spec)
        known = [spec.v0] if eq.first_index else []
        for k in range(eq.first_index, spec.K + 1):
            known.append(eq.rhs_slice(known) * _inv_scalar(eq.divisor(k)))
        assert not all(c.is_zero() for c in known[eq.first_index:]), label
        for k in range(spec.K + 1):
            assert v.coeff(k) == known[k], f"{label}: order {k}"


def test_solving_twice_with_one_equation_gives_equal_series():
    for label, spec in _seeded_specs(K=6):
        assert solve_recursion(spec) == solve_recursion(spec), label


def test_products_per_solve_grow_at_most_quadratically(monkeypatch):
    """Doubling K at most quadruples the XSeries products of a solve."""
    calls = []
    multiply = XSeries.__mul__

    def counted(self, other):
        calls.append(1)
        return multiply(self, other)

    counts = {}
    for K in (10, 20):
        f, h, a, v0 = random_admissible_log_problem(random.Random(7), n=1, D=4)
        spec = RecursionSpec(build_log_reduction(f, h, a, K=K), v0, K=K)
        monkeypatch.setattr(XSeries, "__mul__", counted)
        solve_recursion(spec)
        monkeypatch.undo()
        counts[K] = len(calls)
        calls.clear()
    assert counts[20] <= 4 * counts[10], counts


# ----------------------------------------------------------------------
# determinism, uniqueness, divisor law
# ----------------------------------------------------------------------


def test_determinism_under_permuted_coefficient_insertion():
    rng = random.Random(79)
    f, h, a, v0 = random_admissible_log_problem(rng, n=2, D=3)
    eq = build_log_reduction(f, h, a, K=5)
    v1 = solve_recursion(RecursionSpec(eq, v0, K=5))
    # same trace rebuilt with reversed insertion order of its terms
    v0_permuted = XSeries(v0.ctx, dict(reversed(list(v0.coeffs.items()))))
    v2 = solve_recursion(RecursionSpec(eq, v0_permuted, K=5))
    for k in range(6):
        assert v1.coeff(k).coeffs == v2.coeff(k).coeffs  # bitwise in rational mode


def test_determinism_float_relative():
    ctx = SeriesContext(1, (0.0,), 3)
    eq = build_log_reduction(ode_f_tau2_plus_1(ctx, 1.0), make_hypersurface(ctx.zero()),
                             1.0, K=8)
    v1 = solve_recursion(RecursionSpec(eq, ctx.zero(), K=8))
    v2 = solve_recursion(RecursionSpec(eq, ctx.zero(), K=8))
    for k in range(9):
        c1, c2 = v1.coeff(k).constant_term(), v2.coeff(k).constant_term()
        assert c1 == c2 or abs(c1 - c2) <= 1e-14 * abs(c1)


def test_uniqueness_same_trace_same_series_different_trace_differs():
    rng = random.Random(83)
    f, h, a, v0 = random_admissible_log_problem(rng, n=1, D=3)
    eq = build_log_reduction(f, h, a, K=5)
    va = solve_recursion(RecursionSpec(eq, v0, K=5))
    vb = solve_recursion(RecursionSpec(eq, v0, K=5))
    assert va == vb
    other = v0 + 1
    vc = solve_recursion(RecursionSpec(eq, other, K=5))
    assert vc.coeff(0) == other


def test_divisor_law_probe():
    """Perturbing coefficient k of a solved series by delta shifts the
    independently-computed residual slice k-2 by exactly k(k+1) delta
    (flat surface, so the principal coefficient is 1)."""
    spec, ctx = _forced_ode_spec(K=8)
    v = solve_recursion(spec)
    sol = assemble_solution(spec, v, f=ode_f_tau2_plus_1(ctx, F(1)))
    f = ode_f_tau2_plus_1(ctx, F(1))
    base = symbolic_residual(sol, f)
    delta = F(1, 7)
    for k in (3, 5):
        coeffs = list(v.coeffs) + [ctx.zero()] * (v.max_order + 1 - len(v.coeffs))
        coeffs[k] = coeffs[k] + delta
        perturbed = assemble_solution(spec, SigmaSeries("T", 1, v.max_order, ctx, coeffs), f=f)
        slices = symbolic_residual(perturbed, f)
        response = slices[k - 2] - base[k - 2]
        assert response == ctx.constant(F(k * (k + 1)) * delta)


def test_divisor_values():
    spec, _ = _forced_ode_spec()
    assert [spec.equation.divisor(k) for k in (1, 2, 3)] == [2, 6, 12]


# ----------------------------------------------------------------------
# assembled solutions
# ----------------------------------------------------------------------


def test_assemble_log_prototype_evaluators():
    ctx = SeriesContext(1, (0.0,), 3)
    eq = build_log_reduction(ode_f_tau2(ctx), make_hypersurface(ctx.zero()), 1.0, K=6)
    spec = RecursionSpec(eq, ctx.zero(), K=6)
    sol = assemble_solution(spec, solve_recursion(spec), f=ode_f_tau2(ctx))
    t = 0.2
    assert sol.eval_u(t, (0.0,)) == pytest.approx(-math.log(t))
    assert sol.eval_du_dt(t, (0.0,)) == pytest.approx(-1 / t)


def test_assemble_fractional_vanishing_and_blowup():
    ctx = SeriesContext(1, (0.0,), 3)
    a = math.sqrt(2.0)
    eq = build_fractional_reduction(pure_power_f(ctx, 2), make_hypersurface(ctx.zero()),
                                    a, 2, K=6)
    spec = RecursionSpec(eq, None, K=6)
    sol = assemble_solution(spec, solve_recursion(spec), f=pure_power_f(ctx, 2))
    T = 1e-6
    assert sol.eval_u(T, (0.0,)) == pytest.approx(a * math.sqrt(T))
    assert sol.eval_du_dt(T, (0.0,)) == pytest.approx(a / 2 * T ** (-0.5))
    assert sol.eval_u(T, (0.0,)) < 2e-3  # u vanishes while u_t blows up
    assert sol.eval_du_dt(T, (0.0,)) > 500


def test_assemble_rejects_wrong_side():
    ctx = SeriesContext(1, (0.0,), 3)
    eq = build_log_reduction(ode_f_tau2(ctx), make_hypersurface(ctx.zero()), 1.0, K=6)
    spec = RecursionSpec(eq, ctx.zero(), K=6)
    sol = assemble_solution(spec, solve_recursion(spec), f=ode_f_tau2(ctx))
    with pytest.raises(DomainError):
        sol.eval_u(-0.1, (0.0,))
    with pytest.raises(DomainError):
        sol.eval_u(0.0, (0.0,))


def test_assemble_negative_side_lives_on_negative_side():
    ctx = SeriesContext(1, (0.0,), 3)
    eq = build_negative_side(ode_f_tau2(ctx), make_hypersurface(ctx.zero()), 1.0, K=6)
    spec = RecursionSpec(eq, ctx.zero(), K=6)
    sol = assemble_solution(spec, solve_recursion(spec), f=ode_f_tau2(ctx))
    assert sol.eval_u(-0.5, (0.0,)) == pytest.approx(-math.log(0.5))
    assert sol.eval_du_dt(-0.5, (0.0,)) == pytest.approx(2.0)  # -1/t at t = -0.5
    with pytest.raises(DomainError):
        sol.eval_u(0.5, (0.0,))


def test_gradient_evaluator_plane_wave():
    ctx = ctx_rational(2, 4)
    a = F(2)
    f = dalembert_f(ctx, a)
    psi = ctx.variable(0) * F(1, 2)
    eq = build_log_reduction(f, make_hypersurface(psi), a, K=6)
    spec = RecursionSpec(eq, ctx.zero(), K=6)
    sol = assemble_solution(spec, solve_recursion(spec), f=f)
    # u = -2 log(t - x0/2): du/dx0 = +1/(t - x0/2), du/dx1 = 0
    t, x = F(1, 2), (F(1, 4), F(1, 8))
    T = t - F(1, 8)
    grad = sol.eval_gradient(t, x)
    assert grad[0] == F(1, 1) / T
    assert grad[1] == 0


def test_vanishing_divisor_raises_a_package_error():
    ctx = ctx_rational(1, 3)

    class ZeroDivisorEquation:
        regime = "log"
        first_index = 1
        max_order = 4
        xctx = ctx

        @staticmethod
        def divisor(k):
            return 0

    with pytest.raises(VanishingDivisorError):
        RecursionSpec(ZeroDivisorEquation(), ctx.zero(), K=4)
