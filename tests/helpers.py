"""Shared builders for the test suite: prototype problems, random series,
random admissible problems and an independent brute-force ODE oracle."""

from fractions import Fraction

from singwave.geometry import make_hypersurface
from singwave.nonlinearity import NMonomial, Nonlinearity, monomial, tpoly_at
from singwave.series import SeriesContext, SigmaSeries, XSeries

F = Fraction


def ctx_float(n=1, D=3, base=None):
    return SeriesContext(n, tuple(base or [0.0] * n), D)


def ctx_rational(n=1, D=3, base=None):
    return SeriesContext(n, tuple(base or [F(0)] * n), D)


def tpoly_diff_t(a):
    """d/dt of a t-poly (a list of XSeries indexed by the power of t)."""
    return tuple(c * d for d, c in enumerate(a) if d >= 1)


def tpoly_diff_x(a, i):
    return tuple(c.partial(i) for c in a)


def tpoly_on_sigma(a, psi, kind, m, max_order):
    """Re-expand a t-poly around t = psi(x) + sigma^m as a sigma series."""
    ctx = psi.ctx
    one = SigmaSeries.from_xseries(ctx.constant(1), kind, m, max_order)
    t = SigmaSeries(kind, m, max_order, ctx, [psi] + [ctx.zero()] * (m - 1) + [ctx.constant(1)])
    value = tpoly_at(a, [one, t])
    return SigmaSeries.zeros(kind, m, max_order, ctx) if value is None else value


def ode_f_tau2(ctx, coeff=1.0):
    """f = coeff * tau^2."""
    return Nonlinearity.decompose_homogeneous(
        [monomial(ctx, coeff, tau_power=2)], 1, ctx)


def ode_f_tau2_plus_1(ctx, one=1):
    """f = tau^2 + 1."""
    return Nonlinearity.decompose_homogeneous(
        [monomial(ctx, one, tau_power=2), monomial(ctx, one)], 1, ctx)


def dalembert_f(ctx, a):
    """f = (tau^2 - |xi|^2) / a, the nonlinearity for which every
    noncharacteristic surface is admissible."""
    inv_a = Fraction(1, 1) / Fraction(a) if isinstance(a, (int, Fraction)) else 1.0 / a
    monos = [monomial(ctx, inv_a, tau_power=2)]
    for i in range(ctx.n):
        monos.append(monomial(ctx, -inv_a,
                              xi_powers=tuple(2 if j == i else 0 for j in range(ctx.n))))
    return Nonlinearity.decompose_homogeneous(monos, 1, ctx)


def pure_power_f(ctx, m, coeff=-1.0):
    """f = coeff * tau^(m+1), the fractional-regime prototype."""
    return Nonlinearity.decompose_homogeneous(
        [monomial(ctx, coeff, tau_power=m + 1)], m, ctx)


def random_xseries(ctx, rng, degree=None, scale=2, rational=True):
    degree = ctx.max_degree if degree is None else degree
    coeffs = {}
    for d in range(degree + 1):
        for e in ctx.exponents_of_degree(d):
            num = rng.randint(-scale, scale)
            if num:
                coeffs[e] = F(num, rng.randint(1, 3)) if rational else float(num)
    return XSeries(ctx, coeffs)


def _random_surface(ctx, rng, deg):
    """A random polynomial psi of degree <= deg with |grad psi|(base) != 1."""
    n = ctx.n
    while True:
        psi = random_xseries(ctx, rng, degree=deg)
        psi_coeffs = dict(psi.coeffs)
        # keep the base slope small so Psi(base) stays away from 0
        for i in range(n):
            e = tuple(1 if j == i else 0 for j in range(n))
            if e in psi_coeffs:
                psi_coeffs[e] = psi_coeffs[e] / 4
        psi = XSeries(ctx, psi_coeffs)
        Psi0 = 1 - sum(float(psi.partial(i).eval(ctx.base_point)) ** 2 for i in range(n))
        if abs(Psi0) > 0.2:
            return psi


def random_admissible_fractional_problem(rng, m, n=1, D=4, deg=2):
    """A random fractional-regime problem with a = 1 that satisfies both
    degree-(m+1) conditions: the top part c(x) tau^(m+1) takes c from
    Psi = ((1-m)^m / m^(m-1)) f_{m+1}(Sigma), the degree-m part carries
    the factor (t - psi(x)), and the free lower parts force a nonzero
    correction series."""
    ctx = ctx_rational(n, D)
    h = make_hypersurface(_random_surface(ctx, rng, deg))
    factor = F((1 - m) ** m * (-1) ** (m + 1), m ** (m - 1))
    monos = [monomial(ctx, h.Psi / factor, tau_power=m + 1)]
    for _ in range(rng.randint(1, 2)):
        j = rng.randint(0, m)
        alpha = [0] * n
        for _ in range(m - j):
            alpha[rng.randint(0, n - 1)] += 1
        c = F(rng.randint(1, 2), rng.randint(1, 2))
        monos.append(monomial(ctx, [h.psi * (-c), ctx.constant(c)],
                              tau_power=j, xi_powers=tuple(alpha)))
    for degree in range(m):
        j = rng.randint(0, degree)
        alpha = [0] * n
        for _ in range(degree - j):
            alpha[rng.randint(0, n - 1)] += 1
        monos.append(monomial(ctx, [random_xseries(ctx, rng, degree=1), ctx.constant(F(1, 2))],
                              tau_power=j, xi_powers=tuple(alpha)))
    return Nonlinearity.decompose_homogeneous(monos, m, ctx), h, F(1)


def as_float(f, h, a, v0=None):
    """The float twin of an exact problem (f, h, a, v0)."""
    ctx = ctx_float(h.n, h.psi.max_degree)

    def conv(xs):
        return XSeries(ctx, {e: float(c) for e, c in xs.coeffs.items()})

    parts = [[NMonomial(tuple(conv(c) for c in mono.coeff), mono.tau_power, mono.xi_powers)
              for mono in part] for part in f.parts]
    return (Nonlinearity(ctx, f.m, parts), make_hypersurface(conv(h.psi)), float(a),
            None if v0 is None else conv(v0))


def random_admissible_log_problem(rng, n=1, D=4, deg=2):
    """A random log-regime problem that provably satisfies the
    compatibility condition: start from f_2 = (tau^2 - |xi|^2)/a (always
    admissible) and add quadratic monomials with coefficient (t - psi(x)),
    which vanish on the surface; f_1, f_0 and v0 are unconstrained."""
    ctx = ctx_rational(n, D)
    a = F(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2]))
    inv_a = F(1) / a
    psi = _random_surface(ctx, rng, deg)

    monos = [monomial(ctx, inv_a, tau_power=2)]
    for i in range(n):
        monos.append(monomial(ctx, -inv_a,
                              xi_powers=tuple(2 if j == i else 0 for j in range(n))))
    # (t - psi) * (random quadratic-in-(tau, xi) monomial): zero on the surface
    for _ in range(rng.randint(1, 2)):
        j = rng.randint(0, 2)
        alpha = [0] * n
        for _ in range(2 - j):
            alpha[rng.randint(0, n - 1)] += 1
        c = F(rng.randint(-2, 2), rng.randint(1, 2))
        if c:
            # coefficient c*(t - psi): t-degree list [-c*psi, c]
            monos.append(monomial(ctx, [psi * (-c), ctx.constant(c)],
                                  tau_power=j, xi_powers=tuple(alpha)))
    # unconstrained lower parts
    if rng.random() < 0.8:
        j = rng.randint(0, 1)
        alpha = [0] * n
        if j == 0:
            alpha[rng.randint(0, n - 1)] = 1
        monos.append(monomial(ctx, random_xseries(ctx, rng, degree=1),
                              tau_power=j, xi_powers=tuple(alpha)))
    if rng.random() < 0.8:
        monos.append(monomial(ctx, [random_xseries(ctx, rng, degree=1),
                                    ctx.constant(F(rng.randint(-2, 2)))]))

    f = Nonlinearity.decompose_homogeneous(monos, 1, ctx)
    v0 = random_xseries(ctx, rng, degree=deg)
    h = make_hypersurface(psi)
    return f, h, a, v0


def brute_force_forced_ode(K):
    """Independent oracle for T v'' + 2 v' = T (v')^2 + T with v(0) = 0:
    plain Fraction polynomial coefficient matching, no package code."""
    v = [F(0)] * (K + 1)  # v[k] multiplies T^k
    for k in range(1, K + 1):
        # coefficient of T^(k-1) in T v'' + 2 v' is k(k+1) v_k;
        # right side T (v')^2 + T there: sum_{i+j=k} i j v_i v_j + [k == 2]
        rhs = F(1) if k == 2 else F(0)
        for i in range(1, k):
            rhs += F(i * (k - i)) * v[i] * v[k - i]
        v[k] = rhs / F(k * (k + 1))
    return v
