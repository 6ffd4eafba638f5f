"""The dense graded layout of XSeries against a naive dict reference
written here: products, partials, reciprocals and evaluation over
seeded random series in both arithmetics, and float determinism under
different insertion orders."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest

from singwave.series import SeriesContext, XSeries, index_plan

SHAPES = [(n, D) for n in (1, 2, 3) for D in (2, 4)]


def _exponents(n, D):
    return [e for e in itertools.product(range(D + 1), repeat=n) if sum(e) <= D]


def _random_terms(rng, n, D, exact, density=0.7):
    terms = {}
    for e in _exponents(n, D):
        if rng.random() < density:
            terms[e] = F(rng.randint(-9, 9), rng.randint(1, 7)) if exact else rng.uniform(-2, 2)
    return {e: c for e, c in terms.items() if c != 0}


def _ctx(n, D, exact):
    return SeriesContext(n, tuple(F(i + 1, 10 * (i + 2)) if exact else 0.1 * (i + 1)
                                  for i in range(n)), D)


def _naive_mul(p, q, D):
    # left factor in lexicographic order: the documented accumulation order
    out = {}
    for e1, c1 in sorted(p.items()):
        for e2, c2 in sorted(q.items()):
            if sum(e1) + sum(e2) <= D:
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def _naive_partial(p, i):
    return {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in p.items() if e[i]}


def _naive_reciprocal(p, n, D):
    zero = (0,) * n
    inv = {}
    for e in sorted(_exponents(n, D), key=lambda e: (sum(e), e)):
        s = 1 if e == zero else 0
        for e1, c1 in p.items():
            if e1 != zero and all(a <= b for a, b in zip(e1, e)):
                s = s - c1 * inv.get(tuple(b - a for a, b in zip(e1, e)), 0)
        inv[e] = s / p[zero]
    return {e: c for e, c in inv.items() if c != 0}


def _naive_eval(p, point, base):
    return sum((c * math.prod((x - b) ** k for x, b, k in zip(point, base, e))
                for e, c in p.items()), 0)


def _close(got: dict, want: dict, exact: bool):
    if exact:
        return got == want
    keys = set(got) | set(want)
    return all(got.get(e, 0) == pytest.approx(want.get(e, 0), rel=1e-12, abs=1e-12)
               for e in keys)


@pytest.mark.parametrize("exact", [True, False], ids=["rational", "float"])
@pytest.mark.parametrize("n,D", SHAPES)
def test_dense_operations_match_naive_reference(n, D, exact):
    rng = random.Random(1000 * n + 10 * D + exact)
    ctx = _ctx(n, D, exact)
    for _ in range(4):
        p, q = _random_terms(rng, n, D, exact), _random_terms(rng, n, D, exact)
        a, b = XSeries(ctx, p), XSeries(ctx, q)
        # the float product accumulates in the same order as the reference
        assert dict((a * b).coeffs) == _naive_mul(p, q, D)
        for i in range(n):
            assert dict(a.partial(i).coeffs) == _naive_partial(p, i)
        p[(0,) * n] = F(3, 2) if exact else 1.5
        got = dict(XSeries(ctx, p).reciprocal().coeffs)
        assert _close(got, _naive_reciprocal(p, n, D), exact)
        point = tuple(b + (F(1, 3 + i) if exact else 0.3 / (i + 1))
                      for i, b in enumerate(ctx.base_point))
        value = XSeries(ctx, p).eval(point)
        if exact:
            assert value == _naive_eval(p, point, ctx.base_point)
        else:
            assert value == pytest.approx(_naive_eval(p, point, ctx.base_point), rel=1e-12)


@pytest.mark.parametrize("n,D", SHAPES)
def test_float_products_do_not_depend_on_insertion_order(n, D):
    rng = random.Random(n * 7 + D)
    ctx = _ctx(n, D, False)
    p, q = _random_terms(rng, n, D, False), _random_terms(rng, n, D, False)
    shuffled_p = list(p.items())
    rng.shuffle(shuffled_p)
    first = XSeries(ctx, p) * XSeries(ctx, q)
    second = XSeries(ctx, dict(shuffled_p)) * XSeries(ctx, dict(reversed(list(q.items()))))
    assert [(e, c.hex()) for e, c in first.coeffs.items()] == \
        [(e, c.hex()) for e, c in second.coeffs.items()]


def test_plan_is_shared_per_shape_and_visits_only_surviving_pairs():
    a = SeriesContext(3, (0.0, 0.0, 0.0), 4)
    b = SeriesContext(3, (1.0, 2.0, 3.0), 4)
    assert a.plan is b.plan is index_plan(3, 4)
    # pairs with total degree <= D are the monomials of degree <= D in 2n variables
    assert sum(len(pairs) for _, pairs in a.plan.products) == math.comb(2 * 3 + 4, 4) == 210
    assert list(a.plan.exps) == sorted(_exponents(3, 4), key=lambda e: (sum(e), e))


def test_coeffs_view_lists_nonzero_terms_read_only():
    ctx = SeriesContext(2, (0.0, 0.0), 2)
    x, y = ctx.variable(0), ctx.variable(1)
    s = x * y + x - x
    assert dict(s.coeffs) == {(1, 1): 1.0}
    with pytest.raises(TypeError):
        s.coeffs[(0, 0)] = 1.0
