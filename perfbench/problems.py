"""Seeded problem generators for the benchmark workloads.

Every generator returns a problem document in the JSON schema that
``singwave`` reads (see ``src/singwave/problem.py``).  Numbers are
written as exact ``"p/q"`` strings, so one document describes the same
problem in both arithmetics: only its ``"arithmetic"`` field differs,
and float mode reads each value as ``float(Fraction("p/q"))``.

The generators use nothing from ``singwave``: they build polynomial
data as plain ``{exponent tuple: Fraction}`` maps.
"""

from __future__ import annotations

import random
from fractions import Fraction as F
from itertools import product


def exponents_of_degree(n: int, d: int):
    """Exponent tuples of total degree d, in the order singwave enumerates
    them (lexicographic in the first variable, then the rest)."""
    if n == 1:
        yield (d,)
        return
    for first in range(d + 1):
        for rest in exponents_of_degree(n - 1, d - first):
            yield (first,) + rest


def number(value) -> str:
    value = F(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def terms(poly: dict) -> list:
    """{exponent: value} to a JSON term list, zero terms dropped."""
    graded = sorted(poly.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    return [[list(e), number(c)] for e, c in graded if c != 0]


def poly_mul(p: dict, q: dict, D: int) -> dict:
    out: dict = {}
    for (e1, c1), (e2, c2) in product(p.items(), q.items()):
        if sum(e1) + sum(e2) <= D:
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def unit(n: int, i: int, power: int = 1) -> tuple:
    return tuple(power if j == i else 0 for j in range(n))


def random_poly(shape: random.Random, value: random.Random, n: int, degree: int) -> dict:
    """Random polynomial: each coefficient is 0 with probability 1/5 (drawn
    from ``shape``), else +-1 or +-2 over 1, 2 or 3 (drawn from ``value``);
    the distribution of ``tests/helpers.random_xseries`` in rational mode."""
    out = {}
    for d in range(degree + 1):
        for e in exponents_of_degree(n, d):
            if shape.randrange(5):
                out[e] = F(value.choice((-2, -1, 1, 2)), value.randint(1, 3))
    return out


def _small(shape: random.Random, value: random.Random, denominators: int):
    """0 with probability 1/5, else +-1 or +-2 over 1..denominators."""
    if not shape.randrange(5):
        return F(0)
    return F(value.choice((-2, -1, 1, 2)), value.randint(1, denominators))


def _small_slope_surface(shape: random.Random, value: random.Random, n: int, deg: int) -> dict:
    """Random psi of degree <= deg with |Psi(base)| = |1 - |grad psi(0)|^2| > 0.2."""
    while True:
        psi = random_poly(shape, value, n, deg)
        for i in range(n):
            if unit(n, i) in psi:
                psi[unit(n, i)] = psi[unit(n, i)] / 4
        Psi0 = 1 - sum(float(psi.get(unit(n, i), 0)) ** 2 for i in range(n))
        if abs(Psi0) > 0.2:
            return psi


def _vanishing_on_surface(psi: dict, c) -> list:
    """The t-indexed coefficient c * (t - psi(x)), which is zero on t = psi."""
    return [terms({e: -c * v for e, v in psi.items()}), number(c)]


def _powers(shape: random.Random, n: int, total: int) -> list:
    alpha = [0] * n
    for _ in range(total):
        alpha[shape.randint(0, n - 1)] += 1
    return alpha


def _document(n, mode, a, D, K, arithmetic, f, psi, v0=None, m=None) -> dict:
    doc = {"n": n, "mode": mode}
    if m is not None:
        doc["m"] = m
    doc.update({
        "a": number(a),
        "base_point": [0] * n,
        "truncation": {"D": D, "K": K},
        "arithmetic": arithmetic,
        "f": f,
        "psi": {"coeffs": terms(psi)},
    })
    if v0 is not None:
        doc["v0"] = terms(v0)
    return doc


def admissible_log_problem(shape: random.Random, value: random.Random, n: int, D: int, K: int,
                           arithmetic: str, deg: int = 2) -> dict:
    """Port of ``tests/helpers.random_admissible_log_problem``.

    f_2 = (tau^2 - |xi|^2)/a is admissible for every surface; the extra
    quadratic monomials carry the coefficient c (t - psi(x)) and vanish on
    the surface, and f_1, f_0 and v0 are unconstrained.  ``shape`` draws
    which terms are present, ``value`` draws their values.
    """
    a = F(value.choice([1, 2, 3, -1, -2]), value.choice([1, 2]))
    inv_a = 1 / a
    psi = _small_slope_surface(shape, value, n, deg)

    f = [{"coeff": number(inv_a), "tau_power": 2, "xi_powers": [0] * n}]
    for i in range(n):
        f.append({"coeff": number(-inv_a), "tau_power": 0, "xi_powers": list(unit(n, i, 2))})
    for _ in range(shape.randint(1, 2)):
        j = shape.randint(0, 2)
        alpha = _powers(shape, n, 2 - j)
        c = _small(shape, value, 2)
        if c:
            f.append({"coeff": _vanishing_on_surface(psi, c), "tau_power": j, "xi_powers": alpha})
    if shape.random() < 0.8:
        j = shape.randint(0, 1)
        alpha = _powers(shape, n, 1 - j)
        f.append({"coeff": terms(random_poly(shape, value, n, 1)), "tau_power": j,
                  "xi_powers": alpha})
    if shape.random() < 0.8:
        f.append({"coeff": [terms(random_poly(shape, value, n, 1)),
                            number(_small(shape, value, 1))],
                  "tau_power": 0, "xi_powers": [0] * n})
    v0 = random_poly(shape, value, n, deg)
    return _document(n, "log", a, D, K, arithmetic, f, psi, v0=v0)


def forced_fractional_problem(shape: random.Random, value: random.Random, m: int, n: int, D: int,
                              K: int, arithmetic: str, deg: int = 2) -> dict:
    """A fractional-regime problem with a = 1 and nonzero forcing.

    The top part is c(x) tau^(m+1) with c fixed by the top-degree
    condition Psi = ((1-m)^m / m^(m-1)) (-1)^(m+1) c on the surface, so
    every coefficient is rational; monomials of degree m carry the factor
    (t - psi) and vanish on the surface; the parts of degree < m are free
    and force a nonzero correction series.
    """
    psi = _small_slope_surface(shape, value, n, deg)
    grad = [{tuple(p - (j == i) for j, p in enumerate(e)): c * e[i]
             for e, c in psi.items() if e[i]} for i in range(n)]
    Psi = {(0,) * n: F(1)}
    for g in grad:
        for e, c in poly_mul(g, g, D).items():
            Psi[e] = Psi.get(e, 0) - c
    factor = F((1 - m) ** m, m ** (m - 1)) * (-1) ** (m + 1)
    top = {e: c / factor for e, c in Psi.items()}
    f = [{"coeff": terms(top), "tau_power": m + 1, "xi_powers": [0] * n}]
    for _ in range(shape.randint(0, 2)):
        j = shape.randint(0, m)
        alpha = _powers(shape, n, m - j)
        c = _small(shape, value, 2)
        if c:
            f.append({"coeff": _vanishing_on_surface(psi, c), "tau_power": j, "xi_powers": alpha})
    for degree in range(1, m):
        if shape.random() < 0.7:
            j = shape.randint(0, degree)
            alpha = _powers(shape, n, degree - j)
            f.append({"coeff": terms(random_poly(shape, value, n, 1)), "tau_power": j,
                      "xi_powers": alpha})
    f.append({"coeff": [terms(random_poly(shape, value, n, 1)), number(_small(shape, value, 2))],
              "tau_power": 0, "xi_powers": [0] * n})
    return _document(n, "fractional", 1, D, K, arithmetic, f, psi, m=m)
