"""Polynomial gradient nonlinearities f(t, x; tau, xi).

``f`` is a polynomial in the derivative slots ``tau`` (standing for
``u_t``) and ``xi`` (standing for ``grad u``), with coefficients that are
polynomials in ``(t, x)``.  It is stored as homogeneous parts
``f = f_0 + ... + f_{m+1}``, each part a list of monomials.

Coefficient polynomials in ``(t, x)`` are kept as a list of ``XSeries``
indexed by the power of ``t`` (a "t-poly").  The degree in ``t`` is
capped (default 4); genuinely non-polynomial coefficients must be
supplied as truncated jets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import CompatibilityError, InputError
from .series import Exponent, SeriesContext, SigmaSeries, XSeries, horner

DEFAULT_MAX_T_DEGREE = 4


# ----------------------------------------------------------------------
# t-polys: polynomials in (t, x) as lists of XSeries indexed by t-power
# ----------------------------------------------------------------------


def tpoly_normalize(coeff, ctx: SeriesContext) -> tuple:
    """Coerce a scalar / XSeries / sequence of either into a t-poly."""
    if isinstance(coeff, XSeries):
        return (coeff,)
    if isinstance(coeff, (list, tuple)):
        out = []
        for c in coeff:
            out.append(c if isinstance(c, XSeries) else ctx.constant(c) if c != 0 else ctx.zero())
        while out and out[-1].is_zero():
            out.pop()
        return tuple(out)
    if coeff == 0:
        return ()
    return (ctx.constant(coeff),)


def tpoly_at(a: Sequence[XSeries], powers: list):
    """sum_d t^d * a[d] with t^d read from ``powers`` ([1, t, ...] in the
    arithmetic of t: XSeries or SigmaSeries), which grows by the powers
    the sum needs, so one list serves many t-polys.  None when the sum
    vanishes."""
    out = None
    for d, c in enumerate(a):
        if not c.is_zero():
            while len(powers) <= d:
                powers.append(powers[-1] * powers[1])
            term = powers[d] * c
            out = term if out is None else out + term
    return None if out is None or out.is_zero() else out


# ----------------------------------------------------------------------
# monomials and the nonlinearity
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class NMonomial:
    """One monomial c(t, x) * tau^j * xi^alpha.

    ``coeff`` is the t-poly of c; ``tau_power`` is j; ``xi_powers`` is the
    multi-index alpha over the spatial gradient slots.
    """

    coeff: tuple
    tau_power: int
    xi_powers: Exponent

    @property
    def degree(self) -> int:
        return self.tau_power + sum(self.xi_powers)

    @property
    def t_degree(self) -> int:
        return len(self.coeff) - 1


def monomial(ctx: SeriesContext, coeff, tau_power: int = 0,
             xi_powers: Sequence[int] | None = None) -> NMonomial:
    """Convenience constructor; ``coeff`` may be a scalar, XSeries or t-poly."""
    xi = tuple(xi_powers) if xi_powers is not None else (0,) * ctx.n
    if len(xi) != ctx.n or any(p < 0 for p in xi) or tau_power < 0:
        raise InputError(f"bad monomial powers tau={tau_power}, xi={xi}")
    return NMonomial(tpoly_normalize(coeff, ctx), tau_power, xi)


class Nonlinearity:
    """The right-hand side f, decomposed into homogeneous parts.

    ``parts[l]`` holds the monomials of homogeneity degree l in
    ``(tau, xi)``; ``l`` runs from 0 to m+1.  Part 0 is a pure function
    of (t, x).
    """

    __slots__ = ("xctx", "m", "parts", "max_t_degree")

    def __init__(self, xctx: SeriesContext, m: int, parts: Sequence[Sequence[NMonomial]],
                 max_t_degree: int = DEFAULT_MAX_T_DEGREE):
        if m < 1:
            raise InputError("top degree m+1 must be at least 2 (m >= 1)")
        if len(parts) != m + 2:
            raise InputError(f"expected {m + 2} homogeneous parts, got {len(parts)}")
        for l, part in enumerate(parts):
            for mono in part:
                if mono.degree != l:
                    raise InputError(f"monomial of degree {mono.degree} in part {l}")
                if len(mono.xi_powers) != xctx.n:
                    raise InputError("monomial xi multi-index does not match dimension")
                if mono.t_degree > max_t_degree:
                    raise InputError(
                        f"coefficient t-degree {mono.t_degree} exceeds cap {max_t_degree}"
                    )
        self.xctx = xctx
        self.m = m
        self.parts = tuple(tuple(part) for part in parts)
        self.max_t_degree = max_t_degree

    # -- construction ----------------------------------------------------

    @classmethod
    def decompose_homogeneous(cls, raw: Iterable[NMonomial], m: int, xctx: SeriesContext,
                              max_t_degree: int = DEFAULT_MAX_T_DEGREE) -> "Nonlinearity":
        """Route monomials into homogeneous parts by tau/xi degree."""
        parts: list[list[NMonomial]] = [[] for _ in range(m + 2)]
        for mono in raw:
            if mono.degree > m + 1:
                raise InputError(
                    f"monomial degree {mono.degree} exceeds top degree {m + 1}"
                )
            parts[mono.degree].append(mono)
        return cls(xctx, m, parts, max_t_degree)

    @property
    def n(self) -> int:
        return self.xctx.n

    def part(self, l: int) -> tuple:
        return self.parts[l]

    # -- f on series ---------------------------------------------------------

    def coefficients_at(self, powers: list, parts) -> dict:
        """The coefficient c(t, x) of every monomial of the given parts at
        the t whose powers ``powers`` starts (see ``tpoly_at``), as
        {part: tuple indexed like that part}; None where one vanishes."""
        return {l: tuple(tpoly_at(mono.coeff, powers) for mono in self.parts[l]) for l in parts}

    def on_series(self, coeffs: dict, tau, xi) -> dict:
        """f_l(t, x; tau, xi) for every part l of ``coeffs`` (from
        ``coefficients_at``), in any arithmetic with + and *: XSeries,
        SigmaSeries or the online series of the reduction.  Each power of
        tau and xi is formed once, as (base^(p-1)) * base, and shared by
        all parts.  None for a part that vanishes."""
        powers: dict = {}

        def power(key, base, p):
            cache = powers.setdefault(key, [None, base])
            while len(cache) <= p:
                cache.append(cache[-1] * base)
            return cache[p]

        out = {}
        for l, part_coeffs in coeffs.items():
            total = None
            for mono, term in zip(self.parts[l], part_coeffs):
                if term is None:
                    continue
                if mono.tau_power:
                    term = term * power("tau", tau, mono.tau_power)
                for i, p in enumerate(mono.xi_powers):
                    if p:
                        term = term * power(i, xi[i], p)
                total = term if total is None else total + term
            out[l] = total
        return out

    def part_on_surface(self, l: int, psi: XSeries) -> XSeries:
        """f_l(psi(x), x; -1, grad psi(x)) as an XSeries."""
        if psi.ctx != self.xctx:
            raise CompatibilityError("psi over a different series context")
        coeffs = self.coefficients_at([psi.ctx.constant(1), psi], (l,))
        value = self.on_series(coeffs, -1, [psi.partial(i) for i in range(self.n)])[l]
        return psi.ctx.zero() if value is None else value

    def eval_on_jet(self, t_series: SigmaSeries, tau_series: SigmaSeries,
                    xi_series: Sequence[SigmaSeries], part: int | None = None) -> SigmaSeries:
        """Evaluate f (or the single part ``part``) on series arguments."""
        parts = range(self.m + 2) if part is None else (part,)
        zero = SigmaSeries.zeros(t_series.kind, t_series.m, t_series.max_order, self.xctx)
        values = self.on_series(self.coefficients_at([zero + 1, t_series], parts), tau_series,
                                xi_series)
        return sum((value for value in values.values() if value is not None), zero)

    def eval_part_on_jet(self, l: int, t_series, tau_series, xi_series) -> SigmaSeries:
        return self.eval_on_jet(t_series, tau_series, xi_series, part=l)

    # -- pointwise evaluation --------------------------------------------------

    def layer_values(self, point) -> tuple:
        """The t-layers of every monomial coefficient evaluated at
        ``point``, indexed like ``parts``."""
        return tuple(tuple([c.eval(point) for c in mono.coeff] for mono in part)
                     for part in self.parts)

    def eval_numeric(self, t_value, point, tau_value, xi_values, part: int | None = None,
                     layers: tuple | None = None):
        """Evaluate f (or one part) at numbers; used by the eikonal root
        search and the numeric residual sampler.  ``layers``, from
        ``layer_values(point)``, spares re-evaluating the coefficients
        when many (t, tau, xi) are sampled at one point."""
        parts = range(self.m + 2) if part is None else (part,)
        total = 0
        for l in parts:
            for j, mono in enumerate(self.parts[l]):
                value = horner(layers[l][j] if layers is not None
                               else [c.eval(point) for c in mono.coeff], t_value)
                if value == 0:
                    continue
                value = value * tau_value**mono.tau_power
                for i, p in enumerate(mono.xi_powers):
                    if p:
                        value = value * xi_values[i] ** p
                total = total + value
        return total

    # -- transforms ---------------------------------------------------------------

    def negate_time(self) -> "Nonlinearity":
        """The nonlinearity of the time-reversed equation: with s = -t the
        right side becomes f(-s, x; -u_s, grad u)."""
        parts = []
        for part in self.parts:
            new_part = []
            for mono in part:
                coeff = tuple(
                    c * (1 if (d + mono.tau_power) % 2 == 0 else -1)
                    for d, c in enumerate(mono.coeff)
                )
                new_part.append(NMonomial(coeff, mono.tau_power, mono.xi_powers))
            parts.append(new_part)
        return Nonlinearity(self.xctx, self.m, parts, self.max_t_degree)
