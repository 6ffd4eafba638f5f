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


def tpoly_diff_t(a: Sequence[XSeries]) -> tuple:
    return tuple(c * d for d, c in enumerate(a) if d >= 1)


def tpoly_diff_x(a: Sequence[XSeries], i: int) -> tuple:
    return tuple(c.partial(i) for c in a)


def tpoly_on_sigma(a: Sequence[XSeries], psi: XSeries, kind: str, m: int,
                   max_order: int) -> SigmaSeries:
    """Re-expand a t-poly around t = psi(x) + sigma^m as a sigma series."""
    ctx = psi.ctx
    t_series = SigmaSeries.from_xseries(psi, kind, m, max_order) + SigmaSeries(
        kind, m, max_order, ctx, [ctx.zero()] * m + [ctx.constant(1)]
    )
    out = SigmaSeries.zeros(kind, m, max_order, ctx)
    power = SigmaSeries.from_xseries(ctx.constant(1), kind, m, max_order)
    for d, c in enumerate(a):
        if d > 0:
            power = power * t_series
        if not c.is_zero():
            out = out + power * c
    return out


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

    # -- restriction to the surface ---------------------------------------

    def eval_part_on_sigma(self, l: int, psi: XSeries) -> XSeries:
        """f_l(psi(x), x; -1, grad psi(x)) as an XSeries."""
        if psi.ctx != self.xctx:
            raise CompatibilityError("psi over a different series context")
        grad = [psi.partial(i) for i in range(self.n)]
        out = psi.ctx.zero()
        psi_pows = {0: psi.ctx.constant(1)}

        def ppow(base_cache, base, k):
            if k not in base_cache:
                base_cache[k] = ppow(base_cache, base, k - 1) * base
            return base_cache[k]

        grad_pows = [{0: psi.ctx.constant(1)} for _ in range(self.n)]
        for mono in self.parts[l]:
            c = psi.ctx.zero()
            for d, cd in enumerate(mono.coeff):
                if not cd.is_zero():
                    c = c + cd * ppow(psi_pows, psi, d)
            if c.is_zero():
                continue
            sign = -1 if mono.tau_power % 2 else 1
            term = c * sign
            for i, p in enumerate(mono.xi_powers):
                if p:
                    term = term * ppow(grad_pows[i], grad[i], p)
            out = out + term
        return out

    def split_remainder(self, l: int, psi: XSeries, K: int) -> tuple:
        """Split f_l(t, x; -1, grad psi) at t = psi + T into the on-surface
        value and the quotient-by-T remainder.

        Returns (on_sigma, tilde) with
        f_l(t, x; -1, grad psi) = on_sigma + T * tilde.
        """
        full = self._part_on_surface_jet(l, psi, "T", 1, K + 1)
        on_sigma = full.coeff(0)
        tilde = SigmaSeries("T", 1, K, psi.ctx, [full.coeff(k + 1) for k in range(K + 1)])
        return on_sigma, tilde

    def _part_on_surface_jet(self, l: int, psi: XSeries, kind: str, m: int,
                             max_order: int) -> SigmaSeries:
        """f_l(psi + sigma^m, x; -1, grad psi) as a sigma series."""
        ctx = psi.ctx
        grad = [psi.partial(i) for i in range(self.n)]
        out = SigmaSeries.zeros(kind, m, max_order, ctx)
        for mono in self.parts[l]:
            c_sigma = tpoly_on_sigma(mono.coeff, psi, kind, m, max_order)
            factor = ctx.constant(-1 if mono.tau_power % 2 else 1)
            for i, p in enumerate(mono.xi_powers):
                for _ in range(p):
                    factor = factor * grad[i]
            out = out + c_sigma * factor
        return out

    # -- jet evaluation ------------------------------------------------------

    def eval_on_jet(self, t_series: SigmaSeries, tau_series: SigmaSeries,
                    xi_series: Sequence[SigmaSeries], part: int | None = None) -> SigmaSeries:
        """Evaluate f (or the single part ``part``) on series arguments."""
        parts = range(self.m + 2) if part is None else (part,)
        first = tau_series
        zero = SigmaSeries.zeros(first.kind, first.m, first.max_order, self.xctx)
        one = SigmaSeries.from_xseries(self.xctx.constant(1), first.kind, first.m,
                                       first.max_order)
        t_pows = [one]
        tau_pows = [one]
        xi_pows = [[one] for _ in range(self.n)]

        def grow(cache, base, k):
            while len(cache) <= k:
                cache.append(cache[-1] * base)
            return cache[k]

        out = zero
        for l in parts:
            for mono in self.parts[l]:
                term = zero
                for d, cd in enumerate(mono.coeff):
                    if not cd.is_zero():
                        term = term + grow(t_pows, t_series, d) * cd
                if term.is_zero():
                    continue
                if mono.tau_power:
                    term = term * grow(tau_pows, tau_series, mono.tau_power)
                for i, p in enumerate(mono.xi_powers):
                    if p:
                        term = term * grow(xi_pows[i], xi_series[i], p)
                out = out + term
        return out

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
