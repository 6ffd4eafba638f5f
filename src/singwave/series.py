"""Truncated multivariate power series.

Two layers:

* ``XSeries`` -- a polynomial jet in the spatial variables around a base
  point, truncated at a total degree ``D``.  It is the coefficient object
  for everything else in the package (the surface function, its
  derivatives, every order of the regular part of a singular solution).
* ``SigmaSeries`` -- a truncated series in the transverse variable sigma
  with ``XSeries`` coefficients.  sigma is ``T = t - psi(x)`` for the
  logarithmic regimes and ``s = T^(1/m)`` for the fractional-power
  regime.

Coefficients are ordinary Python numbers.  ``float`` gives the default
double-precision mode; ``fractions.Fraction`` (or ``int``) coefficients
give the exact rational mode used by test oracles.  All operations are
pure and the objects are treated as immutable, so values can be shared
freely between threads and problems.

An ``XSeries`` stores one coefficient per monomial of degree <= D in a
list indexed by graded-lex rank, zeros included.  The index tables of
that layout (``IndexPlan``) depend only on (n, D) and are built once per
shape on first use.  Products visit only the term pairs that survive
truncation, in a fixed order, so float results do not depend on how a
series was built.  ``coeffs`` is a read-only view of the nonzero terms.

Truncation is silent: arithmetic never produces terms above the
truncation degree/order.  Each ``XSeries`` additionally tracks
``reliable_degree``, the degree through which its stored coefficients
are those of the exact underlying function (a partial derivative of a
degree-``D`` jet is only reliable through ``D - 1``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from types import MappingProxyType
from typing import Callable, Iterable, Sequence, Union

from .errors import CompatibilityError, DomainError, InputError, SingularDivisionError

#: A monomial exponent: one non-negative integer power per spatial variable.
Exponent = tuple
Scalar = Union[int, float, Fraction]


def _is_exact(value) -> bool:
    return isinstance(value, (int, Fraction))


def _inv_scalar(value):
    """1/value, staying exact for int/Fraction inputs."""
    if _is_exact(value):
        return Fraction(1, 1) / Fraction(value)
    return 1.0 / value


def exact_fraction_root(value, m: int = 2):
    """The non-negative m-th root of a non-negative rational if it is
    rational, else None."""
    value = Fraction(value)
    num = _exact_int_root(value.numerator, m)
    den = _exact_int_root(value.denominator, m)
    return None if num is None or den is None else Fraction(num, den)


def horner(values: Sequence, x):
    """sum_k values[k] * x^k, Horner from the top coefficient down."""
    value = 0
    for c in reversed(values):
        value = value * x + c
    return value


def _exponents_of_degree(n: int, d: int) -> Iterable[Exponent]:
    """All exponent tuples of total degree exactly d, lexicographically."""
    if n == 0:
        if d == 0:
            yield ()
        return
    for first in range(d + 1):
        for rest in _exponents_of_degree(n - 1, d - first):
            yield (first,) + rest


class IndexPlan:
    """Index tables of the dense graded layout for one (n, D).

    ``exps[r]`` is the exponent of rank r, ``rank`` the inverse map and
    ``degree_end[d]`` the number of exponents of degree <= d.  ``products``
    pairs each left rank r1, in lexicographic order of exps[r1], with the
    (r2, r) such that exps[r1] + exps[r2] = exps[r] has degree <= D.
    ``partials[i]`` lists (rank, rank of the derivative, power of x_i).
    ``horner`` nests (power, child) in descending power, one level per
    variable; the children at the last variable are ranks."""

    __slots__ = ("exps", "rank", "degree_end", "products", "partials", "horner")

    def __init__(self, n: int, D: int):
        by_degree = [tuple(_exponents_of_degree(n, d)) for d in range(D + 1)]
        exps = [e for level in by_degree for e in level]
        rank = {e: r for r, e in enumerate(exps)}
        self.exps = tuple(exps)
        self.rank = MappingProxyType(rank)
        self.degree_end = tuple(accumulate(len(level) for level in by_degree))
        self.products = tuple(
            (r1, tuple((r2, rank[tuple(a + b for a, b in zip(exps[r1], exps[r2]))])
                       for r2 in range(self.degree_end[D - sum(exps[r1])])))
            for r1 in sorted(range(len(exps)), key=exps.__getitem__))
        self.partials = tuple(
            tuple((r, rank[e[:i] + (e[i] - 1,) + e[i + 1:]], e[i])
                  for r, e in enumerate(exps) if e[i])
            for i in range(n))

        def node(prefix, budget):
            if len(prefix) == n - 1:
                return tuple((p, rank[prefix + (p,)]) for p in range(budget, -1, -1))
            return tuple((p, node(prefix + (p,), budget - p)) for p in range(budget, -1, -1))

        self.horner = node((), D) if n else ()


#: the IndexPlan of one (n, D), built on first use and then shared
index_plan = lru_cache(maxsize=None)(IndexPlan)


def _horner_eval(node, c, local, depth: int, last: int):
    """Horner evaluation variable by variable over the nonzero entries of
    ``c``: a power with no nonzero terms below it is skipped, not added
    as zero.  None when every coefficient under ``node`` is zero."""
    x = local[depth]
    value, prev = None, 0
    for power, child in node:
        if depth == last:
            part = c[child] or None
        else:
            part = _horner_eval(child, c, local, depth + 1, last)
        if part is None:
            continue
        if value is not None:
            for _ in range(prev - power):
                value = value * x
            part = value + part
        value, prev = part, power
    for _ in range(prev):
        value = value * x
    return value


@dataclass(frozen=True)
class SeriesContext:
    """Shared metadata of a family of compatible series: variable count,
    expansion center and total-degree truncation."""

    n: int
    base_point: tuple
    max_degree: int

    def __post_init__(self):
        if len(self.base_point) != self.n:
            raise InputError(f"base point has {len(self.base_point)} entries, expected {self.n}")
        if self.max_degree < 0:
            raise InputError("max_degree must be >= 0")

    @cached_property
    def plan(self) -> IndexPlan:
        return index_plan(self.n, self.max_degree)

    # -- constructors ------------------------------------------------

    def zero(self) -> "XSeries":
        return _xseries(self, [0] * len(self.plan.exps), self.max_degree)

    def constant(self, value: Scalar) -> "XSeries":
        return _xseries(self, [value] + [0] * (len(self.plan.exps) - 1), self.max_degree)

    def variable(self, i: int, coeff: Scalar = 1) -> "XSeries":
        """The coordinate function x_i as a series around the base point."""
        if not 0 <= i < self.n:
            raise InputError(f"variable index {i} out of range for n={self.n}")
        e = tuple(1 if j == i else 0 for j in range(self.n))
        coeffs = {e: coeff}
        b = self.base_point[i]
        if b != 0:
            coeffs[(0,) * self.n] = coeff * b
        return XSeries(self, coeffs)

    def from_coeffs(self, coeffs: dict) -> "XSeries":
        return XSeries(self, coeffs)

    def exponents_of_degree(self, d: int) -> Iterable[Exponent]:
        """All exponent tuples of total degree exactly d."""
        return _exponents_of_degree(self.n, d)


def _xseries(ctx: SeriesContext, c: list, reliable_degree: int) -> "XSeries":
    """An XSeries over a dense coefficient list built by this module
    (trusted: no validation, the list is not copied)."""
    xs = object.__new__(XSeries)
    xs.ctx = ctx
    xs._c = c
    xs._view = None
    xs.reliable_degree = reliable_degree
    return xs


class XSeries:
    """Truncated multivariate power series in the spatial variables.

    ``coeffs`` maps exponent tuples to the nonzero scalar coefficients;
    missing entries are zero.  Total degrees never exceed
    ``ctx.max_degree``.
    """

    __slots__ = ("ctx", "_c", "_view", "reliable_degree")

    def __init__(self, ctx: SeriesContext, coeffs: dict, reliable_degree: int | None = None):
        rank = ctx.plan.rank
        c = [0] * len(rank)
        for e, value in coeffs.items():
            r = rank.get(tuple(e))
            if r is None:
                if len(e) == ctx.n and all(p >= 0 for p in e) and sum(e) > ctx.max_degree:
                    raise InputError(f"exponent {e} exceeds truncation degree {ctx.max_degree}")
                raise InputError(f"bad exponent {e} for n={ctx.n}")
            if value != 0:
                c[r] = value
        self.ctx = ctx
        self._c = c
        self._view = None
        self.reliable_degree = ctx.max_degree if reliable_degree is None else min(
            reliable_degree, ctx.max_degree
        )

    # -- metadata ----------------------------------------------------

    @property
    def coeffs(self):
        """Read-only mapping exponent -> coefficient of the nonzero terms,
        in graded-lex order."""
        if self._view is None:
            exps = self.ctx.plan.exps
            self._view = MappingProxyType({exps[r]: c for r, c in enumerate(self._c) if c})
        return self._view

    @property
    def n(self) -> int:
        return self.ctx.n

    @property
    def base_point(self) -> tuple:
        return self.ctx.base_point

    @property
    def max_degree(self) -> int:
        return self.ctx.max_degree

    def _check_compat(self, other: "XSeries"):
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise CompatibilityError(
                f"incompatible series contexts {self.ctx} vs {other.ctx}"
            )

    def _coerce(self, value) -> "XSeries":
        if isinstance(value, XSeries):
            self._check_compat(value)
            return value
        return self.ctx.constant(value)

    # -- ring arithmetic ----------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        # a term missing on one side is copied, never added to zero
        out = [x + y if x and y else x or y for x, y in zip(self._c, other._c)]
        return _xseries(self.ctx, out, min(self.reliable_degree, other.reliable_degree))

    __radd__ = __add__

    def __neg__(self):
        return _xseries(self.ctx, [-x if x else 0 for x in self._c], self.reliable_degree)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, XSeries):
            if other == 0:
                return self.ctx.zero()
            out = [x * other if x else 0 for x in self._c]
            return _xseries(self.ctx, out, self.reliable_degree)
        self._check_compat(other)
        a, b = self._c, other._c
        out = [0] * len(a)
        # the plan fixes the accumulation order (determinism invariant)
        for r1, pairs in self.ctx.plan.products:
            c1 = a[r1]
            if c1:
                for r2, r in pairs:
                    c2 = b[r2]
                    if c2:
                        out[r] = out[r] + c1 * c2
        return _xseries(self.ctx, out, min(self.reliable_degree, other.reliable_degree))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, XSeries):
            return self * other.reciprocal()
        return self * _inv_scalar(other)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise InputError("powers must be non-negative integers")
        result = self.ctx.constant(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- calculus -----------------------------------------------------

    def partial(self, i: int) -> "XSeries":
        """Formal partial derivative in variable i (0-based).

        The result is reliable one degree lower than the input: the
        degree-D sources of its degree-D coefficients were truncated.
        """
        if not 0 <= i < self.n:
            raise InputError(f"variable index {i} out of range for n={self.n}")
        a = self._c
        out = [0] * len(a)
        for r, target, power in self.ctx.plan.partials[i]:
            if a[r]:
                out[target] = a[r] * power
        return _xseries(self.ctx, out, self.reliable_degree - 1)

    def reciprocal(self) -> "XSeries":
        """Multiplicative inverse as a truncated geometric series.

        Requires a nonzero constant term; a vanishing one signals
        division by a function that is zero on the expansion center
        (e.g. a characteristic surface).
        """
        c0 = self.constant_term()
        if c0 == 0:
            raise SingularDivisionError("constant term vanishes; cannot invert series")
        inv0 = _inv_scalar(c0)
        # self = c0 (1 - q) with q of valuation >= 1
        q = self.ctx.constant(1) - self * inv0
        acc = self.ctx.constant(1)
        power = self.ctx.constant(1)
        for _ in range(self.ctx.max_degree):
            power = power * q
            if power.is_zero():
                break
            acc = acc + power
        return (acc * inv0).with_reliable(self.reliable_degree)

    # -- evaluation and queries ----------------------------------------

    def eval(self, point: Sequence[Scalar]):
        """Evaluate the truncated polynomial at ``point`` (absolute
        coordinates), Horner-style variable by variable."""
        if len(point) != self.n:
            raise InputError(f"point has {len(point)} entries, expected {self.n}")
        if not self.n:
            return self._c[0] or 0
        local = tuple(p - b for p, b in zip(point, self.base_point))
        value = _horner_eval(self.ctx.plan.horner, self._c, local, 0, self.n - 1)
        return 0 if value is None else value

    def constant_term(self):
        return self._c[0] or 0

    def max_abs(self) -> float:
        return max((abs(c) for c in self._c if c), default=0.0)

    def is_zero(self, tol: float = 0.0) -> bool:
        if tol == 0.0:
            return not any(self._c)
        return all(abs(c) <= tol for c in self._c if c)

    def truncated(self, degree: int) -> "XSeries":
        keep = self.ctx.plan.degree_end[min(degree, self.max_degree)] if degree >= 0 else 0
        out = self._c[:keep] + [0] * (len(self._c) - keep)
        return _xseries(self.ctx, out, self.reliable_degree)

    def up_to_reliable(self) -> "XSeries":
        return self.truncated(max(self.reliable_degree, -1))

    def with_reliable(self, degree: int) -> "XSeries":
        return _xseries(self.ctx, self._c, min(degree, self.max_degree))

    def __eq__(self, other):
        if not isinstance(other, XSeries):
            return NotImplemented
        return self.ctx == other.ctx and self._c == other._c

    __hash__ = None

    def __repr__(self):
        if not self.coeffs:
            return "XSeries(0)"
        terms = []
        for e, c in self.coeffs.items():
            mono = "*".join(f"dx{i}^{p}" for i, p in enumerate(e) if p)
            terms.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "XSeries(" + " + ".join(terms) + ")"


# ----------------------------------------------------------------------
# sigma series
# ----------------------------------------------------------------------

KIND_T = "T"
KIND_S = "s"


class SigmaSeries:
    """Truncated series in the transverse variable sigma with XSeries
    coefficients.

    ``kind`` is ``"T"`` (sigma = T, logarithmic regimes, m == 1) or
    ``"s"`` (sigma = T^(1/m), fractional regime, m >= 2).  ``coeffs[k]``
    is the coefficient of sigma^k; the list may be shorter than
    ``max_order + 1``, missing entries are zero.
    """

    __slots__ = ("kind", "m", "max_order", "xctx", "coeffs")

    def __init__(self, kind: str, m: int, max_order: int, xctx: SeriesContext,
                 coeffs: Sequence[XSeries] = ()):
        if kind not in (KIND_T, KIND_S):
            raise InputError(f"unknown sigma kind {kind!r}")
        if kind == KIND_T and m != 1:
            raise InputError("kind 'T' requires m == 1")
        if kind == KIND_S and m < 2:
            raise InputError("kind 's' requires m >= 2")
        if max_order < 0:
            raise InputError("max_order must be >= 0")
        coeffs = list(coeffs)[: max_order + 1]
        for c in coeffs:
            if c.ctx is not xctx and c.ctx != xctx:
                raise CompatibilityError("sigma coefficient over a different XSeries context")
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.kind = kind
        self.m = m
        self.max_order = max_order
        self.xctx = xctx
        self.coeffs = tuple(coeffs)

    # -- constructors --------------------------------------------------

    @classmethod
    def zeros(cls, kind: str, m: int, max_order: int, xctx: SeriesContext) -> "SigmaSeries":
        return cls(kind, m, max_order, xctx, ())

    @classmethod
    def from_xseries(cls, xs: XSeries, kind: str, m: int, max_order: int) -> "SigmaSeries":
        return cls(kind, m, max_order, xs.ctx, (xs,))

    # -- helpers -------------------------------------------------------

    def _check_compat(self, other: "SigmaSeries"):
        if self.kind != other.kind or self.m != other.m:
            raise CompatibilityError(
                f"cannot mix sigma kinds {self.kind}(m={self.m}) and {other.kind}(m={other.m})"
            )
        if self.max_order != other.max_order or self.xctx != other.xctx:
            raise CompatibilityError("sigma series truncations or contexts differ")

    def coeff(self, k: int) -> XSeries:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.xctx.zero()

    def _coerce(self, value) -> "SigmaSeries":
        if isinstance(value, SigmaSeries):
            self._check_compat(value)
            return value
        xs = value if isinstance(value, XSeries) else self.xctx.constant(value)
        return SigmaSeries.from_xseries(xs, self.kind, self.m, self.max_order)

    def _like(self, coeffs) -> "SigmaSeries":
        return SigmaSeries(self.kind, self.m, self.max_order, self.xctx, coeffs)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        size = max(len(self.coeffs), len(other.coeffs))
        return self._like([self.coeff(k) + other.coeff(k) for k in range(size)])

    __radd__ = __add__

    def __neg__(self):
        return self._like([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        """Truncated convolution in sigma (or scaling by a scalar/XSeries)."""
        if not isinstance(other, SigmaSeries):
            return self._like([c * other for c in self.coeffs])
        self._check_compat(other)
        size = min(self.max_order, len(self.coeffs) + len(other.coeffs) - 2) if self.coeffs and other.coeffs else -1
        out = [self.xctx.zero() for _ in range(size + 1)]
        for i, ci in enumerate(self.coeffs):
            if ci.is_zero():
                continue
            for j, cj in enumerate(other.coeffs):
                if i + j > self.max_order:
                    break
                if cj.is_zero():
                    continue
                out[i + j] = out[i + j] + ci * cj
        return self._like(out)

    __rmul__ = __mul__

    def shift(self, j: int) -> "SigmaSeries":
        """Multiply by sigma^j (truncating above max_order)."""
        if j < 0:
            raise InputError("shift power must be >= 0")
        return self._like([self.xctx.zero()] * j + list(self.coeffs))

    def map_indexed(self, fn: Callable[[int, XSeries], XSeries]) -> "SigmaSeries":
        return self._like([fn(k, c) for k, c in enumerate(self.coeffs)])

    def deriv_sigma(self) -> "SigmaSeries":
        """d/dsigma.  The top stored order loses one reliable order, as
        with XSeries.partial; callers track this through max_order use."""
        return self._like([self.coeff(k + 1) * (k + 1) for k in range(len(self.coeffs))])

    def partial_x(self, i: int) -> "SigmaSeries":
        return self._like([c.partial(i) for c in self.coeffs])

    # -- evaluation -------------------------------------------------------

    def sigma_of(self, T_value):
        """The sigma value for a given T > 0 (positive real root for kind s)."""
        if T_value <= 0:
            raise DomainError("sigma series live on the side T = t - psi(x) > 0")
        if self.kind == KIND_T:
            return T_value
        root = exact_fraction_root(T_value, self.m) if _is_exact(T_value) else None
        return float(T_value) ** (1.0 / self.m) if root is None else root

    def eval(self, T_value, point):
        return self.eval_at_sigma(self.sigma_of(T_value), point)

    def eval_at_sigma(self, sigma, point):
        return horner([c.eval(point) for c in self.coeffs], sigma)

    def max_abs(self) -> float:
        return max((c.max_abs() for c in self.coeffs), default=0.0)

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(c.is_zero(tol) for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, SigmaSeries):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.m == other.m
            and self.max_order == other.max_order
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def __repr__(self):
        return f"SigmaSeries[{self.kind},m={self.m},K={self.max_order}]({list(self.coeffs)!r})"


def _exact_int_root(value: int, m: int):
    """The integer m-th root of ``value`` if it is exact, else None
    (integer arithmetic throughout: Newton's iteration from above, or
    ``math.isqrt`` for square roots)."""
    if value < 0:
        return None
    if m == 2 or value < 2:
        root = math.isqrt(value)
    else:
        root = 1 << -(-value.bit_length() // m)
        while True:
            lower = ((m - 1) * root + value // root ** (m - 1)) // m
            if lower >= root:
                break
            root = lower
    return root if root**m == value else None
