"""Independent reference solver for the benchmark's output checks.

It reads the same problem documents as ``singwave`` and recomputes the
correction series v with its own arithmetic: dense truncated
polynomials indexed by graded rank, and sigma series whose coefficients
are produced on demand and cached once they can no longer change (an
online Cauchy product, O(K^2) products in total).  Nothing is imported
from ``singwave``.

The equations are the ones PAPER.md states.  With T = t - psi(x) and
the jets tau~ = sigma u_t, xi~ = sigma grad u, coefficient k of v solves

    log family   [T^2 (box u - f)]_k = 0,      divisor k (k + 1)
    fractional   [m^2 s^m (box u - f)]_k = 0,  divisor (k + m)(k + m + 1)

where v_k enters slice k only as divisor * Psi * v_k.  The polynomial
ring truncates at total degree D and a partial derivative drops the
top degree, the same jet semantics as the package, so exact mode
reproduces its coefficients value for value.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import partial
from math import comb

from problems import exponents_of_degree

SOLUTION_FORMAT = "singwave-solution-v1"


# ----------------------------------------------------------------------
# scalars
# ----------------------------------------------------------------------


def parse_number(raw, rational: bool):
    """Number in the problem schema: int, float, "p/q" or [p, q]."""
    if isinstance(raw, (list, tuple)):
        value = Fraction(int(raw[0]), int(raw[1]))
        return value if rational else float(value)
    if isinstance(raw, str):
        value = Fraction(raw)
        return value if rational else float(value)
    if isinstance(raw, int):
        return Fraction(raw) if rational else float(raw)
    return Fraction(str(raw)) if rational else float(raw)


def emit_number(value, rational: bool):
    if rational:
        value = Fraction(value)
        return [value.numerator, value.denominator]
    return repr(float(value))


# ----------------------------------------------------------------------
# dense truncated polynomials; None is the zero polynomial
# ----------------------------------------------------------------------


class Ring:
    def __init__(self, n: int, D: int, one):
        self.n, self.D, self.one = n, D, one
        self.zero = one - one
        self.exps = [e for d in range(D + 1) for e in exponents_of_degree(n, d)]
        self.rank = {e: i for i, e in enumerate(self.exps)}
        self.size = len(self.exps)
        self.rows = []
        for e1 in self.exps:
            row = []
            for j, e2 in enumerate(self.exps):
                if sum(e1) + sum(e2) <= D:
                    row.append((j, self.rank[tuple(a + b for a, b in zip(e1, e2))]))
            self.rows.append(row)
        self.diff_rows = []
        for i in range(n):
            row = []
            for src, e in enumerate(self.exps):
                if e[i]:
                    lowered = tuple(p - (j == i) for j, p in enumerate(e))
                    row.append((src, self.rank[lowered], e[i]))
            self.diff_rows.append(row)

    def from_terms(self, items) -> list | None:
        out = [self.zero] * self.size
        for e, c in items:
            out[self.rank[tuple(e)]] += c
        return out if any(out) else None

    def const(self, c):
        if c == 0:
            return None
        out = [self.zero] * self.size
        out[0] = c
        return out

    def add(self, p, q):
        if p is None:
            return q
        if q is None:
            return p
        return [a + b for a, b in zip(p, q)]

    def scale(self, p, c):
        if p is None or c == 0:
            return None
        return [a * c for a in p]

    def mul(self, p, q):
        if p is None or q is None:
            return None
        out = [self.zero] * self.size
        for a, row in zip(p, self.rows):
            if a:
                for j, k in row:
                    b = q[j]
                    if b:
                        out[k] += a * b
        return out

    def diff(self, p, i):
        if p is None:
            return None
        out = [self.zero] * self.size
        for src, dst, factor in self.diff_rows[i]:
            out[dst] = p[src] * factor
        return out

    def inverse(self, p):
        """Multiplicative inverse, degree by degree: (p q)_e = [e = 0]."""
        q = [self.zero] * self.size
        inv0 = self.one / p[0]
        q[0] = inv0
        for k in range(1, self.size):
            acc = self.zero
            for i, row in enumerate(self.rows):
                if p[i]:
                    for j, dst in row:
                        if dst == k and j != k:
                            acc += p[i] * q[j]
            q[k] = -acc * inv0
        return q


# ----------------------------------------------------------------------
# online sigma series
# ----------------------------------------------------------------------


class Series:
    """Coefficient j on demand.  ``lag`` says that coefficient j reads v
    only through index j - lag (None: it never reads v); a coefficient is
    cached once every v entry it reads is known."""

    __slots__ = ("solver", "fn", "lag", "done")

    def __init__(self, solver, fn, lag):
        self.solver, self.fn, self.lag, self.done = solver, fn, lag, []

    def __getitem__(self, j):
        if j < 0:
            return None
        done = self.done
        if j < len(done):
            return done[j]
        value = self.fn(j)
        if j == len(done) and (self.lag is None or j - self.lag < len(self.solver.v)):
            done.append(value)
        return value


def _min_lag(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class ReferenceSolver:
    """Solve one problem document; ``psi_override`` replaces the surface
    (used for surfaces the program constructs itself)."""

    def __init__(self, doc: dict, psi_override=None):
        self.rational = doc.get("arithmetic", "float") == "rational"
        rational = self.rational
        self.n = doc["n"]
        self.mode = doc["mode"]
        if self.mode not in ("log", "fractional"):
            raise ValueError(
                f"the reference covers the log and fractional regimes, not {self.mode!r}")
        self.m = doc.get("m", 1) if self.mode == "fractional" else 1
        trunc = doc.get("truncation", {})
        self.D = trunc.get("D", 4)
        self.K = trunc.get("K", 8)
        self.a = parse_number(doc["a"], rational)
        self.base_point = [parse_number(b, rational) for b in doc.get("base_point", [0] * self.n)]
        one = Fraction(1) if rational else 1.0
        self.ring = ring = Ring(self.n, self.D, one)

        if psi_override is not None:
            self.psi = ring.from_terms(psi_override)
        else:
            raw_psi = doc.get("psi") or {}
            self.psi = self.parse_terms(raw_psi.get("coeffs", []) if isinstance(raw_psi, dict)
                                        else raw_psi)
        self.v0 = self.parse_terms(doc.get("v0")) if self.mode == "log" else None
        self.monomials = [self.parse_monomial(entry) for entry in doc["f"]]
        self.v: list = []

    # -- input -----------------------------------------------------------

    def parse_terms(self, raw):
        if raw is None:
            return None
        if isinstance(raw, (int, float, str)):
            return self.ring.const(parse_number(raw, self.rational))
        return self.ring.from_terms((e, parse_number(c, self.rational)) for e, c in raw)

    def parse_monomial(self, entry: dict):
        raw = entry["coeff"]
        is_terms = isinstance(raw, list) and raw and all(
            isinstance(it, list) and len(it) == 2 and isinstance(it[0], list) for it in raw)
        if isinstance(raw, (int, float, str)) or is_terms:
            layers = [self.parse_terms(raw)]
        else:
            layers = [None if layer in (None, 0, []) else self.parse_terms(layer) for layer in raw]
        xi = tuple(entry.get("xi_powers", [0] * self.n))
        return layers, entry.get("tau_power", 0), xi

    # -- solve -----------------------------------------------------------

    def solve(self) -> list:
        ring, m, a, n = self.ring, self.m, self.a, self.n
        psi = self.psi
        grad = [ring.diff(psi, i) for i in range(n)]
        lap = None
        Psi = ring.const(ring.one)
        for i, g in enumerate(grad):
            lap = ring.add(lap, ring.diff(g, i))
            Psi = ring.add(Psi, ring.scale(ring.mul(g, g), -ring.one))
        Pinv = ring.inverse(Psi)
        one = ring.one

        def v(j):
            return self.v[j] if 0 <= j < len(self.v) else None

        # the jets tau~ = sigma u_t and xi~_i = sigma u_{x_i}; coefficient j
        # reads v through index j (log) or j - 1 (fractional)
        if self.mode == "log":
            def tau_at(j):
                return ring.const(-a) if j == 0 else ring.scale(v(j), j)

            def xi_at(i, j):
                if j == 0:
                    return ring.scale(grad[i], a)
                return ring.add(ring.diff(v(j - 1), i), ring.scale(ring.mul(grad[i], v(j)), -j))
            lag = 0
        else:
            def tau_at(j):
                if j == 0:
                    return ring.const(a * (m - 1) / (m * one))
                return ring.scale(v(j - 1), (j - 1 + m) / (m * one))

            def xi_at(i, j):
                return ring.add(ring.diff(v(j - m - 1), i),
                                ring.scale(ring.mul(grad[i], tau[j]), -one))
            lag = 1
        tau = Series(self, tau_at, lag)
        xi = [Series(self, partial(xi_at, i), lag) for i in range(n)]

        parts = self._parts(tau, xi, psi)

        def F(l, j):
            return parts[l][j] if l < len(parts) else None

        self.v = [self.v0] if self.mode == "log" else []
        for k in range(len(self.v), self.K + 1):
            if self.mode == "log":
                R = ring.add(ring.scale(F(2, k), -one), ring.scale(F(1, k - 1), -one))
                R = ring.add(R, ring.scale(F(0, k - 2), -one))
                if k == 1:
                    R = ring.add(R, ring.scale(lap, -a))
                if k >= 2:
                    R = ring.add(R, ring.scale(ring.mul(lap, v(k - 1)), k - 1))
                    for i, g in enumerate(grad):
                        cross = ring.mul(g, ring.diff(v(k - 1), i))
                        R = ring.add(R, ring.scale(cross, 2 * (k - 1)))
                    for i in range(n):
                        R = ring.add(R, ring.scale(ring.diff(ring.diff(v(k - 2), i), i), -one))
                divisor = k * (k + 1)
            else:
                mm = m * m
                R = ring.scale(F(m + 1, k + 1), -mm)
                for l in range(m + 1):
                    R = ring.add(R, ring.scale(F(l, k - m + l), -mm))
                if k == m - 1:
                    R = ring.add(R, ring.scale(lap, a * m * (m - 1)))
                if k >= m:
                    R = ring.add(R, ring.scale(ring.mul(lap, v(k - m)), m * k))
                    for i, g in enumerate(grad):
                        R = ring.add(R, ring.scale(ring.mul(g, ring.diff(v(k - m), i)), 2 * m * k))
                if k >= 2 * m:
                    for i in range(n):
                        R = ring.add(R, ring.scale(ring.diff(ring.diff(v(k - 2 * m), i), i), -mm))
                divisor = (k + m) * (k + m + 1)
            self.v.append(ring.scale(ring.mul(Pinv, R), -one / divisor))
        return self.v

    def _parts(self, tau, xi, psi):
        """Homogeneous parts F_l = f_l(t, x; tau~, xi~) as online series."""
        ring, m = self.ring, self.m
        psi_pows = [ring.const(ring.one)]
        powers = {}

        def power(key, base, p):
            cache = powers.setdefault(key, [None, base])
            while len(cache) <= p:
                prev = cache[-1]
                cache.append(self._product(prev, base))
            return cache[p]

        top = 1 + max(mono[1] + sum(mono[2]) for mono in self.monomials)
        terms_by_part = [[] for _ in range(max(top, m + 2))]
        for layers, tau_power, xi_powers in self.monomials:
            if all(layer is None for layer in layers):
                continue
            while len(psi_pows) < len(layers):
                psi_pows.append(ring.mul(psi_pows[-1], psi))
            coeff = self._t_coefficient(layers, psi_pows)
            term = coeff
            if tau_power:
                term = self._product(term, power("tau", tau, tau_power))
            for i, p in enumerate(xi_powers):
                if p:
                    term = self._product(term, power(i, xi[i], p))
            terms_by_part[tau_power + sum(xi_powers)].append(term)

        def summed(items):
            def fn(j):
                acc = None
                for s in items:
                    acc = ring.add(acc, s[j])
                return acc
            lag = None
            for s in items:
                lag = _min_lag(lag, s.lag)
            return Series(self, fn, lag)

        return [summed(items) for items in terms_by_part]

    def _t_coefficient(self, layers, psi_pows):
        """sum_d c_d(x) t^d at t = psi + sigma^m, as a v-free series."""
        ring, m = self.ring, self.m
        coeffs = {}
        for d, c in enumerate(layers):
            if c is None:
                continue
            for r in range(d + 1):
                piece = ring.scale(ring.mul(c, psi_pows[d - r]), comb(d, r))
                coeffs[m * r] = ring.add(coeffs.get(m * r), piece)
        return Series(self, lambda j: coeffs.get(j), None)

    def _product(self, A, B):
        ring = self.ring

        def fn(j):
            acc = None
            for i in range(j + 1):
                a = A[i]
                if a is None:
                    continue
                acc = ring.add(acc, ring.mul(a, B[j - i]))
            return acc

        return Series(self, fn, _min_lag(A.lag, B.lag))

    # -- output ----------------------------------------------------------

    def sorted_terms(self, p, key):
        if p is None:
            return []
        items = [(e, c) for e, c in zip(self.ring.exps, p) if c != 0]
        return sorted(items, key=key)

    def solution_document(self, doc: dict, surface_terms=None) -> dict:
        """The solution document singwave writes for this problem."""
        if not self.v:
            self.solve()
        r = self.rational
        graded = lambda kv: (sum(kv[0]), kv[0])  # noqa: E731
        lex = lambda kv: kv[0]  # noqa: E731
        surface = surface_terms if surface_terms is not None else [
            [list(e), emit_number(c, r)] for e, c in self.sorted_terms(self.psi, graded)]
        return {
            "format": SOLUTION_FORMAT,
            "regime": self.mode,
            "arithmetic": "rational" if r else "float",
            "n": self.n,
            "m": self.m,
            "a": emit_number(self.a, r),
            "base_point": [emit_number(b, r) for b in self.base_point],
            "truncation": {"D": self.D, "K": self.K},
            "surface": surface,
            "v0": ([[list(e), emit_number(c, r)] for e, c in self.sorted_terms(self.v0, graded)]
                   if self.mode == "log" else None),
            "v": [[k, list(e), emit_number(c, r)]
                  for k, vk in enumerate(self.v) for e, c in self.sorted_terms(vk, lex)],
        }

    def pseudo_eikonal_residual(self) -> float:
        """max |Psi - a f_2(psi, x; -1, grad psi)| over degrees < D (the
        degrees a first-order surface construction determines)."""
        ring, n = self.ring, self.n
        grad = [ring.diff(self.psi, i) for i in range(n)]
        res = ring.const(ring.one)
        for g in grad:
            res = ring.add(res, ring.scale(ring.mul(g, g), -ring.one))
        psi_pows = [ring.const(ring.one)]
        for layers, tau_power, xi_powers in self.monomials:
            if tau_power + sum(xi_powers) != 2:
                continue
            c = None
            for d, layer in enumerate(layers):
                while len(psi_pows) <= d:
                    psi_pows.append(ring.mul(psi_pows[-1], self.psi))
                c = ring.add(c, ring.mul(layer, psi_pows[d]))
            term = ring.scale(c, (-1) ** tau_power)
            for i, p in enumerate(xi_powers):
                for _ in range(p):
                    term = ring.mul(term, grad[i])
            res = ring.add(res, ring.scale(term, -self.a))
        if res is None:
            return 0.0
        return max(abs(float(c)) for e, c in zip(ring.exps, res) if sum(e) < self.D)


def solution_text(document: dict) -> str:
    """Serialise a solution document the way singwave writes it."""
    return json.dumps(document, indent=2)
