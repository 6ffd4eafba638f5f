"""Problem and solution file schemas.

A problem file is a JSON document:

    {
      "n": 2,                      spatial dimension
      "mode": "log" | "fractional" | "elliptic" | "negative_side",
      "m": 2,                      fractional mode only
      "a": 1.5 | "3/2" | [3, 2],   numbers: plain, decimal string, or [num, den]
      "base_point": [0, 0],
      "truncation": {"D": 4, "K": 8},
      "arithmetic": "float" | "rational",
      "f": [ {"coeff": ..., "tau_power": 2, "xi_powers": [0, 0]}, ... ],
      "psi": {"coeffs": [[[1,0], 0.3], ...]}
             or {"solve": {"init": [[[0,1], 0.25]], "branch": "+"}},
      "v0": [[[0,0], 7]],
      "verify": {"t_values": [...] or "t_exponents": [...], "x_offsets": [[...]],
                 "radius": 0.2, "points": 5, "tol_symbolic": 1e-8, "tol_numeric": null}
    }

A monomial "coeff" is a number (constant), a term list (x-dependence
only), or a list of term lists indexed by the power of t.  Term lists
pair an exponent tuple with a value: [[1,0], 0.3] means 0.3 * x1.

For the elliptic mode, "n" is the full spatial dimension; the series
live over the n-1 tangential variables, "psi" holds phi(x'), and
"base_point" lists the tangential coordinates of the expansion center.
"f" is ignored (the equation is lap u = (1/a) |grad u|^2).

Solution files carry regime, a, m, the surface and v coefficients
indexed by (order, exponent), the base point and truncation metadata.
Numbers are decimal strings in float mode and [numerator, denominator]
pairs in rational mode, so rational-mode round trips are bit-exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import SchemaError
from .nonlinearity import Nonlinearity, NMonomial, tpoly_normalize
from .reduction import (
    REGIME_ELLIPTIC,
    REGIME_FRACTIONAL,
    REGIME_LOG,
    REGIME_NEGATIVE,
    SingularSolution,
)
from .series import SeriesContext, SigmaSeries, XSeries

MODES = (REGIME_LOG, REGIME_FRACTIONAL, REGIME_ELLIPTIC, REGIME_NEGATIVE)

SOLUTION_FORMAT = "singwave-solution-v1"

#: the keys of a problem's "verify" object
VERIFY_OPTIONS = ("t_values", "t_exponents", "x_offsets", "radius", "points", "tol_symbolic",
                  "tol_numeric")


# ----------------------------------------------------------------------
# numbers
# ----------------------------------------------------------------------


def parse_number(raw, rational: bool):
    try:
        if isinstance(raw, bool):
            raise SchemaError(f"not a number: {raw!r}")
        if isinstance(raw, (list, tuple)):
            if len(raw) != 2:
                raise SchemaError(f"number pair must be [num, den], got {raw!r}")
            num, den = raw
            value = Fraction(int(num), int(den))
            return value if rational else float(value)
        if isinstance(raw, str):
            value = Fraction(raw)
            return value if rational else float(value)
        if isinstance(raw, int):
            return Fraction(raw) if rational else float(raw)
        if isinstance(raw, float):
            # str() round-trips the intended decimal, not the binary float
            return Fraction(str(raw)) if rational else raw
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"cannot parse number {raw!r}: {exc}") from None
    raise SchemaError(f"cannot parse number {raw!r}")


def emit_number(value, rational: bool):
    if rational:
        fr = Fraction(value)
        return [fr.numerator, fr.denominator]
    return repr(float(value))


# ----------------------------------------------------------------------
# series <-> JSON
# ----------------------------------------------------------------------


def parse_terms(raw, ctx: SeriesContext, rational: bool, what: str) -> XSeries:
    """Term list [[exponent, value], ...] (or a bare number) to XSeries."""
    if raw is None:
        return ctx.zero()
    if isinstance(raw, (int, float, str)):
        return ctx.constant(parse_number(raw, rational))
    if not isinstance(raw, list):
        raise SchemaError(f"{what}: expected a term list, got {type(raw).__name__}")
    coeffs = {}
    for item in raw:
        if not (isinstance(item, (list, tuple)) and len(item) == 2):
            raise SchemaError(f"{what}: each term must be [exponents, value], got {item!r}")
        exponent, value = item
        if (not isinstance(exponent, (list, tuple)) or len(exponent) != ctx.n
                or not all(isinstance(p, int) and not isinstance(p, bool) for p in exponent)):
            raise SchemaError(
                f"{what}: exponent {exponent!r} must list {ctx.n} integer powers"
            )
        e = tuple(exponent)
        coeffs[e] = coeffs.get(e, 0) + parse_number(value, rational)
    try:
        return ctx.from_coeffs(coeffs)
    except Exception as exc:
        raise SchemaError(f"{what}: {exc}") from None


def emit_terms(xs: XSeries, rational: bool) -> list:
    return [[list(e), emit_number(c, rational)]
            for e, c in sorted(xs.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))]


def _is_term_list(raw) -> bool:
    return (isinstance(raw, list) and raw
            and all(isinstance(it, (list, tuple)) and len(it) == 2
                    and isinstance(it[0], (list, tuple)) for it in raw))


def parse_coeff(raw, ctx: SeriesContext, rational: bool, what: str) -> tuple:
    """Monomial coefficient: number | term list | list-over-t of the same."""
    if raw is None:
        raise SchemaError(f"{what}: missing coefficient")
    if isinstance(raw, (int, float, str)):
        return tpoly_normalize(parse_number(raw, rational), ctx)
    if _is_term_list(raw):
        return (parse_terms(raw, ctx, rational, what),)
    if isinstance(raw, list):
        layers = []
        for d, layer in enumerate(raw):
            if layer is None or layer == 0 or layer == []:
                layers.append(ctx.zero())
            elif isinstance(layer, (int, float, str)):
                layers.append(ctx.constant(parse_number(layer, rational)))
            elif _is_term_list(layer) or layer == []:
                layers.append(parse_terms(layer, ctx, rational, f"{what}[t^{d}]"))
            else:
                raise SchemaError(f"{what}[t^{d}]: bad coefficient layer {layer!r}")
        return tpoly_normalize(layers, ctx)
    raise SchemaError(f"{what}: bad coefficient {raw!r}")


# ----------------------------------------------------------------------
# problems
# ----------------------------------------------------------------------


@dataclass
class ProblemSpec:
    """Validated problem file contents, with series-level objects built."""

    n: int
    mode: str
    m: int
    a: object
    base_point: tuple
    D: int
    K: int
    rational: bool
    ctx: SeriesContext
    f: Nonlinearity | None
    psi: XSeries | None
    solve_directive: dict | None
    v0: XSeries | None
    verify_options: dict = field(default_factory=dict)

    @property
    def arithmetic(self) -> str:
        return "rational" if self.rational else "float"


def _require(data: dict, key: str, what: str = "problem"):
    if key not in data:
        raise SchemaError(f"{what}: missing required field {key!r}")
    return data[key]


def _require_int(data: dict, key: str, low: int, what: str) -> int:
    value = _require(data, key, what)
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise SchemaError(f"{what}: {key} must be an integer >= {low}, got {value!r}")
    return value


def parse_problem(data: dict, order_override: int | None = None,
                  arithmetic_override: str | None = None) -> ProblemSpec:
    if not isinstance(data, dict):
        raise SchemaError("problem file must contain a JSON object")

    mode = _require(data, "mode")
    if mode not in MODES:
        raise SchemaError(f"mode must be one of {MODES}, got {mode!r}")
    # the elliptic series live over the n - 1 tangential variables
    n = _require_int(data, "n", 2 if mode == REGIME_ELLIPTIC else 1, "problem")

    arithmetic = arithmetic_override or data.get("arithmetic", "float")
    if arithmetic not in ("float", "rational"):
        raise SchemaError(f"arithmetic must be 'float' or 'rational', got {arithmetic!r}")
    rational = arithmetic == "rational"

    trunc = data.get("truncation", {})
    if not isinstance(trunc, dict):
        raise SchemaError("truncation must be an object with D and K")
    D = trunc.get("D", 4)
    K = order_override if order_override is not None else trunc.get("K", 8)
    if not isinstance(D, int) or D < 0 or not isinstance(K, int) or K < 0:
        raise SchemaError(f"truncation degrees must be non-negative integers, got D={D}, K={K}")

    m = _require_int(data, "m", 2, "fractional problem") if mode == REGIME_FRACTIONAL else 1

    a = parse_number(_require(data, "a"), rational)
    if a == 0:
        raise SchemaError("the blowup coefficient a must be nonzero")

    base_raw = data.get("base_point", [0] * n)
    if not isinstance(base_raw, list) or len(base_raw) != n:
        raise SchemaError(f"base_point must list {n} coordinates")
    base_point = tuple(parse_number(b, rational) for b in base_raw)

    series_n = n - 1 if mode == REGIME_ELLIPTIC else n
    series_base = base_point[1:] if mode == REGIME_ELLIPTIC else base_point
    ctx = SeriesContext(series_n, series_base, D)

    f = None
    if mode != REGIME_ELLIPTIC:
        raw_f = _require(data, "f")
        if not isinstance(raw_f, list) or not raw_f:
            raise SchemaError("f must be a non-empty list of monomials")
        monos = []
        for idx, entry in enumerate(raw_f):
            if not isinstance(entry, dict):
                raise SchemaError(f"f[{idx}] must be an object")
            coeff = parse_coeff(entry.get("coeff"), ctx, rational, f"f[{idx}].coeff")
            tau_power = entry.get("tau_power", 0)
            xi_raw = entry.get("xi_powers", [0] * series_n)
            if not isinstance(tau_power, int) or tau_power < 0:
                raise SchemaError(f"f[{idx}].tau_power must be a non-negative integer")
            if (not isinstance(xi_raw, list) or len(xi_raw) != series_n
                    or any(not isinstance(p, int) or p < 0 for p in xi_raw)):
                raise SchemaError(f"f[{idx}].xi_powers must list {series_n} non-negative integers")
            monos.append(NMonomial(coeff, tau_power, tuple(xi_raw)))
        try:
            f = Nonlinearity.decompose_homogeneous(monos, m, ctx)
        except Exception as exc:
            raise SchemaError(f"f: {exc}") from None

    psi = None
    solve_directive = None
    raw_psi = data.get("psi")
    if raw_psi is None:
        psi = ctx.zero()
    elif isinstance(raw_psi, dict) and "solve" in raw_psi:
        if mode == REGIME_ELLIPTIC:
            raise SchemaError("the elliptic mode takes phi directly; nothing to solve")
        directive = raw_psi["solve"]
        if not isinstance(directive, dict):
            raise SchemaError("psi.solve must be an object")
        solve_directive = {
            "init": parse_terms(directive.get("init"), ctx, rational, "psi.solve.init"),
            "branch": directive.get("branch", "+"),
        }
    elif isinstance(raw_psi, dict) and "coeffs" in raw_psi:
        psi = parse_terms(raw_psi["coeffs"], ctx, rational, "psi.coeffs")
    else:
        psi = parse_terms(raw_psi, ctx, rational, "psi")

    v0 = None
    if mode != REGIME_FRACTIONAL:
        v0 = parse_terms(data.get("v0"), ctx, rational, "v0")
    elif data.get("v0") not in (None, [], 0):
        raise SchemaError("the fractional mode has no free trace v0")

    verify_options = data.get("verify", {})
    if not isinstance(verify_options, dict):
        raise SchemaError("verify must be an object")
    for key in verify_options:
        if key not in VERIFY_OPTIONS:
            raise SchemaError(f"verify.{key} is not an option; use {', '.join(VERIFY_OPTIONS)}")
    for key, types in (("radius", (int, float)), ("points", int), ("tol_symbolic", (int, float)),
                       ("tol_numeric", (int, float, type(None))), ("t_values", list),
                       ("t_exponents", list), ("x_offsets", list)):
        value = verify_options.get(key, [] if types is list else 0)
        if isinstance(value, bool) or not isinstance(value, types):
            kind = {int: "an integer", list: "a list"}.get(types, "a number")
            raise SchemaError(f"verify.{key} must be {kind}, got {value!r}")
    for e in verify_options.get("t_exponents", []):
        if isinstance(e, bool) or not isinstance(e, (int, float)):
            raise SchemaError(f"verify.t_exponents must list numbers, got {e!r}")
    for row in verify_options.get("x_offsets", []):
        if not isinstance(row, list) or len(row) != series_n:
            raise SchemaError(f"verify.x_offsets rows must list {series_n} numbers, got {row!r}")
        for value in row:
            parse_number(value, rational)
    for value in verify_options.get("t_values", []):
        parse_number(value, rational)

    return ProblemSpec(
        n=n, mode=mode, m=m, a=a, base_point=base_point, D=D, K=K,
        rational=rational, ctx=ctx, f=f, psi=psi, solve_directive=solve_directive,
        v0=v0, verify_options=verify_options,
    )


def load_problem(path, order_override=None, arithmetic_override=None) -> ProblemSpec:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise SchemaError(f"cannot read problem file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"problem file is not valid JSON: {exc}") from None
    return parse_problem(data, order_override, arithmetic_override)


# ----------------------------------------------------------------------
# solutions
# ----------------------------------------------------------------------


def solution_to_dict(sol: SingularSolution, problem: ProblemSpec) -> dict:
    rational = problem.rational
    return {
        "format": SOLUTION_FORMAT,
        "regime": sol.regime,
        "arithmetic": problem.arithmetic,
        "n": problem.n,
        "m": sol.m,
        "a": emit_number(sol.a, rational),
        "base_point": [emit_number(b, rational) for b in problem.base_point],
        "truncation": {"D": problem.D, "K": sol.v.max_order},
        "surface": emit_terms(sol.surface, rational),
        "v0": emit_terms(sol.v0, rational) if sol.v0 is not None else None,
        "v": [[k, list(e), emit_number(c, rational)]
              for k in range(sol.v.max_order + 1)
              for e, c in sorted(sol.v.coeff(k).coeffs.items())],
    }


def solution_from_dict(data: dict) -> tuple:
    """Rebuild (solution, rational_flag).  The nonlinearity is not stored;
    attach it from the problem file when verifying.  Raises only
    SchemaError on a malformed document."""
    if not isinstance(data, dict) or data.get("format") != SOLUTION_FORMAT:
        raise SchemaError(f"not a {SOLUTION_FORMAT} document")
    regime = data.get("regime")
    if regime not in MODES:
        raise SchemaError(f"bad regime {regime!r}")
    rational = data.get("arithmetic") == "rational"
    n = _require_int(data, "n", 2 if regime == REGIME_ELLIPTIC else 1, "solution")
    m = _require_int(data, "m", 2 if regime == REGIME_FRACTIONAL else 1, "solution")
    base_raw = _require(data, "base_point", "solution")
    if not isinstance(base_raw, list) or len(base_raw) != n:
        raise SchemaError(f"solution: base_point must list {n} coordinates")
    base_point = tuple(parse_number(b, rational) for b in base_raw)
    trunc = _require(data, "truncation", "solution")
    if not isinstance(trunc, dict):
        raise SchemaError("solution: truncation must be an object with D and K")
    D = _require_int(trunc, "D", 0, "solution truncation")
    K = _require_int(trunc, "K", 0, "solution truncation")
    series_n = n - 1 if regime == REGIME_ELLIPTIC else n
    series_base = base_point[1:] if regime == REGIME_ELLIPTIC else base_point
    ctx = SeriesContext(series_n, series_base, D)
    surface = parse_terms(data.get("surface"), ctx, rational, "surface")
    v0 = None
    if data.get("v0") is not None:
        v0 = parse_terms(data["v0"], ctx, rational, "v0")
    entries = data.get("v", [])
    if not isinstance(entries, list):
        raise SchemaError("solution: v must be a list of [order, exponent, value] entries")
    orders: dict = {}
    for item in entries:
        if not (isinstance(item, list) and len(item) == 3 and isinstance(item[0], int)
                and not isinstance(item[0], bool) and 0 <= item[0] <= K):
            raise SchemaError(f"bad v entry {item!r}")
        orders.setdefault(item[0], []).append(item[1:])
    coeffs = [parse_terms(orders.get(k, []), ctx, rational, f"v[{k}]") for k in range(K + 1)]
    kind = "s" if regime == REGIME_FRACTIONAL else "T"
    v = SigmaSeries(kind, m if regime == REGIME_FRACTIONAL else 1, K, ctx, coeffs)
    sol = SingularSolution(regime=regime, a=parse_number(_require(data, "a", "solution"), rational),
                           m=m, surface=surface, v=v, v0=v0)
    return sol, rational


def load_solution(path):
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise SchemaError(f"cannot read solution file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"solution file is not valid JSON: {exc}") from None
    return solution_from_dict(data)
