"""Command line: problem ingestion and the check -> reduce -> solve ->
verify pipeline.

Subcommands
    check    run the admissibility checks only
    eikonal  construct psi from (f_2, a) and write psi.json
    solve    build the reduced equation, run the recursion, write solution.json
    verify   residual-check a stored solution (residual.csv, fit_summary.json)
    all      the whole pipeline

Exit codes: 0 success, 2 schema error, 3 failed admissibility condition,
4 numerical verification failure.  One status JSON object is printed to
stdout per invocation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import (
    BranchSelectionError,
    CharacteristicSurfaceError,
    ConditionError,
    DomainError,
    InputError,
    NoRealRootError,
    ReductionError,
    SchemaError,
    SingwaveError,
    TimeReversalError,
)
from .fuchsian import RecursionSpec, assemble_solution, solve_recursion
from .geometry import (
    check_higher_conditions,
    check_pseudo_eikonal,
    check_time_reversal,
    make_hypersurface,
    residual_is_zero,
    solve_pseudo_eikonal,
    worst_coefficient,
)
from .problem import (
    ProblemSpec,
    emit_number,
    emit_terms,
    load_problem,
    load_solution,
    parse_number,
    solution_to_dict,
)
from .reduction import (
    REGIME_ELLIPTIC,
    REGIME_FRACTIONAL,
    REGIME_NEGATIVE,
    build_elliptic_reduction,
    build_fractional_reduction,
    build_log_reduction,
    build_negative_side,
)
from .verify import GridSpec, default_grid, fit_summary, numeric_residual, write_residual_csv

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_CONDITION = 3
EXIT_NUMERIC = 4

_CONDITION_ERRORS = (
    ConditionError,
    CharacteristicSurfaceError,
    TimeReversalError,
    ReductionError,
    NoRealRootError,
    BranchSelectionError,
)

DEFAULT_TOL_SYMBOLIC = 1e-8


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except SchemaError as exc:
        _emit({"status": "error", "kind": "schema", "reason": str(exc)})
        return EXIT_SCHEMA
    except _CONDITION_ERRORS as exc:
        _emit({"status": "error", "kind": "condition", "error": type(exc).__name__,
               "reason": str(exc)})
        return EXIT_CONDITION
    except (InputError, DomainError, SingwaveError) as exc:
        _emit({"status": "error", "kind": "numerical", "error": type(exc).__name__,
               "reason": str(exc)})
        return EXIT_NUMERIC


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singwave",
        description="construct and verify singular solutions of nonlinear wave equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_problem=True):
        if needs_problem:
            p.add_argument("--problem", required=True, help="problem JSON file")
        p.add_argument("--out", default=None,
                       help="artifact directory (default: $SWF_OUT_DIR or '.')")
        p.add_argument("--order", type=int, default=None, help="override truncation order K")
        p.add_argument("--arithmetic", choices=("float", "rational"), default=None,
                       help="override the arithmetic mode")
        p.add_argument("--branch", default=None,
                       help="branch for the surface construction: +, - or a slope")
        p.add_argument("--grid", default=None,
                       help="verification grid: 'default' or comma-separated T values")

    p = sub.add_parser("check", help="run admissibility checks")
    common(p)
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("eikonal", help="construct psi from (f_2, a)")
    common(p)
    p.set_defaults(handler=cmd_eikonal)

    p = sub.add_parser("solve", help="solve the recursion and write solution.json")
    common(p)
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser("verify", help="residual-check a stored solution")
    common(p)
    p.add_argument("--solution", default=None,
                   help="solution JSON (default: <out>/solution.json)")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("all", help="full pipeline")
    common(p)
    p.set_defaults(handler=cmd_all)

    return parser


def _emit(payload: dict):
    json.dump(payload, sys.stdout, indent=2, default=str)
    sys.stdout.write("\n")


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("SWF_OUT_DIR") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load(args) -> ProblemSpec:
    return load_problem(args.problem, order_override=args.order,
                        arithmetic_override=args.arithmetic)


# ----------------------------------------------------------------------
# pipeline pieces
# ----------------------------------------------------------------------


def _surface(problem: ProblemSpec, args, out_dir: Path | None):
    """The surface series, solving the first-order equation if the
    problem file says so; writes psi.json when solving."""
    if problem.solve_directive is None:
        return problem.psi
    branch = args.branch if getattr(args, "branch", None) is not None \
        else problem.solve_directive["branch"]
    if isinstance(branch, str) and branch not in ("+", "-"):
        branch = parse_number(branch, problem.rational)
    psi = solve_pseudo_eikonal(problem.f, problem.a, problem.solve_directive["init"], branch)
    if out_dir is not None:
        payload = {"psi": emit_terms(psi, problem.rational),
                   "n": problem.n, "D": problem.D,
                   "base_point": [emit_number(b, problem.rational)
                                  for b in problem.base_point]}
        (out_dir / "psi.json").write_text(json.dumps(payload, indent=2))
    return psi


def _condition_report(problem: ProblemSpec, surface) -> dict:
    if problem.mode == REGIME_ELLIPTIC:
        principal = 1 + sum(
            (surface.partial(i) * surface.partial(i) for i in range(surface.n)),
            surface.ctx.zero())
        return {"principal_at_base": float(principal.constant_term()), "ok": True}
    h = make_hypersurface(surface)
    if problem.mode == REGIME_FRACTIONAL:
        top, mid = check_higher_conditions(h, problem.f, problem.a, problem.m)
        ok = residual_is_zero(top, problem.a) and residual_is_zero(mid, problem.a)
        return {
            "top_condition_residual": float(top.max_abs()),
            "degree_m_residual": float(mid.max_abs()),
            "Psi_at_base": float(h.Psi.constant_term()),
            "ok": ok,
        }
    residual = check_pseudo_eikonal(h, problem.f, problem.a)
    report = {
        "pseudo_eikonal_residual": float(residual.max_abs()),
        "Psi_at_base": float(h.Psi.constant_term()),
        "ok": residual_is_zero(residual, problem.a),
    }
    if problem.mode == REGIME_NEGATIVE:
        symmetric = check_time_reversal(problem.f)
        report["time_reversal_symmetric"] = symmetric
        report["ok"] = report["ok"] and symmetric
        if not symmetric:
            report["reason"] = "f_2 contains tau*xi cross terms"
        elif not residual_is_zero(residual, problem.a):
            report["reason"] = "pseudo-eikonal residual nonzero"
    elif not report["ok"]:
        report["reason"] = f"condition residual = {worst_coefficient(residual)}"
    return report


def _build_equation(problem: ProblemSpec, surface):
    if problem.mode == REGIME_ELLIPTIC:
        return build_elliptic_reduction(surface, problem.a, K=problem.K)
    h = make_hypersurface(surface)
    if problem.mode == REGIME_FRACTIONAL:
        return build_fractional_reduction(problem.f, h, problem.a, problem.m, K=problem.K)
    if problem.mode == REGIME_NEGATIVE:
        return build_negative_side(problem.f, h, problem.a, K=problem.K)
    return build_log_reduction(problem.f, h, problem.a, K=problem.K)


def _solve(problem: ProblemSpec, surface):
    eq = _build_equation(problem, surface)
    v0 = None if problem.mode == REGIME_FRACTIONAL else problem.v0
    spec = RecursionSpec(eq, v0, K=problem.K)
    v = solve_recursion(spec)
    return assemble_solution(spec, v, f=problem.f)


def _grid(problem: ProblemSpec, sol, args) -> GridSpec:
    options, rational = problem.verify_options, problem.rational
    flag = getattr(args, "grid", None)
    ctx = sol.surface.ctx
    if flag and flag != "default":
        t_values = tuple(parse_number(v.strip(), rational) for v in flag.split(","))
        return GridSpec(t_values, (tuple(ctx.base_point),))
    if flag == "default" or not options:
        return default_grid(ctx)
    if "t_values" in options:
        t_values = tuple(parse_number(v, rational) for v in options["t_values"])
    elif "t_exponents" in options:
        t_values = tuple(10.0 ** float(e) for e in options["t_exponents"])
    else:
        return default_grid(ctx, radius=options.get("radius", 0.2),
                            n_points=options.get("points", 5))
    points = [tuple(ctx.base_point)]
    for off in options.get("x_offsets", []):
        points.append(tuple(b + parse_number(o, rational)
                            for b, o in zip(ctx.base_point, off)))
    return GridSpec(t_values, tuple(points))


def _verification(problem: ProblemSpec, sol, args, out_dir: Path):
    grid = _grid(problem, sol, args)
    report = numeric_residual(sol, problem.f, grid)
    write_residual_csv(report, out_dir / "residual.csv", sol.surface.n)
    summary = fit_summary(report)
    (out_dir / "fit_summary.json").write_text(json.dumps(summary, indent=2))

    options = problem.verify_options
    tol_symbolic = options.get("tol_symbolic", DEFAULT_TOL_SYMBOLIC)
    tol_numeric = options.get("tol_numeric")
    failures = []
    worst_symbolic = report.max_symbolic()
    if worst_symbolic > tol_symbolic:
        failures.append(f"symbolic residual {worst_symbolic} exceeds {tol_symbolic}")
    if tol_numeric is not None and report.max_numeric() > float(tol_numeric):
        failures.append(f"numeric residual {report.max_numeric()} exceeds {tol_numeric}")
    return report, summary, failures


# ----------------------------------------------------------------------
# subcommand handlers
# ----------------------------------------------------------------------


def cmd_check(args) -> int:
    problem = _load(args)
    surface = _surface(problem, args, None)
    report = _condition_report(problem, surface)
    _emit({"status": "ok" if report["ok"] else "error",
           "kind": None if report["ok"] else "condition", "checks": report})
    return EXIT_OK if report["ok"] else EXIT_CONDITION


def cmd_eikonal(args) -> int:
    problem = _load(args)
    if problem.solve_directive is None:
        raise SchemaError("the problem file has no psi.solve directive")
    out_dir = _out_dir(args)
    psi = _surface(problem, args, out_dir)
    h = make_hypersurface(psi)
    residual = check_pseudo_eikonal(h, problem.f, problem.a)
    _emit({"status": "ok", "psi": emit_terms(psi, problem.rational),
           "condition_residual": float(residual.max_abs()),
           "artifact": str(out_dir / "psi.json")})
    return EXIT_OK


def cmd_solve(args) -> int:
    problem = _load(args)
    out_dir = _out_dir(args)
    surface = _surface(problem, args, out_dir)
    sol = _solve(problem, surface)
    path = out_dir / "solution.json"
    path.write_text(json.dumps(solution_to_dict(sol, problem), indent=2))
    _emit({"status": "ok", "regime": sol.regime, "order": sol.v.max_order,
           "max_v_coefficient": sol.v.max_abs(), "artifact": str(path)})
    return EXIT_OK


def cmd_verify(args) -> int:
    problem = _load(args)
    out_dir = _out_dir(args)
    path = Path(args.solution) if args.solution else out_dir / "solution.json"
    sol, _rational = load_solution(path)
    sol.f = problem.f
    report, summary, failures = _verification(problem, sol, args, out_dir)
    payload = {"status": "ok" if not failures else "error", "summary": summary}
    if failures:
        payload["kind"] = "numerical"
        payload["failures"] = failures
    _emit(payload)
    return EXIT_OK if not failures else EXIT_NUMERIC


def cmd_all(args) -> int:
    problem = _load(args)
    out_dir = _out_dir(args)
    surface = _surface(problem, args, out_dir)
    report = _condition_report(problem, surface)
    if not report["ok"]:
        _emit({"status": "error", "kind": "condition", "checks": report,
               "reason": report.get("reason", "admissibility check failed")})
        return EXIT_CONDITION
    sol = _solve(problem, surface)
    sol_path = out_dir / "solution.json"
    sol_path.write_text(json.dumps(solution_to_dict(sol, problem), indent=2))
    residual_report, summary, failures = _verification(problem, sol, args, out_dir)
    payload = {
        "status": "ok" if not failures else "error",
        "checks": report,
        "summary": summary,
        "artifacts": {
            "solution": str(sol_path),
            "residual_csv": str(out_dir / "residual.csv"),
            "fit_summary": str(out_dir / "fit_summary.json"),
        },
    }
    if failures:
        payload["kind"] = "numerical"
        payload["failures"] = failures
    _emit(payload)
    return EXIT_OK if not failures else EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
