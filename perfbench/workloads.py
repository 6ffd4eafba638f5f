"""The benchmark's workloads: seeded input streams and output checks.

deep_order   exact rational arithmetic, n=1, D=4, K=20.  Random
             admissible log problems and forced fractional problems
             (m=2, m=3); the first log problem is repeated at K=10 as a
             twin, which gives the growth exponent of the solve in K.
             The order-by-order recursion dominates.
wide_exact   exact rational arithmetic, n=3, D=4 (35 coefficients per
             order), K=5, random admissible log problems.  Large XSeries
             products and the numeric verification dominate.
shipped_cli  every file in problems/, one fresh ``singwave all`` process
             each, in an order permuted by the seed.  Interpreter start
             and imports dominate; only here runs the surface solver.
wide_float   the problems of wide_exact in float arithmetic.  Not in
             BENCHMARK.json: 24-58% of its calls exit 4 (a float symbolic
             residual above the absolute tolerance 1e-8, ROADMAP item 4),
             and a benchmark workload must have no failing calls.  It is
             kept to reproduce and count that defect.

Every problem of a run is distinct except in shipped_cli, whose five
files repeat; no two calls of the other workloads share an input.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from pathlib import Path

import problems
from reference import ReferenceSolver, parse_number, solution_text

WORKLOADS = ("deep_order", "wide_exact", "shipped_cli", "wide_float")
IN_PROCESS = ("deep_order", "wide_exact", "wide_float")
#: random stream of each generated workload: the two wide workloads draw
#: the same problems and differ only in arithmetic
STREAM = {"deep_order": "deep_order", "wide_exact": "wide_float", "wide_float": "wide_float"}

#: deep_order problems after the first log problem and its twin
DEEP_PATTERN = ("log", "frac2", "log", "frac3")

#: float mode: |v - v_ref| <= FLOAT_RTOL * max(1, largest |v_ref| of the same order)
FLOAT_RTOL = 1e-9
#: float mode: max |Psi - a f_2(psi; -1, grad psi)| below degree D for a constructed surface
SURFACE_TOL = 1e-9

#: the only failure the seed tolerates: float symbolic residuals above the
#: absolute default tolerance 1e-8 (ROADMAP item 4) while v is correct
KNOWN_DEFECT = re.compile(r"symbolic residual \S+ exceeds 1e-08")


def _rngs(workload: str, seed: int, index: int) -> tuple[random.Random, random.Random]:
    """Random streams for problem ``index``: which terms are present depends
    on the position only, their values on the seed too.  Every seed then
    draws the same mix of problem shapes, so runs with different seeds do
    comparable work, while each problem still follows the generator's
    distribution."""
    stream = STREAM[workload]
    return (random.Random(f"{stream}:shape:{index}"),
            random.Random(f"{stream}:{seed}:{index}"))


def generated_problem(workload: str, seed: int, index: int) -> tuple[str, dict]:
    """Problem ``index`` of an in-process workload's stream."""
    if workload in ("wide_exact", "wide_float"):
        exact = workload == "wide_exact"
        doc = problems.admissible_log_problem(*_rngs(workload, seed, index), 3, 4, 5,
                                              "rational" if exact else "float")
        return f"{'we' if exact else 'wf'}-{index:03d}-log", doc
    if index == 1:
        pid, doc = generated_problem(workload, seed, 0)
        return "do-001-log-K10", dict(doc, truncation={"D": 4, "K": 10})
    kind = "log" if index == 0 else DEEP_PATTERN[(index - 2) % len(DEEP_PATTERN)]
    rngs = _rngs(workload, seed, index)
    if kind == "log":
        doc = problems.admissible_log_problem(*rngs, 1, 4, 20, "rational")
    else:
        doc = problems.forced_fractional_problem(*rngs, int(kind[-1]), 1, 4, 20, "rational")
    return f"do-{index:03d}-{kind}", doc


def shipped_order(root: Path, seed: int) -> list[Path]:
    files = sorted((root / "problems").glob("*.json"))
    if not files:
        raise FileNotFoundError(f"no problem files under {root / 'problems'}")
    random.Random(f"shipped_cli:{seed}").shuffle(files)
    return files


def first_input(workload: str, seed: int, out_dir: Path) -> None:
    """Make the first input of a run (the set-up the benchmark times)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload == "shipped_cli":
        first = shipped_order(Path.cwd(), seed)[0]
        json.loads(first.read_text())
        return
    pid, doc = generated_problem(workload, seed, 0)
    (out_dir / f"{pid}.json").write_text(json.dumps(doc))


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------

OK, DEFECT, WRONG = "ok", "known_defect", "wrong"


class Checker:
    """Checks one ``singwave all`` call against the reference solver.
    References are computed once per distinct problem."""

    def __init__(self):
        self._reference: dict = {}

    def reference(self, pid: str, doc: dict, solution: dict):
        if pid not in self._reference:
            surface = None
            if isinstance(doc.get("psi"), dict) and "solve" in doc["psi"]:
                # the program constructs this surface; solve on the one it
                # wrote and check that it satisfies the surface equation
                surface = [(e, parse_number(c, doc.get("arithmetic") == "rational"))
                           for e, c in solution["surface"]]
            solver = ReferenceSolver(doc, psi_override=surface)
            document = solver.solution_document(
                doc, surface_terms=solution["surface"] if surface is not None else None)
            residual = solver.pseudo_eikonal_residual() if surface is not None else 0.0
            self._reference[pid] = (document, residual)
        return self._reference[pid]

    def check(self, pid: str, doc: dict, rc, stdout: str, out_dir: Path) -> tuple[str, str]:
        """(verdict, reason) for one call: OK, DEFECT (counted as failed,
        output correct) or WRONG."""
        try:
            status = json.loads(stdout)
        except json.JSONDecodeError:
            return WRONG, f"stdout is not one JSON object (exit {rc})"
        if rc not in (0, 4):
            return WRONG, f"exit {rc}: {status.get('reason') or status.get('error')}"
        if (rc == 0) != (status.get("status") == "ok"):
            return WRONG, f"exit {rc} with status {status.get('status')!r}"
        try:
            text = (out_dir / "solution.json").read_text()
            summary = json.loads((out_dir / "fit_summary.json").read_text())
        except OSError as exc:
            return WRONG, f"missing artifact: {exc}"
        solution = json.loads(text)
        expected, surface_residual = self.reference(pid, doc, solution)
        if surface_residual > SURFACE_TOL:
            return WRONG, f"constructed surface residual {surface_residual:.3e} > {SURFACE_TOL}"
        if doc.get("arithmetic") == "rational":
            if text != solution_text(expected):
                return WRONG, "solution.json differs from the exact reference"
            nonzero = [k for k, value in summary["symbolic_orders"] if value != 0]
            if nonzero:
                return WRONG, f"symbolic residual slices {nonzero} are not exactly zero"
            if rc != 0:
                return WRONG, f"exit {rc} in exact arithmetic: {status.get('failures')}"
            return OK, ""
        mismatch = compare_float(solution, expected)
        if mismatch:
            return WRONG, mismatch
        if rc == 4:
            failures = status.get("failures") or []
            if failures and all(KNOWN_DEFECT.fullmatch(f) for f in failures):
                return DEFECT, failures[0]
            return WRONG, f"exit 4: {failures}"
        return OK, ""


def compare_float(solution: dict, expected: dict) -> str:
    """'' when the float solution matches the reference, else a reason."""
    for key in ("format", "regime", "arithmetic", "n", "m", "truncation"):
        if solution.get(key) != expected[key]:
            return f"field {key!r} is {solution.get(key)!r}, expected {expected[key]!r}"
    got = {(k, tuple(e)): float(c) for k, e, c in solution["v"]}
    want = {(k, tuple(e)): float(c) for k, e, c in expected["v"]}
    scale: dict = {}
    for (k, _), c in want.items():
        scale[k] = max(scale.get(k, 1.0), abs(c))
    for key in sorted(set(got) | set(want)):
        diff = abs(got.get(key, 0.0) - want.get(key, 0.0))
        if not diff <= FLOAT_RTOL * scale.get(key[0], 1.0):
            return (f"v coefficient {key} is {got.get(key, 0.0)!r}, reference "
                    f"{want.get(key, 0.0)!r}")
    return ""


def max_denominator_bits(solution_path: Path) -> int:
    """Largest denominator bit length among the v coefficients of an
    exact solution file (0 for float files)."""
    solution = json.loads(solution_path.read_text())
    if solution.get("arithmetic") != "rational":
        return 0
    return max((Fraction(int(c[0]), int(c[1])).denominator.bit_length()
                for _, _, c in solution["v"]), default=0)
