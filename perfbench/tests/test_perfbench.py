"""Self-test of the benchmark: tiny runs of every workload, the output
check, the generators and the reference solver.

    python3 -m pytest perfbench/tests

Run from the root of the repository.
"""

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import problems  # noqa: E402
import workloads  # noqa: E402
from reference import ReferenceSolver  # noqa: E402
from singwave import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    done = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: value["unit"] for name, value in result["metrics"].items()}
    for name, value in result["metrics"].items():
        assert isinstance(value["value"], (int, float)), name
    if trace and workload == "deep_order":
        assert result["metrics"]["fuchsian.xmul_k_exponent"]["value"] > 1.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "deep_order", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def solve_with_cli(tmp_path, doc):
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["all", "--problem", str(path), "--out", str(out)])
    return rc, buf.getvalue(), out


def small_problem(arithmetic, kind="log"):
    shape, value = random.Random("shape"), random.Random("value")
    if kind == "log":
        return problems.admissible_log_problem(shape, value, 2, 3, 5, arithmetic)
    return problems.forced_fractional_problem(shape, value, 2, 1, 3, 6, arithmetic)


@pytest.mark.parametrize("kind", ["log", "frac"])
def test_check_rejects_one_corrupted_rational_coefficient(tmp_path, kind):
    doc = small_problem("rational", kind)
    rc, stdout, out = solve_with_cli(tmp_path, doc)
    checker = workloads.Checker()
    assert checker.check("p", doc, rc, stdout, out) == (workloads.OK, "")

    solution = json.loads((out / "solution.json").read_text())
    k, exponent, (num, den) = solution["v"][len(solution["v"]) // 2]
    solution["v"][len(solution["v"]) // 2] = [k, exponent, [num + 1, den]]
    (out / "solution.json").write_text(json.dumps(solution, indent=2))
    verdict, reason = checker.check("p", doc, rc, stdout, out)
    assert verdict == workloads.WRONG and "exact reference" in reason


def test_check_rejects_a_perturbed_float_coefficient(tmp_path):
    doc = small_problem("float")
    rc, stdout, out = solve_with_cli(tmp_path, doc)
    checker = workloads.Checker()
    assert checker.check("p", doc, rc, stdout, out)[0] in (workloads.OK, workloads.DEFECT)

    solution = json.loads((out / "solution.json").read_text())
    k, exponent, value = solution["v"][-1]
    solution["v"][-1] = [k, exponent, repr(float(value) * (1 + 1e-6) + 1e-6)]
    (out / "solution.json").write_text(json.dumps(solution, indent=2))
    assert checker.check("p", doc, rc, stdout, out)[0] == workloads.WRONG


def test_generators_are_seeded_and_arithmetic_independent():
    for workload in workloads.IN_PROCESS:
        for index in range(4):
            assert (workloads.generated_problem(workload, 5, index)
                    == workloads.generated_problem(workload, 5, index))
    for kind in ("log", "frac"):
        exact, floating = small_problem("rational", kind), small_problem("float", kind)
        assert exact.pop("arithmetic") == "rational" and floating.pop("arithmetic") == "float"
        assert exact == floating


def test_wide_workloads_differ_only_in_arithmetic():
    for index in range(3):
        _, exact = workloads.generated_problem("wide_exact", 5, index)
        _, floating = workloads.generated_problem("wide_float", 5, index)
        assert exact.pop("arithmetic") == "rational" and floating.pop("arithmetic") == "float"
        assert exact == floating


@pytest.mark.xfail(strict=True, reason="float symbolic residuals are held to the absolute "
                   "tolerance 1e-8 whatever the size of the coefficients (ROADMAP item 4)")
def test_wide_float_problems_pass_verification(tmp_path):
    """The first wide_float problems at seed 1 should all verify; wf-000,
    wf-007 and wf-011 exit 4 (perfbench/baseline.json).  Once the defect
    is fixed this test passes, and strict xfail reports that."""
    checker = workloads.Checker()
    exit_4 = []
    for index in range(12):
        pid, doc = workloads.generated_problem("wide_float", 1, index)
        rc, stdout, out = solve_with_cli(tmp_path / pid, doc)
        verdict, reason = checker.check(pid, doc, rc, stdout, out)
        assert verdict != workloads.WRONG, reason
        if verdict == workloads.DEFECT:
            exit_4.append(pid)
    assert exit_4 == []


def test_reference_reproduces_the_forced_ode():
    doc = json.loads((ROOT / "problems" / "forced_ode.json").read_text())
    v = ReferenceSolver(doc).solve()
    assert [v[k][0] if v[k] else 0 for k in (2, 3, 4)] == [Fraction(1, 6), 0, Fraction(1, 180)]
