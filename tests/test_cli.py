"""The command-line pipeline: subcommands, exit codes, artifacts,
round-trips and deterministic output."""

import json
import math
from fractions import Fraction as F

import pytest

from singwave.cli import main
from singwave.problem import load_solution

LOG_ODE = {
    "n": 1,
    "mode": "log",
    "a": 1,
    "base_point": [0],
    "truncation": {"D": 3, "K": 8},
    "arithmetic": "float",
    "f": [{"coeff": 1, "tau_power": 2, "xi_powers": [0]}],
    "psi": {"coeffs": []},
    "v0": [],
}

FRACTIONAL_M2 = {
    "n": 1,
    "mode": "fractional",
    "m": 2,
    "a": math.sqrt(2.0),
    "base_point": [0],
    "truncation": {"D": 3, "K": 8},
    "arithmetic": "float",
    "f": [{"coeff": -1, "tau_power": 3, "xi_powers": [0]}],
}

PLANE_WAVE = {
    "n": 2,
    "mode": "log",
    "a": 2,
    "base_point": [0, 0],
    "truncation": {"D": 4, "K": 6},
    "arithmetic": "rational",
    "f": [
        {"coeff": "1/2", "tau_power": 2, "xi_powers": [0, 0]},
        {"coeff": "-1/2", "xi_powers": [2, 0]},
        {"coeff": "-1/2", "xi_powers": [0, 2]},
    ],
    "psi": {"coeffs": [[[1, 0], "1/2"]]},
    "v0": [[[0, 0], 7]],
    "verify": {"t_values": ["1/10", "1/4", "2/5"], "x_offsets": [["1/10", "-1/20"]],
               "tol_numeric": 1e-12},
}


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def _run(args):
    return main([str(a) for a in args])


def test_all_log_prototype(tmp_path, capsys):
    problem = _write(tmp_path, "p.json", LOG_ODE)
    out = tmp_path / "out"
    assert _run(["all", "--problem", problem, "--out", out]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "ok"
    assert payload["summary"]["max_residual"] < 1e-12
    assert (out / "solution.json").exists()
    assert (out / "residual.csv").exists()
    assert (out / "fit_summary.json").exists()


def test_all_fails_condition_with_machine_readable_reason(tmp_path, capsys):
    doc = dict(LOG_ODE, a=2)
    problem = _write(tmp_path, "p.json", doc)
    assert _run(["all", "--problem", problem, "--out", tmp_path / "o"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "error"
    assert payload["kind"] == "condition"
    assert "condition residual" in payload["reason"]
    assert payload["checks"]["pseudo_eikonal_residual"] == 1.0


def test_schema_error_exit_code(tmp_path, capsys):
    doc = dict(LOG_ODE)
    doc.pop("f")
    problem = _write(tmp_path, "p.json", doc)
    assert _run(["all", "--problem", problem, "--out", tmp_path / "o"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "schema"


def test_cross_term_rejected_exit_3(tmp_path, capsys):
    doc = {
        "n": 1, "mode": "negative_side", "a": 1, "base_point": [0],
        "truncation": {"D": 3, "K": 6}, "arithmetic": "float",
        "f": [{"coeff": 1, "tau_power": 2, "xi_powers": [0]},
              {"coeff": 1, "tau_power": 1, "xi_powers": [1]}],
        "psi": {"coeffs": []}, "v0": [],
    }
    problem = _write(tmp_path, "p.json", doc)
    assert _run(["all", "--problem", problem, "--out", tmp_path / "o"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["checks"]["time_reversal_symmetric"] is False


def test_fractional_pipeline_blowup_rate(tmp_path, capsys):
    problem = _write(tmp_path, "p.json", FRACTIONAL_M2)
    assert _run(["all", "--problem", problem, "--out", tmp_path / "o"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["summary"]["fitted_blowup_exponent"] - 0.5) < 0.05


def test_check_subcommand(tmp_path, capsys):
    problem = _write(tmp_path, "p.json", FRACTIONAL_M2)
    assert _run(["check", "--problem", problem]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["checks"]["top_condition_residual"] < 1e-12
    assert payload["checks"]["degree_m_residual"] == 0.0


def test_eikonal_subcommand_writes_psi(tmp_path, capsys):
    doc = {
        "n": 2, "mode": "log", "a": 0.5, "base_point": [0, 0],
        "truncation": {"D": 4, "K": 6}, "arithmetic": "float",
        "f": [{"coeff": 1, "tau_power": 2, "xi_powers": [0, 0]}],
        "psi": {"solve": {"init": [[[0, 1], 0.25]], "branch": "+"}},
        "v0": [],
    }
    problem = _write(tmp_path, "p.json", doc)
    out = tmp_path / "out"
    assert _run(["eikonal", "--problem", problem, "--out", out]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["condition_residual"] < 1e-12
    stored = json.loads((out / "psi.json").read_text())
    terms = {tuple(e): float(v) for e, v in stored["psi"]}
    assert terms[(1, 0)] == pytest.approx(math.sqrt(0.4375))
    assert terms[(0, 1)] == pytest.approx(0.25)


def test_solve_then_verify_roundtrip(tmp_path, capsys):
    problem = _write(tmp_path, "p.json", PLANE_WAVE)
    out = tmp_path / "out"
    assert _run(["solve", "--problem", problem, "--out", out]) == 0
    capsys.readouterr()
    assert _run(["verify", "--problem", problem, "--out", out]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "ok"
    assert payload["summary"]["max_residual"] == 0.0  # exact in rational mode

    # the report computed from the emitted JSON matches the in-memory one
    from singwave.problem import load_problem
    from singwave.verify import numeric_residual, rational_grid

    spec = load_problem(problem)
    sol, _ = load_solution(out / "solution.json")
    sol.f = spec.f
    grid = rational_grid(spec.ctx, [F(1, 10), F(1, 4), F(2, 5)],
                         [(F(1, 10), F(-1, 20))])
    in_memory = numeric_residual(sol, spec.f, grid)
    stored = json.loads((out / "fit_summary.json").read_text())
    assert stored["max_residual"] == in_memory.max_numeric() == 0.0
    assert all(s[2] == 0 for s in in_memory.samples)


def test_solution_roundtrip_bit_exact_rational(tmp_path, capsys):
    problem = _write(tmp_path, "p.json", PLANE_WAVE)
    out = tmp_path / "out"
    assert _run(["solve", "--problem", problem, "--out", out]) == 0
    capsys.readouterr()
    sol, rational = load_solution(out / "solution.json")
    assert rational
    assert sol.v.coeff(0).constant_term() == F(7)
    # re-serialize: byte-identical JSON (deterministic artifacts)
    first = (out / "solution.json").read_text()
    assert _run(["solve", "--problem", problem, "--out", out]) == 0
    capsys.readouterr()
    assert (out / "solution.json").read_text() == first


def test_negative_side_pipeline(tmp_path, capsys):
    doc = {
        "n": 1, "mode": "negative_side", "a": 1, "base_point": [0],
        "truncation": {"D": 3, "K": 6}, "arithmetic": "rational",
        "f": [{"coeff": 1, "tau_power": 2, "xi_powers": [0]},
              {"coeff": -1, "xi_powers": [2]}],
        "psi": {"coeffs": [[[1], "3/10"]]},
        "v0": [],
        "verify": {"t_values": ["1/10", "1/4"], "tol_numeric": 1e-10},
    }
    problem = _write(tmp_path, "p.json", doc)
    assert _run(["all", "--problem", problem, "--out", tmp_path / "o"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["max_residual"] <= 1e-10


def test_elliptic_pipeline(tmp_path, capsys):
    doc = {
        "n": 3, "mode": "elliptic", "a": 1.7, "base_point": [0, 0, 0],
        "truncation": {"D": 3, "K": 6}, "arithmetic": "float",
        "psi": {"coeffs": []}, "v0": [],
    }
    problem = _write(tmp_path, "p.json", doc)
    assert _run(["all", "--problem", problem, "--out", tmp_path / "o"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "ok"


def test_order_override_flag(tmp_path, capsys):
    problem = _write(tmp_path, "p.json", LOG_ODE)
    out = tmp_path / "out"
    assert _run(["solve", "--problem", problem, "--out", out, "--order", "4"]) == 0
    capsys.readouterr()
    sol, _ = load_solution(out / "solution.json")
    assert sol.v.max_order == 4


def test_out_dir_env_fallback(tmp_path, capsys, monkeypatch):
    problem = _write(tmp_path, "p.json", LOG_ODE)
    env_out = tmp_path / "env_out"
    monkeypatch.setenv("SWF_OUT_DIR", str(env_out))
    assert _run(["solve", "--problem", problem]) == 0
    capsys.readouterr()
    assert (env_out / "solution.json").exists()


def test_non_numeric_verify_radius_is_a_schema_error(tmp_path, capsys):
    problem = _write(tmp_path, "p.json", dict(LOG_ODE, verify={"radius": "big"}))
    assert _run(["all", "--problem", problem, "--out", tmp_path / "o"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "schema"
    assert "verify.radius" in payload["reason"]


@pytest.mark.parametrize("power", ["x", 1.5, True])
def test_non_integer_exponent_is_a_schema_error(tmp_path, capsys, power):
    problem = _write(tmp_path, "p.json", dict(LOG_ODE, psi={"coeffs": [[[power], 1]]}))
    assert _run(["all", "--problem", problem, "--out", tmp_path / "o"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "schema"
    assert "integer powers" in payload["reason"]


@pytest.mark.parametrize("field, value", [
    ("n", None), ("m", None), ("base_point", None), ("a", None), ("truncation", None),
    ("truncation", {"D": 3}), ("n", "1"), ("base_point", [0, 0]),
    ("v", [["2", [0], "0.5"]]), ("v", [[2, ["x"], "0.5"]]), ("v", [[2, [0], [1]]]),
    ("v", [[99, [0], "0.5"]]), ("v", 7),
])
def test_malformed_solution_file_is_a_schema_error(tmp_path, capsys, field, value):
    problem = _write(tmp_path, "p.json", LOG_ODE)
    out = tmp_path / "out"
    assert _run(["solve", "--problem", problem, "--out", out]) == 0
    capsys.readouterr()
    doc = json.loads((out / "solution.json").read_text())
    if value is None:
        del doc[field]
    else:
        doc[field] = value
    solution = _write(tmp_path, "s.json", doc)
    assert _run(["verify", "--problem", problem, "--out", out, "--solution", solution]) == 2
    payload = json.loads(capsys.readouterr().out)  # exactly one JSON object
    assert payload["kind"] == "schema"


@pytest.mark.parametrize("verify, named", [
    ({"t_exponents": ["x"]}, "verify.t_exponents"),
    ({"t_values": ["1/10"], "x_offsets": [["1/10", "0", "0"]]}, "verify.x_offsets"),
    ({"through_order": 4}, "verify.through_order"),
])
def test_bad_verify_option_is_a_schema_error(tmp_path, capsys, verify, named):
    problem = _write(tmp_path, "p.json", dict(LOG_ODE, verify=verify))
    assert _run(["all", "--problem", problem, "--out", tmp_path / "o"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "schema"
    assert named in payload["reason"]
