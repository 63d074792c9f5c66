import argparse
import csv
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import radialcap.criteria as criteria
import radialcap.dirichlet as dirichlet
from radialcap.cli import (
    _COMMANDS, _FLAG_TABLE, EXIT_INCONCLUSIVE, EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, build_parser,
    load_config, main,
)
from radialcap.constellation import Tangency
from radialcap.criteria import ClassifyConfig, classify
from radialcap.diffusion import DiffusionConfig
from radialcap.errors import ConfigError
from radialcap.model import sphere_volume
from radialcap.quadrature import TailConfig

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
EUCLID3 = str(CONFIG_DIR / "euclid3.json")
HYPERBOLIC2 = str(CONFIG_DIR / "hyperbolic2.json")


def write_config(tmp_path, name="c.json", **overrides):
    base = {"n": 3, "m": 3, "w": "r", "g": "1", "lambda": "0", "h": "0",
            "tangency": "lower"}
    base.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(base), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------

def test_load_config_ok():
    c = load_config(EUCLID3)
    assert c.m == 3 and c.tangency is Tangency.LOWER


def test_load_config_rejects_unknown_fields(tmp_path):
    path = tmp_path / "bad.json"
    payload = {"n": 3, "m": 3, "w": "r", "g": "1", "lambda": "0", "h": "0",
               "tangency": "lower", "lam": "0"}
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown fields: lam"):
        load_config(str(path))


def test_load_config_reports_missing_and_bad_fields(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 3, "m": 3, "w": "r"}), encoding="utf-8")
    with pytest.raises(ConfigError, match="missing fields"):
        load_config(str(path))
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(str(tmp_path / "absent.json"))
    good = {"n": 3, "m": 3, "w": "r", "g": "1", "lambda": "0", "h": "0", "tangency": "lower"}
    for text, match in [("{", "not valid JSON"), ("[]", "must be a JSON object"),
                        (json.dumps(good | {"n": 3.0}), "'n': expected an integer"),
                        (json.dumps(good | {"m": True}), "'m': expected an integer"),
                        (json.dumps(good | {"w": 1}), "'w': expected an expression string"),
                        (json.dumps(good | {"tangency": "side"}), "'tangency': expected"),
                        (json.dumps(good | {"m": 4}), r"n must be >= m \(4\), got 3$")]:
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match=match):
            load_config(str(path))


def test_load_config_reports_parse_position(tmp_path):
    cfg = write_config(tmp_path, w="sinh(q)")
    with pytest.raises(ConfigError, match="'w'"):
        load_config(cfg)


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_parabolic_exit_code(capsys):
    code = main(["classify", EUCLID3, "--p", "3"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "p-parabolic" in out
    # h = lam = coth cancel the balance at p = 2: it has both signs
    code = main(["classify", str(CONFIG_DIR / "coth_dominated.json"), "--p", "2"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "\nbalance: identically zero (counts as both signs) on r in [" in out


def test_classify_inconclusive_exit_code(capsys):
    code = main(["classify", EUCLID3, "--p", "2"])
    out = capsys.readouterr().out
    assert code == EXIT_INCONCLUSIVE
    assert "tail_convergent" in out


def test_classify_malformed_expression_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, w="sinh(r")
    code = main(["classify", cfg, "--p", "3"])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT
    assert "position" in err


def test_classify_pole_in_h_flips_balance_not_crash(tmp_path, capsys):
    # a pole in h makes the balance change sign around it: inconclusive
    cfg = write_config(tmp_path, h="1/(r - 3)")
    code = main(["classify", cfg, "--p", "3", "--rho", "1"])
    out = capsys.readouterr().out
    assert code == EXIT_INCONCLUSIVE
    assert "balance_fails" in out


def test_classify_numeric_failure_exit_3(tmp_path, capsys):
    # h is nowhere evaluable: the hypothesis probe fails as a numeric error
    cfg = write_config(tmp_path, h="log(-r)")
    code = main(["classify", cfg, "--p", "3", "--rho", "1"])
    err = capsys.readouterr().err
    assert code == EXIT_NUMERIC
    assert "numeric failure" in err


@pytest.mark.parametrize("rho", ["3", "5", "7"])
def test_classify_short_ladder_exit_10(tmp_path, capsys, rho):
    # the balance of exp(r^3) overflows past r ~ 8, which caps the tail
    # ladder at fewer than 3 doublings: undetermined, not a traceback
    cfg = write_config(tmp_path, n=4, w="exp(r^3)")
    code = main(["classify", cfg, "--p", "3", "--rho", rho, "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == EXIT_INCONCLUSIVE
    assert doc["outcome"]["reason"]["code"] == "tail_undetermined"
    assert doc["evidence"]["tail"]["detail"].startswith("ladder too short")


# per subcommand: its flags and the settings they must echo, in flag order
ENVELOPE_CASES = {
    "classify": (["--p", "3", "--horizon", "30", "--exp-band", "0.04"],
                 {"p": 3.0, "rho": 1.0, "horizon": 30, "grid_points": 512,
                  "conv_eps": 1e-08, "exp_band": 0.04, "rel_tol": 1e-10}),
    "sweep": (["--p-from", "2", "--p-to", "3", "--p-step", "1", "--grid-points", "256"],
              {"p_from": 2.0, "p_to": 3.0, "p_step": 1.0, "rho": 1.0, "horizon": 40,
               "grid_points": 256, "conv_eps": 1e-08, "exp_band": 0.05, "rel_tol": 1e-10}),
    "capacity": (["--p", "2", "--R", "2", "--flux", "3"],
                 {"p": 2.0, "rho": 1.0, "R": 2.0, "rel_tol": 1e-11, "flux": 3.0}),
    "solve": (["--p", "2", "--R", "2", "--samples", "5", "--rho", "0.5"],
              {"p": 2.0, "rho": 0.5, "R": 2.0, "samples": 5, "rel_tol": 1e-11}),
    "simulate": (["--r0", "1", "--paths", "200", "--dt", "1e-3", "--seed", "9"],
                 {"r0": 1.0, "rin": 0.5, "rout": 8.0, "paths": 200, "dt": 1e-3,
                  "seed": 9, "max_time": 100.0}),
}


@pytest.mark.parametrize("command", list(ENVELOPE_CASES))
def test_classify_json_schema(capsys, command):
    flags, settings = ENVELOPE_CASES[command]
    code = main([command, EUCLID3, *flags, "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert sorted(doc) == ["command", "evidence", "inputs", "outcome", "timings"]
    assert doc["command"] == command
    assert doc["inputs"] == {"config": EUCLID3, "settings": settings}
    assert list(doc["inputs"]["settings"]) == list(settings)
    assert "total_s" in doc["timings"]
    if command == "classify":
        assert doc["outcome"]["verdict"] == "p_parabolic"
        assert doc["evidence"]["tail"]["kind"] == "divergent"
        assert [c["name"] for c in doc["evidence"]["checks"]] == [
            "balance_non_negative", "weight_integral_diverges"]


def test_classify_json_tail_ladder(capsys):
    code = main(["classify", EUCLID3, "--p", "3", "--rho", "0.5", "--json"])
    tail = json.loads(capsys.readouterr().out)["evidence"]["tail"]
    ladder = tail["ladder"]
    doublings = len(classify(load_config(EUCLID3), 3.0, 0.5).tail.partial_integrals)
    assert code == EXIT_OK
    assert len(ladder) == doublings > 1
    assert [r for r, _ in ladder] == [0.5 * 2.0 ** k for k in range(1, doublings + 1)]
    assert ladder[-1][0] == tail["horizon"]
    assert all(b > a for (_, a), (_, b) in zip(ladder, ladder[1:]))


GOLDEN_CLASSIFY = {
    "command": "classify",
    "inputs": {
        "config": EUCLID3,
        "settings": {"p": 2.0, "rho": 1.0, "horizon": 40, "grid_points": 512,
                     "conv_eps": 1e-08, "exp_band": 0.05, "rel_tol": 1e-10},
    },
    "outcome": {
        "verdict": "inconclusive",
        "by": None,
        "reason": {"code": "tail_convergent",
                   "message": "weight integral converges; criterion silent",
                   "witnesses": [], "value": 1.0},
    },
}


def test_classify_json_golden(capsys):
    main(["classify", EUCLID3, "--p", "2", "--json"])
    doc = json.loads(capsys.readouterr().out)
    doc["timings"]["total_s"] = 0.0       # normalize the only unstable field
    doc["outcome"]["reason"]["value"] = round(doc["outcome"]["reason"]["value"], 7)
    assert doc["command"] == GOLDEN_CLASSIFY["command"]
    assert doc["inputs"] == GOLDEN_CLASSIFY["inputs"]
    assert doc["outcome"] == GOLDEN_CLASSIFY["outcome"]


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_csv_transition(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = main(["sweep", EUCLID3, "--p-from", "2", "--p-to", "5",
                 "--p-step", "0.5", "--out", str(out)])
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert len(rows) == 7
    assert [r["outcome"] for r in rows] == (
        ["inconclusive", "inconclusive"] + ["p_parabolic"] * 5)
    header = out.read_text().splitlines()[0]
    assert header == "p,outcome,alpha_hat,cap_at_horizon"


def test_sweep_json_and_out_write_both(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = main(["sweep", EUCLID3, "--p-from", "2", "--p-to", "3", "--p-step", "1",
                 "--out", str(out), "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert [r["outcome"] for r in rows] == [r["outcome"] for r in doc["outcome"]["rows"]]
    assert out.read_bytes().startswith(b"p,outcome,alpha_hat,cap_at_horizon\r\n")


def test_sweep_hyperbolic_all_inconclusive(capsys):
    code = main(["sweep", HYPERBOLIC2, "--p-from", "2", "--p-to", "4",
                 "--p-step", "1"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    assert all(r["outcome"] == "inconclusive" for r in rows)


def test_sweep_rows_whose_capacity_weight_overflows_warn_nothing(capsys):
    # from p = 4.5 the capacity weight overflows to inf inside [1, 512]; the
    # rows report it as errors, and numpy prints no RuntimeWarning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["sweep", str(CONFIG_DIR / "cylinder_bounded.json"),
                     "--p-from", "2", "--p-to", "6", "--p-step", "0.5"])
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert code == EXIT_OK
    assert [r["outcome"] for r in rows[-4:]] == ["error"] * 4
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_sweep_empty_range_exit_2(capsys):
    code = main(["sweep", EUCLID3, "--p-from", "5", "--p-to", "2"])
    assert code == EXIT_INPUT


BAD_HYPOTHESIS_FLAGS = [["--grid-points", "0"], ["--grid-points", "1"], ["--horizon", "-1"],
                        ["--horizon", "2000"], ["--rho", "1e300"], ["--conv-eps", "nan"],
                        ["--conv-eps", "inf"], ["--exp-band", "-1"], ["--exp-band", "inf"],
                        ["--rel-tol", "nan"], ["--rel-tol=-1e-10"]]


@pytest.mark.parametrize("flags", BAD_HYPOTHESIS_FLAGS + [["--p", "nan"], ["--p", "inf"]],
                         ids=" ".join)
def test_classify_settings_that_certify_nothing_exit_2(capsys, flags):
    # a zero-point grid used to certify any balance: p_parabolic on h = 2/r
    code = main(["classify", EUCLID3, "--p", "3", *flags])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT
    assert err.startswith("input error: ")
    assert flags[0].split("=")[0] in err


@pytest.mark.parametrize("flags", BAD_HYPOTHESIS_FLAGS + [["--p-to", "inf"], ["--p-from", "nan"],
                                                    ["--p-step", "nan"], ["--p-step", "inf"]],
                         ids=" ".join)
def test_sweep_settings_that_certify_nothing_exit_2(tmp_path, capsys, flags):
    path = write_config(tmp_path, h="2/r")
    code = main(["sweep", path, "--p-from", "2", "--p-to", "4", "--p-step", "1", *flags])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.err.startswith("input error: ")
    assert "p_parabolic" not in captured.out
    assert flags[0].split("=")[0] in captured.err


@pytest.mark.parametrize("flags", [["--horizon", "0"], ["--rel-tol", "0"],
                                   ["--horizon", "0", "--rho", "1e-3"]], ids=" ".join)
def test_zero_horizon_and_zero_tolerance_are_valid_flags(capsys, flags):
    assert main(["classify", EUCLID3, "--p", "3", *flags]) in (EXIT_OK, EXIT_INCONCLUSIVE)


@pytest.mark.parametrize("flags, rows", [
    (["--p-from", "2", "--p-to", "8", "--p-step", str(6.0 / 10_000)], "10001"),
    (["--p-from", "2", "--p-to", "8", "--p-step", "5e-324"], "inf"),
    (["--p-from=-1e308", "--p-to", "1e308"], "inf"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else f"rows={v}")
def test_sweep_with_too_many_rows_names_p_step(monkeypatch, capsys, flags, rows):
    # the infinite counts were "numeric failure: cannot convert float
    # infinity to integer"
    monkeypatch.setattr(criteria, "classify",
                        lambda *args: pytest.fail("the sweep classified a row"))
    code = main(["sweep", EUCLID3, *flags])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT
    assert err.startswith("input error: --p-step ")
    assert err.endswith(f" gives {rows} rows from --p-from to --p-to, more than 10000\n")


# ---------------------------------------------------------------------------
# capacity
# ---------------------------------------------------------------------------

def test_capacity_newtonian(capsys):
    code = main(["capacity", EUCLID3, "--p", "2", "--rho", "1", "--R", "2", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert doc["outcome"]["drifted_capacity"] == pytest.approx(8 * math.pi, rel=1e-6)
    assert doc["outcome"]["exact_model_capacity"] == pytest.approx(8 * math.pi, rel=1e-6)


def test_capacity_large_R(capsys):
    code = main(["capacity", EUCLID3, "--p", "2", "--rho", "1", "--R", "10000",
                 "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert doc["outcome"]["drifted_capacity"] == pytest.approx(
        4 * math.pi / (1 - 1e-4), rel=1e-6)


def test_capacity_zero_flux_exit_2(capsys):
    code = main(["capacity", EUCLID3, "--p", "2", "--rho", "1", "--R", "2",
                 "--flux", "0"])
    assert code == EXIT_INPUT


# every float flag of every command, at nan and at inf
NONFINITE_FLAGS = [(command, [flag, value]) for command, cmd in _COMMANDS.items()
                   for flag in cmd.flags if _FLAG_TABLE[flag].type is float
                   for value in ("nan", "inf")]


@pytest.mark.parametrize("command, flags", NONFINITE_FLAGS,
                         ids=[f"{c} {' '.join(f)}" for c, f in NONFINITE_FLAGS])
def test_nonfinite_flags_exit_2(capsys, command, flags):
    # these used to end as a numeric failure ("integrand not finite"), a
    # library text ("cumulative cache queried at inf") or RuntimeWarnings
    given = {"capacity": ["--p", "3", "--R", "2"], "solve": ["--p", "3", "--R", "2"],
             "simulate": ["--r0", "1", "--paths", "10"], "classify": ["--p", "3"],
             "sweep": ["--p-from", "2", "--p-to", "3"]}[command]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, EUCLID3, *given, *flags])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT
    assert err == f"input error: {flags[0]} must be finite, got {float(flags[1])}\n"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("command", ["capacity", "solve"])
def test_negative_rel_tol_is_named_by_its_flag(capsys, command):
    code = main([command, EUCLID3, "--p", "3", "--R", "2", "--rel-tol", "-1"])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == "input error: --rel-tol must be >= 0, got -1.0\n"


def test_capacity_whose_exact_value_overflows_is_a_numeric_failure(capsys):
    code = main(["capacity", EUCLID3, "--p", "1e308", "--R", "2"])
    assert code == EXIT_NUMERIC
    assert capsys.readouterr().err == (
        "numeric failure: exact annulus p-capacity overflows float range "
        "(p=1e+308, rho=1, R=2)\n")


@pytest.mark.parametrize("flags, p", [(["--p", "1000", "--R", "1.01"], "1000"),
                                      (["--p", "3", "--R", "1.5", "--flux", "1e308"], "3")],
                         ids=lambda v: " ".join(v) if isinstance(v, list) else f"p={v}")
def test_capacity_whose_upper_bound_overflows_is_a_numeric_failure(capsys, flags, p):
    # the first was the bare "(34, 'Numerical result out of range')", the
    # second printed a bound of inf and exited 0
    code = main(["capacity", EUCLID3, *flags])
    assert code == EXIT_NUMERIC
    assert capsys.readouterr().err == (
        f"numeric failure: capacity upper bound overflows float range (p={p})\n")


def test_capacity_nan_flux_is_an_input_error(capsys):
    code = main(["capacity", EUCLID3, "--p", "2", "--rho", "1", "--R", "2",
                 "--flux", "nan"])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == "input error: --flux must be finite, got nan\n"


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_csv_euclidean_profile(tmp_path):
    out = tmp_path / "profile.csv"
    code = main(["solve", EUCLID3, "--p", "2", "--rho", "1", "--R", "2",
                 "--samples", "11", "--out", str(out)])
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert len(rows) == 11
    for row in rows:
        r = float(row["r"])
        expect = 2.0 * (1.0 - 1.0 / r)
        assert float(row["psi_closed"]) == pytest.approx(expect, abs=1e-9)
        assert float(row["psi_ode"]) == pytest.approx(expect, abs=1e-6)
        assert float(row["residual"]) <= 1e-6


def test_solve_needs_two_samples(capsys):
    code = main(["solve", EUCLID3, "--p", "2", "--R", "2", "--samples", "1"])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == "input error: --samples must be >= 2, got 1\n"


def test_solve_json_summary(capsys):
    code = main(["solve", EUCLID3, "--p", "2", "--rho", "1", "--R", "2",
                 "--samples", "5", "--json"])
    # JSON mode emits exactly one document on stdout (CSV only with --out)
    doc = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert doc["outcome"]["max_abs_diff"] <= 1e-6
    assert doc["outcome"]["operator_residual"] <= 1e-6


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_self_constellation_reports_exact(capsys):
    code = main(["simulate", EUCLID3, "--r0", "1", "--paths", "400",
                 "--dt", "1e-3", "--seed", "9", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert doc["outcome"]["exact_hitting_prob"] == pytest.approx(7 / 15, rel=1e-9)
    assert 0.0 <= doc["outcome"]["p_inner"] <= 1.0
    assert abs(doc["evidence"]["deviation_sigma"]) < 6.0


def test_simulate_bad_geometry_exit_2(capsys):
    code = main(["simulate", EUCLID3, "--r0", "9"])
    assert code == EXIT_INPUT


OUT_OF_RANGE_FLAGS = [
    ("simulate", ["--dt", "-1"], "--dt must be > 0, got -1.0"),
    ("simulate", ["--paths", "0"], "--paths must be >= 1, got 0"),
    ("simulate", ["--max-time", "-1"], "--max-time must be > 0, got -1.0"),
    ("simulate", ["--rin", "0"], "--rin must be > 0, got 0.0"),
    ("simulate", ["--rin", "2"], "--r0 must be > --rin (2.0), got 1.0"),
    ("sweep", ["--p-step", "0"], "--p-step must be > 0, got 0.0"),
    ("sweep", ["--p-to", "1"], "--p-to must be >= --p-from (2.0), got 1.0"),
    ("capacity", ["--rho", "3"], "--R must be > --rho (3.0), got 2.0"),
    ("capacity", ["--p", "1.5"], "--p must be >= 2, got 1.5"),
]


@pytest.mark.parametrize("command, flags, text", OUT_OF_RANGE_FLAGS,
                         ids=[f"{c} {' '.join(f)}" for c, f, _ in OUT_OF_RANGE_FLAGS])
def test_out_of_range_flags_are_named_by_their_flags(capsys, command, flags, text):
    given = {"simulate": ["--r0", "1", "--paths", "10"],
             "sweep": ["--p-from", "2", "--p-to", "3"],
             "capacity": ["--p", "3", "--R", "2"]}[command]
    code = main([command, EUCLID3, *given, *flags])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == f"input error: {text}\n"


@pytest.mark.parametrize("max_time", ["1e-290", "1e300"])
def test_simulate_asking_too_many_steps_names_dt_and_max_time(capsys, max_time):
    # 1e10 steps per path used to run until killed; 1e600 is inf
    code = main(["simulate", EUCLID3, "--r0", "1", "--paths", "1", "--dt", "1e-300",
                 "--max-time", max_time])
    steps = "1e+10" if max_time == "1e-290" else "inf"
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == (
        f"input error: --max-time / --dt = {steps} steps per path, "
        f"more than the 1e+08 allowed\n")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _keyword_default(fn, name):
    return inspect.signature(fn).parameters[name].default


_TAIL_DEFAULTS = {"horizon": TailConfig().k_max, "grid_points": ClassifyConfig().grid_points,
                  "conv_eps": TailConfig().conv_eps, "exp_band": TailConfig().exp_band,
                  "rel_tol": ClassifyConfig().weight_rel_tol}
# per subcommand: its required flags, and the library's own default of each
# flag that one sets
LIBRARY_DEFAULTS = {
    "classify": (["--p", "3"], _TAIL_DEFAULTS),
    "sweep": (["--p-from", "2", "--p-to", "3"], _TAIL_DEFAULTS),
    "capacity": (["--p", "3", "--R", "2"],
                 {"rel_tol": _keyword_default(dirichlet.drifted_capacity, "rel_tol")}),
    "solve": (["--p", "3", "--R", "2"],
              {"rel_tol": _keyword_default(dirichlet.solve_dirichlet_closed, "rel_tol")}),
    "simulate": (["--r0", "1"],
                 {"rin": DiffusionConfig().r_inner, "rout": DiffusionConfig().r_outer,
                  "paths": DiffusionConfig().paths, "dt": DiffusionConfig().dt,
                  "seed": DiffusionConfig().seed, "max_time": DiffusionConfig().max_time}),
}


@pytest.mark.parametrize("command", list(LIBRARY_DEFAULTS))
def test_help_lists_every_flag_with_the_library_defaults(capsys, command):
    # argparse formats a help text's %(default)s only when the help is printed
    with pytest.raises(SystemExit) as stop:
        main([command, "--help"])
    assert stop.value.code == 0
    text = capsys.readouterr().out
    required, defaults = LIBRARY_DEFAULTS[command]
    for flag in _COMMANDS[command].flags:
        assert re.search(rf"^  {flag} [A-Z0-9_]+(  |$)", text, re.M), flag
        # every flag says what its value is
        assert _FLAG_TABLE[flag].help in " ".join(text.split()), flag
    args = vars(build_parser().parse_args([command, EUCLID3, *required]))
    assert {dest: args[dest] for dest in defaults} == defaults
    for value in defaults.values():
        assert f"(default {value})" in text


def test_every_table_flag_belongs_to_a_command():
    assert {flag for cmd in _COMMANDS.values() for flag in cmd.flags} == set(_FLAG_TABLE)


def test_module_entry_point_runs():
    # the child imports radialcap from this checkout, as this process does
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "radialcap", "classify", EUCLID3, "--p", "3"],
        capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == EXIT_OK
    assert "p-parabolic" in proc.stdout


def test_main_builds_its_parser_once(monkeypatch, capsys):
    assert main(["classify", EUCLID3, "--p", "3"]) == EXIT_OK
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(["classify", EUCLID3, "--p", "2"]) == EXIT_INCONCLUSIVE
    with pytest.raises(SystemExit):
        main(["classify", EUCLID3])
    assert built == []


def test_capacity_solves_the_closed_form_once(monkeypatch, capsys):
    solves = []
    solve = dirichlet.solve_dirichlet_closed

    def counted(*args, **kwargs):
        solves.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(dirichlet, "solve_dirichlet_closed", counted)
    assert main(["capacity", EUCLID3, "--p", "3", "--R", "10", "--flux", "2", "--json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert len(solves) == 1
    cap = doc["outcome"]["drifted_capacity"]
    c = load_config(EUCLID3)
    assert doc["outcome"]["submanifold_upper_bound"] == dirichlet.flux_bound(
        dirichlet.drifted_capacity(c, 3.0, 1.0, 10.0), float(sphere_volume(c.model, 1.0)),
        3.0, 2.0)
    assert doc["outcome"]["submanifold_upper_bound"] == pytest.approx(
        2.0 * (cap / (4 * math.pi)) ** 2, rel=1e-14)
