"""Self-check of the benchmark: every workload at a tiny size.

    python3 -m pytest perfbench/selfcheck.py -q

Each workload must report every metric of BENCHMARK.json with its unit, pass
its own reference checks, and -- in the traced run -- show calls on every
layer it is said to stress, so that a wrapper patched onto the wrong name
cannot read zero unnoticed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import _union_length  # noqa: E402

# ops per tiny run: enough for one op of each kind the workload mixes
TINY_OPS = {"verdicts": 12, "profiles": 8, "hitting": 3, "cli": 32}

STRESSED = {
    "verdicts": ("expr.evaluate", "expr.eval_jet2", "constellation.balance_sign",
                 "constellation.weight", "constellation.weight.integrand",
                 "quadrature.classify_tail", "quadrature.integrate",
                 "quadrature.cumulative_cache", "criteria.classify",
                 "model.validate_warping"),
    "profiles": ("expr.eval_jet2", "constellation.weight", "constellation.weight.integrand",
                 "quadrature.cumulative_cache", "dirichlet.solve_closed", "dirichlet.profile",
                 "dirichlet.solve_ode", "dirichlet.operator_residual",
                 "dirichlet.drifted_capacity", "model.exact_annulus_p_capacity"),
    "hitting": ("expr.eval_jet2", "quadrature.integrate", "diffusion.simulate_radial",
                "diffusion.exact_hitting_prob"),
    "cli": ("cli.main", "cli.load_config", "criteria.sweep", "criteria.classify",
            "dirichlet.solve_closed", "dirichlet.profile", "dirichlet.solve_ode",
            "dirichlet.operator_residual", "dirichlet.drifted_capacity",
            "model.exact_annulus_p_capacity"),
}


def _bench():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _run(cwd, workload, trace, ops):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--ops", str(ops)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", sorted(TINY_OPS))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    proc = _run(ROOT, workload, 0, TINY_OPS[workload])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in _bench()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(TINY_OPS))
def test_traced_run_fires_every_stressed_layer(workload):
    proc = _run(ROOT, workload, 1, TINY_OPS[workload])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    want = {m["name"]: m["unit"] for m in _bench()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    with open(HERE / "results" / f"{workload}-seed7-trace1.json", encoding="utf-8") as fh:
        record = json.load(fh)
    table = record["worker"]["spans"]
    assert not record["worker"]["missing_targets"]
    silent = [name for name in STRESSED[workload] if table[name]["calls"] == 0]
    assert not silent, f"wrappers that never fired on {workload}: {silent}"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run(tmp_path, "verdicts", 0, 1)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


def test_union_length_counts_overlap_once():
    s = np.array([0.0, 1.0, 5.0])
    e = np.array([2.0, 3.0, 6.0])
    assert _union_length(s, e) == pytest.approx(4.0)
    assert _union_length(np.array([0.0, 0.5]), np.array([3.0, 1.0])) == pytest.approx(3.0)
