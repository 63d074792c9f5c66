"""Record the reference outcomes the verdicts and cli workloads check against.

    PYTHONPATH=src python3 perfbench/record.py

Writes ``perfbench/reference.json``: the verdict of every config at each p
in {2, 2.5, ..., 8} (after confirming it is the same for rho in [0.5, 2]),
the exit code and ``outcome`` of every CLI argument list the cli workload
runs, and the pool of ``DiffusionConfig`` seeds the hitting workload draws
from (each checked against ``exact_hitting_prob`` for every model).  Run it
only at a commit whose outputs are the accepted reference; rewriting it to
match a changed program hides the change.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import radialcap as rc
import radialcap.cli
from workloads import P_GRID, Hitting, config_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RHO_CHECK = (0.5, 0.71, 1.0, 1.41, 2.0)
HITTING_POOL = 64

CLI_ARGS = (
    ("classify", "--p", "2"),
    ("classify", "--p", "3"),
    ("classify", "--p", "4.5"),
    ("sweep", "--p-from", "2", "--p-to", "8", "--p-step", "1.5"),
    ("capacity", "--p", "2", "--R", "2"),
    ("capacity", "--p", "3", "--R", "10"),
    ("solve", "--p", "2", "--R", "2", "--samples", "21"),
    ("solve", "--p", "3", "--R", "3", "--samples", "21"),
)


def verdict_key(v):
    return [v.outcome, v.by, v.reason.code if v.reason else None]


def main() -> int:
    names = config_names(ROOT)
    verdicts = {}
    for name in names:
        c = radialcap.cli.load_config(str(ROOT / "configs" / f"{name}.json"))
        verdicts[name] = {}
        for p in P_GRID:
            keys = {tuple(verdict_key(rc.classify(c, p, rho))) for rho in RHO_CHECK}
            if len(keys) != 1:
                print(f"{name} p={p:g}: verdict depends on rho: {keys}", file=sys.stderr)
                return 1
            verdicts[name][f"{p:g}"] = list(keys.pop())
    cases = []
    for name in names:
        for args in CLI_ARGS:
            argv = [args[0], f"configs/{name}.json", *args[1:], "--json"]
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = radialcap.cli.main(argv)
            cases.append({"argv": argv, "exit": code,
                          "outcome": json.loads(out.getvalue())["outcome"]})
    hitting = Hitting(ROOT, {"hitting_seeds": list(range(HITTING_POOL))})
    for op in hitting.pool:
        bad = hitting.check(op, hitting.run(op))
        if bad:
            print(f"hitting seed pool: {bad}", file=sys.stderr)
            return 1
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump({"verdicts": verdicts, "cli": cases,
                   "hitting_seeds": list(range(HITTING_POOL))}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
