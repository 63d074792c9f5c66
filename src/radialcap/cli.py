"""Command-line interface: classify, sweep, capacity, solve, simulate.

Constellation configs are strict UTF-8 JSON files with exactly the fields
``n, m, w, g, lambda, h, tangency`` (unknown fields are rejected so that a
misspelled "lambda" cannot silently flip a verdict).  Exit codes: 0 success
or p-parabolic, 10 inconclusive, 2 input error, 3 numeric failure.  All
tolerances and horizons are flag-overridable and echoed in the output.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import re
import sys
import time
from typing import Optional

import numpy as np

from . import __version__
from .constellation import Constellation
from .criteria import ClassifyConfig, classify, sweep
from .diffusion import DiffusionConfig, exact_hitting_prob, simulate_radial
from .dirichlet import (
    drifted_capacity, flux_bound, operator_residual,
    solve_dirichlet_closed, solve_dirichlet_ode,
)
from .errors import ConfigError, ParseError, RadialCapError, check_number
from .expr import parse
from .model import exact_annulus_p_capacity, sphere_volume
from .quadrature import TailConfig

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_INCONCLUSIVE = 10

_CONFIG_FIELDS = ("n", "m", "w", "g", "lambda", "h", "tangency")


def load_config(path: str) -> Constellation:
    """Load and validate a constellation config with per-field diagnostics."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path!r} must be a JSON object")

    problems = []
    unknown = sorted(set(raw) - set(_CONFIG_FIELDS))
    if unknown:
        problems.append(f"unknown fields: {', '.join(unknown)}")
    missing = [f for f in _CONFIG_FIELDS if f not in raw]
    if missing:
        problems.append(f"missing fields: {', '.join(missing)}")

    parsed = {}
    if not missing:
        for field in ("n", "m"):
            if not isinstance(raw[field], int) or isinstance(raw[field], bool):
                problems.append(f"field {field!r}: expected an integer, got {raw[field]!r}")
        for field in ("w", "g", "lambda", "h"):
            value = raw.get(field)
            if not isinstance(value, str):
                problems.append(f"field {field!r}: expected an expression string")
                continue
            try:
                parsed[field] = parse(value)
            except ParseError as exc:
                problems.append(f"field {field!r}: {exc}")
        if raw.get("tangency") not in ("lower", "upper"):
            problems.append("field 'tangency': expected \"lower\" or \"upper\"")
    if problems:
        raise ConfigError(f"invalid config {path!r}: " + "; ".join(problems))

    try:
        return Constellation.from_functions(
            n=raw["n"], m=raw["m"], w=parsed["w"], g=parsed["g"],
            lam=parsed["lambda"], h=parsed["h"], tangency=raw["tangency"])
    except ValueError as exc:
        raise ConfigError(f"invalid config {path!r}: {exc}") from exc


# the names an input error inside a command can give, as the flags that set them
_FLAGS = {"k_max": "--horizon", "grid_points": "--grid-points", "conv_eps": "--conv-eps",
          "exp_band": "--exp-band", "weight_rel_tol": "--rel-tol", "rel_tol": "--rel-tol",
          "p": "--p", "rho": "--rho", "R": "--R", "p_from": "--p-from", "p_to": "--p-to",
          "p_step": "--p-step", "dt": "--dt", "max_time": "--max-time", "paths": "--paths",
          "r_inner": "--rin", "r_outer": "--rout", "r0": "--r0"}
# a name is a whole word that is not part of a flag: "p" but not "--p-step"
_FLAG_RE = re.compile(r"(?<![-\w])(" + "|".join(_FLAGS) + r")(?![-\w])")


@contextlib.contextmanager
def _by_flag():
    """Report an input error raised inside by the flags' names."""
    try:
        yield
    except (ConfigError, ValueError) as exc:
        raise ConfigError(_FLAG_RE.sub(lambda m: _FLAGS[m[0]], str(exc))) from None


def _classify_config(args) -> ClassifyConfig:
    """The flags' ClassifyConfig, checked for a finite horizon."""
    tail = TailConfig(k_max=args.horizon, conv_eps=args.conv_eps, exp_band=args.exp_band)
    cfg = ClassifyConfig(grid_points=args.grid_points, tail=tail, weight_rel_tol=args.rel_tol)
    tail.horizon(args.rho)
    return cfg


def _write_csv(args, header, rows) -> None:
    """CSV to the ``--out`` file, else to stdout unless ``--json`` is given."""
    if args.out is None and args.json:
        return
    with (open(args.out, "w", newline="", encoding="utf-8") if args.out is not None
          else contextlib.nullcontext(sys.stdout)) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

# Each command takes the parsed flags and the loaded constellation and returns
# its outcome, its evidence, its human-readable lines and its exit code.
# Commands that print a CSV table return no lines.

def cmd_classify(args, c: Constellation) -> tuple:
    verdict = classify(c, args.p, args.rho, _classify_config(args))
    outcome = {"verdict": verdict.outcome, "by": verdict.by,
               "reason": verdict.reason.to_dict() if verdict.reason else None}
    lines = [f"verdict: {verdict.summary()}"]
    if verdict.balance is not None:
        b = verdict.balance.to_dict()
        sign = b["sign"]
        if verdict.balance.is_non_negative and verdict.balance.is_non_positive:
            sign = "identically zero (counts as both signs)"
        lines.append(f"balance: {sign} on r in [{b['grid'][0]:g}, {b['grid'][1]:.4g}] "
                     f"(min={b['min']:.4g}, max={b['max']:.4g})")
    if verdict.tail is not None:
        t = verdict.tail.to_dict()
        alpha = "n/a" if t["alpha_hat"] is None else f"{t['alpha_hat']:.4f}"
        lines.append(f"tail: {t['kind']} (alpha_hat={alpha}) -- {t['detail']}")
    if verdict.certified_interval:
        lines.append(f"certified interval: [{verdict.certified_interval[0]:g}, "
                     f"{verdict.certified_interval[1]:.5g}]")
    for warning in verdict.warnings:
        lines.append(f"warning: {warning}")
    return (outcome, verdict.to_dict(), lines,
            EXIT_OK if verdict.is_parabolic else EXIT_INCONCLUSIVE)


def cmd_sweep(args, c: Constellation) -> tuple:
    rows = sweep(c, args.p_from, args.p_to, args.p_step, args.rho, _classify_config(args))
    table = []
    for row in rows:
        table.append({
            "p": row.p,
            "outcome": row.outcome,
            "alpha_hat": row.alpha_hat,
            "cap_at_horizon": row.cap_at_horizon,
            "error": row.error,
        })
    _write_csv(args, ["p", "outcome", "alpha_hat", "cap_at_horizon"], [
        [f"{row['p']:g}", row["outcome"],
         "" if row["alpha_hat"] is None else f"{row['alpha_hat']:.6f}",
         "" if row["cap_at_horizon"] is None else f"{row['cap_at_horizon']:.12g}"]
        for row in table])
    return {"rows": table}, {"row_count": len(table)}, [], EXIT_OK


def cmd_capacity(args, c: Constellation) -> tuple:
    check_number("--flux", args.flux, above=0, error=ConfigError)
    cap = drifted_capacity(c, args.p, args.rho, args.R, rel_tol=args.rel_tol)
    vol = float(sphere_volume(c.model, args.rho))
    bound = flux_bound(cap, vol, args.p, args.flux)
    exact = None
    if c.is_self_model():
        exact = exact_annulus_p_capacity(c.model, args.rho, args.R, args.p)
    outcome = {"drifted_capacity": cap, "exact_model_capacity": exact,
               "submanifold_upper_bound": bound}
    evidence = {"sphere_volume": vol,
                "self_constellation": exact is not None}
    lines = [f"drifted capacity Cap_L(annulus {args.rho:g}..{args.R:g}) = {cap:.10g}"]
    if exact is not None:
        lines.append(f"exact model p-capacity (self-constellation) = {exact:.10g}")
        lines.append(f"relative difference at p=2 collapse: "
                     f"{abs(cap - exact) / exact:.3e}" if args.p == 2 else
                     f"(direct equality only holds at p=2; chain bound below)")
    lines.append(f"submanifold capacity upper bound (flux={args.flux:g}) = {bound:.10g}")
    return outcome, evidence, lines, EXIT_OK


def cmd_solve(args, c: Constellation) -> tuple:
    k = args.samples
    check_number("--samples", k, at_least=2, error=ConfigError)
    sol = solve_dirichlet_closed(c, args.p, args.rho, args.R, rel_tol=args.rel_tol)
    per_gap = max(1, int(np.ceil(2000 / (k - 1))))
    ode = solve_dirichlet_ode(c, args.p, args.rho, args.R,
                              step_count=per_gap * (k - 1))
    rs = ode.nodes[::per_gap]
    psi_closed = np.asarray(sol.profile(rs))
    psi_ode = ode.psi[::per_gap]
    residual = operator_residual(c, args.p, args.rho, args.R, sol)
    _write_csv(args, ["r", "psi_closed", "psi_ode", "residual"],
               [[f"{r:.12g}", f"{pc:.12g}", f"{po:.12g}", f"{residual:.6g}"]
                for r, pc, po in zip(rs, psi_closed, psi_ode)])
    outcome = {"max_abs_diff": float(np.max(np.abs(psi_closed - psi_ode))),
               "operator_residual": residual, "normalizer": sol.normalizer}
    return outcome, {"samples": int(k)}, [], EXIT_OK


def cmd_simulate(args, c: Constellation) -> tuple:
    cfg = DiffusionConfig(dt=args.dt, paths=args.paths, seed=args.seed,
                          r_inner=args.rin, r_outer=args.rout, max_time=args.max_time)
    stats = simulate_radial(c.model, args.r0, cfg)
    exact = None
    if c.is_self_model():
        exact = exact_hitting_prob(c.model, args.r0, args.rin, args.rout)
    evidence = {"self_constellation": exact is not None,
                "deviation_sigma": None if exact is None or stats.stderr == 0
                else (stats.p_inner - exact) / stats.stderr}
    lines = [f"p_inner = {stats.p_inner:.6f} +- {stats.stderr:.6f} "
             f"(paths={stats.paths}, censored={stats.censored})"]
    if exact is not None:
        dev = "inf" if stats.stderr == 0 else f"{(stats.p_inner - exact) / stats.stderr:+.2f}"
        lines.append(f"exact hitting probability = {exact:.6f} (deviation {dev} sigma)")
    return stats.to_dict() | {"exact_hitting_prob": exact}, evidence, lines, EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radialcap",
        description="Sufficient p-parabolicity criteria and radial capacities "
                    "on warped-product models")
    parser.add_argument("--version", action="version", version=f"radialcap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tail_flags(p):
        p.add_argument("--horizon", type=int, default=40,
                       help="tail horizon in doublings of rho (default 40)")
        p.add_argument("--grid-points", type=int, default=512,
                       help="hypothesis grid size (default 512)")
        p.add_argument("--conv-eps", type=float, default=1e-8,
                       help="Cauchy convergence threshold (default 1e-8)")
        p.add_argument("--exp-band", type=float, default=0.05,
                       help="undetermined band around exponent -1 (default 0.05)")
        p.add_argument("--rel-tol", type=float, default=1e-10,
                       help="weight quadrature relative tolerance (default 1e-10)")

    p = sub.add_parser("classify", help="apply the sufficient criteria")
    p.add_argument("config")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--rho", type=float, default=1.0)
    add_tail_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("sweep", help="classify over a grid of exponents (CSV)")
    p.add_argument("config")
    p.add_argument("--p-from", type=float, required=True)
    p.add_argument("--p-to", type=float, required=True)
    p.add_argument("--p-step", type=float, default=0.5)
    p.add_argument("--rho", type=float, default=1.0)
    add_tail_flags(p)
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("capacity", help="drifted capacity and upper bound")
    p.add_argument("config")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--R", type=float, required=True)
    p.add_argument("--rel-tol", type=float, default=1e-11)
    p.add_argument("--flux", type=float, default=1.0,
                   help="boundary flux of the tangency power (default 1.0)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_capacity)

    p = sub.add_parser("solve", help="annulus profile: closed form vs ODE (CSV)")
    p.add_argument("config")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--R", type=float, required=True)
    p.add_argument("--samples", type=int, default=101)
    p.add_argument("--rel-tol", type=float, default=1e-11)
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("simulate", help="radial diffusion hitting probabilities")
    p.add_argument("config")
    p.add_argument("--r0", type=float, required=True)
    p.add_argument("--rin", type=float, default=0.5)
    p.add_argument("--rout", type=float, default=8.0)
    p.add_argument("--paths", type=int, default=10000)
    p.add_argument("--dt", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-time", type=float, default=100.0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_simulate)
    return parser


# parsing leaves the parser as it was, so one process builds it once
_parser = functools.cache(build_parser)


def main(argv: Optional[list] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        t0 = time.monotonic()
        c = load_config(args.config)
        # the first float flag that is not finite is an input error, named by its flag
        for name, value in vars(args).items():
            if isinstance(value, float):
                check_number(f"--{name.replace('_', '-')}", value, error=ConfigError)
        with _by_flag():
            outcome, evidence, lines, code = args.fn(args, c)
        # every flag but the output switches, in the order the parser declares them
        settings = {key: value for key, value in vars(args).items()
                    if key not in ("command", "config", "out", "json", "fn")}
        if args.json:
            json.dump({"command": args.command,
                       "inputs": {"config": args.config, "settings": settings},
                       "outcome": outcome, "evidence": evidence,
                       "timings": {"total_s": time.monotonic() - t0}},
                      sys.stdout, indent=2, default=_json_default)
            sys.stdout.write("\n")
        elif lines:
            for line in lines:
                print(line)
            print("settings: " + " ".join(f"{k}={v}" for k, v in settings.items()))
        return code
    except (ConfigError, ParseError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (RadialCapError, OverflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
