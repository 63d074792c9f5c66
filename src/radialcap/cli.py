"""Command-line interface: classify, sweep, capacity, solve, simulate.

Constellation configs are strict UTF-8 JSON files with exactly the fields
``n, m, w, g, lambda, h, tangency`` (unknown fields are rejected so that a
misspelled "lambda" cannot silently flip a verdict).  Exit codes: 0 success
or p-parabolic, 10 inconclusive, 2 input error, 3 numeric failure.  Each
flag is one row of ``_FLAG_TABLE``; one that sets a config field takes that
field's default, which ``--help`` shows.  All tolerances and horizons are
flag-overridable and echoed in the output, in the order of ``_COMMANDS``.
"""

from __future__ import annotations

import argparse
import collections
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


# a flag's type, its default (None: the flag is required), its help and the
# library names an error may give for it (None: its dest)
_Flag = collections.namedtuple("_Flag", "type default help names", defaults=(None,))
_TAIL, _CLASSIFY, _DIFFUSION = TailConfig(), ClassifyConfig(), DiffusionConfig()
_FLAG_TABLE = {
    "--p": _Flag(float, None, "exponent p (>= 2)"),
    "--rho": _Flag(float, 1.0, "inner radius rho (> 0)"),
    "--R": _Flag(float, None, "outer radius R of the annulus (> rho)"),
    "--horizon": _Flag(int, _TAIL.k_max, "tail horizon in doublings of rho", ("k_max",)),
    "--grid-points": _Flag(int, _CLASSIFY.grid_points, "hypothesis grid size"),
    "--conv-eps": _Flag(float, _TAIL.conv_eps, "Cauchy convergence threshold"),
    "--exp-band": _Flag(float, _TAIL.exp_band, "undetermined band around exponent -1"),
    "--rel-tol": _Flag(float, _CLASSIFY.weight_rel_tol, "weight quadrature relative tolerance",
                       ("rel_tol", "weight_rel_tol")),
    "--p-from": _Flag(float, None, "first exponent p of the sweep"),
    "--p-to": _Flag(float, None, "last exponent p of the sweep (>= --p-from)"),
    "--p-step": _Flag(float, 0.5, "step between the exponents (> 0)"),
    "--flux": _Flag(float, 1.0, "boundary flux of the tangency power"),
    "--samples": _Flag(int, 101, "radii from rho to R in the CSV (>= 2)"),
    "--r0": _Flag(float, None, "start radius of every path (between --rin and --rout)"),
    "--rin": _Flag(float, _DIFFUSION.r_inner, "inner barrier radius", ("r_inner",)),
    "--rout": _Flag(float, _DIFFUSION.r_outer, "outer barrier radius", ("r_outer",)),
    "--paths": _Flag(int, _DIFFUSION.paths, "number of Monte Carlo paths"),
    "--dt": _Flag(float, _DIFFUSION.dt, "time step of a path"),
    "--seed": _Flag(int, _DIFFUSION.seed, "random seed"),
    "--max-time": _Flag(float, _DIFFUSION.max_time, "time after which a path is censored"),
}
# the names an input error inside a command can give, as the flags that set them
_FLAGS = {name: flag for flag, row in _FLAG_TABLE.items()
          for name in row.names or (flag[2:].replace("-", "_"),)}
# a name is a whole word that is not part of a flag: "p" but not "--p-step"
_FLAG_RE = re.compile(r"(?<![-\w])(" + "|".join(_FLAGS) + r")(?![-\w])")


@contextlib.contextmanager
def _by_flag():
    """Report an input error raised inside by the flags' names."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(_FLAG_RE.sub(lambda m: _FLAGS[m[0]], str(exc))) from None


def _classify_config(args) -> ClassifyConfig:
    """The flags' ClassifyConfig."""
    tail = TailConfig(k_max=args.horizon, conv_eps=args.conv_eps, exp_band=args.exp_band)
    return ClassifyConfig(grid_points=args.grid_points, tail=tail, weight_rel_tol=args.rel_tol)


def _write_csv(args, header, rows) -> None:
    """CSV to the ``--out`` file, else to stdout unless ``--json`` is given."""
    if args.out is None and args.json:
        return
    with (open(args.out, "w", newline="", encoding="utf-8") if args.out is not None
          else contextlib.nullcontext(sys.stdout)) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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
    check_number("--flux", args.flux, above=0)
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
    check_number("--samples", k, at_least=2)
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

# the classifier's knobs, taken by classify and sweep
_TAIL_FLAGS = ("--horizon", "--grid-points", "--conv-eps", "--exp-band", "--rel-tol")
# a command's help and function, its flags in the order they are declared and
# echoed, whether it takes --out for its CSV, and defaults that replace the table's
_Command = collections.namedtuple("_Command", "help fn flags csv defaults", defaults=(False, None))
_COMMANDS = {
    "classify": _Command("apply the sufficient criteria", cmd_classify,
                         ("--p", "--rho", *_TAIL_FLAGS)),
    "sweep": _Command("classify over a grid of exponents (CSV)", cmd_sweep,
                      ("--p-from", "--p-to", "--p-step", "--rho", *_TAIL_FLAGS), csv=True),
    "capacity": _Command("drifted capacity and upper bound", cmd_capacity,
                         ("--p", "--rho", "--R", "--rel-tol", "--flux"),
                         defaults={"--rel-tol": 1e-11}),
    "solve": _Command("annulus profile: closed form vs ODE (CSV)", cmd_solve,
                      ("--p", "--rho", "--R", "--samples", "--rel-tol"), csv=True,
                      defaults={"--rel-tol": 1e-11}),
    "simulate": _Command("radial diffusion hitting probabilities", cmd_simulate,
                         ("--r0", "--rin", "--rout", "--paths", "--dt", "--seed", "--max-time")),
}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per ``_COMMANDS`` row: the config path, the row's flags
    from ``_FLAG_TABLE``, then ``--out`` for a CSV command and ``--json``.
    The help of a flag that has a default shows it."""
    parser = argparse.ArgumentParser(
        prog="radialcap",
        description="Sufficient p-parabolicity criteria and radial capacities "
                    "on warped-product models")
    parser.add_argument("--version", action="version", version=f"radialcap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, cmd in _COMMANDS.items():
        p = sub.add_parser(command, help=cmd.help)
        p.add_argument("config")
        for flag in cmd.flags:
            row = _FLAG_TABLE[flag]
            default = (cmd.defaults or {}).get(flag, row.default)
            shown = row.help if default is None else f"{row.help} (default %(default)s)"
            p.add_argument(flag, type=row.type, default=default, required=default is None,
                           help=shown)
        if cmd.csv:
            p.add_argument("--out", help="CSV output path (default stdout)")
        p.add_argument("--json", action="store_true")
        p.set_defaults(fn=cmd.fn)
    return parser


# parsing leaves the parser as it was, so one process builds it once
_parser = functools.cache(build_parser)


def main(argv: Optional[list] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        t0 = time.monotonic()
        c = load_config(args.config)
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
                      sys.stdout, indent=2)
            sys.stdout.write("\n")
        elif lines:
            for line in lines:
                print(line)
            print("settings: " + " ".join(f"{k}={v}" for k, v in settings.items()))
        return code
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (RadialCapError, OverflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
