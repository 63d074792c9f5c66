"""Same-answers corpus: record what radialcap answers on a fixed set of cases,
and diff two such records.

    python tools/sameanswers.py record OUT [--root CHECKOUT]
    python tools/sameanswers.py diff A B

``record`` imports radialcap from ``CHECKOUT/src`` (default: the checkout
this script sits in) and writes one JSON object of case id -> answer.  An
answer is a ``repr`` of plain values, a hash of an array, or an error's type
and text; no timing is recorded, so two records of one commit are identical.
Each case id starts with its kind (``classify``, ``classify.ladder``,
``expr.eval_jet2``, ...): partial-integral ladders are recorded apart from
the rest of a verdict, so a last-bit move of a ladder shows as its own kind.
Generated code is recorded as hashes of its text: ``expr.numpy_source`` (the
numpy value and jet functions), ``expr.c_value_d1`` and ``kernel_source``.

``diff`` prints the cases that differ, grouped by kind, and exits 1 if any
case differs or is recorded on one side only.

To compare a change with its parent, check the parent out elsewhere (``git
worktree add`` or ``git clone``) and record each side in its own process:

    python tools/sameanswers.py record /tmp/parent.json --root ../parent
    python tools/sameanswers.py record /tmp/change.json
    python tools/sameanswers.py diff /tmp/parent.json /tmp/change.json

The script uses only names that every recorded commit has, so one copy of
it records both sides.  It needs numpy and nothing else.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import warnings
from collections import defaultdict
from pathlib import Path

import numpy as np

# ---------------------------------------------------------------------------
# answers as text
# ---------------------------------------------------------------------------


def _plain(x):
    """``x`` with numpy scalars, tuples and arrays made plain; arrays become
    their hash."""
    if isinstance(x, np.ndarray):
        a = np.ascontiguousarray(x)
        digest = hashlib.sha256(a.tobytes()).hexdigest()[:16]
        return f"array{a.shape}:{a.dtype}:{digest}"
    if isinstance(x, np.generic):
        return x.item()
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return x


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _typed(*values):
    """Each value with the name of its type, so that a float returned as an
    ndarray or a numpy scalar shows."""
    return [(type(v).__name__, v) for v in values]


def _split_ladders(x):
    """``(x without its "ladder" entries, the ladders found)``, walking
    nested dicts and lists."""
    ladders = []

    def walk(v):
        if isinstance(v, dict):
            out = {}
            for k, w in v.items():
                if k == "ladder":
                    ladders.append([v.get("kind"), w])
                else:
                    out[k] = walk(w)
            return out
        if isinstance(v, list):
            return [walk(w) for w in v]
        return v

    return walk(x), ladders


class Recorder:
    """Case id -> answer text, each case recorded once."""

    def __init__(self):
        self.cases = {}

    def put(self, case: str, value):
        if case in self.cases:
            raise KeyError(f"case recorded twice: {case}")
        self.cases[case] = repr(_plain(value))

    def run(self, case: str, fn, *args):
        """Record ``fn(*args)`` or the error it raises."""
        try:
            value = fn(*args)
        except Exception as exc:  # every error text is an answer
            self.put(case, _error(exc))
            return
        self.put(case, value)

    def run_split(self, case: str, fn):
        """Record the dict ``fn()`` with its ladders apart, under ``case``
        and under ``case`` with ``.ladder`` added to its kind."""
        kind, _, rest = case.partition(":")
        try:
            value = _plain(fn())
        except Exception as exc:
            self.put(case, _error(exc))
            return
        value, ladders = _split_ladders(value)
        self.put(case, value)
        self.put(f"{kind}.ladder:{rest}", ladders)


# ---------------------------------------------------------------------------
# the corpus
# ---------------------------------------------------------------------------

# (name, n, m, w, g, lam, h, tangency)
CONSTELLATIONS = [
    *[(f"euclid{m}", m, m, "r", "1", "0", "0", "lower") for m in range(2, 7)],
    *[(f"hyperbolic{m}", m, m, "sinh(r)", "1", "0", "0", "lower") for m in (2, 3)],
    ("work_guard", 3, 2, "r + 0.3*r^2", "0.9", "0.1/(1 + r)", "0.1/(1 + r)", "lower"),
    ("sinh_g09", 3, 2, "sinh(r)", "0.9", "0", "0", "lower"),
    ("r_exp", 3, 3, "r*exp(0.2*r)", "1", "0", "0", "lower"),
    ("h_rlog", 3, 3, "r", "1", "0", "-0.01*r*log(1 + r)", "lower"),
    ("h_sqrt", 3, 3, "r", "1", "0", "-sqrt(r)", "lower"),
    ("varying_g", 3, 2, "r", "0.9 - 0.1/(1 + r)", "0", "0.1/(1 + r)", "lower"),
    ("upper_sinh_12", 3, 2, "sinh(r)", "1", "coth(r)", "1.2*coth(r)", "upper"),
    ("upper_sinh_14", 3, 2, "sinh(r)", "1", "coth(r)", "1.4*coth(r)", "upper"),
    ("upper_r_sqrt", 3, 3, "r", "1", "0", "0.3*sqrt(r)", "upper"),
    ("osc_sin_m2", 2, 2, "r", "1", "0", "0.2*sin(r)/(1 + r)", "lower"),
    ("h_minus100", 2, 2, "r", "1", "0", "-100", "lower"),
    ("bump", 3, 3, "r", "1", "0", "5*exp(-100*(r - 3)^2)", "lower"),
    ("w_pow_mix", 3, 3, "r*(1 + r^2)^(-1/2) + r^1.5", "1", "0", "0", "lower"),
    ("g_pow", 3, 3, "r^(3/2)", "(1 + r)^(-1/4)", "0", "0", "lower"),
    ("dip_30", 3, 3, "r", "1", "0", "3*exp(-100*(r - 30)^2)", "lower"),
    ("dip_narrow", 3, 3, "r", "1", "0", "2*exp(-1e6*(r - 1.2345)^2)", "lower"),
    ("lam_spike", 3, 3, "r", "1", "1e6*exp(-1e4*r)", "0", "lower"),
    ("h_tiny_r2", 3, 3, "r", "1", "0", "1e-40*r^2", "lower"),
    ("osc_cos_m3", 3, 3, "r", "1", "0", "0.1*cos(3*r)/r", "lower"),
    ("h_near_critical", 3, 3, "r", "1", "0", "-0.000667/(1 + r)", "lower"),
]
CONFIGS = ("euclid3", "hyperbolic2", "coth_dominated", "cylinder_bounded")


def _constellations(rc):
    out = {name: rc.cli.load_config(f"configs/{name}.json") for name in CONFIGS}
    for name, n, m, w, g, lam, h, tang in CONSTELLATIONS:
        out[name] = rc.Constellation.from_functions(n, m, w, g=g, lam=lam, h=h, tangency=tang)
    return out


def _sweep_rows(rc, c, p_step, rho=1.0):
    return [{"p": row.p, "outcome": row.outcome, "error": row.error,
             "alpha_hat": row.alpha_hat, "cap": row.cap_at_horizon,
             "verdict": row.verdict.to_dict() if row.verdict else None}
            for row in rc.sweep(c, 2.0, 8.0, p_step, rho)]


def record_criteria(rec, rc, cs):
    for name, c in cs.items():
        upper = c.tangency.value == "upper"
        for rho in (0.5, 1.0, 2.0):
            for p in (1.5, 2.0, 2.25, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 6.0, 7.25, 8.0):
                rec.run_split(f"classify:{name}:p={p}:rho={rho}",
                              lambda: rc.classify(c, p, rho).to_dict())
            if upper:
                for p in (2.0, 3.0, 4.0):
                    rec.run_split(f"classify_monotone:{name}:q=2:p={p}:rho={rho}",
                                  lambda: rc.classify_monotone(c, 2.0, p, rho).to_dict())

        for p_step in (0.75, 1.5):
            rec.run_split(f"sweep:{name}:step={p_step}",
                          lambda: {"rows": _sweep_rows(rc, c, p_step)})
    # certified intervals of one radius: rho <= 1e-3, the grid's low end, with
    # the horizon capped at rho by k_max = 0 or by h leaving its domain
    euclid3 = cs["euclid3"]
    no_doubling = rc.ClassifyConfig(tail=rc.TailConfig(k_max=0))
    for rho in (1e-4, 1e-3):
        rec.run_split(f"classify:euclid3:p=3.0:rho={rho}:k_max=0",
                      lambda: rc.classify(euclid3, 3.0, rho, no_doubling).to_dict())
    log_h = rc.Constellation.from_functions(3, 3, "r", h="log(0.0015 - r)")
    rec.run_split("classify:log_h_0.0015:p=3.0:rho=0.001",
                  lambda: rc.classify(log_h, 3.0, 1e-3).to_dict())
    rec.run_split("sweep:log_h_0.0015:step=1.5:rho=0.001",
                  lambda: {"rows": _sweep_rows(rc, log_h, 1.5, 1e-3)})


def _drift_coeff(rc):
    """``drift_coeff``, spelled through ``DriftOperator`` on a commit that
    still has the class instead."""
    if hasattr(rc, "drift_coeff"):
        return rc.drift_coeff
    return lambda c, p, r: rc.DriftOperator(c, p).coeff(r)


def record_solves(rec, rc, cs):
    WeightFunction = rc.constellation.WeightFunction
    drift_coeff = _drift_coeff(rc)
    for name, c in cs.items():
        for p in (2.0, 3.0, 4.5):
            for rho in (0.7, 1.0):
                pts = rho * np.array([1.0, 1.1, 1.5, 2.0, 3.0, 3.9, 4.0])
                for R in (4.0 * rho, 40.0 * rho):
                    at = f"{name}:p={p}:rho={rho}:R={R:g}"
                    nodes = rho + (R - rho) * np.linspace(0.0, 1.0, 9)
                    try:
                        closed = rc.solve_dirichlet_closed(c, p, rho, R)
                    except Exception as exc:
                        rec.put(f"solve.closed:{at}", _error(exc))
                    else:
                        rec.run(f"solve.closed:{at}", lambda: [
                            closed.normalizer, closed.profile(nodes), closed.derivative(nodes)])
                        rec.run(f"operator_residual:{at}", rc.operator_residual,
                                c, p, rho, R, closed)
                    rec.run(f"solve.ode:{at}", lambda: vars(rc.solve_dirichlet_ode(c, p, rho, R)))
                    rec.run(f"drifted_capacity:{at}", rc.drifted_capacity, c, p, rho, R)
                    # composed from names every recorded commit has, as the
                    # deleted capacity_upper_bound composed them
                    rec.run(f"capacity_upper_bound:{at}", lambda: rc.dirichlet.flux_bound(
                        rc.drifted_capacity(c, p, rho, R), float(rc.sphere_volume(c.model, rho)),
                        p, 2.0))
                at = f"{name}:p={p}:rho={rho}"
                rec.run(f"coeff:{at}", drift_coeff, c, p, np.geomspace(rho, 50.0 * rho, 101))
                rec.run(f"coeff.scalar:{at}", drift_coeff, c, p, 2.5 * rho)

                def weight():
                    wf = WeightFunction(c, p, rho, 1e-10)
                    return [wf(rho), wf(pts), wf(3.3 * rho), wf.inner_integral(pts),
                            wf.integral(pts), wf.integral(10.0 * rho)]

                rec.run(f"weight:{at}", weight)


def record_oracles(rec, rc):
    models = {"euclid3": rc.ModelSpace.euclidean(3), "hyperbolic2": rc.ModelSpace.hyperbolic(2),
              "r_r3": rc.ModelSpace(3, rc.parse("r + r^3")),
              "r_sqrt": rc.ModelSpace(2, rc.parse("r*(1 + r^2)^(1/2)"))}
    for name, ms in models.items():
        for p in (2.0, 3.0, 4.5):
            for rho, R in ((0.5, 2.0), (1.0, 8.0)):
                rec.run(f"exact_annulus_p_capacity:{name}:p={p}:rho={rho}:R={R}",
                        rc.exact_annulus_p_capacity, ms, rho, R, p)
        for r0 in (0.6, 1.0, 3.0):
            rec.run(f"exact_hitting_prob:{name}:r0={r0}", rc.exact_hitting_prob,
                    ms, r0, 0.5, 4.0)
        rec.run(f"sphere_volume:{name}", rc.sphere_volume, ms, np.array([0.5, 1.0, 3.0]))
    for w in ("r", "sinh(r)", "r - 1", "sqrt(r - 1)", "2*r", "r + 1", "sin(r)", "log(r)"):
        rec.run(f"validate_warping:{w}", lambda: rc.validate_warping(w, r_max=3.0).violations)


def record_tails(rec, rc):
    """classify_tail on plain integrands, among them tails near exponent -1."""
    def broken(t):
        # t^-2 to 2^20, flat at 2^-40 to 2^38, then 2^-40 (t/2^38)^-3: finite
        return np.where(t < 2.0 ** 20, t ** -2.0,
                        np.where(t < 2.0 ** 38, 2.0 ** -40, 2.0 ** -40 * (t / 2.0 ** 38) ** -3.0))

    def bump(t):
        s = t / 2.0 ** 37
        return np.where(s < 1.0, s ** 3, s ** -3.0)

    def log_periodic(t):
        # t^-0.5 (1.5 + sin(2 pi log2(t) / 3)): divergent, increments oscillate
        return t ** -0.5 * (1.5 + np.sin(2.0 * np.pi * np.log2(t) / 3.0))

    tails = {f"t^{a}": (lambda a: lambda t: t ** a)(a)
             for a in (-0.5, -1.0, -1.0005, -1.001, -1.0014, -1.0015, -1.02, -1.1, -1.5, -2.0)}
    tails.update({"1/(t log t)": lambda t: 1.0 / (t * np.log(t + 1.0)),
                  "exp(-t)": lambda t: np.exp(-t), "exp(t)": np.exp,
                  "(2+sin t)/t^2": lambda t: (2.0 + np.sin(t)) / t ** 2,
                  "broken_power": broken, "bump_2^37": bump, "log_periodic": log_periodic})
    for name, f in tails.items():
        for rho in (1.0, 3.0):
            rec.run_split(f"classify_tail:{name}:rho={rho}",
                          lambda: rc.classify_tail(f, rho).to_dict())


# fixed expressions: the configs', the round-trip corpus, every exponent form
EXPRESSIONS = [
    "r", "sinh(r)", "coth(r)", "tanh(r)", "cosh(r) - 1", "1/(r*log(r))", "log(r)",
    "sqrt(r)", "abs(r - 2) + sqrt(r)", "2.5e-3*r + 1e2", "r^2 + 3*r", "-r^2", "2^-3",
    "r^2^3", "(r + 1)/(r - 1)*2", "r - r - r", "r/(2/r)", "-(r + 1)", "3*-r",
    "exp(r^3)", "r*exp(0.2*r)", "r + 0.3*r^2", "0.1/(1 + r)", "1.2*coth(r)",
    "0.2*sin(r)/(1 + r)", "0.1*cos(3*r)/r", "-0.01*r*log(1 + r)", "1e6*exp(-1e4*r)",
    "1e-40*r^2", "3*exp(-100*(r - 30)^2)", "2*exp(-1e6*(r - 1.2345)^2)",
    "r*(1 + r^2)^(-1/2) + r^1.5", "(1 + r)^(-1/4)", "r^(3/2)", "r^r", "(r - 1)^2.5",
    "(r - 1)^2", "(r - 1)^3", "(r - 1)^0.5", "(r - 1)^-1", "(r - 1)^-2", "(r - 1)^0",
    "(r - 1)^1", "0^-1", "0^0", "0^2", "0^0.5", "(-2)^2", "(-2)^0.5", "(-2)^r", "r^0^-1",
    "r^(1 - 1)", "r^(2*1)", "(r - 2)^(r - 1)", "sqrt(r - 1)", "abs(r - 1)", "log(r - 1)",
    "coth(r - 1)", "1/(r - 1)", "exp(1000*r)", "sinh(800*r)", "r − 1", "r × 2 ÷ 3",
    "sqrt(-1)", "log(0)", "1/0", "-r^-0.5", "2^r^0.5", "r^-r",
]
# texts that do not parse
BAD_TEXTS = [
    "r $ 2", "sin(r) r", "r + * 2", "sinh r", "(r + 1", "", "   ", "r +", "sin(", "2..3",
    "q(r)", "sinh(q)", ")", "r^", "((r)", "r r", "--r", "r--r", "1e", "sin()", "r)",
    "*r", "r/", "x", "pi*r", "r^^2", "(", "3 4", "sin(r", "exp r",
]
# seeded random texts after EXPRESSIONS; the case ids depend on this count
N_RANDOM = 1900
_UNARY = ("sin", "cos", "sinh", "cosh", "tanh", "coth", "exp", "log", "sqrt", "abs")
_EXPONENTS = ("2", "3", "0.5", "1.5", "2.5", "-1", "-2", "0", "1", "(1/2)", "-(3/2)",
              "(2 - 1)", "r")


def _random_text(rng: random.Random, depth: int) -> str:
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(("r", "r", "0.5", "2", "1.7", "0", "1"))
    kind = rng.random()
    if kind < 0.3:
        return f"{rng.choice(_UNARY)}({_random_text(rng, depth - 1)})"
    if kind < 0.4:
        return f"-({_random_text(rng, depth - 1)})"
    if kind < 0.55:
        expo = rng.choice(_EXPONENTS) if rng.random() < 0.8 else _random_text(rng, depth - 1)
        return f"({_random_text(rng, depth - 1)})^({expo})"
    op = rng.choice("+-*/")
    return f"({_random_text(rng, depth - 1)}) {op} ({_random_text(rng, depth - 1)})"


def _numpy_sources(expr, e) -> str:
    """The generated numpy value and jet sources of ``e``: the text that
    ``_numpy_fn`` hands to ``_exec`` last (an exponent without ``r`` is
    compiled and evaluated first, while the code is generated)."""
    compile_src, handed, outer = expr._exec, [], []
    expr._exec = lambda src: handed.append(src) or compile_src(src)
    try:
        for mode in ("value", "jet"):
            expr._numpy_fn(e.root, mode)
            outer.append(handed[-1])
    finally:
        expr._exec = compile_src
    return "".join(outer)


def record_expressions(rec, rc):
    expr = rc.expr
    rng = random.Random(20261019)
    texts = list(EXPRESSIONS) + [_random_text(rng, rng.randint(1, 4)) for _ in range(N_RANDOM)]
    points = np.concatenate([np.geomspace(1e-3, 1e3, 29), [0.5, 1.0, 1.5, 2.0, 3.0, 700.0,
                                                           710.0, 1.2345]])
    scalars = (1.0, 2.5, 1e-3)
    for i, text in enumerate(texts + BAD_TEXTS):
        at = f"{i}:{text}"
        try:
            e = rc.parse(text)
        except Exception as exc:
            extra = [getattr(exc, "position", None), list(getattr(exc, "expected", ()))]
            rec.put(f"expr.parse:{at}", [_error(exc)] + extra)
            continue
        rec.put(f"expr.parse:{at}", str(e))
        rec.run(f"expr.evaluate:{at}", lambda: _typed(rc.evaluate(e, points)))
        rec.run(f"expr.eval_jet2:{at}", lambda: _typed(*vars(rc.eval_jet2(e, points)).values()))
        for r in scalars:
            rec.run(f"expr.evaluate.scalar:{at}:r={r}", lambda: _typed(rc.evaluate(e, r)))
            rec.run(f"expr.eval_jet2.scalar:{at}:r={r}",
                    lambda: _typed(*vars(rc.eval_jet2(e, r)).values()))
        rec.run(f"expr.c_value_d1:{at}",
                lambda: hashlib.sha256(expr.c_value_d1(e).encode()).hexdigest()[:16])
        rec.run(f"expr.numpy_source:{at}", lambda: hashlib.sha256(
            _numpy_sources(expr, e).encode()).hexdigest()[:16])
    # a parse of a non-string is a TypeError
    rec.run("expr.parse:non-string", rc.parse, 3)


def record_diffusion(rec, rc, cs):
    d = rc.diffusion
    grid = {
        "mid": np.linspace(0.02425, 1.0 - 0.02425, 20001),
        "low": np.geomspace(1e-300, 0.02425, 2001),
        "high": 1.0 - np.geomspace(1.1102230246251565e-16, 0.02425, 2001),
    }
    for name, ps in grid.items():
        rec.run(f"icdf:{name}", d._norm_icdf_np, ps)
    rec.run("icdf:uniforms", lambda: d._norm_icdf_np(
        d._uniform_np(np.arange(4096, dtype=np.uint64) * np.uint64(7919), 3)))
    for w in sorted({str(c.model.w) for c in cs.values()}):
        rec.run(f"kernel_source:{w}", lambda: hashlib.sha256(
            d._kernel_source(rc.parse(w)).encode()).hexdigest()[:16])
    models = {"euclid3": rc.ModelSpace.euclidean(3), "hyperbolic2": rc.ModelSpace.hyperbolic(2),
              "r_r3": rc.ModelSpace(3, rc.parse("r + r^3"))}
    for name, ms in models.items():
        for seed in (0, 1, 7):
            cfg = rc.DiffusionConfig(dt=1e-3, paths=400, seed=seed, r_inner=0.5,
                                     r_outer=2.0, max_time=2.0)
            rec.run(f"paths.numpy:{name}:seed={seed}", lambda: list(
                d._simulate_numpy(ms, 1.0, cfg, int(cfg.max_time / cfg.dt))))


# CLI invocations with a flag that is not a finite number, a negative tolerance or
# a value out of range
BAD_NUMBER_ARGV = [
    *[[cmd, "configs/euclid3.json", *flags] for cmd in ("capacity", "solve")
      for flags in (["--p", "nan", "--R", "2"], ["--p", "inf", "--R", "2"],
                    ["--p", "3", "--R", "inf"], ["--p", "3", "--R", "2", "--rel-tol", "nan"],
                    ["--p", "3", "--R", "2", "--rel-tol", "-1"])],
    *[["simulate", "configs/euclid3.json", "--r0", "1", "--paths", "100", *flags]
      for flags in (["--dt", "nan"], ["--max-time", "inf"], ["--rout", "inf"], ["--dt", "-1"],
                    ["--paths", "0"], ["--max-time", "-1"], ["--rin", "0"], ["--rin", "2"])],
    ["sweep", "configs/euclid3.json", "--p-from", "2", "--p-to", "3", "--p-step", "0"],
    ["capacity", "configs/euclid3.json", "--p", "3", "--rho", "3", "--R", "2"],
    ["capacity", "configs/euclid3.json", "--p", "1.5", "--R", "2"],
    ["classify", "configs/euclid3.json", "--p", "3", "--horizon", "0", "--rho", "1e-3"],
    ["sweep", "configs/euclid3.json", "--p-from", "2", "--p-to", "8", "--p-step", "5e-324"],
    ["sweep", "configs/euclid3.json", "--p-from=-1e308", "--p-to", "1e308"],
    ["capacity", "configs/euclid3.json", "--p", "1000", "--R", "1.01"],
    ["capacity", "configs/euclid3.json", "--p", "3", "--R", "1.5", "--flux", "1e308"],
]
# a sweep one row past the bound, run with a classify that raises, so a
# commit that does not bound the rows stops at its first row
ROW_BOUND_ARGV = ["sweep", "configs/euclid3.json", "--p-from", "2", "--p-to", "8",
                  "--p-step", str(6.0 / 10_000)]
# a step below 1e-12: 1,001 rows, of which 101 exponents are distinct
REPEAT_ARGV = ["sweep", "configs/euclid3.json", "--p-from", "2", "--p-to", "2.0000000001",
               "--p-step", "1e-13"]


def _cli(rc, argv):
    """``(exit code, stderr, output without timings, ladders)`` of one
    in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = rc.cli.main(list(argv))
    try:
        doc = json.loads(out.getvalue())
        doc.pop("timings", None)
    except ValueError:
        doc = out.getvalue()
    doc, ladders = _split_ladders(doc)
    return code, err.getvalue(), doc, ladders


def record_cli(rec, rc, root: Path):
    reference = json.loads((root / "perfbench" / "reference.json").read_text())
    for i, case in enumerate(reference["cli"]):
        code, err, doc, ladders = _cli(rc, case["argv"])
        at = f"{i}:{' '.join(case['argv'])}"
        rec.put(f"cli:{at}", [code, err, doc])
        rec.put(f"cli.ladder:{at}", ladders)


def record_bad_numbers(rec, rc):
    """Numeric inputs that are not finite, not an integer, a negative
    tolerance, or a value out of range, through the library and the CLI."""
    nan, inf = float("nan"), float("inf")
    c = rc.Constellation.from_functions(3, 3, "r")
    drift_coeff = _drift_coeff(rc)

    def weight(p, rel_tol):
        wf = rc.constellation.WeightFunction(c, p, 1.0, rel_tol)
        return [wf(2.0), wf.integral(4.0)]

    rec.run("bad_number:balance:p=nan", rc.balance, c, nan, 1.0)
    rec.run("bad_number:balance_sign:p=nan",
            lambda: rc.balance_sign(c, nan, (0.1, 10.0)).to_dict())
    rec.run("bad_number:coeff:p=nan", drift_coeff, c, nan, 1.0)
    rec.run("bad_number:weight:p=nan", weight, nan, 1e-10)
    rec.run("bad_number:weight:rel_tol=nan", weight, 3.0, nan)
    rec.run("bad_number:weight:rel_tol=-1e-10", weight, 3.0, -1e-10)
    rec.run("bad_number:solve.closed:R=inf",
            lambda: rc.solve_dirichlet_closed(c, 3.0, 1.0, inf).normalizer)
    for name in ("dt", "r_outer", "max_time"):
        rec.run(f"bad_number:DiffusionConfig:{name}",
                lambda: repr(rc.DiffusionConfig(**{name: inf})))
    for x in (nan, inf):
        rec.run(f"bad_number:validate_warping:r_max={x}",
                lambda: rc.validate_warping("r", r_max=x).violations)
        rec.run(f"bad_number:weight:rho={x}",
                lambda: rc.constellation.WeightFunction(c, 3.0, x)(2.0))
        rec.run(f"bad_number:flux_bound:boundary_flux={x}",
                rc.dirichlet.flux_bound, 1.0, 1.0, 3.0, x)
    for steps in (nan, 150.5):
        rec.run(f"bad_number:solve.ode:step_count={steps}",
                lambda: vars(rc.solve_dirichlet_ode(c, 3.0, 1.0, 4.0, step_count=steps)))
    for name, args in (("p=nan", (1.0, 1.0, nan, 1.0)), ("cap=nan", (nan, 1.0, 3.0, 1.0)),
                       ("vol=0", (1.0, 0.0, 3.0, 1.0))):
        rec.run(f"bad_number:flux_bound:{name}", rc.dirichlet.flux_bound, *args)
    rec.run("bad_number:balance_sign:hi=inf",
            lambda: rc.balance_sign(c, 3.0, (1.0, inf)).to_dict())
    rec.run("bad_number:exact_annulus_p_capacity:p=inf",
            rc.exact_annulus_p_capacity, rc.ModelSpace.euclidean(3), 1.0, 2.0, inf)
    for name in ("paths", "seed"):
        rec.run(f"bad_number:DiffusionConfig:{name}=1.5",
                lambda: repr(rc.DiffusionConfig(**{name: 1.5})))
    rec.run("bad_number:ModelSpace:m=nan", lambda: repr(rc.ModelSpace(nan, "r")))
    rec.run("bad_number:Constellation:n=3.5",
            lambda: rc.Constellation.from_functions(3.5, 3, "r").n)
    rec.run("bad_number:TailConfig:k_max=True", lambda: repr(rc.TailConfig(k_max=True)))
    sol = rc.solve_dirichlet_closed(c, 3.0, 1.0, 2.0)
    for rho, R in ((1.0, inf), (nan, 2.0), (2.0, 1.0)):
        rec.run(f"bad_number:operator_residual:rho={rho},R={R}",
                rc.operator_residual, c, 3.0, rho, R, sol)
    for p in (nan, 1.5):
        rec.run(f"bad_number:operator_residual:p={p}", rc.operator_residual, c, p, 1.0, 2.0, sol)
    rec.run("bad_number:profile:r=nan", sol.profile, nan)
    for x in (nan, inf):
        rec.run(f"bad_number:derivative:r={x}", sol.derivative, x)
        rec.run(f"bad_number:sweep:rho={x}", lambda: len(rc.sweep(c, 2.0, 3.0, 0.5, x)))
    rec.run("bad_number:sphere_volume:r=inf", rc.sphere_volume, rc.ModelSpace.euclidean(3), inf)
    for size in (0, 1, 2.5):
        rec.run(f"bad_number:balance_sign:grid_size={size}",
                lambda: rc.balance_sign(c, 3.0, (0.1, 10.0), size).to_dict())
    rec.run("bad_number:unit_sphere_volume:m=nan", rc.model.unit_sphere_volume, nan)
    for rho in (0.0, -1.0):
        rec.run(f"bad_number:exact_hitting_prob:rho={rho}",
                rc.exact_hitting_prob, rc.ModelSpace.euclidean(3), 1.0, rho, 8.0)
    # a radius below the base, through every query of a solution and its weight
    for h in ("0", "0.1"):
        probe = rc.solve_dirichlet_closed(rc.Constellation.from_functions(3, 3, "r", h=h),
                                          3.0, 1.0, 2.0)
        for name, query in (("profile", probe.profile), ("derivative", probe.derivative),
                            ("weight", probe.weight), ("integral", probe.weight.integral),
                            ("inner_integral", probe.weight.inner_integral)):
            for r in (0.5, 0.0, -inf, np.array([1.5, 0.5])):
                rec.run(f"bad_number:{name}:h={h},r={r}", query, r)
    # a warping that is not positive on the oracle's interval
    for R in (0.9, 4.0):
        rec.run(f"bad_number:exact_hitting_prob:w=r-1,R={R}",
                rc.exact_hitting_prob, rc.ModelSpace(3, "r - 1"), 0.7, 0.5, R)
    # a tangency that is neither side
    for tangency in (None, 5, True, "side"):
        rec.run(f"bad_number:Constellation:tangency={tangency!r}", lambda: repr(
            rc.Constellation.from_functions(3, 3, "r", g="0.5", h="0.5/r", tangency=tangency)))
    # a sweep row count past float range, one row past the bound, or a step
    # that repeats rows
    for args in ((2.0, 8.0, 5e-324), (-1e308, 1e308, 1.0)):
        rec.run(f"bad_number:sweep:range={args}", lambda: len(rc.sweep(c, *args, 1.0)))

    def first_row(*args):
        raise RuntimeError("the sweep classified a row")

    classify, rc.criteria.classify = rc.criteria.classify, first_row
    try:
        rec.run("bad_number:sweep:rows=10001",
                lambda: len(rc.sweep(c, 2.0, 8.0, 6.0 / 10_000, 1.0)))
        rec.run("bad_number:sweep:step=1e-13",
                lambda: len(rc.sweep(c, 2.0, 2.0 + 1e-10, 1e-13, 1.0)))
        for argv in (ROW_BOUND_ARGV, REPEAT_ARGV):
            rec.run(f"bad_number:cli:{' '.join(argv)}", lambda: _cli(rc, argv)[:3])
    finally:
        rc.criteria.classify = classify
    # a capacity upper bound past float range, from the power and the product
    for args in ((100.0, 1.0, 1000.0, 1.0), (2.0, 1.0, 3.0, 1e308)):
        rec.run(f"bad_number:flux_bound:args={args}", rc.dirichlet.flux_bound, *args)
    for argv in BAD_NUMBER_ARGV:
        rec.run(f"bad_number:cli:{' '.join(argv)}", lambda: _cli(rc, argv)[:3])


def record(out: Path, root: Path) -> int:
    sys.path.insert(0, str(root / "src"))
    os.chdir(root)
    import radialcap as rc
    import radialcap.cli
    import radialcap.constellation
    import radialcap.criteria
    import radialcap.diffusion
    import radialcap.expr  # noqa: F401

    warnings.simplefilter("ignore")
    rec = Recorder()
    cs = _constellations(rc)
    record_expressions(rec, rc)
    record_diffusion(rec, rc, cs)
    record_oracles(rec, rc)
    record_tails(rec, rc)
    record_solves(rec, rc, cs)
    record_criteria(rec, rc, cs)
    record_cli(rec, rc, root)
    record_bad_numbers(rec, rc)
    out.write_text(json.dumps(rec.cases, indent=0, sort_keys=True) + "\n")
    print(f"{len(rec.cases)} cases from {Path(rc.__file__).parent} -> {out}")
    return 0


def diff(a_path: Path, b_path: Path) -> int:
    a = json.loads(a_path.read_text())
    b = json.loads(b_path.read_text())
    groups = defaultdict(list)
    for case in sorted(set(a) | set(b)):
        if a.get(case) != b.get(case):
            groups[case.partition(":")[0]].append(case)
    total = sum(len(v) for v in groups.values())
    print(f"{len(a)} cases in {a_path}, {len(b)} in {b_path}: {total} differ")
    for kind, cases in sorted(groups.items()):
        print(f"\n[{kind}] {len(cases)} differ")
        for case in cases:
            print(f"  {case}\n    - {a.get(case, '<absent>')[:400]}\n"
                  f"    + {b.get(case, '<absent>')[:400]}")
    return 1 if total else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="record the corpus's answers to a JSON file")
    rec.add_argument("out", type=Path)
    rec.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                     help="checkout whose src/radialcap is recorded (default: this one)")
    dif = sub.add_parser("diff", help="print the cases two records answer differently")
    dif.add_argument("a", type=Path)
    dif.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "record":
        return record(args.out.resolve(), args.root.resolve())
    return diff(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
