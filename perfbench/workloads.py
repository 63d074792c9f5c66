"""The four benchmark workloads: inputs drawn from a seed, the timed op, and
the reference check every op result must pass.

Each workload builds a schedule of ops from ``random.Random(seed)``; the
program only ever receives those generated inputs.  ``run`` is the timed
call; ``check`` is the client-side oracle and returns ``None`` when the
result is correct, otherwise a one-line reason.  Tolerances are those of the
repository's acceptance suite.

Program functions are looked up on their module at call time (``rc.classify``,
not a name bound at import), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import radialcap as rc
import radialcap.cli
import radialcap.model

HERE = Path(__file__).resolve().parent
P_GRID = [2.0 + 0.5 * i for i in range(13)]          # 2, 2.5, ..., 8


def load_reference() -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


def config_names(root: Path) -> list:
    return sorted(p.stem for p in (root / "configs").glob("*.json"))


# ---------------------------------------------------------------------------
# verdicts: one op is one classify(c, p, rho) call
# ---------------------------------------------------------------------------

class Verdicts:
    """Space-form self-models and every config over p in {2, 2.5, ..., 8};
    rho is drawn log-uniform in [0.5, 2] per op (verdicts do not depend on
    it), and each cycle over the cells is shuffled."""

    cycles = 8

    def __init__(self, root: Path, reference: dict):
        self.models = [(f"euclid{m}", rc.Constellation.self_model(rc.ModelSpace.euclidean(m)),
                        lambda p, m=m: ("p_parabolic", "theorem_lower_tangency", None)
                        if p >= m else ("inconclusive", None, "tail_convergent"))
                       for m in range(2, 7)]
        self.models += [(f"hyperbolic{m}", rc.Constellation.self_model(rc.ModelSpace.hyperbolic(m)),
                         lambda p: ("inconclusive", None, "tail_convergent"))
                        for m in (2, 3)]
        recorded = reference["verdicts"]
        for name in config_names(root):
            c = radialcap.cli.load_config(str(root / "configs" / f"{name}.json"))
            self.models.append((name, c, lambda p, rec=recorded[name]: tuple(rec[f"{p:g}"])))
        self.cycle_len = self.trace_ops = len(self.models) * len(P_GRID)

    def build(self, rng: random.Random) -> list:
        cells = [(name, c, p, expect(p)) for name, c, expect in self.models for p in P_GRID]
        ops = []
        for _ in range(self.cycles):
            cycle = [(name, c, p, math.exp(rng.uniform(math.log(0.5), math.log(2.0))), want)
                     for name, c, p, want in cells]
            rng.shuffle(cycle)
            ops.extend(cycle)
        return ops

    def warmup(self) -> list:
        name, c, expect = self.models[1]                 # euclid3 at p = 3
        return [(name, c, 3.0, 1.0, expect(3.0))]

    @staticmethod
    def label(op) -> str:
        return op[0]

    @staticmethod
    def run(op):
        _, c, p, rho, _ = op
        return rc.classify(c, p, rho)

    @staticmethod
    def check(op, verdict):
        name, _, p, rho, want = op
        reason = verdict.reason.code if verdict.reason else None
        got = (verdict.outcome, verdict.by, reason)
        if got != want:
            return f"{name} p={p:g} rho={rho:.4g}: got {got}, want {want}"
        return None


# ---------------------------------------------------------------------------
# profiles: one op is a closed-form vs RK4 cross-check on one constellation
# ---------------------------------------------------------------------------

def _lower_case(rng):
    """Criterion-04 lower-tangency family (balance stays non-negative)."""
    w = rng.choice(["r", "sinh(r)", "r + 0.3*r^2", "r*exp(0.2*r)"])
    g = rng.choice(["1", "0.9", "0.8"])
    h = f"{rng.uniform(0.0, 0.2):.3f}/(1 + r)"
    lam = f"{rng.uniform(0.0, 0.2):.3f}/(1 + r)"
    m = rng.choice([2, 3, 4])
    c = rc.Constellation.from_functions(m + 1, m, w, g=g, lam=lam, h=h, tangency="lower")
    rho = rng.uniform(0.6, 0.9)
    return ("lower", c, rng.uniform(2.0, 3.0), rho, rng.uniform(2.5, 4.0), None)


def _upper_case(rng):
    """Criterion-04 upper-tangency family (balance stays non-positive)."""
    m = rng.choice([2, 3, 4])
    cc = rng.uniform(1.0, 1.5)
    c = rc.Constellation.from_functions(m + 1, m, "sinh(r)", lam="coth(r)",
                                        h=f"{cc:.3f}*coth(r)", tangency="upper")
    return ("upper", c, rng.uniform(2.0, 4.0), rng.uniform(0.5, 1.0), rng.uniform(2.5, 5.0), None)


def _self_case(rng, kind):
    """Self-model with a short annulus for the profile and a long one for the
    capacity: up to 1e4*rho for Euclidean, up to 40*rho for hyperbolic (its
    warping overflows past r ~ 710)."""
    if kind == "euclid":
        m = rng.choice([2, 3, 4, 5, 6])
        ms, top = rc.ModelSpace.euclidean(m), 1e4
    else:
        m = rng.choice([2, 3])
        ms, top = rc.ModelSpace.hyperbolic(m), 40.0
    rho = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
    R = rho * rng.uniform(2.5, 5.0)
    R_cap = rho * math.exp(rng.uniform(math.log(2.0), math.log(top)))
    return (f"{kind}{m}", rc.Constellation.self_model(ms), rng.uniform(2.0, 4.0), rho, R, R_cap)


class Profiles:
    """Each cycle of eight holds three constellations of each criterion-04
    family, one Euclidean and one hyperbolic self-model, in seeded order."""

    steps = 1000
    cycles = 40
    cycle_len = 8
    trace_ops = 24
    node_tol = 1e-6
    residual_tol = 1e-6
    capacity_tol = 1e-8

    def __init__(self, root: Path, reference: dict):
        pass

    def build(self, rng: random.Random) -> list:
        ops = []
        for _ in range(self.cycles):
            cycle = [_lower_case(rng) for _ in range(3)] + [_upper_case(rng) for _ in range(3)]
            cycle += [_self_case(rng, "euclid"), _self_case(rng, "hyperbolic")]
            rng.shuffle(cycle)
            ops.extend(cycle)
        return ops

    @staticmethod
    def warmup() -> list:
        c = rc.Constellation.self_model(rc.ModelSpace.euclidean(3))
        return [("euclid3", c, 2.0, 1.0, 2.0, 1e4)]

    @staticmethod
    def label(op) -> str:
        return op[0]

    @classmethod
    def run(cls, op):
        _, c, p, rho, R, R_cap = op
        sol = rc.solve_dirichlet_closed(c, p, rho, R)
        ode = rc.solve_dirichlet_ode(c, p, rho, R, step_count=cls.steps)
        psi = np.asarray(sol.profile(ode.nodes))
        residual = rc.operator_residual(c, p, rho, R, sol)
        cap = rc.drifted_capacity(c, p, rho, R_cap if R_cap is not None else R)
        return float(np.max(np.abs(ode.psi - psi))), residual, cap

    @classmethod
    def check(cls, op, result):
        name, c, p, rho, R, R_cap = op
        node_err, residual, cap = result
        where = f"{name} p={p:.4g} rho={rho:.4g} R={R:.4g}"
        if not node_err <= cls.node_tol:
            return f"{where}: node error {node_err:.3g} > {cls.node_tol:g}"
        if not residual <= cls.residual_tol:
            return f"{where}: operator residual {residual:.3g} > {cls.residual_tol:g}"
        if not (math.isfinite(cap) and cap > 0.0):
            return f"{where}: capacity {cap!r} not positive"
        if R_cap is None:
            return None
        # For a self-model the weight is w(rho)^a w^((1-m)/(p-1)) with
        # a = (m+p-2)/(p-1), so cap = omega w(rho)^(m-a) / J with
        # J = int_rho^R w^((1-m)/(p-1)); the exact p-capacity is
        # omega J^(1-p).  At p = 2 the two capacities coincide.
        ms = c.model
        omega = radialcap.model.unit_sphere_volume(ms.m)
        w_rho = float(rc.evaluate(ms.w, rho))
        J = omega * w_rho ** ((ms.m - 1) * (p - 2.0) / (p - 1.0)) / cap
        exact = rc.exact_annulus_p_capacity(ms, rho, R_cap, p)
        implied = omega * J ** (1.0 - p)
        if not abs(implied - exact) <= cls.capacity_tol * exact:
            return (f"{where} R_cap={R_cap:.4g}: capacity implies {implied!r}, "
                    f"exact annulus capacity {exact!r}")
        return None


# ---------------------------------------------------------------------------
# hitting: one op is one simulate_radial call on the default backend
# ---------------------------------------------------------------------------

class Hitting:
    """Euclidean m=2, m=3 and hyperbolic m=2 at fixed dt and barriers.  The
    seed draws 16 ``DiffusionConfig`` seeds per model from a pool of 64,
    all of which pass the check at the commit that recorded them, so a run
    checks 48 distinct simulations and repeats them."""

    r0, r_inner, r_outer = 1.0, 0.75, 1.5
    dt = 2e-3
    paths = 512
    seeds_per_model = 16
    cycle_len = 48
    trace_ops = 12
    sigmas = 4.0

    def __init__(self, root: Path, reference: dict):
        self.models = [("euclid2", rc.ModelSpace.euclidean(2)),
                       ("euclid3", rc.ModelSpace.euclidean(3)),
                       ("hyperbolic2", rc.ModelSpace.hyperbolic(2))]
        self.pool = [self._op(name, ms, seed) for name, ms in self.models
                     for seed in reference["hitting_seeds"]]

    def _op(self, name, ms, seed):
        return (name, ms, rc.DiffusionConfig(dt=self.dt, paths=self.paths, seed=seed,
                                             r_inner=self.r_inner, r_outer=self.r_outer))

    def build(self, rng: random.Random) -> list:
        ops = []
        for name, _ in self.models:
            ops += rng.sample([op for op in self.pool if op[0] == name], self.seeds_per_model)
        rng.shuffle(ops)
        return ops

    def warmup(self) -> list:
        """One op per model, so that per-expression set-up (a compiled
        kernel, say) is paid before timing."""
        return [self._op(name, ms, 0) for name, ms in self.models]

    @staticmethod
    def label(op) -> str:
        return op[0]

    @classmethod
    def run(cls, op):
        _, ms, cfg = op
        return rc.simulate_radial(ms, cls.r0, cfg)

    @classmethod
    def check(cls, op, stats):
        name, ms, cfg = op
        exact = rc.exact_hitting_prob(ms, cls.r0, cfg.r_inner, cfg.r_outer)
        dev = abs(stats.p_inner - exact)
        if stats.censored or not dev <= cls.sigmas * stats.stderr:
            return (f"{name} seed={cfg.seed}: p_inner={stats.p_inner} vs exact {exact:.6f} "
                    f"(stderr {stats.stderr:.4g}, censored {stats.censored})")
        return None


# ---------------------------------------------------------------------------
# cli: one op is one in-process radialcap.cli.main(argv) call with --json
# ---------------------------------------------------------------------------

# outcome keys whose value is an error measure: checked against a bound, not
# against the recorded number
_ERROR_BOUNDS = {"max_abs_diff": 1e-6, "operator_residual": 1e-6}
# absolute tolerance of fitted exponents (acceptance criterion 10)
_ABS_TOLS = {"alpha_hat": 0.02}
# relative tolerance of the convergent tail value (the golden JSON test)
_REL_TOLS = {"value": 1e-7}
_DEFAULT_REL_TOL = 1e-8          # capacities (acceptance criterion 3)
_IGNORED = {"message", "witnesses"}


def _compare(got, want, key="") -> str:
    """'' when ``got`` matches the recorded ``want``, else the first
    mismatch."""
    if key in _ERROR_BOUNDS:
        ok = isinstance(got, (int, float)) and got <= _ERROR_BOUNDS[key]
        return "" if ok else f"{key}={got!r} > {_ERROR_BOUNDS[key]:g}"
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return f"{key}: keys {sorted(got) if isinstance(got, dict) else got!r}"
        for k in want:
            if k not in _IGNORED:
                bad = _compare(got[k], want[k], k)
                if bad:
                    return bad
        return ""
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{key}: length differs"
        for g, w in zip(got, want):
            bad = _compare(g, w, key)
            if bad:
                return bad
        return ""
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if key in _ABS_TOLS:
            ok = abs(got - want) <= _ABS_TOLS[key]
        else:
            ok = abs(got - want) <= _REL_TOLS.get(key, _DEFAULT_REL_TOL) * abs(want)
        return "" if ok else f"{key}={got!r}, recorded {want!r}"
    return "" if got == want else f"{key}={got!r}, recorded {want!r}"


class Cli:
    """``classify``, ``sweep``, ``capacity`` and ``solve`` on every config,
    with the argument lists recorded in reference.json; each cycle over them
    is shuffled."""

    cycles = 8

    def __init__(self, root: Path, reference: dict):
        self.cases = [(case["argv"], case["exit"], case["outcome"])
                      for case in reference["cli"]]
        self.cycle_len = self.trace_ops = len(self.cases)

    def build(self, rng: random.Random) -> list:
        ops = []
        for _ in range(self.cycles):
            cycle = list(self.cases)
            rng.shuffle(cycle)
            ops.extend(cycle)
        return ops

    def warmup(self) -> list:
        return self.cases[:1]

    @staticmethod
    def label(op) -> str:
        return f"{op[0][0]} {Path(op[0][1]).stem}"

    @staticmethod
    def run(op):
        argv = op[0]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = radialcap.cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def check(op, result):
        argv, want_code, want_outcome = op
        code, out, err = result
        where = " ".join(argv[:2])
        if code != want_code:
            return f"{where}: exit {code}, recorded {want_code} ({err.strip()[:200]})"
        try:
            outcome = json.loads(out)["outcome"]
        except (ValueError, KeyError) as exc:
            return f"{where}: no JSON outcome ({exc})"
        bad = _compare(outcome, want_outcome)
        return f"{where}: {bad}" if bad else None


WORKLOADS = {"verdicts": Verdicts, "profiles": Profiles, "hitting": Hitting, "cli": Cli}
