"""Decision engine: sufficient criteria for p-parabolicity of the
submanifold described by a comparison constellation.

Lower tangency requires a non-negative balance and a divergent weight
integral; upper tangency requires a non-positive balance and divergence of
the g == 1 weight.  Two shortcut corollaries cover warping functions bounded
below by a positive constant and monotonicity in p.  The criteria are
sufficient only: the engine never claims hyperbolicity, it answers
"p-parabolic" or "inconclusive" with structured evidence.

Hypotheses are certified numerically on a geometric grid from
``min(rho, 1e-3)`` out to the certified horizon, the largest doubling radius
``rho * 2**k`` (k <= k_max) at which the balance is finite, not on all of
``(0, infinity)``; the tail ladder and its exponent fit stay inside it, and
every verdict carries the certified interval.  With rho <= 1e-3 and the
horizon at rho that interval is the one radius rho, where the grid samples
and the tail, with no doubling, is undetermined.

All three criteria run one pipeline: the p >= 2 guard, the certified
horizon, the model warnings, then the criterion's ordered stages (sandwich,
balance sign, the monotone comparisons, bounded warping, tail).  The two
grid hypotheses, the balance sign and the sandwich, share one violation
rule (``_violations``): a radius where one fails or reads NaN makes it
``balance_fails``, witnessed by the first five such radii.  Each stage
adds one ``(name, passed, detail)`` row to ``Verdict.checks`` and the first
that fails ends the run with its reason::

    classify(Constellation.from_functions(3, 3, "r"), 3.0, 1.0).checks
    # (('balance_non_negative', True, 'certified on grid'),
    #  ('weight_integral_diverges', True, 'per-doubling increments non-decreasing'))
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .constellation import (
    BalanceProfile, Constellation, Tangency, WeightFunction, _balance_terms, _eta, balance_sign,
)
from .dirichlet import drifted_capacity
from .errors import ConfigError, DomainError, RadialCapError, check_number
from .expr import _NAN_DETAIL, evaluate
from .model import validate_warping
from .quadrature import TailClass, TailConfig, classify_tail, geomgrid

__all__ = [
    "ClassifyConfig",
    "InconclusiveReason",
    "Verdict",
    "classify",
    "classify_bounded_w",
    "classify_monotone",
    "sweep",
    "SweepRow",
]

THEOREM_LOWER = "theorem_lower_tangency"
THEOREM_UPPER = "theorem_upper_tangency"
COR_BOUNDED_W = "corollary_bounded_warping"
COR_MONOTONE = "corollary_monotone_in_p"

# sweep rows take the drifted capacity out to rho * 2**10 at most, meshed at
# 1e-9 relative whatever the weight tolerance of the classification
SWEEP_CAP_DOUBLINGS = 10
SWEEP_CAP_REL_TOL = 1e-9
# a sweep asking for more rows than this is an input error, not a long run
SWEEP_MAX_ROWS = 10_000


@dataclass(frozen=True)
class ClassifyConfig:
    """Grid and tail-classifier knobs; defaults match the module contracts.
    The hypothesis grid always starts at ``min(rho, 1e-3)``: the criteria
    need their hypotheses on the whole submanifold.  grid_points must be an
    integer >= 2 and weight_rel_tol finite and >= 0, or
    :class:`ConfigError` names the field; the ladder's horizon is
    :meth:`TailConfig.horizon`."""

    grid_points: int = 512
    tail: TailConfig = field(default_factory=TailConfig)
    weight_rel_tol: float = 1e-10

    def __post_init__(self):
        check_number("grid_points", self.grid_points, integer=True, at_least=2)
        check_number("weight_rel_tol", self.weight_rel_tol, at_least=0)


@dataclass(frozen=True)
class InconclusiveReason:
    """Structured reason: balance_fails | tail_convergent | tail_undetermined
    | p_below_2, with whatever payload the failure produced."""

    code: str
    message: str = ""
    witnesses: tuple = ()
    value: Optional[float] = None

    def to_dict(self) -> dict:
        return {"code": self.code, "message": self.message,
                "witnesses": [float(w) for w in self.witnesses], "value": self.value}


@dataclass(frozen=True)
class Verdict:
    """Outcome of a criterion: ``p_parabolic`` (with the result used and its
    evidence) or ``inconclusive`` (with a structured reason).  Hyperbolicity
    is never asserted."""

    outcome: str
    p: float
    rho: float
    by: Optional[str] = None
    reason: Optional[InconclusiveReason] = None
    balance: Optional[BalanceProfile] = None
    tail: Optional[TailClass] = None
    certified_interval: Optional[tuple] = None
    warnings: tuple = ()
    checks: tuple = ()   # (name, passed, detail)

    @property
    def is_parabolic(self) -> bool:
        return self.outcome == "p_parabolic"

    def summary(self) -> str:
        if self.is_parabolic:
            return f"p-parabolic ({self.by})"
        return f"inconclusive ({self.reason.code})"

    def to_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "by": self.by,
            "reason": self.reason.to_dict() if self.reason else None,
            "p": self.p,
            "rho": self.rho,
            "balance": self.balance.to_dict() if self.balance else None,
            "tail": self.tail.to_dict() if self.tail else None,
            "certified_interval": list(self.certified_interval)
            if self.certified_interval else None,
            "warnings": list(self.warnings),
            "checks": [{"name": n, "passed": ok, "detail": d} for n, ok, d in self.checks],
        }


def _model_warnings(c: Constellation, rho: float, interval: tuple) -> tuple:
    warnings = []
    report = validate_warping(c.model.w, r_max=max(10.0, 4.0 * rho))
    for cond, witness, value in report.violations:
        warnings.append(f"warping check failed: {cond} (r={witness:g}, value={value!r})")
    if c.tangency is Tangency.LOWER:
        try:
            # a constant g is tested once, not on the grid
            gv = c.g.constant
            if gv is None:
                gv = np.asarray(evaluate(c.g, geomgrid(interval[0], min(interval[1], 1e6), 256)))
            if np.any(gv > 1.0 + 1e-12):
                warnings.append("tangency lower bound g exceeds 1 on the grid")
            if np.any(gv <= 0.0):
                warnings.append("tangency lower bound g is not positive on the grid")
        except RadialCapError as exc:
            warnings.append(f"tangency bound not evaluable: {exc}")
    return tuple(warnings)


def _finite_radii(fn: Callable, rs: np.ndarray, idx: np.ndarray, flagged: dict) -> np.ndarray:
    """The indices in ``idx`` at which ``fn(rs[idx])`` is finite.  A
    :class:`DomainError` drops the indices its check flagged (its ``mask``),
    mapping each to the error's detail in ``flagged``, and ``fn`` runs again
    on the rest."""
    while len(idx):
        try:
            with np.errstate(all="ignore"):
                return idx[np.isfinite(fn(rs[idx]))]
        except DomainError as exc:
            bad = np.broadcast_to(exc.mask, idx.shape)
            flagged.update(dict.fromkeys(idx[bad].tolist(), exc.detail))
            idx = idx[~bad]
    return idx


def _certified_horizon(c: Constellation, p: float, rho: float,
                       cfg: ClassifyConfig, lam: bool):
    """Largest doubling radius ``rho * 2**k``, k <= k_max, at which the
    balance, and lam too if ``lam`` is set, is finite.

    Hyperbolic-type expressions overflow float range near r ~ 700 (inf/inf
    ratios); the hypothesis grid and the tail ladder are then capped there
    and the verdict says so.  The balance is evaluated at all k_max + 1
    radii in one array pass, then lam where the balance is finite.  A radius
    that a domain check flags is dropped and the pass repeats on the rest,
    so a radius counts exactly when a scalar evaluation there is finite and
    raises nothing.  The warning of a capped horizon names the domain check
    that dropped the radius above it, else float overflow.  Returns
    ``(radius, doubling count, warnings)``; if no radius counts, raises the
    error of the lowest radius that raised one.
    """
    rs = rho * 2.0 ** np.arange(cfg.tail.k_max + 1)
    flagged = {}
    ok = _finite_radii(lambda r: _balance_terms(c, p, r, _eta(c, r))[0], rs,
                       np.arange(len(rs)), flagged)
    if lam:
        ok = _finite_radii(lambda r: evaluate(c.lam, r), rs, ok, flagged)
    if len(ok):
        k = int(ok[-1])
        hi = float(rs[k])
        # the radius above failed a domain check, else it overflowed float
        # range (to inf, or to the NaN of inf/inf)
        detail = flagged.get(k + 1)
        beyond = (f"{detail} at r={rs[k + 1]:.4g}" if detail not in (None, _NAN_DETAIL)
                  else "float overflow beyond")
        warning = () if k == cfg.tail.k_max else (
            f"balance evaluable only up to r={hi:.4g} ({beyond}); hypotheses certified there",)
        return hi, k, warning
    if flagged:
        k = min(flagged)
        raise DomainError(flagged[k], float(rs[k]))
    raise DomainError("balance not evaluable anywhere on the grid", rho)


def _violations(rs: np.ndarray, holds: np.ndarray, message: str) -> Optional[InconclusiveReason]:
    """None if a hypothesis ``holds`` at every radius of ``rs``, else
    ``balance_fails`` with the first 5 radii where it does not.  A
    comparison with NaN is False, so a NaN fails."""
    if np.all(holds):
        return None
    return InconclusiveReason("balance_fails", message=message,
                              witnesses=tuple(float(r) for r in rs[~holds][:5]))


# ---------------------------------------------------------------------------
# the staged pipeline
# ---------------------------------------------------------------------------

@dataclass
class _Run:
    """What the stages of one criterion share: the exponent q the
    hypotheses are certified at (p except in the monotone corollary), the
    certified interval, the capped tail settings and the evidence so far."""

    c: Constellation
    q: float
    rho: float
    cfg: ClassifyConfig
    interval: tuple
    tail_cfg: TailConfig
    balance: Optional[BalanceProfile] = None
    tail: Optional[TailClass] = None
    _weight: Optional[WeightFunction] = None

    def weight(self) -> WeightFunction:
        """The q-weight, built on first use and then shared."""
        if self._weight is None:
            self._weight = WeightFunction(self.c, self.q, self.rho, self.cfg.weight_rel_tol)
        return self._weight


def _decide(c: Constellation, p: float, rho: float, cfg: Optional[ClassifyConfig],
            by: str, stages: list, q: Optional[float] = None) -> Verdict:
    """Run a criterion: certify the horizon at q (default p), then each
    ``(stage, *args)`` of ``stages`` in order.  ``stage(run, *args)``
    returns its check row's name and detail plus the reason the criterion
    stops there, or None to go on; when every stage passes the verdict is
    ``p_parabolic`` ``by`` the given result."""
    cfg = cfg or ClassifyConfig()
    monotone = q is not None
    letter, q = ("q", q) if monotone else ("p", p)
    for name, value in {"p": p, letter: q}.items():
        check_number(name, value)
    if monotone:
        check_number("p", p, at_least=("q", q))
    cfg.tail.horizon(rho)
    if q < 2:
        return Verdict("inconclusive", p=p, rho=rho,
                       reason=InconclusiveReason("p_below_2",
                                                 message=f"criteria assume {letter} >= 2"))
    # the monotone corollary's sandwich evaluates lam, which the balance at
    # q = 2 leaves out
    hi, k_cert, horizon_warnings = _certified_horizon(c, q, rho, cfg, lam=monotone)
    interval = (min(rho, 1e-3), hi)
    warnings = _model_warnings(c, rho, interval) + horizon_warnings
    run = _Run(c, q, rho, cfg, interval=interval,
               tail_cfg=replace(cfg.tail, k_max=min(cfg.tail.k_max, k_cert)))
    checks, reason = [], None
    for stage, *args in stages:
        name, detail, reason = stage(run, *args)
        checks.append((name, reason is None, detail))
        if reason is not None:
            break
    return Verdict("inconclusive" if reason else "p_parabolic", p=p, rho=rho,
                   by=None if reason else by, reason=reason, balance=run.balance,
                   tail=run.tail, certified_interval=run.interval, warnings=warnings,
                   checks=tuple(checks))


def _balance_stage(run: _Run, name: str, sign: float, message: str) -> tuple:
    """``sign`` times the balance at q is non-negative on the certified
    grid: sign 1.0 asks for a non-negative balance, -1.0 a non-positive one."""
    prof = run.balance = balance_sign(run.c, run.q, run.interval, run.cfg.grid_points)
    reason = _violations(prof.rs, sign * prof.values >= -prof.zero_tol, message)
    return name, "certified on grid" if reason is None else message, reason


def _tail_stage(run: _Run, name: str, convergent: str, undetermined: Callable) -> tuple:
    """The q-weight integral diverges; ``undetermined`` words the reason
    from the tail's detail."""
    tail = run.tail = classify_tail(run.weight(), run.rho, run.tail_cfg)
    if tail.is_divergent:
        return name, tail.detail, None
    if tail.is_convergent:
        reason = InconclusiveReason("tail_convergent", value=tail.value, message=convergent)
    else:
        reason = InconclusiveReason("tail_undetermined", message=undetermined(tail.detail))
    return name, tail.detail, reason


def _warping_stage(run: _Run, r0: float, lower_const: float) -> tuple:
    """w >= lower_const on [r0, horizon]."""
    top = max(run.interval[1], 2.0 * r0)
    grid = geomgrid(r0, top, 1024)
    wv = np.asarray(evaluate(run.c.model.w, grid))
    low = wv >= lower_const
    if np.all(low):
        return "warping_bounded_below", f"w >= {lower_const:g} on [{r0:g}, {top:.3g}]", None
    i = int(np.argmax(~low))
    message = f"warping drops below {lower_const:g} (w({grid[i]:.6g}) = {wv[i]:.6g})"
    return "warping_bounded_below", message, InconclusiveReason(
        "balance_fails", message=message, witnesses=(float(grid[i]),))


def _sandwich_stage(run: _Run) -> tuple:
    """h <= w'/w <= lam on the certified grid."""
    rs = geomgrid(run.interval[0], run.interval[1], run.cfg.grid_points)
    et = np.asarray(_eta(run.c, rs))
    hv = np.asarray(evaluate(run.c.h, rs))
    lv = np.asarray(evaluate(run.c.lam, rs))
    tol = 1e-12 * np.maximum(1.0, np.abs(et) + np.abs(hv) + np.abs(lv))
    return "sandwich_h_eta_lam", "h <= w'/w <= lam on certified grid", _violations(
        rs, (hv <= et + tol) & (et <= lv + tol), "sandwich h <= w'/w <= lam fails on the grid")


def _balance_monotone_stage(run: _Run, p: float) -> tuple:
    """Proof-level comparison, asserted: balance_p <= balance_q pointwise."""
    prof_q = run.balance
    prof_p = balance_sign(run.c, p, run.interval, run.cfg.grid_points)
    mono_tol = 1e-10 * np.maximum(1.0, np.abs(prof_q.values))
    if not np.all(prof_p.values <= prof_q.values + mono_tol):
        raise RadialCapError("internal assertion failed: balance not monotone in p")
    return "balance_monotone_p_vs_q", "pointwise on grid", None


def _weight_monotone_stage(run: _Run, p: float) -> tuple:
    """Proof-level comparison, asserted: the p-weight integral dominates the
    q-weight integral at 8 and 64 times rho."""
    horizons = run.rho * np.array([8.0, 64.0])
    weight_p = WeightFunction(run.c, p, run.rho, run.cfg.weight_rel_tol)
    if np.any(weight_p.integral(horizons) < run.weight().integral(horizons) * (1.0 - 1e-9)):
        raise RadialCapError("internal assertion failed: weight integral not monotone in p")
    return "weight_integral_monotone", "finite horizons 8x and 64x rho", None


def classify(c: Constellation, p: float, rho: float,
             cfg: Optional[ClassifyConfig] = None) -> Verdict:
    """Apply the tangency-matching main criterion at exponent p.

    Lower tangency: balance must be non-negative on the certified grid and
    the weight integral must diverge.  Upper tangency: balance non-positive,
    weight taken with g == 1.  The verdict is invariant under changes of the
    base point rho (the weight rescales by a positive constant).
    """
    check_number("rho", rho, above=0)
    lower = c.tangency is Tangency.LOWER
    want = "non_negative" if lower else "non_positive"
    return _decide(c, p, rho, cfg, THEOREM_LOWER if lower else THEOREM_UPPER, [
        (_balance_stage, f"balance_{want}", 1.0 if lower else -1.0,
         f"balance is not {want} on the certified grid"),
        (_tail_stage, "weight_integral_diverges", "weight integral converges; criterion silent",
         lambda detail: f"tail undetermined ({detail}); not guessed"),
    ])


def classify_bounded_w(c: Constellation, p: float, rho: float, r0: float,
                       lower_const: float,
                       cfg: Optional[ClassifyConfig] = None) -> Verdict:
    """Shortcut criterion: non-positive balance plus a warping bounded below
    by ``lower_const > 0`` on ``[r0, horizon]`` certifies p-parabolicity with
    no tail quadrature (the weight dominates w, so its integral diverges)."""
    if c.tangency is not Tangency.UPPER:
        raise ConfigError("bounded-warping corollary needs an upper-tangency constellation")
    for name, value in (("lower_const", lower_const), ("rho", rho), ("r0", r0)):
        check_number(name, value, above=0)
    return _decide(c, p, rho, cfg, COR_BOUNDED_W, [
        (_balance_stage, "balance_non_positive", -1.0,
         "balance is not non-positive on the certified grid"),
        (_warping_stage, r0, lower_const),
    ])


def classify_monotone(c: Constellation, q: float, p: float, rho: float,
                      cfg: Optional[ClassifyConfig] = None) -> Verdict:
    """Monotonicity criterion: if the balance at exponent q is non-positive,
    ``h <= w'/w <= lam`` holds, and the q-weight integral diverges, then the
    submanifold is p-parabolic for every ``p >= q``.

    Internally also asserts the comparisons the proof relies on
    (balance and weight monotonicity between q and p)."""
    if c.tangency is not Tangency.UPPER:
        raise ConfigError("monotone corollary needs an upper-tangency constellation")
    check_number("rho", rho, above=0)
    return _decide(c, p, rho, cfg, COR_MONOTONE, [
        (_sandwich_stage,),
        (_balance_stage, f"balance_non_positive_at_q={q:g}", -1.0,
         f"balance at q={q} is not non-positive"),
        (_balance_monotone_stage, p),
        *([(_weight_monotone_stage, p)] if p > q else []),
        (_tail_stage, f"weight_integral_diverges_at_q={q:g}", f"q={q} weight integral converges",
         lambda detail: f"q={q} weight tail undetermined ({detail})"),
    ], q=q)


# ---------------------------------------------------------------------------
# parameter sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    p: float
    verdict: Optional[Verdict]
    error: Optional[str]
    alpha_hat: Optional[float]
    cap_at_horizon: Optional[float]

    @property
    def outcome(self) -> str:
        return self.verdict.outcome if self.verdict else "error"


def sweep(c: Constellation, p_from: float, p_to: float, p_step: float, rho: float,
          cfg: Optional[ClassifyConfig] = None) -> list:
    """Classify across a grid of exponents; one row per p in input order,
    failures recorded per row without aborting the sweep.  A range and step
    that ask for more than ``SWEEP_MAX_ROWS`` rows, or for a count past float
    range, are a :class:`ConfigError` naming p_step."""
    check_number("p_step", p_step, above=0)
    check_number("p_from", p_from)
    check_number("p_to", p_to, at_least=("p_from", p_from))
    rows = np.floor((p_to - p_from) / p_step + 1e-9) + 1
    if not rows <= SWEEP_MAX_ROWS:
        raise ConfigError(f"p_step {p_step} gives {rows:g} rows from p_from to p_to, "
                          f"more than {SWEEP_MAX_ROWS}")
    check_number("rho", rho, above=0)
    cfg = cfg or ClassifyConfig()
    cfg.tail.horizon(rho)
    ps = [round(p_from + i * p_step, 12) for i in range(int(rows))]
    r_cap = rho * 2.0 ** SWEEP_CAP_DOUBLINGS

    def run_one(p: float) -> SweepRow:
        try:
            verdict = classify(c, p, rho, cfg)
            alpha = verdict.tail.alpha_hat if verdict.tail else None
            cap = None
            if p >= 2:
                # keep the capacity horizon inside the evaluable range; a
                # horizon at rho leaves no annulus
                hi = min(r_cap, verdict.certified_interval[1])
                if hi > rho:
                    cap = drifted_capacity(c, p, rho, hi, rel_tol=SWEEP_CAP_REL_TOL)
            return SweepRow(p=p, verdict=verdict, error=None,
                            alpha_hat=alpha, cap_at_horizon=cap)
        except RadialCapError as exc:
            return SweepRow(p=p, verdict=None, error=str(exc),
                            alpha_hat=None, cap_at_horizon=None)

    return [run_one(p) for p in ps]
