import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import radialcap.criteria as criteria
from radialcap.cli import load_config
from radialcap.constellation import Constellation, Tangency, WeightFunction, balance
from radialcap.criteria import (
    COR_MONOTONE, THEOREM_LOWER, THEOREM_UPPER, ClassifyConfig, _certified_horizon,
    _model_warnings, classify, classify_monotone, sweep,
)
from radialcap.diffusion import DiffusionConfig
from radialcap.errors import ConfigError, DomainError
from radialcap.expr import evaluate
from radialcap.model import ModelSpace, sphere_volume
from radialcap.quadrature import TailConfig


def euclid_self(m, tangency=Tangency.LOWER):
    return Constellation.self_model(ModelSpace.euclidean(m), tangency)


def hyperbolic_self(m):
    return Constellation.self_model(ModelSpace.hyperbolic(m))


def coth_dominated():
    """Upper-tangency constellation with identically-zero balance at p=2."""
    return Constellation.from_functions(
        3, 2, "sinh(r)", h="coth(r)", lam="coth(r)", tangency=Tangency.UPPER)


def test_euclidean_p_at_least_m_is_parabolic():
    v = classify(euclid_self(3), 3.0, 1.0)
    assert v.is_parabolic
    assert v.by == THEOREM_LOWER
    assert v.tail.is_divergent
    assert v.certified_interval is not None


def test_euclidean_p_below_m_is_inconclusive_convergent():
    v = classify(euclid_self(3), 2.0, 1.0)
    assert not v.is_parabolic
    assert v.reason.code == "tail_convergent"
    # weight is r^-2 from rho=1: the tail integral converges to 1
    assert v.reason.value == pytest.approx(1.0, rel=1e-6)


def test_hyperbolic_self_never_fires():
    v = classify(hyperbolic_self(2), 2.0, 1.0)
    assert not v.is_parabolic
    assert v.reason.code == "tail_convergent"


def test_p_below_2_is_inconclusive_not_error():
    v = classify(euclid_self(3), 1.5, 1.0)
    assert v.reason.code == "p_below_2"


def test_upper_tangency_balance_must_be_nonpositive():
    v = classify(euclid_self(3, Tangency.UPPER), 3.0, 1.0)
    assert not v.is_parabolic
    assert v.reason.code == "balance_fails"
    assert len(v.reason.witnesses) >= 1


def test_upper_tangency_zero_balance_fires_growth():
    # balance == 0, weight == sinh: integral explodes -> parabolic for all p
    v = classify(coth_dominated(), 2.0, 1.0)
    assert v.is_parabolic
    assert v.by == THEOREM_UPPER


def test_never_parabolic_on_undetermined_tail():
    # tuned h so the weight decays like 1/(r log(1+r)): critical band; the
    # shift keeps h free of poles on the whole grid
    c = Constellation.from_functions(2, 2, "r", h="-1/(2*r*log(1+r))")
    v = classify(c, 2.0, 2.0)
    assert not v.is_parabolic
    assert v.reason.code == "tail_undetermined"
    assert v.tail is not None and v.tail.kind == "undetermined"


def test_rho_invariance_of_outcomes():
    for p, expected in [(2.5, False), (3.0, True), (4.0, True)]:
        kinds = set()
        for rho in (0.5, 1.0, 2.0):
            v = classify(euclid_self(3), p, rho)
            kinds.add((v.outcome, v.by, v.reason.code if v.reason else None))
            assert v.is_parabolic == expected
        assert len(kinds) == 1


def test_p2_outcomes_lam_independent():
    a = Constellation.from_functions(3, 2, "sinh(r)", h="1/(1+r)", lam="0")
    b = Constellation.from_functions(3, 2, "sinh(r)", h="1/(1+r)", lam="77*exp(r)")
    va = classify(a, 2.0, 1.0)
    vb = classify(b, 2.0, 1.0)
    assert va.outcome == vb.outcome
    assert (va.reason and va.reason.code) == (vb.reason and vb.reason.code)
    assert va.tail.kind == vb.tail.kind


def test_warnings_surface_invalid_warping():
    c = Constellation.from_functions(2, 2, "exp(r)", h="2", lam="2",
                                     tangency=Tangency.UPPER)
    v = classify(c, 3.0, 1.0)
    assert any("warping" in w for w in v.warnings)


# ---------------------------------------------------------------------------
# the monotone corollary
# ---------------------------------------------------------------------------

def test_monotone_corollary_requires_upper_tangency():
    with pytest.raises(ValueError, match="^monotone corollary needs an upper-tangency "
                                         "constellation$"):
        classify_monotone(euclid_self(2), 2.0, 3.0, 1.0)


def test_monotone_corollary_certifies_all_p_above_q():
    c = coth_dominated()
    for p in (2.0, 3.0, 5.0, 8.0):
        v = classify_monotone(c, 2.0, p, 1.0)
        assert v.is_parabolic, p
        assert v.by == COR_MONOTONE
        assert any(name == "sandwich_h_eta_lam" for name, _, _ in v.checks)


def test_monotone_corollary_rejects_broken_sandwich():
    c = Constellation.from_functions(3, 2, "sinh(r)", h="coth(r)", lam="0",
                                     tangency=Tangency.UPPER)
    v = classify_monotone(c, 2.0, 3.0, 1.0)
    assert not v.is_parabolic
    assert "sandwich" in v.reason.message


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_monotone_horizon_is_certified_where_lam_is_evaluable(p):
    # the balance at q = 2 leaves lam = 2*cosh/sinh out, but the sandwich
    # evaluates it, and it is inf/inf past r ~ 710
    c = load_config(str(Path(__file__).resolve().parent.parent / "configs" / "cylinder_bounded.json"))
    v = classify_monotone(c, 2.0, p, 1.0)
    assert v.summary() == "inconclusive (balance_fails)"
    assert v.certified_interval == (1e-3, 512.0)
    assert v.warnings == ("balance evaluable only up to r=512 (float overflow beyond); "
                          "hypotheses certified there",)


def test_monotone_degenerate_p_equals_q_matches_main_criterion():
    c = coth_dominated()
    via_cor = classify_monotone(c, 2.0, 2.0, 1.0)
    via_main = classify(c, 2.0, 1.0)
    assert via_cor.outcome == via_main.outcome == "p_parabolic"


# w'/w of each warping, and non-negative shapes for the sandwich's two gaps
ETA = {"r": "1/r", "sinh(r)": "coth(r)"}
GAPS = ["1", "1/(1 + r)", "exp(-r)", "r/(1 + r^2)"]


@settings(max_examples=100, deadline=None)
@given(w=st.sampled_from(list(ETA)), m=st.sampled_from([2, 3, 4]),
       a=st.floats(0.0, 1.0), a_shape=st.sampled_from(GAPS),
       b=st.floats(0.0, 1.0), b_shape=st.sampled_from(GAPS),
       qp=st.lists(st.floats(2.0, 8.0), min_size=2, max_size=2).map(sorted),
       rho=st.floats(0.5, 2.0))
def test_monotone_algebra_on_sandwiched_constellations(w, m, a, a_shape, b, b_shape, qp, rho):
    # classify_monotone checks nothing at p: with h = w'/w - a and
    # lam = w'/w + b, a, b >= 0, the balance at p <= the balance at q and the
    # p-weight >= the q-weight, so its integral dominates too
    eta = ETA[w]
    c = Constellation.from_functions(4, m, w, h=f"{eta} - {a!r}*({a_shape})",
                                     lam=f"{eta} + {b!r}*({b_shape})", tangency=Tangency.UPPER)
    q, p = qp
    rs = np.geomspace(1e-3, 64.0 * rho, 256)
    b_q, b_p = balance(c, q, rs), balance(c, p, rs)
    assert np.all(b_p <= b_q + 1e-10 * np.maximum(1.0, np.abs(b_q)))
    horizons = rho * np.array([8.0, 64.0])
    w_q = WeightFunction(c, q, rho).integral(horizons)
    w_p = WeightFunction(c, p, rho).integral(horizons)
    assert np.all(w_p >= w_q * (1.0 - 1e-9))


def monotone_convergent():
    """h = w'/w cancels the q = 2 balance, so the weight is w = r exp(-r),
    whose integral converges."""
    return Constellation.from_functions(2, 2, "r*exp(-r)", h="1/r - 1", lam="1/r",
                                        tangency=Tangency.UPPER)


# per criterion: a passing and a failing call, each with its check rows
STAGE_CASES = {
    "classify": (
        (lambda: classify(euclid_self(3), 3.0, 1.0),
         ["balance_non_negative", "weight_integral_diverges"]),
        (lambda: classify(euclid_self(3, Tangency.UPPER), 3.0, 1.0),
         ["balance_non_positive"])),
    "monotone": (
        (lambda: classify_monotone(coth_dominated(), 2.0, 3.0, 1.0),
         ["sandwich_h_eta_lam", "balance_non_positive_at_q=2",
          "weight_integral_diverges_at_q=2"]),
        (lambda: classify_monotone(monotone_convergent(), 2.0, 3.0, 1.0),
         ["sandwich_h_eta_lam", "balance_non_positive_at_q=2",
          "weight_integral_diverges_at_q=2"])),
}


@pytest.mark.parametrize("criterion", list(STAGE_CASES))
def test_checks_list_every_stage_that_ran(criterion):
    (passing, pass_names), (failing, fail_names) = STAGE_CASES[criterion]
    v = passing()
    assert v.is_parabolic
    assert [name for name, _, _ in v.checks] == pass_names
    assert all(ok for _, ok, _ in v.checks)
    v = failing()
    assert not v.is_parabolic and v.reason.code in ("balance_fails", "tail_convergent")
    assert [name for name, _, _ in v.checks] == fail_names
    assert [ok for _, ok, _ in v.checks] == [True] * (len(fail_names) - 1) + [False]


BELOW_2 = {
    "classify": (lambda rho: classify(coth_dominated(), 1.5, rho), "p"),
    "monotone": (lambda rho: classify_monotone(coth_dominated(), 1.5, 3.0, rho), "q"),
}


@pytest.mark.parametrize("criterion", list(BELOW_2))
def test_criteria_share_the_p_below_2_verdict_and_rho_check(criterion):
    decide, letter = BELOW_2[criterion]
    v = decide(1.0)
    assert (v.outcome, v.by, v.balance, v.tail, v.certified_interval, v.warnings,
            v.checks) == ("inconclusive", None, None, None, None, (), ())
    assert v.reason.to_dict() == {"code": "p_below_2", "message": f"criteria assume {letter} >= 2",
                                  "witnesses": [], "value": None}
    for rho in (0.0, -1.0):
        with pytest.raises(ValueError, match="rho"):
            decide(rho)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_euclidean_transition_at_m():
    rows = sweep(euclid_self(3), 2.0, 5.0, 0.5, 1.0)
    assert len(rows) == 7
    for row in rows:
        assert row.error is None
        assert row.outcome == ("p_parabolic" if row.p >= 3.0 else "inconclusive")
        assert row.cap_at_horizon is not None and row.cap_at_horizon > 0
    # capacities decrease in p here (weights decay more slowly but the
    # normalizer grows); just check they are finite and recorded
    assert all(np.isfinite(row.cap_at_horizon) for row in rows)


def test_sweep_plane_all_parabolic():
    rows = sweep(euclid_self(2), 2.0, 4.0, 1.0, 1.0)
    assert all(row.outcome == "p_parabolic" for row in rows)


def test_sweep_hyperbolic_all_inconclusive():
    rows = sweep(hyperbolic_self(3), 2.0, 8.0, 1.5, 1.0)
    assert all(row.outcome == "inconclusive" for row in rows)


def test_sweep_includes_sub2_rows_gracefully():
    rows = sweep(euclid_self(2), 1.5, 2.5, 0.5, 1.0)
    assert rows[0].verdict.reason.code == "p_below_2"
    assert rows[-1].outcome == "p_parabolic"


def test_sweep_rejects_empty_range():
    with pytest.raises(ValueError):
        sweep(euclid_self(2), 3.0, 2.0, 0.5, 1.0)


def test_sweep_rows_in_input_order_and_repeatable():
    first = sweep(euclid_self(3), 2.0, 4.0, 1.0, 1.0)
    again = sweep(euclid_self(3), 2.0, 4.0, 1.0, 1.0)
    assert [r.p for r in first] == [2.0, 3.0, 4.0]
    assert [r.outcome for r in first] == [r.outcome for r in again]
    assert [r.cap_at_horizon for r in first] == [r.cap_at_horizon for r in again]


def test_sweep_reports_the_first_overflowing_node_of_the_capacity_annulus():
    # the drifted capacity over [1, 512] overflows in exp on the first panel
    c = load_config(str(Path(__file__).resolve().parent.parent / "configs" / "cylinder_bounded.json"))
    with np.errstate(over="ignore"):
        rows = sweep(c, 2.0, 8.0, 1.5, 1.0)
    assert [row.p for row in rows] == [2.0, 3.5, 5.0, 6.5, 8.0]
    assert [row.error for row in rows[:2]] == [None, None]
    t_bad = {5.0: "477.473", 6.5: "445.961", 8.0: "445.961"}
    for row in rows[2:]:
        assert row.error == (f"integrand not finite (np.float64(inf) at t={t_bad[row.p]}); "
                             "worst subinterval [1, 512] err=inf")


def test_sweep_row_whose_horizon_is_rho_has_no_capacity():
    # h = log(2 - r) leaves the domain at r = 2, so from rho = 1 the
    # certified horizon is rho itself: no annulus to take a capacity over
    c = Constellation.from_functions(2, 2, "r", h="log(2 - r)")
    rows = sweep(c, 2.0, 4.0, 1.0, 1.0)
    assert [row.p for row in rows] == [2.0, 3.0, 4.0]
    for row in rows:
        assert row.error is None and row.cap_at_horizon is None
        assert row.verdict.summary() == "inconclusive (tail_undetermined)"
        assert row.verdict.certified_interval == (1e-3, 1.0)
        assert row.verdict.warnings == (
            "balance evaluable only up to r=1 (log of non-positive value at r=2); "
            "hypotheses certified there",)


# h leaves its domain at r = 0.0015, between rho = 1e-3 and its first doubling
LOG_NEAR_RHO = dict(n=3, m=3, w="r", h="log(0.0015 - r)")
COLLAPSED_CASES = [
    (euclid_self(3), 1e-4, ClassifyConfig(tail=TailConfig(k_max=0)), ()),
    (euclid_self(3), 1e-3, ClassifyConfig(tail=TailConfig(k_max=0)), ()),
    (Constellation.from_functions(**LOG_NEAR_RHO), 1e-3, None, (
        "balance evaluable only up to r=0.001 (log of non-positive value at r=0.002); "
        "hypotheses certified there",)),
]


@pytest.mark.parametrize("c, rho, cfg, warnings", COLLAPSED_CASES,
                         ids=["euclid3 rho=1e-4", "euclid3 rho=1e-3", "log h rho=1e-3"])
def test_a_certified_interval_of_one_radius_is_sampled_there(c, rho, cfg, warnings):
    # rho <= 1e-3 is the grid's low end, so a horizon capped at rho leaves
    # the interval [rho, rho]: it was "hi must be > lo", an input error
    v = classify(c, 3.0, rho, cfg)
    assert v.summary() == "inconclusive (tail_undetermined)"
    assert v.certified_interval == (rho, rho)
    assert v.warnings == warnings
    assert np.all(v.balance.rs == rho) and len(v.balance.rs) == 1
    assert v.checks[1] == ("weight_integral_diverges", False,
                           "ladder too short: 0 of 3 doublings needed")


def test_sweep_rows_of_a_one_radius_interval_are_not_errors():
    rows = sweep(Constellation.from_functions(**LOG_NEAR_RHO), 2.0, 8.0, 1.5, 1e-3)
    assert [row.p for row in rows] == [2.0, 3.5, 5.0, 6.5, 8.0]
    for row in rows:
        assert row.error is None and row.cap_at_horizon is None
        assert row.verdict.certified_interval == (1e-3, 1e-3)


def first_row_fails(monkeypatch):
    """Make the first row a sweep classifies fail the test, so that a
    bound that is not checked fails fast instead of running its rows."""
    def classify_row(*args):
        pytest.fail("the sweep classified a row")
    monkeypatch.setattr(criteria, "classify", classify_row)


@pytest.mark.parametrize("p_from, p_to, p_step", [(2.0, 8.0, 5e-324), (-1e308, 1e308, 1.0)])
def test_sweep_whose_row_count_is_not_finite_names_p_step(monkeypatch, p_from, p_to, p_step):
    # these raised "cannot convert float infinity to integer"
    first_row_fails(monkeypatch)
    with pytest.raises(ConfigError, match=f"^p_step {p_step} gives inf rows from p_from to "
                                          f"p_to, more than 10000$"):
        sweep(euclid_self(3), p_from, p_to, p_step, 1.0)


def test_sweep_step_that_repeats_rows_is_refused(monkeypatch):
    # p is rounded to 12 decimals, so this step made 1,001 rows with 101
    # distinct exponents and classified each repeated one again
    first_row_fails(monkeypatch)
    with pytest.raises(ConfigError, match=r"^p_step 1e-13 repeats rows: two exponents round "
                                          r"to 2\.0 at 12 decimals$"):
        sweep(euclid_self(3), 2.0, 2.0 + 1e-10, 1e-13, 1.0)


def test_sweep_row_count_is_bounded_before_a_row_runs(monkeypatch):
    # 10,001 rows is one past the bound; a step of 1e-9 asked for 6e9
    # rows, built the list of them and never returned
    first_row_fails(monkeypatch)
    with pytest.raises(ConfigError, match=f"^p_step {6.0 / 10_000} gives 10001 rows from "
                                          f"p_from to p_to, more than 10000$"):
        sweep(euclid_self(3), 2.0, 8.0, 6.0 / 10_000, 1.0)
    with pytest.raises(pytest.fail.Exception, match="the sweep classified a row"):
        sweep(euclid_self(3), 2.0, 8.0, 6.0 / 9_999, 1.0)
    assert criteria.SWEEP_MAX_ROWS == 10_000


def test_sweep_capacity_matches_the_closed_form_of_the_bounded_cylinder():
    # at p = 2 the weight is tanh(rho)^2 coth(r), whose primitive is
    # log sinh; the capacity annulus is [2, 2**11]
    c = load_config(str(Path(__file__).resolve().parent.parent / "configs" / "cylinder_bounded.json"))
    row = sweep(c, 2.0, 2.5, 0.5, rho=2.0)[0]

    def log_sinh(x):
        return x + math.log1p(-math.exp(-2.0 * x)) - math.log(2.0)

    exact = float(sphere_volume(c.model, 2.0)) / (math.tanh(2.0) * (log_sinh(2048.0) - log_sinh(2.0)))
    assert row.p == 2.0
    assert row.cap_at_horizon == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("g, warning", [
    ("1.5", "tangency lower bound g exceeds 1 on the grid"),
    ("1 + r", "tangency lower bound g exceeds 1 on the grid"),
    ("-0.5", "tangency lower bound g is not positive on the grid"),
    ("1 - r", "tangency lower bound g is not positive on the grid"),
    ("sqrt(-1)", "tangency bound not evaluable: sqrt of negative value at r=0.001"),
    ("sqrt(1 - r)", "tangency bound not evaluable: sqrt of negative value at r=1.00038"),
    ("0.5", None),
    ("0.5 + 0.1*sin(r)", None),
])
def test_model_warnings_check_the_lower_tangency_bound(g, warning):
    # a constant g (sqrt(-1) has no value, so it is evaluated) is tested
    # once, any other g on the grid out to the horizon
    c = Constellation.from_functions(3, 2, "r", g=g)
    warnings = _model_warnings(c, 1.0, (1e-3, 512.0))
    if warning is None:
        assert warnings == ()
    else:
        assert len(warnings) == 1 and warnings[0].startswith(warning)


def test_tail_look_ahead_grows_the_remainder_mesh_once(remainder_extensions):
    # the look-ahead reaches for r = 512 at once, so the weight's remainder
    # mesh still grows to 512 in one extension, not one per refinement
    # round, while the tail mesh stops at 32, where the ladder decides
    c = load_config(str(Path(__file__).resolve().parent.parent / "configs" / "coth_dominated.json"))
    v = classify(c, 3.0, 1.0)
    assert v.is_parabolic
    assert remainder_extensions == [512.0]


def test_monotone_comparison_grows_each_remainder_mesh_once(remainder_extensions):
    # nothing is weighed at p: the q-weight alone is built, and the tail's
    # look-ahead grows its remainder to 512 in one extension
    c = load_config(str(Path(__file__).resolve().parent.parent / "configs" / "coth_dominated.json"))
    v = classify_monotone(c, 2.0, 3.0, 1.0)
    assert v.is_parabolic
    assert remainder_extensions == [512.0]


@pytest.mark.parametrize("make, kwargs", [
    (ClassifyConfig, {"grid_points": 0}),
    (ClassifyConfig, {"grid_points": 1}),
    (ClassifyConfig, {"weight_rel_tol": float("nan")}),
    (ClassifyConfig, {"weight_rel_tol": -1e-10}),
    (ClassifyConfig, {"weight_rel_tol": float("inf")}),
    (ClassifyConfig, {"grid_points": 2.5}),
    (TailConfig, {"k_max": -1}),
    (TailConfig, {"k_max": 2.5}),
    (TailConfig, {"conv_eps": float("nan")}),
    (TailConfig, {"conv_eps": float("inf")}),
    (TailConfig, {"exp_band": -0.05}),
    (TailConfig, {"exp_band": float("inf")}),
    (TailConfig, {"k_max": True}),
    (DiffusionConfig, {"paths": 1.5}),
    (DiffusionConfig, {"seed": 1.5}),
], ids=lambda v: v.__name__ if isinstance(v, type) else "".join(f"{k}={x}" for k, x in v.items()))
def test_configs_that_certify_nothing_are_rejected(make, kwargs):
    with pytest.raises(ConfigError, match=f"^{next(iter(kwargs))} must be "):
        make(**kwargs)


@pytest.mark.parametrize("call", [
    pytest.param(lambda c: classify(c, float("nan"), 1.0), id="p=nan"),
    pytest.param(lambda c: classify(c, float("inf"), 1.0), id="p=inf"),
    pytest.param(lambda c: classify_monotone(c, float("nan"), 3.0, 1.0), id="q=nan"),
    pytest.param(lambda c: classify(c, 3.0, 1.0, ClassifyConfig(tail=TailConfig(k_max=2000))),
                 id="k_max=2000"),
    pytest.param(lambda c: classify(c, 3.0, 1e300), id="rho=1e300"),
    pytest.param(lambda c: sweep(c, 2.0, float("inf"), 1.0, 1.0), id="sweep p_to=inf"),
    pytest.param(lambda c: sweep(c, 2.0, 3.0, float("inf"), 1.0), id="sweep p_step=inf"),
    pytest.param(lambda c: sweep(c, 2.0, 3.0, float("nan"), 1.0), id="sweep p_step=nan"),
    pytest.param(lambda c: sweep(c, 2.0, 3.0, 1.0, 1.0,
                                 ClassifyConfig(tail=TailConfig(k_max=1100))),
                 id="sweep k_max=1100"),
])
def test_non_finite_exponents_and_horizons_are_rejected(call):
    with pytest.raises(ConfigError):
        call(euclid_self(3, Tangency.UPPER))


def test_zero_horizon_and_zero_tolerance_stay_valid():
    cfg = ClassifyConfig(tail=TailConfig(k_max=0), weight_rel_tol=0.0)
    v = classify(euclid_self(3), 3.0, 1.0, cfg)
    assert v.reason.code == "tail_undetermined"
    assert classify(euclid_self(3), 3.0, 1.0, ClassifyConfig(weight_rel_tol=0.0)).is_parabolic


def horizon_scan(c, p, rho, cfg, lam):
    """Reference: the certified horizon scanned one scalar radius at a time,
    from the top doubling down; the all-fail error is the last one met, and
    a capped horizon's warning names the error of the radius above it."""
    last_exc = above = None
    for k in range(cfg.tail.k_max, -1, -1):
        hi = rho * 2.0 ** k
        try:
            value = balance(c, p, hi)
            if np.isfinite(value) and (not lam or np.isfinite(evaluate(c.lam, hi))):
                beyond = ("float overflow beyond" if above is None
                          else f"{above.detail} at r={2.0 * hi:.4g}")
                warning = () if k == cfg.tail.k_max else (
                    f"balance evaluable only up to r={hi:.4g} ({beyond}); "
                    f"hypotheses certified there",)
                return hi, k, warning
            above = None
        except DomainError as exc:
            # the NaN of inf/inf is float overflow, not a domain check
            last_exc = exc
            above = None if exc.detail == "evaluation produced NaN" else exc
    raise last_exc if last_exc is not None else DomainError(
        "balance not evaluable anywhere on the grid", rho)


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
HORIZON_CASES = [
    *[(f"euclid{m}", euclid_self(m)) for m in range(2, 7)],
    *[(f"hyperbolic{m}", hyperbolic_self(m)) for m in (2, 3)],
    *[(path.stem, load_config(str(path))) for path in sorted(CONFIG_DIR.glob("*.json"))],
    # h has a pole at the interior doubling r = 4 only: the horizon stays at
    # the top and the balance grid, not the horizon, fails the criterion
    ("pole_at_4", Constellation.from_functions(3, 3, "r", h="1/(r-4)")),
    # lam is out of domain at r <= 3, where only the monotone corollary looks
    ("lam_from_3", Constellation.from_functions(3, 3, "sinh(r)", lam="log(r - 3)", h="1",
                                                tangency=Tangency.UPPER)),
    # h is out of domain from r = 2 on: the horizon stops below it
    ("h_below_2", Constellation.from_functions(2, 2, "r", h="log(2 - r)")),
    # h is the constant inf: no radius has a finite balance and none fails a check
    ("h_inf", Constellation.from_functions(3, 3, "r", h="exp(1000)")),
]


@pytest.mark.parametrize("name, c", HORIZON_CASES, ids=[n for n, _ in HORIZON_CASES])
def test_one_pass_horizon_matches_the_scalar_scan(name, c):
    for k_max in (40, 9, 0):
        cfg = ClassifyConfig(tail=TailConfig(k_max=k_max))
        for p in (2.0, 2.5, 3.0, 5.0, 8.0):
            for rho in (0.5, 1.0, 2.0):
                for lam in (False, True):
                    try:
                        want = horizon_scan(c, p, rho, cfg, lam)
                    except DomainError as exc:
                        with pytest.raises(DomainError, match=f"^{re.escape(str(exc))}$"):
                            _certified_horizon(c, p, rho, cfg, lam)
                    else:
                        assert _certified_horizon(c, p, rho, cfg, lam) == want


def test_a_nan_from_overflow_caps_the_horizon_as_float_overflow():
    # coth(r) is inf/inf past r ~ 710, and its square is NaN too
    v = classify(Constellation.from_functions(3, 3, "r", h="0.1*coth(r)^2"), 3.0, 1.0)
    assert v.warnings == ("balance evaluable only up to r=512 (float overflow beyond); "
                          "hypotheses certified there",)


def test_interior_pole_keeps_the_top_horizon_and_fails_the_balance():
    c = Constellation.from_functions(3, 3, "r", h="1/(r-4)")
    assert _certified_horizon(c, 3.0, 1.0, ClassifyConfig(), False) == (2.0 ** 40, 40, ())
    assert classify(c, 3.0, 1.0).summary() == "inconclusive (balance_fails)"


@pytest.mark.parametrize("h", ["log(-r)", "sqrt(1.5 - r) + log(r - 1.5)"])
def test_horizon_that_fails_everywhere_raises_the_scans_error(h):
    # the second h fails at r = 1 on log and at r >= 2 on sqrt: the error
    # raised is the one at the lowest radius
    c = Constellation.from_functions(3, 3, "r", h=h)
    with pytest.raises(DomainError) as want:
        horizon_scan(c, 3.0, 1.0, ClassifyConfig(), False)
    with pytest.raises(DomainError) as got:
        _certified_horizon(c, 3.0, 1.0, ClassifyConfig(), False)
    assert str(got.value) == str(want.value) == "log of non-positive value at r=1.0"
    assert got.value.r == want.value.r
