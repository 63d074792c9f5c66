"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
All tolerances are pinned here; nothing is calibrated at runtime.
"""

import math
import random
import time

import numpy as np

from radialcap.constellation import (
    Constellation, Tangency, WeightFunction, balance, balance_shift_identity_check,
    balance_sign,
)
from radialcap.criteria import classify, classify_monotone
from radialcap.diffusion import DiffusionConfig, exact_hitting_prob, simulate_radial
from radialcap.dirichlet import (
    drifted_capacity, operator_residual, solve_dirichlet_closed, solve_dirichlet_ode,
)
from radialcap.errors import DomainError
from radialcap.expr import RadialExpr, eval_jet2, evaluate
from radialcap.model import ModelSpace, exact_annulus_p_capacity, sphere_volume
from radialcap.quadrature import classify_tail

from test_expr import _random_tree, fd12

P_GRID = [2.0 + 0.5 * i for i in range(13)]          # 2, 2.5, ..., 8
M_GRID = [2, 3, 4, 5, 6]


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def euclid_self(m):
    return Constellation.self_model(ModelSpace.euclidean(m))


def test_criterion_01_space_form_classification_table():
    t0 = time.monotonic()
    failures = []
    for m in M_GRID:
        c = euclid_self(m)
        for p in P_GRID:
            v = classify(c, p, 1.0)
            if p >= m:
                ok = v.is_parabolic and v.by == "theorem_lower_tangency"
            else:
                ok = (not v.is_parabolic) and v.reason.code == "tail_convergent"
            if not ok:
                failures.append((m, p, v.summary()))
    elapsed = time.monotonic() - t0
    _report(1, not failures and elapsed < 10.0,
            f"Euclidean table (65 cells) matches 'parabolic iff p >= m' "
            f"in {elapsed:.2f}s (budget 10s); failures={failures}")


def test_criterion_02_hyperbolic_negative_control():
    t0 = time.monotonic()
    failures = []
    for m in (2, 3):
        c = Constellation.self_model(ModelSpace.hyperbolic(m))
        for p in P_GRID:
            v = classify(c, p, 1.0)
            if v.is_parabolic or v.reason.code != "tail_convergent":
                failures.append((m, p, v.summary()))
    elapsed = time.monotonic() - t0
    _report(2, not failures and elapsed < 10.0,
            f"hyperbolic control (26 cells) all tail_convergent in {elapsed:.2f}s "
            f"(budget 10s); failures={failures}")


def test_criterion_03_newtonian_capacity():
    c = euclid_self(3)
    cap_2 = drifted_capacity(c, 2.0, 1.0, 2.0)
    cap_big = drifted_capacity(c, 2.0, 1.0, 1e4)
    exact_2 = exact_annulus_p_capacity(c.model, 1.0, 2.0, 2.0)
    exact_big = exact_annulus_p_capacity(c.model, 1.0, 1e4, 2.0)
    checks = [
        abs(cap_2 - 8 * math.pi) <= 1e-6 * 8 * math.pi,
        abs(cap_big - 4 * math.pi / (1 - 1e-4)) <= 1e-6 * cap_big,
        abs(cap_2 - exact_2) <= 1e-8 * exact_2,
        abs(cap_big - exact_big) <= 1e-8 * exact_big,
    ]
    _report(3, all(checks),
            f"drifted capacity = 8*pi and 4*pi/(1-1e-4) within 1e-6, matches the "
            f"exact annulus capacity within 1e-8 (cap_2={cap_2:.8f})")


def _random_solver_cases():
    rng = random.Random(1234)
    cases = []
    for _ in range(5):  # lower tangency, balance stays nonnegative
        w = rng.choice(["r", "sinh(r)", "r + 0.3*r^2", "r*exp(0.2*r)"])
        g = rng.choice(["1", "0.9", "0.8"])
        h = f"{rng.uniform(0.0, 0.2):.3f}/(1 + r)"
        lam = f"{rng.uniform(0.0, 0.2):.3f}/(1 + r)"
        m = rng.choice([2, 3, 4])
        p = rng.uniform(2.0, 3.0)
        cases.append((Constellation.from_functions(m + 1, m, w, g=g, lam=lam, h=h,
                                                   tangency=Tangency.LOWER),
                      p, rng.uniform(0.6, 0.9), rng.uniform(2.5, 4.0), "non_negative"))
    for _ in range(5):  # upper tangency, balance stays nonpositive
        m = rng.choice([2, 3, 4])
        p = rng.uniform(2.0, 4.0)
        cc = rng.uniform(1.0, 1.5)
        c = Constellation.from_functions(
            m + 1, m, "sinh(r)", lam="coth(r)", h=f"{cc:.3f}*coth(r)",
            tangency=Tangency.UPPER)
        cases.append((c, p, rng.uniform(0.5, 1.0), rng.uniform(2.5, 5.0),
                      "non_positive"))
    return cases


def test_criterion_04_solver_cross_validation():
    worst_diff = 0.0
    worst_res = 0.0
    for c, p, rho, R, want_sign in _random_solver_cases():
        prof = balance_sign(c, p, (rho, R), 256)
        assert getattr(prof, f"is_{want_sign}"), "balance precondition broke"
        sol = solve_dirichlet_closed(c, p, rho, R)
        ode = solve_dirichlet_ode(c, p, rho, R, step_count=3000)
        diff = float(np.max(np.abs(ode.psi - np.asarray(sol.profile(ode.nodes)))))
        res = operator_residual(c, p, rho, R, sol)
        worst_diff = max(worst_diff, diff)
        worst_res = max(worst_res, res)
    ok = worst_diff <= 1e-6 and worst_res <= 1e-6
    _report(4, ok, f"10 randomized constellations: max node error "
                   f"{worst_diff:.2e} <= 1e-6, max operator residual "
                   f"{worst_res:.2e} <= 1e-6")


def test_criterion_05_identity_suite():
    grid = np.geomspace(0.3, 30.0, 100)
    tol = 1e-12
    report = {}

    c = Constellation.from_functions(4, 3, "sinh(r)", g="0.9",
                                     lam="0.3*coth(r)", h="1/(1+r)")
    jw = eval_jet2(c.model.w, grid)
    et = jw.d1 / jw.value
    hv = evaluate(c.h, grid)
    lhs = np.asarray(balance(c, 2.0, grid))
    rhs = 3.0 * (et - hv)
    report["balance_p2"] = float(np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs))))

    report["shift_identity"] = balance_shift_identity_check(c, 3.7, 2.4, grid)

    kwargs = dict(w="sinh(r)", h="coth(r)", lam="2*coth(r)")
    lower = Constellation.from_functions(3, 3, g="1", tangency="lower", **kwargs)
    upper = Constellation.from_functions(3, 3, g="0.77", tangency="upper", **kwargs)
    rs = np.geomspace(1.0, 20.0, 100)
    wl = WeightFunction(lower, 3.0, 1.0)(rs)
    wu = WeightFunction(upper, 3.0, 1.0)(rs)
    report["g1_equals_upper"] = float(np.max(np.abs(wl - wu) / np.abs(wl)))

    report["weight_at_base"] = abs(
        WeightFunction(c, 2.5, 0.8)(0.8) - evaluate(c.model.w, 0.8)) / evaluate(c.model.w, 0.8)

    c2 = Constellation.from_functions(3, 3, "sinh(r)", h="1/(1+r^2)")
    rr = np.geomspace(2.0, 30.0, 100)
    ratio = WeightFunction(c2, 2.5, 1.0)(rr) / WeightFunction(c2, 2.5, 2.0)(rr)
    report["rebasing_constancy"] = float(np.max(np.abs(ratio - ratio[0]) / ratio[0]))

    sol = solve_dirichlet_closed(c2, 2.5, 1.0, 4.0)
    flux_form = float(sphere_volume(c2.model, 1.0)) * sol.derivative(1.0)
    formula_form = drifted_capacity(c2, 2.5, 1.0, 4.0)
    report["flux_equals_formula"] = abs(flux_form - formula_form) / formula_form

    ok = all(v <= tol for v in report.values())
    detail = ", ".join(f"{k}={v:.2e}" for k, v in report.items())
    _report(5, ok, f"identities exact to 1e-12 relative: {detail}")


def test_criterion_06_corollary_properties():
    # nonpositive balance forces the weight to dominate the warping
    dominating = []
    for c, p in [
        (Constellation.from_functions(2, 2, "exp(r)", h="2", lam="2",
                                      tangency="upper"), 3.0),
        (Constellation.from_functions(3, 2, "sinh(r)", h="coth(r)",
                                      lam="coth(r)", tangency="upper"), 2.0),
        (Constellation.from_functions(3, 2, "tanh(r)", h="0",
                                      lam="2*cosh(r)/sinh(r)", tangency="upper"), 5.0),
    ]:
        prof = balance_sign(c, p, (0.5, 64.0), 256)
        assert prof.is_non_positive
        rs = np.geomspace(0.5, 32.0, 64)
        wv = np.asarray(evaluate(c.model.w, rs))
        lam_w = WeightFunction(c, p, 0.5)(rs)
        dominating.append(bool(np.all(lam_w >= wv * (1.0 - 1e-12))))

    c = Constellation.from_functions(3, 2, "sinh(r)", h="coth(r)", lam="coth(r)",
                                     tangency="upper")
    monotone = []
    base = classify_monotone(c, 2.0, 2.0, 1.0)
    for p in (2.5, 3.0, 5.0, 8.0):
        v = classify_monotone(c, 2.0, p, 1.0)
        monotone.append(v.is_parabolic)
    ok = all(dominating) and base.is_parabolic and all(monotone)
    _report(6, ok, f"weight >= warping under nonpositive balance "
                   f"({dominating}); monotone criterion certifies all "
                   f"p >= q ({monotone})")


def test_criterion_07_ad_correctness():
    rng = random.Random(20240817)
    checked = 0
    worst_d1 = 0.0
    worst_d2 = 0.0
    while checked < 200:
        expr = RadialExpr(_random_tree(rng, rng.randint(1, 4)))
        r = rng.uniform(0.2, 3.0)
        try:
            j = eval_jet2(expr, r)
            d1_fd, d2_fd = fd12(expr, r)
        except DomainError:
            continue
        vals = [j.value, j.d1, j.d2, d1_fd, d2_fd]
        if not all(math.isfinite(v) for v in vals):
            continue
        if max(abs(v) for v in vals) > 1e8:
            continue
        worst_d1 = max(worst_d1, abs(j.d1 - d1_fd) / (1 + abs(j.d1)))
        worst_d2 = max(worst_d2, abs(j.d2 - d2_fd) / (1 + abs(j.d2)))
        checked += 1
    ok = worst_d1 <= 1e-6 and worst_d2 <= 1e-4
    _report(7, ok, f"200 random jets vs central differences: "
                   f"max d1 dev {worst_d1:.2e} <= 1e-6, max d2 dev "
                   f"{worst_d2:.2e} <= 1e-4")


def test_criterion_08_stochastic_cross_check():
    t0 = time.monotonic()
    results = []
    for m, exact_target in [(3, 7.0 / 15.0), (2, 0.75)]:
        ms = ModelSpace.euclidean(m)
        cfg = DiffusionConfig(dt=1e-4, paths=20000, seed=42,
                              r_inner=0.5, r_outer=8.0, max_time=200.0)
        stats = simulate_radial(ms, 1.0, cfg)
        exact = exact_hitting_prob(ms, 1.0, 0.5, 8.0)
        dev = abs(stats.p_inner - exact_target)
        results.append((m, stats.p_inner, exact, dev, 3 * stats.stderr,
                        dev <= 3 * stats.stderr,
                        abs(exact - exact_target) <= 1e-12))
        # stochastic and variational pictures agree through the profile
        c = Constellation.self_model(ms)
        sol = solve_dirichlet_closed(c, 2.0, 0.5, 8.0)
        assert abs(exact - (1.0 - sol.profile(1.0))) <= 1e-8
    elapsed = time.monotonic() - t0
    ok = all(r[5] and r[6] for r in results) and elapsed < 60.0
    detail = "; ".join(
        f"m={m}: p={p:.5f} vs {e:.5f} (|dev|={d:.5f} <= {b:.5f})"
        for m, p, e, d, b, _, _ in results)
    _report(8, ok, f"{detail}; elapsed {elapsed:.1f}s (budget 60s)")


def test_criterion_09_rho_invariance():
    failures = []
    for m in M_GRID:
        c = euclid_self(m)
        for p in P_GRID:
            outcomes = set()
            for rho in (0.5, 1.0, 2.0):
                v = classify(c, p, rho)
                outcomes.add((v.outcome, v.by,
                              v.reason.code if v.reason else None))
            if len(outcomes) != 1:
                failures.append((m, p, outcomes))
    _report(9, not failures,
            f"classification outcomes identical for rho in (0.5, 1, 2) across "
            f"the 65-cell table; failures={failures}")


def test_criterion_10_tail_classifier_calibration():
    failures = []
    for alpha in (-3.0, -2.0, -1.5, -1.0, -0.5, 0.0, 1.0):
        tc = classify_tail(lambda t, a=alpha: t ** a, 1.0)
        expect = "divergent" if alpha >= -1.0 else "convergent"
        if tc.kind != expect or tc.alpha_hat is None or abs(tc.alpha_hat - alpha) > 0.02:
            failures.append((alpha, tc.kind, tc.alpha_hat))
    _report(10, not failures,
            f"pure powers classified by the alpha >= -1 rule with fitted "
            f"exponents within 0.02; failures={failures}")
