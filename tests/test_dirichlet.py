import math
import re

import numpy as np
import pytest

from radialcap.constellation import (
    Constellation, Tangency, WeightFunction, balance, balance_shift_identity_check,
    balance_sign,
)
from radialcap.criteria import classify_bounded_w
from radialcap.diffusion import exact_hitting_prob
from radialcap.dirichlet import (
    RadialSolution, drift_coeff, drifted_capacity, flux_bound, operator_residual,
    solve_dirichlet_closed, solve_dirichlet_ode,
)
from radialcap.errors import ConfigError, DomainError, QuadratureError, RadialCapError
from radialcap.model import ModelSpace, exact_annulus_p_capacity, sphere_volume, validate_warping
from radialcap.quadrature import CumulativeCache, integrate


def euclid_self(m):
    return Constellation.self_model(ModelSpace.euclidean(m))


def zero_balance_constellation():
    """h = eta = 1 and lam = 1 cancel every balance term for any p, so the
    weight reduces to the warping itself (w = exp(r), valid on the annulus).
    """
    return Constellation.from_functions(2, 2, "exp(r)", h="1", lam="1",
                                        tangency=Tangency.UPPER)


def test_closed_solution_constant_weight_gives_linear_profile():
    # constant warping + zero balance: weight is constant, profile linear
    c = Constellation.from_functions(2, 2, "2", tangency=Tangency.UPPER)
    sol = solve_dirichlet_closed(c, 3.0, 1.0, 2.0)
    rs = np.linspace(1.0, 2.0, 21)
    assert np.max(np.abs(sol.profile(rs) - (rs - 1.0))) <= 1e-12
    ode = solve_dirichlet_ode(c, 3.0, 1.0, 2.0, step_count=500)
    assert np.max(np.abs(ode.psi - (ode.nodes - 1.0))) <= 1e-10
    # linear flux: capacity is boundary volume over annulus width
    vol = float(sphere_volume(c.model, 1.0))
    assert drifted_capacity(c, 3.0, 1.0, 2.0) == pytest.approx(vol / 1.0, rel=1e-10)
    assert drifted_capacity(c, 3.0, 1.0, 3.5) == pytest.approx(vol / 2.5, rel=1e-10)
    # linear profile: no truncation error, so the 0.01-wide stencil of the
    # annulus [1, 51] leaves only rounding noise far below 1e-10
    wide = solve_dirichlet_closed(c, 3.0, 1.0, 51.0)
    assert operator_residual(c, 3.0, 1.0, 51.0, wide) <= 1e-10


def test_closed_solution_zero_balance_weight_is_warping():
    c = zero_balance_constellation()
    sol = solve_dirichlet_closed(c, 3.0, 1.0, 2.0)
    rs = np.linspace(1.0, 2.0, 21)
    expect = (np.exp(rs) - np.e) / (np.e * np.e - np.e)
    psi = sol.profile(rs)
    assert psi[0] == 0.0
    assert psi[-1] == 1.0
    assert np.all(np.diff(psi) > 0)
    assert np.max(np.abs(psi - expect)) <= 1e-9


def test_closed_solution_euclidean_m3():
    sol = solve_dirichlet_closed(euclid_self(3), 2.0, 1.0, 2.0)
    rs = np.linspace(1.0, 2.0, 33)
    expect = 2.0 * (1.0 - 1.0 / rs)
    assert np.max(np.abs(sol.profile(rs) - expect)) <= 1e-10
    assert sol.profile(1.0) == 0.0
    assert sol.profile(2.0) == 1.0


def test_ode_matches_closed_euclidean():
    c = euclid_self(3)
    sol = solve_dirichlet_closed(c, 2.0, 1.0, 2.0)
    ode = solve_dirichlet_ode(c, 2.0, 1.0, 2.0, step_count=2000)
    closed_at_nodes = sol.profile(ode.nodes)
    assert np.max(np.abs(ode.psi - closed_at_nodes)) <= 1e-6
    expect = 2.0 * (1.0 - 1.0 / ode.nodes)
    assert np.max(np.abs(ode.psi - expect)) <= 1e-6


def test_ode_matches_closed_hyperbolic():
    c = Constellation.self_model(ModelSpace.hyperbolic(2))
    sol = solve_dirichlet_closed(c, 2.0, 1.0, 3.0)
    ode = solve_dirichlet_ode(c, 2.0, 1.0, 3.0, step_count=2000)
    assert np.max(np.abs(ode.psi - sol.profile(ode.nodes))) <= 1e-6


def test_ode_handles_blowup_weights_via_renormalization():
    # strongly negative balance: weight grows like e^{2r}; profile still fine
    c = Constellation.from_functions(2, 2, "exp(r)", h="2", lam="2",
                                     tangency=Tangency.UPPER)
    sol = solve_dirichlet_closed(c, 3.0, 1.0, 4.0)
    ode = solve_dirichlet_ode(c, 3.0, 1.0, 4.0, step_count=4000)
    assert np.max(np.abs(ode.psi - sol.profile(ode.nodes))) <= 1e-6


def rk4_loop(c, p, rho, R, n):
    """Reference: classical RK4 on (psi, psi') stepped one node at a time,
    renormalized whenever the state passes 1e100, then scaled to psi(R) = 1."""
    h = (R - rho) / n
    nodes = rho + h * np.arange(n + 1)
    def coeff(r):
        return drift_coeff(c, p, r)
    psi_hat, v_hat, log_scale = np.empty(n + 1), np.empty(n + 1), np.empty(n + 1)
    psi, v, ls = 0.0, 1.0, 0.0
    psi_hat[0], v_hat[0], log_scale[0] = psi, v, ls
    for i in range(n):
        c0, cm, c1 = (float(coeff(r)) for r in (nodes[i], nodes[i] + 0.5 * h, nodes[i + 1]))
        k1v = -c0 * v
        y2 = v + 0.5 * h * k1v
        k2v = -cm * y2
        y3 = v + 0.5 * h * k2v
        k3v = -cm * y3
        y4 = v + h * k3v
        k4v = -c1 * y4
        psi += h / 6.0 * (v + 2.0 * y2 + 2.0 * y3 + y4)
        v += h / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        m = max(abs(psi), abs(v))
        if m > 1e100:
            psi, v, ls = psi / m, v / m, ls + math.log(m)
        psi_hat[i + 1], v_hat[i + 1], log_scale[i + 1] = psi, v, ls
    rescale = np.exp(log_scale - log_scale[-1]) / psi_hat[-1]
    return psi_hat * rescale, v_hat * rescale


@pytest.mark.parametrize("name, c, p, rho, R, n", [
    ("euclid3", euclid_self(3), 2.0, 1.0, 2.0, 1000),
    ("hyperbolic2", Constellation.self_model(ModelSpace.hyperbolic(2)), 2.0, 1.0, 3.0, 1000),
    ("lower", Constellation.from_functions(4, 3, "r + 0.3*r^2", g="0.8", lam="0.1/(1 + r)",
                                           h="0.15/(1 + r)"), 2.5, 0.8, 3.0, 1000),
    ("blowup_e2r", Constellation.from_functions(2, 2, "exp(r)", h="2", lam="2",
                                                tangency=Tangency.UPPER), 3.0, 1.0, 4.0, 4000),
    # psi' grows by e^626 over [1, 8]: the loop renormalizes past 1e100
    ("blowup_h60", Constellation.from_functions(2, 2, "exp(r)", h="60", lam="60",
                                                tangency=Tangency.UPPER), 3.0, 1.0, 8.0, 1000),
])
def test_ode_matches_per_step_rk4(name, c, p, rho, R, n):
    ode = solve_dirichlet_ode(c, p, rho, R, step_count=n)
    psi, dpsi = rk4_loop(c, p, rho, R, n)
    assert np.max(np.abs(ode.psi - psi)) <= 1e-12
    # psi' spans up to e^626 here, so it is compared on the scale of its
    # peak; far below the peak log|psi'| carries the rounding of a cumsum
    assert np.max(np.abs(ode.dpsi - dpsi)) <= 1e-12 * np.max(np.abs(dpsi))
    assert ode.psi[0] == 0.0 and ode.psi[-1] == 1.0
    assert np.all(np.isfinite(ode.dpsi))


def test_ode_boundary_values_exact():
    for c, p, rho, R in [(euclid_self(4), 3.5, 0.7, 2.9), (zero_balance_constellation(), 3.0, 1.0, 2.0),
                         (Constellation.from_functions(3, 3, "sinh(r)", h="1/(1+r^2)"), 2.5, 0.5, 5.0)]:
        ode = solve_dirichlet_ode(c, p, rho, R, step_count=777)
        assert ode.psi[0] == 0.0
        assert ode.psi[-1] == 1.0


def test_ode_rejects_nonfinite_drift():
    # m h = 2 exp(r^3) overflows to inf between r = 8.914 and 8.921, so
    # c(r) = balance/((p-1) g^2) is infinite there: an error at the first
    # such node or midpoint, not a profile of NaN
    c = Constellation.from_functions(3, 2, "r", h="exp(r^3)", tangency=Tangency.LOWER)
    with pytest.raises(DomainError, match="drift coefficient is not finite") as exc:
        solve_dirichlet_ode(c, 3.0, 1.0, 10.0)
    assert 8.914 < exc.value.r < 8.921


def test_both_solvers_apply_the_tangency_floor():
    # g = r - 1.5 is negative on [1, 1.4]: the closed form, the RK4 solve and
    # the residual's drift all stop at the floor g >= 1e-8
    c = Constellation.from_functions(3, 2, "r", g="r - 1.5", h="0.1", tangency=Tangency.LOWER)
    floor = "tangency bound g below 1e-08"
    with pytest.raises(DomainError, match=floor) as exc:
        solve_dirichlet_ode(c, 3.0, 1.0, 1.4)
    assert exc.value.r == 1.0
    with pytest.raises(DomainError, match=floor):
        solve_dirichlet_closed(c, 3.0, 1.0, 1.4)
    with pytest.raises(DomainError, match=floor):
        operator_residual(c, 3.0, 1.0, 1.4, lambda r: r - 1.0)
    with pytest.raises(DomainError, match=f"^{floor} at r=1.2$"):
        drift_coeff(c, 3.0, np.float64(1.2))


def test_vanishing_warping_reports_its_radius():
    c = Constellation.from_functions(2, 2, "r - 1.5", tangency=Tangency.UPPER)
    with pytest.raises(DomainError, match="warping function vanishes") as exc:
        solve_dirichlet_ode(c, 3.0, 1.0, 2.0)
    assert exc.value.r == 1.5
    assert isinstance(exc.value.r, float)


def test_negative_weight_integral_has_no_solution():
    # w = -r keeps one sign, so the weight is -1/r and its integral -log 2
    c = Constellation.from_functions(3, 3, "-r")
    with pytest.raises(RadialCapError, match=r"^weight integral over \[1.0, 2.0\] is -0.693"):
        solve_dirichlet_closed(c, 3.0, 1.0, 2.0)


def test_oscillating_remainder_over_a_finite_annulus_raises_its_worst_interval():
    # about 1,300 periods of sin r per doubling near 2^14: the remainder mesh
    # runs out of panels, and a finite annulus has no horizon to stop at
    c = Constellation.from_functions(3, 2, "r", h="0.2*sin(r)/(1+r)")
    with pytest.raises(QuadratureError) as exc:
        drifted_capacity(c, 3, 1, 2 ** 15)
    assert str(exc.value).startswith("subdivision limit reached; worst subinterval [")
    lo, hi, _ = exc.value.worst_interval
    assert 2 ** 14 <= lo < hi <= 2 ** 15


def test_monotone_profile_and_derivative_nonnegative():
    c = Constellation.from_functions(3, 3, "sinh(r)", h="1/(1+r^2)")
    sol = solve_dirichlet_closed(c, 2.5, 0.5, 5.0)
    rs = np.linspace(0.5, 5.0, 64)
    assert np.all(np.asarray(sol.derivative(rs)) >= 0)
    assert np.all(np.diff(sol.profile(rs)) >= 0)


def test_drifted_capacity_newtonian():
    cap = drifted_capacity(euclid_self(3), 2.0, 1.0, 2.0)
    assert cap == pytest.approx(8 * math.pi, rel=1e-9)


def test_drifted_capacity_large_R():
    cap = drifted_capacity(euclid_self(3), 2.0, 1.0, 1e4)
    assert cap == pytest.approx(4 * math.pi / (1 - 1e-4), rel=1e-9)


def test_drifted_capacity_agrees_with_exact_p2():
    for m, w in [(3, "r"), (2, "r"), (3, "sinh(r)")]:
        c = Constellation.self_model(ModelSpace(m, w))
        cap = drifted_capacity(c, 2.0, 1.0, 2.5)
        exact = exact_annulus_p_capacity(c.model, 1.0, 2.5, 2.0)
        assert cap == pytest.approx(exact, rel=1e-8)


def test_nonfinite_inputs_are_input_errors():
    # a NaN p passed the p < 2 checks and came back as a NaN balance, sign
    # "mixed", drift or weight
    c = Constellation.from_functions(3, 3, "r")
    for p in (math.nan, math.inf, -math.inf):
        for call in (lambda: balance(c, p, 1.0), lambda: balance_sign(c, p, (0.1, 10.0)),
                     lambda: drift_coeff(c, p, 1.0), lambda: WeightFunction(c, p, 1.0)):
            with pytest.raises(ValueError, match=f"p must be finite, got {p}"):
                call()
    with pytest.raises(ValueError, match="p must be >= 2, got 1.5"):
        drift_coeff(c, 1.5, 1.0)
    for p, q, text in ((math.nan, 3.0, "p must be finite, got nan"),
                       (3.0, math.inf, "q must be finite, got inf")):
        with pytest.raises(ValueError, match=f"^{text}$"):
            balance_shift_identity_check(c, p, q, [1.0, 2.0])
    for rel_tol, text in ((math.nan, "rel_tol must be finite, got nan"),
                          (-1e-10, "rel_tol must be >= 0, got -1e-10")):
        with pytest.raises(ValueError, match=f"^{text}$"):
            WeightFunction(c, 3.0, 1.0, rel_tol)
    # an infinite tolerance would accept the first estimate unrefined
    for call in (lambda: WeightFunction(c, 3.0, 1.0, math.inf),
                 lambda: drifted_capacity(c, 3.0, 1.0, 2.0, rel_tol=math.inf)):
        with pytest.raises(ValueError, match="rel_tol must be finite, got inf"):
            call()
    for solve in (solve_dirichlet_closed, solve_dirichlet_ode):
        with pytest.raises(ValueError, match="R must be finite, got inf"):
            solve(c, 3.0, 1.0, math.inf)
    # the exact oracles integrate over [rho, R] or [r0, R]
    ms = ModelSpace.euclidean(3)
    for text, call in (("b must be finite, got inf",
                        lambda: integrate(lambda t: 1.0 / t, 1.0, math.inf)),
                       ("a must be finite, got nan",
                        lambda: integrate(lambda t: 1.0 / t, math.nan, 2.0)),
                       ("R must be finite, got inf",
                        lambda: exact_annulus_p_capacity(ms, 1.0, math.inf, 3.0)),
                       ("R must be finite, got inf",
                        lambda: exact_hitting_prob(ms, 1.0, 0.5, math.inf))):
        with pytest.raises(ValueError, match=f"^{text}$"):
            call()
    for p in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"^p must be finite, got {p}$"):
            exact_annulus_p_capacity(ms, 1.0, 2.0, p)
    # these ran on to "evaluation produced NaN", a RuntimeWarning, a verdict
    # against "warping drops below nan" or an inf bound
    upper = Constellation.from_functions(3, 2, "sinh(r)", lam="coth(r)", h="1.2*coth(r)",
                                         tangency=Tangency.UPPER)
    for x in (math.nan, math.inf):
        for name, call in (("r0", lambda: classify_bounded_w(upper, 2.0, 1.0, x, 0.1)),
                           ("lower_const", lambda: classify_bounded_w(upper, 2.0, 1.0, 1.0, x)),
                           ("r_max", lambda: validate_warping("r", r_max=x)),
                           ("rho", lambda: WeightFunction(c, 3.0, x))):
            with pytest.raises(ValueError, match=f"^{name} must be finite, got {x}$"):
                call()
    with pytest.raises(ValueError, match="^boundary_flux must be finite, got inf$"):
        flux_bound(1.0, 1.0, 3.0, math.inf)
    # NaN raised Python's own conversion error, and 150.5 ran 150 steps
    for steps, rule in ((math.nan, "be finite"), (math.inf, "be finite"),
                        (150.5, "be an integer")):
        with pytest.raises(ValueError, match=f"^step_count must {rule}, got {steps}$"):
            solve_dirichlet_ode(c, 3.0, 1.0, 4.0, step_count=steps)
    # these returned 1.0, nan, 1.0, a bare ZeroDivisionError, a sign after a
    # numpy RuntimeWarning, inf, Python's "cannot convert float NaN to
    # integer" and a constellation with n = 3.5
    for text, call in (
            ("p must be finite, got nan", lambda: flux_bound(1.0, 1.0, math.nan, 1.0)),
            ("cap must be finite, got nan", lambda: flux_bound(math.nan, 1.0, 3.0, 1.0)),
            ("cap must be >= 0, got -1.0", lambda: flux_bound(-1.0, 1.0, 3.0, 1.0)),
            ("vol must be > 0, got 0.0", lambda: flux_bound(1.0, 0.0, 3.0, 1.0)),
            ("hi must be finite, got inf", lambda: balance_sign(c, 3.0, (1.0, math.inf))),
            ("p must be finite, got inf", lambda: exact_annulus_p_capacity(ms, 1.0, 2.0, math.inf)),
            ("dimension must be finite, got nan", lambda: ModelSpace(math.nan, "r")),
            ("n must be an integer, got 3.5", lambda: Constellation.from_functions(3.5, 3, "r"))):
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            call()


@pytest.mark.parametrize("args", [(100.0, 1.0, 1000.0, 1.0), (2.0, 1.0, 3.0, 1e308)], ids=str)
def test_capacity_upper_bound_past_float_range_is_named(args):
    # the power raised a bare OverflowError; the product returned inf
    with pytest.raises(RadialCapError, match=r"^capacity upper bound overflows float range "
                                             rf"\(p={args[2]:g}\)$"):
        flux_bound(*args)


def test_capacity_upper_bound_collapses_to_exact_for_self_constellation():
    """With the natural boundary flux the (p-1)-power chain reproduces the
    exact annulus p-capacity for every p, not only p = 2."""
    for m, p in [(3, 2.0), (3, 3.0), (2, 2.5), (4, 4.0)]:
        c = euclid_self(m)
        flux = float(sphere_volume(c.model, 1.0))
        bound = flux_bound(drifted_capacity(c, p, 1.0, 2.0), float(sphere_volume(c.model, 1.0)),
                           p, flux)
        exact = exact_annulus_p_capacity(c.model, 1.0, 2.0, p)
        assert bound == pytest.approx(exact, rel=1e-8)


def test_capacity_upper_bound_decreases_to_zero_under_divergent_tail():
    # weight ~ 1/r: divergent normalizer, bound = flux / log(R) -> 0
    c = euclid_self(2)
    vol = float(sphere_volume(c.model, 1.0))
    bounds = [flux_bound(drifted_capacity(c, 2.0, 1.0, R), vol, 2.0, 1.0)
              for R in (10.0, 100.0, 1000.0)]
    assert all(b > n for b, n in zip(bounds, bounds[1:]))
    for bound, R in zip(bounds, (10.0, 100.0, 1000.0)):
        assert bound == pytest.approx(1.0 / math.log(R), rel=1e-9)


def test_capacity_upper_bound_p2_reduction():
    c = euclid_self(3)
    flux = 4 * math.pi
    cap = drifted_capacity(c, 2.0, 1.0, 2.0)
    bound = flux_bound(cap, float(sphere_volume(c.model, 1.0)), 2.0, flux)
    assert bound == pytest.approx(flux * cap / (4 * math.pi), rel=1e-12)
    assert bound == pytest.approx(8 * math.pi, rel=1e-9)


def test_capacity_upper_bound_rejects_nonpositive_flux():
    with pytest.raises(ValueError):
        flux_bound(drifted_capacity(euclid_self(3), 2.0, 1.0, 2.0), 4 * math.pi, 2.0, 0.0)


def test_flux_form_equals_formula_form():
    c = Constellation.from_functions(3, 3, "sinh(r)", h="1/(1+r)")
    sol = solve_dirichlet_closed(c, 2.5, 1.0, 4.0)
    flux_form = float(sphere_volume(c.model, 1.0)) * sol.derivative(1.0)
    formula = drifted_capacity(c, 2.5, 1.0, 4.0)
    assert flux_form == pytest.approx(formula, rel=1e-10)


def test_operator_residual_closed_solution_small():
    c = euclid_self(3)
    sol = solve_dirichlet_closed(c, 2.0, 1.0, 2.0)
    assert operator_residual(c, 2.0, 1.0, 2.0, sol) <= 1e-6


RESIDUAL_BAD_INPUTS = [  # p, rho, R and the error's text
    (2.0, 1.0, math.inf, "R must be finite, got inf"),
    (2.0, math.nan, 2.0, "rho must be finite, got nan"),
    (2.0, 2.0, 1.0, r"R must be > rho \(2.0\), got 1.0"),
    (2.0, 0.0, 2.0, "rho must be > 0, got 0.0"),
    (math.nan, 1.0, 2.0, "p must be finite, got nan"),
    (1.5, 1.0, 2.0, "p must be >= 2, got 1.5")]


@pytest.mark.parametrize("p, rho, R, text", RESIDUAL_BAD_INPUTS,
                         ids=[f"{rho}-{R}-{text}" for _, rho, R, text in RESIDUAL_BAD_INPUTS])
def test_operator_residual_checks_rho_and_R_first(p, rho, R, text):
    # inf and nan raised "cumulative cache queried at nan", and rho > R gave a
    # residual; a bad p raised only after 1,285 profile evaluations
    def profile(r):
        raise AssertionError("the profile was evaluated")

    with pytest.raises(ValueError, match=f"^{text}$"):
        operator_residual(euclid_self(3), p, rho, R, profile)


def test_closed_solution_samples_the_remainder_once_per_panel(monkeypatch):
    # the profile's primitive and the weight's remainder are panel meshes:
    # neither re-integrates per query point
    c = Constellation.from_functions(4, 3, "r + 0.3*r^2", g="0.8", lam="0.1/(1 + r)",
                                     h="0.15/(1 + r)")
    points = []
    integrand = WeightFunction.integrand

    def counted(self, t):
        points.append(np.size(t))
        return integrand(self, t)

    monkeypatch.setattr(WeightFunction, "integrand", counted)
    sol = solve_dirichlet_closed(c, 2.5, 0.8, 3.0)
    sol.profile(np.linspace(0.8, 3.0, 1001))
    assert operator_residual(c, 2.5, 0.8, 3.0, sol) <= 1e-6
    assert sum(points) < 2000


def test_closed_solution_grows_the_remainder_mesh_once(remainder_extensions):
    c = Constellation.from_functions(4, 3, "r + 0.3*r^2", g="0.8", lam="0.1/(1 + r)",
                                     h="0.15/(1 + r)")
    sol = solve_dirichlet_closed(c, 2.5, 0.8, 3.0)
    sol.profile(np.linspace(0.8, 3.0, 1001))
    assert remainder_extensions == [3.0]


def test_closed_solution_samples_the_weight_in_a_few_rounds(monkeypatch):
    # the span [1, 1024] and its ten doublings are sampled in one call,
    # and refinement starts from the doublings instead of halving the span
    calls = []
    call = WeightFunction.__call__

    def counted(self, r):
        calls.append(np.size(r))
        return call(self, r)

    monkeypatch.setattr(WeightFunction, "__call__", counted)
    sol = solve_dirichlet_closed(euclid_self(3), 3.0, 1.0, 1024.0)
    assert len(calls) <= 3
    assert sol.normalizer == pytest.approx(math.log(1024.0), rel=1e-12)


def test_normalizer_of_a_weight_that_dies_near_rho_ignores_the_far_annulus():
    # the weight is exp(-200 (r - 1)) / r: it underflows at every node of one
    # panel over [1, 1024], so the normalizer must come from the doublings
    c = Constellation.from_functions(2, 2, "r", h="-100")
    near = solve_dirichlet_closed(c, 2.0, 1.0, 3.0).normalizer
    assert solve_dirichlet_closed(c, 2.0, 1.0, 1024.0).normalizer == pytest.approx(near, rel=1e-12)


def test_solutions_on_one_weight_share_its_primitive(monkeypatch):
    c = Constellation.from_functions(4, 3, "r + 0.3*r^2", g="0.8", lam="0.1/(1 + r)",
                                     h="0.15/(1 + r)")
    wf = WeightFunction(c, 2.5, 0.8, rel_tol=1e-11)
    first = RadialSolution(wf, 3.0)
    calls = []
    call = WeightFunction.__call__

    def counted(self, r):
        calls.append(np.size(r))
        return call(self, r)

    monkeypatch.setattr(WeightFunction, "__call__", counted)
    second = RadialSolution(wf, 3.0)
    assert calls == []
    assert second.normalizer == first.normalizer
    assert first.normalizer == solve_dirichlet_closed(c, 2.5, 0.8, 3.0).normalizer


def test_profile_after_the_normalizer_makes_no_remainder_query(monkeypatch):
    # the normalizer grew the remainder mesh to R: the profile at the RK4
    # nodes and the residual's stencil read the primitive alone
    c = Constellation.from_functions(4, 3, "r + 0.3*r^2", g="0.8", lam="0.1/(1 + r)",
                                     h="0.15/(1 + r)")
    sol = solve_dirichlet_closed(c, 2.5, 0.8, 3.0)
    calls = []
    call = CumulativeCache.__call__

    def counted(self, r):
        if self is sol.weight._cache:
            calls.append(np.size(r))
        return call(self, r)

    monkeypatch.setattr(CumulativeCache, "__call__", counted)
    sol.profile(solve_dirichlet_ode(c, 2.5, 0.8, 3.0, step_count=400).nodes)
    assert operator_residual(c, 2.5, 0.8, 3.0, sol) <= 1e-6
    assert calls == []


def test_profile_queries_in_any_order_and_shape():
    sol = solve_dirichlet_closed(Constellation.from_functions(4, 3, "sinh(r)", g="0.9",
                                                              h="1/(1+r)"), 2.5, 1.0, 4.0)
    rs = np.linspace(1.0, 4.0, 31)
    ascending = sol.profile(rs)
    shuffled = np.random.default_rng(5).permutation(31)
    assert np.array_equal(sol.profile(rs[shuffled]), ascending[shuffled])
    assert np.array_equal(sol.profile(rs.reshape(31, 1)).ravel(), ascending)
    assert sol.profile(1.0) == 0.0 and ascending[0] == 0.0


RADIUS_PROBE = [  # a radius no query takes, and the one text every query gives
    (math.nan, "r must be finite, got nan"),
    (math.inf, "r must be finite, got inf"),
    (np.array([1.5, math.nan]), "r must be finite, got nan"),
    (np.array([1.5, math.inf]), "r must be finite, got inf"),
    (0.5, r"r must be >= rho \(1.0\), got 0.5"),
    (0.0, r"r must be >= rho \(1.0\), got 0.0"),
    (-math.inf, "r must be finite, got -inf"),
    (np.array([1.5, 0.5]), r"r must be >= rho \(1.0\), got 0.5")]


@pytest.mark.parametrize("r, text", RADIUS_PROBE,
                         ids=["nan", "inf", "[1.5 nan]", "[1.5 inf]", "0.5", "0.0", "-inf",
                              "[1.5 0.5]"])
def test_profile_and_derivative_name_a_radius_that_is_not_finite(r, text):
    # derivative(nan) said "evaluation produced NaN at r=nan", from the weight.
    # Below rho, six texts of two types: "cumulative cache is based at 1.0;
    # query below it", "weight is based at rho=1.0; query below it" and a
    # DomainError "radial variable must be positive"
    for h in ("0", "0.1"):
        sol = solve_dirichlet_closed(Constellation.from_functions(3, 3, "r", h=h), 3.0, 1.0, 2.0)
        for query in (sol.profile, sol.derivative, sol.weight, sol.weight.integral,
                      sol.weight.inner_integral):
            with pytest.raises(ConfigError, match=f"^{text}$"):
                query(r)


def test_operator_residual_negative_control():
    c = euclid_self(3)
    sol = solve_dirichlet_closed(c, 2.0, 1.0, 2.0)

    def perturbed(r):
        return sol.profile(r) + 0.01 * np.sin(3.0 * np.asarray(r))

    assert operator_residual(c, 2.0, 1.0, 2.0, perturbed) > 1e-3


def test_profile_concavity_under_nonnegative_balance():
    """With balance >= 0 the profile satisfies psi'' - psi' w'/w <= 0."""
    c = Constellation.from_functions(4, 3, "sinh(r)", g="0.9", h="1/(1+r)")
    sol = solve_dirichlet_closed(c, 2.5, 1.0, 4.0)
    h = 1e-4
    rs = np.linspace(1.0 + 3 * h, 4.0 - 3 * h, 101)
    pts = rs[:, None] + h * np.array([-1.0, 0.0, 1.0])[None, :]
    vals = np.asarray(sol.profile(np.sort(pts.ravel()))).reshape(pts.shape)
    d1 = (vals[:, 2] - vals[:, 0]) / (2 * h)
    d2 = (vals[:, 2] - 2 * vals[:, 1] + vals[:, 0]) / (h * h)
    jw = np.cosh(rs) / np.sinh(rs)
    assert np.all(d2 - d1 * jw <= 1e-8)


def test_drifted_capacity_monotone_in_R_with_correct_limit():
    # divergent weight (plane): capacity decreases without a positive floor
    plane = euclid_self(2)
    caps = [drifted_capacity(plane, 2.0, 1.0, R) for R in (10.0, 100.0, 1000.0)]
    assert caps[0] > caps[1] > caps[2]
    assert caps[2] < 0.5 * caps[0]
    # convergent weight (hyperbolic): capacity stabilizes at a positive limit
    hyp = Constellation.self_model(ModelSpace.hyperbolic(3))
    radii = (5.0, 20.0, 80.0)
    caps = [drifted_capacity(hyp, 2.0, 1.0, R) for R in radii]
    # the R = 20 and R = 80 capacities differ by ~1e-17 relative, below one
    # ulp: exact_annulus_p_capacity gives the same double for both
    assert caps[0] > caps[1] >= caps[2] > 0
    assert caps[2] >= 0.95 * caps[1]
    # at p = 2 the drifted and the exact capacity of a self-model coincide
    for R, cap in zip(radii, caps):
        exact = exact_annulus_p_capacity(hyp.model, 1.0, R, 2.0)
        assert abs(cap - exact) <= 1e-12 * exact


def test_boundary_values_always_exact():
    c = Constellation.from_functions(2, 2, "sinh(r)", h="coth(r)", lam="coth(r)",
                                     tangency=Tangency.UPPER)
    sol = solve_dirichlet_closed(c, 4.0, 0.5, 6.0)
    assert sol.profile(0.5) == 0.0
    assert sol.profile(6.0) == 1.0
