import math

import numpy as np
import pytest

from radialcap.errors import QuadratureError
from radialcap.quadrature import (
    CumulativeCache, TailConfig, classify_tail, integrate,
)


def test_integrate_log_kernel():
    val, err = integrate(lambda t: 3.0 / t, 1.0, 2.0)
    assert val == pytest.approx(3.0 * math.log(2.0), rel=1e-12)
    assert err <= 1e-10 * abs(val)


def test_integrate_endpoint_singularity():
    val, err = integrate(lambda t: t ** -0.5, 0.0, 1.0, rel_tol=1e-9)
    assert val == pytest.approx(2.0, rel=1e-9)


def test_integrate_reciprocal():
    val, _ = integrate(lambda t: 1.0 / t, 1.0, math.e)
    assert val == pytest.approx(1.0, rel=1e-12)


def test_integrate_polynomial_is_effectively_exact():
    val, _ = integrate(lambda t: t ** 10, 0.0, 1.0)
    assert val == pytest.approx(1.0 / 11.0, rel=1e-14)


def test_integrate_scalar_only_callable():
    # math.sin rejects arrays, forcing the elementwise fallback path
    val, _ = integrate(lambda t: math.sin(t), 0.0, math.pi)
    assert val == pytest.approx(2.0, rel=1e-12)


def test_integrate_rejects_bad_bounds():
    with pytest.raises(ValueError):
        integrate(lambda t: t, 2.0, 1.0)


def test_integrate_subdivision_limit_reports_worst_interval():
    # a genuinely nasty integrand with a non-integrable singularity
    with pytest.raises(QuadratureError) as exc:
        integrate(lambda t: 1.0 / t, 0.0, 1.0, rel_tol=1e-10, max_panels=64)
    assert exc.value.worst_interval is not None


def _decay_plus_log(t):
    return np.exp(-t) + 1.0 / t


def test_cumulative_matches_integrate():
    pts = np.array([1.0, 1.3, 2.0, 2.0, 5.5])
    prim = CumulativeCache(_decay_plus_log, 1.0)(pts)
    for i in range(len(pts) - 1):
        if pts[i] == pts[i + 1]:
            assert prim[i + 1] - prim[i] == 0.0
        else:
            ref, _ = integrate(_decay_plus_log, pts[i], pts[i + 1])
            assert prim[i + 1] - prim[i] == pytest.approx(ref, rel=1e-11)


def test_cumulative_base_is_exactly_zero_and_bad_queries_rejected():
    cache = CumulativeCache(_decay_plus_log, 1.0)
    assert cache(1.0) == 0.0
    cache(7.0)
    assert cache(1.0) == 0.0
    assert cache(np.array([1.0, 3.0]))[0] == 0.0
    with pytest.raises(ValueError):
        cache(0.5)
    with pytest.raises(ValueError):
        cache(np.array([2.0, np.nan]))


def test_cumulative_unsorted_repeated_and_shaped_queries_equal_sorted():
    pts = np.array([4.0, 1.5, 2.0, 9.0, 2.0, 1.0, 6.25])
    sorted_vals = CumulativeCache(_decay_plus_log, 1.0)(np.sort(pts))
    unsorted = CumulativeCache(_decay_plus_log, 1.0)(pts)
    assert np.array_equal(unsorted, sorted_vals[np.searchsorted(np.sort(pts), pts)])
    grid = CumulativeCache(_decay_plus_log, 1.0)(pts[:6].reshape(2, 3))
    assert grid.shape == (2, 3)
    assert np.array_equal(grid.ravel(), unsorted[:6])


def test_cumulative_piecewise_growth_matches_one_shot():
    pts = np.geomspace(1.0, 300.0, 200)
    one_shot = CumulativeCache(_decay_plus_log, 1.0)(pts)
    grown = CumulativeCache(_decay_plus_log, 1.0)
    piecewise = np.concatenate([grown(chunk) for chunk in np.array_split(pts, 17)])
    assert np.max(np.abs(piecewise - one_shot) / np.maximum(one_shot, 1e-300)) <= 1e-12
    assert piecewise[-1] == pytest.approx(math.exp(-1.0) - math.exp(-300.0) + math.log(300.0),
                                          rel=1e-12)


# ---------------------------------------------------------------------------
# tail classifier
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha,expect", [
    (-3.0, "convergent"),
    (-2.0, "convergent"),
    (-1.5, "convergent"),
    (-1.0, "divergent"),
    (-0.5, "divergent"),
    (0.0, "divergent"),
    (1.0, "divergent"),
])
def test_power_law_calibration(alpha, expect):
    tc = classify_tail(lambda t: t ** alpha, 1.0)
    assert tc.kind == expect
    assert tc.alpha_hat is not None
    assert abs(tc.alpha_hat - alpha) <= 0.02


def test_harmonic_tail_divergent_by_constant_increments():
    tc = classify_tail(lambda t: 1.0 / t, 1.0)
    assert tc.is_divergent
    assert "increments" in tc.detail


def test_inverse_square_convergent_value():
    tc = classify_tail(lambda t: t ** -2.0, 1.0)
    assert tc.is_convergent
    assert tc.value == pytest.approx(1.0, rel=1e-6)


def test_convergent_values_match_closed_forms():
    for alpha, exact in [(-2.0, 1.0), (-1.5, 2.0), (-3.0, 0.5)]:
        tc = classify_tail(lambda t: t ** alpha, 1.0)
        assert tc.is_convergent
        assert tc.value == pytest.approx(exact, rel=1e-6)


def test_exponential_decay_converges_fast():
    tc = classify_tail(lambda t: np.exp(-t), 1.0)
    assert tc.is_convergent
    assert tc.value == pytest.approx(math.exp(-1.0), rel=1e-6)


def test_exponential_growth_divergent_before_overflow():
    tc = classify_tail(lambda t: np.cosh(t), 1.0)
    assert tc.is_divergent


def test_extreme_growth_divergent_via_overflow_guard():
    tc = classify_tail(lambda t: np.exp(t), 1.0, TailConfig(growth_factor=1e308))
    assert tc.is_divergent
    assert "overflow" in tc.detail


def test_log_borderline_is_undetermined():
    tc = classify_tail(lambda t: 1.0 / (t * np.log(t)), 2.0)
    assert tc.kind == "undetermined"


def test_scale_invariance_of_kind():
    for alpha in (-2.0, -1.0, -0.5):
        base = classify_tail(lambda t: t ** alpha, 1.0)
        scaled = classify_tail(lambda t: 7.25e3 * t ** alpha, 1.0)
        tiny = classify_tail(lambda t: 1.3e-9 * t ** alpha, 1.0)
        assert base.kind == scaled.kind == tiny.kind


def test_partial_integrals_recorded():
    tc = classify_tail(lambda t: t ** -2.0, 1.0)
    radii = [rk for rk, _ in tc.partial_integrals]
    assert radii[0] == 2.0
    assert all(b == 2 * a for a, b in zip(radii, radii[1:]))
    totals = [ik for _, ik in tc.partial_integrals]
    assert all(b >= a for a, b in zip(totals, totals[1:]))
