import math
import os
import re
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from radialcap.cli import load_config
from radialcap.constellation import Constellation, WeightFunction
from radialcap.criteria import classify
from radialcap import quadrature
from radialcap.errors import ConfigError, DomainError, QuadratureError
from radialcap.quadrature import (
    _TAIL_REL_TOL, CumulativeCache, TailConfig, _first_stop, _fit_exponent, classify_tail,
    geomgrid, integrate,
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


def test_integrands_must_map_arrays_to_arrays_of_their_shape():
    # math.sin rejects arrays; a constant ignores the shape of its nodes
    with pytest.raises(TypeError):
        integrate(lambda t: math.sin(t), 0.0, math.pi)
    with pytest.raises(TypeError, match="same shape"):
        integrate(lambda t: 1.0, 0.0, 1.0)
    with pytest.raises(TypeError, match="same shape"):
        CumulativeCache(lambda t: 2.0, 1.0)(3.0)


def test_integrate_rejects_bad_bounds():
    with pytest.raises(ValueError):
        integrate(lambda t: t, 2.0, 1.0)


def test_integrate_subdivision_limit_reports_worst_interval():
    # about 1.6e6 periods: more than the 4000-panel budget can resolve
    with pytest.raises(QuadratureError, match="subdivision limit reached") as exc:
        integrate(lambda t: np.sin(1e4 * t), 0.0, 1000.0)
    assert exc.value.worst_interval is not None
    # a non-integrable singularity meets the roundoff limit first
    with pytest.raises(QuadratureError, match="roundoff-limited") as exc:
        integrate(lambda t: 1.0 / t, 0.0, 1.0, rel_tol=1e-10)
    assert exc.value.worst_interval is not None
    # and so does a jump on a cache's mesh, which no panel width resolves
    with pytest.raises(QuadratureError, match=r"^cannot refine further \(roundoff-limited\); "
                                              r"worst subinterval \[1\.3") as exc:
        CumulativeCache(lambda t: (t > 1.3).astype(float), 1.0)(2.0)
    lo, hi, _ = exc.value.worst_interval
    assert lo <= 1.3 <= hi


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


def test_cumulative_error_sums_the_panels_and_covers_the_true_error():
    cache = CumulativeCache(_decay_plus_log, 1.0)
    assert cache.error(1.0) == 0.0
    exact = math.exp(-1.0) - math.exp(-5.5) + math.log(5.5)
    assert abs(cache(5.5) - exact) <= cache.error(5.5)
    assert 0.0 < cache.error(2.0) <= cache.error(5.5)


def test_cumulative_base_is_exactly_zero_and_bad_queries_rejected():
    cache = CumulativeCache(_decay_plus_log, 1.0)
    assert cache(1.0) == 0.0
    cache(7.0)
    assert cache(1.0) == 0.0
    assert cache(np.array([1.0, 3.0]))[0] == 0.0
    with pytest.raises(ValueError):
        cache(0.5)
    with pytest.raises(ValueError, match=r"^r must be >= base \(1.0\), got 0.5$"):
        cache(np.array([0.5, 2.0]))
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


def _chebval_query(cache, r):
    """The query through numpy's chebval over the stored coefficients, one
    column per point, as the cache answered before its own Clenshaw sum."""
    pts = np.asarray(r, dtype=float)
    flat = np.maximum(pts.ravel(), cache.base)
    i = np.searchsorted(cache._lo, flat, side="right") - 1
    x = np.clip((flat - cache._mid[i]) / cache._half[i], -1.0, 1.0)
    inner = np.polynomial.chebyshev.chebval(x, cache._coef[:, i], tensor=False)
    out = cache._off[i] + np.where(flat == cache._lo[i], 0.0, inner)
    return float(out[0]) if pts.ndim == 0 else out.reshape(pts.shape)


@st.composite
def mesh_queries(draw):
    """A meshed cache and points on it: the base, panel left edges, points
    inside panels and the reach, in drawn order and with repeats."""
    f = draw(st.sampled_from([_decay_plus_log, lambda t: (2.0 + np.sin(t)) / t ** 2,
                              lambda t: np.exp(-t) * t ** 3]))
    cache = CumulativeCache(f, 1.0, rel_tol=draw(st.sampled_from([1e-12, 1e-8])))
    cache.grow(draw(st.floats(1.5, 300.0)))
    n = len(cache._lo)
    ends = np.append(cache._lo, cache._reach)

    def point(kind):
        j = draw(st.integers(0, n - 1))
        if kind == "inside":
            u = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
            return float(ends[j] + u * (ends[j + 1] - ends[j]))
        return {"base": cache.base, "edge": float(ends[j]), "reach": cache._reach}[kind]
    kinds = st.sampled_from(["base", "edge", "inside", "inside", "reach"])
    pts = [point(kind) for kind in draw(st.lists(kinds, min_size=1, max_size=24))]
    pts = draw(st.permutations(pts + draw(st.lists(st.sampled_from(pts), max_size=4))))
    return cache, np.array(pts)


@settings(max_examples=200, deadline=None)
@given(mesh_queries())
def test_queries_equal_numpy_chebval_bit_for_bit(case):
    cache, pts = case
    # a float, a numpy scalar, a 0-d and a 1-d array of one point, then
    # whole arrays: drawn order, reversed, each point twice, and 2-d
    queries = [form(x) for x in pts[:4] for form in (float, np.float64, np.array)]
    queries += [pts[:1], pts, pts[::-1], np.repeat(pts, 2)]
    if len(pts) % 2 == 0:
        queries.append(pts.reshape(2, -1))
    for q in queries:
        got, want = cache(q), _chebval_query(cache, q)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.all(got == want)


@settings(max_examples=50, deadline=None)
@given(st.floats(1.0, 40.0))
def test_weight_with_remainder_answers_a_float_as_a_one_point_array(x):
    c = Constellation.from_functions(3, 2, "sinh(r)", h="1/(1 + r)", lam="0.1/(1 + r)")
    w = WeightFunction(c, 3.0, 1.0)
    assert w._cache is not None
    assert w(x) == w(np.array([x]))[0]
    assert w.integral(x) == w.integral(np.array([x]))[0]


needs_cc = pytest.mark.skipif(shutil.which(os.environ.get("CC") or "cc") is None,
                              reason="no C compiler")


@needs_cc
def test_array_query_runs_the_compiled_kernel(monkeypatch):
    monkeypatch.setattr(quadrature, "_query", None)     # loaded as in a fresh process
    assert not isinstance(quadrature._query_kernel(), str)


def _random_mesh(rng):
    """A cache whose mesh is drawn, not built: random panel widths over
    several scales, coefficients and offsets, and f never called."""
    def unused(t):
        raise AssertionError("a query of a drawn mesh extended it")

    n = int(rng.integers(1, 40))
    base = float(rng.uniform(1e-3, 10.0))
    edges = base + np.concatenate([[0.0], np.cumsum(10.0 ** rng.uniform(-6.0, 1.0, n))])
    lo, hi = edges[:-1], edges[1:]
    cache = CumulativeCache(unused, base)
    cache._commit(np.vstack([lo, 0.5 * (lo + hi), 0.5 * (hi - lo),
                             np.cumsum(rng.standard_normal(n)), rng.standard_normal((16, n))]))
    cache._reach = float(edges[-1])
    return cache, edges


def test_compiled_query_equals_numpy_reference_bit_for_bit():
    rng = np.random.default_rng(20261022)
    clipped = set()
    for _ in range(200):
        cache, edges = _random_mesh(rng)
        # the base and a point below it inside the slack, every panel edge
        # and its float neighbours, the mesh's right end, and inner points
        near = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, math.inf)])
        pts = np.concatenate([[cache.base, cache.base * (1.0 - 5e-16)],
                              near[(near >= cache.base) & (near <= cache._reach)],
                              rng.uniform(cache.base, cache._reach, 25)])
        rng.shuffle(pts)
        flat = np.maximum(pts, cache.base)
        i = np.searchsorted(cache._lo, flat, side="right") - 1
        t = (flat - cache._mid[i]) / cache._half[i]
        clipped.update(np.sign(t[np.abs(t) > 1.0]).tolist())
        want = cache._query_numpy(pts)
        # whole arrays: shaped, F-ordered and strided views; then floats,
        # numpy scalars and 0-d arrays, which sum in Python floats
        cube = pts[:24].reshape(2, 3, 4)
        for q, ref in ((pts, want), (pts[::-1], want[::-1]), (pts[::3], want[::3]),
                       (cube, want[:24].reshape(2, 3, 4)),
                       (np.asfortranarray(cube), want[:24].reshape(2, 3, 4))):
            got = cache(q)
            assert got.shape == q.shape
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))
        for x, ref in zip(pts[:6], want[:6]):
            for q in (float(x), np.float64(x), np.array(x)):
                got = cache(q)
                assert type(got) is float
                assert np.float64(got).view(np.int64) == ref.view(np.int64)
    # t past both ends of [-1, 1], by rounding at a panel edge, was clipped
    assert clipped == {-1.0, 1.0}


def test_without_a_compiler_the_array_query_is_numpy_and_silent(monkeypatch, tmp_path):
    pts = np.geomspace(1.0, 50.0, 101)
    cache = CumulativeCache(_decay_plus_log, 1.0)
    want = cache(pts)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setenv("CC", "no-such-compiler-radialcap")
    monkeypatch.setattr(quadrature, "_query", None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        again = cache(pts)
        fresh = CumulativeCache(_decay_plus_log, 1.0)(pts)
    assert "no-such-compiler-radialcap" in quadrature._query_kernel()
    for got in (again, fresh):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("tol", [math.nan, -1e-10, math.inf])
@pytest.mark.parametrize("name, make", [
    ("rel_tol", lambda tol: integrate(lambda t: 1.0 / t, 1.0, 2.0, rel_tol=tol)),
    ("rel_tol", lambda tol: CumulativeCache(lambda t: 1.0 / t, 1.0, rel_tol=tol)),
    ("abs_tol", lambda tol: CumulativeCache(lambda t: 1.0 / t, 1.0, abs_tol=tol)),
], ids=["integrate", "cache-rel_tol", "cache-abs_tol"])
def test_tolerances_that_certify_nothing_are_input_errors(name, make, tol):
    # a NaN or negative tolerance ran to the panel budget, an infinite one
    # returned the first GK15 estimate unrefined
    text = f"{name} must be >= 0, got {tol}" if tol < 0 else f"{name} must be finite, got {tol}"
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        make(tol)


def test_cumulative_piecewise_growth_matches_one_shot():
    pts = np.geomspace(1.0, 300.0, 200)
    one_shot = CumulativeCache(_decay_plus_log, 1.0)(pts)
    grown = CumulativeCache(_decay_plus_log, 1.0)
    piecewise = np.concatenate([grown(chunk) for chunk in np.array_split(pts, 17)])
    assert np.max(np.abs(piecewise - one_shot) / np.maximum(one_shot, 1e-300)) <= 1e-12
    assert piecewise[-1] == pytest.approx(math.exp(-1.0) - math.exp(-300.0) + math.log(300.0),
                                          rel=1e-12)


def test_cumulative_far_query_keeps_panels_near_base_tight():
    # |f| grows, so a panel's tolerance, relative to the largest |f| seen,
    # would loosen near the base if one query sampled f far out first (one
    # unbounded extension here is a single panel that misses the bump)
    def f(t):
        return t + 1.0 / (1.0 + 100.0 * (t - 1.5) ** 2)

    pts = np.geomspace(1.0, 2.0 ** 40, 300)[1:]
    exact = (pts * pts - 1.0) / 2.0 + (np.arctan(10.0 * (pts - 1.5)) - np.arctan(-5.0)) / 10.0
    far = CumulativeCache(f, 1.0, rel_tol=1e-10)
    far(2.0 ** 40)
    assert np.max(np.abs(far(pts) - exact) / exact) <= 1e-12


def test_cumulative_far_query_resolves_a_bump_between_the_span_nodes():
    # the bump at t = 1 has width 0.01, far below the node spacing of one
    # panel over [1, 1024], where the integrand underflows at every node
    cache = CumulativeCache(lambda t: np.exp(-1e4 * (t - 1.0) ** 2), 1.0)
    assert cache(1024.0) == pytest.approx(math.sqrt(math.pi) / 200.0, rel=1e-12)


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
        assert abs(tc.value - exact) <= tc.error


def test_exponential_decay_converges_fast():
    tc = classify_tail(lambda t: np.exp(-t), 1.0)
    assert tc.is_convergent
    assert tc.value == pytest.approx(math.exp(-1.0), rel=1e-6)
    assert abs(tc.value - math.exp(-1.0)) <= tc.error


_COSINE_INTEGRAL = {1.0: 0.33740392290096813, 3.0: 0.11962978600800033}


@pytest.mark.parametrize("rho", sorted(_COSINE_INTEGRAL))
def test_unresolved_far_oscillation_stays_inside_the_error(rho):
    # far out the sin(t)/t**2 ripple falls below the mesh tolerance, which is
    # relative to the largest |f|, so it is left unresolved there; the error
    # must still cover it.  Exact: 2/rho + sin(rho)/rho - Ci(rho).
    exact = 2.0 / rho + math.sin(rho) / rho - _COSINE_INTEGRAL[rho]
    tc = classify_tail(lambda t: (2.0 + np.sin(t)) / t ** 2, rho)
    assert tc.is_convergent
    assert abs(tc.value - exact) <= tc.error


def test_exponential_growth_divergent_before_overflow():
    tc = classify_tail(lambda t: np.cosh(t), 1.0)
    assert tc.is_divergent


def test_extreme_growth_divergent_via_overflow_guard():
    # exp(t**8) overflows inside the second doubling, before the partial
    # integrals grow 1e12-fold
    tc = classify_tail(lambda t: np.exp(t ** 8), 1.0)
    assert tc.is_divergent
    assert "overflow" in tc.detail


def test_log_borderline_is_undetermined():
    tc = classify_tail(lambda t: 1.0 / (t * np.log(t)), 2.0)
    assert tc.kind == "undetermined"


def test_falling_increments_with_a_shallow_fit_are_not_divergent():
    # t^-2 to 2^20, flat at 2^-40 to 2^38, then 2^-40 (t/2^38)^-3: the
    # integral is finite, and the last increments fall (ratios 0.75, 0.25)
    # while the fit over the last two decades reads about -0.66
    def f(t):
        return np.where(t < 2.0 ** 20, t ** -2.0, np.where(
            t < 2.0 ** 38, 2.0 ** -40, 2.0 ** -40 * (t / 2.0 ** 38) ** -3.0))

    tc = classify_tail(f, 1.0)
    assert tc.kind == "undetermined"
    assert abs(tc.alpha_hat + 1.0) >= TailConfig().exp_band
    assert "critical band" not in tc.detail


def test_ladder_past_float_range_is_a_config_error():
    # listing the radii rho * 2**k raised a bare OverflowError
    with pytest.raises(ConfigError, match=r"^horizon rho \* 2\*\*k_max is not a finite float "
                                          r"\(rho=1.0, k_max=1000000\)$"):
        classify_tail(lambda t: t ** -2.0, 1.0, TailConfig(k_max=10 ** 6))


@pytest.mark.parametrize("k_max", [0, 1, 2])
def test_short_ladder_is_undetermined(k_max):
    # fewer than 3 doublings give fewer than the two increment ratios the
    # final tests compare; with k_max = 2 the ratio used to wrap around
    tc = classify_tail(lambda t: 1.0 / t, 1.0, TailConfig(k_max=k_max))
    assert tc.kind == "undetermined"
    assert tc.detail.startswith("ladder too short")
    assert len(tc.partial_integrals) == k_max


def test_three_doublings_suffice_for_the_ratio_test():
    tc = classify_tail(lambda t: 1.0 / t, 1.0, TailConfig(k_max=3))
    assert tc.is_divergent
    assert "increments" in tc.detail


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


def _per_doubling_ladder(f, rho, n):
    """(R_k, I_k), k = 1..n, from one integrate call per doubling."""
    total, out = 0.0, []
    for k in range(1, n + 1):
        total += integrate(f, rho * 2.0 ** (k - 1), rho * 2.0 ** k,
                           rel_tol=_TAIL_REL_TOL)[0]
        out.append((rho * 2.0 ** k, total))
    return out


def _one_doubling_at_a_time(f):
    """f, refusing its first call: classify_tail's query over the whole
    ladder fails, so every doubling evaluates on its own."""
    calls = []

    def g(t):
        calls.append(t)
        if len(calls) == 1:
            raise RuntimeError("first call refused")
        return f(t)
    return g


LADDER_TAILS = {
    "t^-3": (lambda t: t ** -3.0, 1.0),
    "t^-1.5": (lambda t: t ** -1.5, 1.0),
    "t^-1": (lambda t: t ** -1.0, 1.0),
    "t^0": (lambda t: t ** 0.0, 1.0),
    "t^1": (lambda t: t ** 1.0, 1.0),
    "exp(-t)": (lambda t: np.exp(-t), 1.0),
    "cosh(t)": (lambda t: np.cosh(t), 1.0),
    "1/(t log t)": (lambda t: 1.0 / (t * np.log(t)), 2.0),
}


@pytest.mark.parametrize("name", sorted(LADDER_TAILS))
def test_one_call_ladder_matches_per_doubling_integrals(name):
    f, rho = LADDER_TAILS[name]
    tc = classify_tail(f, rho)
    ref = classify_tail(_one_doubling_at_a_time(f), rho)
    assert (tc.kind, tc.detail) == (ref.kind, ref.detail)
    assert len(tc.partial_integrals) == len(ref.partial_integrals) > 0
    expect = _per_doubling_ladder(f, rho, len(tc.partial_integrals))
    for (r_k, i_k), (r_ref, i_ref) in zip(tc.partial_integrals, expect):
        assert r_k == r_ref
        assert i_k == pytest.approx(i_ref, rel=1e-14)


@pytest.mark.parametrize("beyond", ["raise", "nan", "inf"])
def test_failures_past_the_stop_leave_the_ladder_alone(beyond):
    # exp(-t) converges by r = 256; only the query over all 40 doublings
    # reaches t > 1e3
    def f(t):
        t = np.asarray(t)
        if beyond == "raise" and np.any(t > 1e3):
            raise DomainError("outside the test function's domain", float(t.max()))
        return np.where(t > 1e3, np.inf if beyond == "inf" else np.nan, np.exp(-t))

    tc = classify_tail(f, 1.0)
    ref = classify_tail(lambda t: np.exp(-t), 1.0)
    assert tc.kind == ref.kind == "convergent"
    assert tc.detail == ref.detail
    assert [r for r, _ in tc.partial_integrals] == [r for r, _ in ref.partial_integrals]
    assert [i for _, i in tc.partial_integrals] == pytest.approx(
        [i for _, i in ref.partial_integrals], rel=1e-14)
    assert tc.value == pytest.approx(ref.value, rel=1e-14)


def test_nan_inside_a_doubling_raises_there():
    def f(t):
        t = np.asarray(t, dtype=float)
        return np.where((t > 5.0) & (t < 6.0), np.nan, t ** -2.0)

    with pytest.raises(QuadratureError, match=r"^integrand is NaN inside \[4, 8\]"):
        classify_tail(f, 1.0)


def test_overflow_at_a_doubling_stops_the_ladder_before_it():
    def f(t):
        t = np.asarray(t, dtype=float)
        return np.where(t > 20.0, np.inf, t ** -2.0)

    tc = classify_tail(f, 1.0)
    assert tc.is_divergent
    assert tc.detail == "integrand overflow at finite horizon"
    assert [r for r, _ in tc.partial_integrals] == [2.0, 4.0, 8.0, 16.0]


def test_growing_remainder_verdict_survives_the_one_call_ladder():
    # h ~ -r log r makes the remainder integrand grow; evaluating the whole
    # ladder at once must not coarsen the remainder mesh near rho
    c = Constellation.from_functions(4, 3, "r", h="-0.01*r*log(1+r)")
    for p, rho in [(2.0, 1.0), (3.0, 0.5), (6.0, 2.0)]:
        tc = classify_tail(WeightFunction(c, p, rho), rho)
        ref = classify_tail(_one_doubling_at_a_time(WeightFunction(c, p, rho)), rho)
        assert tc.kind == ref.kind == "convergent"
        assert tc.detail == ref.detail
        assert [r for r, _ in tc.partial_integrals] == [r for r, _ in ref.partial_integrals]
        assert [i for _, i in tc.partial_integrals] == pytest.approx(
            [i for _, i in ref.partial_integrals], rel=1e-14)


def _per_k_stop(ladder, conv_eps):
    """The ladder's stop rules applied one doubling at a time, as a loop
    over k: the first (k, kind) at which I_k passes 1e12 I_1 ("growth") or
    the last three relative increments are below conv_eps ("cauchy")."""
    partials, increments, total = [], [], 0.0
    for k, i_k in enumerate(ladder, 1):
        prev, total = total, i_k
        increments.append(total - prev)
        partials.append(total)
        if total > 1e12 * max(partials[0], 1e-300):
            return k, "growth"
        if k >= 4:
            prior = partials[-4:-1]
            rel = [inc / max(pi, 1e-300) for inc, pi in zip(increments[-3:], prior)]
            if all(rv < conv_eps for rv in rel):
                return k, "cauchy"
    return None, None


@st.composite
def ladders(draw):
    """Non-decreasing partial integrals: plateaus, zeros, relative
    increments at and near conv_eps, ordinary steps, climbs to just below
    1e12 I_1 and jumps past it."""
    conv_eps = draw(st.sampled_from([1e-8, 0.0, 1e-3, 0.5]))
    total = draw(st.sampled_from([0.0, 1e-310, 1e-300, 1.0, 3.7e5]))
    out = [total]
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(["plateau", "near", "near", "step", "climb", "jump"]))
        scale = max(total, 1e-300)
        if kind == "plateau":
            inc = 0.0
        elif kind == "near":
            inc = scale * conv_eps * draw(st.sampled_from([0.5, 0.999999, 1.0, 1.000001, 2.0]))
        elif kind == "step":
            inc = scale * draw(st.floats(0.0, 10.0))
        elif kind == "climb":
            below = max(out[0], 1e-300) * 1e12 * (1.0 - draw(st.sampled_from([1.2e-3, 1e-12])))
            inc = max(below - total, 0.0)
        else:
            inc = max(out[0], 1e-300) * 1e12 * draw(st.floats(0.5, 2.0))
        total = total + inc
        out.append(total)
    return np.array(out), conv_eps


@settings(max_examples=500, deadline=None)
@given(ladders())
# growth and Cauchy fire at the same k = 5: growth wins
@example((np.cumprod([1.0, 1e12 * (1 - 1.2e-3), 1 + 5e-4, 1 + 5e-4, 1 + 5e-4]), 1e-3))
# a relative increment over I_1 = 0 overflows to inf, as the loop's does
@example((np.array([0.0, 1e9, 2e9, 3e9, 4e9]), 1e-8))
def test_array_stop_rule_matches_the_per_doubling_loop(case):
    ladder, conv_eps = case
    assert _first_stop(ladder, conv_eps) == _per_k_stop(ladder.tolist(), conv_eps)


@pytest.fixture
def tail_extensions(monkeypatch):
    """The extensions of classify_tail's ladder mesh over the rest of the
    test: (cache, top, the failure's class name or None)."""
    log, extend = [], CumulativeCache._extend

    def recorded(self, top):
        ladder = self.fn.__qualname__.startswith("classify_tail.")
        try:
            extend(self, top)
        except Exception as exc:
            if ladder:
                log.append((self, top, type(exc).__name__))
            raise
        if ladder:
            log.append((self, top, None))
    monkeypatch.setattr(CumulativeCache, "_extend", recorded)
    return log


def _config(name):
    return load_config(str(Path(__file__).resolve().parent.parent / "configs" / f"{name}.json"))


def test_ladder_mesh_stops_at_the_deciding_doubling(tail_extensions, monkeypatch):
    # the look-ahead reaches for 512, the growth rule fires at 32 and the
    # mesh ends there, with the partials a ladder of five doublings gives;
    # the weight is sampled in three rounds, then once by the exponent fit
    # (meshing on to 512 took seven rounds)
    calls = []
    call = WeightFunction.__call__

    def counted(self, r):
        calls.append(np.size(r))
        return call(self, r)
    monkeypatch.setattr(WeightFunction, "__call__", counted)
    c = _config("coth_dominated")
    verdict = classify(c, 3.0, 1.0)
    assert verdict.is_parabolic
    assert [(top, failed) for _, top, failed in tail_extensions] == [(512.0, None)]
    assert len(calls) == 4
    assert tail_extensions[0][0]._reach == 32.0
    ref = classify_tail(WeightFunction(c, 3.0, 1.0), 1.0, TailConfig(k_max=5))
    assert verdict.tail.partial_integrals == ref.partial_integrals
    assert [r for r, _ in ref.partial_integrals] == [2.0, 4.0, 8.0, 16.0, 32.0]


def test_overflowing_look_ahead_retries_below_the_overflow(tail_extensions):
    # the weight passes 1e250 near r = 406: the look-ahead to 512 fails, the
    # retry to 256 decides at 32, and no doubling is meshed on its own
    c = _config("cylinder_bounded")
    verdict = classify(c, 5.0, 1.0)
    assert verdict.is_parabolic
    assert [(top, failed) for _, top, failed in tail_extensions] == [
        (512.0, "_Overflow"), (256.0, None)]
    assert tail_extensions[-1][0]._reach == 32.0
    ref = classify_tail(_one_doubling_at_a_time(WeightFunction(c, 5.0, 1.0)), 1.0,
                        TailConfig(k_max=9))
    tc = verdict.tail
    assert (tc.kind, tc.detail) == (ref.kind, ref.detail)
    assert [r for r, _ in tc.partial_integrals] == [r for r, _ in ref.partial_integrals]
    assert [i for _, i in tc.partial_integrals] == pytest.approx(
        [i for _, i in ref.partial_integrals], rel=1e-14)


def test_classify_self_model_calls_the_weight_a_few_times(monkeypatch):
    calls = []
    call = WeightFunction.__call__

    def counted(self, r):
        calls.append(np.size(r))
        return call(self, r)
    monkeypatch.setattr(WeightFunction, "__call__", counted)
    c = load_config(str(Path(__file__).resolve().parent.parent / "configs" / "euclid3.json"))
    verdict = classify(c, 3.0, 1.0)
    assert verdict.is_parabolic
    assert len(calls) <= 10


SELF_MODEL_CELLS = [("euclid3", 2.0), ("euclid3", 3.0), ("hyperbolic2", 3.0)]


@pytest.mark.parametrize("name, p", SELF_MODEL_CELLS,
                         ids=[f"{name}-p{p:g}" for name, p in SELF_MODEL_CELLS])
def test_self_model_classify_makes_no_chebyshev_sum(monkeypatch, name, p):
    # the ladder is the mesh's step-end offsets, so growing the mesh is all
    # the look-ahead and the error estimate need; the reference reaches the
    # mesh through a query of the primitive there, as a call does
    sums = []
    clenshaw = quadrature._clenshaw

    def counted(*args, **kwargs):
        sums.append(1)
        return clenshaw(*args, **kwargs)
    monkeypatch.setattr(quadrature, "_clenshaw", counted)
    c = _config(name)
    tail = classify(c, p, 1.0).tail
    assert len(sums) == 0

    grow, inside = CumulativeCache.grow, []

    def grow_through_a_query(self, top):
        if inside:              # the query's own growth
            return grow(self, top)
        inside.append(True)
        try:
            self(top)
        finally:
            inside.pop()
    monkeypatch.setattr(CumulativeCache, "grow", grow_through_a_query)
    ref = classify(c, p, 1.0).tail
    assert 1 <= len(sums) <= 2
    # the ladder, value, error and alpha_hat, compared as floats
    assert tail.to_dict() == ref.to_dict()
    assert tail.kind == ("divergent" if (name, p) == ("euclid3", 3.0) else "convergent")


def test_growing_the_mesh_matches_growing_it_by_a_query():
    def f(t):
        return (2.0 + np.sin(t)) / t ** 2

    grown, queried = CumulativeCache(f, 1.0), CumulativeCache(f, 1.0)
    for top in (3.0, 40.0, 40.0, 1e3):
        grown.grow(top)
        queried(top)
        assert grown._reach == queried._reach == top
        assert grown.error(top) == queried.error(top)
    rs = np.geomspace(1.0, 1e3, 37)
    assert np.array_equal(grown(rs), queried(rs))
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match=f"^r must be finite, got {bad}$"):
            grown.grow(bad)


# ---------------------------------------------------------------------------
# grid and fit
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.floats(-300.0, 300.0), st.floats(1e-12, 300.0), st.integers(1, 1100))
def test_geomgrid_is_geomspace_bit_for_bit(log_lo, decades, n):
    lo = 10.0 ** log_lo
    hi = lo * 10.0 ** decades
    if not (0.0 < lo < hi < math.inf):
        return
    np.testing.assert_array_equal(geomgrid(lo, hi, n).view(np.int64),
                                  np.geomspace(lo, hi, n).view(np.int64))


@pytest.mark.parametrize("lo", [1e-5, 2e-3, 3.3])
def test_geomgrid_of_one_radius_is_that_radius_once(lo):
    # 10**log10(lo) misses these radii by a bit
    for n in (1, 512):
        assert geomgrid(lo, lo, n).tolist() == [lo]


def polyfit_exponent(fv, rho, horizon):
    """Reference: the tail-exponent fit by np.polyfit's SVD least squares."""
    ts = np.geomspace(max(rho, horizon / 100.0), horizon, 64)
    fs = fv(ts)
    ok = np.isfinite(fs) & (fs > 0.0)
    x, y = np.log(ts[ok]), np.log(fs[ok])
    slope, intercept = np.polyfit(x, y, 1)
    return slope, np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)), np.max(np.abs(y))


NOISE = np.random.default_rng(7).uniform(0.5, 1.5, 64)


@pytest.mark.parametrize("f", [
    lambda t: t ** -2.0,
    lambda t: 3.0 * t ** -0.5,
    lambda t: t ** -2.0 * (1.0 + 1.0 / t),
    lambda t: np.exp(-0.01 * t),
    lambda t: np.exp(0.003 * t) / t,
    lambda t: t ** -1.5 * NOISE[:len(t)],
    lambda t: t ** -1.0 * (2.0 + np.sin(t)),
], ids=["t^-2", "3t^-0.5", "t^-2(1+1/t)", "exp(-t/100)", "exp(t/333)/t", "noisy t^-1.5",
        "(2+sin t)/t"])
@pytest.mark.parametrize("rho, horizon", [(1.0, 2.0 ** 10), (0.5, 0.5 * 2.0 ** 16), (1.0, 3.0)])
def test_moment_fit_matches_polyfit(f, rho, horizon):
    slope, resid = _fit_exponent(f, rho, horizon)
    want_slope, want_resid, y_scale = polyfit_exponent(f, rho, horizon)
    assert slope == pytest.approx(want_slope, rel=1e-12, abs=1e-15)
    # an exact power law leaves a residual of rounding noise, a few ulps of
    # the log-values, which any other summation order moves
    assert resid == pytest.approx(want_resid, rel=1e-12, abs=64 * np.finfo(float).eps * y_scale)


def test_a_tail_whose_increments_vanish_has_no_fitted_exponent():
    # a spike at the base leaves every doubling past the first with a zero
    # increment: nothing to fit an exponent to, so no verdict is guessed
    tail = classify_tail(lambda t: np.exp(-1e5 * (t - 1.0) ** 2), 1.0, TailConfig(k_max=3))
    assert (tail.kind, tail.detail) == ("undetermined", "tail exponent could not be fitted")
    assert tail.alpha_hat is None
