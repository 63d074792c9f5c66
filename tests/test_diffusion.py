import contextlib
import math
import os
import shutil
import warnings

import numpy as np
import pytest

import radialcap.diffusion as diffusion
from radialcap.diffusion import (
    DiffusionConfig, HittingStats, _mix_np, _norm_icdf_np, exact_hitting_prob,
    simulate_radial,
)
from radialcap.constellation import Constellation
from radialcap.dirichlet import solve_dirichlet_closed
from radialcap.errors import ConfigError, DomainError
from radialcap.model import ModelSpace

needs_cc = pytest.mark.skipif(shutil.which(os.environ.get("CC") or "cc") is None,
                              reason="no C compiler for the compiled Monte Carlo kernel")


def test_config_validation():
    with pytest.raises(ConfigError):
        DiffusionConfig(dt=0.0)
    with pytest.raises(ConfigError):
        DiffusionConfig(paths=0)
    with pytest.raises(ConfigError):
        DiffusionConfig(r_inner=2.0, r_outer=1.0)
    with pytest.raises(ConfigError, match="^max_time must be > 0, got 0.0$"):
        DiffusionConfig(max_time=0.0)
    for name, value in (("dt", math.nan), ("r_outer", math.inf), ("max_time", math.inf)):
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            DiffusionConfig(**{name: value})
    with pytest.raises(ConfigError):
        simulate_radial(ModelSpace.euclidean(2), 9.0, DiffusionConfig())


def test_step_count_past_the_limit_is_rejected_before_any_step(monkeypatch):
    def fail(*args):
        raise AssertionError("a path was stepped")

    monkeypatch.setattr(diffusion, "_simulate_numpy", fail)
    monkeypatch.setattr(diffusion, "_simulate_c", fail)
    monkeypatch.setattr(diffusion, "_build_kernel", lambda w: fail)
    ms = ModelSpace.euclidean(3)
    for dt, max_time in ((1e-300, 1e-290), (1e-300, 1e300), (1.0, 1e8 + 1.0)):
        with pytest.raises(ConfigError, match="steps per path, more than the 1e\\+08 allowed"):
            simulate_radial(ms, 1.0, DiffusionConfig(dt=dt, paths=1, max_time=max_time))
    # exactly the limit passes the check
    with pytest.raises(AssertionError, match="stepped"):
        simulate_radial(ms, 1.0, DiffusionConfig(dt=1.0, paths=1, max_time=1e8 + 0.5))


def test_exact_hitting_prob_m3():
    p = exact_hitting_prob(ModelSpace.euclidean(3), 1.0, 0.5, 8.0)
    assert p == pytest.approx(7.0 / 15.0, rel=1e-10)


def test_exact_hitting_prob_m2_log_formula():
    p = exact_hitting_prob(ModelSpace.euclidean(2), 1.0, 0.5, 8.0)
    assert p == pytest.approx(np.log(8.0) / np.log(16.0), rel=1e-10)


def test_exact_hitting_prob_boundaries():
    ms = ModelSpace.euclidean(3)
    assert exact_hitting_prob(ms, 0.5, 0.5, 8.0) == 1.0
    assert exact_hitting_prob(ms, 8.0, 0.5, 8.0) == 0.0


@pytest.mark.parametrize("r0, rho, R, text", [
    (1.0, 0.0, 8.0, "rho must be > 0, got 0.0"), (1.0, -1.0, 8.0, "rho must be > 0, got -1.0"),
    (0.25, 0.5, 8.0, r"r0 must be >= rho \(0.5\), got 0.25"),
    (9.0, 0.5, 8.0, r"R must be >= r0 \(9.0\), got 8.0")])
def test_exact_hitting_prob_needs_0_below_rho_r0_R_in_order(r0, rho, R, text):
    # rho = 0 was a QuadratureError after a numpy RuntimeWarning, and rho = -1
    # a DomainError at a negative radius
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{text}$"):
            exact_hitting_prob(ModelSpace.euclidean(3), r0, rho, R)


@pytest.mark.parametrize("R", [0.9, 4.0])
def test_exact_hitting_prob_needs_a_positive_warping(R):
    # w = r - 1 is negative on [0.5, 0.9], where the oracle answered 0.8333,
    # and crosses 0 in [0.5, 4], where it warned and then raised a
    # QuadratureError; the capacity oracle's rule now holds for both
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"^warping function must be positive on \[rho, R\]"):
            exact_hitting_prob(ModelSpace(3, "r - 1"), 0.7, 0.5, R)


def test_exact_hitting_prob_links_to_dirichlet_profile():
    for m, w in [(3, "r"), (2, "r"), (2, "sinh(r)")]:
        ms = ModelSpace(m, w)
        c = Constellation.self_model(ms)
        sol = solve_dirichlet_closed(c, 2.0, 0.5, 8.0)
        for r0 in (0.8, 1.0, 3.0):
            assert exact_hitting_prob(ms, r0, 0.5, 8.0) == pytest.approx(
                1.0 - sol.profile(r0), abs=1e-8)


def test_icdf_matches_vectorized_and_is_accurate():
    from math import erf, sqrt
    ps = np.array([1e-6, 0.01, 0.3, 0.5, 0.77, 0.99, 1 - 1e-6])
    vec = _norm_icdf_np(ps)
    for p, x in zip(ps, vec):
        # round trip through the normal CDF
        assert 0.5 * (1.0 + erf(x / sqrt(2.0))) == pytest.approx(p, abs=2e-9)


@pytest.mark.parametrize("env,threads", [("1", 1), ("0", 1), ("many", None), (None, None)])
def test_kernel_threads_follow_radialcap_threads(monkeypatch, env, threads):
    if env is None:
        monkeypatch.delenv("RADIALCAP_THREADS", raising=False)
    else:
        monkeypatch.setenv("RADIALCAP_THREADS", env)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    default = max(1, min(4, cpus or 1))
    assert diffusion.resolve_workers() == (threads or default)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity on this platform")
@pytest.mark.parametrize("env", ["8", None])
def test_kernel_threads_are_capped_by_the_cpu_affinity(monkeypatch, env):
    # a process pinned to one CPU runs one kernel thread, however many the
    # machine has
    if env is None:
        monkeypatch.delenv("RADIALCAP_THREADS", raising=False)
    else:
        monkeypatch.setenv("RADIALCAP_THREADS", env)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert diffusion.resolve_workers() == 1


def test_mix_is_deterministic_and_spreads():
    z = _mix_np(np.arange(1, 10, dtype=np.uint64))
    assert len(np.unique(z)) == 9
    assert np.array_equal(z, _mix_np(np.arange(1, 10, dtype=np.uint64)))


def test_determinism_same_seed():
    ms = ModelSpace.euclidean(3)
    cfg = DiffusionConfig(dt=1e-3, paths=500, seed=7)
    a = simulate_radial(ms, 1.0, cfg)
    b = simulate_radial(ms, 1.0, cfg)
    assert a == b


def test_single_path_reproducible():
    ms = ModelSpace.euclidean(2)
    cfg = DiffusionConfig(dt=1e-3, paths=1, seed=123)
    a = simulate_radial(ms, 1.0, cfg)
    b = simulate_radial(ms, 1.0, cfg)
    assert a == b
    assert a.p_inner in (0.0, 1.0)


@needs_cc
def test_backends_statistically_consistent():
    ms = ModelSpace.euclidean(3)
    cfg = DiffusionConfig(dt=1e-3, paths=2000, seed=11)
    max_steps = int(math.floor(cfg.max_time / cfg.dt))
    fast, _ = diffusion._simulate_c(diffusion._build_kernel(ms.w), ms, 1.0, cfg, max_steps)
    ref, _ = diffusion._simulate_numpy(ms, 1.0, cfg, max_steps)
    p_fast, p_ref = (np.mean(codes == diffusion.CODE_INNER) for codes in (fast, ref))
    spread = np.hypot(*(math.sqrt(p * (1.0 - p) / cfg.paths) for p in (p_fast, p_ref)))
    assert abs(p_fast - p_ref) <= 4.0 * spread + 1e-12


@needs_cc
@pytest.mark.parametrize("m,w", [
    (2, "r"), (3, "sinh(r)"), (2, "sinh(r)*tanh(r) + r^2"), (3, "coth(r)/r"),
    (2, "exp(-0.5*r)*sqrt(r)"), (3, "1/(1 + r^2)"), (2, "r^0.5"), (2, "r^r"),
    (3, "abs(r - 3)*log(r + 1)"), (2, "cosh(r) - cos(r) + -sin(r)"), (3, "r^2 + 3*r"),
    (2, "tanh(r)^2"), (2, "r*(1 + r^2)^(-1/2)"), (3, "sinh(r)^(3/2)"),
])
def test_c_kernel_matches_numpy_path_for_path(m, w):
    ms = ModelSpace(m, w)
    cfg = DiffusionConfig(dt=1e-2, paths=300, seed=5, r_inner=0.5, r_outer=2.0,
                          max_time=5.0)
    max_steps = int(math.floor(cfg.max_time / cfg.dt))
    codes, _ = diffusion._simulate_c(diffusion._build_kernel(ms.w), ms, 1.0, cfg, max_steps)
    ref, _ = diffusion._simulate_numpy(ms, 1.0, cfg, max_steps)
    assert np.array_equal(codes, ref)
    assert set(np.unique(codes)) == {diffusion.CODE_INNER, diffusion.CODE_OUTER}


def without_compiler(monkeypatch, tmp_path):
    """Make the compiled kernel unbuildable, as on a machine with no C
    compiler, so that simulate_radial falls back to numpy and warns again."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setenv("CC", "no-such-compiler-radialcap")
    monkeypatch.setattr(diffusion, "_KERNELS", {})
    monkeypatch.setattr(diffusion, "_WARNED", set())


@pytest.mark.parametrize("backend", [pytest.param("c", marks=needs_cc), "numpy"])
def test_c_kernel_reports_non_finite_drift(monkeypatch, tmp_path, backend):
    # w = r - 1 vanishes at the start radius: w'/w is infinite there
    cfg = DiffusionConfig(dt=1e-2, paths=50, seed=1, r_inner=0.5, r_outer=2.0)
    fallback = contextlib.nullcontext()
    if backend == "numpy":
        without_compiler(monkeypatch, tmp_path)
        fallback = pytest.warns(RuntimeWarning, match="no-such-compiler-radialcap")
    with pytest.raises(DomainError) as info, fallback:
        simulate_radial(ModelSpace(2, "r - 1"), 1.0, cfg)
    assert info.value.r == 1.0 and "path 0" in info.value.detail


@needs_cc
def test_c_kernel_is_cached_on_disk(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(diffusion, "_KERNELS", {})
    w = ModelSpace(3, "r + r^3").w
    assert not isinstance(diffusion._build_kernel(w), str)
    assert len(list((tmp_path / "radialcap").glob("*.so"))) == 1
    # as in a fresh process: the library is found and no compiler is needed
    monkeypatch.setattr(diffusion, "_KERNELS", {})
    monkeypatch.setenv("CC", "no-such-compiler-radialcap")
    assert not isinstance(diffusion._build_kernel(w), str)


def test_without_compiler_warns_once_and_runs_numpy(monkeypatch, tmp_path):
    without_compiler(monkeypatch, tmp_path)
    ms = ModelSpace.euclidean(3)
    cfg = DiffusionConfig(dt=1e-2, paths=20, seed=2, r_inner=0.5, r_outer=2.0)
    with pytest.warns(RuntimeWarning, match="no-such-compiler-radialcap"):
        auto = simulate_radial(ms, 1.0, cfg)
    codes, _ = diffusion._simulate_numpy(ms, 1.0, cfg, int(math.floor(cfg.max_time / cfg.dt)))
    assert auto.p_inner == np.count_nonzero(codes == diffusion.CODE_INNER) / cfg.paths
    assert auto.censored == np.count_nonzero(codes == diffusion.CODE_CENSORED)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # warned once already
        assert simulate_radial(ms, 1.0, cfg) == auto


def test_simulation_matches_exact_m3():
    ms = ModelSpace.euclidean(3)
    cfg = DiffusionConfig(dt=1e-3, paths=4000, seed=3)
    stats = simulate_radial(ms, 1.0, cfg)
    exact = exact_hitting_prob(ms, 1.0, cfg.r_inner, cfg.r_outer)
    # 3 sigma plus an O(dt) bias allowance at this coarser step
    assert abs(stats.p_inner - exact) <= 3.0 * stats.stderr + 0.01
    assert stats.censored <= cfg.paths // 100


def test_recurrence_vs_transience_trend():
    m2, m3 = ModelSpace.euclidean(2), ModelSpace.euclidean(3)
    exact2 = [exact_hitting_prob(m2, 1.0, 0.5, R) for R in (10.0, 100.0, 1000.0)]
    assert exact2[0] < exact2[1] < exact2[2]          # recurrent: climbs to 1
    assert exact2[2] > 0.9
    exact3 = [exact_hitting_prob(m3, 1.0, 0.5, R) for R in (10.0, 100.0, 1000.0)]
    assert all(p < 0.51 for p in exact3)              # transient: capped at rho/r0
    sim2 = [simulate_radial(m2, 1.0, DiffusionConfig(dt=1e-3, paths=1500, seed=5,
                                                     r_inner=0.5, r_outer=R,
                                                     max_time=400.0)).p_inner
            for R in (10.0, 100.0)]
    assert sim2[1] > sim2[0]


def test_hitting_stats_fields():
    s = HittingStats(p_inner=0.25, stderr=0.01, censored=3, paths=100)
    d = s.to_dict()
    assert d["p_inner"] == 0.25 and d["censored"] == 3
