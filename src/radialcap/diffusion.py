"""Monte Carlo simulation of the radial part of Brownian motion on a model
space, as an independent stochastic cross-check of the p = 2 theory.

The radial process solves ``dr = ((m-1)/2) (w'/w)(r) dt + dB`` and is run
with Euler-Maruyama between an absorbing inner and outer barrier.  Noise
comes from a counter-based generator keyed by ``(seed, path, step)``
(splitmix64 hashing + Acklam's inverse normal CDF), so results are
reproducible bit for bit regardless of how paths are scheduled across
threads.  The hot loop is a C kernel generated from the warping's
expression, compiled once with the system C compiler and OpenMP and cached
on disk; a pure-numpy lockstep implementation of the same recursion is the
reference, and the fallback where no compiler works.

Discrete barrier checks alone underestimate hitting: a path can cross and
come back inside one step.  At dt = 1e-4 that bias is comparable to the
Monte Carlo error of 20k paths, so each step near a barrier applies the
Brownian-bridge crossing probability ``exp(-2 (r-b)(r'-b) / dt)``, which
reduces the first-passage bias from O(sqrt(dt)) to O(dt).

Only p = 2 has this stochastic counterpart; hitting probabilities compare
against the closed form ``integral_r0^R w**(1-m) / integral_rho^R w**(1-m)``.
"""

from __future__ import annotations

import ctypes
import math
import os
import shutil
import tempfile
import warnings
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError, check_number
from .expr import RadialExpr, c_value_d1, eval_jet2
from .model import ModelSpace, _warping_power
from .quadrature import integrate

__all__ = ["DiffusionConfig", "HittingStats", "simulate_radial", "exact_hitting_prob"]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_BRIDGE_SALT = np.uint64(0xD1B54A32D192ED03)
_U53 = 1.1102230246251565e-16  # 2**-53
# exp(-2a/dt) < 2**-53 once a > 18.4*dt: beyond that the bridge cannot fire
_BRIDGE_CUT = 18.4

CODE_CENSORED, CODE_INNER, CODE_OUTER = 0, 1, 2
CODE_FAILED = -1  # the drift w'/w was not finite
# the most steps per path, floor(max_time / dt), that a simulation may ask
# for: 50x the 2e6 of the largest run the tests make
_MAX_STEPS = 10 ** 8

# rational minimax coefficients (Acklam) for the inverse normal CDF;
# absolute error ~1e-9, far below Monte Carlo resolution
_ICDF_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
           1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_ICDF_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
           6.680131188771972e+01, -1.328068155288572e+01)
_ICDF_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
           -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_ICDF_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
           3.754408661907416e+00)
_ICDF_PLOW = 0.02425


def _horner(coeffs, x: str, monic: bool = False) -> str:
    """``(((c0 * x + c1) * x + ...) + cn)``, source that C and Python both
    read, evaluated in that order (``monic`` appends ``* x + 1.0``)."""
    src = repr(coeffs[0])
    for c in coeffs[1:] + ((1.0,) if monic else ()):
        src = f"({src} * {x} + {c!r})"
    return src


# one source for both backends: the tail value at q = sqrt(-2 log min(p, 1-p)),
# negated above 1/2, and the central value at q = p - 1/2, r = q*q
_ICDF_TAIL = f"{_horner(_ICDF_C, 'q')} / {_horner(_ICDF_D, 'q', True)}"
_ICDF_MID = f"{_horner(_ICDF_A, 'r')} * q / {_horner(_ICDF_B, 'r', True)}"
_icdf_tail, _icdf_mid = eval(f"lambda q: {_ICDF_TAIL}, lambda q, r: {_ICDF_MID}")  # noqa: S307


def _norm_icdf_np(p: np.ndarray) -> np.ndarray:
    """Inverse normal CDF (Acklam's rational approximation), vectorized:
    numpy evaluates the source the C kernel compiles."""
    p = np.asarray(p)
    out = np.empty_like(p)
    tail = (p < _ICDF_PLOW) | (p > 1.0 - _ICDF_PLOW)
    mid = ~tail
    if tail.any():
        pt = p[tail]
        low = pt < 0.5
        r = _icdf_tail(np.sqrt(-2.0 * np.log(np.where(low, pt, 1.0 - pt))))
        out[tail] = np.where(low, r, -r)
    if mid.any():
        q = p[mid] - 0.5
        out[mid] = _icdf_mid(q, q * q)
    return out


@dataclass(frozen=True)
class DiffusionConfig:
    """Simulation parameters; ``0 < r_inner < r0 < r_outer`` is validated
    against the start radius at simulation time."""

    dt: float = 1e-4
    paths: int = 10000
    seed: int = 0
    r_inner: float = 0.5
    r_outer: float = 8.0
    max_time: float = 100.0

    def __post_init__(self):
        check_number("dt", self.dt, above=0)
        check_number("paths", self.paths, integer=True, at_least=1)
        check_number("seed", self.seed, integer=True)
        check_number("r_inner", self.r_inner, above=0)
        check_number("r_outer", self.r_outer, above=("r_inner", self.r_inner))
        check_number("max_time", self.max_time, above=0)


@dataclass(frozen=True)
class HittingStats:
    """Estimated probability of hitting the inner barrier first, its
    binomial standard error, and the number of paths cut off by max_time."""

    p_inner: float
    stderr: float
    censored: int
    paths: int

    def to_dict(self) -> dict:
        return {"p_inner": self.p_inner, "stderr": self.stderr,
                "censored": self.censored, "paths": self.paths}


# ---------------------------------------------------------------------------
# counter-based noise (splitmix64 + inverse normal CDF)
# ---------------------------------------------------------------------------

def _mix_np(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # uint64 wrap-around is the algorithm
        z = (z ^ (z >> np.uint64(30))) * _MIX_A
        z = (z ^ (z >> np.uint64(27))) * _MIX_B
    return z ^ (z >> np.uint64(31))


def _uniform_np(base: np.ndarray, counter: int) -> np.ndarray:
    with np.errstate(over="ignore"):
        z = _mix_np(base + np.uint64(counter) * _GOLDEN)
    return ((z >> np.uint64(11)).astype(np.float64) + 0.5) * _U53


# ---------------------------------------------------------------------------
# compiled C kernel: one path per loop iteration, paths spread over OpenMP
# threads; the per-step arithmetic mirrors _simulate_numpy operation for
# operation, so both produce the same path codes
# ---------------------------------------------------------------------------

_C_KERNEL = """\
#include <math.h>
#include <stdint.h>

static inline uint64_t mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * %(mix_a)sULL;
    z = (z ^ (z >> 27)) * %(mix_b)sULL;
    return z ^ (z >> 31);
}

/* the counter-th uniform in (0, 1) of the stream that starts at base */
static inline double uniform(uint64_t base, uint64_t counter)
{
    return ((double)(mix64(base + counter * %(golden)sULL) >> 11) + 0.5) * %(u53)r;
}

static inline double norm_icdf(double p)
{
    double q, r;
    if (p < %(plow)r || p > 1.0 - %(plow)r) {
        q = sqrt(-2.0 * log(p < 0.5 ? p : 1.0 - p));
        r = %(tail)s;
        return p < 0.5 ? r : -r;
    }
    q = p - 0.5;
    r = q * q;
    return %(mid)s;
}

%(drift)s
/* Path codes into codes[]; the radius where the lowest path whose drift was
   not finite failed into *bad_r. */
void simulate(uint64_t seed, int64_t n_paths, double r0, double dt, double coef,
              double r_in, double r_out, int64_t max_steps, int threads,
              int8_t *codes, double *bad_r)
{
    const double sqdt = sqrt(dt), bound = %(cut)r * dt;
    int64_t bad = n_paths;
    #pragma omp parallel for schedule(dynamic, 16) num_threads(threads)
    for (int64_t i = 0; i < n_paths; i++) {
        const uint64_t base = mix64(seed ^ ((uint64_t)i * %(golden)sULL));
        const uint64_t base_b = mix64(base ^ %(salt)sULL);
        double r = r0;
        int8_t code = %(censored)d;
        for (int64_t j = 1; j <= max_steps; j++) {
            const double noise = norm_icdf(uniform(base, (uint64_t)j));
            double wv, wd;
            value_d1(r, &wv, &wd);
            const double eta = wd / wv;
            if (!isfinite(eta)) {
                code = %(failed)d;
                #pragma omp critical
                if (i < bad) {
                    bad = i;
                    *bad_r = r;
                }
                break;
            }
            const double rn = r + coef * eta * dt + sqdt * noise;
            if (rn <= r_in || rn >= r_out) {
                code = rn <= r_in ? %(inner)d : %(outer)d;
                break;
            }
            /* Brownian-bridge crossing test at the nearer barrier */
            const double a_in = (r - r_in) * (rn - r_in);
            const double a_out = (r_out - r) * (r_out - rn);
            const int side = a_in < bound ? %(inner)d : a_out < bound ? %(outer)d : 0;
            if (side && uniform(base_b, (uint64_t)j)
                            < exp(-2.0 * (side == %(inner)d ? a_in : a_out) / dt)) {
                code = side;
                break;
            }
            r = rn;
        }
        codes[i] = code;
    }
}
"""

# no -ffast-math and no FMA contraction: the kernel must round like numpy
_CFLAGS = ("-O2", "-fopenmp", "-ffp-contract=off", "-fPIC", "-shared")

_KERNELS: dict = {}  # str(w) -> ctypes kernel, or why there is none
_WARNED: set = set()  # fallback reasons already warned about


def _kernel_source(w: RadialExpr) -> str:
    return _C_KERNEL % {
        "mix_a": hex(_MIX_A), "mix_b": hex(_MIX_B), "golden": hex(_GOLDEN),
        "salt": hex(_BRIDGE_SALT), "u53": _U53, "cut": _BRIDGE_CUT, "plow": _ICDF_PLOW,
        "tail": _ICDF_TAIL, "mid": _ICDF_MID,
        "drift": c_value_d1(w),
        "censored": CODE_CENSORED, "inner": CODE_INNER, "outer": CODE_OUTER,
        "failed": CODE_FAILED,
    }


def resolve_workers() -> int:
    """Kernel thread count: ``RADIALCAP_THREADS``, else a small default,
    capped by the CPUs this process may run on."""
    env = os.environ.get("RADIALCAP_THREADS")
    try:
        wanted = int(env) if env else 4
    except ValueError:
        wanted = 4
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(wanted, cpus or 1))


def _cache_dir() -> Path:
    """The user cache directory (``$XDG_CACHE_HOME``, else ``~/.cache``)."""
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(root) / "radialcap"


def _compile(src: str, path: Path):
    """Compile ``src`` into the shared library ``path``; returns None, or a
    reason why that was not possible."""
    import subprocess  # only on a cache miss: it costs every process 0.5 MB

    name = os.environ.get("CC") or "cc"
    cc = shutil.which(name)
    if cc is None:
        return f"no C compiler: {name!r} not found (set CC to choose one)"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=path.parent)
        os.close(fd)
        try:
            proc = subprocess.run([cc, *_CFLAGS, "-x", "c", "-", "-x", "none", "-o", tmp,
                                   "-lm"], input=src, capture_output=True, text=True,
                                  timeout=300)
            if proc.returncode != 0:
                return f"C compiler {cc} failed: {proc.stderr.strip()[-500:]}"
            os.replace(tmp, path)  # atomic: other processes see all or nothing
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except (OSError, subprocess.SubprocessError) as exc:
        return f"C compiler {cc} could not build the kernel: {exc}"
    return None


def _load_kernel(src: str):
    """Load the kernel built from ``src`` from the on-disk cache, compiling
    it first on a miss; returns the ctypes function, or a str saying why
    there is none."""
    # zlib checksums, not hashlib: hashlib maps OpenSSL (3.5 MB) into the process
    data = "\0".join((src,) + _CFLAGS).encode()
    digest = f"{zlib.crc32(data):08x}{zlib.adler32(data):08x}"
    path = _cache_dir() / f"mc-{digest}.so"
    if not path.is_file():
        reason = _compile(src, path)
        if reason is not None:
            return reason
    try:
        fn = ctypes.CDLL(str(path)).simulate
    except OSError as exc:
        return f"could not load the compiled kernel {path}: {exc}"
    fn.restype = None
    fn.argtypes = [ctypes.c_uint64, ctypes.c_int64, ctypes.c_double, ctypes.c_double,
                   ctypes.c_double, ctypes.c_double, ctypes.c_double,
                   ctypes.c_int64, ctypes.c_int,
                   np.ctypeslib.ndpointer(np.int8, flags="C_CONTIGUOUS"),
                   np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")]
    return fn


def _build_kernel(w: RadialExpr):
    """The compiled kernel for warping ``w`` (or why there is none), once
    per process; compiled once per machine, cached on disk under a hash of
    its C source and flags."""
    key = str(w)
    if key not in _KERNELS:
        _KERNELS[key] = _load_kernel(_kernel_source(w))
    return _KERNELS[key]


def _simulate_c(kernel, ms: ModelSpace, r0: float, cfg: DiffusionConfig,
                max_steps: int):
    """Path codes from the compiled ``kernel``, and the radius where the
    lowest failed path failed, as :func:`_simulate_numpy` gives them."""
    codes = np.zeros(cfg.paths, dtype=np.int8)
    bad_r = np.full(1, math.nan)
    kernel(cfg.seed & 0xFFFFFFFFFFFFFFFF, cfg.paths, float(r0), cfg.dt, 0.5 * (ms.m - 1),
           cfg.r_inner, cfg.r_outer, max_steps, resolve_workers(), codes, bad_r)
    return codes, float(bad_r[0])


def _simulate_numpy(ms: ModelSpace, r0: float, cfg: DiffusionConfig, max_steps: int):
    """Lockstep implementation of the identical recursion (reference and
    fallback; numpy's and the C library's transcendentals may differ in
    the last ulp, so path outcomes agree except with negligible
    probability).  Returns the path codes, and the radius where the lowest
    failed path failed (NaN if none did)."""
    n = cfg.paths
    codes = np.zeros(n, dtype=np.int8)
    idx = np.arange(n, dtype=np.uint64)
    with np.errstate(over="ignore"):
        base = _mix_np(np.uint64(cfg.seed & 0xFFFFFFFFFFFFFFFF) ^ (idx * _GOLDEN))
    base_b = _mix_np(base ^ _BRIDGE_SALT)
    r = np.full(n, float(r0))
    alive = np.arange(n)
    coef = 0.5 * (ms.m - 1)
    sqdt = math.sqrt(cfg.dt)
    bridge_bound = _BRIDGE_CUT * cfg.dt
    for j in range(max_steps):
        if len(alive) == 0:
            break
        noise = _norm_icdf_np(_uniform_np(base[alive], j + 1))
        jw = eval_jet2(ms.w, r[alive])
        with np.errstate(divide="ignore", invalid="ignore"):
            eta = jw.d1 / jw.value
        ok = np.isfinite(eta)
        rn = r[alive] + coef * eta * cfg.dt + sqdt * noise
        hit_in = ok & (rn <= cfg.r_inner)
        hit_out = ok & (rn >= cfg.r_outer)
        open_mask = ok & ~(hit_in | hit_out)
        if open_mask.any():
            a_in = (r[alive] - cfg.r_inner) * (rn - cfg.r_inner)
            a_out = (cfg.r_outer - r[alive]) * (cfg.r_outer - rn)
            near_in = open_mask & (a_in < bridge_bound)
            near_out = open_mask & ~near_in & (a_out < bridge_bound)
            if near_in.any() or near_out.any():
                u3 = _uniform_np(base_b[alive], j + 1)
                with np.errstate(all="ignore"):
                    hit_in = hit_in | (near_in & (u3 < np.exp(-2.0 * a_in / cfg.dt)))
                    hit_out = hit_out | (near_out & (u3 < np.exp(-2.0 * a_out / cfg.dt)))
        codes[alive[hit_in]] = CODE_INNER
        codes[alive[hit_out]] = CODE_OUTER
        codes[alive[~ok]] = CODE_FAILED  # r keeps the radius where it failed
        keep = ok & ~(hit_in | hit_out)
        r[alive[keep]] = rn[keep]
        alive = alive[keep]
    failed = np.flatnonzero(codes == CODE_FAILED)
    return codes, float(r[failed[0]]) if len(failed) else math.nan


def simulate_radial(ms: ModelSpace, r0: float, cfg: DiffusionConfig) -> HittingStats:
    """Run the absorbed radial diffusion and estimate the probability of
    hitting the inner barrier before the outer one.

    Deterministic given ``cfg.seed``: the per-step noise is a pure function
    of (seed, path index, step index), so the result does not depend on the
    number of worker threads or on path scheduling.

    The compiled kernel runs when it can be built, else the numpy
    reference with a one-time ``RuntimeWarning``; both give the same path
    outcomes.  A drift ``w'/w`` that is not finite raises
    :class:`DomainError` naming the lowest failed path and its radius.
    More than 1e8 steps per path, ``floor(max_time / dt)``, is a
    :class:`ConfigError`.
    """
    check_number("r0", r0, above=("r_inner", cfg.r_inner))
    check_number("r_outer", cfg.r_outer, above=("r0", r0))
    steps = cfg.max_time / cfg.dt
    if steps >= _MAX_STEPS + 1:
        raise ConfigError(f"max_time / dt = {steps:.6g} steps per path, "
                          f"more than the {_MAX_STEPS:.0e} allowed")
    max_steps = int(math.floor(steps))
    kernel = _build_kernel(ms.w)
    if isinstance(kernel, str):
        if kernel not in _WARNED:
            _WARNED.add(kernel)
            warnings.warn(f"Monte Carlo falls back to the numpy reference kernel, "
                          f"about 20x slower: {kernel}", RuntimeWarning, stacklevel=2)
        codes, bad_r = _simulate_numpy(ms, r0, cfg, max_steps)
    else:
        codes, bad_r = _simulate_c(kernel, ms, r0, cfg, max_steps)
    failed = np.flatnonzero(codes == CODE_FAILED)
    if len(failed):
        raise DomainError(f"drift w'/w of w = {ms.w} is not finite (path {failed[0]})", bad_r)

    hits_inner = int(np.count_nonzero(codes == CODE_INNER))
    censored = int(np.count_nonzero(codes == CODE_CENSORED))
    p = hits_inner / cfg.paths
    stderr = math.sqrt(p * (1.0 - p) / cfg.paths)
    return HittingStats(p_inner=p, stderr=stderr, censored=censored, paths=cfg.paths)


def exact_hitting_prob(ms: ModelSpace, r0: float, rho: float, R: float) -> float:
    """Probability that the radial diffusion started at r0 hits the sphere
    of radius rho before the sphere of radius R:

        integral_r0^R w**(1-m) dt / integral_rho^R w**(1-m) dt

    (the scale-function ratio; equals one minus the harmonic annulus profile
    at r0).  Both integrals are taken to 1e-12 relative, over finite radii
    with 0 < rho <= r0 <= R, where w must be positive.
    """
    check_number("rho", rho, above=0)
    check_number("r0", r0, at_least=("rho", rho))
    check_number("R", R, at_least=("r0", r0))
    if r0 == rho:
        return 1.0
    if r0 == R:
        return 0.0
    integrand = _warping_power(ms, 1.0 - ms.m)
    num, _ = integrate(integrand, r0, R, rel_tol=1e-12)
    den0, _ = integrate(integrand, rho, r0, rel_tol=1e-12)
    return num / (den0 + num)
