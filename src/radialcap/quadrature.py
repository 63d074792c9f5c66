"""Adaptive quadrature on finite intervals and divergence classification of
nonnegative improper integrals over ``[rho, infinity)``.

The integrator is an adaptive-bisection Gauss-Kronrod 7-15 scheme.  All
nodes are interior, so integrable endpoint singularities (``t**-0.5`` at 0)
are handled by geometric refinement toward the endpoint.  Every integrand
maps a 1-D ndarray of nodes to an array of the same shape; a result of
another shape raises ``TypeError``.

Repeated primitives ``r -> integral(base, r)`` live on a panel mesh that
grows to the right (:class:`CumulativeCache`): each panel holds the
antiderivative of f's interpolant at the same 15 nodes, so within a panel
the primitive is one polynomial and a query costs no further quadrature.
Each panel is one column of a (20, n) array: its left edge, midpoint,
half-width and offset, then the polynomial's 16 Chebyshev coefficients.
A query at one radius sums its column in Python floats through the
Clenshaw helper :func:`_clenshaw`.  An array query is one call of a C
kernel, compiled once per machine (:mod:`radialcap.ckernel`), that runs
the same recurrence point by point; its numpy reference, which runs the
helper on 16 gathered rows, answers instead where no C compiler works.
All run in the order of operations of numpy's ``chebval``, so every answer
is chebval's bit for bit.  A tolerance must be finite and >= 0
(:func:`~radialcap.errors.check_number`).

The tail classifier computes partial integrals at doubling radii.  A single
huge upper limit would hide logarithmic divergence; constant per-doubling
increments expose it.  It reads them off one :class:`CumulativeCache` of the
integrand, which looks ahead to the last doubling radius, ends where the
stop rule fires, and retries below an overflow or a NaN.
"""

from __future__ import annotations

import bisect
import ctypes
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import ckernel
from .errors import ConfigError, QuadratureError, check_number

__all__ = ["integrate", "CumulativeCache", "TailClass", "TailConfig", "classify_tail"]


# 15-point Kronrod extension of the 7-point Gauss rule (QUADPACK dqk15).
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

_NODES = np.concatenate([-_XGK[:7], _XGK[7:8], _XGK[6::-1]])          # 15 ascending
_WK = np.concatenate([_WGK[:7], _WGK[7:8], _WGK[6::-1]])
_WGAUSS = np.zeros(15)
_WGAUSS[1:14:2] = np.concatenate([_WG[:3], _WG[3:4], _WG[2::-1]])

_EPS = np.finfo(float).eps

# values at _NODES -> Chebyshev coefficients of the degree-14 interpolant,
# and those -> the coefficients of its antiderivative vanishing at -1
_TO_CHEB = np.linalg.inv(np.polynomial.chebyshev.chebvander(_NODES, 14))
_TO_PRIM = np.polynomial.chebyshev.chebint(np.eye(15), lbnd=-1.0)
# and back: the antiderivative's derivative at _NODES is f there
_FROM_PRIM = (np.polynomial.chebyshev.chebvander(_NODES, 14)
              @ np.polynomial.chebyshev.chebder(np.eye(16)))
_MESH_PANELS = 4000     # per extension: the budget integrate gives one interval


def _clenshaw(c, x):
    """``sum_k c[k] T_k(x)`` over the 16 coefficients ``c[0..15]`` of a
    panel's primitive, by Clenshaw's recurrence in the order of operations
    of numpy's ``chebval``, so its bits are chebval's.  Floats ``c[k]`` and
    ``x`` give a float, for a query at one radius; rows ``c[k]`` and an
    array ``x`` of their length give the sums at every point, for the numpy
    reference of the compiled array query (``_QUERY_SOURCE``), which runs
    this recurrence in the same order."""
    x2 = 2 * x
    c0, c1 = c[14], c[15]
    for k in range(13, -1, -1):
        c0, c1 = c[k] - c1, c0 + c1 * x2
    return c0 + c1 * x


# the array query of CumulativeCache.__call__, point by point as
# CumulativeCache._query_numpy computes it: the panel by bisect_right over
# the left edges, t clipped to [-1, 1], _clenshaw's recurrence in its order
# of operations, and the panel's offset plus 0.0 at its left edge
_QUERY_SOURCE = """\
#include <stdint.h>

/* x[0..m) -> the primitive there, in place, on the (20, n) mesh of
   CumulativeCache._commit; a point below base is read at base */
void query(const double *mesh, int64_t n, double base, double *x, int64_t m)
{
    const double *lo = mesh, *mid = mesh + n, *half = mesh + 2 * n, *off = mesh + 3 * n,
                 *coef = mesh + 4 * n;
    for (int64_t j = 0; j < m; j++) {
        const double r = x[j] < base ? base : x[j];
        int64_t a = 0, b = n;
        while (a < b) {
            const int64_t h = a + (b - a) / 2;
            if (r < lo[h])
                b = h;
            else
                a = h + 1;
        }
        const int64_t i = a - 1;
        double t = (r - mid[i]) / half[i];
        t = t < -1.0 ? -1.0 : t > 1.0 ? 1.0 : t;
        const double t2 = 2 * t;
        double c0 = coef[14 * n + i], c1 = coef[15 * n + i];
        for (int k = 13; k >= 0; k--) {
            const double c = c0;
            c0 = coef[k * n + i] - c1;
            c1 = c + c1 * t2;
        }
        x[j] = off[i] + (r == lo[i] ? 0.0 : c0 + c1 * t);
    }
}
"""
# no -ffast-math and no FMA contraction: the sums must round like numpy's
_QUERY_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_QUERY_ARGTYPES = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_double, ctypes.c_void_p,
                   ctypes.c_int64]
_query = None   # the compiled query, or why there is none, once loaded


def _pointer(a: np.ndarray):
    """A pointer to the C-ordered, non-empty array ``a`` for the compiled
    query, which keeps ``a`` alive; a third of the cost of
    ``a.ctypes.data``."""
    return ctypes.byref(ctypes.c_char.from_buffer(a))


def _query_kernel():
    """The compiled array query (or why there is none), loaded once per
    process; compiled once per machine (:func:`radialcap.ckernel.load`)."""
    global _query
    if _query is None:
        _query = ckernel.load(_QUERY_SOURCE, _QUERY_FLAGS, "query", "query", _QUERY_ARGTYPES)
    return _query


def geomgrid(lo: float, hi: float, n: int) -> np.ndarray:
    """``n >= 1`` points from ``lo`` to ``hi`` in geometric progression, for
    0 < lo <= hi: ``10**linspace(log10 lo, log10 hi, n)`` with the end points
    pinned.  Bit for bit ``np.geomspace(lo, hi, n)``, without its dtype and
    sign handling, which costs more than the grid itself.  At lo == hi it is
    the one point lo, exactly (``10**log10(lo)`` can miss it by a bit), as
    an interval of one radius is sampled once."""
    if lo == hi:
        return np.array([float(lo)])
    out = 10.0 ** np.linspace(np.log10(lo), np.log10(hi), n)
    out[-1], out[0] = hi, lo
    return out


def _sample(f: Callable, lo: np.ndarray, hi: np.ndarray, *extra: float):
    """f at the 15 GK nodes of each [lo_i, hi_i]; returns (half-widths, values).

    f is called once, on a 1-D array of all the nodes.  The points ``extra``
    join that call, and their values are dropped.  Raises TypeError when
    f's result does not have its input's shape, and QuadratureError at the
    first non-finite value at a node.
    """
    half = 0.5 * (hi - lo)
    pts = 0.5 * (lo + hi)[:, None] + half[:, None] * _NODES[None, :]
    flat = np.concatenate([pts.ravel(), extra]) if extra else pts.ravel()
    vals = np.asarray(f(flat), dtype=float)
    if vals.shape != flat.shape:
        raise TypeError(f"integrand returned shape {vals.shape} for nodes of shape "
                        f"{flat.shape}; it must map an array to an array of the same shape")
    vals = vals[:pts.size].reshape(pts.shape)
    if not np.all(np.isfinite(vals)):
        i, j = np.argwhere(~np.isfinite(vals))[0]
        raise QuadratureError(
            f"integrand not finite ({vals[i, j]!r} at t={pts[i, j]:.6g})",
            worst_interval=(float(lo[i]), float(hi[i]), math.inf))
    return half, vals


def _gk(half: np.ndarray, vals: np.ndarray):
    """GK15 on panels of half-widths ``half`` from their node values;
    returns (values, error estimates)."""
    kron = half * (vals @ _WK)
    gauss = half * (vals @ _WGAUSS)
    resabs = np.abs(half) * (np.abs(vals) @ _WK)
    mean = kron / np.where(half != 0.0, 2.0 * half, 1.0)
    resasc = np.abs(half) * (np.abs(vals - mean[:, None]) @ _WK)
    raw = np.abs(kron - gauss)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.where(resasc > 0.0,
                          resasc * np.minimum(1.0, (200.0 * raw / np.where(resasc > 0, resasc, 1.0)) ** 1.5),
                          raw)
    errs = np.maximum(scaled, 50.0 * _EPS * resabs)
    return kron, errs


def _stuck(limit: bool, lo: np.ndarray, hi: np.ndarray, err: np.ndarray,
           value: Optional[float] = None) -> QuadratureError:
    """The error of a refinement that cannot go on: at the panel budget if
    ``limit``, else roundoff-limited; it names the panel of largest ``err``."""
    worst = int(np.argmax(err))
    return QuadratureError(
        "subdivision limit reached" if limit else "cannot refine further (roundoff-limited)",
        worst_interval=(float(lo[worst]), float(hi[worst]), float(err[worst])), value=value)


def integrate(f: Callable, a: float, b: float, rel_tol: float = 1e-10):
    """Adaptively integrate f over the finite interval [a, b]; f maps an
    array of nodes to an array of the same shape.

    Returns ``(value, error_estimate)`` with
    ``error_estimate <= max(rel_tol*|value|, 1e-305)`` on success; raises
    :class:`~radialcap.errors.QuadratureError` carrying the worst
    subinterval when the budget of ``_MESH_PANELS`` panels is exhausted.
    Bounds that are not finite with a < b, and a rel_tol that is NaN,
    negative or infinite, raise :class:`~radialcap.errors.ConfigError`.
    """
    check_number("a", a)
    check_number("b", b, above=("a", a))
    check_number("rel_tol", rel_tol, at_least=0)
    lo = np.array([float(a)])
    hi = np.array([float(b)])
    vals, errs = _gk(*_sample(f, lo, hi))
    while True:
        total = float(vals.sum())
        err_total = float(errs.sum())
        target = max(rel_tol * abs(total), 1e-305)
        if err_total <= target:
            return total, err_total
        splittable = (hi - lo) > np.maximum(4.0 * _EPS * (np.abs(lo) + np.abs(hi)), 1e-300)
        offenders = (errs > target / (2.0 * len(lo))) & splittable
        if not offenders.any() or len(lo) >= _MESH_PANELS:
            raise _stuck(len(lo) >= _MESH_PANELS, lo, hi, errs, total)
        # split at most the 64 worst offenders per round to bound batch size
        idx = np.where(offenders)[0]
        if len(idx) > 64:
            idx = idx[np.argsort(errs[idx])[-64:]]
        keep = np.ones(len(lo), dtype=bool)
        keep[idx] = False
        mids = 0.5 * (lo[idx] + hi[idx])
        new_lo = np.concatenate([lo[keep], lo[idx], mids])
        new_hi = np.concatenate([hi[keep], mids, hi[idx]])
        new_vals, new_errs = _gk(*_sample(f, np.concatenate([lo[idx], mids]),
                                          np.concatenate([mids, hi[idx]])))
        vals = np.concatenate([vals[keep], new_vals])
        errs = np.concatenate([errs[keep], new_errs])
        lo, hi = new_lo, new_hi


def check_radius(r, base, name="base"):
    """``check_number``'s rules for a radius, or each of an array, queried
    on a primitive based at ``base``: finite, then >= base (1e-15 slack)."""
    lim = base * (1.0 - 1e-15) - 1e-300
    if isinstance(r, float):
        bad = () if lim <= r < math.inf else (r,)
    else:
        pts = np.asarray(r, dtype=float)
        bad = pts[~((pts >= lim) & (pts < math.inf))].tolist()
    if bad:
        check_number("r", min(bad, key=math.isfinite), at_least=(name, base))


class CumulativeCache:
    """``r -> integral(base, r)`` on a mesh of panels that grows to the right;
    ``fn`` maps a 1-D array of nodes to an array of the same shape.

    Each panel samples f once at the 15 GK nodes; within a panel the
    primitive is one polynomial, the exact antiderivative of f's degree-14
    interpolant, kept as the 16 Chebyshev coefficients of one column of a
    (20, n) array, below the panel's left edge, midpoint, half-width and
    offset (:meth:`_commit`).  Panel offsets are a cumulative sum, so a
    query is one panel lookup plus one Clenshaw sum (:func:`_clenshaw`),
    and a query at a panel's left edge returns the stored offset (the base
    gives exactly 0).  A float, numpy scalar or 0-d array is looked up by
    ``bisect`` and summed in Python floats, and gives a float; an array is
    one call of the compiled query (``_QUERY_SOURCE``), which looks up and
    sums each point in C, and gives an array of its shape.  Where no C
    compiler works, :meth:`_query_numpy`, its reference, answers with the
    same bits and no warning.  All agree bit for bit.  :meth:`grow` and
    :meth:`error` only grow the mesh and make no Clenshaw sum; a query
    grows it before its sum.  Every radius follows :func:`check_radius`,
    once per query.

    Growing past the mesh's right end ``reach`` meshes ``[reach, top]``
    (top: the query's largest point) from the doubling steps ``[reach,
    2*reach], ..., [., top]`` (one step if reach is 0).  Panels are bisected
    in batches until the last three Chebyshev coefficients of f are at most
    ``rel_tol`` times the largest |f| seen up to the end of the panel's
    step, or at most ``abs_tol`` once multiplied by the half-width, so one
    far query, such as a tail ladder evaluated ahead of its stop, cannot
    loosen the panels near the base.  The first call of f also takes top,
    so a mesh that f keeps of its own grows there at once, and, given
    several steps, the span ``[reach, top]`` as one panel ahead of them, so
    a non-finite value on it is the one reported; the span is never kept,
    as it can miss f between its nodes.  An extension takes one or a few
    calls of f.  :meth:`error` sums the panels' GK15 error estimates, from
    f's values at the nodes that the antiderivative gives back.  Not safe
    for concurrent mutation; build one per thread.

    The integrals at the ends of the steps left of the first open panel are
    final, bit for bit what any longer extension gives.  The tail ladder's
    stop rule (``_stop``) is handed them after each round that adds one;
    if it returns how many to keep, the extension ends there.
    """

    def __init__(self, fn: Callable, base: float, rel_tol: float = 1e-12,
                 abs_tol: float = 0.0):
        check_number("rel_tol", rel_tol, at_least=0)
        check_number("abs_tol", abs_tol, at_least=0)
        self.fn = fn
        self.base = float(base)
        self.rel_tol = rel_tol
        self.abs_tol = abs_tol
        self._reach = self.base
        self._total = 0.0           # integral(base, reach)
        self._fmax = 0.0
        self._lo = self._mid = self._half = self._off = np.empty(0)
        self._coef = np.empty((16, 0))
        self._mesh = self._mesh_ptr = None  # set by the first extension (_commit)
        self._stop = None           # the tail ladder's stop rule (classify_tail)

    def __call__(self, r):
        if isinstance(r, float) or np.ndim(r) == 0:     # one point, in Python floats
            x = float(r)
            self.grow(x)
            x = max(x, self.base)
            if not len(self._lo):   # an empty mesh is only ever queried at the base
                return 0.0
            i = bisect.bisect_right(self._lo, x) - 1
            if x == self._lo.item(i):
                return self._off.item(i)
            t = min(max((x - self._mid.item(i)) / self._half.item(i), -1.0), 1.0)
            return self._off.item(i) + _clenshaw(self._coef[:, i].tolist(), t)
        out = np.array(r, dtype=float, order="C")      # a copy: the kernel sums in place
        check_radius(out, self.base)
        top = float(out.max(initial=self.base))
        if top > self._reach:
            self._extend(top)
        if not (len(self._lo) and out.size):    # no point, or only the base on no mesh
            return np.zeros(out.shape)
        kernel = _query_kernel()
        if isinstance(kernel, str):
            return self._query_numpy(out.ravel()).reshape(out.shape)
        kernel(self._mesh_ptr, len(self._lo), self.base, _pointer(out), out.size)
        return out

    def _query_numpy(self, pts: np.ndarray) -> np.ndarray:
        """The primitive at the 1-D array ``pts`` on the mesh as it stands,
        by numpy: the compiled query's reference and its fallback."""
        flat = np.maximum(pts, self.base)
        i = np.searchsorted(self._lo, flat, side="right") - 1
        x = np.clip((flat - self._mid[i]) / self._half[i], -1.0, 1.0)
        inner = _clenshaw(self._coef.take(i, axis=1), x)   # 16 rows of len(x)
        return self._off[i] + np.where(flat == self._lo[i], 0.0, inner)

    def grow(self, top: float) -> None:
        """Mesh ``[base, top]``, evaluating the primitive nowhere; ``top``
        is a query radius (:func:`check_radius`)."""
        check_radius(top, self.base)
        if top > self._reach:
            self._extend(top)

    def error(self, r: float) -> float:
        """Summed GK15 error estimate of the panels meeting ``[base, r]``:
        the error estimate of ``self(r)`` when r is a panel edge.  It only
        grows the mesh to r; no primitive is evaluated."""
        self.grow(r)
        n = np.searchsorted(self._lo, r, side="left")
        half = self._half[:n]
        # a C-ordered (n, 16) operand, so the product's bits do not depend
        # on how the panels are stored
        coef = np.ascontiguousarray(self._coef[:, :n].T)
        return float(_gk(half, coef @ _FROM_PRIM.T / half[:, None])[1].sum())

    def _extend(self, top: float) -> None:
        steps = [self._reach]
        while self._reach > 0 and 2.0 * steps[-1] < top:
            steps.append(2.0 * steps[-1])
        span = int(len(steps) > 1)  # the span leads, so a non-finite f on it is reported
        lo = np.array(steps[:span] + steps)
        hi = np.array([top] * span + steps[1:] + [top])
        half, vals = _sample(self.fn, lo, hi, top)
        lo, hi, half, vals = lo[span:], hi[span:], half[span:], vals[span:]
        ends = hi                   # where each growth step ends
        step = np.arange(len(lo))   # the growth step each panel lies in
        fmax = np.full(len(lo), self._fmax)     # largest |f| seen up to each step's end
        done = []                   # (left edges, antiderivative coefficients)
        n_done = n_final = 0        # accepted panels; steps left of the first open panel
        kept = len(ends)            # steps the extension keeps
        while True:
            np.maximum.at(fmax, step, np.abs(vals).max(axis=1))
            fmax = np.maximum.accumulate(fmax)
            cheb = vals @ _TO_CHEB.T
            tail = np.abs(cheb[:, -3:]).max(axis=1)
            ok = (tail <= self.rel_tol * fmax[step]) | (half * tail <= self.abs_tol)
            if ok.all():            # the round ends the extension: no index copies
                done.append((lo, half[:, None] * (cheb @ _TO_PRIM.T)))
                lo = lo[:0]
            else:
                done.append((lo[ok], half[ok, None] * (cheb[ok] @ _TO_PRIM.T)))
                n_done += int(ok.sum())
                todo = ~ok
                lo, hi, step, err = lo[todo], hi[todo], step[todo], (half * tail)[todo]
            # steps left of the first open panel (the stop rule reads them)
            final = len(ends) if not len(lo) else int(step.min()) if self._stop is not None else 0
            if final > n_final:
                # the accepted panels in order, and the integrals to their edges
                n_final = final
                new_lo = np.concatenate([d[0] for d in done])
                order = np.argsort(new_lo)
                new_lo, coef = new_lo[order], np.concatenate([d[1] for d in done])[order]
                edges = np.cumsum(np.concatenate([[self._total], coef.sum(axis=1)]))
                if self._stop is not None:
                    kept = self._stop(edges[np.searchsorted(new_lo, ends[:n_final])]) or len(ends)
                if kept < len(ends) or not len(lo):
                    break
            splittable = (hi - lo) > np.maximum(4.0 * _EPS * (np.abs(lo) + np.abs(hi)), 1e-300)
            if n_done + 2 * len(lo) > _MESH_PANELS or not splittable.all():
                raise _stuck(splittable.all(), lo, hi, err)
            mids = 0.5 * (lo + hi)
            lo, hi = np.concatenate([lo, mids]), np.concatenate([mids, hi])
            step = np.concatenate([step, step])
            half, vals = _sample(self.fn, lo, hi)
        if kept < len(ends):        # drop the steps past the stop
            top = float(ends[kept - 1])
            n = int(np.searchsorted(new_lo, top))
            new_lo, coef, edges = new_lo[:n], coef[:n], edges[:n + 1]
        new_hi = np.append(new_lo[1:], top)
        mesh = np.empty((20, len(new_lo)))
        mesh[0], mesh[1], mesh[2], mesh[3], mesh[4:] = (
            new_lo, 0.5 * (new_lo + new_hi), 0.5 * (new_hi - new_lo), edges[:-1], coef.T)
        if len(self._lo):           # an empty mesh is replaced, not joined
            mesh = np.concatenate([self._mesh, mesh], axis=1)
        self._commit(mesh)
        self._reach, self._total, self._fmax = top, float(edges[-1]), float(fmax[kept - 1])

    def _commit(self, mesh: np.ndarray) -> None:
        """Keep the (20, n) ``mesh``, whose column j is panel j: its left
        edge, midpoint, half-width and offset, then the 16 Chebyshev
        coefficients of its primitive.  It is kept C-ordered, as the
        compiled query reads it row by row through one pointer, taken
        here."""
        mesh = np.ascontiguousarray(mesh)
        self._mesh, self._mesh_ptr = mesh, _pointer(mesh)
        self._lo, self._mid, self._half, self._off = mesh[0], mesh[1], mesh[2], mesh[3]
        self._coef = mesh[4:]


# ---------------------------------------------------------------------------
# tail classification
# ---------------------------------------------------------------------------

# an integrand value past this stops the ladder as an overflow
_BLOWUP = 1e250
# the ladder's mesh tolerance, relative to the largest |f| (CumulativeCache)
_TAIL_REL_TOL = 1e-9
# a partial integral past this many times I_1 declares divergence
_GROWTH_FACTOR = 1e12


class _Overflow(Exception):
    """The tail integrand is infinite or past ``_BLOWUP``, first at ``args[0]``."""


class _NaN(Exception):
    """The tail integrand is NaN; ``args[0]`` is the smallest node where it
    is NaN or overflows."""


@dataclass(frozen=True)
class TailConfig:
    """Knobs of the doubling-horizon divergence classifier: the number of
    doublings, the Cauchy threshold on relative increments and the width of
    the critical band around -1 that a fitted tail exponent must clear on
    the left.  The mesh tolerance (1e-9) and growth factor (1e12) are fixed.
    k_max must be an integer >= 0, and conv_eps and exp_band finite and
    >= 0, or :class:`ConfigError` names the field."""

    k_max: int = 40
    conv_eps: float = 1e-8
    exp_band: float = 0.05

    def __post_init__(self):
        check_number("k_max", self.k_max, integer=True, at_least=0)
        # an infinite threshold would call every tail convergent, and an
        # infinite band would let no fitted exponent decide
        check_number("conv_eps", self.conv_eps, at_least=0)
        check_number("exp_band", self.exp_band, at_least=0)

    def horizon(self, rho: float) -> float:
        """``rho * 2**k_max``; :class:`ConfigError` unless that is a finite float."""
        top = rho * 2.0 ** self.k_max if self.k_max < 1024 else math.inf
        if not math.isfinite(top):
            raise ConfigError(f"horizon rho * 2**k_max is not a finite float "
                              f"(rho={rho}, k_max={self.k_max})")
        return top


@dataclass(frozen=True)
class TailClass:
    """Outcome of classifying ``integral(f, rho, infinity)``.

    kind is ``"divergent"``, ``"convergent"`` or ``"undetermined"``;
    ``value``/``error`` are set for convergent tails.  ``error`` is the
    summed GK15 error estimate of the mesh up to the last partial integral
    (:meth:`CumulativeCache.error`) plus the tail terms: the last increment
    after a Cauchy stop, or a quarter of the geometric tail estimate plus
    1e-6 of the last increment after an exponent fit.  The mesh meets
    1e-9 relative to the largest |f|, not to the integral, so a
    ripple that falls below that far out is left unresolved and shows in
    ``error`` rather than being refined.  Evidence carries the
    partial integrals at doubling radii (``to_dict`` lists them as
    ``ladder``, pairs ``[R_k, I_k]``), the fitted tail exponent and the fit
    residual, plus a one-line account of which test decided.
    """

    kind: str
    value: Optional[float] = None
    error: Optional[float] = None
    partial_integrals: tuple = field(default_factory=tuple)
    alpha_hat: Optional[float] = None
    fit_residual: Optional[float] = None
    detail: str = ""

    @property
    def is_divergent(self) -> bool:
        return self.kind == "divergent"

    @property
    def is_convergent(self) -> bool:
        return self.kind == "convergent"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "value": self.value,
            "error": self.error,
            "alpha_hat": self.alpha_hat,
            "fit_residual": self.fit_residual,
            "detail": self.detail,
            "horizon": self.partial_integrals[-1][0] if self.partial_integrals else None,
            "ladder": [[r_k, i_k] for r_k, i_k in self.partial_integrals],
        }


def _fit_exponent(f: Callable, rho: float, horizon: float):
    """Least-squares slope of log f against log t over the last two decades,
    64 geometric points, and the RMS residual of that line.  The line comes
    from the centred moments, slope = sum(dx*dy)/sum(dx*dx), which is the
    least-squares solution without an SVD; it agrees with ``np.polyfit``
    to rounding."""
    ts = geomgrid(max(rho, horizon / 100.0), horizon, 64)
    with np.errstate(all="ignore"):
        fs = f(ts)
    ok = np.isfinite(fs) & (fs > 0.0)
    if ok.sum() < 8:
        return None, None
    x = np.log(ts[ok])
    y = np.log(fs[ok])
    dx, dy = x - x.mean(), y - y.mean()
    slope = float(dx @ dy / (dx @ dx))
    return slope, float(np.sqrt(np.mean((dy - slope * dx) ** 2)))


def _first_stop(ladder: np.ndarray, conv_eps: float):
    """(k, how) for the first k at which the partials ``I_1, I_2, ...`` stop
    the ladder: ``"growth"`` once I_k > 1e12 I_1, else ``"cauchy"`` once the
    relative increments ``(I_j - I_{j-1}) / I_{j-1}``, j = k-2..k, are all
    below ``conv_eps`` (k >= 4); ``(None, None)`` if neither fires."""
    growth = ladder > _GROWTH_FACTOR * max(float(ladder[0]), 1e-300)
    with np.errstate(over="ignore"):    # the relative increments of I_2, I_3, ...
        small = (ladder[1:] - ladder[:-1]) / np.maximum(ladder[:-1], 1e-300) < conv_eps
    stop = growth.copy()
    stop[3:] |= small[:-2] & small[1:-1] & small[2:]
    k = int(stop.argmax())
    if not stop[k]:
        return None, None
    return k + 1, "growth" if growth[k] else "cauchy"


def classify_tail(f: Callable, rho: float, cfg: Optional[TailConfig] = None) -> TailClass:
    """Classify ``integral(f, rho, infinity)`` for a nonnegative integrand f
    that maps an array of radii to an array of the same shape.

    Partial integrals ``I_k`` over ``[rho, rho*2**k]`` are accumulated; the
    classifier declares

    * convergent when the last three relative increments fall below
      ``conv_eps``, or when the fitted tail exponent sits left of the
      critical ``-1`` by at least ``exp_band`` and the last increment
      ratios are at most 0.985 (value = the last partial integral, plus a
      geometric tail estimate in the second case),
    * divergent when the partial integrals blow past ``1e12`` times
      the first one, or when the per-doubling increments stop decreasing
      (harmonic-type tails),
    * undetermined otherwise -- never guessed: inside the critical band
      (``1/(t*log(t))``), and where the fit and the increments disagree,
      as on a divergent tail with oscillating increments below the growth
      stop (``t**-0.5*(1.5 + sin(2*pi*log2(t)/3))``).  The fit never
      decides divergence, so ``exp_band`` shapes only the convergent side.

    The partial integrals are read off one :class:`CumulativeCache` of f
    based at rho, whose growth steps are the doublings; the ladder evaluates
    f nowhere else.  A look-ahead grows the mesh toward the last doubling
    radius (the cache's first call of f takes it, so a weight's remainder
    mesh grows there in one extension), and the mesh ends where the growth
    and Cauchy stops (:func:`_first_stop`) fire on the partials it has made
    final.  The partials are the mesh's step-end offsets, and the look-ahead
    and the error estimate (:meth:`CumulativeCache.error`) only grow the
    mesh, so the ladder evaluates the primitive nowhere.  A look-ahead
    that meets a NaN, an inf or a value past ``1e250`` retries up
    to the last doubling radius below the smallest such node; any other
    failure drops to one doubling at a time.  A query of one doubling that
    fails is the walk's: a NaN raises there, an overflow stops the ladder as
    divergent, anything else is raised.
    """
    cfg = cfg or TailConfig()
    check_number("rho", rho, above=0)
    cfg.horizon(rho)

    def guarded(t):
        with np.errstate(all="ignore"):
            vals = np.asarray(f(t), dtype=float)
        nan = np.isnan(vals)
        bad = nan | (vals > _BLOWUP) | np.isinf(vals)
        if bad.any():
            raise (_NaN if nan.any() else _Overflow)(float(np.min(np.where(bad, t, np.inf))))
        return vals

    radii = [rho * 2.0 ** k for k in range(cfg.k_max + 1)]
    ladder = []            # I_k at the doublings meshed so far
    seen = []              # ... and those the extension under way made final
    stop = (None, None)

    def rule(ends):
        nonlocal seen, stop
        seen = ladder + ends.tolist()
        stop = _first_stop(np.array(seen), cfg.conv_eps)
        return None if stop[0] is None else stop[0] - len(ladder)

    prim = CumulativeCache(guarded, rho, rel_tol=_TAIL_REL_TOL)
    prim._stop = rule
    limit = math.inf       # the lowest node at which f has failed
    while stop[0] is None and len(ladder) < cfg.k_max:
        k = len(ladder)
        hi = min(max(k + 1, bisect.bisect_left(radii, limit) - 1), cfg.k_max)
        try:
            prim.grow(radii[hi])
        except Exception as exc:
            if hi > k + 1:
                # retry below the failure, or one doubling at a time if it
                # has no position; the failed extension left the cache as it was
                limit = min(limit, exc.args[0]) if isinstance(exc, (_Overflow, _NaN)) else 0.0
                continue
            if isinstance(exc, _Overflow):
                return TailClass("divergent", partial_integrals=tuple(zip(radii[1:], ladder)),
                                 detail="integrand overflow at finite horizon")
            if isinstance(exc, _NaN):
                raise QuadratureError(
                    f"integrand is NaN inside [{radii[k]:.6g}, {radii[k + 1]:.6g}]",
                    worst_interval=(radii[k], radii[k + 1], math.inf)) from None
            raise
        ladder = seen[:stop[0]]

    partials = tuple(zip(radii[1:], ladder))
    increments = [b - a for a, b in zip([0.0] + ladder, ladder)]
    total, horizon = (ladder[-1] if ladder else 0.0), radii[len(ladder)]
    if stop[1] is None and len(increments) < 3:
        return TailClass("undetermined", partial_integrals=partials,
                         detail=f"ladder too short: {len(increments)} of 3 doublings needed")
    alpha, resid = _fit_exponent(f, rho, horizon)
    if stop[1] == "growth":
        return TailClass("divergent", partial_integrals=partials,
                         alpha_hat=alpha, fit_residual=resid,
                         detail=f"partial integral exceeded {_GROWTH_FACTOR:g} x I_1")
    if stop[1] == "cauchy":
        return TailClass("convergent", value=total,
                         error=prim.error(horizon) + increments[-1],
                         partial_integrals=partials, alpha_hat=alpha,
                         fit_residual=resid,
                         detail="Cauchy increments below conv_eps")
    ratios = [increments[i] / increments[i - 1]
              for i in range(len(increments) - 2, len(increments))
              if increments[i - 1] > 0.0]
    if ratios and min(ratios) >= 0.999:
        return TailClass("divergent", partial_integrals=partials,
                         alpha_hat=alpha, fit_residual=resid,
                         detail="per-doubling increments non-decreasing")
    if alpha is None:
        return TailClass("undetermined", partial_integrals=partials,
                         detail="tail exponent could not be fitted")
    if alpha <= -1.0 - cfg.exp_band and ratios and max(ratios) <= 0.985:
        q = increments[-1] / increments[-2] if increments[-2] > 0 else 0.0
        tail_est = increments[-1] * q / (1.0 - q) if q < 1.0 else 0.0
        return TailClass("convergent", value=total + tail_est,
                         error=prim.error(horizon) + 0.25 * tail_est + increments[-1] * 1e-6,
                         partial_integrals=partials, alpha_hat=alpha,
                         fit_residual=resid,
                         detail=f"fitted exponent {alpha:.4f} <= -1 - band; geometric tail added")
    where = ("inside the critical band" if abs(alpha + 1.0) < cfg.exp_band
             else "not confirmed by the per-doubling increments")
    return TailClass("undetermined", partial_integrals=partials,
                     alpha_hat=alpha, fit_residual=resid,
                     detail=f"fitted exponent {alpha:.4f} {where}")
