"""Comparison constellations: the submanifold-vs-model datum and the
quantities the parabolicity criteria are built from.

A constellation bundles the ambient dimension ``n``, the submanifold
dimension ``m`` with its model geometry, and radial lower-bound functions:
``g`` for the tangency (norm of the projected radial gradient), ``lam`` for
the radial second-fundamental-form component and ``h`` for the radial mean
convexity.  In upper-tangency mode ``g`` plays no role and is fixed to 1.

The balance function combines them as

    (m + p - 2) * w'(r)/w(r) - m*h(r) - (p - 2)*lam(r)

and the decision weight is ``w(r) * exp(-integral_rho^r balance/((p-1) g^2))``.
When g is a constant (always under upper tangency) the w'/w part of that
integral is a logarithm, taken exactly; only the h and lam part is left to
quadrature, and for self-models nothing is.
"""

from __future__ import annotations

import enum
import math
import weakref
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import ConfigError, check_number
from .expr import RadialExpr, _check, eval_jet2, evaluate, parse
from .model import ModelSpace, _as_expr
from .quadrature import CumulativeCache, check_radius, geomgrid

__all__ = [
    "Tangency",
    "Constellation",
    "BalanceProfile",
    "balance",
    "balance_sign",
    "WeightFunction",
]

_G_FLOOR = 1e-8


class Tangency(enum.Enum):
    """Which side of the tangency the constellation controls."""

    LOWER = "lower"
    UPPER = "upper"


@dataclass(frozen=True)
class Constellation:
    """Full comparison-constellation datum.

    Immutable; all derived computations are pure functions of it.
    """

    n: int
    m: int
    model: ModelSpace
    g: RadialExpr
    lam: RadialExpr
    h: RadialExpr
    tangency: Tangency

    def __post_init__(self):
        try:
            tang = Tangency(self.tangency)
        except ValueError:
            raise ConfigError(f"tangency must be 'lower' or 'upper', "
                              f"got {self.tangency!r}") from None
        object.__setattr__(self, "tangency", tang)
        object.__setattr__(self, "g", _as_expr("1" if tang is Tangency.UPPER else self.g))
        object.__setattr__(self, "lam", _as_expr(self.lam))
        object.__setattr__(self, "h", _as_expr(self.h))
        check_number("m", self.m, integer=True, at_least=2)
        check_number("n", self.n, integer=True, at_least=("m", self.m))
        if self.model.m != self.m:
            raise ConfigError(f"model dimension {self.model.m} != m={self.m}")

    @classmethod
    def from_functions(cls, n: int, m: int, w: Union[str, RadialExpr],
                       g: Union[str, RadialExpr] = "1",
                       lam: Union[str, RadialExpr] = "0",
                       h: Union[str, RadialExpr] = "0",
                       tangency: Union[str, Tangency] = Tangency.LOWER) -> "Constellation":
        return cls(n=n, m=m, model=ModelSpace(m, _as_expr(w)), g=_as_expr(g),
                   lam=_as_expr(lam), h=_as_expr(h), tangency=tangency)

    @classmethod
    def self_model(cls, ms: ModelSpace,
                   tangency: Union[str, Tangency] = Tangency.LOWER) -> "Constellation":
        """Degenerate case submanifold == model (g=1, lam=h=0); every formula
        collapses to classical radial potential theory."""
        return cls(n=ms.m, m=ms.m, model=ms, g=parse("1"), lam=parse("0"),
                   h=parse("0"), tangency=tangency)

    def is_self_model(self) -> bool:
        """The degenerate submanifold == model case: g, lam and h are the
        constants 1, 0 and 0."""
        return bool(self.g.constant == 1.0 and self.lam.constant == 0.0
                    and self.h.constant == 0.0)


def _eta(c: Constellation, r):
    """w'/w at r, from the warping's jet; raises where w vanishes."""
    jw = eval_jet2(c.model.w, r)
    _check(np.asarray(jw.value) == 0.0, r, "warping function vanishes")
    return jw.d1 / jw.value


def _at(e: RadialExpr, r):
    """e at r; a constant is its number, which broadcasts like its values."""
    return evaluate(e, r) if e.constant is None else e.constant


def _balance_terms(c: Constellation, p: float, r, eta):
    """Balance value together with the magnitude scale of its terms, given
    ``eta`` = w'/w at r; ``eta = 0.0`` leaves the w'/w term out.  A constant
    h or lam enters as its number, not evaluated at r: the same floats, but
    the result is a scalar when eta and every datum are."""
    t1 = (c.m + p - 2.0) * eta
    t2 = c.m * _at(c.h, r)
    # the lam term carries the factor (p - 2): at p = 2 it is 0.0 with lam
    # not evaluated, so outcomes there are exactly lam-independent
    t3 = 0.0 if p == 2.0 else (p - 2.0) * _at(c.lam, r)
    return t1 - t2 - t3, np.abs(t1) + np.abs(t2) + np.abs(t3)


def balance(c: Constellation, p: float, r) -> Union[float, np.ndarray]:
    """Balance function ``(m+p-2) w'/w - m h - (p-2) lam`` at radius r.

    At ``p = 2`` the ``lam`` term has coefficient zero and is not evaluated.
    """
    check_number("p", p, at_least=2)
    value, _ = _balance_terms(c, p, r, _eta(c, r))
    return value


@dataclass(frozen=True)
class BalanceProfile:
    """Sampled balance function with its sign classification.

    Values within ``1e-12`` of zero (relative to the local term magnitude)
    count as zero, so an identically-zero balance is simultaneously
    non-negative and non-positive.
    """

    p: float
    rs: np.ndarray
    values: np.ndarray
    zero_tol: np.ndarray
    witnesses: tuple = field(default_factory=tuple)

    @property
    def is_non_negative(self) -> bool:
        return bool(np.all(self.values >= -self.zero_tol))

    @property
    def is_non_positive(self) -> bool:
        return bool(np.all(self.values <= self.zero_tol))

    @property
    def sign_summary(self) -> str:
        if self.is_non_negative:
            return "non_negative"
        if self.is_non_positive:
            return "non_positive"
        return "mixed"

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "sign": self.sign_summary,
            "grid": [float(self.rs[0]), float(self.rs[-1]), int(len(self.rs))],
            "min": float(np.min(self.values)),
            "max": float(np.max(self.values)),
            "witnesses": [float(w) for w in self.witnesses],
        }


def balance_sign(c: Constellation, p: float, interval, grid_size: int = 512) -> BalanceProfile:
    """Sample the balance function on a geometric grid over ``interval``
    and classify its sign, recording up to 5 sign-change witnesses.  An
    interval of one radius (``lo == hi``) is valid: it is sampled once."""
    check_number("p", p, at_least=2)
    lo, hi = interval
    check_number("lo", lo, above=0)
    check_number("hi", hi, at_least=("lo", lo))
    check_number("grid_size", grid_size, integer=True, at_least=2)
    rs = geomgrid(lo, hi, grid_size)
    values, scale = _balance_terms(c, p, rs, _eta(c, rs))
    values = np.asarray(values, dtype=float)
    tol = 1e-12 * np.maximum(1.0, np.asarray(scale, dtype=float))
    sign = np.where(values > tol, 1, np.where(values < -tol, -1, 0))
    nonzero = np.flatnonzero(sign)
    flips = np.flatnonzero(np.diff(sign[nonzero]))[:5]
    a, b = nonzero[flips], nonzero[flips + 1]
    return BalanceProfile(p=p, rs=rs, values=values, zero_tol=tol,
                          witnesses=tuple(float(w) for w in np.sqrt(rs[a] * rs[b])))


class WeightFunction:
    """Callable ``r -> w(r) * exp(-I(r))`` with
    ``I(r) = integral_rho^r balance(t) / ((p-1) g(t)^2) dt``.

    When g is a constant ``g0 >= 1e-8`` the w'/w part integrates exactly:

        I(r) = kappa * log(w(r)/w(rho)) + R(r),  kappa = (m+p-2)/((p-1) g0^2)
        R(r) = -integral_rho^r (m h + (p-2) lam) / ((p-1) g0^2) dt

    (the lam term is dropped at p = 2, as in the balance).  Any other g
    leaves the whole balance in the remainder R, with kappa = 0.  R is
    integrated numerically only if h, or lam at p != 2, is not the constant
    0, so a self-model weight runs no quadrature at all.  The weight at rho
    is ``w(rho)`` exactly, and under upper tangency g is 1 by construction.

    R lives on a :class:`~radialcap.quadrature.CumulativeCache` panel mesh
    that grows with the largest radius queried, so a query inside it runs
    no quadrature.  :meth:`integral` is the weight's own primitive, which
    the Dirichlet solutions read.  rel_tol must be finite and >= 0, a
    radius finite and >= rho.  Cheap to build and not safe for concurrent
    mutation: build one per thread.
    """

    def __init__(self, c: Constellation, p: float, rho: float, rel_tol: float = 1e-10):
        check_number("p", p, at_least=2)
        check_number("rho", rho, above=0)
        check_number("rel_tol", rel_tol, at_least=0)
        self.constellation = c
        self.p = p
        self.rho = float(rho)
        self.rel_tol = rel_tol
        g0 = self._g0 = _constant_g(c)
        self._kappa = 0.0 if g0 is None else (c.m + p - 2.0) / ((p - 1.0) * g0 * g0)
        self._w_rho = None
        self._cache = self._primitive = None
        if self._g0 is None or c.h.constant != 0.0 or (p != 2.0 and c.lam.constant != 0.0):
            # the remainder sits in an exponent: absolute errors below 1e-15
            # per panel are invisible, and the floor keeps roundoff-noise
            # integrands (exactly cancelling balances) from endless
            # refinement.  A cache that calls the weight (its primitive, the
            # tail ladder) takes its query's top in its first call, so this
            # mesh grows there in one extension.  The cache reaches the
            # integrand through a weak reference, so the weight and its cache
            # form no cycle.
            ref = weakref.ref(self)
            self._cache = CumulativeCache(lambda t: ref().integrand(t), self.rho,
                                          rel_tol=rel_tol, abs_tol=1e-15)

    # -- integrand of the remainder R ------------------------------------------
    def integrand(self, t):
        c = self.constellation
        value, _ = _balance_terms(c, self.p, t, 0.0 if self._g0 is not None else _eta(c, t))
        gv = _tangency_bound(c, t)
        out = value / ((self.p - 1.0) * gv * gv)
        # constant data give one number: spread it over t's shape
        return out if np.ndim(out) == np.ndim(t) else np.full(np.shape(t), out)

    def integral(self, r):
        """integral_rho^r of the weight for scalar or ndarray r >= rho, read
        off one CumulativeCache over the weight at its ``rel_tol``, built on
        first use.  The cache's first call of the weight in an extension
        takes the largest r, so the remainder mesh grows to it at once."""
        check_radius(r, self.rho, "rho")
        if self._primitive is None:
            ref = weakref.ref(self)
            self._primitive = CumulativeCache(lambda t: ref()(t), self.rho, rel_tol=self.rel_tol)
        with np.errstate(over="ignore"):    # the cache reports an inf weight itself
            return self._primitive(r)

    def _log_ratio(self, r, wv):
        """log(w(r)/w(rho)), given ``wv`` = w(r)."""
        if self._w_rho is None:
            w_rho = evaluate(self.constellation.model.w, self.rho)
            _check_warping(w_rho, math.copysign(1.0, w_rho), self.rho)
            self._w_rho = w_rho
        _check_warping(wv, math.copysign(1.0, self._w_rho), r)
        return np.log(wv / self._w_rho)

    def inner_integral(self, r):
        """I(r) for scalar or ndarray r >= rho."""
        check_radius(r, self.rho, "rho")
        return self._exponent(r, None)

    def _exponent(self, r, wv):
        total = 0.0 if self._cache is None else self._cache(r)
        if self._kappa:
            if wv is None:
                wv = evaluate(self.constellation.model.w, r)
            total = self._kappa * self._log_ratio(r, wv) + total
        return total

    def __call__(self, r):
        check_radius(r, self.rho, "rho")
        wv = evaluate(self.constellation.model.w, r)
        return wv * np.exp(-self._exponent(r, wv))


def _constant_g(c: Constellation) -> Optional[float]:
    """g as a number when it is a constant at or above the floor 1e-8, else
    None: a constant below the floor is evaluated pointwise, which raises."""
    g0 = c.g.constant
    return g0 if g0 is not None and g0 >= _G_FLOOR else None


def _tangency_bound(c: Constellation, t) -> Union[float, np.ndarray]:
    """g(t), the divisor of the balance in the weight and the drift (a
    constant g is returned as it is); raises :class:`DomainError` at the
    first t where g drops below the floor 1e-8."""
    g0 = _constant_g(c)
    if g0 is not None:
        return g0
    gv = np.asarray(evaluate(c.g, t))
    _check(gv < _G_FLOOR, t, f"tangency bound g below {_G_FLOOR:g}")
    return gv


def _check_warping(wv, sign, r):
    """Raise unless w(r) is finite with the sign of w(rho): a sign change
    means w vanishes between rho and r, where w'/w has a pole."""
    _check(np.isinf(wv), r, "warping function overflows")
    _check(np.logical_not(sign * wv > 0.0), r, "warping function vanishes")
