"""Rotationally symmetric model geometry: a dimension together with a
warping function ``w`` of the radial distance.

Houses the warping checks, sphere volumes and the exact radial annulus
capacities that serve as closed-form oracles for everything built on top.
The mean curvature ``w'/w`` of distance spheres enters through the balance
(``constellation``).  Instances are immutable and all operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import DomainError, RadialCapError, check_number
from .expr import RadialExpr, _check, eval_jet2, parse
from .quadrature import geomgrid, integrate

__all__ = [
    "ModelSpace",
    "ValidationReport",
    "validate_warping",
    "sphere_volume",
    "unit_sphere_volume",
    "exact_annulus_p_capacity",
]


def _as_expr(w: Union[str, RadialExpr]) -> RadialExpr:
    return w if isinstance(w, RadialExpr) else parse(w)


@dataclass(frozen=True)
class ModelSpace:
    """Dimension ``m >= 2`` with warping function ``w``.

    A valid warping satisfies ``w(0) = 0``, ``w'(0) = 1`` and ``w > 0`` for
    ``r > 0`` (checked numerically by :func:`validate_warping`; the
    constructor does not enforce it so that annulus-only computations on
    non-model warpings remain possible).
    """

    m: int
    w: RadialExpr

    def __post_init__(self):
        check_number("dimension", self.m, integer=True, at_least=2)
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "w", _as_expr(self.w))

    @classmethod
    def euclidean(cls, m: int) -> "ModelSpace":
        return cls(m, parse("r"))

    @classmethod
    def hyperbolic(cls, m: int) -> "ModelSpace":
        return cls(m, parse("sinh(r)"))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the warping-function checks; failures carry witnesses."""

    ok: bool
    violations: tuple = field(default_factory=tuple)  # (condition, witness_r, value)

    def __bool__(self) -> bool:
        raise TypeError("a ValidationReport has no truth value; read .ok")


def validate_warping(w: Union[str, RadialExpr], r_max: float = 20.0) -> ValidationReport:
    """Check ``w(0)=0``, ``w'(0)=1`` (sampled at 1e-6, tolerance 1e-4) and
    positivity of ``w`` on a 1024-point geometric grid in ``(1e-6, r_max]``.
    """
    check_number("r_max", r_max, above=0)
    w = _as_expr(w)
    violations = []
    eps = 1e-6
    try:
        j0 = eval_jet2(w, eps)
        if abs(j0.value) > 1e-4:
            violations.append(("w(0) = 0", eps, float(j0.value)))
        if abs(j0.d1 - 1.0) > 1e-4:
            violations.append(("w'(0) = 1", eps, float(j0.d1)))
        grid = geomgrid(eps, r_max, 1024)
        vals = np.asarray(eval_jet2(w, grid).value)
        bad = ~(vals > 0.0)
        if bad.any():
            i = int(np.argmax(bad))
            violations.append(("w > 0 on (0, r_max]", float(grid[i]), float(vals[i])))
    except DomainError as exc:
        violations.append(("w evaluable on (0, r_max]", exc.r, None))
    return ValidationReport(ok=not violations, violations=tuple(violations))


def unit_sphere_volume(m: int) -> float:
    """Volume of the unit (m-1)-sphere, computed via log-gamma so large
    dimensions cannot overflow; m follows :class:`ModelSpace`'s rule."""
    check_number("dimension", m, integer=True, at_least=2)
    return math.exp(math.log(2.0) + 0.5 * m * math.log(math.pi) - math.lgamma(0.5 * m))


def sphere_volume(ms: ModelSpace, r) -> Union[float, np.ndarray]:
    """Volume of the distance sphere: ``omega_{m-1} * w(r)**(m-1)``.  The
    radius must be finite and positive, or :class:`DomainError` names it."""
    radius = np.asarray(r)
    _check(~np.isfinite(radius), r, "radius must be finite")
    _check(radius <= 0, r, "radius must be positive")
    wv = eval_jet2(ms.w, r).value
    return unit_sphere_volume(ms.m) * np.power(wv, ms.m - 1)


def _warping_power(ms: ModelSpace, expo: float):
    """``t -> w(t)**expo``, the integrand of both exact oracles (w > 0)."""
    def integrand(t):
        wv = np.asarray(eval_jet2(ms.w, t).value)
        _check(wv <= 0.0, t, "warping function must be positive on [rho, R]")
        return np.power(wv, expo)
    return integrand


def exact_annulus_p_capacity(ms: ModelSpace, rho: float, R: float, p: float) -> float:
    """Exact radial p-capacity of the annulus (closed ball of radius rho,
    ball of radius R):

        omega_{m-1} * (integral_rho^R w(t)**((1-m)/(p-1)) dt)**(1-p)

    Classical closed form; independent oracle for the drifted capacities.
    The integral is taken to 1e-11 relative.
    """
    check_number("rho", rho, above=0)
    check_number("R", R, above=("rho", rho))
    check_number("p", p, at_least=2)
    total, _ = integrate(_warping_power(ms, (1.0 - ms.m) / (p - 1.0)), rho, R, rel_tol=1e-11)
    try:
        power = total ** (1.0 - p)
    except OverflowError:
        raise RadialCapError(f"exact annulus p-capacity overflows float range "
                             f"(p={p:g}, rho={rho:g}, R={R:g})") from None
    return unit_sphere_volume(ms.m) * power
