"""Drifted radial operator, its annulus Dirichlet solution and capacities.

The operator acting on radial profiles is

    L psi = psi'' + c(r) psi',
    c(r)  = balance(r) / ((p-1) g(r)^2) - w'(r)/w(r)

(upper tangency: g == 1).  Its Dirichlet solution on the annulus
``[rho, R]`` with values 0 and 1 on the boundary spheres is the normalized
primitive of the decision weight:

    psi(r) = integral_rho^r weight / integral_rho^R weight

read off the weight's own primitive (``WeightFunction.integral``).  The
module provides the closed form, an independent Runge-Kutta solution of
the same boundary problem, the flux ("drifted") capacity of the annulus and
the induced capacity upper bound for the submanifold.  The Runge-Kutta
solution steps RK4 on c(r) alone, all steps at once as per-step factors on
psi' multiplied out in log space; it shares no weight, mesh or primitive
with the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .constellation import (
    Constellation, WeightFunction, _balance_terms, _eta, _tangency_bound,
)
from .errors import DomainError, RadialCapError, check_number
from .model import sphere_volume

__all__ = [
    "drift_coeff",
    "RadialSolution",
    "OdeSolution",
    "solve_dirichlet_closed",
    "solve_dirichlet_ode",
    "drifted_capacity",
    "flux_bound",
    "operator_residual",
]


def drift_coeff(c: Constellation, p: float, r) -> Union[float, np.ndarray]:
    """c(r) = balance/((p-1) g^2) - w'/w, with the tangency bound g (the
    constant 1 under upper tangency); it never reads the weight."""
    check_number("p", p, at_least=2)
    eta = _eta(c, r)
    value, _ = _balance_terms(c, p, r, eta)
    gv = _tangency_bound(c, r)
    return value / ((p - 1.0) * gv * gv) - eta


class RadialSolution:
    """Closed-form Dirichlet solution on the annulus ``[weight.rho, R]``.

    ``profile(r)`` is exact 0 at rho and exact 1 at R by construction;
    ``derivative(r)`` is the weight over the normalizer, hence nonnegative.
    Both read the weight's primitive, meshed at the weight's ``rel_tol``,
    so solutions on one weight share it.  Both take the weight's rule for
    a radius: finite, then >= rho ("r must be >= rho (1.0), got 0.5").
    """

    def __init__(self, weight: WeightFunction, R: float):
        self.weight = weight
        self.rho = weight.rho
        self.R = float(R)
        self.p = weight.p
        self.normalizer = float(weight.integral(self.R))
        if not (self.normalizer > 0.0) or not math.isfinite(self.normalizer):
            raise RadialCapError(
                f"weight integral over [{self.rho}, {R}] is {self.normalizer}; no solution")

    def profile(self, r):
        return self.weight.integral(r) / self.normalizer

    def derivative(self, r):
        return self.weight(r) / self.normalizer

    def __repr__(self):
        return (f"RadialSolution(rho={self.rho}, R={self.R}, p={self.p}, "
                f"normalizer={self.normalizer:.6g})")


def solve_dirichlet_closed(c: Constellation, p: float, rho: float, R: float,
                           rel_tol: float = 1e-11) -> RadialSolution:
    """Explicit Dirichlet solution: normalized primitive of the weight."""
    check_number("rho", rho, above=0)
    check_number("R", R, above=("rho", rho))
    return RadialSolution(WeightFunction(c, p, rho, rel_tol), R)


@dataclass(frozen=True)
class OdeSolution:
    """Runge-Kutta solution samples at uniform nodes over ``[rho, R]``."""

    rho: float
    R: float
    p: float
    nodes: np.ndarray
    psi: np.ndarray
    dpsi: np.ndarray


def solve_dirichlet_ode(c: Constellation, p: float, rho: float, R: float,
                        step_count: int = 2000) -> OdeSolution:
    """Integrate ``psi'' = -c(r) psi'`` from ``(psi, psi') = (0, 1)`` at rho
    with classical 4th-order Runge-Kutta, then rescale by ``psi(R)``.

    The system is linear in ``v = psi'``, so one RK4 step is ``v[i+1] =
    G[i] v[i]``, ``psi[i+1] = psi[i] + K[i] v[i]``, with G (RK4's stability
    function) and K polynomials in h times c at the node, midpoint and next
    node (stage factors a2, a3, a4 below).  ``log|v|`` is a cumsum of
    ``log|G|`` with a cumprod of signs, v is scaled by its largest value and
    ``psi = cumsum(K v)``; the scale cancels in the division by ``psi(R)``,
    so growth past float range stays finite.  A non-finite c(r) at a node
    or midpoint raises :class:`DomainError` at the first such r.
    """
    check_number("rho", rho, above=0)
    check_number("R", R, above=("rho", rho))
    check_number("step_count", step_count, integer=True, at_least=100)
    n = int(step_count)
    h = (R - rho) / n
    nodes = rho + h * np.arange(n + 1)
    pts = np.concatenate([nodes, rho + h * (np.arange(n) + 0.5)])
    with np.errstate(all="ignore"):
        c_all = np.asarray(drift_coeff(c, p, pts))
    bad = ~np.isfinite(c_all)
    if bad.any():
        raise DomainError("drift coefficient is not finite", float(pts[bad].min()))
    c0, c1, cm = c_all[:n], c_all[1:n + 1], c_all[n + 1:]
    a2 = 1.0 - 0.5 * h * c0
    a3 = 1.0 - 0.5 * h * cm * a2
    a4 = 1.0 - h * cm * a3
    G = 1.0 - h / 6.0 * (c0 + 2.0 * cm * (a2 + a3) + c1 * a4)
    K = h / 6.0 * (1.0 + 2.0 * (a2 + a3) + a4)
    with np.errstate(divide="ignore"):
        log_v = np.concatenate([[0.0], np.cumsum(np.log(np.abs(G)))])
    v = np.concatenate([[1.0], np.cumprod(np.sign(G))]) * np.exp(log_v - log_v.max())
    psi = np.concatenate([[0.0], np.cumsum(K * v[:-1])])
    end = psi[-1]
    if end == 0.0 or not math.isfinite(end):
        raise RadialCapError(f"degenerate profile: psi(R) {'vanished' if end == 0.0 else end}")
    return OdeSolution(rho=rho, R=R, p=p, nodes=nodes, psi=psi / end, dpsi=v / end)


def drifted_capacity(c: Constellation, p: float, rho: float, R: float,
                     rel_tol: float = 1e-11) -> float:
    """Flux capacity of the annulus for the drifted operator:

        Vol(sphere_rho) * weight(rho) / integral_rho^R weight

    which equals ``Vol(sphere_rho) * psi'(rho)`` of the Dirichlet solution.
    """
    sol = solve_dirichlet_closed(c, p, rho, R, rel_tol=rel_tol)
    return float(sphere_volume(c.model, rho) * sol.derivative(rho))


def flux_bound(cap: float, vol: float, p: float, boundary_flux: float) -> float:
    """Upper bound for the submanifold's annulus p-capacity from the drifted
    capacity ``cap`` of the annulus and the inner sphere's volume ``vol``:

        boundary_flux * (cap / vol)**(p-1)

    ``boundary_flux`` is the integral of the (p-1)-th power of the radial
    tangency over the inner boundary; it depends on the actual immersion and
    is supplied by the caller (any positive value keeps the bound's decisive
    R -> infinity behavior).  Each input must be finite, with cap >= 0,
    vol > 0, p >= 2 and boundary_flux > 0; a bound past float range is a
    :class:`RadialCapError`.
    """
    check_number("cap", cap, at_least=0)
    check_number("vol", vol, above=0)
    check_number("p", p, at_least=2)
    check_number("boundary_flux", boundary_flux, above=0)
    try:
        bound = boundary_flux * (cap / vol) ** (p - 1.0)
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise RadialCapError(f"capacity upper bound overflows float range (p={p:g})")
    return bound


def operator_residual(c: Constellation, p: float, rho: float, R: float,
                      solution) -> float:
    """Max |psi'' + c psi'| via finite differences on the profile
    (independent of how the profile was produced), at 257
    Chebyshev-distributed nodes pulled slightly inside the annulus so the
    5-point stencil stays in range.  The stencil step is
    ``min(2e-4 * (R - rho), 0.02 * rho)``.  p must be finite and >= 2, rho
    > 0 and R finite and > rho; each is checked before the profile is read.
    """
    check_number("p", p, at_least=2)
    check_number("rho", rho, above=0)
    check_number("R", R, above=("rho", rho))
    profile = solution.profile if hasattr(solution, "profile") else solution
    h = min(2e-4 * (R - rho), 0.02 * rho)
    k = np.arange(257)
    cheb = np.cos(math.pi * k / 256.0)  # [-1, 1]
    lo, hi = rho + 2.5 * h, R - 2.5 * h
    probe_points = (lo + hi) / 2.0 + (hi - lo) / 2.0 * cheb[::-1]
    stencil = probe_points[:, None] + h * np.array([-2.0, -1.0, 0.0, 1.0, 2.0])[None, :]
    f = profile(stencil.ravel()).reshape(stencil.shape)
    d1 = (-f[:, 4] + 8.0 * f[:, 3] - 8.0 * f[:, 1] + f[:, 0]) / (12.0 * h)
    d2 = (-f[:, 4] + 16.0 * f[:, 3] - 30.0 * f[:, 2] + 16.0 * f[:, 1] - f[:, 0]) / (12.0 * h * h)
    res = d2 + np.asarray(drift_coeff(c, p, probe_points)) * d1
    return float(np.max(np.abs(res)))
