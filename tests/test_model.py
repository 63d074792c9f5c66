import math

import numpy as np
import pytest

from radialcap.errors import DomainError
from radialcap.expr import parse
from radialcap.model import (
    ModelSpace, exact_annulus_p_capacity, eta, p_laplacian_radial,
    radial_curvature, sphere_volume, unit_sphere_volume, validate_warping,
)


def test_validate_warping_accepts_space_forms():
    assert validate_warping("r").ok
    assert validate_warping("sinh(r)").ok
    assert validate_warping("sin(r)", r_max=3.0).ok


def test_validate_warping_rejects_bad_slope():
    report = validate_warping("r^2")
    assert not report.ok
    assert any(cond == "w'(0) = 1" for cond, _, _ in report.violations)


def test_validate_warping_rejects_offset():
    report = validate_warping("exp(r)")
    assert not report.ok
    assert any(cond == "w(0) = 0" for cond, _, _ in report.violations)


def test_eta_examples():
    assert eta(ModelSpace.euclidean(3), 2.0) == pytest.approx(0.5, rel=1e-14)
    # independent oracle: cosh(1)/sinh(1)
    assert eta(ModelSpace.hyperbolic(2), 1.0) == pytest.approx(
        math.cosh(1.0) / math.sinh(1.0), rel=1e-13)
    assert eta(ModelSpace(2, parse("sin(r)")), math.pi / 2) == pytest.approx(0.0, abs=1e-15)


def test_radial_curvature_space_forms_constant_on_grid():
    grid = np.geomspace(0.05, 3.0, 100)
    for w, b in [("r", 0.0), ("sinh(r)", -1.0), ("sin(r)", 1.0)]:
        ms = ModelSpace(3, parse(w))
        ks = np.asarray(radial_curvature(ms, grid))
        assert np.max(np.abs(ks - b)) <= 1e-9


def test_sphere_volumes():
    assert sphere_volume(ModelSpace.euclidean(3), 1.0) == pytest.approx(4 * math.pi, rel=1e-13)
    assert sphere_volume(ModelSpace.euclidean(2), 2.0) == pytest.approx(4 * math.pi, rel=1e-13)
    assert sphere_volume(ModelSpace.hyperbolic(3), 1.0) == pytest.approx(
        4 * math.pi * math.sinh(1.0) ** 2, rel=1e-13)


def test_unit_sphere_volume_large_dimension_no_overflow():
    v = unit_sphere_volume(50)
    assert 0.0 < v < math.inf


def test_p_laplacian_harmonic_examples():
    assert p_laplacian_radial(ModelSpace.euclidean(2), "log(r)", 2.0, 3.0) == pytest.approx(0.0, abs=1e-14)
    assert p_laplacian_radial(ModelSpace.euclidean(3), "log(r)", 3.0, 2.0) == pytest.approx(0.0, abs=1e-14)
    assert p_laplacian_radial(ModelSpace.euclidean(3), "r", 2.0, 1.0) == pytest.approx(2.0, rel=1e-14)


def test_p_laplacian_degenerate_gradient_returns_zero():
    # exactly vanishing gradient (constant profile): continuous extension by 0
    assert p_laplacian_radial(ModelSpace.euclidean(3), "5", 2.5, 1.0) == 0.0
    # f'(pi/2) = cos(pi/2) is zero only up to rounding; the degenerate factor
    # still crushes the value
    assert p_laplacian_radial(
        ModelSpace.euclidean(3), "sin(r)", 3.0, math.pi / 2) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("m,p,w,profile", [
    (3, 2.0, "r", "-(1/r)"),
    (3, 3.0, "r", "log(r)"),
    (2, 2.0, "r", "log(r)"),
    (2, 2.0, "sinh(r)", "log(tanh(r/2))"),
    (3, 2.0, "sinh(r)", "-coth(r)"),
])
def test_exact_radial_profiles_are_p_harmonic(m, p, w, profile):
    # u'(r) = w**((1-m)/(p-1)) up to a constant, so |Delta_p u| ~ 0
    ms = ModelSpace(m, parse(w))
    grid = np.geomspace(0.5, 4.0, 64)
    vals = np.asarray(p_laplacian_radial(ms, profile, p, grid))
    assert np.max(np.abs(vals)) <= 1e-7


def test_exact_annulus_capacity_newtonian():
    cap = exact_annulus_p_capacity(ModelSpace.euclidean(3), 1.0, 2.0, 2.0)
    assert cap == pytest.approx(8 * math.pi, rel=1e-10)


def test_exact_annulus_capacity_plane():
    cap = exact_annulus_p_capacity(ModelSpace.euclidean(2), 1.0, math.e, 2.0)
    assert cap == pytest.approx(2 * math.pi, rel=1e-10)


def test_exact_annulus_capacity_p3():
    cap = exact_annulus_p_capacity(ModelSpace.euclidean(3), 1.0, 2.0, 3.0)
    assert cap == pytest.approx(4 * math.pi / math.log(2.0) ** 2, rel=1e-10)


def test_capacity_decreasing_in_R_and_positive():
    ms = ModelSpace.hyperbolic(3)
    caps = [exact_annulus_p_capacity(ms, 0.5, R, 2.5) for R in (1.0, 2.0, 4.0, 8.0)]
    assert all(c > 0 for c in caps)
    assert all(b < a for a, b in zip(caps, caps[1:]))


def test_eta_domain_error_at_warping_zero():
    with pytest.raises(DomainError):
        eta(ModelSpace(2, parse("r - 1")), 1.0)


@pytest.mark.parametrize("call, first_bad", [
    (lambda ms: exact_annulus_p_capacity(ms, 1.0, 2.0, 2.0), None),
    (lambda ms: eta(ms, np.array([1.0, 1.3, 0.5])), 1.3),
    (lambda ms: radial_curvature(ms, np.array([2.0, 1.3, 1.3])), 1.3),
    (lambda ms: sphere_volume(ms, np.array([1.0, -0.5, 0.0])), -0.5),
], ids=["exact_annulus_p_capacity", "eta", "radial_curvature", "sphere_volume"])
def test_domain_errors_report_the_first_offending_point(call, first_bad):
    # w = r - 1.3 vanishes at 1.3 and is negative below it
    with pytest.raises(DomainError) as info:
        call(ModelSpace(2, parse("r - 1.3")))
    r = info.value.r
    assert type(r) is float
    assert r < 1.3 if first_bad is None else r == first_bad
    assert str(info.value).endswith(f"at r={r!r}")


def test_model_space_rejects_bad_dimension():
    with pytest.raises(ValueError):
        ModelSpace(1, parse("r"))
