import math

import numpy as np
import pytest

from radialcap.errors import DomainError, RadialCapError
from radialcap.expr import parse
from radialcap.model import (
    ModelSpace, exact_annulus_p_capacity, sphere_volume, unit_sphere_volume, validate_warping,
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


def test_validate_warping_reports_a_nonpositive_and_an_unevaluable_warping():
    report = validate_warping("r - 1", r_max=3.0)
    assert not report.ok
    assert any(cond == "w > 0 on (0, r_max]" for cond, _, _ in report.violations)
    report = validate_warping("sqrt(r - 1)", r_max=3.0)
    assert not report.ok
    assert [cond for cond, _, _ in report.violations] == ["w evaluable on (0, r_max]"]
    with pytest.raises(TypeError, match=r"read \.ok"):
        bool(report)


def test_sphere_volumes():
    assert sphere_volume(ModelSpace.euclidean(3), 1.0) == pytest.approx(4 * math.pi, rel=1e-13)
    assert sphere_volume(ModelSpace.euclidean(2), 2.0) == pytest.approx(4 * math.pi, rel=1e-13)
    assert sphere_volume(ModelSpace.hyperbolic(3), 1.0) == pytest.approx(
        4 * math.pi * math.sinh(1.0) ** 2, rel=1e-13)


@pytest.mark.parametrize("r", [math.inf, math.nan, np.array([1.0, math.inf])],
                         ids=["inf", "nan", "array"])
def test_sphere_volume_needs_a_finite_radius(r):
    # inf returned inf with no error, and nan said "evaluation produced NaN"
    with pytest.raises(DomainError, match="^radius must be finite at r="):
        sphere_volume(ModelSpace.euclidean(3), r)


def test_unit_sphere_volume_large_dimension_no_overflow():
    v = unit_sphere_volume(50)
    assert 0.0 < v < math.inf


@pytest.mark.parametrize("m, text", [(math.nan, "dimension must be finite, got nan"),
                                     (1, "dimension must be >= 2, got 1"),
                                     (3.0, "dimension must be an integer, got 3.0")])
def test_unit_sphere_volume_applies_the_dimension_rule(m, text):
    # nan returned nan
    with pytest.raises(ValueError, match=f"^{text}$"):
        unit_sphere_volume(m)
    assert unit_sphere_volume(np.int64(3)) == pytest.approx(4 * math.pi, rel=1e-15)


def test_exact_annulus_capacity_newtonian():
    cap = exact_annulus_p_capacity(ModelSpace.euclidean(3), 1.0, 2.0, 2.0)
    assert cap == pytest.approx(8 * math.pi, rel=1e-10)


def test_exact_annulus_capacity_plane():
    cap = exact_annulus_p_capacity(ModelSpace.euclidean(2), 1.0, math.e, 2.0)
    assert cap == pytest.approx(2 * math.pi, rel=1e-10)


def test_exact_annulus_capacity_p3():
    cap = exact_annulus_p_capacity(ModelSpace.euclidean(3), 1.0, 2.0, 3.0)
    assert cap == pytest.approx(4 * math.pi / math.log(2.0) ** 2, rel=1e-10)


def test_exact_annulus_capacity_past_float_range_names_itself():
    # the integral over [1, 2] is 1/2, so its power 1 - p overflows
    with pytest.raises(RadialCapError, match=r"exact annulus p-capacity overflows .*p=1e\+308"):
        exact_annulus_p_capacity(ModelSpace.euclidean(3), 1.0, 2.0, 1e308)


def test_capacity_decreasing_in_R_and_positive():
    ms = ModelSpace.hyperbolic(3)
    caps = [exact_annulus_p_capacity(ms, 0.5, R, 2.5) for R in (1.0, 2.0, 4.0, 8.0)]
    assert all(c > 0 for c in caps)
    assert all(b < a for a, b in zip(caps, caps[1:]))


@pytest.mark.parametrize("call, first_bad", [
    (lambda ms: exact_annulus_p_capacity(ms, 1.0, 2.0, 2.0), None),
    (lambda ms: sphere_volume(ms, np.array([1.0, -0.5, 0.0])), -0.5),
], ids=["exact_annulus_p_capacity", "sphere_volume"])
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
