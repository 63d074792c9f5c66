import gc
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import radialcap.constellation as constellation
import radialcap.dirichlet as dirichlet
from radialcap.criteria import classify
from radialcap.errors import ConfigError, DomainError
from radialcap.expr import evaluate
from radialcap.constellation import (
    Constellation, Tangency, WeightFunction, _balance_terms, _eta, balance, balance_sign,
)
from radialcap.model import ModelSpace
from radialcap.quadrature import integrate


def euclid_self(m, tangency=Tangency.LOWER):
    return Constellation.self_model(ModelSpace.euclidean(m), tangency)


def hyperbolic_self(m, tangency=Tangency.LOWER):
    return Constellation.self_model(ModelSpace.hyperbolic(m), tangency)


def test_balance_euclidean_self():
    assert balance(euclid_self(3), 2.0, 1.0) == pytest.approx(3.0, rel=1e-14)


def test_balance_cancellation_with_matching_h():
    c = Constellation.from_functions(2, 2, "r", h="1/r")
    assert balance(c, 2.0, 2.0) == pytest.approx(0.0, abs=1e-15)


def test_balance_p2_is_lam_independent():
    rs = np.geomspace(0.2, 8.0, 33)
    base = Constellation.from_functions(3, 2, "sinh(r)", h="1/(1+r)", lam="0")
    crazy = Constellation.from_functions(3, 2, "sinh(r)", h="1/(1+r)", lam="exp(r)*coth(r)")
    b1 = np.asarray(balance(base, 2.0, rs))
    b2 = np.asarray(balance(crazy, 2.0, rs))
    assert np.array_equal(b1, b2)
    # and the p=2 reduction m*(eta - h) holds
    eta = np.cosh(rs) / np.sinh(rs)
    expect = 2.0 * (eta - 1.0 / (1.0 + rs))
    assert np.max(np.abs(b1 - expect)) <= 1e-12 * np.max(1.0 + np.abs(expect))


def test_balance_sign_euclidean_nonnegative():
    for p in (2.0, 3.0, 5.5):
        prof = balance_sign(euclid_self(3), p, (0.01, 100.0))
        assert prof.sign_summary == "non_negative"
        assert prof.is_non_negative


def test_balance_sign_constant_negative():
    # w = exp(r) fails warping validity but is usable on an annulus;
    # balance = 3*1 - 2*2 - 1*2 = -3
    c = Constellation.from_functions(2, 2, "exp(r)", h="2", lam="2")
    prof = balance_sign(c, 3.0, (1.0, 50.0))
    assert prof.sign_summary == "non_positive"
    assert np.max(np.abs(prof.values + 3.0)) <= 1e-12


def test_balance_sign_mixed_with_witness():
    c = Constellation.from_functions(2, 2, "r", h="1")
    prof = balance_sign(c, 2.0, (0.1, 10.0), grid_size=512)
    assert prof.sign_summary == "mixed"
    assert len(prof.witnesses) >= 1
    assert prof.witnesses[0] == pytest.approx(1.0, rel=0.05)


def _witnesses_by_pairwise_walk(prof):
    """The first five sign changes among nonzero samples, found pair by pair."""
    sign = np.where(prof.values > prof.zero_tol, 1, np.where(prof.values < -prof.zero_tol, -1, 0))
    witnesses = []
    nonzero = np.nonzero(sign)[0]
    for a, b in zip(nonzero, nonzero[1:]):
        if sign[a] != sign[b]:
            witnesses.append(float(np.sqrt(prof.rs[a] * prof.rs[b])))
            if len(witnesses) >= 5:
                break
    return tuple(witnesses)


@pytest.mark.parametrize("interval", [(0.1, 20.0), (2.0, 8.0), (0.1, 5.0), (3.0, 4.0)])
def test_balance_sign_witnesses_match_the_pairwise_walk(interval):
    # balance = 2 sin(r) (|sin 3r| - sin 3r): exactly zero wherever
    # sin 3r >= 0, with both signs in between
    c = Constellation.from_functions(2, 2, "r", h="1/r - sin(r)*(abs(sin(3*r)) - sin(3*r))")
    prof = balance_sign(c, 2.0, interval)
    assert np.any(np.abs(prof.values) <= prof.zero_tol)
    assert prof.witnesses == _witnesses_by_pairwise_walk(prof)
    assert all(type(w) is float for w in prof.witnesses)


def test_balance_sign_identically_zero_counts_both_ways():
    c = Constellation.from_functions(2, 2, "sinh(r)", h="coth(r)", lam="coth(r)",
                                     tangency=Tangency.UPPER)
    prof = balance_sign(c, 2.0, (0.1, 100.0))
    assert prof.is_non_negative and prof.is_non_positive


@pytest.mark.parametrize("interval, grid_size, text", [
    ((0.1, 10.0), 0, "grid_size must be >= 2, got 0"),
    ((0.1, 10.0), 1, "grid_size must be >= 2, got 1"),
    ((0.1, 10.0), 2.5, "grid_size must be an integer, got 2.5"),
    ((0.0, 1.0), 512, "lo must be > 0, got 0.0"),
    ((2.0, 1.0), 512, r"hi must be >= lo \(2.0\), got 1.0")])
def test_balance_sign_names_the_input_it_rejects(interval, grid_size, text):
    # 0 and 1 points certified a sign, and 2.5 was a TypeError from np.linspace
    with pytest.raises(ValueError, match=f"^{text}$"):
        balance_sign(euclid_self(3), 3.0, interval, grid_size)
    assert len(balance_sign(euclid_self(3), 3.0, (0.1, 10.0), 2).rs) == 2


def test_lambda_weight_euclidean_m3():
    # balance/(p-1) = 3/t, so the weight is r * exp(-3 log r) = r**-2
    c = euclid_self(3)
    for r in (1.0, 1.7, 4.0, 25.0):
        assert WeightFunction(c, 2.0, 1.0)(r) == pytest.approx(r ** -2, rel=1e-10)


def test_lambda_weight_euclidean_m2():
    c = euclid_self(2)
    for r in (1.0, 3.0, 10.0):
        assert WeightFunction(c, 2.0, 1.0)(r) == pytest.approx(1.0 / r, rel=1e-10)


def test_lambda_weight_at_base_is_w_exactly():
    c = hyperbolic_self(3)
    # empty inner integral: the weight IS the w evaluation, bit for bit
    assert WeightFunction(c, 3.5, 0.7)(0.7) == evaluate(c.model.w, 0.7)


def test_weight_upper_tangency_matches_g_equal_1():
    """The upper-tangency weight is the g == 1 case of the lower one."""
    kwargs = dict(w="sinh(r)", h="coth(r)", lam="2*coth(r)")
    lower = Constellation.from_functions(3, 3, g="1", tangency=Tangency.LOWER, **kwargs)
    upper = Constellation.from_functions(3, 3, g="0.5", tangency=Tangency.UPPER, **kwargs)
    rs = np.geomspace(1.0, 40.0, 100)
    wl = WeightFunction(lower, 3.0, 1.0)(rs)
    wu = WeightFunction(upper, 3.0, 1.0)(rs)
    assert np.max(np.abs(wl - wu) / np.abs(wl)) <= 1e-12


def test_weight_rebasing_constant_factor():
    c = Constellation.from_functions(3, 3, "sinh(r)", h="1/(1+r^2)")
    w1 = WeightFunction(c, 2.5, 1.0)
    w2 = WeightFunction(c, 2.5, 2.0)
    rs = np.geomspace(2.0, 30.0, 50)
    ratio = w1(rs) / w2(rs)
    assert np.max(np.abs(ratio - ratio[0])) <= 1e-12 * abs(ratio[0])
    assert ratio[0] > 0


def test_weight_cache_order_independent():
    c = hyperbolic_self(2)
    wf_a = WeightFunction(c, 2.0, 1.0)
    wf_b = WeightFunction(c, 2.0, 1.0)
    rs = np.geomspace(1.0, 64.0, 41)
    vals_batch = wf_a(rs)
    vals_single = np.array([wf_b(float(r)) for r in rs[::-1]])[::-1]
    assert np.max(np.abs(vals_batch - vals_single)) <= 1e-12 * np.max(np.abs(vals_batch))


def test_weight_with_a_remainder_accepts_2d_queries():
    c = Constellation.from_functions(4, 3, "r", g="0.8", h="0.1/(1+r)")
    grid = WeightFunction(c, 3.0, 1.0)(np.array([[2.0, 3.0]]))
    flat = WeightFunction(c, 3.0, 1.0)(np.array([2.0, 3.0]))
    assert grid.shape == (1, 2)
    assert np.array_equal(grid.ravel(), flat)


def _pointwise_balance_terms(c, p, r, eta):
    """``_balance_terms`` with h and lam evaluated at every point, constants
    too: the reference for reading a constant as its number."""
    t1 = (c.m + p - 2.0) * eta
    t2 = c.m * evaluate(c.h, r)
    if p == 2.0:
        return t1 - t2, np.abs(t1) + np.abs(t2)
    t3 = (p - 2.0) * evaluate(c.lam, r)
    return t1 - t2 - t3, np.abs(t1) + np.abs(t2) + np.abs(t3)


def _bits(x):
    """x's type, shape and bytes: equal exactly when x is the same bit for bit."""
    return type(x), np.shape(x), np.asarray(x).tobytes()


# "exp(1000)" is the constant inf
CONSTANTS = ["0", "-0", "0.25", "3", "-2.5", "-100", "exp(1000)"]


@settings(max_examples=120, deadline=None)
@given(w=st.sampled_from(["r", "sinh(r)"]), g=st.sampled_from(["1", "0.8", "1/(1+r)"]),
       h=st.sampled_from(CONSTANTS), lam=st.sampled_from(CONSTANTS),
       p=st.one_of(st.just(2.0), st.floats(2.0, 8.0)),
       radii=st.lists(st.floats(0.5, 50.0), min_size=1, max_size=12))
def test_constant_h_and_lam_give_the_pointwise_floats(w, g, h, lam, p, radii):
    c = Constellation.from_functions(3, 2, w, g=g, lam=lam, h=h)
    rs = np.array(radii)

    def answers():
        prof = balance_sign(c, p, (0.5, 50.0), 64)
        wf = WeightFunction(c, p, 0.5)
        return [_bits(x) for x in (
            balance(c, p, rs), balance(c, p, radii[0]), prof.values, prof.zero_tol,
            prof.witnesses, dirichlet.drift_coeff(c, p, rs),
            dirichlet.drift_coeff(c, p, radii[0]), wf.integrand(rs),
            wf.integrand(radii[0]), wf.integrand(rs.reshape(1, -1)))]

    got = answers()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(constellation, "_balance_terms", _pointwise_balance_terms)
        mp.setattr(dirichlet, "_balance_terms", _pointwise_balance_terms)
        want = answers()
    assert got == want
    # the integrand keeps its input's shape, also when all its data are constants
    assert got[-3][1] == rs.shape and got[-1][1] == (1, len(rs))


def test_constant_data_remainder_is_meshed_as_an_array():
    # constant g and a constant nonzero h leave a constant remainder integrand,
    # 200 at p = 2, which the mesh must still sample as an array
    c = Constellation.from_functions(2, 2, "r", h="-100")
    wf = WeightFunction(c, 2.0, 1.0)
    rs = np.array([[1.0, 1.5], [2.0, 3.0]])
    assert wf.integrand(rs).shape == rs.shape
    assert wf.inner_integral(rs) == pytest.approx(2.0 * np.log(rs) + 200.0 * (rs - 1.0),
                                                  rel=1e-13)


def test_weight_dominates_w_when_balance_nonpositive():
    # balance = -3 < 0 everywhere on the annulus (exp-warping example)
    c = Constellation.from_functions(2, 2, "exp(r)", h="2", lam="2",
                                     tangency=Tangency.UPPER)
    wf = WeightFunction(c, 3.0, 1.0)
    rs = np.geomspace(1.0, 30.0, 40)
    assert np.all(wf(rs) >= np.exp(rs) * (1.0 - 1e-13))


def test_weight_g_floor_raises():
    c = Constellation.from_functions(3, 3, "r", g="0.000000001")
    with pytest.raises(DomainError):
        WeightFunction(c, 3.0, 1.0)(2.0)


def test_weight_rejects_queries_below_base():
    c = euclid_self(2)
    with pytest.raises(ValueError):
        WeightFunction(c, 2.0, 1.0)(0.5)


def balance_shift_identity_check(c: Constellation, p: float, q: float, grid) -> float:
    """Max relative deviation over the grid of the shift identity

        balance_p(r) - balance_q(r) == (p - q) * (w'/w - lam)(r)

    Relative means measured against ``1 + |balance_p| + |balance_q|``.
    """
    rs = np.asarray(grid, dtype=float)
    eta = _eta(c, rs)
    bp, _ = _balance_terms(c, p, rs, eta)
    bq, _ = _balance_terms(c, q, rs, eta)
    # evaluate the p=2 lam term explicitly for the identity even though
    # balance() elides it: the elision is exactly a zero coefficient
    dev = np.abs(bp - bq - (p - q) * (eta - evaluate(c.lam, rs)))
    rel = dev / (1.0 + np.abs(bp) + np.abs(bq))
    return float(np.max(rel))


def test_shift_identity_trivial_and_exact():
    grid = np.geomspace(0.5, 20.0, 10)
    c = euclid_self(3)
    assert balance_shift_identity_check(c, 3.0, 3.0, grid) == 0.0
    assert balance_shift_identity_check(c, 4.0, 2.0, grid) <= 1e-12


def test_shift_identity_hyperbolic():
    c = Constellation.from_functions(2, 2, "sinh(r)", lam="coth(r)")
    grid = np.geomspace(0.5, 10.0, 10)
    assert balance_shift_identity_check(c, 3.0, 2.0, grid) <= 1e-12


def test_upper_tangency_forces_g_to_one():
    c = Constellation.from_functions(2, 2, "r", g="0.3", tangency="upper")
    assert str(c.g) == "1"


@pytest.mark.parametrize("tangency", [None, 5, True, "side"], ids=repr)
def test_tangency_is_lower_upper_or_a_member(tangency):
    # None, 5 and True built a constellation that classify read as upper
    # tangency with g left at 0.5; "side" was the enum's bare ValueError
    with pytest.raises(ConfigError, match=f"^tangency must be 'lower' or 'upper', "
                                          f"got {re.escape(repr(tangency))}$"):
        Constellation.from_functions(3, 3, "r", g="0.5", h="0.5/r", tangency=tangency)


def test_self_model_detection():
    assert euclid_self(3).is_self_model()
    assert not Constellation.from_functions(3, 3, "r", h="0.1").is_self_model()
    assert Constellation.from_functions(3, 3, "r", h="0.0").is_self_model()


def test_constellation_validates_dimensions():
    with pytest.raises(ValueError):
        Constellation.from_functions(2, 3, "r")
    with pytest.raises(ValueError, match="^model dimension 2 != m=3$"):
        Constellation(n=3, m=3, model=ModelSpace(2, "r"), g="1", lam="0", h="0",
                      tangency="lower")


def lower_family(m=3, w="r + 0.3*r^2"):
    """A constellation of the criterion-04 lower-tangency family."""
    return Constellation.from_functions(m + 1, m, w, g="0.8", h="0.150/(1 + r)",
                                        lam="0.100/(1 + r)")


def coth_dominated():
    """Balance identically zero: h = lam = coth cancel (m + p - 2) w'/w."""
    return Constellation.from_functions(3, 2, "sinh(r)", lam="coth(r)", h="coth(r)",
                                        tangency=Tangency.UPPER)


SPLIT_CASES = {
    "euclid3": lambda: euclid_self(3),
    "hyperbolic2": lambda: hyperbolic_self(2),
    "lower_polynomial": lambda: lower_family(),
    "lower_sinh": lambda: lower_family(2, "sinh(r)"),
    "coth_dominated": coth_dominated,
}


@pytest.mark.parametrize("p", [2.0, 3.5])
@pytest.mark.parametrize("name", sorted(SPLIT_CASES))
def test_inner_integral_split_matches_direct_quadrature(name, p):
    """kappa log(w(r)/w(rho)) + R(r) against one quadrature of the whole
    balance/((p-1) g0^2), to 1e-12 relative.  In coth_dominated the terms
    cancel and I is exactly 0, which a quadrature of rounding noise cannot
    reach to a relative tolerance, so there the value is compared with 0,
    to 1e-12 of the integral of the terms' magnitudes."""
    c = SPLIT_CASES[name]()
    g0 = c.g.constant
    rho = 0.7
    wf = WeightFunction(c, p, rho)
    for r in np.geomspace(1.05 * rho, 40.0, 9):
        got = wf.inner_integral(float(r))
        if name == "coth_dominated":
            scale, _ = integrate(lambda t: _balance_terms(c, p, t, _eta(c, t))[1]
                                 / ((p - 1.0) * g0 * g0), rho, r, rel_tol=1e-13)
            assert abs(got) <= 1e-12 * scale
        else:
            want, _ = integrate(lambda t: balance(c, p, t) / ((p - 1.0) * g0 * g0), rho, r,
                                rel_tol=1e-13)
            assert abs(got - want) <= 1e-12 * abs(want)


def test_coth_dominated_weight_is_the_warping():
    # W = w(r) exp(-kappa log(w(r)/w(rho)) - R(r)) with R = -kappa log(...):
    # the sign of R is what makes W = sinh (the remainder has rel_tol 1e-10)
    rs = np.geomspace(1.0, 40.0, 30)
    for p in (2.0, 3.0, 8.0):
        wf = WeightFunction(coth_dominated(), p, 1.0)
        assert np.max(np.abs(wf(rs) / np.sinh(rs) - 1.0)) <= 1e-11


@pytest.mark.parametrize("c", [euclid_self(2), euclid_self(5), hyperbolic_self(3),
                               hyperbolic_self(2, Tangency.UPPER)])
def test_self_model_weight_runs_no_quadrature(monkeypatch, c):
    def fail(*args, **kwargs):
        raise AssertionError("the remainder integrand was evaluated")

    monkeypatch.setattr(WeightFunction, "integrand", fail)
    monkeypatch.setattr(constellation, "CumulativeCache", fail)
    for p in (2.0, 3.0, 6.5):
        wf = WeightFunction(c, p, 0.8)
        assert np.all(np.isfinite(wf(np.geomspace(0.8, 300.0, 50))))
        assert wf(0.8) == evaluate(c.model.w, 0.8)
    assert classify(c, 3.0, 1.0).outcome in ("p_parabolic", "inconclusive")


def test_p2_lam_free_weight_runs_no_quadrature_and_matches_lam_zero(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a quadrature ran")

    monkeypatch.setattr(WeightFunction, "integrand", fail)
    monkeypatch.setattr(constellation, "CumulativeCache", fail)
    rs = np.geomspace(1.0, 50.0, 41)
    for g, tangency in (("0.8", Tangency.LOWER), ("1", Tangency.UPPER)):
        with_lam = Constellation.from_functions(3, 2, "sinh(r)", g=g, lam="exp(r)*coth(r)",
                                                tangency=tangency)
        without = Constellation.from_functions(3, 2, "sinh(r)", g=g, lam="0",
                                               tangency=tangency)
        a = WeightFunction(with_lam, 2.0, 1.0)
        b = WeightFunction(without, 2.0, 1.0)
        assert np.array_equal(a(rs), b(rs))
        assert a(3.0) == b(3.0)


def test_weight_with_remainder_is_freed_without_the_cycle_collector():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        wf = WeightFunction(lower_family(), 3.0, 1.0)
        assert wf._cache is not None
        wf(np.geomspace(1.0, 10.0, 9))
        ref = weakref.ref(wf)
        del wf
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


def test_weight_reports_vanishing_and_overflowing_warping():
    # w = r - 1.3 changes sign inside [1, 2]: w'/w has a pole there
    with pytest.raises(DomainError, match="warping function vanishes"):
        WeightFunction(Constellation.from_functions(2, 2, "r - 1.3"), 3.0, 1.0)(2.0)
    # a numpy scalar radius is named as a float
    with pytest.raises(DomainError, match=r"^warping function vanishes at r=2.0$"):
        WeightFunction(Constellation.from_functions(2, 2, "r - 1.3"), 3.0, 1.0)(np.float64(2.0))
    # sinh overflows past r ~ 710: an error, never a NaN weight
    with pytest.raises(DomainError, match="warping function overflows") as exc:
        WeightFunction(hyperbolic_self(3), 3.0, 1.0)(np.array([2.0, 700.0, 800.0]))
    assert exc.value.r == 800.0
