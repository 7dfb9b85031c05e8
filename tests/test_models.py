"""Oscillator model families, forces, and the reduced-frequency map."""

import json

import numpy as np
import pytest

from tdho.models import (
    CaldirolaKanai,
    ConstantForce,
    CosineForce,
    DomainError,
    ExpCosineForce,
    GeneralParametric,
    LoDampedPulsating,
    PolynomialForce,
    ReducedUnitMass,
    UnitMassSHO,
    evaluate_model,
    force_from_json,
    frequency_scale,
    lo_frequency_squared,
    model_from_json,
    reduced_frequency_squared,
)


def _fd2(fn, t, h=1e-5):
    return (fn(t + h) - 2.0 * fn(t) + fn(t - h)) / h**2


def _fd1(fn, t, h=1e-6):
    return (fn(t + h) - fn(t - h)) / (2.0 * h)


# ---------------------------------------------------------------------------
# model families
# ---------------------------------------------------------------------------

def test_unit_mass_sho_sample():
    m = UnitMassSHO(1.3, t_min=-1.0, t_max=10.0)
    s = evaluate_model(m, 2.0)
    assert s.M == 1.0 and s.dM == 0.0 and s.d2M == 0.0
    assert s.w2 == pytest.approx(1.69)
    assert s.F == 0.0


def test_caldirola_kanai_mass_derivatives_exact():
    m = CaldirolaKanai(1.2, 0.6, 1.0, t_min=-1.0, t_max=10.0)
    t = 1.7
    M = 1.2 * np.exp(0.6 * t)
    s = evaluate_model(m, t)
    assert s.M == pytest.approx(M, rel=1e-15)
    assert s.dM == pytest.approx(0.6 * M, rel=1e-15)
    assert s.d2M == pytest.approx(0.36 * M, rel=1e-15)
    assert s.w2 == 1.0


@pytest.mark.parametrize("t", [-0.5, 0.0, 1.3, 7.7])
def test_lo_mass_derivatives_match_finite_differences(t):
    m = LoDampedPulsating(1.0, 0.1, 0.2, 3.0, 1.0, t_min=-1.0, t_max=10.0)
    assert m.dmass(t) == pytest.approx(_fd1(m.mass, t), rel=1e-8)
    assert m.d2mass(t) == pytest.approx(_fd2(m.mass, t), rel=1e-5)


def test_domain_check():
    m = UnitMassSHO(1.0, t_min=0.0, t_max=5.0)
    m.check_domain(0.0)
    m.check_domain(5.0)
    with pytest.raises(DomainError):
        m.check_domain(5.1)
    with pytest.raises(DomainError):
        evaluate_model(m, -0.2)


# ---------------------------------------------------------------------------
# reduced frequency map
# ---------------------------------------------------------------------------

def test_reduced_frequency_ck_is_constant_closed_form():
    """gamma = 0.6, w1 = 1: the damped pair maps to w0^2 = 0.91."""
    m = CaldirolaKanai(1.0, 0.6, 1.0, t_min=-1.0, t_max=10.0)
    ts = np.linspace(-1.0, 10.0, 113)
    w02 = reduced_frequency_squared(m, ts)
    np.testing.assert_allclose(w02, 0.91, rtol=1e-15)


def test_reduced_frequency_lo_collapses_to_w_lo_squared():
    m = LoDampedPulsating(1.0, 0.1, 0.2, 3.0, 1.0, t_min=-1.0, t_max=10.0)
    ts = np.linspace(-1.0, 10.0, 113)
    np.testing.assert_allclose(reduced_frequency_squared(m, ts), 1.0, atol=5e-13)


def test_lo_frequency_squared_spot_value():
    # w_lo^2 + (gamma + mu nu cos nu t)^2 - mu nu^2 sin nu t at t = 0
    assert lo_frequency_squared(1.0, 0.1, 0.2, 3.0, 1.0, 0.0) == pytest.approx(1.49)


def test_lo_frequency_squared_matches_model_freq2():
    m = LoDampedPulsating(2.0, 0.15, 0.1, 2.0, 1.2, t_min=-1.0, t_max=10.0)
    ts = np.linspace(-1.0, 10.0, 57)
    np.testing.assert_allclose(
        m.freq2(ts), lo_frequency_squared(2.0, 0.15, 0.1, 2.0, 1.2, ts), rtol=1e-14
    )


def test_reduced_unit_mass_companion():
    base = CaldirolaKanai(1.0, 0.6, 1.0, t_min=-1.0, t_max=10.0,
                          force=CosineForce(1.0, 2.0))
    red = ReducedUnitMass(base)
    ts = np.linspace(-1.0, 10.0, 9)
    assert red.mass(3.0) == 1.0 and red.dmass(3.0) == 0.0
    np.testing.assert_allclose(red.freq2(ts), reduced_frequency_squared(base, ts))
    assert not red.has_driving  # the force does not cross the map


# ---------------------------------------------------------------------------
# forces
# ---------------------------------------------------------------------------

def test_forces_evaluate():
    t = np.linspace(0.0, 5.0, 11)
    np.testing.assert_allclose(ConstantForce(0.7)(t), 0.7)
    np.testing.assert_allclose(CosineForce(2.0, 3.0, 0.5)(t),
                               2.0 * np.cos(3.0 * t + 0.5))
    np.testing.assert_allclose(ExpCosineForce(1.0, 0.3, 1.0)(t),
                               np.exp(0.3 * t) * np.cos(t))
    np.testing.assert_allclose(PolynomialForce([1.0, -2.0, 0.5])(t),
                               1.0 - 2.0 * t + 0.5 * t**2)


def test_force_is_zero_and_has_driving():
    assert ConstantForce(0.0).is_zero
    assert not ConstantForce(0.1).is_zero
    assert PolynomialForce([0.0, 0.0]).is_zero
    m = UnitMassSHO(1.0, t_min=0.0, t_max=5.0, force=ConstantForce(0.0))
    assert not m.has_driving
    m = UnitMassSHO(1.0, t_min=0.0, t_max=5.0, force=CosineForce(1.0, 2.0))
    assert m.has_driving


def test_frequency_scale_sees_stiffest_term():
    # pulsating mass: |d2M/M| peaks near mu nu^2 + (gamma + mu nu)^2 scale
    m = LoDampedPulsating(1.0, 0.1, 0.2, 3.0, 1.0, t_min=-1.0, t_max=10.0)
    assert frequency_scale(m) > np.sqrt(0.2 * 9.0) * 0.8
    # driven: the force frequency enters the scale
    fast = UnitMassSHO(1.0, t_min=0.0, t_max=5.0, force=CosineForce(1.0, 25.0))
    assert frequency_scale(fast) >= 25.0


# ---------------------------------------------------------------------------
# tabulated models
# ---------------------------------------------------------------------------

def test_general_parametric_reproduces_ck_tables():
    ck = CaldirolaKanai(1.0, 0.6, 1.0, t_min=0.0, t_max=5.0)
    ts = np.linspace(0.0, 5.0, 401)
    gp = GeneralParametric(ts, ck.mass(ts), ck.dmass(ts), ck.d2mass(ts),
                           ck.freq2(ts))
    probe = np.linspace(0.2, 4.8, 37)
    np.testing.assert_allclose(gp.mass(probe), ck.mass(probe), rtol=1e-9)
    np.testing.assert_allclose(gp.dmass(probe), ck.dmass(probe), rtol=1e-9)
    np.testing.assert_allclose(
        reduced_frequency_squared(gp, probe), 0.91, atol=1e-7
    )


def test_general_parametric_warns_on_inconsistent_dM():
    ts = np.linspace(0.0, 5.0, 101)
    M = np.exp(0.3 * ts)
    with pytest.warns(UserWarning, match="dM/dt disagrees"):
        GeneralParametric(ts, M, np.ones_like(ts), 0.09 * M, np.ones_like(ts))


def test_general_parametric_rejects_nonpositive_mass():
    ts = np.linspace(0.0, 5.0, 10)
    with pytest.raises(ValueError):
        GeneralParametric(ts, ts - 2.0, np.ones_like(ts), np.zeros_like(ts),
                          np.ones_like(ts))


# ---------------------------------------------------------------------------
# JSON round trips
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model", [
    UnitMassSHO(1.3, t_min=-1.0, t_max=10.0),
    CaldirolaKanai(1.2, 0.6, 1.0, t_min=-1.0, t_max=10.0,
                   force=ExpCosineForce(1.0, 0.3, 1.0)),
    LoDampedPulsating(1.0, 0.1, 0.2, 3.0, 1.0, t_min=-1.0, t_max=10.0,
                      force=CosineForce(1.0, 2.0, 0.1)),
])
def test_model_json_round_trip(model):
    doc = json.loads(json.dumps(model.to_json()))
    clone = model_from_json(doc)
    ts = np.linspace(model.t_min, model.t_max, 23)
    s0 = evaluate_model(model, 1.5)
    s1 = evaluate_model(clone, 1.5)
    assert s0 == s1
    np.testing.assert_allclose(clone.freq2(ts), model.freq2(ts), rtol=1e-15)
    assert clone.has_driving == model.has_driving


def test_force_json_round_trip():
    for f in (ConstantForce(0.7), CosineForce(2.0, 3.0, 0.5),
              ExpCosineForce(1.0, 0.3, 1.0, 0.2), PolynomialForce([1.0, -2.0])):
        clone = force_from_json(json.loads(json.dumps(f.to_json())))
        t = np.linspace(0.0, 4.0, 17)
        np.testing.assert_allclose(clone(t), f(t), rtol=1e-15)
    assert force_from_json(None) is None


def test_model_from_json_rejects_unknown_family():
    with pytest.raises(ValueError):
        model_from_json({"family": "NoSuchFamily", "params": {},
                         "t_min": 0.0, "t_max": 1.0})
