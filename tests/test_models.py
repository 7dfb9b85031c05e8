"""Oscillator model families, forces, and the reduced-frequency map."""

import json
import time

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from tdho.classical import ReducedBasis, solve_homogeneous
from tdho.models import (
    CaldirolaKanai,
    ConstantForce,
    CosineForce,
    DomainError,
    ExpCosineForce,
    GeneralParametric,
    LoDampedPulsating,
    OscillatorModel,
    PolynomialForce,
    ReducedUnitMass,
    force_from_json,
    frequency_scale,
    model_from_json,
    reduced_frequency_squared,
)
from tdho.transforms import _U0_coefficients
from tdho.verify import check_omega_constancy


def _fd2(fn, t, h=1e-5):
    return (fn(t + h) - 2.0 * fn(t) + fn(t - h)) / h**2


def _fd1(fn, t, h=1e-6):
    return (fn(t + h) - fn(t - h)) / (2.0 * h)


# ---------------------------------------------------------------------------
# model families
# ---------------------------------------------------------------------------

def test_unit_mass_sho_sample():
    m = CaldirolaKanai(1.0, 0.0, 1.3, t_min=-1.0, t_max=10.0)
    assert m.mass(2.0) == 1.0 and m.dmass(2.0) == 0.0 and m.d2mass(2.0) == 0.0
    assert m.freq2(2.0) == pytest.approx(1.69)
    assert m.force_at(2.0) == 0.0


def test_caldirola_kanai_mass_derivatives_exact():
    m = CaldirolaKanai(1.2, 0.6, 1.0, t_min=-1.0, t_max=10.0)
    t = 1.7
    M = 1.2 * np.exp(0.6 * t)
    assert m.mass(t) == pytest.approx(M, rel=1e-15)
    assert m.dmass(t) == pytest.approx(0.6 * M, rel=1e-15)
    assert m.d2mass(t) == pytest.approx(0.36 * M, rel=1e-15)
    assert m.freq2(t) == 1.0


@pytest.mark.parametrize("t", [-0.5, 0.0, 1.3, 7.7])
def test_lo_mass_derivatives_match_finite_differences(t):
    m = LoDampedPulsating(1.0, 0.1, 0.2, 3.0, 1.0, t_min=-1.0, t_max=10.0)
    assert m.dmass(t) == pytest.approx(_fd1(m.mass, t), rel=1e-8)
    assert m.d2mass(t) == pytest.approx(_fd2(m.mass, t), rel=1e-5)


def test_domain_check():
    m = CaldirolaKanai(1.0, 0.0, 1.0, t_min=0.0, t_max=5.0)
    m.check_domain(0.0)
    m.check_domain(5.0)
    with pytest.raises(DomainError):
        m.check_domain(5.1)
    with pytest.raises(DomainError):
        m.check_domain(np.array([1.0, -0.2]))


def _refused(model, t) -> bool:
    try:
        model.check_domain(t)
    except DomainError:
        return True
    return False


@pytest.mark.parametrize("t_min, t_max", [(0.0, 5.0), (-1.0, 12.0), (-3e5, -2e5)])
def test_domain_check_of_a_float_is_the_array_verdict(t_min, t_max):
    """A float time (Python or numpy) takes the scalar path; its verdict is
    the array path's for every input: on each side of both slack edges,
    inside, far outside, NaN and the infinities (all three refused)."""
    m = CaldirolaKanai(1.0, 0.0, 1.0, t_min=t_min, t_max=t_max)
    eps = 1e-12 * max(abs(t_min), abs(t_max), 1.0)
    edges = (t_min - eps, t_max + eps)
    probes = [np.nextafter(e, d) for e in edges for d in (-np.inf, np.inf)]
    probes += [*edges, t_min, t_max, 0.5 * (t_min + t_max), 2.0 * t_max - t_min,
               np.nan, np.inf, -np.inf]
    verdicts = {}
    for t in probes:
        array = _refused(m, np.array([t]))
        assert _refused(m, float(t)) == array == _refused(m, np.float64(t)), t
        verdicts[float(t)] = array
    lo, hi = edges
    assert not verdicts[lo] and not verdicts[hi]
    assert verdicts[float(np.nextafter(lo, -np.inf))]
    assert verdicts[float(np.nextafter(hi, np.inf))]
    assert _refused(m, np.nan) and verdicts[np.inf] and verdicts[-np.inf]


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
    m = LoDampedPulsating(1.0, 0.1, 0.2, 3.0, 1.0, t_min=-1.0, t_max=10.0)
    assert m.freq2(0.0) == pytest.approx(1.49)


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
    m = CaldirolaKanai(1.0, 0.0, 1.0, t_min=0.0, t_max=5.0, force=ConstantForce(0.0))
    assert not m.has_driving
    m = CaldirolaKanai(1.0, 0.0, 1.0, t_min=0.0, t_max=5.0, force=CosineForce(1.0, 2.0))
    assert m.has_driving


def test_frequency_scale_sees_stiffest_term():
    # pulsating mass: |d2M/M| peaks near mu nu^2 + (gamma + mu nu)^2 scale
    m = LoDampedPulsating(1.0, 0.1, 0.2, 3.0, 1.0, t_min=-1.0, t_max=10.0)
    assert frequency_scale(m) > np.sqrt(0.2 * 9.0) * 0.8
    # driven: the force frequency enters the scale
    fast = CaldirolaKanai(1.0, 0.0, 1.0, t_min=0.0, t_max=5.0, force=CosineForce(1.0, 25.0))
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


def _sine_table(ts):
    """The exact table of M = 1 + 0.3 sin t, w^2 = 1 + 0.1 cos t."""
    return (ts, 1.0 + 0.3 * np.sin(ts), 0.3 * np.cos(ts), -0.3 * np.sin(ts),
            1.0 + 0.1 * np.cos(ts))


def _clashing_table(ts):
    """M = e^{0.3 t} with a dM (and d2M) table that is not its derivative."""
    M = np.exp(0.3 * ts)
    return ts, M, np.ones_like(ts), 0.09 * M, np.ones_like(ts)


@pytest.mark.parametrize("nodes", [4, 5, 9, 64])
def test_freq2_is_scipys_not_a_knot_spline(rng, nodes):
    """w^2 is scipy's default CubicSpline, on random non-uniform nodes."""
    for _ in range(20):
        ts = rng.uniform(-2.0, 2.0) + np.cumsum(rng.uniform(0.2, 1.0, nodes))
        w2 = rng.uniform(0.5, 2.0, nodes)
        gp = GeneralParametric(ts, np.ones(nodes), np.zeros(nodes), np.zeros(nodes), w2)
        probe = np.concatenate([ts, rng.uniform(ts[0], ts[-1], 64)])
        want = CubicSpline(ts, w2)(probe)
        assert np.max(np.abs(gp.freq2(probe) - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("table", [_sine_table, _clashing_table], ids=["exact", "clashing"])
def test_general_parametric_reproduces_its_tables_at_the_nodes(table):
    """Every node, the last one too, returns its table entries exactly, as
    arrays and as floats, and the JSON document carries the tables."""
    ts, *values = table(np.linspace(0.0, 6.0, 13))
    gp = GeneralParametric(ts, *values)
    for fn, want in zip((gp.mass, gp.dmass, gp.d2mass, gp.freq2), values):
        assert np.array_equal(fn(ts), want)
        assert [fn(float(t)) for t in ts] == want.tolist()
        assert type(fn(1.0)) is float
    assert gp.params() == {k: v.tolist() for k, v in
                           zip(("t", "M", "dM", "d2M", "w2"), (ts, *values))}


def _richardson(fn, t, h=1e-3):
    central = [(fn(t + d) - fn(t - d)) / (2.0 * d) for d in (h, h / 2)]
    return (4.0 * central[1] - central[0]) / 3.0


@pytest.mark.parametrize("table", [_sine_table, _clashing_table], ids=["exact", "clashing"])
def test_mass_derivatives_are_derivatives_of_mass(table):
    """dmass is the derivative of mass, and d2mass that of dmass, between
    the nodes, whether or not the tabulated dM and d2M agree with M: the
    model is one Hamiltonian."""
    gp = GeneralParametric(*table(np.linspace(0.0, 6.0, 13)))
    probe = np.linspace(0.0, 6.0, 13)[:-1] + np.array([0.11, 0.25, 0.37])[:, None]
    np.testing.assert_allclose(gp.dmass(probe), _richardson(gp.mass, probe), atol=1e-9)
    np.testing.assert_allclose(gp.d2mass(probe), _richardson(gp.dmass, probe), atol=1e-9)


def test_general_parametric_builds_a_long_table_in_linear_time():
    """20 001 nodes build in well under a second: the spline's slopes come
    from a tridiagonal solve (a dense one would need 3.2 GB)."""
    start = time.process_time()
    gp = GeneralParametric(*_sine_table(np.linspace(0.0, 200.0, 20001)))
    assert time.process_time() - start < 0.5
    assert gp.freq2(100.005) == pytest.approx(1.0 + 0.1 * np.cos(100.005), abs=1e-10)


@pytest.mark.parametrize("change,message", [
    (lambda ts, M, dM, d2M, w2: (ts, M, dM, d2M, w2[:-1]), "w2 has 12 values for 13"),
    (lambda ts, M, dM, d2M, w2: (ts[::-1], M, dM, d2M, w2), "strictly increasing"),
    (lambda ts, M, dM, d2M, w2: (np.where(ts == 3.0, 2.5, ts), M, dM, d2M, w2),
     "strictly increasing"),
    (lambda ts, M, dM, d2M, w2: (ts[:3], M[:3], dM[:3], d2M[:3], w2[:3]),
     "at least 4 time nodes"),
    (lambda ts, M, dM, d2M, w2: (ts, ts - 2.0, dM, d2M, w2), "M must be positive"),
], ids=["short_w2", "reversed", "repeated_node", "three_nodes", "nonpositive_M"])
def test_general_parametric_rejects_malformed_table(change, message):
    with pytest.raises(ValueError, match=message):
        GeneralParametric(*change(*_sine_table(np.linspace(0.0, 6.0, 13))))


# ---------------------------------------------------------------------------
# JSON round trips
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model", [
    CaldirolaKanai(1.0, 0.0, 1.3, t_min=-1.0, t_max=10.0),
    CaldirolaKanai(1.2, 0.6, 1.0, t_min=-1.0, t_max=10.0,
                   force=ExpCosineForce(1.0, 0.3, 1.0)),
    LoDampedPulsating(1.0, 0.1, 0.2, 3.0, 1.0, t_min=-1.0, t_max=10.0,
                      force=CosineForce(1.0, 2.0, 0.1)),
    GeneralParametric(*_sine_table(np.linspace(-1.0, 10.0, 45)),
                      force=ConstantForce(0.5)),
])
def test_model_json_round_trip(model):
    doc = json.loads(json.dumps(model.to_json()))
    clone = model_from_json(doc)
    ts = np.linspace(model.t_min, model.t_max, 23)
    def reads(m):
        return [f(1.5) for f in (m.mass, m.dmass, m.d2mass, m.freq2, m.force_at)]

    assert reads(clone) == reads(model)
    np.testing.assert_allclose(clone.freq2(ts), model.freq2(ts), rtol=1e-15)
    assert clone.has_driving == model.has_driving


def test_force_json_round_trip():
    for f in (ConstantForce(0.7), CosineForce(2.0, 3.0, 0.5),
              ExpCosineForce(1.0, 0.3, 1.0, 0.2), PolynomialForce([1.0, -2.0])):
        clone = force_from_json(json.loads(json.dumps(f.to_json())))
        t = np.linspace(0.0, 4.0, 17)
        np.testing.assert_allclose(clone(t), f(t), rtol=1e-15)
    assert force_from_json(None) is None


def test_force_json_is_independent_of_the_force():
    """Mutating a document's coeffs leaves the force as it was."""
    f = PolynomialForce([1.0, -2.0])
    doc = f.to_json()
    doc["coeffs"].append(5.0)
    doc["coeffs"][0] = 9.0
    assert f.coeffs == [1.0, -2.0]
    assert f.to_json() == {"kind": "polynomial", "coeffs": [1.0, -2.0]}


@pytest.mark.parametrize("doc,force", [
    ({"kind": "cosine", "amplitude": 2.0, "omega": 3.0}, CosineForce(2.0, 3.0, 0.0)),
    ({"kind": "expcosine", "amplitude": 1.0, "rate": 0.3, "omega": 1.0},
     ExpCosineForce(1.0, 0.3, 1.0, 0.0)),
], ids=["cosine", "expcosine"])
def test_force_document_without_phase_reads_phase_zero(doc, force):
    clone = force_from_json(doc)
    assert clone.phase == 0.0
    assert clone.to_json() == {**doc, "phase": 0.0} == force.to_json()


_CK_DOC = {"family": "CaldirolaKanai", "params": {"m": 1.0, "gamma": 0.6, "w1": 1.0},
           "t_min": 0.0, "t_max": 1.0}


@pytest.mark.parametrize("build,key", [
    (lambda: force_from_json({"kind": "constant"}), "F0"),
    (lambda: force_from_json({"kind": "cosine", "amplitude": 1.0, "phase": 0.2}), "omega"),
    (lambda: force_from_json({"kind": "expcosine", "amplitude": 1.0, "omega": 1.0}), "rate"),
    (lambda: force_from_json({"kind": "polynomial"}), "coeffs"),
    (lambda: model_from_json({**_CK_DOC, "params": {"m": 1.0, "w1": 1.0}}), "gamma"),
    (lambda: model_from_json({**_CK_DOC, "family": "LoDampedPulsating",
                              "params": {"m0": 1.0, "gamma": 0.1, "mu": 0.2, "nu": 3.0}}),
     "w_lo"),
    (lambda: model_from_json({**_CK_DOC, "family": "UnitMassSHO", "params": {}}), "w_s"),
    (lambda: model_from_json({**_CK_DOC, "family": "GeneralParametric",
                              "params": {"t": [0.0, 1.0, 2.0, 3.0]}}), "M"),
], ids=["constant", "cosine", "expcosine", "polynomial", "ck", "lo", "unit_mass", "general"])
def test_a_document_without_a_required_key_raises_key_error_naming_it(build, key):
    with pytest.raises(KeyError) as missing:
        build()
    assert missing.type is KeyError and missing.value.args == (key,)


@pytest.mark.parametrize("build,message", [
    (lambda: force_from_json({"kind": "cosine", "amplitude": 1.0, "omega": 2.0, "phse": 0.3}),
     "unknown cosine force key(s) 'phse'; it reads kind, amplitude, omega, phase"),
    (lambda: model_from_json({**_CK_DOC, "params": {"m": 1.0, "gamma": 0.6, "w1": 1.0,
                                                    "w_s": 1.0, "mu": 0.2}}),
     "unknown CaldirolaKanai params key(s) 'w_s', 'mu'; it reads m, gamma, w1"),
    (lambda: model_from_json({**_CK_DOC, "family": "UnitMassSHO",
                              "params": {"w_s": 1.0, "gamma": 0.0}}),
     "unknown UnitMassSHO params key(s) 'gamma'; it reads w_s"),
    (lambda: model_from_json({**_CK_DOC, "family": "GeneralParametric",
                              "params": {"t": [0.0, 1.0, 2.0, 3.0], "M": [1.0] * 4,
                                         "dM": [0.0] * 4, "d2M": [0.0] * 4,
                                         "w2": [1.0] * 4, "w": [1.0] * 4}}),
     "unknown GeneralParametric params key(s) 'w'; it reads t, M, dM, d2M, w2"),
], ids=["cosine", "ck", "unit_mass", "general"])
def test_a_document_key_that_no_constructor_reads_is_refused(build, message):
    """A key outside the class's `keys` (besides a force's kind) is named in
    a ValueError, never dropped: a misspelt phase does not run at phase 0."""
    with pytest.raises(ValueError) as unknown:
        build()
    assert str(unknown.value) == message


@pytest.mark.parametrize("model,keys", [
    (CaldirolaKanai(1.2, 0.6, 1.0), ["m", "gamma", "w1"]),
    (LoDampedPulsating(1.0, 0.1, 0.2, 3.0, 1.0), ["m0", "gamma", "mu", "nu", "w_lo"]),
], ids=["ck", "lo"])
def test_params_list_the_constructor_arguments_in_order(model, keys):
    """params() and the document's "params" hold the constructor's
    arguments in its order, so the document rebuilds the model."""
    assert list(model.params()) == keys
    assert list(model.to_json()["params"]) == keys
    assert model_from_json(model.to_json()).params() == model.params()


def test_model_from_json_rejects_unknown_family():
    with pytest.raises(ValueError):
        model_from_json({"family": "NoSuchFamily", "params": {},
                         "t_min": 0.0, "t_max": 1.0})


def test_unit_mass_sho_family_builds_the_ck_model_at_unit_mass():
    """The schema family UnitMassSHO is CaldirolaKanai(1, 0, w_s); it still
    refuses w_s <= 0."""
    doc = {"family": "UnitMassSHO", "params": {"w_s": 1.3}, "t_min": -1.0, "t_max": 10.0}
    model = model_from_json(doc)
    assert type(model) is CaldirolaKanai
    assert model.params() == {"m": 1.0, "gamma": 0.0, "w1": 1.3}
    for w_s in (0.0, -1.3):
        with pytest.raises(ValueError, match="^w_s must be positive$"):
            model_from_json({**doc, "params": {"w_s": w_s}})


@pytest.mark.parametrize("build,message", [
    (lambda: force_from_json({"kind": "sawtooth"}), "unknown force kind 'sawtooth'"),
    (lambda: CaldirolaKanai(1.0, 0.0, 1.0, t_min=2.0, t_max=2.0),
     "empty time domain [2.0, 2.0]"),
    (lambda: CaldirolaKanai(0.0, 0.6, 1.0), "m must be positive"),
    (lambda: LoDampedPulsating(-1.0, 0.1, 0.2, 3.0, 1.0), "m0 must be positive"),
    (lambda: LoDampedPulsating(1.0, 0.1, 0.2, 3.0, 0.0), "w_lo must be positive"),
], ids=["force_kind", "empty_domain", "ck_m", "lo_m0", "lo_w_lo"])
def test_invalid_model_data_is_refused_as_value_error(build, message):
    with pytest.raises(ValueError) as refused:
        build()
    assert refused.type is ValueError and str(refused.value) == message


# ---------------------------------------------------------------------------
# the families, with and without a force
# ---------------------------------------------------------------------------

_FORCES = {
    "none": None,
    "constant": ConstantForce(0.7),
    "cosine": CosineForce(1.3, 2.1, 0.4),
    "expcosine": ExpCosineForce(0.8, 0.3, 1.7, -0.2),
    "polynomial": PolynomialForce([0.5, -0.1, 0.02]),
}


def _family_model(family, force):
    if family == "UnitMassSHO":
        return CaldirolaKanai(1.0, 0.0, 1.3, -1.0, 12.0, force)
    if family == "CaldirolaKanai":
        return CaldirolaKanai(1.2, 0.6, 1.1, -1.0, 12.0, force)
    if family == "LoDampedPulsating":
        return LoDampedPulsating(1.0, 0.1, 0.2, 3.0, 1.0, -1.0, 12.0, force)
    return GeneralParametric(*_sine_table(np.linspace(-1.0, 12.0, 400)), force)


# ---------------------------------------------------------------------------
# a scalar read is the array read
# ---------------------------------------------------------------------------

PARITY_TIMES = np.linspace(-1.0, 12.0, 10001)


def _scalar_reads_are_the_array_read(model, names):
    for name in names:
        read = getattr(model, name)
        # force_at without a force reads 0.0, which broadcasts
        want = np.broadcast_to(np.asarray(read(PARITY_TIMES), dtype=float),
                               PARITY_TIMES.shape)
        got = np.array([read(t) for t in PARITY_TIMES.tolist()], dtype=float)
        differ = np.count_nonzero(got.view(np.int64) != want.view(np.int64))
        assert differ == 0, f"{name} differs at {differ} of {len(PARITY_TIMES)} times"


@pytest.mark.parametrize("family", ["UnitMassSHO", "CaldirolaKanai", "LoDampedPulsating",
                                    "GeneralParametric", "ReducedUnitMass"])
def test_a_scalar_read_is_the_array_read_bit_for_bit(family):
    """mass, dmass, d2mass, freq2 and force_at at each of 10001 times on
    [-1, 12], one Python float at a time, equal one read of the array of
    them bit for bit: a slice read alone is the slice read in a stack."""
    model = (ReducedUnitMass(_family_model("LoDampedPulsating", None))
             if family == "ReducedUnitMass" else _family_model(family, None))
    _scalar_reads_are_the_array_read(model, ("mass", "dmass", "d2mass", "freq2",
                                             "force_at"))


@pytest.mark.parametrize("force", sorted(_FORCES))
def test_a_scalar_force_read_is_the_array_read_bit_for_bit(force):
    _scalar_reads_are_the_array_read(_family_model("CaldirolaKanai", _FORCES[force]),
                                     ("force_at",))


# ---------------------------------------------------------------------------
# one law per family: terms
# ---------------------------------------------------------------------------

class _SineMass(OscillatorModel):
    """M = 2 + sin t, w^2 = 1 + 0.1 t, stated as terms alone."""

    family = "SineMass"

    def terms(self, t):
        t = np.asarray(t, dtype=float)
        return 2.0 + np.sin(t), np.cos(t), -np.sin(t), 1.0 + 0.1 * t


def test_a_family_that_states_only_terms_works_through_every_read():
    """mass ... freq2, the reduced frequency and a numeric basis all read a
    family that implements terms and nothing else."""
    model = _SineMass(0.0, 10.0, CosineForce(0.5, 1.3))
    ts = np.linspace(0.0, 10.0, 101)
    M = 2.0 + np.sin(ts)
    for read, want in zip((model.mass, model.dmass, model.d2mass, model.freq2),
                          (M, np.cos(ts), -np.sin(ts), 1.0 + 0.1 * ts)):
        assert np.array_equal(read(ts), want)
    w02 = 1.0 + 0.1 * ts + 0.25 * (np.cos(ts) / M) ** 2 + 0.5 * np.sin(ts) / M
    np.testing.assert_allclose(reduced_frequency_squared(model, ts), w02, rtol=1e-14)
    basis = solve_homogeneous(_SineMass(0.0, 10.0), 1.0, 0.0, 0.0, 1.0)
    assert check_omega_constancy(basis) < 1e-8


def test_each_reader_of_the_law_makes_one_terms_call(monkeypatch):
    model = _family_model("LoDampedPulsating", None)
    reduced = ReducedBasis(solve_homogeneous(model, 1.0, -0.7, 0.0, 1.0))
    calls = []
    terms = model.terms

    def counting(t):
        calls.append(t)
        return terms(t)

    monkeypatch.setattr(model, "terms", counting)
    ts = np.linspace(0.0, 5.0, 7)
    # the chain's coefficients are one time's floats
    reads = [("reduced_frequency_squared", lambda t: reduced_frequency_squared(model, t),
              (2.5, ts)),
             ("_U0_coefficients", lambda t: _U0_coefficients(model, t), (2.5,)),
             ("ReducedBasis._read", reduced._read, (2.5, ts))]
    for name, read, times in reads:
        for t in times:
            calls.clear()
            read(t)
            assert len(calls) == 1, name
