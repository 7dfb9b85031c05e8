"""Eigenstate construction: kernel wrappers, closed forms, grid dumps."""

import json

import numpy as np
import pytest
from scipy.integrate import simpson

from tdho.classical import null_driven, reduced_basis
from tdho.states import (
    StateSpec,
    dump_state_grid,
    psi_ck,
    psi_driven,
    psi_general,
    psi_lo,
    psi_sho,
    psi_unit_mass,
    state_field,
)

X = np.linspace(-12.0, 12.0, 4097)


def _norm(values, x=X):
    return np.sqrt(simpson(np.abs(values) ** 2, x=x))


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

def test_state_spec_rejects_bad_inputs(sho_basis_c1):
    m = sho_basis_c1.model
    with pytest.raises(ValueError, match="non-negative"):
        StateSpec(-1, 1.0, sho_basis_c1, m)
    with pytest.raises(ValueError, match="hbar"):
        StateSpec(0, 0.0, sho_basis_c1, m)


def test_state_spec_requires_driven_for_driving_model(driven_sho):
    basis, drv = driven_sho
    with pytest.raises(ValueError, match="driving"):
        StateSpec(0, 1.0, basis, basis.model)
    spec = StateSpec(0, 1.0, basis, basis.model, drv)
    assert spec.describe()["driven"]["t0"] == 0.0


def test_psi_unit_mass_requires_unit_mass(ck_basis):
    spec = StateSpec(0, 1.0, ck_basis, ck_basis.model)
    with pytest.raises(ValueError, match="unit-mass"):
        psi_unit_mass(spec, X, 1.0)


def test_psi_lo_rejects_nonpositive_mass_and_frequency():
    with pytest.raises(ValueError, match="m0"):
        psi_lo(0.0, 0.1, 0.2, 3.0, 1.0, 1.0, 0, 1.0, X, 1.0)
    with pytest.raises(ValueError, match="w_lo"):
        psi_lo(1.0, 0.1, 0.2, 3.0, -1.0, 1.0, 0, 1.0, X, 1.0)


def test_psi_driven_requires_driven(sho_basis_c1):
    spec = StateSpec(0, 1.0, sho_basis_c1, sho_basis_c1.model)
    with pytest.raises(ValueError, match="DrivenSolution"):
        psi_driven(spec, X, 1.0)


# ---------------------------------------------------------------------------
# stationary ground truth
# ---------------------------------------------------------------------------

def test_ground_state_is_gaussian_with_half_phase(sho_basis_c1):
    """C = 1: psi_0 = pi^{-1/4} e^{-x^2/2} e^{-i t/2} for all t."""
    spec = StateSpec(0, 1.0, sho_basis_c1, sho_basis_c1.model)
    for t in (0.0, 1.1, 7.3):
        got = psi_unit_mass(spec, X, t)
        want = np.pi**-0.25 * np.exp(-X**2 / 2.0) * np.exp(-0.5j * t)
        np.testing.assert_allclose(got, want, atol=1e-15)


@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_states_are_normalized(sho_basis_c2, n):
    spec = StateSpec(n, 1.0, sho_basis_c2, sho_basis_c2.model)
    assert _norm(psi_general(spec, X, 2.0)) == pytest.approx(1.0, abs=1e-10)


def test_orthogonality_small_block(ck_basis):
    specs = [StateSpec(n, 1.0, ck_basis, ck_basis.model) for n in range(4)]
    fields = [psi_general(s, X, 1.0) for s in specs]
    for i in range(4):
        for j in range(i):
            overlap = simpson(np.conj(fields[i]) * fields[j], x=X)
            assert abs(overlap) < 1e-10


# ---------------------------------------------------------------------------
# closed forms vs the general kernel
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [0, 1, 3])
@pytest.mark.parametrize("t", [0.0, 1.0, 2.5])
def test_psi_sho_equals_general_over_analytic_basis(sho_basis_c2, n, t):
    spec = StateSpec(n, 1.0, sho_basis_c2, sho_basis_c2.model)
    a = psi_sho(1.0, 2.0, n, 1.0, X, t)
    b = psi_general(spec, X, t)
    assert np.max(np.abs(a - b)) < 1e-13


@pytest.mark.parametrize("n", [0, 2])
def test_psi_ck_equals_general_over_analytic_basis(ck_basis, n):
    spec = StateSpec(n, 1.0, ck_basis, ck_basis.model)
    for t in (0.0, 2.5):
        a = psi_ck(1.0, 0.6, 1.0, 1.0, n, 1.0, X, t)
        b = psi_general(spec, X, t)
        assert np.max(np.abs(a - b)) < 1e-13


@pytest.mark.parametrize("n", [0, 2])
def test_psi_lo_equals_general_over_numeric_basis(lo_basis, lo_model, n):
    spec = StateSpec(n, 1.0, lo_basis, lo_model)
    for t in (0.0, 2.5):
        a = psi_lo(1.0, 0.1, 0.2, 3.0, 1.0, 1.0, n, 1.0, X, t)
        b = psi_general(spec, X, t)
        assert np.max(np.abs(a - b)) < 1e-9


def test_psi_sho_squeezed_density_breathes():
    """C != 1: the density pulses; var = rho^2/(2 Omega) swings by C^2."""
    d0 = np.abs(psi_sho(1.0, 2.0, 0, 1.0, X, 0.0)) ** 2
    dq = np.abs(psi_sho(1.0, 2.0, 0, 1.0, X, np.pi / 2.0)) ** 2
    var0 = simpson(X**2 * d0, x=X)
    varq = simpson(X**2 * dq, x=X)
    # Omega = A B w = 2; rho(0) = A = 2, rho(pi/2) = B = 1
    assert var0 == pytest.approx(1.0, rel=1e-10)
    assert varq == pytest.approx(0.25, rel=1e-10)


# ---------------------------------------------------------------------------
# driven states
# ---------------------------------------------------------------------------

def test_driven_density_is_translated(driven_sho):
    basis, drv = driven_sho
    spec_f = StateSpec(2, 1.0, basis, basis.model, drv)
    spec_0 = StateSpec(2, 1.0, basis, basis.model, null_driven(basis.model))
    t = 2.5
    xp = drv.xp(t)
    a = psi_driven(spec_f, X, t)
    b = psi_driven(spec_0, X - xp, t)
    np.testing.assert_allclose(np.abs(a), np.abs(b), atol=1e-13)


def test_driven_phase_structure(driven_sho):
    """Dividing out the shifted state leaves e^{i(M xdot_p x + delta)/hbar}."""
    basis, drv = driven_sho
    spec_f = StateSpec(0, 1.0, basis, basis.model, drv)
    spec_0 = StateSpec(0, 1.0, basis, basis.model, null_driven(basis.model))
    t = 1.0
    a = psi_driven(spec_f, X, t)
    b = psi_general(spec_0, X - drv.xp(t), t)
    mask = np.abs(b) > 1e-8
    ratio = a[mask] / b[mask]
    want = np.exp(1j * (drv.dxp(t) * X[mask] + drv.delta(t)))
    np.testing.assert_allclose(ratio, want, atol=1e-10)


# ---------------------------------------------------------------------------
# field wrappers and dumps
# ---------------------------------------------------------------------------

def test_state_field_picks_driven_path(driven_sho):
    basis, drv = driven_sho
    spec = StateSpec(0, 1.0, basis, basis.model, drv)
    field = state_field(spec)
    t = 2.5
    np.testing.assert_allclose(field(X, t), psi_driven(spec, X, t), rtol=1e-15)


def test_dump_state_grid_layout_and_determinism(tmp_path, sho_basis_c1):
    spec = StateSpec(1, 1.0, sho_basis_c1, sho_basis_c1.model)
    field = state_field(spec)
    x = np.linspace(-8.0, 8.0, 129)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    side1 = dump_state_grid(field, x, 0.5, p1)
    dump_state_grid(field, x, 0.5, p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().strip().split("\n")
    assert lines[0] == "x,re_psi,im_psi,abs2"
    assert len(lines) == 130
    doc = json.loads((tmp_path / "a.csv.json").read_text())
    assert doc["n"] == 1 and doc["hbar"] == 1.0 and doc["t"] == 0.5
    assert doc["grid"]["points"] == 129
    assert doc["model"]["family"] == "UnitMassSHO"
    assert side1.endswith(".json")


def test_reduced_companion_state_is_unit_mass_eigenstate(ck_basis):
    """The sqrt(M)-scaled pair gives a normalized state of the w0 system."""
    red = reduced_basis(ck_basis)
    spec = StateSpec(0, 1.0, red, red.model)
    vals = psi_unit_mass(spec, X, 2.0)
    assert _norm(vals) == pytest.approx(1.0, abs=1e-10)
