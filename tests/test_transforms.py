"""Grid sampling, unitary building blocks, and the composed operators."""

import numpy as np
import pytest

from tdho.classical import null_driven, reduced_basis
from tdho.models import reduced_frequency_squared
from tdho.states import StateSpec, state_field
from tdho.transforms import (
    BOUNDARY_RATIO,
    Grid,
    GridFunction,
    GridTooSmallError,
    apply_constant_phase,
    apply_dilation,
    apply_linear_phase,
    apply_quadratic_phase,
    apply_translation,
    apply_U0,
    apply_U0_dagger,
    apply_UF,
    apply_UF_dagger,
    hnew_coefficients,
    policy_grid,
    sample_on_grid,
    unit_mass_parameters,
)

GRID = Grid(-14.0, 14.0, 4096)


def _gauss_field(x, t):
    return np.pi**-0.25 * np.exp(-((x - 0.3) ** 2) / 2.0) * np.exp(0.2j * x)


# ---------------------------------------------------------------------------
# grid plumbing
# ---------------------------------------------------------------------------

def test_grid_validation_and_accessors():
    g = Grid(-2.0, 2.0, 17)
    assert g.dx == pytest.approx(0.25)
    assert len(g.xs()) == 17
    with pytest.raises(ValueError):
        Grid(2.0, -2.0, 64)
    with pytest.raises(ValueError):
        Grid(-2.0, 2.0, 8)


def test_sample_on_grid_attaches_source():
    gf = sample_on_grid(_gauss_field, GRID, 0.0)
    # source is the field with t frozen in, for exact off-grid reads
    assert gf.source is not None
    xq = np.array([0.123, -4.56])
    np.testing.assert_allclose(gf.source(xq), _gauss_field(xq, 0.0), rtol=1e-15)
    assert gf.t == 0.0
    np.testing.assert_allclose(gf.values, _gauss_field(GRID.xs(), 0.0))
    bare = sample_on_grid(_gauss_field, GRID, 0.0, attach_source=False)
    assert bare.source is None


def test_boundary_ratio_and_compliance():
    gf = sample_on_grid(_gauss_field, GRID, 0.0)
    assert gf.boundary_ratio() < BOUNDARY_RATIO
    assert gf.is_compliant()
    narrow = sample_on_grid(_gauss_field, Grid(-2.0, 2.0, 64), 0.0)
    assert not narrow.is_compliant()


# ---------------------------------------------------------------------------
# primitive operators (exact source path)
# ---------------------------------------------------------------------------

def test_dilation_action():
    gf = sample_on_grid(_gauss_field, GRID, 0.0)
    a = 0.37
    out = apply_dilation(gf, a)
    want = np.exp(a / 2.0) * _gauss_field(np.exp(a) * GRID.xs(), 0.0)
    np.testing.assert_allclose(out.values, want, atol=1e-15)


def test_dilation_preserves_norm():
    gf = sample_on_grid(_gauss_field, GRID, 0.0)
    from tdho.verify import norm
    assert norm(apply_dilation(gf, 0.5)) == pytest.approx(norm(gf), rel=1e-10)


def test_translation_action():
    gf = sample_on_grid(_gauss_field, GRID, 0.0)
    out = apply_translation(gf, 1.25)
    np.testing.assert_allclose(out.values,
                               _gauss_field(GRID.xs() - 1.25, 0.0), atol=1e-15)


def test_phase_factors():
    gf = sample_on_grid(_gauss_field, GRID, 0.0)
    x = GRID.xs()
    np.testing.assert_allclose(
        apply_quadratic_phase(gf, 0.4).values,
        np.exp(0.4j * x**2) * gf.values, rtol=1e-13, atol=1e-18)
    np.testing.assert_allclose(
        apply_linear_phase(gf, -0.7).values,
        np.exp(-0.7j * x) * gf.values, rtol=1e-13, atol=1e-18)
    np.testing.assert_allclose(
        apply_constant_phase(gf, 2.1).values,
        np.exp(2.1j) * gf.values, rtol=1e-13, atol=1e-18)


def test_phases_respect_hbar():
    gf = GridFunction(GRID.x_min, GRID.dx, _gauss_field(GRID.xs(), 0.0), 0.0,
                      hbar=0.5, source=_gauss_field)
    out = apply_linear_phase(gf, 0.3)
    np.testing.assert_allclose(out.values,
                               np.exp(0.6j * GRID.xs()) * gf.values, rtol=1e-15)


def test_interpolated_path_accuracy():
    """Without a source the dilation falls back to a six-point Lagrange read."""
    gf = sample_on_grid(_gauss_field, GRID, 0.0, attach_source=False)
    out = apply_dilation(gf, 0.37)
    want = np.exp(0.37 / 2.0) * _gauss_field(np.exp(0.37) * GRID.xs(), 0.0)
    err = np.max(np.abs(out.values - want))
    assert 1e-16 < err < 1e-9


def test_lagrange_read_reproduces_a_quintic():
    """A complex degree-5 polynomial sampled without a source comes back to
    rounding through translation and dilation, up to the last samples at
    either edge; every read outside the span is an exact zero."""
    grid = Grid(-1.0, 1.0, 64)
    x, dx = grid.xs(), grid.dx
    d, a = 1.37 * dx, 0.3 * dx
    # roots where the translated edge samples read, so both translations
    # keep compliant edges
    coeffs = (0.8 - 0.3j) * np.poly([grid.x_min + d, grid.x_max - d,
                                     0.3 + 0.2j, -0.5 - 0.1j, 0.7j])
    gf = GridFunction(grid.x_min, dx, np.polyval(coeffs, x), 0.0)
    peak = np.max(np.abs(gf.values))
    cases = [
        (apply_translation(gf, d), x - d, 1.0),
        (apply_translation(gf, -d), x + d, 1.0),
        (apply_dilation(gf, a), np.exp(a) * x, np.exp(0.5 * a)),
    ]
    for out, xq, scale in cases:
        inside = (xq >= grid.x_min) & (xq <= grid.x_max)
        assert not inside.all()
        assert np.all(out.values[~inside] == 0.0)
        assert xq[inside].min() < grid.x_min + 2.0 * dx
        assert xq[inside].max() > grid.x_max - 2.0 * dx
        err = np.abs(out.values[inside] - scale * np.polyval(coeffs, xq[inside]))
        assert np.max(err) < 1e-12 * peak


def test_support_guard_raises():
    gf = sample_on_grid(_gauss_field, Grid(-3.0, 3.0, 256), 0.0,
                        attach_source=False)
    with pytest.raises(GridTooSmallError):
        apply_dilation(gf, -1.0)  # needs values at e^{-a} x, up to |x| ~ 8.1


# ---------------------------------------------------------------------------
# composed operators
# ---------------------------------------------------------------------------

def test_u0_dagger_closed_form(ck_basis):
    """U0^dag psi(x) = M^{1/4} e^{-i Mdot x^2 / 4 hbar} psi(sqrt(M) x)."""
    model = ck_basis.model
    t = 1.3
    M, dM = model.mass(t), model.dmass(t)
    spec = StateSpec(1, 1.0, reduced_basis(ck_basis), reduced_basis(ck_basis).model)
    base = state_field(spec)
    gf = sample_on_grid(base, GRID, t)
    out = apply_U0_dagger(model, t, gf)
    x = GRID.xs()
    want = M**0.25 * np.exp(-0.25j * dM * x**2) * base(np.sqrt(M) * x, t)
    np.testing.assert_allclose(out.values, want, atol=1e-14)


def test_u0_inverts_u0_dagger(ck_basis):
    model = ck_basis.model
    gf = sample_on_grid(_gauss_field, GRID, 2.0)
    back = apply_U0(model, 2.0, apply_U0_dagger(model, 2.0, gf))
    np.testing.assert_allclose(back.values, gf.values, atol=1e-13)


def test_uf_action_and_inverse(driven_sho):
    basis, drv = driven_sho
    model = basis.model
    t = 2.5
    gf = sample_on_grid(_gauss_field, GRID, t)
    out = apply_UF(model, drv, t, gf)
    x = GRID.xs()
    xp, dxp, delta = drv.xp(t), drv.dxp(t), drv.delta(t)
    want = (np.exp(1j * delta) * np.exp(1j * model.mass(t) * dxp * x)
            * _gauss_field(x - xp, t))
    np.testing.assert_allclose(out.values, want, atol=1e-13)
    back = apply_UF_dagger(model, drv, t, out)
    np.testing.assert_allclose(back.values, gf.values, atol=1e-13)


def test_chain_reproduces_driven_state_exactly(driven_sho):
    """U_F U0^dag on the reduced eigenstate equals the driven state."""
    basis, drv = driven_sho
    model = basis.model
    red = reduced_basis(basis)
    t = 1.0
    spec0 = StateSpec(2, 1.0, red, red.model)
    specF = StateSpec(2, 1.0, basis, model, drv)
    gf = sample_on_grid(state_field(spec0), GRID, t)
    chained = apply_UF(model, drv, t, apply_U0_dagger(model, t, gf))
    direct = state_field(specF)(GRID.xs(), t)
    assert np.max(np.abs(chained.values - direct)) < 1e-13


# ---------------------------------------------------------------------------
# reduced-system coefficients
# ---------------------------------------------------------------------------

def test_unit_mass_parameters_ck(ck_basis):
    model = ck_basis.model
    t = 1.7
    alpha, beta, dalpha, dbeta = unit_mass_parameters(model, t)
    assert alpha == pytest.approx(0.15, rel=1e-14)        # Mdot/4M = gamma/4
    assert beta == pytest.approx(-0.6 * t, rel=1e-14)      # -ln M
    assert dalpha == pytest.approx(0.0, abs=1e-15)
    assert dbeta == pytest.approx(-0.6, rel=1e-14)


def test_hnew_coefficients_give_reduced_oscillator(ck_basis, lo_model):
    """Transformed generator: kinetic 1/2, no cross term, potential w0^2/2."""
    for model, t in ((ck_basis.model, 1.7), (lo_model, 0.9)):
        alpha, beta, dalpha, dbeta = unit_mass_parameters(model, t)
        kin, cross, pot = hnew_coefficients(model, t, alpha, beta, dalpha, dbeta)
        assert kin == pytest.approx(0.5, rel=1e-12)
        assert cross == pytest.approx(0.0, abs=1e-13)
        assert pot == pytest.approx(0.5 * reduced_frequency_squared(model, t),
                                    rel=1e-10)


# ---------------------------------------------------------------------------
# grid policy
# ---------------------------------------------------------------------------

def test_policy_grid_compliance(ck_basis):
    for n in (0, 5):
        grid = policy_grid(ck_basis, n, 1.0, times=[0.0, 2.5])
        spec = StateSpec(n, 1.0, ck_basis, ck_basis.model)
        for t in (0.0, 2.5):
            gf = sample_on_grid(state_field(spec), grid, t)
            assert gf.is_compliant()


def test_policy_grid_covers_reduced_companion(ck_basis):
    """The same grid must hold the unit-mass state fed into the chain."""
    red = reduced_basis(ck_basis)
    grid = policy_grid(ck_basis, 3, 1.0, times=[0.0, 2.5])
    spec = StateSpec(3, 1.0, red, red.model)
    for t in (0.0, 2.5):
        gf = sample_on_grid(state_field(spec), grid, t)
        assert gf.is_compliant()


def test_policy_grid_tracks_driven_excursion(driven_ck):
    basis, drv = driven_ck
    grid = policy_grid(basis, 2, 1.0, driven=drv, times=[0.0, 2.5])
    spec = StateSpec(2, 1.0, basis, basis.model, drv)
    for t in (0.0, 1.0, 2.5):
        gf = sample_on_grid(state_field(spec), grid, t)
        assert gf.is_compliant()


def test_policy_grid_without_driving_ignores_xp(sho_basis_c1):
    g1 = policy_grid(sho_basis_c1, 0, 1.0, times=[0.0, 1.0])
    g2 = policy_grid(sho_basis_c1, 0, 1.0, driven=null_driven(sho_basis_c1.model),
                     times=[0.0, 1.0])
    assert g1.x_min == pytest.approx(g2.x_min)
    assert g1.x_max == pytest.approx(g2.x_max)
