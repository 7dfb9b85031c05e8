"""Quadrature, moments, the equation residual, and the check runners."""

import json
import warnings

import numpy as np
import pytest
from scipy.integrate import simpson as scipy_simpson

import tdho.verify
from tdho.classical import analytic_basis_sho
from tdho.models import UnitMassSHO
from tdho.scenarios import BUNDLED
from tdho.states import StateSpec, WavefunctionField, state_field
from tdho.transforms import Grid, sample_on_grid
from tdho.verify import (
    CHECK_NAMES,
    DEFAULT_THRESHOLDS,
    DegenerateStateError,
    GridMismatchError,
    ResidualReport,
    SuiteContext,
    check_omega_constancy,
    check_stationarity,
    check_transform_equivalence,
    inner_product,
    moments,
    norm,
    phase_aligned_distance,
    report_json,
    run_suite,
    schrodinger_residual,
    simpson,
)

from conftest import T_MAX, T_MIN

GRID = Grid(-16.0, 16.0, 4096)


def _state(basis, n, driven=None):
    return state_field(StateSpec(n, 1.0, basis, driven))


# ---------------------------------------------------------------------------
# quadrature layer
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("points", [16, 17, 4096, 4097, 32768])
def test_simpson_weights_match_scipy(rng, points):
    """One weight vector reproduces scipy's rule, even-N end correction too."""
    y = rng.random(points)
    dx = float(rng.uniform(0.001, 0.1))
    want = scipy_simpson(y, dx=dx)
    assert simpson(y, dx) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_norm_of_eigenstate_is_one(sho_basis_c2):
    gf = sample_on_grid(_state(sho_basis_c2, 3), GRID, 1.0)
    assert norm(gf) == pytest.approx(1.0, abs=1e-12)


def test_inner_product_orthonormal_pair(ck_basis):
    g0 = sample_on_grid(_state(ck_basis, 0), GRID, 1.0)
    g1 = sample_on_grid(_state(ck_basis, 1), GRID, 1.0)
    assert inner_product(g0, g0).real == pytest.approx(1.0, abs=1e-12)
    assert abs(inner_product(g0, g1)) < 1e-12


def test_inner_product_grid_mismatch(ck_basis):
    g0 = sample_on_grid(_state(ck_basis, 0), GRID, 1.0)
    g1 = sample_on_grid(_state(ck_basis, 0), Grid(-16.0, 16.0, 2048), 1.0)
    with pytest.raises(GridMismatchError):
        inner_product(g0, g1)


def test_moments_of_known_states(sho_basis_c1):
    """C = 1 stationary states: var_x = var_p = n + 1/2."""
    fine = Grid(-16.0, 16.0, 32768)
    for n in (0, 1, 3):
        gf = sample_on_grid(_state(sho_basis_c1, n), fine, 0.7)
        rep = moments(gf)
        assert rep.mean_x == pytest.approx(0.0, abs=1e-12)
        assert rep.mean_p == pytest.approx(0.0, abs=1e-12)
        assert rep.var_x == pytest.approx(n + 0.5, abs=1e-9)
        assert rep.var_p == pytest.approx(n + 0.5, abs=1e-9)


def test_p2_forms_cross_check(sho_basis_c2):
    """moments' -hbar^2 ∫psi* psi'' agrees with the gradient form hbar^2 ∫|psi'|^2."""
    from tdho.verify import _d1
    fine = Grid(-16.0, 16.0, 32768)
    gf = sample_on_grid(_state(sho_basis_c2, 2), fine, 1.3)
    rep = moments(gf)
    n2 = simpson(np.abs(gf.values) ** 2, dx=gf.dx)
    gradient = simpson(np.abs(_d1(gf.values, gf.dx)) ** 2, dx=gf.dx) / n2
    assert rep.var_p + rep.mean_p**2 == pytest.approx(gradient, abs=1e-8)


# ---------------------------------------------------------------------------
# residual
# ---------------------------------------------------------------------------

def test_residual_small_for_exact_state(ck_basis):
    from tdho.transforms import policy_grid
    grid = policy_grid(ck_basis, 1, 1.0, times=[0.0, 2.5])
    rep = schrodinger_residual(_state(ck_basis, 1), ck_basis.model, grid, 2.5)
    assert isinstance(rep, ResidualReport)
    assert rep.rel_l2_residual < 1e-6
    assert rep.residual_coarse / rep.rel_l2_residual > 8.0


def test_residual_detects_detuned_state():
    """A basis detuned by 1% is not a solution: residual ~ 1e-2, flat order."""
    model = UnitMassSHO(1.0, t_min=T_MIN, t_max=T_MAX)
    wrong = analytic_basis_sho(1.01, 1.0, 1.0, model=model,
                               t_min=T_MIN, t_max=T_MAX)
    rep = schrodinger_residual(_state(wrong, 0), model, GRID, 1.0)
    assert rep.rel_l2_residual > 1e-3
    assert rep.residual_coarse / rep.rel_l2_residual < 8.0


def test_residual_refuses_zero_state():
    """An identically zero state has no relative residual (0/0): refused."""
    model = UnitMassSHO(1.0, t_min=T_MIN, t_max=T_MAX)

    def zero(x, t):
        return np.zeros(np.shape(x), dtype=np.complex128)

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DegenerateStateError, match="zero or not finite"):
            schrodinger_residual(zero, model, GRID, 1.0)


def _zero_field(spec):
    return WavefunctionField(
        lambda x, t: np.zeros(np.shape(x), dtype=np.complex128), "zero", spec,
    )


def test_transform_chain_refuses_zero_state(monkeypatch, sho_basis_c1):
    """A zero direct state has no relative chain distance (0/0): refused."""
    monkeypatch.setattr(tdho.verify, "state_field", _zero_field)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DegenerateStateError, match="zero or not finite"):
            check_transform_equivalence(sho_basis_c1, None, 2, 1.0, GRID,
                                        exact=True)


def test_phase_aligned_distance_refuses_zero_reference(sho_basis_c1):
    zero = _zero_field(StateSpec(2, 1.0, sho_basis_c1))
    xs = GRID.xs()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DegenerateStateError, match="zero or not finite"):
            phase_aligned_distance(zero(xs, 1.0), zero(xs, 1.0))


# ---------------------------------------------------------------------------
# named checks
# ---------------------------------------------------------------------------

def test_check_omega_constancy(lo_basis):
    assert check_omega_constancy(lo_basis) < 1e-8


def test_check_transform_equivalence_paths(ck_basis):
    from tdho.transforms import policy_grid
    grid = policy_grid(ck_basis, 2, 1.0, times=[0.0, 2.5])
    interp = check_transform_equivalence(ck_basis, None, 2, 2.5, grid, exact=False)
    exact = check_transform_equivalence(ck_basis, None, 2, 2.5, grid, exact=True)
    assert interp < 1e-6
    assert exact < 1e-10
    assert exact < interp


def test_check_stationarity(sho_basis_c1, sho_basis_c2):
    f1 = _state(sho_basis_c1, 1)
    drift = check_stationarity(f1, GRID, np.linspace(0.0, 2 * np.pi, 9))
    assert drift < 1e-9
    # squeezed state: density returns after pi/w but moves in between
    f2 = _state(sho_basis_c2, 1)
    assert check_stationarity(f2, GRID, [0.3, 0.3 + np.pi]) < 1e-8
    assert check_stationarity(f2, GRID, [0.3, 0.3 + np.pi / 2]) > 1e-2


def test_phase_aligned_distance(rng, sho_basis_c1):
    a = _state(sho_basis_c1, 2)(GRID.xs(), 1.0)
    phase = np.exp(1j * rng.uniform(0.0, 2 * np.pi))
    assert phase_aligned_distance(a, phase * a) < 1e-13
    assert phase_aligned_distance(a, np.roll(a, 50)) > 1e-3


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------

def _context(basis, driven=None, closed_form_C=None):
    from tdho.transforms import policy_grid
    grid = policy_grid(basis, 2, 1.0, driven=driven, times=[0.0, 1.0])
    return SuiteContext(
        basis=basis, driven=driven, ns=[0, 1], times=[0.0, 1.0], grid=grid,
        closed_form_C=closed_form_C, orthonormality_nmax=3,
    )


def test_run_suite_orders_results_by_check_name(sho_basis_c1):
    ctx = _context(sho_basis_c1, closed_form_C=1.0)
    results = run_suite(ctx, ["residual", "closed_form_agreement"])
    names = [r.check for r in results]
    assert names == sorted(names)
    assert all(r.passed for r in results)


def test_run_suite_rejects_unknown_check(sho_basis_c1):
    ctx = _context(sho_basis_c1)
    with pytest.raises(ValueError, match="unknown check"):
        run_suite(ctx, ["no_such_check"])
    assert "residual" in CHECK_NAMES


def test_run_suite_tolerance_override(sho_basis_c1):
    ctx = _context(sho_basis_c1)
    results = run_suite(ctx, [{"name": "residual", "tolerance": 1e-20}])
    assert all(r.threshold == 1e-20 for r in results)
    assert not any(r.passed for r in results)  # impossible bar -> honest fail


def test_closed_form_check_requires_family(ck_basis):
    ctx = _context(ck_basis)
    with pytest.raises(ValueError, match="closed.form"):
        run_suite(ctx, ["closed_form_agreement"])


def test_uncertainty_check_requires_driving(sho_basis_c1):
    ctx = _context(sho_basis_c1)
    with pytest.raises(ValueError, match="driven"):
        run_suite(ctx, ["uncertainty"])


def test_report_json_shape_and_determinism(sho_basis_c1):
    ctx = _context(sho_basis_c1)
    results = run_suite(ctx, ["omega_constancy", "residual"])
    text = report_json(results)
    assert text == report_json(run_suite(ctx, ["omega_constancy", "residual"]))
    doc = json.loads(text)
    assert {"check", "measured", "params", "pass", "threshold"} <= set(doc[0])
    assert DEFAULT_THRESHOLDS["residual"] == 1e-6


def _pairwise_orthonormality(ctx):
    """The check as one scipy-Simpson inner product per pair of orders."""
    grid = ctx.fine_grid()
    xs = grid.xs()
    worst = 0.0
    for t in ctx.times:
        gs = [state_field(ctx.state(n))(xs, t)
              for n in range(ctx.orthonormality_nmax + 1)]
        for i in range(len(gs)):
            for j in range(i, len(gs)):
                integrand = np.conj(gs[i]) * gs[j]
                val = (scipy_simpson(integrand.real, dx=grid.dx)
                       + 1j * scipy_simpson(integrand.imag, dx=grid.dx))
                worst = max(worst, abs(val - (1.0 if i == j else 0.0)))
    return worst


@pytest.mark.parametrize("family", ["sho_c1", "ck", "driven_ck"])
def test_gram_orthonormality_matches_pairwise_simpson(request, family):
    if family == "driven_ck":
        basis, driven = request.getfixturevalue("driven_ck")
    else:
        basis = request.getfixturevalue({"sho_c1": "sho_basis_c1",
                                         "ck": "ck_basis"}[family])
        driven = None
    ctx = _context(basis, driven=driven)
    [result] = run_suite(ctx, ["orthonormality"])
    assert result.passed
    assert abs(result.measured - _pairwise_orthonormality(ctx)) < 1e-13


def test_orthonormality_detects_a_scaled_row(monkeypatch, sho_basis_c1):
    block = tdho.verify.state_block

    def scaled(spec, x, t, orders):
        window, rows = block(spec, x, t, orders)
        rows[2] *= 1.001
        return window, rows

    monkeypatch.setattr(tdho.verify, "state_block", scaled)
    [result] = run_suite(_context(sho_basis_c1), ["orthonormality"])
    assert not result.passed
    assert result.params["m"] == 2 and result.params["n"] == 2


def test_delta_equivalence_check_runs(driven_sho):
    basis, drv = driven_sho
    ctx = _context(basis, driven=drv)
    results = run_suite(ctx, ["delta_equivalence"])
    assert len(results) >= 2  # legacy-vs-integrated and the shift rule
    assert all(r.passed for r in results)


def test_stationarity_check_rejects_non_sho(ck_basis):
    ctx = _context(ck_basis, closed_form_C=1.0)
    with pytest.raises(ValueError, match="constant-mass"):
        run_suite(ctx, ["stationarity"])


# ---------------------------------------------------------------------------
# suite checks read from state blocks = the per-order public paths
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def bundled_context():
    """name -> SuiteContext of that bundled scenario, built once per module."""
    from tdho.cli import build_context, load_scenario

    built = {}

    def get(name):
        if name not in built:
            built[name] = build_context(load_scenario(name))
        return built[name]

    return get


def _suite_rows(ctx, check):
    return {(r.params["n"], r.params["t"], r.params.get("path")): r
            for r in run_suite(ctx, [check])}


@pytest.mark.parametrize("name", BUNDLED)
def test_suite_residual_matches_per_field_residual(bundled_context, name):
    """The residual rows read from one block per stencil time equal
    schrodinger_residual on each order's field, fine and coarse."""
    ctx = bundled_context(name)
    rows = _suite_rows(ctx, "residual")
    assert len(rows) == len(ctx.ns) * len(ctx.times)
    for n in ctx.ns:
        field = state_field(ctx.state(n))
        for t in ctx.times:
            rep = schrodinger_residual(field, ctx.model, ctx.grid, t, hbar=ctx.hbar)
            row = rows[n, t, None]
            assert row.measured == pytest.approx(rep.rel_l2_residual, rel=1e-4)
            assert row.params["order"] == pytest.approx(
                rep.convergence_order_estimate, abs=0.01)


@pytest.mark.parametrize("name", ["sho_c2", "ck", "lo", "driven_sho", "driven_ck"])
def test_suite_chain_matches_check_transform_equivalence(bundled_context, name):
    ctx = bundled_context(name)
    rows = _suite_rows(ctx, "transform_chain")
    assert len(rows) == 2 * len(ctx.ns) * len(ctx.times)
    for n in ctx.ns:
        for t in ctx.times:
            for path in ("interp", "exact"):
                want = check_transform_equivalence(
                    ctx.basis, ctx.driven, n, t, ctx.grid, hbar=ctx.hbar,
                    exact=path == "exact",
                )
                assert abs(rows[n, t, path].measured - want) < 1e-12


@pytest.mark.parametrize("name", ["driven_sho", "driven_ck"])
def test_suite_uncertainty_matches_per_order_moments(bundled_context, name):
    from tdho.classical import null_driven

    ctx = bundled_context(name)
    rows = _suite_rows(ctx, "uncertainty")
    grid = ctx.fine_grid()
    plain = null_driven(ctx.model)
    for n in ctx.ns:
        for t in ctx.times:
            m_f = moments(sample_on_grid(state_field(ctx.state(n)), grid, t))
            m_0 = moments(sample_on_grid(state_field(ctx.state(n, plain)), grid, t))
            xp, dxp, _ = (float(q) for q in ctx.driven.slice(t))
            want = max(
                abs(m_f.var_x - m_0.var_x),
                abs(m_f.var_p - m_0.var_p),
                abs(m_f.mean_x - m_0.mean_x - xp),
                abs(m_f.mean_p - m_0.mean_p - float(ctx.model.mass(t)) * dxp),
            )
            assert abs(rows[n, t, None].measured - want) < 1e-10


@pytest.mark.parametrize("name", ["sho_c1", "ck", "lo"])
def test_suite_closed_form_matches_per_order_fields(bundled_context, name):
    ctx = bundled_context(name)
    rows = _suite_rows(ctx, "closed_form_agreement")
    closed = tdho.verify._closed_form(ctx)
    xs = ctx.grid.xs()
    for n in ctx.ns:
        general = state_field(StateSpec(n, ctx.hbar, ctx.basis))
        for t in ctx.times:
            want = phase_aligned_distance(closed(n, xs, t), general(xs, t))
            assert abs(rows[n, t, None].measured - want) < 1e-12
