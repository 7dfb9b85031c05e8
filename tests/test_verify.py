"""Quadrature, moments, the equation residual, and the check runners."""

import dataclasses
import json
import random
import sys
import warnings

import numpy as np
import pytest
from scipy.integrate import simpson as scipy_simpson

import tdho._kernels
import tdho.states
import tdho.transforms
import tdho.verify
from tdho.classical import analytic_basis_sho
from tdho.models import CaldirolaKanai, DomainError, LoDampedPulsating
from tdho.scenarios import BUNDLED
from tdho.states import (
    StateSpec,
    WavefunctionField,
    psi_ck,
    psi_lo,
    psi_sho,
    state_field,
)
from tdho.transforms import Grid, GridFunction, GridTooSmallError, sample_on_grid
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

from conftest import T_MAX, T_MIN, kernel_block

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
    """Two functions share a grid when their Grids are equal: an equal Grid
    built apart passes, and one x_max an ulp away is another grid."""
    g0 = sample_on_grid(_state(ck_basis, 0), GRID, 1.0)
    twin = sample_on_grid(_state(ck_basis, 0), Grid(-16.0, 16.0, 4096), 1.0)
    assert inner_product(g0, twin).real == pytest.approx(1.0, abs=1e-12)
    for grid in (Grid(-16.0, 16.0, 2048), Grid(-16.0, np.nextafter(16.0, 17.0), 4096)):
        g1 = sample_on_grid(_state(ck_basis, 0), grid, 1.0)
        with pytest.raises(GridMismatchError):
            inner_product(g0, g1)


def test_moments_of_known_states(sho_basis_c1):
    """C = 1 stationary states: var_x = var_p = n + 1/2 to rounding, on the
    4096-point scenario grid as on the 32768-point one."""
    for points in (4096, 32768):
        grid = Grid(-16.0, 16.0, points)
        for n in range(6):
            rep = moments(sample_on_grid(_state(sho_basis_c1, n), grid, 0.7))
            assert rep.mean_x == pytest.approx(0.0, abs=1e-12)
            assert rep.mean_p == pytest.approx(0.0, abs=1e-12)
            assert rep.var_x == pytest.approx(n + 0.5, abs=1e-12)
            assert rep.var_p == pytest.approx(n + 0.5, abs=1e-12)


def _five_point_d1(values, dx):
    """Fourth-order first derivative; the two samples at each edge stay zero."""
    out = np.zeros_like(values)
    out[2:-2] = (8.0 * (values[3:-1] - values[1:-3]) - (values[4:] - values[:-4])) / (
        12.0 * dx)
    return out


def test_p2_forms_cross_check(sho_basis_c2):
    """moments' spectral <p^2> agrees with the gradient form hbar^2 ∫|psi'|^2
    of the five-point stencil."""
    fine = Grid(-16.0, 16.0, 32768)
    gf = sample_on_grid(_state(sho_basis_c2, 2), fine, 1.3)
    rep = moments(gf)
    n2 = simpson(np.abs(gf.values) ** 2, dx=fine.dx)
    gradient = simpson(np.abs(_five_point_d1(gf.values, fine.dx)) ** 2, dx=fine.dx) / n2
    assert rep.var_p + rep.mean_p**2 == pytest.approx(gradient, abs=1e-8)


def test_moments_refuse_an_unresolved_state(sho_basis_c1):
    """Samples not negligible at an edge of the grid, or near its Nyquist
    wavenumber, are refused rather than summed; so are a zero state and a
    stack of states."""
    field = _state(sho_basis_c1, 0)
    with pytest.raises(GridTooSmallError, match="not resolved.*edge"):
        moments(sample_on_grid(field, Grid(-3.0, 3.0, 256), 0.0))
    with pytest.raises(GridTooSmallError, match="not resolved.*Nyquist"):
        moments(sample_on_grid(field, Grid(-16.0, 16.0, 32), 0.0))
    zero = GridFunction(GRID, np.zeros(GRID.points), 0.0)
    with pytest.raises(DegenerateStateError, match="zero or not finite"):
        moments(zero)
    g = sample_on_grid(field, GRID, 0.0)
    with pytest.raises(ValueError, match="one state"):
        moments(GridFunction(g.grid, np.stack([g.values, g.values]), 0.0))


def test_moments_refuse_a_state_cut_at_its_node(sho_basis_c1):
    """psi_1 on [-10, 0] keeps half its norm on the grid, and its edge sample
    sits on its node at x = 0.  The edge is judged by two samples, so the
    state is refused for its edge, with the remedy of widening the grid,
    not only later for its Nyquist bins."""
    g = sample_on_grid(_state(sho_basis_c1, 1), Grid(-10.0, 0.0, 4096), 0.0)
    assert g.values[-1] == 0.0
    assert np.sum(np.abs(g.values) ** 2) * g.grid.dx == pytest.approx(0.5)
    with pytest.raises(GridTooSmallError, match="edge over peak 4.0.e-03.*widen the grid"):
        moments(g)


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
    model = CaldirolaKanai(1.0, 0.0, 1.0, t_min=T_MIN, t_max=T_MAX)
    wrong = analytic_basis_sho(1.01, 1.0, 1.0, model=model,
                               t_min=T_MIN, t_max=T_MAX)
    rep = schrodinger_residual(_state(wrong, 0), model, GRID, 1.0)
    assert rep.rel_l2_residual > 1e-3
    assert rep.residual_coarse / rep.rel_l2_residual < 8.0


def test_residual_refuses_a_stencil_past_the_domain(sho_basis_c1):
    """t lies inside the domain but t + 4dt does not: refused before the
    field is read past the end."""
    model = sho_basis_c1.model
    with pytest.raises(DomainError, match=r"residual at t = .*stencil reaches t ± 4dt"):
        schrodinger_residual(_state(sho_basis_c1, 0), model, GRID,
                             model.t_max - 0.01, dt=0.005)


def test_residual_refuses_zero_state():
    """An identically zero state has no relative residual (0/0): refused."""
    model = CaldirolaKanai(1.0, 0.0, 1.0, t_min=T_MIN, t_max=T_MAX)

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


def test_check_stationarity_reports_a_non_finite_drift(sho_basis_c1):
    """A density that turns NaN at a later time is a NaN drift, which fails
    every threshold, never a drift of 0."""
    field = _state(sho_basis_c1, 1)

    def spoiled(x, t):
        values = field(x, t)
        if t > 0.0:
            values[len(values) // 2] = np.nan
        return values

    assert np.isnan(check_stationarity(spoiled, GRID, [0.0, 1.0, 2.0]))


def test_check_stationarity_of_stacked_rows_is_per_row(sho_basis_c2):
    """A field of (rows, points) values gets one drift per row, each the
    drift of that row's own field."""
    fields = [_state(sho_basis_c2, n) for n in (0, 3)]

    def stacked(x, t):
        return np.stack([f(x, t) for f in fields])

    times = [0.3, 0.3 + np.pi / 2, 0.3 + np.pi]
    drift = check_stationarity(stacked, GRID, times)
    assert drift.shape == (2,)
    for d, f in zip(drift, fields):
        assert d == pytest.approx(check_stationarity(f, GRID, times), abs=1e-15)


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


def test_run_suite_refuses_a_check_object(sho_basis_c1):
    """Thresholds are the suite's own: a check given as an object that sets
    one is not a check name, and is refused."""
    ctx = _context(sho_basis_c1)
    with pytest.raises(ValueError, match="unknown check"):
        run_suite(ctx, [{"name": "residual", "tolerance": 1e-20}])


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
    """The check's oracle: one scipy-Simpson inner product per pair of
    orders, on a 32768-point grid over the scenario grid's span."""
    grid = Grid(ctx.grid.x_min, ctx.grid.x_max, 32768)
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
    window = tdho.verify.state_window

    def scaled(spec, grid, t, orders):
        g = window(spec, grid, t, orders)
        g.values[2] *= 1.001
        return g

    monkeypatch.setattr(tdho.verify, "state_window", scaled)
    [result] = run_suite(_context(sho_basis_c1), ["orthonormality"])
    assert not result.passed
    assert result.params["m"] == 2 and result.params["n"] == 2


@pytest.mark.parametrize("label", ["sho_stationary", "sho_breathing", "ck"])
def test_orthonormality_names_its_place_stably(monkeypatch, label):
    """Every Gram entry of an exact block sits at rounding level, so they tie:
    the row names the lowest (t, m, n) within P eps of the largest, and
    noise of 1e-16 of the block's peak on every sample (four draws) moves
    neither that place nor, beyond rounding, the value."""
    from tdho.cli import build_context

    ctx = build_context(_high_n_document(random.Random(f"{label}/support"), label))
    ctx.orthonormality_nmax = 16
    [exact] = run_suite(ctx, ["orthonormality"])
    window = tdho.verify.state_window
    noise = np.random.default_rng(7)

    def perturbed(spec, grid, t, orders):
        g = window(spec, grid, t, orders)
        rows = g.values
        rows += 1e-16 * np.max(np.abs(rows)) * noise.standard_normal(rows.shape)
        return g

    monkeypatch.setattr(tdho.verify, "state_window", perturbed)
    for _ in range(4):
        [moved] = run_suite(ctx, ["orthonormality"])
        assert exact.passed and moved.passed
        assert moved.params == exact.params
        assert abs(moved.measured - exact.measured) < ctx.grid.points * np.finfo(float).eps


def _whole(g):
    """g zero-padded to its whole grid (offset 0), in values of its own."""
    return g._with(np.array(g.columns()), offset=0)


def _spoil_row_2(spoil):
    """A state_window whose row 2 goes through spoil, on the whole grid
    (offset 0), so that spoil reaches the grid's edges."""
    window = tdho.verify.state_window

    def spoiled(spec, grid, t, orders):
        g = _whole(window(spec, grid, t, orders))
        spoil(g.values[2])
        return g

    return spoiled


def _leak_to_edge(row):
    row[-1] = 1e-6 * np.max(np.abs(row))


def _alias_at_nyquist(row):
    row *= 1.0 + 1e-6 * (-1.0) ** np.arange(len(row))


@pytest.mark.parametrize("spoil, where", [(_leak_to_edge, "edge"),
                                          (_alias_at_nyquist, "Nyquist")])
def test_orthonormality_refuses_one_unresolved_row(monkeypatch, sho_basis_c1,
                                                   spoil, where):
    """Plain sums are refused, not reported, when a single row of the block
    is not negligible at an edge of the grid or near its Nyquist wavenumber."""
    monkeypatch.setattr(tdho.verify, "state_window", _spoil_row_2(spoil))
    with pytest.raises(GridTooSmallError, match=f"not resolved.*{where}"):
        run_suite(_context(sho_basis_c1), ["orthonormality"])


def test_orthonormality_refuses_a_zero_block(monkeypatch, sho_basis_c1):
    def zero_block(spec, grid, t, orders):
        return GridFunction(grid, np.zeros((len(orders), grid.points)), t)

    monkeypatch.setattr(tdho.verify, "state_window", zero_block)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DegenerateStateError, match="zero or not finite"):
            run_suite(_context(sho_basis_c1), ["orthonormality"])


def test_orthonormality_refuses_a_grid_its_state_misses(sho_basis_c1):
    """A grid that no slice's cutoff window reaches gives an empty window:
    the block is zero, and refused as such."""
    ctx = SuiteContext(basis=sho_basis_c1, driven=None, ns=[0, 1], times=[0.0, 1.0],
                       grid=Grid(100.0, 112.0, 256), orthonormality_nmax=3)
    with pytest.raises(DegenerateStateError, match="‖psi‖² = 0.0 at t = 0.0"):
        run_suite(ctx, ["orthonormality"])


# ---------------------------------------------------------------------------
# orthonormality's resolution guard on the kernel's window
# ---------------------------------------------------------------------------

_GUARD_SCENARIOS = [*BUNDLED, "high_n_sho_stationary", "high_n_sho_breathing", "high_n_ck"]


def _orthonormality_context(name, bundled_context):
    """The context of a bundled scenario, or of one of the three documents
    with orders up to 64, orthonormality to 16 as the benchmark runs it."""
    from tdho.cli import build_context

    if not name.startswith("high_n_"):
        return bundled_context(name)
    label = name[len("high_n_"):]
    ctx = build_context(_high_n_document(random.Random(f"{label}/guard"), label))
    ctx.orthonormality_nmax = 16
    return ctx


def _sho_c1_on_64_points():
    """sho_c1 on an explicit 64-point grid over [-12, 12], too coarse for
    its orders up to 8: the DFT's Nyquist bins reach 1.97e-8 of its peak."""
    from tdho.cli import build_context, load_scenario

    doc = load_scenario("sho_c1")
    doc["grid"] = {"x_min": -12.0, "x_max": 12.0, "points": 64}
    doc["checks"] = ["orthonormality"]
    return build_context(doc)


def _orthonormality_blocks(ctx):
    """(t, block) per time: the rows of orders 0..nmax that orthonormality
    reads, zero-padded to the whole grid."""
    n_max = ctx.orthonormality_nmax
    for t in ctx.times:
        window = tdho.verify.state_window(ctx.state(n_max), ctx.grid, t, range(n_max + 1))
        yield t, np.array(window.columns())


def _live(grid, t, block):
    """The window of a block as orthonormality passes it to its guard: the
    contiguous rows on their nonzero columns (_support)."""
    whole = GridFunction(grid, block, t)
    lo, hi, _ = tdho.verify._support(whole).indices(grid.points)
    return whole._with(np.ascontiguousarray(block[:, lo:hi]), offset=lo)


def _verdict(guard, *args):
    """None for a pass, else the refusal's type and message."""
    try:
        guard(*args)
    except (GridTooSmallError, DegenerateStateError) as e:
        return type(e), str(e)
    return None


def _guard_cases(bundled_context):
    """(label, grid, t, block): the resolved blocks of the bundled scenarios
    and the three high-order documents, one of those with a row leaked into
    its zero tail at the grid's last column and at column 41, aliased at
    the Nyquist wavenumber or zeroed, the 64-point sho_c1 block, and sho_c1
    cut at ±8.5, where only the edge samples (5.2e-10 of the peak) refuse
    it: its Nyquist bins stay below 5e-12 of its 2-norm."""
    for name in _GUARD_SCENARIOS:
        ctx = _orthonormality_context(name, bundled_context)
        for t, block in _orthonormality_blocks(ctx):
            yield f"{name} t={t}", ctx.grid, t, block
    ctx = _orthonormality_context("high_n_sho_stationary", bundled_context)
    t, block = next(_orthonormality_blocks(ctx))
    for column in (-1, 41):
        leaked = block.copy()
        assert leaked[2, column] == 0.0
        leaked[2, column] = 1e-6 * np.max(np.abs(leaked[2]))
        yield f"leak at {column}", ctx.grid, t, leaked
    aliased = block.copy()
    _alias_at_nyquist(aliased[2])
    yield "Nyquist alias", ctx.grid, t, aliased
    yield "zero block", ctx.grid, t, np.zeros_like(block)
    ctx = _sho_c1_on_64_points()
    t, block = next(_orthonormality_blocks(ctx))
    yield "sho_c1 on 64 points", ctx.grid, t, block
    ctx = dataclasses.replace(bundled_context("sho_c1"), grid=Grid(-8.5, 8.5, 4096))
    t, block = next(_orthonormality_blocks(ctx))
    yield "sho_c1 cut at 8.5", ctx.grid, t, block


def test_the_window_guard_gives_the_whole_grid_verdicts(bundled_context):
    """_resolved_window on a block's live columns passes, or refuses with the
    exception type and message, exactly as _resolved_spectrum on the whole
    block does."""
    expected_refusals = {
        "leak at -1": (GridTooSmallError, "edge over peak"),
        "leak at 41": (GridTooSmallError, "Nyquist bins over peak"),
        "Nyquist alias": (GridTooSmallError, "Nyquist bins over peak"),
        "zero block": (DegenerateStateError, "zero or not finite"),
        "sho_c1 on 64 points": (GridTooSmallError, "Nyquist bins over peak 1.97e-08"),
        "sho_c1 cut at 8.5": (GridTooSmallError, "edge over peak 5.21e-10"),
    }
    for label, grid, t, block in _guard_cases(bundled_context):
        whole = _verdict(tdho.verify._resolved_spectrum,
                         GridFunction(grid, block, t), "orthonormality")
        assert _verdict(tdho.verify._resolved_window, _live(grid, t, block),
                        "orthonormality") == whole, label
        if label in expected_refusals:
            kind, message = expected_refusals[label]
            assert whole[0] is kind and message in whole[1], (label, whole)
        else:
            assert whole is None, (label, whole)


def test_the_nyquist_bins_are_the_dfts_and_bound_its_ratio(bundled_context):
    """The guard's three direct sums are the DFT's bins around the Nyquist
    wavenumber, to the rounding of a sum over the window, and on every row
    of every nonzero block band / ‖psi‖₂ is at least the DFT's band / peak."""
    eps = np.finfo(float).eps
    for label, grid, t, block in _guard_cases(bundled_context):
        if not block.any():
            continue
        points = grid.points
        live = _live(grid, t, block)
        bins = tdho.verify._nyquist_bins(live)
        spectrum = np.fft.fft(block, axis=-1)
        dft_bins = spectrum[:, points // 2 - 1:points // 2 + 2]
        l1 = np.sum(np.abs(live.values), axis=-1, keepdims=True)
        assert np.all(np.abs(bins - dft_bins)
                      <= (live.values.shape[-1] + points.bit_length()) * eps * l1), label
        bound = np.max(np.abs(bins), axis=-1) / np.linalg.norm(live.values, axis=-1)
        exact = (np.max(np.abs(dft_bins), axis=-1)
                 / np.max(np.abs(spectrum), axis=-1))
        assert np.all(bound >= exact), (label, bound, exact)


def test_orthonormality_takes_the_dft_only_as_its_fallback(monkeypatch, bundled_context):
    """run_suite's orthonormality makes no DFT on the resolved blocks of the
    bundled scenarios and the three high-order documents, and exactly the
    fallback's one on the 64-point sho_c1 copy, which it refuses."""
    fft = np.fft.fft
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return fft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counting)
    for name in _GUARD_SCENARIOS:
        [result] = run_suite(_orthonormality_context(name, bundled_context),
                             ["orthonormality"])
        assert result.passed, name
    assert calls == []
    with pytest.raises(GridTooSmallError, match="Nyquist bins over peak 1.97e-08"):
        run_suite(_sho_c1_on_64_points(), ["orthonormality"])
    assert len(calls) == 1


def test_delta_equivalence_check_runs(driven_sho):
    basis, drv = driven_sho
    ctx = _context(basis, driven=drv)
    results = run_suite(ctx, ["delta_equivalence"])
    assert len(results) >= 2  # legacy-vs-integrated and the shift rule
    assert all(r.passed for r in results)


def test_delta_equivalence_check_needs_a_driven_scenario(sho_basis_c1):
    ctx = _context(sho_basis_c1)
    with pytest.raises(ValueError) as refused:
        run_suite(ctx, ["delta_equivalence"])
    assert refused.type is ValueError
    assert str(refused.value) == "delta_equivalence check needs a driven scenario"


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


# orders as perfbench's high_n_states draws them (k, 32 - k, 32 + k, 64 - k)
HIGH_N_ORDERS = [0, 14, 18, 46, 50, 64]


def _high_n_context(name):
    from tdho.cli import build_context, load_scenario

    doc = load_scenario(name)
    doc["states"] = HIGH_N_ORDERS
    return build_context(doc)


@pytest.mark.parametrize("name", ["sho_c2", "ck", "lo", "driven_sho", "driven_ck",
                                  "ck@high_n", "driven_ck@high_n"])
def test_suite_chain_matches_check_transform_equivalence(bundled_context, name):
    """Both paths pushed through the chain as one block of orders equal the
    per-order public check, also at high_n orders on a grid sized for them."""
    if name.endswith("@high_n"):
        ctx = _high_n_context(name.split("@")[0])
        assert ctx.ns == HIGH_N_ORDERS
    else:
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
    grid = ctx.grid
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


@pytest.mark.parametrize("name", ["driven_sho", "driven_ck"])
def test_detuned_boost_fails_the_uncertainty_check(monkeypatch, bundled_context, name):
    """A driven state whose boost M xdot_p / hbar is 1.001 times too large
    shifts <p> off M xdot_p: every row fails except those at t = 0, where
    xdot_p = 0 and the boost vanishes."""
    ctx = bundled_context(name)
    assert all(r.passed for r in run_suite(ctx, ["uncertainty"]))
    slice_params = tdho.states._slice_params

    def detuned(spec, t):
        params = slice_params(spec, t)
        if spec.driven is not None:
            params[5] = 1.001 * params[5]
        return params

    monkeypatch.setattr(tdho.states, "_slice_params", detuned)
    results = run_suite(ctx, ["uncertainty"])
    assert len(results) == len(ctx.ns) * len(ctx.times) == 12
    assert [r.params["t"] for r in results if not r.passed] == [
        t for _ in ctx.ns for t in ctx.times if t != 0.0]


def _closed_form_oracle(ctx, n):
    """The per-order closed form of ctx's family as a (x, t) -> values field;
    psi_sho on the unit-mass oscillator (CaldirolaKanai at m = 1, gamma = 0)."""
    m, C, hbar = ctx.model, ctx.closed_form_C, ctx.hbar
    if isinstance(m, CaldirolaKanai) and (m.m, m.gamma) == (1.0, 0.0):
        return lambda x, t: psi_sho(m.w1, C, n, hbar, x, t)
    if isinstance(m, CaldirolaKanai):
        return lambda x, t: psi_ck(m.m, m.gamma, m.w1, C, n, hbar, x, t)
    assert isinstance(m, LoDampedPulsating)
    return lambda x, t: psi_lo(m.m0, m.gamma, m.mu, m.nu, m.w_lo, C, n, hbar, x, t)


@pytest.mark.parametrize("name", ["sho_c1", "ck", "lo"])
def test_suite_closed_form_matches_per_order_fields(bundled_context, name):
    """The closed-form block against the general block equals each order's
    closed form (psi_sho, psi_ck, psi_lo) against its general field."""
    ctx = bundled_context(name)
    rows = _suite_rows(ctx, "closed_form_agreement")
    xs = ctx.grid.xs()
    for n in ctx.ns:
        closed = _closed_form_oracle(ctx, n)
        general = state_field(StateSpec(n, ctx.hbar, ctx.basis))
        for t in ctx.times:
            want = phase_aligned_distance(closed(xs, t), general(xs, t))
            assert abs(rows[n, t, None].measured - want) < 1e-12


@pytest.mark.parametrize("name", ["sho_c1", "sho_c2"])
def test_suite_stationarity_matches_per_order_check(bundled_context, name):
    """The suite's one check_stationarity call per probe set on the
    closed-form block equals check_stationarity on each order's psi_sho."""
    ctx = bundled_context(name)
    results = run_suite(ctx, ["stationarity"])
    w_s, C = ctx.model.w1, ctx.closed_form_C
    period = np.pi / w_s
    if C == 1.0:
        probes = [((), np.linspace(0.0, 2.0 * np.pi / w_s, 9))]
    else:
        probes = [(("t", t), [t, t + period]) for t in ctx.times[:3]]
        probes.append((("shift", "half_period"), [0.0, 0.5 * period]))
    assert len(results) == len(ctx.ns) * len(probes)
    got = iter(results)
    for n in ctx.ns:
        field = _closed_form_oracle(ctx, n)
        for key, times in probes:
            r = next(got)
            assert r.params["n"] == n
            if key:
                assert r.params[key[0]] == key[1]
            want = check_stationarity(field, ctx.grid, times)
            assert abs(r.measured - want) < 1e-15


@pytest.fixture(scope="module")
def bundled_results(bundled_context):
    """name -> the results of that bundled scenario's own checks, run once."""
    from tdho.cli import load_scenario

    done = {}

    def get(name):
        if name not in done:
            done[name] = run_suite(bundled_context(name), load_scenario(name)["checks"])
        return done[name]

    return get


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_report_values_are_python_floats(bundled_results, name):
    """Every measured value is a float and every verdict a bool, so the
    report serialises with the standard json module."""
    results = bundled_results(name)
    assert results
    for r in results:
        assert type(r.measured) is float, (r.check, r.params, type(r.measured))
        assert type(r.passed) is bool
    json.loads(report_json(results))


@pytest.mark.parametrize("name", BUNDLED)
def test_residual_order_estimate_of_bundled_scenarios(bundled_results, name):
    """An exact state's residual falls as the fourth power of the (dt, dx)
    step, so its order estimate reads 4; the detuned negative control's
    residual is not truncation error and does not fall with the step."""
    rows = [r for r in bundled_results(name) if r.check == "residual"]
    assert rows
    for r in rows:
        if name == "negative_control":
            assert abs(r.params["order"]) < 0.5, r.params
        else:
            assert 3.9 <= r.params["order"] <= 4.1, r.params


def test_perturbed_translation_fails_the_suite_chain(monkeypatch, bundled_context):
    """A U_F that translates by 1.001 x_p breaks the driven chain: every
    driven_sho row of both paths fails.  Both paths read U_F's parameters
    from its one coefficient function, so the shift is perturbed there
    once, for the samples and the columns alike; U0_dagger moves no centre
    (d = 0) and is untouched."""
    ctx = bundled_context("driven_sho")
    assert all(r.passed for r in run_suite(ctx, ["transform_chain"]))
    coefficients = tdho.transforms._UF_coefficients

    def off_by_a_permille(model, driven, t):
        s, d, alpha, k, c = coefficients(model, driven, t)
        return s, 1.001 * d, alpha, k, c

    monkeypatch.setattr(tdho.transforms, "_UF_coefficients", off_by_a_permille)
    results = run_suite(ctx, ["transform_chain"])
    assert len(results) == 2 * len(ctx.ns) * len(ctx.times)
    assert not any(r.passed for r in results)


def test_a_boosted_direct_state_fails_the_exact_chain(monkeypatch, bundled_context):
    """The exact path maps the companion's own columns, never the direct
    state's: a driven state whose k_lin is 1.0001 times too large fails
    every driven_ck exact row where the boost is nonzero (t != 0, as
    xdot_p(0) = 0), while the companion, undriven, is untouched."""
    ctx = bundled_context("driven_ck")
    assert all(r.passed for r in run_suite(ctx, ["transform_chain"]))
    slice_params = tdho.states._slice_params

    def boosted(spec, t):
        params = slice_params(spec, t)
        if spec.driven is not None:
            params[5] = 1.0001 * params[5]
        return params

    monkeypatch.setattr(tdho.states, "_slice_params", boosted)
    exact = [r for r in run_suite(ctx, ["transform_chain"]) if r.params["path"] == "exact"]
    assert len(exact) == len(ctx.ns) * len(ctx.times) == 12
    assert [r.params["t"] for r in exact if not r.passed] == [
        t for _ in ctx.ns for t in ctx.times if t != 0.0]


def test_each_run_evaluates_the_shared_block_once_and_afresh(monkeypatch,
                                                             sho_basis_c1):
    """One run_suite call evaluates the block of ctx.ns at ctx.times once for
    every check that reads it (closed form, residual centre, chain); the next
    call evaluates it again, so a patch between two runs on one context is
    seen, not a stale block."""
    ctx = _context(sho_basis_c1, closed_form_C=1.0)
    checks = ["closed_form_agreement", "residual", "transform_chain"]
    window = tdho.verify.state_window
    shared = []

    def counting(spec, grid, t, orders):
        # the shared spec: the chain's companion stack reads ctx.times too
        shared_spec = spec.basis is ctx.basis and spec.driven is ctx.driven
        if shared_spec and np.ndim(t) and list(t) == ctx.times:
            shared.append(t)
        return window(spec, grid, t, orders)

    monkeypatch.setattr(tdho.verify, "state_window", counting)
    assert all(r.passed for r in run_suite(ctx, checks))
    assert len(shared) == 1
    slice_params = tdho.states._slice_params

    def narrower(spec, t):
        params = slice_params(spec, t)
        params[1] = 1.001 * params[1]
        return params

    monkeypatch.setattr(tdho.states, "_slice_params", narrower)
    results = run_suite(ctx, checks)
    assert len(shared) == 2
    for check in ("closed_form_agreement", "residual"):
        rows = [r for r in results if r.check == check]
        assert rows and not any(r.passed for r in rows), check


# ---------------------------------------------------------------------------
# the suite's read depth
# ---------------------------------------------------------------------------

def _high_n_document(rng: random.Random, label: str) -> dict:
    """One undriven analytic-basis document with orders up to 64, drawn the
    way the benchmark's high_n_states workload draws its three: orders in
    pairs of fixed sum, a fixed C, fixed phases (breathing) or fixed times
    (exponential mass), and the seed drawing hbar and the frequencies."""
    k = rng.randint(1, 15)
    checks = ["closed_form_agreement", "orthonormality", "residual",
              "stationarity", "transform_chain"]
    hbar = round(rng.uniform(0.5, 2.0), 6)
    if label == "ck":
        w1 = round(rng.uniform(0.8, 1.5), 6)
        model = {"family": "CaldirolaKanai", "params": {"m": 1.0, "gamma": 0.3, "w1": w1}}
        basis, times = {"kind": "analytic_ck", "A": 1.0, "B": 1.0}, [0.5, 2.5]
        checks.remove("stationarity")
    else:
        w_s = round(rng.uniform(0.7, 1.5), 6)
        model = {"family": "UnitMassSHO", "params": {"w_s": w_s}}
        if label == "sho_stationary":
            basis = {"kind": "analytic_sho", "A": 1.0, "B": 1.0}
            times = sorted(round(rng.uniform(0.0, 3.0), 6) for _ in range(2))
        else:
            basis = {"kind": "analytic_sho", "A": 2.0, "B": 1.0}
            times = [round(phase / w_s, 6) for phase in (0.0, 2.0)]
    model.update(t_min=-1.0, t_max=5.0)
    return {"name": f"high_n_{label}", "hbar": hbar, "model": model, "basis": basis,
            "states": [0, k, 32 - k, 32 + k, 64 - k, 64], "times": times,
            "grid": {"policy": True}, "checks": checks}


@pytest.mark.parametrize("name", [*BUNDLED, *(f"{name}/fast" for name in BUNDLED),
                                  "high_n_sho_stationary", "high_n_sho_breathing",
                                  "high_n_ck"])
def test_the_read_depth_moves_no_verdict(monkeypatch, bundled_context, bundled_results,
                                         name):
    """The suite read to READ_DEPTH and read to LOG_FLOOR (READ_DEPTH = None)
    gives the same rows and verdicts, each measured value within 1e-5 of its
    threshold, on the bundled scenarios, full and with their fast contexts
    (tdho verify --suite fast), and on three documents with orders up to 64
    (orthonormality to 16, as the benchmark runs them).  Orthonormality's
    params name the same place too: every deviation is at rounding level
    (1e-15), and the row names the lowest of the ties."""
    from tdho.cli import build_context, load_scenario

    if name.startswith("high_n_"):
        label = name[len("high_n_"):]
        doc = _high_n_document(random.Random(f"{label}/23"), label)
        ctx = build_context(doc)
        ctx.orthonormality_nmax = 16
        shallow = run_suite(ctx, doc["checks"])
    elif name.endswith("/fast"):
        doc = load_scenario(name[:-len("/fast")])
        ctx = build_context(doc, fast=True)
        shallow = run_suite(ctx, doc["checks"])
    else:
        ctx, doc = bundled_context(name), load_scenario(name)
        shallow = bundled_results(name)
    assert tdho.verify.READ_DEPTH == tdho.states.READ_DEPTH == 40.0
    monkeypatch.setattr(tdho.states, "READ_DEPTH", None)
    deep = run_suite(ctx, doc["checks"])
    assert len(shallow) == len(deep)
    for a, b in zip(shallow, deep):
        assert (a.check, a.threshold, a.op, a.passed) == (b.check, b.threshold, b.op,
                                                          b.passed)
        assert a.params == b.params, (a, b)
        assert abs(a.measured - b.measured) <= 1e-5 * a.threshold, (a, b)


# ---------------------------------------------------------------------------
# the support window
# ---------------------------------------------------------------------------

def _whole_grid(*blocks, margin=0):
    return slice(None)


@pytest.mark.parametrize("name", [*BUNDLED, "high_n_sho_stationary",
                                  "high_n_sho_breathing", "high_n_ck"])
def test_the_support_window_moves_rounding_only(monkeypatch, bundled_context,
                                                bundled_results, name):
    """The residual, Gram, closed-form, stationarity and chain reductions run
    on the columns where the states are nonzero (_support); on the whole
    grid they give the same rows, params and verdicts, and every measured
    value within 1e-7 of its threshold, on the bundled scenarios and on
    three documents with orders up to 64 (orthonormality to 16)."""
    from tdho.cli import build_context, load_scenario

    if name.startswith("high_n_"):
        label = name[len("high_n_"):]
        doc = _high_n_document(random.Random(f"{label}/support"), label)
        ctx = build_context(doc)
        ctx.orthonormality_nmax = 16
        windowed = run_suite(ctx, doc["checks"])
    else:
        ctx, doc = bundled_context(name), load_scenario(name)
        windowed = bundled_results(name)
    monkeypatch.setattr(tdho.verify, "_support", _whole_grid)
    whole = run_suite(ctx, doc["checks"])
    assert len(windowed) == len(whole)
    for a, b in zip(windowed, whole):
        assert (a.check, a.params, a.threshold, a.op, a.passed) == (
            b.check, b.params, b.threshold, b.op, b.passed)
        assert abs(a.measured - b.measured) <= 1e-7 * a.threshold, (a, b)


def test_every_grid_reduction_skips_the_zero_tails(monkeypatch):
    """On a document with orders up to 64, each of the five reductions reads
    a window narrower than the grid."""
    from tdho.cli import build_context

    doc = _high_n_document(random.Random("sho_breathing/support"), "sho_breathing")
    ctx = build_context(doc)
    support = tdho.verify._support
    windows = {}

    def recording(*blocks, margin=0):
        cols = support(*blocks, margin=margin)
        caller = sys._getframe(1).f_code.co_name
        windows.setdefault(caller, []).append(cols.indices(ctx.grid.points))
        return cols

    monkeypatch.setattr(tdho.verify, "_support", recording)
    run_suite(ctx, doc["checks"])
    assert set(windows) == {"_residual_pair", "_run_orthonormality", "_run_closed_form",
                            "_max_drift", "_chain_distance"}
    for caller, spans in windows.items():
        for lo, hi, _ in spans:
            assert hi - lo < ctx.grid.points // 2, (caller, lo, hi)


# ---------------------------------------------------------------------------
# stacked reads
# ---------------------------------------------------------------------------

def _per_slice(kernel):
    """A whole-grid kernel as one one-slice call per slice of a stack."""
    def per_slice(x, orders, *params, depth=None):
        if np.ndim(params[0]) == 0:
            return kernel(x, orders, *params, depth=depth)
        return np.stack([kernel(x, orders, *p, depth=depth) for p in zip(*params)])

    return per_slice


def _suite_case(name, bundled_context, bundled_results):
    """(ctx, checks, results of one run_suite call) of a bundled scenario or
    of one of the three high-order documents (orthonormality to 16)."""
    from tdho.cli import build_context, load_scenario

    if name.startswith("high_n_"):
        label = name[len("high_n_"):]
        doc = _high_n_document(random.Random(f"{label}/stacked"), label)
        ctx = build_context(doc)
        ctx.orthonormality_nmax = 16
        return ctx, doc["checks"], run_suite(ctx, doc["checks"])
    checks = load_scenario(name)["checks"]
    return bundled_context(name), checks, bundled_results(name)


@pytest.mark.parametrize("name", [*BUNDLED, "high_n_sho_stationary",
                                  "high_n_sho_breathing", "high_n_ck"])
def test_stacked_reads_are_the_per_time_reads(monkeypatch, bundled_context,
                                              bundled_results, name):
    """Every stacked read of the suite (the shared block, the residual's
    stencil stack, the closed forms, the chain's companion, the undriven
    block, the stationarity probes) split into one kernel call per time,
    and the probe stack taken on the whole grid: the report is the same,
    byte for byte, on the bundled scenarios and three high-order
    documents."""
    ctx, checks, stacked = _suite_case(name, bundled_context, bundled_results)
    per_slice = _per_slice(kernel_block)

    def whole_grid(x, orders, *params, depth=None):
        return per_slice(x, orders, *params, depth=depth), 0

    monkeypatch.setattr(tdho.states, "state_kernel_window", whole_grid)
    assert report_json(run_suite(ctx, checks)) == report_json(stacked)


@pytest.mark.parametrize("name", [*BUNDLED, "high_n_sho_stationary",
                                  "high_n_sho_breathing", "high_n_ck"])
def test_each_check_makes_one_kernel_call_per_set_of_times(monkeypatch, bundled_context,
                                                           bundled_results, name):
    """Run alone, each check reads the scenario's grid in one kernel call
    per set of times: the shared block (all T times) where it reads it;
    the closed forms, the chain's companion and the undriven block, T
    slices each, and the exact chain's mapped columns, T slices, unless
    both maps are the identity at every time (unit mass, undriven); one
    six-slice stencil stack per t; one probe stack (nine for C = 1, else a
    pair per t of the first three and the half-period pair); and
    orthonormality one window call per t, as a window over all its times
    would widen each time's Gram product."""
    ctx, checks, _ = _suite_case(name, bundled_context, bundled_results)
    xs = ctx.grid.xs()
    T = len(ctx.times)
    stencils = [6] * T
    probes = 9 if ctx.closed_form_C == 1.0 else 2 * len(ctx.times[:3]) + 2
    model = ctx.model
    moves = ctx.driven is not None or any(
        (model.mass(t), model.dmass(t)) != (1.0, 0.0) for t in ctx.times)
    expected = {
        "residual": [T, *stencils],
        "closed_form_agreement": [T, T],
        "transform_chain": [T, T, T] if moves else [T, T],
        "uncertainty": [T, T],
        "stationarity": [probes],
        "orthonormality": [1] * T,
        "omega_constancy": [],
        "frequency_map": [],
        "delta_equivalence": [],
    }
    slices = []

    def counting(kernel):
        def count(x, orders, *params, **kw):
            if np.array_equal(x, xs):
                slices.append(1 if np.ndim(params[0]) == 0 else len(params[0]))
            return kernel(x, orders, *params, **kw)

        return count

    monkeypatch.setattr(tdho.states, "state_kernel_window",
                        counting(tdho.states.state_kernel_window))
    for check in checks:
        slices.clear()
        run_suite(ctx, [check])
        assert sorted(slices) == sorted(expected[check]), check


def test_each_time_reads_a_view_of_its_stack(monkeypatch, bundled_context):
    """Every window of one time that the checks read from a stacked kernel
    call shares memory with that call's rows: the residual's centre, the
    chain's direct state and companion, both closed-form windows, the rows
    the moments read and the stationarity probes.  No stack is copied time
    by time."""
    from tdho.cli import load_scenario

    stacks, reads = [], []
    window = tdho.states.state_kernel_window

    def recording(x, orders, *params, **kw):
        rows, offset = window(x, orders, *params, **kw)
        if np.ndim(params[0]):
            stacks.append(rows)
        return rows, offset

    support = tdho.verify._support
    stacked_args = {"_residual_pair": [0], "_chain_distance": [1],
                    "_run_closed_form": [0, 1], "_max_drift": [0, 1]}

    def support_reads(*windows, margin=0):
        caller = sys._getframe(1).f_code.co_name
        reads.extend((caller, windows[i]) for i in stacked_args.get(caller, []))
        return support(*windows, margin=margin)

    def reading(name, fn):
        def read(*args):
            reads.append((name, args[-1]))
            return fn(*args)

        return read

    monkeypatch.setattr(tdho.states, "state_kernel_window", recording)
    monkeypatch.setattr(tdho.verify, "_support", support_reads)
    monkeypatch.setattr(tdho.verify, "apply_U0_dagger",
                        reading("companion", tdho.verify.apply_U0_dagger))
    monkeypatch.setattr(tdho.verify, "moments", reading("moments", tdho.verify.moments))
    for name in BUNDLED:
        run_suite(bundled_context(name), load_scenario(name)["checks"])
    assert {where for where, _ in reads} == {*stacked_args, "companion", "moments"}
    for where, g in reads:
        assert g.values.ndim < stacks[0].ndim
        assert any(np.shares_memory(g.values, stack) for stack in stacks), where


def test_every_window_reads_its_grids_points(monkeypatch, bundled_context):
    """On driven_ck's policy grid, where x_min + dx (P - 1) is not x_max,
    the x of every GridFunction the suite makes (the shared rows, the
    companion stack, each chain map's output, the rows the moments pad to
    the whole grid) is its slice of linspace(x_min, x_max, P), bit for bit;
    grid.xs() is one read-only array."""
    from tdho.cli import load_scenario

    ctx = bundled_context("driven_ck")
    grid = ctx.grid
    assert grid.x_min + grid.dx * (grid.points - 1) != grid.x_max
    assert grid.xs() is grid.xs() and not grid.xs().flags.writeable
    made = []
    init = GridFunction.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(GridFunction, "__init__", recording)
    run_suite(ctx, load_scenario("driven_ck")["checks"])
    points = np.linspace(grid.x_min, grid.x_max, grid.points)
    assert made and {g.grid for g in made} == {grid}
    for g in made:
        lo, hi = g.offset, g.offset + g.values.shape[-1]
        assert g.x.tobytes() == points[lo:hi].tobytes(), (lo, hi)
    assert any(g.offset + g.values.shape[-1] == grid.points for g in made)


def _leaking_window(row, column):
    """A state_window on the whole grid (offset 0) whose order row leaks
    1e-6 of its peak into one sample of the grid's zero tail, past the
    kernel's cutoff."""
    window = tdho.verify.state_window

    def leaking(spec, grid, t, orders):
        g = _whole(window(spec, grid, t, orders))
        rows = g.values
        rows[..., row, column] = 1e-6 * np.max(np.abs(rows[..., row, :]))
        return g

    return leaking


@pytest.mark.parametrize("column", [-1, 41])
def test_the_residual_window_reads_a_leaked_sample(monkeypatch, sho_basis_c1, column):
    """The window is read from the values, not from the kernel's cutoff: a
    sample leaked into the zero tail, at the grid's edge or inside it, moves
    the residual, and the windowed residual of the leaking state is its
    whole-grid residual, fine and coarse (the order estimate)."""
    ctx = _context(sho_basis_c1)
    clean = run_suite(ctx, ["residual"])
    monkeypatch.setattr(tdho.verify, "state_window", _leaking_window(1, column))
    leaked = run_suite(ctx, ["residual"])
    monkeypatch.setattr(tdho.verify, "_support", _whole_grid)
    whole = run_suite(ctx, ["residual"])
    for c, a, b in zip(clean, leaked, whole):
        assert a.params == b.params and a.params["n"] == c.params["n"]
        if c.params["n"] == ctx.ns[1]:
            assert abs(a.measured - c.measured) > 1e-3 * c.measured, (a, c)
        assert a.measured == pytest.approx(b.measured, rel=1e-12, abs=0.0), (a, b)


# ---------------------------------------------------------------------------
# every read on the kernel's cutoff window
# ---------------------------------------------------------------------------

def _whole_grid_window(x, orders, *params, depth=None):
    """state_kernel_window as a whole-grid reader: its rows zero-padded to
    the whole grid, at offset 0."""
    return kernel_block(x, orders, *params, depth=depth), 0


_SEEDED = [f"high_n_{label}/{seed}" for seed in range(1, 8)
           for label in ("sho_stationary", "sho_breathing", "ck")]


@pytest.mark.parametrize("name", [*BUNDLED, *_SEEDED])
def test_window_reads_are_the_whole_grid_reads(monkeypatch, bundled_context,
                                               bundled_results, name):
    """Every read of the suite (the shared rows, the residual's stencils, the
    closed forms, the chain's companion and its mapped kernel columns, the
    undriven block, the probes and orthonormality) swapped for a whole-grid reader
    at offset 0: the report is the same, byte for byte, on the bundled
    scenarios and on the high-order documents of seeds 1 to 7
    (orthonormality to 16)."""
    from tdho.cli import build_context, load_scenario

    if name.startswith("high_n_"):
        label, seed = name[len("high_n_"):].split("/")
        doc = _high_n_document(random.Random(f"{label}/{seed}"), label)
        ctx = build_context(doc)
        ctx.orthonormality_nmax = 16
        checks, windowed = doc["checks"], run_suite(ctx, doc["checks"])
    else:
        ctx, checks = bundled_context(name), load_scenario(name)["checks"]
        windowed = bundled_results(name)
    monkeypatch.setattr(tdho.states, "state_kernel_window", _whole_grid_window)
    assert report_json(run_suite(ctx, checks)) == report_json(windowed)


def test_run_suite_reads_the_grid_through_windows_only(monkeypatch, bundled_context):
    """Every kernel call of run_suite, over the bundled scenarios and three
    documents with orders up to 64, is a window call: no whole-grid block
    and no one-order read."""
    from tdho.cli import build_context, load_scenario

    cases = [(bundled_context(name), load_scenario(name)["checks"]) for name in BUNDLED]
    for label in ("sho_stationary", "sho_breathing", "ck"):
        doc = _high_n_document(random.Random(f"{label}/windows"), label)
        cases.append((build_context(doc), doc["checks"]))
    calls = {}

    def counting(name):
        kernel = getattr(tdho.states, name)

        def count(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return kernel(*args, **kwargs)

        return count

    for name in ("state_kernel", "state_kernel_window"):
        monkeypatch.setattr(tdho.states, name, counting(name))
    for ctx, checks in cases:
        run_suite(ctx, checks)
    assert set(calls) == {"state_kernel_window"} and calls["state_kernel_window"] > 0


@pytest.mark.parametrize("name, check, message", [
    ("sho_c1", "residual", "‖H psi‖ = 0.0"),
    ("ck", "transform_chain", "direct ‖psi‖ = 0.0"),
    ("driven_ck", "transform_chain", "direct ‖psi‖ = 0.0"),
    ("sho_c1", "closed_form_agreement", "max|a| = 0.0"),
    ("driven_ck", "uncertainty", "moments: ‖psi‖² = 0.0"),
])
def test_a_grid_the_state_misses_is_a_degenerate_state(bundled_context, name, check,
                                                       message):
    """On a grid that no slice's cutoff window reaches every window is empty,
    and each check refuses the zero state it reads as such."""
    ctx = dataclasses.replace(bundled_context(name), grid=Grid(100.0, 112.0, 256))
    with pytest.raises(DegenerateStateError) as refused:
        run_suite(ctx, [check])
    assert message in str(refused.value) and "zero or not finite" in str(refused.value)
