"""Eigenstate construction: kernel wrappers, closed forms, grid dumps."""

import json
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import simpson

from tdho.classical import OverdampedError, null_driven, reduced_basis
from tdho.models import CaldirolaKanai, GeneralParametric, LoDampedPulsating
from tdho.scenarios import BUNDLED
from tdho.cli import build_context, load_scenario, main
from tdho._kernels import cutoff_window, state_kernel, state_kernel_window
from tdho.states import (
    READ_DEPTH,
    StateSpec,
    _closed_columns,
    _slice_params,
    _x_column,
    closed_form_law,
    closed_form_window,
    dump_state_grid,
    psi_ck,
    psi_driven,
    psi_general,
    psi_lo,
    psi_sho,
    psi_unit_mass,
    state_field,
    state_window,
)
from tdho.transforms import Grid

from conftest import on_grid

X = np.linspace(-12.0, 12.0, 4097)


def _norm(values, x=X):
    return np.sqrt(simpson(np.abs(values) ** 2, x=x))


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

def test_state_spec_rejects_bad_inputs(sho_basis_c1):
    with pytest.raises(ValueError, match="non-negative"):
        StateSpec(-1, 1.0, sho_basis_c1)
    with pytest.raises(ValueError, match="hbar"):
        StateSpec(0, 0.0, sho_basis_c1)


def test_state_spec_requires_driven_for_driving_model(driven_sho):
    basis, drv = driven_sho
    with pytest.raises(ValueError, match="driving"):
        StateSpec(0, 1.0, basis)
    with pytest.raises(ValueError, match="another model"):
        StateSpec(0, 1.0, basis, null_driven(reduced_basis(basis).model))
    spec = StateSpec(0, 1.0, basis, drv)
    assert spec.describe()["driven"]["t0"] == 0.0


def test_psi_unit_mass_requires_unit_mass(ck_basis):
    spec = StateSpec(0, 1.0, ck_basis)
    with pytest.raises(ValueError, match="unit-mass"):
        psi_unit_mass(spec, X, 1.0)


_TABLE = np.linspace(0.0, 3.0, 4)


@pytest.mark.parametrize("build,error,message", [
    (lambda: StateSpec(0, 1.0, SimpleNamespace(omega=0.0)), ValueError,
     "basis invariant Omega must be positive"),
    (lambda: psi_ck(1.0, 3.0, 1.0, 1.0, 0, 1.0, X, 1.0), OverdampedError,
     "w_c^2 = -1.25 <= 0: overdamped regime not supported"),
    (lambda: closed_form_window(
        GeneralParametric(_TABLE, np.ones(4), np.zeros(4), np.zeros(4), np.ones(4)),
        1.0, [0], 1.0, X, 1.0), ValueError, "GeneralParametric has no closed-form state"),
    (lambda: psi_sho(0.0, 1.0, 0, 1.0, X, 1.0), ValueError, "w_s must be positive"),
    (lambda: psi_sho(-1.0, 1.0, 0, 1.0, X, 1.0), ValueError, "w_s must be positive"),
], ids=["omega", "overdamped", "no_closed_form", "w_s_zero", "w_s_negative"])
def test_states_refuse_what_they_cannot_build(build, error, message):
    with pytest.raises(ValueError) as refused:
        build()
    assert refused.type is error and str(refused.value) == message


def test_psi_lo_rejects_nonpositive_mass_and_frequency():
    with pytest.raises(ValueError, match="m0"):
        psi_lo(0.0, 0.1, 0.2, 3.0, 1.0, 1.0, 0, 1.0, X, 1.0)
    with pytest.raises(ValueError, match="w_lo"):
        psi_lo(1.0, 0.1, 0.2, 3.0, -1.0, 1.0, 0, 1.0, X, 1.0)


@pytest.mark.parametrize("Ccoef", [0.0, -1.0])
@pytest.mark.parametrize("psi", [
    lambda C: psi_sho(1.0, C, 0, 1.0, X, 1.0),
    lambda C: psi_ck(1.0, 0.6, 1.0, C, 0, 1.0, X, 1.0),
    lambda C: psi_lo(1.0, 0.1, 0.2, 3.0, 1.0, C, 0, 1.0, X, 1.0),
], ids=["sho", "ck", "lo"])
def test_closed_forms_refuse_nonpositive_ccoef(psi, Ccoef):
    """Every family refuses C <= 0 with one message, not a math domain error."""
    with pytest.raises(ValueError, match="^Ccoef must be positive$"):
        psi(Ccoef)


def test_psi_driven_requires_driven(sho_basis_c1):
    spec = StateSpec(0, 1.0, sho_basis_c1)
    with pytest.raises(ValueError, match="DrivenSolution"):
        psi_driven(spec, X, 1.0)


# ---------------------------------------------------------------------------
# stationary ground truth
# ---------------------------------------------------------------------------

def test_ground_state_is_gaussian_with_half_phase(sho_basis_c1):
    """C = 1: psi_0 = pi^{-1/4} e^{-x^2/2} e^{-i t/2} for all t."""
    spec = StateSpec(0, 1.0, sho_basis_c1)
    for t in (0.0, 1.1, 7.3):
        got = psi_unit_mass(spec, X, t)
        want = np.pi**-0.25 * np.exp(-X**2 / 2.0) * np.exp(-0.5j * t)
        np.testing.assert_allclose(got, want, atol=1e-15)


@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_states_are_normalized(sho_basis_c2, n):
    spec = StateSpec(n, 1.0, sho_basis_c2)
    assert _norm(psi_general(spec, X, 2.0)) == pytest.approx(1.0, abs=1e-10)


def test_orthogonality_small_block(ck_basis):
    specs = [StateSpec(n, 1.0, ck_basis) for n in range(4)]
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
    spec = StateSpec(n, 1.0, sho_basis_c2)
    a = psi_sho(1.0, 2.0, n, 1.0, X, t)
    b = psi_general(spec, X, t)
    assert np.max(np.abs(a - b)) < 1e-13


@pytest.mark.parametrize("n", [0, 2])
def test_psi_ck_equals_general_over_analytic_basis(ck_basis, n):
    spec = StateSpec(n, 1.0, ck_basis)
    for t in (0.0, 2.5):
        a = psi_ck(1.0, 0.6, 1.0, 1.0, n, 1.0, X, t)
        b = psi_general(spec, X, t)
        assert np.max(np.abs(a - b)) < 1e-13


@pytest.mark.parametrize("n", [0, 2])
def test_psi_lo_equals_general_over_numeric_basis(lo_basis, lo_model, n):
    spec = StateSpec(n, 1.0, lo_basis)
    for t in (0.0, 2.5):
        a = psi_lo(1.0, 0.1, 0.2, 3.0, 1.0, 1.0, n, 1.0, X, t)
        b = psi_general(spec, X, t)
        assert np.max(np.abs(a - b)) < 1e-9


def _psi_sho(model, *args):
    return psi_sho(model.w1, *args)


def _psi_ck(model, *args):
    return psi_ck(model.m, model.gamma, model.w1, *args)


def _psi_lo(model, *args):
    return psi_lo(model.m0, model.gamma, model.mu, model.nu, model.w_lo, *args)


@pytest.mark.parametrize("depth", [None, 80.0])
@pytest.mark.parametrize("model, C, psi", [
    (CaldirolaKanai(1.0, 0.0, 1.3, t_min=-1.0, t_max=12.0), 1.0, _psi_sho),
    (CaldirolaKanai(1.0, 0.0, 1.3, t_min=-1.0, t_max=12.0), 2.0, _psi_sho),
    (CaldirolaKanai(1.0, 0.6, 1.0, t_min=-1.0, t_max=12.0), 1.0, _psi_ck),
    (LoDampedPulsating(1.0, 0.1, 0.2, 3.0, 1.0, t_min=-1.0, t_max=12.0), 1.5, _psi_lo),
], ids=["sho_c1", "sho_c2", "ck", "lo"])
def test_stacked_closed_form_block_is_per_time(model, C, psi, depth):
    """The closed form's slice columns over a 1-D sequence of times (one
    time twice, an integer one too), read in one kernel call to LOG_FLOOR
    or to a depth and zero-padded to the whole grid, hold, time by time,
    the bytes of its one-time calls; its window is the union of theirs.
    closed_form_window is that read at READ_DEPTH.  The family's psi at
    each time is the kernel of that time's slice in the stack (at t = 3.5,
    math.exp(0.6 t) is not np.exp's)."""
    times = [0.0, 2.5, 1, 7.25, 2.5, 3.5]
    orders, n = [24, 0, 5], 5
    law = closed_form_law(model)

    def read(t, depth=depth):
        return state_kernel_window(X, orders, *_closed_columns(law, C, 0.8, t),
                                   depth=depth)

    window, offset = read(times)
    stack = on_grid((window, offset), len(X))
    assert stack.shape == (len(times), len(orders), len(X))
    assert on_grid(closed_form_window(model, C, orders, 0.8, X, times), len(X)).tobytes() \
        == on_grid(read(times, READ_DEPTH), len(X)).tobytes()
    columns = _closed_columns(law, C, 0.8, times)
    spans = []
    for i, (t, rows) in enumerate(zip(times, stack)):
        one = read(t)
        assert rows.tobytes() == on_grid(one, len(X)).tobytes()
        spans.append((one[1], one[1] + one[0].shape[-1]))
        want = state_kernel(X, n, *columns[:, i])
        assert psi(model, C, n, 0.8, X, t).tobytes() == want.tobytes(), t
    assert (offset, offset + window.shape[-1]) == (min(a for a, _ in spans),
                                                   max(b for _, b in spans))


# a stack of times, some twice, on [-1, 6]
STACK = np.concatenate([np.linspace(-1.0, 6.0, 29), [2.5, 0.0, 2.5]])


def _stack_spec(name):
    """Order 3 of the bundled ck scenario over its numeric basis or over the
    basis's reduced companion, or of driven_ck with its particular path."""
    ctx = build_context(load_scenario("driven_ck" if name == "driven_ck" else "ck"))
    basis = reduced_basis(ctx.basis) if name == "companion" else ctx.basis
    return StateSpec(3, ctx.hbar, basis, ctx.driven)


@pytest.mark.parametrize("name", ["ck", "driven_ck", "companion"])
def test_a_stack_of_times_reads_as_one_call_per_time(name):
    """state_window over a stack of times holds, time by time, the bytes of
    its one-time calls; at each time the cutoff window of its one-time
    slice is that of its slice in the stack, and the state's field is the
    kernel of that slice."""
    spec = _stack_spec(name)
    assert (spec.driven is not None) == (name == "driven_ck")
    orders = [7, 0, 3]
    stack = on_grid(state_window(spec, X, STACK, orders), len(X))
    params = _slice_params(spec, STACK)
    field = state_field(spec)
    for i, t in enumerate(STACK.tolist()):
        one = on_grid(state_window(spec, X, t, orders), len(X))
        assert stack[i].tobytes() == one.tobytes(), t
        _, scale, x_shift = params[:3, i]
        one_time = cutoff_window(X, spec.n, *_slice_params(spec, t)[1:3])
        assert one_time == cutoff_window(X, spec.n, scale, x_shift)
        want = state_kernel(X, spec.n, *params[:, i])
        assert field(X, t).tobytes() == want.tobytes(), t


@pytest.mark.parametrize("name", BUNDLED)
def test_a_field_read_is_its_orders_row_of_the_stacked_window_read(name):
    """For each order of a bundled scenario, one full-depth (LOG_FLOOR)
    state_kernel_window read of its slices at all its times, zero-padded to
    its grid, holds at each time the bytes of state_field there: order n's
    phase (n + 1/2) theta + delta/hbar is formed in the kernel alone."""
    ctx = build_context(load_scenario(name))
    xs = ctx.grid.xs()
    for n in ctx.ns:
        spec = ctx.state(n)
        stack = on_grid(state_kernel_window(xs, [n], *_slice_params(spec, ctx.times)),
                        len(xs))
        field = state_field(spec)
        for t, rows in zip(ctx.times, stack):
            assert rows[0].tobytes() == field(xs, t).tobytes(), (n, t)


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
    spec_f = StateSpec(2, 1.0, basis, drv)
    spec_0 = StateSpec(2, 1.0, basis, null_driven(basis.model))
    t = 2.5
    xp = drv.slice(t)[0]
    a = psi_driven(spec_f, X, t)
    b = psi_driven(spec_0, X - xp, t)
    np.testing.assert_allclose(np.abs(a), np.abs(b), atol=1e-13)


def test_driven_phase_structure(driven_sho):
    """Dividing out the shifted state leaves e^{i(M xdot_p x + delta)/hbar}."""
    basis, drv = driven_sho
    spec_f = StateSpec(0, 1.0, basis, drv)
    spec_0 = StateSpec(0, 1.0, basis, null_driven(basis.model))
    t = 1.0
    xp, dxp, delta = drv.slice(t)
    a = psi_driven(spec_f, X, t)
    b = psi_general(spec_0, X - xp, t)
    mask = np.abs(b) > 1e-8
    ratio = a[mask] / b[mask]
    want = np.exp(1j * (dxp * X[mask] + delta))
    np.testing.assert_allclose(ratio, want, atol=1e-10)


# ---------------------------------------------------------------------------
# field wrappers and dumps
# ---------------------------------------------------------------------------

def test_state_field_picks_driven_path(driven_sho):
    basis, drv = driven_sho
    spec = StateSpec(0, 1.0, basis, drv)
    field = state_field(spec)
    t = 2.5
    np.testing.assert_allclose(field(X, t), psi_driven(spec, X, t), rtol=1e-15)


def test_dump_state_grid_layout_and_determinism(tmp_path, sho_basis_c1):
    spec = StateSpec(1, 1.0, sho_basis_c1)
    field = state_field(spec)
    grid = Grid(-8.0, 8.0, 129)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    side1 = dump_state_grid(field, grid, 0.5, p1)
    dump_state_grid(field, grid, 0.5, p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().strip().split("\n")
    assert lines[0] == "x,re_psi,im_psi,abs2"
    assert len(lines) == 130
    doc = json.loads((tmp_path / "a.csv.json").read_text())
    assert doc["n"] == 1 and doc["hbar"] == 1.0 and doc["t"] == 0.5
    assert doc["grid"] == {"x_min": -8.0, "x_max": 8.0, "points": 129}
    # the schema family UnitMassSHO is the CaldirolaKanai model at m = 1, gamma = 0
    assert doc["model"]["family"] == "CaldirolaKanai"
    assert doc["model"]["params"] == {"m": 1.0, "gamma": 0.0, "w1": 1.0}
    assert side1.endswith(".json")


def test_dump_state_grid_text_equals_per_row_formula(tmp_path, sho_basis_c1):
    """The CSV is the text of a per-row `%.17g` of x, re, im and
    abs(psi)**2 over numpy scalars, tails that underflow included."""
    field = state_field(StateSpec(3, 1.0, sho_basis_c1))
    grid = Grid(-40.0, 40.0, 801)
    x = grid.xs()
    values = field(x, 0.5)
    assert np.any(values.real == 0.0) and np.any(values.imag == 0.0)
    assert np.any((np.abs(values) > 0.0) & (np.abs(values) < 1e-200))
    dump_state_grid(field, grid, 0.5, tmp_path / "a.csv")
    expected = "x,re_psi,im_psi,abs2\n" + "".join(
        "%.17g,%.17g,%.17g,%.17g\n" % (xi, vi.real, vi.imag, abs(vi) ** 2)
        for xi, vi in zip(x, values))
    assert (tmp_path / "a.csv").read_text() == expected


def test_a_state_run_formats_its_x_column_once(tmp_path, capsys):
    """`tdho state` over several orders and times formats its grid's x column
    once, and every CSV's x column is the `%.17g` of grid.xs()."""
    grid = build_context(load_scenario("sho_c1")).grid
    _x_column.cache_clear()
    assert main(["state", "sho_c1", "--out", str(tmp_path)]) == 0
    written = capsys.readouterr().out.split()
    assert len(written) > 2
    info = _x_column.cache_info()
    assert (info.misses, info.hits) == (1, len(written) - 1)
    want = ["%.17g" % v for v in grid.xs()]
    for path in written:
        with open(path, encoding="utf-8") as fh:
            assert [line.split(",")[0] for line in fh.read().split()[1:]] == want


def test_reduced_companion_state_is_unit_mass_eigenstate(ck_basis):
    """The sqrt(M)-scaled pair gives a normalized state of the w0 system."""
    red = reduced_basis(ck_basis)
    spec = StateSpec(0, 1.0, red)
    vals = psi_unit_mass(spec, X, 2.0)
    assert _norm(vals) == pytest.approx(1.0, abs=1e-10)
