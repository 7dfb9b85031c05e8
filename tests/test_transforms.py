"""Grid sampling, unitary building blocks, and the composed operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdho._kernels import state_kernel, state_kernel_window
from tdho.classical import null_driven, reduced_basis
from tdho.models import reduced_frequency_squared
from tdho.states import READ_DEPTH, StateSpec, _slice_params, state_field
from tdho.transforms import (
    BOUNDARY_RATIO,
    Grid,
    GridFunction,
    GridTooSmallError,
    apply_U0,
    apply_U0_dagger,
    apply_UF,
    apply_UF_dagger,
    hnew_coefficients,
    policy_grid,
    sample_on_grid,
    _affine,
    _affine_columns,
    _edge_ratio,
    _lagrange_eval,
    _refuse_unsupported,
    _U0_coefficients,
    _U0_dagger_coefficients,
    _UF_coefficients,
    _UF_dagger_coefficients,
    unit_mass_parameters,
)

from conftest import kernel_block

GRID = Grid(-14.0, 14.0, 4096)


def _gauss_field(x, t):
    return np.pi**-0.25 * np.exp(-((x - 0.3) ** 2) / 2.0) * np.exp(0.2j * x)


# _gauss_field as the kernel's six slice columns (gauss_im, scale, x_shift,
# k_lin, phase0, dphase) of order 0, whose h_0 = pi^{-1/4} holds the
# normalisation
_GAUSS = np.array([0.0, 1.0, 0.3, 0.2, 0.0, 0.0])


def _drawn(columns, n=0, x=GRID.xs()):
    """Order n of the state with the given kernel columns on x, read to
    LOG_FLOOR."""
    return state_kernel(x, n, *columns)


def _map_drawn(g, columns, n, op, depth=None, **params):
    """The map with params on the state whose kernel columns are columns
    (g its samples), drawn as order n on g's grid to depth and judged as
    the map on g would be (_refuse_unsupported)."""
    rows, offset = state_kernel_window(g.grid.xs(), [n],
                                       *_affine_columns(columns, g.hbar, **params),
                                       depth=depth)
    out = g._with(rows[0], offset)
    _refuse_unsupported(op, g, out, params.get("s", 1.0), params.get("d", 0.0))
    return out


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


@pytest.mark.parametrize("values,offset,message", [
    (np.ones(()), 0, "need (W,), (rows, W) or (times, rows, W) values"),
    (np.ones((2, 2, 2, 16)), 0, "need (W,), (rows, W) or (times, rows, W) values"),
    (np.ones(17), 0, "a window of 17 columns at offset 0 does not fit a grid of 16 points"),
    (np.ones((2, 8)), 9, "a window of 8 columns at offset 9 does not fit a grid of 16 points"),
    (np.ones(8), -1, "a window of 8 columns at offset -1 does not fit a grid of 16 points"),
], ids=["scalar", "four_axes", "too_wide", "past_the_end", "negative_offset"])
def test_grid_function_refuses_bad_ndim_and_windows_that_do_not_fit(values, offset,
                                                                    message):
    """A GridFunction refuses values of the wrong ndim and a window that does
    not fit its grid; a grid's spacing and size are Grid's refusals
    (test_grid_validation_and_accessors)."""
    with pytest.raises(ValueError) as refused:
        GridFunction(Grid(-1.0, 0.5, 16), values, 0.0, offset=offset)
    assert refused.type is ValueError and str(refused.value) == message


def test_sample_on_grid_samples_the_field():
    gf = sample_on_grid(_gauss_field, GRID, 0.0)
    assert (gf.t, gf.offset, gf.grid, gf.hbar) == (0.0, 0, GRID, 1.0)
    assert gf.values.tobytes() == _gauss_field(GRID.xs(), 0.0).tobytes()


def test_a_0d_time_samples_as_its_float(driven_ck):
    """A 0-d array time is one time, not a sequence: sampled at np.array(t),
    a state's GridFunction holds the float t and the bits of its read at t."""
    field = state_field(StateSpec(3, 1.0, *driven_ck))
    at_0d = sample_on_grid(field, GRID, np.array(1.3))
    at_float = sample_on_grid(field, GRID, 1.3)
    assert type(at_0d.t) is float and at_0d.t == at_float.t == 1.3
    assert at_0d.values.tobytes() == at_float.values.tobytes()


def test_boundary_ratio_and_compliance():
    gf = sample_on_grid(_gauss_field, GRID, 0.0)
    assert _edge_ratio(gf.values) < BOUNDARY_RATIO
    narrow = sample_on_grid(_gauss_field, Grid(-2.0, 2.0, 64), 0.0)
    assert _edge_ratio(narrow.values) >= BOUNDARY_RATIO


# ---------------------------------------------------------------------------
# primitive operators: each sets one parameter of _affine (on samples) and
# _affine_columns (on kernel columns), Dilation(a) being s = e^a
# ---------------------------------------------------------------------------

def test_dilation_action():
    a = 0.37
    out = _drawn(_affine_columns(_GAUSS, 1.0, s=np.exp(a)))
    want = np.exp(a / 2.0) * _gauss_field(np.exp(a) * GRID.xs(), 0.0)
    np.testing.assert_allclose(out, want, atol=1e-15)


def test_dilation_preserves_norm():
    gf = sample_on_grid(_gauss_field, GRID, 0.0)
    from tdho.verify import norm
    out = _affine(gf, "dilation", s=np.exp(0.5))
    assert norm(out) == pytest.approx(norm(gf), rel=1e-10)


def test_translation_action():
    out = _drawn(_affine_columns(_GAUSS, 1.0, d=1.25))
    np.testing.assert_allclose(out, _gauss_field(GRID.xs() - 1.25, 0.0), atol=1e-15)


def test_phase_factors():
    gf = sample_on_grid(_gauss_field, GRID, 0.0)
    x = GRID.xs()
    np.testing.assert_allclose(
        _affine(gf, "quadratic phase", alpha=0.4).values,
        np.exp(0.4j * x**2) * gf.values, rtol=1e-13, atol=1e-18)
    np.testing.assert_allclose(
        _affine(gf, "linear phase", k=-0.7).values,
        np.exp(-0.7j * x) * gf.values, rtol=1e-13, atol=1e-18)
    np.testing.assert_allclose(
        _affine(gf, "constant phase", c=2.1).values,
        np.exp(2.1j) * gf.values, rtol=1e-13, atol=1e-18)


def test_phases_respect_hbar():
    """On columns and on samples, k enters as k / hbar."""
    unboosted = _GAUSS * [1, 1, 1, 0, 1, 1]
    out = _drawn(_affine_columns(unboosted, 0.5, k=0.3))
    np.testing.assert_allclose(out, np.exp(0.6j * GRID.xs()) * _drawn(unboosted),
                               rtol=1e-15)
    gf = GridFunction(GRID, _gauss_field(GRID.xs(), 0.0), 0.0, hbar=0.5)
    np.testing.assert_allclose(_affine(gf, "linear phase", k=0.3).values,
                               np.exp(0.6j * GRID.xs()) * gf.values, rtol=1e-15)


def test_interpolated_path_accuracy():
    """On samples the dilation is a six-point Lagrange read."""
    gf = sample_on_grid(_gauss_field, GRID, 0.0)
    out = _affine(gf, "dilation", s=np.exp(0.37))
    want = np.exp(0.37 / 2.0) * _gauss_field(np.exp(0.37) * GRID.xs(), 0.0)
    err = np.max(np.abs(out.columns() - want))
    assert 1e-16 < err < 1e-9


def test_lagrange_read_reproduces_a_quintic():
    """A complex degree-5 polynomial is read back to rounding at the query
    points of a translation and a dilation, up to the last samples at either
    edge; every read outside the span is an exact zero.  The reads go to
    the reader itself: a polynomial is not negligible next to its edges, so
    the support guard refuses the maps themselves."""
    grid = Grid(-1.0, 1.0, 64)
    x, dx = grid.xs(), grid.dx
    d, a = 1.37 * dx, 0.3 * dx
    coeffs = (0.8 - 0.3j) * np.poly([grid.x_min + d, grid.x_max - d,
                                     0.3 + 0.2j, -0.5 - 0.1j, 0.7j])
    gf = GridFunction(grid, np.polyval(coeffs, x), 0.0)
    peak = np.max(np.abs(gf.values))
    for xq in (x - d, x + d, np.exp(a) * x):
        rows, j = _lagrange_eval(gf, xq)
        out = np.zeros(len(xq), dtype=complex)
        out[j:j + len(rows)] = rows
        inside = (xq >= grid.x_min) & (xq <= grid.x_max)
        assert not inside.all()
        assert np.all(out[~inside] == 0.0)
        assert xq[inside].min() < grid.x_min + 2.0 * dx
        assert xq[inside].max() > grid.x_max - 2.0 * dx
        err = np.abs(out[inside] - np.polyval(coeffs, xq[inside]))
        assert np.max(err) < 1e-12 * peak
    with pytest.raises(GridTooSmallError):
        _affine(gf, "translation", d=d)


def _psi_1(x, t):
    return np.sqrt(2.0) * np.pi**-0.25 * x * np.exp(-0.5 * x * x)


# psi_1 as kernel columns: h_1(x) = sqrt(2) pi^{-1/4} x
_PSI_1 = np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("on_columns", [True, False], ids=["source", "lagrange"])
@pytest.mark.parametrize("d", [10.0, 9.9])
def test_support_guard_sees_a_node_on_the_edge(d, on_columns):
    """psi_1 translated by d = 10 on [-10, 10] has its node on the last
    sample and half its norm off the grid; the sample next to it is not
    small, so the map is refused, like the one that stops 0.1 short, on
    the state's analytic source (its kernel columns) and on its samples."""
    g = sample_on_grid(_psi_1, Grid(-10.0, 10.0, 4096), 0.0)
    with pytest.raises(GridTooSmallError):
        if on_columns:
            _map_drawn(g, _PSI_1, 1, "translation", d=d)
        else:
            _affine(g, "translation", d=d)


def test_support_guard_raises():
    gf = sample_on_grid(_gauss_field, Grid(-3.0, 3.0, 256), 0.0)
    with pytest.raises(GridTooSmallError):
        _affine(gf, "dilation", s=np.exp(-1.0))  # reads e x, up to |x| ~ 8.1


def _stack(*fields):
    x = GRID.xs()
    return GridFunction(GRID, np.stack([f(x) for f in fields]), 0.0)


def _narrow(x):
    return np.exp(-0.5 * x**2) * np.exp(0.4j * x)


def _wide(x):  # about 4e-3 of its peak at the grid's edges
    return np.exp(-0.5 * (x / 4.0) ** 2)


def test_stacked_rows_equal_single_row_primitives():
    """Every primitive acts on (rows, points) values row by row: the
    Lagrange reads of a stack equal each row's own read bit for bit."""
    g = _stack(_narrow, lambda x: _narrow(x - 0.7))
    for op in (lambda f: _affine(f, "dilation", s=np.exp(0.2)),
               lambda f: _affine(f, "translation", d=1.3),
               lambda f: _affine(f, "quadratic phase", alpha=0.4),
               lambda f: _affine(f, "linear phase", k=-0.7),
               lambda f: _affine(f, "constant phase", c=2.1)):
        out = op(g).columns()
        assert out.shape == g.values.shape
        for i in range(2):
            row = op(GridFunction(g.grid, g.values[i], 0.0)).columns()
            np.testing.assert_array_equal(out[i], row)


@pytest.mark.parametrize("leaky_row", [0, 1])
def test_one_leaking_row_fails_the_support_guard(leaky_row):
    """The edge ratio of a stack is that of its worst row, so a stack in
    which one row alone reaches the edge is refused under dilation and
    translation, whichever row it is."""
    fields = [_narrow, _narrow]
    fields[leaky_row] = _wide
    g = _stack(*fields)
    alone = GridFunction(g.grid, g.values[1 - leaky_row], 0.0)
    assert _edge_ratio(g.values) == pytest.approx(_edge_ratio(g.values[leaky_row]))
    for op in (lambda f: _affine(f, "dilation", s=np.exp(-0.3)),
               lambda f: _affine(f, "translation", d=1.3)):
        op(alone)  # the compliant row on its own passes
        with pytest.raises(GridTooSmallError):
            op(g)


# ---------------------------------------------------------------------------
# composed operators
# ---------------------------------------------------------------------------

_COEFFICIENTS = {apply_U0: _U0_coefficients, apply_U0_dagger: _U0_dagger_coefficients,
                 apply_UF: _UF_coefficients, apply_UF_dagger: _UF_dagger_coefficients}


def _args(fused, model, driven, t):
    """The arguments before g of a composite, and of its coefficient
    function."""
    return (model, t) if fused in (apply_U0, apply_U0_dagger) else (model, driven, t)


def test_u0_dagger_closed_form(ck_basis):
    """U0^dag psi(x) = M^{1/4} e^{-i Mdot x^2 / 4 hbar} psi(sqrt(M) x), on the
    companion's kernel columns."""
    model = ck_basis.model
    t = 1.3
    M, dM = model.mass(t), model.dmass(t)
    spec = StateSpec(1, 1.0, reduced_basis(ck_basis))
    base = state_field(spec)
    columns = _affine_columns(_slice_params(spec, t), 1.0, *_U0_dagger_coefficients(model, t))
    x = GRID.xs()
    want = M**0.25 * np.exp(-0.25j * dM * x**2) * base(np.sqrt(M) * x, t)
    np.testing.assert_allclose(_drawn(columns, 1), want, atol=1e-14)


def _primitives(model, driven, t):
    """The four composites as products of the paper's primitives, one map
    per primitive with that primitive's parameter, acting right-to-left:
    Dilation(a) is s = e^a; Translation(d), QuadraticPhase(alpha),
    LinearPhase(k) and ConstPhase(c) set d, alpha, k and c."""
    M, dM = float(model.mass(t)), float(model.dmass(t))
    xp, dxp, delta = (float(q) for q in driven.slice(t))
    p = M * dxp
    return {
        apply_U0: [("quadratic phase", {"alpha": 0.25 * dM / M}),
                   ("dilation", {"s": np.exp(-0.5 * np.log(M))})],
        apply_U0_dagger: [("dilation", {"s": np.exp(0.5 * np.log(M))}),
                          ("quadratic phase", {"alpha": -0.25 * dM / M})],
        apply_UF: [("constant phase", {"c": delta}),
                   ("linear phase", {"k": p}),
                   ("translation", {"d": xp})],
        apply_UF_dagger: [("translation", {"d": -xp}),
                          ("linear phase", {"k": -p}),
                          ("constant phase", {"c": -delta})],
    }


# _narrow and _narrow(x - 0.7), normalised, as kernel columns of order 0
_NARROW = np.array([[0.0] * 2, [1.0] * 2, [0.0, 0.7], [0.4] * 2, [0.0, -0.28], [0.0] * 2])


@pytest.mark.parametrize("exact", [True, False], ids=["source", "lagrange"])
@pytest.mark.parametrize("rows", [1, 2])
def test_each_composite_is_the_product_of_its_primitives(driven_ck, exact, rows):
    """Each fused composite equals the composition of its primitives, on one
    state and on a stack: to rounding on the states' analytic source, their
    kernel columns (a stack of slices), and to the accuracy of the
    six-point read on their samples."""
    basis, drv = driven_ck
    model = basis.model
    t = 1.3
    assert model.dmass(t) != 0.0 and drv.slice(t)[0] != 0.0
    x = GRID.xs()
    columns = _NARROW[:, :rows]
    g = GridFunction(GRID, kernel_block(x, [0], *columns)[:, 0], t)
    if rows == 1:
        g = g[0]
    # the six-point reads of chirped and unchirped samples differ by the
    # read's own error, here about 1e-14
    tol = 1e-14 if exact else 1e-12
    for fused, primitives in _primitives(model, drv, t).items():
        args = _args(fused, model, drv, t)
        if exact:
            want = columns
            for _, params in reversed(primitives):
                want = _affine_columns(want, 1.0, **params)
            out = _affine_columns(columns, 1.0, *_COEFFICIENTS[fused](*args))
            out, want = (kernel_block(x, [0], *c)[:, 0] for c in (out, want))
        else:
            want = g
            for op, params in reversed(primitives):
                want = _affine(want, op, **params)
            out, want = fused(*args, g).columns(), want.columns()
        assert out.shape[-1] == GRID.points
        assert np.max(np.abs(out - want)) < tol, fused.__name__


def test_u0_inverts_u0_dagger(ck_basis):
    model = ck_basis.model
    gf = sample_on_grid(_gauss_field, GRID, 2.0)
    back = apply_U0(model, 2.0, apply_U0_dagger(model, 2.0, gf))
    np.testing.assert_allclose(back.values, gf.values, atol=1e-13)


def test_uf_action_and_inverse(driven_sho):
    """U_F and its inverse on kernel columns."""
    basis, drv = driven_sho
    model = basis.model
    t = 2.5
    out = _affine_columns(_GAUSS, 1.0, *_UF_coefficients(model, drv, t))
    x = GRID.xs()
    xp, dxp, delta = drv.slice(t)
    want = (np.exp(1j * delta) * np.exp(1j * model.mass(t) * dxp * x)
            * _gauss_field(x - xp, t))
    np.testing.assert_allclose(_drawn(out), want, atol=1e-13)
    back = _affine_columns(out, 1.0, *_UF_dagger_coefficients(model, drv, t))
    np.testing.assert_allclose(_drawn(back), _gauss_field(x, t), atol=1e-13)


def test_chain_reproduces_driven_state_exactly(driven_sho):
    """U_F U0^dag on the reduced eigenstate's kernel columns gives the
    driven state."""
    basis, drv = driven_sho
    model = basis.model
    t = 1.0
    columns = _slice_params(StateSpec(2, 1.0, reduced_basis(basis)), t)
    columns = _affine_columns(columns, 1.0, *_U0_dagger_coefficients(model, t))
    columns = _affine_columns(columns, 1.0, *_UF_coefficients(model, drv, t))
    direct = state_field(StateSpec(2, 1.0, basis, drv))(GRID.xs(), t)
    assert np.max(np.abs(_drawn(columns, 2) - direct)) < 1e-13


# a displaced, chirped, boosted packet at hbar = 0.5 as kernel columns
_PACKET_HBAR = 0.5
_PACKET = np.array([0.2, 1.3, 1.1, 1.0, 0.3, 0.7])


@pytest.mark.parametrize("fused", list(_COEFFICIENTS), ids=lambda f: f.__name__)
def test_the_column_map_is_the_map_on_samples(driven_ck, fused):
    """Each composite's map on a packet's kernel columns, drawn as orders 0
    and 3, equals the composite on the packet's samples (to the six-point
    read's accuracy) and the map's formula sqrt(s) e^{i((alpha x + k) x +
    c)/hbar} psi(s x - d) (to rounding), at each of three times; mapped as
    one stack over the times, each slice is its time's map bit for bit.
    The packet is displaced, so the quadratic phase's terms in k_lin and
    phase0 are tested."""
    basis, drv = driven_ck
    model = basis.model
    times = [0.4, 1.3, 2.1]
    x = GRID.xs()
    g = GridFunction(GRID, kernel_block(x, [0, 3], *_PACKET), times[0], hbar=_PACKET_HBAR)
    assert _edge_ratio(g.values) < BOUNDARY_RATIO
    coefficients = [_COEFFICIENTS[fused](*_args(fused, model, drv, t)) for t in times]
    stack = _affine_columns(np.repeat(_PACKET[:, None], len(times), axis=1), _PACKET_HBAR,
                            *np.array(coefficients).T)
    for j, (t, (s, d, alpha, k, c)) in enumerate(zip(times, coefficients)):
        columns = _affine_columns(_PACKET, _PACKET_HBAR, s, d, alpha, k, c)
        assert columns.tobytes() == stack[:, j].tobytes()
        out = kernel_block(x, [0, 3], *columns)
        peak = np.max(np.abs(out))
        formula = (np.sqrt(s) * np.exp(1j * ((alpha * x + k) * x + c) / _PACKET_HBAR)
                   * kernel_block(s * x - d, [0, 3], *_PACKET))
        assert np.max(np.abs(out - formula)) < 1e-14 * peak, (fused.__name__, t)
        samples = fused(*_args(fused, model, drv, t), g._with(g.values, t=t)).columns()
        assert np.max(np.abs(out - samples)) < 1e-11 * peak, (fused.__name__, t)


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
        spec = StateSpec(n, 1.0, ck_basis)
        for t in (0.0, 2.5):
            gf = sample_on_grid(state_field(spec), grid, t)
            assert _edge_ratio(gf.values) < BOUNDARY_RATIO


def test_policy_grid_covers_reduced_companion(ck_basis):
    """The same grid must hold the unit-mass state fed into the chain."""
    red = reduced_basis(ck_basis)
    grid = policy_grid(ck_basis, 3, 1.0, times=[0.0, 2.5])
    spec = StateSpec(3, 1.0, red)
    for t in (0.0, 2.5):
        gf = sample_on_grid(state_field(spec), grid, t)
        assert _edge_ratio(gf.values) < BOUNDARY_RATIO


def test_policy_grid_tracks_driven_excursion(driven_ck):
    basis, drv = driven_ck
    grid = policy_grid(basis, 2, 1.0, driven=drv, times=[0.0, 2.5])
    spec = StateSpec(2, 1.0, basis, drv)
    for t in (0.0, 1.0, 2.5):
        gf = sample_on_grid(state_field(spec), grid, t)
        assert _edge_ratio(gf.values) < BOUNDARY_RATIO


def test_policy_grid_without_driving_ignores_xp(sho_basis_c1):
    g1 = policy_grid(sho_basis_c1, 0, 1.0, times=[0.0, 1.0])
    g2 = policy_grid(sho_basis_c1, 0, 1.0, driven=null_driven(sho_basis_c1.model),
                     times=[0.0, 1.0])
    assert g1.x_min == pytest.approx(g2.x_min)
    assert g1.x_max == pytest.approx(g2.x_max)


# ---------------------------------------------------------------------------
# windows: a map reads and writes a window of columns of its grid
# ---------------------------------------------------------------------------

WINDOW_GRID = Grid(-8.0, 8.0, 256)


def _window_pair(offset, width, rows, seed):
    """(whole, window): one set of samples as a whole-grid function that is
    zero outside the columns offset .. offset + width - 1, and as the
    window of those columns."""
    values = np.random.default_rng(seed).standard_normal((rows, width, 2)) @ [1.0, 1j]
    values = values if rows > 1 else values[0]
    whole = np.zeros(values.shape[:-1] + (WINDOW_GRID.points,), dtype=complex)
    whole[..., offset:offset + width] = values
    return (GridFunction(WINDOW_GRID, whole, 0.0),
            GridFunction(WINDOW_GRID, values, 0.0, offset=offset))


def _padded(values, offset, points):
    out = np.zeros(np.shape(values)[:-1] + (points,), dtype=complex)
    out[..., offset:offset + np.shape(values)[-1]] = values
    return out


def _refusal(op):
    try:
        return op(), None
    except GridTooSmallError as e:
        return None, str(e)


@settings(max_examples=80, deadline=None)
@given(s=st.floats(0.4, 2.5), d=st.floats(-4.0, 4.0), offset=st.integers(0, 250),
       width=st.integers(0, 120), rows=st.integers(1, 3), alpha=st.floats(-0.5, 0.5))
def test_a_window_maps_as_the_whole_grid(s, d, offset, width, rows, alpha):
    """_lagrange_eval and _affine on a window equal the whole-grid map of
    the zero-padded samples bit for bit on the output window, every other
    column of the whole-grid map is an exact zero, and a refusal of one is
    the refusal of the other, message and all."""
    width = min(width, WINDOW_GRID.points - offset)
    whole, window = _window_pair(offset, width, rows, seed=offset + 1000 * width)
    xq = s * WINDOW_GRID.xs() - d
    (w_rows, w_j), (v_rows, v_j) = _lagrange_eval(whole, xq), _lagrange_eval(window, xq)
    want = _padded(w_rows, w_j, len(xq))
    assert want[..., v_j:v_j + v_rows.shape[-1]].tobytes() == v_rows.tobytes()
    assert np.array_equal(_padded(v_rows, v_j, len(xq)), want)
    (w_out, w_err), (v_out, v_err) = (
        _refusal(lambda g=g: _affine(g, "map", s=s, d=d, alpha=alpha))
        for g in (whole, window))
    assert w_err == v_err
    if v_out is not None:
        got = v_out.values
        want = w_out.columns()
        assert want[..., v_out.offset:v_out.offset + got.shape[-1]].tobytes() == got.tobytes()
        assert np.array_equal(v_out.columns(), want)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(points=st.integers(16, 48), lead=st.sampled_from([(), (2,), (3, 2)]),
       data=st.data())
def test_columns_read_a_window_with_zeros_around_it(points, lead, data):
    """columns(lo, hi) is the slice lo:hi of the samples zero-padded to the
    whole grid, for a window at any offset and of any width (0 included)
    and any range of the grid, inside, overlapping or outside the window,
    on 1-, 2- and 3-D values; it is a view of the values when the window
    holds the range, and the whole grid by default."""
    offset = data.draw(st.integers(0, points), label="offset")
    width = data.draw(st.integers(0, points - offset), label="width")
    lo = data.draw(st.integers(0, points), label="lo")
    hi = data.draw(st.integers(lo, points), label="hi")
    values = np.random.default_rng(width).standard_normal(lead + (width, 2)) @ [1.0, 1j]
    t = tuple(range(lead[0])) if len(lead) == 2 else 0.0
    g = GridFunction(Grid(-1.0, 1.0, points), values, t, offset=offset)
    whole = np.zeros(lead + (points,), dtype=complex)
    whole[..., offset:offset + width] = values
    got = g.columns(lo, hi)
    assert got.shape == lead + (hi - lo,) and got.dtype == np.complex128
    assert got.tobytes() == whole[..., lo:hi].tobytes()
    inside = offset <= lo and hi <= offset + width
    assert (got.base is g.values) == inside
    if inside and got.size:
        assert np.shares_memory(got, g.values)
    assert g.columns().tobytes() == whole.tobytes()


def test_a_stack_over_times_gives_views_at_their_times():
    """Indexing or iterating a stack over times gives each time's window, a
    view of the stack at that time; indexing one time's rows gives a row at
    that time, and a slice of the stack keeps its times."""
    values = np.random.default_rng(5).standard_normal((3, 2, 7, 2)) @ [1.0, 1j]
    grid = Grid(-1.0, 2.1, 32)
    g = GridFunction(grid, values, [0.5, 1.5, 2.5], hbar=0.7, offset=4)
    assert g.t == (0.5, 1.5, 2.5) and len(list(g)) == 3
    for j, at in enumerate(g):
        assert (at.t, at.hbar, at.offset, at.grid) == (0.5 + j, 0.7, 4, grid)
        assert at.values.shape == (2, 7) and np.shares_memory(at.values, g.values)
        assert at.values.tobytes() == values[j].tobytes()
        row = at[1]
        assert row.t == at.t and row.values.tobytes() == values[j, 1].tobytes()
        assert np.shares_memory(row.values, g.values)
    later = g[1:]
    assert later.t == (1.5, 2.5) and np.shares_memory(later.values, g.values)


def test_a_window_narrower_than_sixteen_samples_maps():
    """The 16-sample minimum is the grid's, not the window's: a 5-column
    window and an empty one map, read and pad."""
    whole, window = _window_pair(100, 5, 2, seed=3)
    narrow = _affine(window, "translation", d=0.3)
    assert narrow.grid == WINDOW_GRID and narrow.values.shape[-1] < 16
    assert np.array_equal(narrow.columns(),
                          _affine(whole, "translation", d=0.3).columns())
    assert np.array_equal(window.x, whole.x[100:105])
    empty = GridFunction(WINDOW_GRID, np.zeros((2, 0)), 0.0, offset=7)
    moved = _affine(empty, "dilation", s=1.5)
    assert moved.values.shape == (2, 0)
    assert not np.any(moved.columns())
    with pytest.raises(ValueError) as refused:
        GridFunction(Grid(0.0, 1.5, 16), np.ones(5), 0.0, offset=12)
    assert str(refused.value) == "a window of 5 columns at offset 12 does not fit a grid of 16 points"


def test_the_retry_hint_widens_the_whole_grid_about_its_centre():
    """A Gaussian at 6 on [2, 10] translated by 3.5 reaches the grid's right
    edge; the hint names a grid about the centre 6 that covers [2, 10],
    and the window of the samples' nonzero columns gets the same hint."""
    grid = Grid(2.0, 10.0, 256)
    x = grid.xs()
    values = np.where(np.abs(x - 6.0) < 3.0, np.exp(-0.5 * (x - 6.0) ** 2), 0.0)
    whole = GridFunction(grid, values, 0.0)
    live = np.flatnonzero(values)
    window = GridFunction(grid, values[live[0]:live[-1] + 1], 0.0, offset=live[0])
    hints = []
    for g in (whole, window):
        with pytest.raises(GridTooSmallError) as refused:
            _affine(g, "translation", d=3.5)
        hints.append(str(refused.value))
    assert hints[0] == hints[1]
    lo, hi = (float(v) for v in hints[0].split("[")[1].rstrip("]").split(","))
    assert lo < 2.0 and hi > 10.0
    assert 0.5 * (lo + hi) == pytest.approx(6.0, abs=0.05)


def test_a_map_that_moves_the_state_off_the_grid_is_refused():
    """On [-10, 10], psi_0 translated by 40 leaves nothing on the grid: the
    map on its samples and on its kernel columns drawn to the certifier's
    depth (which holds no grid point) refuse it, as the boundary ratio
    refuses d = 8 on the samples and d = 40 on the columns drawn at full
    depth."""
    from tdho.classical import analytic_basis_sho
    from tdho.models import CaldirolaKanai

    grid = Grid(-10.0, 10.0, 4096)
    spec = StateSpec(0, 1.0, analytic_basis_sho(CaldirolaKanai(1.0, 0.0, 1.0)))
    g = sample_on_grid(state_field(spec), grid, 0.0)
    columns = _slice_params(spec, 0.0)
    maps = {
        "samples": lambda d: _affine(g, "translation", d=d),
        "shallow": lambda d: _map_drawn(g, columns, 0, "translation", READ_DEPTH, d=d),
        "full_depth": lambda d: _map_drawn(g, columns, 0, "translation", d=d),
    }
    for form in ("samples", "shallow"):
        with pytest.raises(GridTooSmallError) as refused:
            maps[form](40.0)
        assert str(refused.value) == (
            "translation moved every sample off the grid [-10, 10]; retry on a grid "
            "covering roughly [-10, 50]")
    for form, d in (("samples", 8.0), ("full_depth", 40.0)):
        with pytest.raises(GridTooSmallError, match="left boundary ratio"):
            maps[form](d)
