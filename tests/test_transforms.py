"""Grid sampling, unitary building blocks, and the composed operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdho.classical import null_driven, reduced_basis
from tdho.models import reduced_frequency_squared
from tdho.states import StateSpec, state_field
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
    _edge_ratio,
    _lagrange_eval,
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


def test_sample_on_grid_attaches_source():
    gf = sample_on_grid(_gauss_field, GRID, 0.0)
    # source is the field with t frozen in, for exact off-grid reads: a
    # window on the query points that holds them all
    assert gf.source is not None
    xq = np.array([-4.56, 0.123])
    values, offset = gf.source(xq)
    assert offset == 0
    np.testing.assert_allclose(values, _gauss_field(xq, 0.0), rtol=1e-15)
    assert gf.t == 0.0
    np.testing.assert_allclose(gf.values, _gauss_field(GRID.xs(), 0.0))
    bare = sample_on_grid(_gauss_field, GRID, 0.0, attach_source=False)
    assert bare.source is None


def test_boundary_ratio_and_compliance():
    gf = sample_on_grid(_gauss_field, GRID, 0.0)
    assert _edge_ratio(gf.values) < BOUNDARY_RATIO
    narrow = sample_on_grid(_gauss_field, Grid(-2.0, 2.0, 64), 0.0)
    assert _edge_ratio(narrow.values) >= BOUNDARY_RATIO


# ---------------------------------------------------------------------------
# primitive operators (exact source path): each sets one parameter of
# _affine, Dilation(a) being s = e^a
# ---------------------------------------------------------------------------

def test_dilation_action():
    gf = sample_on_grid(_gauss_field, GRID, 0.0)
    a = 0.37
    out = _affine(gf, "dilation", s=np.exp(a))
    want = np.exp(a / 2.0) * _gauss_field(np.exp(a) * GRID.xs(), 0.0)
    np.testing.assert_allclose(out.values, want, atol=1e-15)


def test_dilation_preserves_norm():
    gf = sample_on_grid(_gauss_field, GRID, 0.0)
    from tdho.verify import norm
    out = _affine(gf, "dilation", s=np.exp(0.5))
    assert norm(out) == pytest.approx(norm(gf), rel=1e-10)


def test_translation_action():
    gf = sample_on_grid(_gauss_field, GRID, 0.0)
    out = _affine(gf, "translation", d=1.25)
    np.testing.assert_allclose(out.values,
                               _gauss_field(GRID.xs() - 1.25, 0.0), atol=1e-15)


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
    gf = GridFunction(GRID, _gauss_field(GRID.xs(), 0.0), 0.0, hbar=0.5,
                      source=_gauss_field)
    out = _affine(gf, "linear phase", k=0.3)
    np.testing.assert_allclose(out.values,
                               np.exp(0.6j * GRID.xs()) * gf.values, rtol=1e-15)


def test_interpolated_path_accuracy():
    """Without a source the dilation falls back to a six-point Lagrange read."""
    gf = sample_on_grid(_gauss_field, GRID, 0.0, attach_source=False)
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


@pytest.mark.parametrize("attach_source", [True, False], ids=["source", "lagrange"])
@pytest.mark.parametrize("d", [10.0, 9.9])
def test_support_guard_sees_a_node_on_the_edge(d, attach_source):
    """psi_1 translated by d = 10 on [-10, 10] has its node on the last
    sample and half its norm off the grid; the sample next to it is not
    small, so the map is refused, like the one that stops 0.1 short."""
    g = sample_on_grid(_psi_1, Grid(-10.0, 10.0, 4096), 0.0,
                       attach_source=attach_source)
    with pytest.raises(GridTooSmallError):
        _affine(g, "translation", d=d)


def test_support_guard_raises():
    gf = sample_on_grid(_gauss_field, Grid(-3.0, 3.0, 256), 0.0,
                        attach_source=False)
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

def test_u0_dagger_closed_form(ck_basis):
    """U0^dag psi(x) = M^{1/4} e^{-i Mdot x^2 / 4 hbar} psi(sqrt(M) x)."""
    model = ck_basis.model
    t = 1.3
    M, dM = model.mass(t), model.dmass(t)
    spec = StateSpec(1, 1.0, reduced_basis(ck_basis))
    base = state_field(spec)
    gf = sample_on_grid(base, GRID, t)
    out = apply_U0_dagger(model, t, gf)
    x = GRID.xs()
    want = M**0.25 * np.exp(-0.25j * dM * x**2) * base(np.sqrt(M) * x, t)
    np.testing.assert_allclose(out.values, want, atol=1e-14)


def _primitive_products(model, driven, t):
    """The four composites as products of the paper's primitives, one _affine
    map per primitive with that primitive's parameter, acting right-to-left:
    Dilation(a) is s = e^a; Translation(d), QuadraticPhase(alpha),
    LinearPhase(k) and ConstPhase(c) set d, alpha, k and c."""
    M, dM = float(model.mass(t)), float(model.dmass(t))
    xp, dxp, delta = (float(q) for q in driven.slice(t))
    p = M * dxp

    def product(*maps):
        def apply(g):
            for op, params in reversed(maps):
                g = _affine(g, op, **params)
            return g
        return apply

    return {
        apply_U0: product(("quadratic phase", {"alpha": 0.25 * dM / M}),
                          ("dilation", {"s": np.exp(-0.5 * np.log(M))})),
        apply_U0_dagger: product(("dilation", {"s": np.exp(0.5 * np.log(M))}),
                                 ("quadratic phase", {"alpha": -0.25 * dM / M})),
        apply_UF: product(("constant phase", {"c": delta}),
                          ("linear phase", {"k": p}),
                          ("translation", {"d": xp})),
        apply_UF_dagger: product(("translation", {"d": -xp}),
                                 ("linear phase", {"k": -p}),
                                 ("constant phase", {"c": -delta})),
    }


@pytest.mark.parametrize("exact", [True, False], ids=["source", "lagrange"])
@pytest.mark.parametrize("rows", [1, 2])
def test_each_composite_is_the_product_of_its_primitives(driven_ck, exact, rows):
    """Each fused composite equals the composition of its primitives, on one
    state and on a stack: to rounding when a source is re-evaluated, to the
    accuracy of the six-point read when the samples are interpolated."""
    basis, drv = driven_ck
    model = basis.model
    t = 1.3
    assert model.dmass(t) != 0.0 and drv.slice(t)[0] != 0.0
    fields = [_narrow, lambda x: _narrow(x - 0.7)][:rows]

    def field(x):
        block = np.stack([f(np.asarray(x)) for f in fields])
        return block if rows > 1 else block[0]

    def source(x):  # a window on x that holds every query point
        return field(x), 0

    g = GridFunction(GRID, field(GRID.xs()), t, source=source if exact else None)
    # the six-point reads of chirped and unchirped samples differ by the
    # read's own error, here about 1e-14
    tol = 1e-14 if exact else 1e-12
    for fused, product in _primitive_products(model, drv, t).items():
        args = (model, t, g) if fused in (apply_U0, apply_U0_dagger) else (model, drv, t, g)
        out, want = fused(*args), product(g)
        assert out.columns().shape == g.values.shape
        assert np.max(np.abs(out.columns() - want.columns())) < tol, fused.__name__
        if exact:
            xq = np.array([-1.37, 0.0, 0.41, 2.9])
            (got, j), (wanted, k) = out.source(xq), want.source(xq)
            assert j == k == 0
            np.testing.assert_allclose(got, wanted, rtol=0, atol=tol)


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
    xp, dxp, delta = drv.slice(t)
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
    spec0 = StateSpec(2, 1.0, red)
    specF = StateSpec(2, 1.0, basis, drv)
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
    interpolated path and an exact source read to the certifier's depth
    (which holds no query point) refuse it, as the boundary ratio refuses
    d = 8 and the exact source at full depth refuses d = 40."""
    from tdho.classical import analytic_basis_sho
    from tdho.states import state_window

    grid = Grid(-10.0, 10.0, 4096)
    spec = StateSpec(0, 1.0, analytic_basis_sho(1.0, 1.0, 1.0))
    lagrange = sample_on_grid(state_field(spec), grid, 0.0, attach_source=False)
    full_depth = sample_on_grid(state_field(spec), grid, 0.0)
    shallow = lagrange._with(lagrange.values,
                             lambda x: state_window(spec, x, 0.0, [0]))
    for g in (lagrange, shallow):
        with pytest.raises(GridTooSmallError) as refused:
            _affine(g, "translation", d=40.0)
        assert str(refused.value) == (
            "translation moved every sample off the grid [-10, 10]; retry on a grid "
            "covering roughly [-10, 50]")
    for g, d in ((lagrange, 8.0), (full_depth, 40.0)):
        with pytest.raises(GridTooSmallError, match="left boundary ratio"):
            _affine(g, "translation", d=d)
