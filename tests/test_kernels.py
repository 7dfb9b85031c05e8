"""Correctness tests for the grid kernels."""

import math
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite import hermval

import tdho
import tdho._kernels as kernels
import tdho.states
from tdho._kernels._ref import (
    _RESCALE_LOG,
    LOG_FLOOR,
    _cutoff_radius,
    _floor_depth,
    _hermite_function_rows,
    _monic_growth,
)
from tdho.classical import analytic_basis_sho, null_driven
from tdho.models import CaldirolaKanai, LoDampedPulsating
from tdho.states import (
    StateSpec,
    _closed_columns,
    _slice_params,
    closed_form_law,
    closed_form_window,
    state_field,
    state_window,
)
from tdho.transforms import policy_grid, sample_on_grid
from tdho.verify import norm

from conftest import kernel_block, on_grid

DEPTH = tdho.verify.READ_DEPTH


def test_backend_is_declared():
    assert tdho.kernel_backend == "numpy"


def _hermite_rows(n, xi):
    """h_0..h_n at xi from the kernel's recurrence, each row times its norm."""
    norms, rows = _hermite_function_rows(list(range(n + 1)), xi[np.newaxis],
                                         np.zeros((1, len(xi))), [(0, len(xi))])
    return [c[0] * np.ldexp(m, e)[0] for c, (m, e) in zip(norms, rows)]


def _hermite_norm(n):
    return math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))


@pytest.mark.parametrize("n", range(9))
def test_hermite_matches_numpy_hermval(n):
    """Row n of the recurrence is H_n / sqrt(2^n n! sqrt(pi))."""
    xi = np.linspace(-4.0, 4.0, 41)
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    np.testing.assert_allclose(
        _hermite_rows(n, xi)[n], hermval(xi, coeffs) / _hermite_norm(n),
        rtol=1e-13, atol=1e-15,
    )


def test_hermite_known_values():
    # h_0..h_3 at 0 and the frozen spot value H_10(0.5) = 22591.
    rows = _hermite_rows(10, np.array([0.0, 0.5]))
    c = math.pi ** -0.25
    assert rows[0][0] == c and rows[1][0] == 0.0 and rows[3][0] == 0.0
    assert rows[2][0] == pytest.approx(-c / math.sqrt(2.0), rel=1e-15)
    assert rows[10][1] * _hermite_norm(10) == pytest.approx(22591.0, rel=1e-13)


def test_state_kernel_matches_direct_formula(rng):
    """Random kernel parameters against a literal transcription
    sqrt(scale) e^{-xi^2/2} h_k(xi) times the phases, for one order through
    state_kernel and for several, each with its own phase k * dphase,
    through state_kernel_window zero-padded; the kernel carries the
    normalised h_n = H_n / sqrt(2^n n! sqrt(pi)).  Any six columns give a
    normalised state: on a grid wider than the cutoff window every drawn
    order has dx * sum |row|^2 = 1.

    Near a root of h_k both evaluations lose relative accuracy, so each
    sample is bounded relative to sqrt(scale) e^{-xi^2/2} times
    sqrt(h_k^2 + h_{k-1}^2)(xi): that is |want| away from the roots, and it
    does not vanish at them (h_k and h_{k-1} have no common root)."""
    x = np.linspace(-6.0, 6.0, 257)
    for _ in range(20):
        n = int(rng.integers(0, 9))
        orders = [int(k) for k in rng.choice(9, size=3, replace=False)]
        gauss_im = float(rng.uniform(-1.0, 1.0))
        scale = float(rng.uniform(0.3, 2.0))
        x_shift = float(rng.uniform(-1.0, 1.0))
        k_lin = float(rng.uniform(-2.0, 2.0))
        phase0 = float(rng.uniform(-10.0, 10.0))
        dphase = float(rng.uniform(-3.0, 3.0))
        params = (gauss_im, scale, x_shift, k_lin, phase0)
        d = x - x_shift
        envelope = np.sqrt(scale) * np.exp(-0.5 * (scale * d) ** 2)

        def h(k):
            if k < 0:
                return np.zeros_like(x)
            coeffs = np.zeros(k + 1)
            coeffs[k] = 1.0
            return (hermval(scale * d, coeffs)
                    / math.sqrt(2.0**k * math.factorial(k) * math.sqrt(math.pi)))

        def check(got, k, phase):
            want = envelope * h(k) * np.exp(1j * (gauss_im * d * d + k_lin * x + phase))
            err = np.abs(got - want)
            bound = 5e-13 * envelope * np.hypot(h(k), h(k - 1)) + 1e-300
            assert np.all(err <= bound), float(np.max(err / bound))

        check(kernels.state_kernel(x, n, *params, dphase), n, phase0 + n * dphase)
        rows = kernel_block(x, orders, *params, dphase)
        for k, row in zip(orders, rows):
            check(row, k, phase0 + k * dphase)
        # xi steps of 1.1 X / 512 < 0.1, X the cutoff root in xi
        radius = 1.1 * _cutoff_radius(max(orders + [n]), scale)
        wide = np.linspace(x_shift - radius, x_shift + radius, 1025)
        rows = kernel_block(wide, orders + [n], *params, dphase)
        assert np.all(rows[:, [0, -1]] == 0.0)
        norms = (wide[1] - wide[0]) * np.sum(np.abs(rows) ** 2, axis=-1)
        assert np.all(np.abs(norms - 1.0) <= 1e-12), norms


def test_state_kernel_takes_points_in_any_order(rng):
    """Shuffled and descending points give the ascending result permuted,
    bit for bit, in the shape of x."""
    x = np.linspace(-8.0, 8.0, 1001)
    args = (7, 0.4, 1.1, 0.2, 0.7, 1.5, 0.0)
    ascending = kernels.state_kernel(x, *args)
    for perm in (rng.permutation(len(x)), np.arange(len(x))[::-1]):
        got = kernels.state_kernel(x[perm], *args)
        assert np.array_equal(got, ascending[perm])
    grid = x.reshape(7, 143)
    assert np.array_equal(kernels.state_kernel(grid, *args), ascending.reshape(7, 143))


def test_state_kernel_underflow_short_circuit():
    """Far tail underflows to exactly 0, without overflow warnings."""
    x = np.linspace(-500.0, 500.0, 101)
    with np.errstate(over="raise", invalid="raise"):
        vals = kernels.state_kernel(x, 40, 0.3, 1.0, 0.0, 0.0, 0.0, 0.0)
    assert np.all(np.isfinite(vals))
    assert vals[0] == 0.0 and vals[-1] == 0.0
    assert vals[len(x) // 2] != 0.0


def test_high_order_state_keeps_its_norm():
    basis = analytic_basis_sho(CaldirolaKanai(1.0, 0.0, 1.0, t_min=-1.0, t_max=12.0))
    grid = policy_grid(basis, 200, points=16384)
    field = state_field(StateSpec(200, 1.0, basis))
    assert abs(norm(sample_on_grid(field, grid, 1.0)) - 1.0) < 1e-12


@pytest.mark.parametrize("n", [300, 600, 1000])
def test_very_high_order_states_are_normalised_without_warnings(n):
    """Far past the turning point sqrt(2n+1) the Gaussian alone underflows;
    the exponent-tracked recurrence keeps every order normalised.  65537
    points put about 6 samples on the shortest wavelength of the density at
    n=1000, enough for Simpson's rule to be exact to rounding."""
    basis = analytic_basis_sho(CaldirolaKanai(1.0, 0.0, 1.0, t_min=-1.0, t_max=12.0))
    grid = policy_grid(basis, n, points=65537)
    field = state_field(StateSpec(n, 1.0, basis))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert abs(norm(sample_on_grid(field, grid, 1.0)) - 1.0) < 1e-12


def _mp_hermite_function(n, xi, scale):
    """sqrt(scale) e^{-xi^2/2} H_n(xi) / sqrt(2^n n! sqrt(pi)) at the float
    xi, in 60-digit arithmetic, rounded once."""
    with mpmath.workdps(60):
        xi = mpmath.mpf(float(xi))
        norm = mpmath.sqrt(mpmath.mpf(2) ** n * mpmath.factorial(n) * mpmath.sqrt(mpmath.pi))
        return float(mpmath.sqrt(scale) * mpmath.exp(-xi * xi / 2)
                     * mpmath.hermite(n, xi) / norm)


@pytest.mark.parametrize("n", [0, 1, 2, 64, 300, 1000])
def test_state_kernel_matches_mpmath_at_high_order(n):
    """Rows of order n against mpmath's normalised Hermite function at the
    kernel's own xi = (x - x_shift) * scale, to 1e-13 of the row's peak, over
    the cutoff window: one slice read by state_kernel to LOG_FLOOR, where
    from n = 64 on the Gaussian leaves the normal range and exponents are
    tracked, and one read to READ_DEPTH; from n = 300 on both rows pass the
    growth bound and rescale."""
    scale, shift = 1.25, 0.5
    params = (0.0, scale, shift, 0.0, 0.0, 0.0)
    for depth in (None, DEPTH):
        radius = _cutoff_radius(n, scale, depth)
        x = np.linspace(shift - radius, shift + radius, 401)
        xi = (x - shift) * scale
        if depth is None:
            got = kernels.state_kernel(x, n, *params)
            assert n < 64 or 0.5 * math.log(scale) - 0.5 * float(xi[0]) ** 2 <= LOG_FLOOR
        else:
            got = kernel_block(x, [n], *params, depth=depth)[0]
        assert n < 300 or _monic_growth(n, float(np.max(np.abs(xi)))) > _RESCALE_LOG
        want = np.array([_mp_hermite_function(n, v, scale) for v in xi])
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), depth


def _block_matches_fields(basis, driven, orders):
    spec = StateSpec(max(orders), 1.0, basis, driven)
    grid = policy_grid(basis, 12, driven=driven, times=[1.0], points=4096)
    xs = grid.xs()
    rows = kernel_block(xs, orders, *_slice_params(spec, 1.0))
    assert rows.shape == (len(orders), len(xs))
    for k, row in zip(orders, rows):
        want = state_field(StateSpec(k, 1.0, basis, driven))(xs, 1.0)
        np.testing.assert_allclose(row, want, rtol=1e-13, atol=1e-300)


def test_block_rows_match_state_kernel(driven_ck):
    """Row k of the block equals the order-k state through state_kernel."""
    _block_matches_fields(*driven_ck, list(range(13)))


@pytest.mark.parametrize("orders", [[12, 3, 7], [5], [0, 2]])
def test_block_returns_only_the_requested_orders(driven_ck, orders):
    """Row i is the order orders[i] state through state_kernel, in the given
    order; orders that are not requested are not returned."""
    _block_matches_fields(*driven_ck, orders)


# ---------------------------------------------------------------------------
# stacks of time slices
# ---------------------------------------------------------------------------

def _stacked_is_per_slice(x, orders, slices, depth=None):
    """A stacked call over the slices (each the 6 parameters gauss_im ..
    dphase) holds, slice by slice, the bytes of a one-slice call, both at
    the given depth."""
    got = kernel_block(x, orders, *(list(c) for c in zip(*slices)), depth=depth)
    assert got.shape == (len(slices), len(orders), len(x))
    for s, params in enumerate(slices):
        assert got[s].tobytes() == kernel_block(x, orders, *params, depth=depth).tobytes()
    return got


def _support(rows):
    live = np.nonzero(np.any(rows != 0.0, axis=0))[0]
    return int(live[0]), int(live[-1])


def test_stacked_slices_keep_their_own_windows(driven_ck):
    """Slices whose cutoff windows differ (distinct x_shift) share one pass;
    each is zero outside its own window.  The residual's seven stencil
    times of a driven state are such a stack."""
    x = np.linspace(-12.0, 12.0, 2001)
    slices = [(0.3, 10.0, shift, 0.4, 0.1, 1.3) for shift in (-5.0, 0.5, 5.0)]
    got = _stacked_is_per_slice(x, [0, 3, 9], slices)
    supports = [_support(rows) for rows in got]
    assert len(set(supports)) == 3 and all(0 < a < b < len(x) - 1 for a, b in supports)

    basis, driven = driven_ck
    spec = StateSpec(12, 1.0, basis, driven)
    grid = policy_grid(basis, 12, driven=driven, times=[1.0], points=4096)
    xs = grid.xs()
    times = [1.0 + k * 0.05 for k in (0, 1, -1, 2, -2, 4, -4)]
    stack = on_grid(state_window(spec, xs, times, [12, 0, 5]), len(xs))
    for t, rows in zip(times, stack):
        assert rows.tobytes() == on_grid(state_window(spec, xs, t, [12, 0, 5]),
                                          len(xs)).tobytes()
    assert len({_support(rows) for rows in stack}) > 1


def test_stacked_fast_and_exponent_tracked_slices():
    """A slice whose Gaussian stays in the normal range on the grid (the
    fast path) beside a narrower one whose whole cutoff window lies on the
    grid, so that its log amplitude falls below LOG_FLOOR there (exponents
    tracked): each keeps its own decision."""
    x = np.linspace(-10.0, 10.0, 1025)
    fast = (0.2, 1.0, 0.0, 0.0, 0.3, 0.7)
    tracked = (-0.2, 5.0, 0.5, 0.1, -0.4, 1.1)
    got = _stacked_is_per_slice(x, [64, 7], [fast, tracked, fast])
    for params, rows, is_tracked in ((fast, got[0], False), (tracked, got[1], True)):
        scale, x_shift = params[1], params[2]
        a, b = _support(rows)
        xi2 = float(np.max((scale * (x[[a, b]] - x_shift)) ** 2))
        assert (0.5 * math.log(scale) - 0.5 * xi2 < kernels._ref.LOG_FLOOR) == is_tracked


def test_stacked_slices_on_the_rescale_path():
    """Orders past 300 rescale the recurrence; each slice rescales on its
    own bound, and its rows stay those of a one-slice call."""
    x = np.linspace(-40.0, 40.0, 4097)
    slices = [(0.1, sc, 0.2 * sc, 0.0, 0.0, 0.5) for sc in (1.0, 1.1, 0.9)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _stacked_is_per_slice(x, [301, 0, 120], slices)
    assert np.all(np.isfinite(got)) and np.any(got[:, 0] != 0.0)


def test_slice_parameters_of_more_than_one_axis_are_refused():
    x = np.linspace(-8.0, 8.0, 64)
    params = [np.full((2, 2), p) for p in (0.4, 1.1, 0.0, 0.2, 0.7, 1.5)]
    with pytest.raises(ValueError) as refused:
        kernels.state_kernel_window(x, [0, 1], *params)
    assert refused.type is ValueError
    assert str(refused.value) == "slice parameters must be scalars or 1-D sequences"


# scales past about 2.7 put a slice's whole cutoff window on [-8, 8], where
# its log amplitude falls below LOG_FLOOR and its exponents are tracked
_slice = st.tuples(
    st.floats(-1.0, 1.0), st.floats(0.3, 8.0), st.floats(-6.0, 6.0),
    st.floats(-2.0, 2.0), st.floats(-10.0, 10.0), st.floats(-3.0, 3.0))


def _twins(slices, phases):
    """The slices (gauss_im .. dphase), then for each slice and each
    (gauss_im, k_lin, phase0, dphase) of phases a twin with the slice's
    amplitude (scale, x_shift) and that phase."""
    return list(slices) + [(gi, sc, shift, kl, p0, dp)
                           for _, sc, shift, *_ in slices
                           for gi, kl, p0, dp in phases]


_phase = st.tuples(st.floats(-1.0, 1.0), st.floats(-2.0, 2.0), st.floats(-10.0, 10.0),
                   st.floats(-3.0, 3.0))


def _moved(slice_, shift):
    """slice_ with its x_shift moved by shift: the same radius, another
    amplitude."""
    return slice_[:2] + (slice_[2] + shift,) + slice_[3:]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(slices=st.lists(_slice, min_size=1, max_size=8),
       phases=st.lists(_phase, max_size=3), shift=st.floats(-1.0, 1.0),
       orders=st.lists(st.integers(0, 64), min_size=1, max_size=4))
def test_stacked_call_is_one_call_per_slice(slices, phases, shift, orders):
    """Any stack of 1-8 slices, some of them repeated, with twins that share
    a slice's amplitude (scale, x_shift) but not its
    gauss_im, k_lin, phase0 and dphase, and the slices moved by shift (the
    same radius, another amplitude), and any orders up to 64: bit for bit
    the one-slice calls."""
    stack = _twins(slices, phases) + [_moved(s, shift) for s in slices] + slices[::2]
    _stacked_is_per_slice(np.linspace(-8.0, 8.0, 257), orders, stack)


def _counting_rows():
    """A patch of _hermite_function_rows that records the rows each
    recurrence runs on (xi.shape[0])."""
    recurrence, rows = kernels._ref._hermite_function_rows, []

    def counting(orders, xi, log_amp, spans):
        rows.append(xi.shape[0])
        return recurrence(orders, xi, log_amp, spans)

    return mock.patch.object(kernels._ref, "_hermite_function_rows", counting), rows


def _one_change(slice_):
    """Four twins of a slice: each moves one of gauss_im, k_lin, phase0 and
    dphase, and keeps the amplitude."""
    gi, sc, shift, kl, p0, dp = slice_
    return [(gi + 0.3, sc, shift, kl, p0, dp),
            (gi, sc, shift, kl + 0.5, p0, dp),
            (gi, sc, shift, kl, p0 + 1.0, dp),
            (gi, sc, shift, kl, p0, dp - 1.2)]


@pytest.mark.parametrize("x, orders, slices", [
    # the fast path: the Gaussian stays in the normal range on each window
    (np.linspace(-10.0, 10.0, 1025), [64, 7],
     [(0.2, 1.0, 0.0, 0.0, 0.3, 0.7), (0.1, 1.1, 1.5, 0.2, 0.0, 0.4)]),
    # exponents tracked: read to LOG_FLOOR, the amplitude leaves the normal
    # range at large xi
    (np.linspace(-40.0, 40.0, 2049), [64, 0],
     [(-0.2, 1.0, 0.5, 0.1, -0.4, 1.1), (0.2, 1.0, -1.0, 0.0, 0.0, 0.5)]),
    # the rescale path: orders past 300
    (np.linspace(-40.0, 40.0, 4097), [301, 0, 120],
     [(0.1, 1.0, 0.2, 0.0, 0.0, 0.5), (0.1, 1.1, 0.22, 0.0, 0.0, 0.5)]),
], ids=["fast", "tracked", "rescaled"])
def test_one_recurrence_row_per_distinct_amplitude(x, orders, slices):
    """Twins that differ from a slice in gauss_im, k_lin, phase0 or dphase
    alone share its recurrence row, and a slice moved in x_shift alone does
    not: a stack of two amplitudes, their eight twins and the first moved
    runs the recurrence on three rows, on the fast, the exponent-tracked and
    the rescale path, and holds each one-slice call's bytes."""
    stack = slices + [twin for slice_ in slices for twin in _one_change(slice_)]
    stack.append(_moved(slices[0], 0.25))
    patch, rows = _counting_rows()
    with patch, warnings.catch_warnings():
        warnings.simplefilter("error")
        got = kernel_block(x, orders, *(list(c) for c in zip(*stack)))
    assert rows == [3]
    for s, params in enumerate(stack):
        assert got[s].tobytes() == kernel_block(x, orders, *params).tobytes()
    assert len({rows.tobytes() for rows in got}) == len(stack)


def test_stationary_stencils_and_probes_share_their_recurrence_rows():
    """On a sho_c1 copy with states [0, 32, 64] each stacked call runs the
    recurrence on one row per distinct amplitude.  The nine stationarity
    probes (the closed form's rho is exactly 1) run on one row.  The
    residual's six-slice stencil stacks run on one or two: the basis reads
    rho = sqrt(cos^2 + sin^2), 1 or 1 - 2^-53 by the time."""
    from tdho.cli import build_context, load_scenario
    from tdho.verify import run_suite

    doc = load_scenario("sho_c1")
    doc["states"] = [0, 32, 64]
    ctx = build_context(doc)
    amplitudes = []
    window = tdho.states.state_kernel_window

    def counting(x, orders, *params, **kw):
        table = np.array(params[1:3]).T
        amplitudes.append((len(table), len({row.tobytes() for row in table})))
        return window(x, orders, *params, **kw)

    for check, slices, most in (("residual", 6, 2), ("stationarity", 9, 1)):
        amplitudes.clear()
        patch, rows = _counting_rows()
        with patch, mock.patch.object(tdho.states, "state_kernel_window", counting):
            run_suite(ctx, [check])
        assert rows == [distinct for _, distinct in amplitudes], check
        stacks = [distinct for size, distinct in amplitudes if size == slices]
        assert len(stacks) == (len(ctx.times) if check == "residual" else 1), check
        assert max(stacks) <= most and 1 in stacks, check


def _counting_solves():
    """A patch of _xi_radius that records the arguments of each solve."""
    solve, calls = kernels._ref._xi_radius, []

    def counting(*args):
        calls.append(args)
        return solve(*args)

    return mock.patch.object(kernels._ref, "_xi_radius", counting), calls


def test_slices_that_share_a_radius_share_one_solve():
    """A call solves one root in xi per distinct depth of the floor below
    the amplitude (_floor_depth), and each slice's radius is that root over
    its scale.  At a depth the floor lies that depth below every slice's
    amplitude, so a stack of any scales, shifts, chirps and phases makes
    one solve; read to LOG_FLOOR, it makes one per distinct scale.  The
    stack still holds each one-slice call's bytes."""
    x = np.linspace(-12.0, 12.0, 1025)
    slices = [(chirp, scale, shift, 0.3, phase, 0.9)
              for chirp, scale, shift, phase in ((0.1, 1.2, 0.0, 0.0), (0.4, 1.2, 2.0, 1.0),
                                                 (0.1, 1.2, 0.0, 0.0), (-0.3, 0.8, -1.5, 2.0),
                                                 (0.1, 1.5, 0.0, 0.0))]
    for depth, bases in ((DEPTH, [DEPTH]),
                         (None, [_floor_depth(scale) for scale in (1.2, 0.8, 1.5)])):
        patch, calls = _counting_solves()
        with patch:
            _stacked_is_per_slice(x, [30, 2], slices, depth=depth)
        # the stacked call's solves, then one per one-slice call
        assert calls[:len(bases)] == [(30, base) for base in bases], depth
        assert len(calls) == len(bases) + len(slices), depth


def test_the_stationarity_probes_share_one_solve():
    """The nine C = 1 probes of one period are one stack with one solve, as
    every stack read to a depth is."""
    model = CaldirolaKanai(1.0, 0.0, 1.3, t_min=-1.0, t_max=6.0)
    x = np.linspace(-15.0, 15.0, 2049)
    probes = np.linspace(0.0, 2.0 * math.pi / 1.3, 9)
    patch, calls = _counting_solves()
    with patch:
        rows, _ = closed_form_window(model, 1.0, [64, 3], 0.8, x, probes)
    assert len(calls) == 1 and rows.shape[:2] == (9, 2)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(n=st.integers(0, 1000), scale=st.floats(0.05, 3.0),
       depth=st.one_of(st.none(), st.floats(0.0, 800.0)),
       lower=st.lists(st.integers(0, 1000), max_size=3))
def test_the_top_order_cutoff_radius_bounds_every_lower_order(n, scale, depth, lower):
    """A block solves one cutoff radius, its top order's: that radius is at
    least every lower order's, at any depth, and the block equals, byte for
    byte, one cut at the widest of its orders' radii."""
    radii = [_cutoff_radius(k, scale, depth) for k in range(n + 1)]
    assert max(radii) == radii[-1]
    orders = [k % (n + 1) for k in lower] + [n]
    half = max(1.5 * radii[-1], 1.0)
    x = np.linspace(-half, half, 513) + 0.4
    params = (0.3, scale, 0.4, 0.2, 0.1, 0.7)
    got = kernel_block(x, orders, *params, depth=depth)
    solve = kernels._ref._xi_radius
    with mock.patch.object(kernels._ref, "_xi_radius",
                           lambda _, base: max(solve(k, base) for k in orders)):
        want = kernel_block(x, orders, *params, depth=depth)
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# read depth
# ---------------------------------------------------------------------------

def _depth_case(name, driven_ck):
    """(read(orders, x), params) of one slice: the driven state at t = 1
    (state_window) or a closed-form family's state (closed_form_window),
    zero-padded to x, and the slice's six kernel parameters."""
    if name == "driven_ck":
        spec = StateSpec(0, 1.0, *driven_ck)
        return (lambda orders, x: on_grid(state_window(spec, x, 1.0, orders), len(x)),
                _slice_params(spec, 1.0))
    model, C, hbar, t = {
        "sho": (CaldirolaKanai(1.0, 0.0, 1.3), 2.0, 0.7, 1.0),
        "ck": (CaldirolaKanai(1.0, 0.6, 1.0), 1.0, 1.0, 2.0),
        "lo": (LoDampedPulsating(1.0, 0.1, 0.2, 1.5, 1.0), 1.5, 1.2, 3.0),
    }[name]
    read = lambda orders, x: on_grid(closed_form_window(  # noqa: E731
        model, C, orders, hbar, x, t), len(x))
    return read, _closed_columns(closed_form_law(model), C, hbar, t)


@pytest.mark.parametrize("name", ["driven_ck", "sho", "ck", "lo"])
@pytest.mark.parametrize("n", [0, 3, 12, 64])
def test_a_depth_zeros_only_what_lies_below_it(driven_ck, name, n):
    """With a depth, samples outside the top order's cutoff radius at that
    depth are exact zeros, and in the full-depth block each lies below
    eps/16 of its row's peak (e^-depth / 0.358, see
    test_every_order_peaks_above_its_bound); inside, where the shallower
    slice may skip exponent tracking, every sample equals the full-depth
    block within 1e-13 of its row's peak; depth=None is the call without
    it, byte for byte; the state's public read is the block at DEPTH."""
    read, params = _depth_case(name, driven_ck)
    _, scale, x_shift = params[:3]
    orders = sorted({n, n // 2, 0}, reverse=True)
    full_radius = _cutoff_radius(n, scale)
    radius = _cutoff_radius(n, scale, DEPTH)
    assert radius < full_radius
    x = x_shift + np.linspace(-1.2, 1.2, 4001) * full_radius
    full = kernel_block(x, orders, *params)
    got = kernel_block(x, orders, *params, depth=DEPTH)
    assert kernel_block(x, orders, *params, depth=None).tobytes() == full.tobytes()
    assert read(orders, x).tobytes() == got.tobytes()
    outside = np.abs(x - x_shift) > radius
    assert np.all(got[:, outside] == 0.0)
    assert np.any(full[:, outside] != 0.0)  # the depth cut something
    peak = np.max(np.abs(full), axis=1, keepdims=True)
    assert np.all(np.abs(full[:, outside]) <= np.finfo(float).eps / 16 * peak)
    assert np.all(np.abs(got - full) <= 1e-13 * peak)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 8, 16, 64, 256, 1000])
def test_every_order_peaks_above_its_bound(n):
    """max |h_n(xi)| e^{-xi^2/2} >= 0.358 (read on xi in [0, sqrt(2n+1) + 2],
    past the last turning point, with step 0.002), the bound on which
    READ_DEPTH rests: a sample below e^-READ_DEPTH of the amplitude scale is
    then below eps/16 of its row's peak."""
    xi = np.arange(0.0, math.sqrt(2 * n + 1) + 2.0, 0.002)
    peak = np.max(np.abs(kernels.state_kernel(xi, n, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0)))
    assert peak >= 0.358
    assert math.exp(-DEPTH) / 0.358 < np.finfo(float).eps / 16


def test_stacked_slices_at_a_depth_are_one_call_per_slice():
    """A stack read to a depth holds each slice's one-slice call at that
    depth: slices of distinct scales each keep their own window, narrower
    than at full depth.  No float64 scale puts its amplitude within DEPTH of
    LOG_FLOOR, so at DEPTH the floor lies DEPTH below every amplitude."""
    x = np.linspace(-30.0, 30.0, 2049)
    slices = [(0.2, scale, shift, 0.3, 0.1, 0.9)
              for scale, shift in ((1.0, -2.0), (2.5, 1.0), (0.5, 0.0))]
    assert _floor_depth(np.nextafter(0.0, 1.0), DEPTH) == DEPTH
    got = _stacked_is_per_slice(x, [24, 3, 0], slices, depth=DEPTH)
    full = _stacked_is_per_slice(x, [24, 3, 0], slices)
    widths = [np.count_nonzero(np.any(rows != 0.0, axis=0)) for rows in (*got, *full)]
    assert len(set(widths[:3])) == 3
    assert all(widths[i] < widths[i + 3] for i in range(3))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(slices=st.lists(_slice, min_size=1, max_size=6),
       phases=st.lists(_phase, max_size=3),
       orders=st.lists(st.integers(0, 64), min_size=1, max_size=4),
       depth=st.floats(0.0, 800.0))
def test_stacked_call_at_any_depth_is_one_call_per_slice(slices, phases, orders, depth):
    """Any stack, some slices repeated and some twinned in their phases
    alone, any orders up to 64 and any depth: bit for bit the one-slice
    calls at that depth."""
    _stacked_is_per_slice(np.linspace(-8.0, 8.0, 257), orders,
                          _twins(slices, phases) + slices[:1], depth=depth)


# ---------------------------------------------------------------------------
# the window form
# ---------------------------------------------------------------------------

def _window_is_block(x, orders, params, depth=None):
    """state_kernel_window's (rows, offset), whose rows fit x from column
    offset on; and state_kernel is the window zero-padded: for each slice
    and each order k, state_kernel on x shuffled holds, bit for bit, the
    slice's window of [k] (read to LOG_FLOOR) zero-padded and shuffled
    alike.  The direct-formula and underflow tests show that the
    window holds every sample above the floor.  Returns (rows, offset)."""
    rows, offset = kernels.state_kernel_window(x, orders, *params, depth=depth)
    width = rows.shape[-1]
    assert rows.shape == np.shape(params[0]) + (len(orders), width)
    assert 0 <= offset <= len(x) - width
    shuffled = np.random.default_rng(width).permutation(len(x))
    for slice_ in np.array(params, dtype=float).reshape(6, -1).T:
        kernel_params = slice_.tolist()
        for k in orders:
            padded = kernel_block(x, [k], *kernel_params)[0]
            got = kernels.state_kernel(x[shuffled], k, *kernel_params)
            assert got.tobytes() == padded[shuffled].tobytes()
    return rows, offset


@pytest.mark.parametrize("depth", [None, DEPTH])
@pytest.mark.parametrize("times", [1.3, [1.3, 0.2, 4.0, 1.3]])
@pytest.mark.parametrize("with_driving", [True, False])
def test_the_window_form_is_the_block_on_its_window(driven_ck, with_driving, times,
                                                    depth):
    """A driven state or the same state over null_driven, one slice or a
    stack (one time twice), read to LOG_FLOOR or to a depth: the window
    form holds the block's columns on the union of the slices' cutoff
    windows, which is narrower than the grid, and nothing else."""
    basis, driven = driven_ck
    spec = StateSpec(0, 1.0, basis, driven if with_driving else null_driven(basis.model))
    params = _slice_params(spec, times)
    x = np.linspace(-40.0, 40.0, 4097)
    rows, offset = _window_is_block(x, [40, 0, 7], params, depth)
    assert 0 < offset and offset + rows.shape[-1] < len(x)
    edges = rows[..., [0, -1]].reshape(-1, 2)
    assert np.all(np.any(edges != 0.0, axis=0))  # the union is tight


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(slices=st.lists(_slice, min_size=1, max_size=6),
       orders=st.lists(st.integers(0, 64), min_size=1, max_size=4),
       depth=st.one_of(st.none(), st.floats(0.0, 800.0)), scalar=st.booleans())
def test_the_window_form_of_any_stack_is_the_block_on_its_window(slices, orders, depth,
                                                                 scalar):
    """Any one slice or stack, any orders and any depth, windows that reach
    the grid's ends included."""
    params = slices[0] if scalar else [list(c) for c in zip(*slices)]
    _window_is_block(np.linspace(-8.0, 8.0, 257), orders, params, depth)


def test_the_window_of_slices_below_their_floor_is_empty():
    """Slices that lie below the floor everywhere on x have no window: no
    columns at offset 0, and the block is all zeros."""
    x = np.linspace(5.0, 9.0, 129)
    slices = [(0.0, 2.0, shift, 0.0, 0.0, 0.0) for shift in (-30.0, -40.0)]
    rows, offset = _window_is_block(x, [3, 1], [list(c) for c in zip(*slices)], DEPTH)
    assert rows.shape == (2, 2, 0) and offset == 0
