"""Correctness tests for the grid kernels."""

import math
import warnings

import numpy as np
import pytest
from numpy.polynomial.hermite import hermval

import tdho
import tdho._kernels as kernels
from tdho._kernels._ref import _hermite_function_rows
from tdho.classical import analytic_basis_sho
from tdho.states import StateSpec, state_block, state_field
from tdho.transforms import policy_grid, sample_on_grid
from tdho.verify import norm


def test_backend_is_declared():
    assert tdho.kernel_backend == "numpy"


def _hermite_rows(n, xi):
    """h_0..h_n at xi from the kernel's normalised recurrence."""
    rows = _hermite_function_rows(n, xi, np.zeros_like(xi))
    return [np.ldexp(m, e) for m, e in rows]


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
    """Random kernel parameters against a literal transcription, for one
    order through state_kernel and for several, each with its own phase
    k * dphase, through state_kernel_block; the kernel carries the
    normalised h_n = H_n / sqrt(2^n n! sqrt(pi)).

    Near a root of h_k both evaluations lose relative accuracy, so each
    sample is bounded relative to exp(log_norm + gauss_re d^2) times
    sqrt(h_k^2 + h_{k-1}^2)(xi): that is |want| away from the roots, and it
    does not vanish at them (h_k and h_{k-1} have no common root)."""
    x = np.linspace(-6.0, 6.0, 257)
    for _ in range(20):
        n = int(rng.integers(0, 9))
        orders = [int(k) for k in rng.choice(9, size=3, replace=False)]
        log_norm = float(rng.uniform(-2.0, 0.5))
        gauss_re = float(rng.uniform(-2.0, -0.1))
        gauss_im = float(rng.uniform(-1.0, 1.0))
        scale = float(rng.uniform(0.3, 2.0))
        x_shift = float(rng.uniform(-1.0, 1.0))
        k_lin = float(rng.uniform(-2.0, 2.0))
        phase0 = float(rng.uniform(-10.0, 10.0))
        dphase = float(rng.uniform(-3.0, 3.0))
        params = (log_norm, gauss_re, gauss_im, scale, x_shift, k_lin, phase0)
        d = x - x_shift
        envelope = np.exp(log_norm + gauss_re * d * d)

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

        check(kernels.state_kernel(x, n, *params), n, phase0)
        rows = kernels.state_kernel_block(x, orders, *params, dphase)
        for k, row in zip(orders, rows):
            check(row, k, phase0 + k * dphase)


def test_state_kernel_takes_points_in_any_order(rng):
    """Shuffled and descending points give the ascending result permuted,
    bit for bit, in the shape of x."""
    x = np.linspace(-8.0, 8.0, 1001)
    args = (7, -0.3, -0.8, 0.4, 1.1, 0.2, 0.7, 1.5)
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
        vals = kernels.state_kernel(x, 40, 0.0, -1.0, 0.3, 1.0, 0.0, 0.0, 0.0)
    assert np.all(np.isfinite(vals))
    assert vals[0] == 0.0 and vals[-1] == 0.0
    assert vals[len(x) // 2] != 0.0


def test_high_order_state_keeps_its_norm():
    basis = analytic_basis_sho(1.0, 1.0, 1.0, t_min=-1.0, t_max=12.0)
    grid = policy_grid(basis, 200, points=16384)
    field = state_field(StateSpec(200, 1.0, basis))
    assert abs(norm(sample_on_grid(field, grid, 1.0)) - 1.0) < 1e-12


@pytest.mark.parametrize("n", [300, 600, 1000])
def test_very_high_order_states_are_normalised_without_warnings(n):
    """Far past the turning point sqrt(2n+1) the Gaussian alone underflows;
    the exponent-tracked recurrence keeps every order normalised.  65537
    points put about 6 samples on the shortest wavelength of the density at
    n=1000, enough for Simpson's rule to be exact to rounding."""
    basis = analytic_basis_sho(1.0, 1.0, 1.0, t_min=-1.0, t_max=12.0)
    grid = policy_grid(basis, n, points=65537)
    field = state_field(StateSpec(n, 1.0, basis))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert abs(norm(sample_on_grid(field, grid, 1.0)) - 1.0) < 1e-12


def _block_matches_fields(basis, driven, orders):
    spec = StateSpec(max(orders), 1.0, basis, driven)
    grid = policy_grid(basis, 12, driven=driven, times=[1.0], points=4096)
    xs = grid.xs()
    rows = state_block(spec, xs, 1.0, orders)
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
