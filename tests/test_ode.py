"""Two-sided DOP853 integration with dense output."""

import numpy as np
import pytest
from scipy.integrate import DOP853, OdeSolution, solve_ivp

import tdho.classical
from tdho import _dop853
from tdho.cli import build_context, load_scenario
from tdho.ode import ODEError, solve_ode


def test_exponential_decay_pointwise():
    sol = solve_ode(lambda t, y: -y, 0.0, [1.0], 0.0, 10.0,
                    rtol=1e-11, atol=1e-13)
    ts = np.linspace(0.0, 10.0, 200)
    assert np.max(np.abs(sol(ts)[:, 0] - np.exp(-ts))) < 1e-9


def test_oscillator_energy_and_dense_output():
    def rhs(t, y):
        return np.array([y[1], -y[0]])

    sol = solve_ode(rhs, 0.0, [1.0, 0.0], 0.0, 50.0, rtol=1e-11, atol=1e-13)
    ts = np.linspace(0.0, 50.0, 4001)
    y = sol(ts)
    np.testing.assert_allclose(y[:, 0], np.cos(ts), atol=5e-9)
    np.testing.assert_allclose(y[:, 1], -np.sin(ts), atol=5e-9)
    energy = y[:, 0] ** 2 + y[:, 1] ** 2
    assert np.max(np.abs(energy - 1.0)) < 1e-8


def test_bidirectional_integration_from_interior_t0():
    sol = solve_ode(lambda t, y: np.array([np.cos(t)]), 2.0, [np.sin(2.0)],
                    -5.0, 5.0, rtol=1e-11, atol=1e-13)
    ts = np.linspace(-5.0, 5.0, 101)
    np.testing.assert_allclose(sol(ts)[:, 0], np.sin(ts), atol=1e-9)


def test_dense_output_accurate_between_knots():
    """DOP853's 7th-order dense output needs no step cap between knots."""

    def rhs(t, y):
        return np.array([y[1], -y[0]])

    sol = solve_ode(rhs, 0.0, [1.0, 0.0], 0.0, 30.0, rtol=1e-11, atol=1e-13)
    ts = np.linspace(0.0, 30.0, 2002)[1:-1]
    assert len(sol.ts) < len(ts) / 4  # most sample points lie between knots
    assert np.max(np.abs(sol(ts)[:, 0] - np.cos(ts))) < 1e-9


def test_degenerate_span_returns_initial_data():
    sol = solve_ode(lambda t, y: np.array([y[1], -y[0]]), 1.5, [2.0, -1.0],
                    1.5, 1.5)
    assert sol.t_min == sol.t_max == 1.5
    np.testing.assert_array_equal(sol(1.5), [2.0, -1.0])
    np.testing.assert_array_equal(sol(np.array([1.5, 1.5])), [[2.0, -1.0]] * 2)
    with pytest.raises(ODEError):
        sol(1.6)


def test_nan_right_hand_side_raises():
    with pytest.raises(ODEError):
        solve_ode(lambda t, y: np.array([np.nan]), 0.0, [1.0], 0.0, 1.0)
    # a slope that turns NaN part-way: the march fails instead of looping
    with pytest.raises(ODEError):
        solve_ode(lambda t, y: np.array([np.nan if t > 0.5 else -y[0]]),
                  0.0, [1.0], -1.0, 1.0)


def test_t0_outside_span_raises():
    with pytest.raises(ODEError):
        solve_ode(lambda t, y: -y, 3.0, [1.0], 0.0, 2.0)


def test_evaluation_outside_span_raises():
    sol = solve_ode(lambda t, y: -y, 0.0, [1.0], 0.0, 1.0)
    with pytest.raises(ODEError):
        sol(1.5)
    with pytest.raises(ODEError):
        sol(np.array([0.5, -0.5]))


def test_tolerance_controls_accuracy():
    """Looser rtol gives a visibly larger error; both stay proportionate."""

    def rhs(t, y):
        return np.array([y[1], -y[0]])

    errs = {}
    for rtol in (1e-6, 1e-10):
        sol = solve_ode(rhs, 0.0, [1.0, 0.0], 0.0, 30.0, rtol=rtol, atol=rtol * 1e-2)
        ts = np.linspace(0.0, 30.0, 500)
        errs[rtol] = np.max(np.abs(sol(ts)[:, 0] - np.cos(ts)))
    assert errs[1e-10] < 1e-7
    assert errs[1e-6] > errs[1e-10]


def test_stiff_decay_remains_stable():
    """Strong decay forces many rejected trial steps but must not blow up."""
    sol = solve_ode(lambda t, y: -200.0 * y, 0.0, [1.0], 0.0, 1.0,
                    rtol=1e-8, atol=1e-12)
    assert abs(sol(1.0)[0] - np.exp(-200.0)) < 1e-12


def test_dense_solution_knots_are_sorted():
    sol = solve_ode(lambda t, y: np.array([1.0]), 2.0, [0.0], -3.0, 4.0)
    assert np.all(np.diff(sol.ts) > 0)
    assert sol.t_min == -3.0 and sol.t_max == 4.0
    assert sol.ncomponents == 1


def test_solution_that_blows_up_raises():
    """y' = y^2 from y(0) = 1 blows up at t = 1: the step size collapses."""
    with pytest.raises(ODEError, match=r"integration from t=0\.0 towards t=2\.0 failed: "
                                       r"Required step size"):
        solve_ode(lambda t, y: y * y, 0.0, [1.0], 0.0, 2.0)


def test_a_non_finite_end_state_raises():
    """y' = 1e306 from y(0) = 1e308 overflows to inf near t = 80 while every
    step's error estimate stays finite: refused at the end of the march."""
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ODEError) as refused:
        solve_ode(lambda t, y: np.array([1e306]), 0.0, [1e308], 0.0, 1000.0)
    assert str(refused.value) == ("integration from t=0.0 towards t=1000.0 failed: "
                                  "the end state is not finite")


def test_too_small_rtol_is_clamped_with_a_warning():
    """rtol below 100 eps is raised to it, with scipy's warning."""
    with pytest.warns(UserWarning, match=r"`rtol` is too small"):
        sol = solve_ode(_pendulum, 0.0, [1.2, 0.0, -0.5], -1.0, 3.0, rtol=1e-17, atol=1e-20)
    with pytest.warns(UserWarning, match=r"`rtol` is too small"):
        oracle = _oracle(_pendulum, 0.0, [1.2, 0.0, -0.5], -1.0, 3.0, rtol=1e-17, atol=1e-20)
    _assert_same_bits(sol.ts, oracle.ts)


# ---------------------------------------------------------------------------
# the whole integrator against scipy's solve_ivp, bit for bit
# ---------------------------------------------------------------------------

def _pendulum(t, y):
    return np.array([y[1], -np.sin(y[0]) - 0.1 * y[1], np.cos(t) * y[0]])


def _oracle(rhs, t0, y0, t_lo, t_hi, rtol=1e-10, atol=1e-12):
    """scipy's DOP853 marches from t0 to each end that solve_ode integrates
    towards, joined into one OdeSolution in time order."""
    ends = ([t_lo] if t_lo < t0 else []) + ([t_hi] if t_hi > t0 or t_lo == t0 else [])
    ts, interpolants = [], []
    for t_end in ends:
        res = solve_ivp(rhs, (t0, t_end), y0, method="DOP853", rtol=rtol, atol=atol,
                        dense_output=True)
        assert res.success
        if t_end < t0:
            ts, interpolants = list(res.sol.ts[::-1]), res.sol.interpolants[::-1]
        else:
            ts, interpolants = ts[:-1] + list(res.sol.ts), interpolants + res.sol.interpolants
    return OdeSolution(ts, interpolants)


def _assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def _assert_same_steps(sol, oracle):
    """The knots and every step's stacked dense-output data."""
    _assert_same_bits(sol.ts, oracle.ts)
    for name, attr in (("_t_old", "t_old"), ("_h", "h"), ("_y_old", "y_old")):
        _assert_same_bits(getattr(sol, name), [getattr(i, attr) for i in oracle.interpolants])
    # _rows is (7, steps, components); each step's F is (7, components)
    _assert_same_bits(sol._rows.transpose(1, 0, 2), [i.F for i in oracle.interpolants])


def _assert_same_values(sol, oracle, rng):
    t_lo, t_hi = sol.t_min, sol.t_max
    inner = rng.uniform(t_lo, t_hi, 500)  # unsorted
    cases = [
        inner,
        np.repeat(inner[:50], 3),  # repeats
        sol.ts,                    # every knot, t0 and both ends included
        np.concatenate([sol.ts[::-1], inner[:20]]),
    ]
    for ts in cases:
        _assert_same_bits(sol(ts), oracle(ts).T)
    for t in np.concatenate([sol.ts, inner[:100]]):  # scalar path
        _assert_same_bits(sol(float(t)), oracle(t))
    _assert_same_bits(sol(np.zeros(0)), np.zeros((0, sol.ncomponents)))


@pytest.mark.parametrize("t0, t_lo, t_hi", [
    (2.0, -5.0, 15.0),   # two-sided
    (-5.0, -5.0, 15.0),  # forward only
    (15.0, -5.0, 15.0),  # backward only
])
def test_dense_solution_matches_ode_solution_bitwise(t0, t_lo, t_hi):
    y0 = [1.2, 0.0, -0.5]
    sol = solve_ode(_pendulum, t0, y0, t_lo, t_hi)
    oracle = _oracle(_pendulum, t0, y0, t_lo, t_hi)
    _assert_same_steps(sol, oracle)
    _assert_same_values(sol, oracle, np.random.default_rng(7))


def test_dense_solution_matches_ode_solution_on_degenerate_span():
    sol = solve_ode(_pendulum, 1.5, [1.2, 0.0, -0.5], 1.5, 1.5)
    oracle = _oracle(_pendulum, 1.5, [1.2, 0.0, -0.5], 1.5, 1.5)
    _assert_same_bits(sol.ts, oracle.ts)
    _assert_same_bits(sol(1.5), oracle(1.5))
    _assert_same_bits(sol(np.array([1.5, 1.5])), oracle(np.array([1.5, 1.5])).T)


def test_zero_slope_matches_ode_solution_bitwise():
    """y' = 0: the initial step takes its d1, d2 <= 1e-15 branch and every
    error norm is exactly zero; knots and dense output are scipy's."""
    def still(t, y):
        return np.zeros_like(y)

    sol = solve_ode(still, 0.0, [1.0, -2.0], 0.0, 5.0)
    oracle = _oracle(still, 0.0, [1.0, -2.0], 0.0, 5.0)
    _assert_same_steps(sol, oracle)
    _assert_same_values(sol, oracle, np.random.default_rng(3))
    ts = np.linspace(0.0, 5.0, 101)
    _assert_same_bits(sol(ts), oracle(ts).T)
    np.testing.assert_array_equal(sol(ts), np.tile([1.0, -2.0], (101, 1)))


@pytest.mark.parametrize("name", ["ck", "lo", "driven_sho", "driven_ck"])
def test_scenario_trajectories_match_solve_ivp_bitwise(monkeypatch, name):
    """Every march of a bundled scenario's build.  The particular path is a
    quadrature over the basis and marches nothing, so each driven document
    is built over a numeric basis: its one march is the basis's."""
    doc = load_scenario(name)
    if "driving" in doc:
        doc["basis"] = {"kind": "numeric", "ics": [1.0, 0.0, 0.0, 1.0], "tol": 1e-11}
    calls = []

    def recording(f, t0, y0, t_lo, t_hi, rtol, atol):
        sol = solve_ode(f, t0, y0, t_lo, t_hi, rtol, atol)
        calls.append((sol, _oracle(f, t0, y0, t_lo, t_hi, rtol, atol)))
        return sol

    monkeypatch.setattr(tdho.classical, "solve_ode", recording)
    build_context(doc)
    assert len(calls) == 1
    rng = np.random.default_rng(11)
    for sol, oracle in calls:
        _assert_same_steps(sol, oracle)
        _assert_same_values(sol, oracle, rng)


def test_tableau_matches_scipy_bitwise():
    n = _dop853.N_STAGES
    for got, want in [
        (_dop853.A[:n, :n], DOP853.A), (_dop853.A[n + 1:], DOP853.A_EXTRA),
        (_dop853.C[:n], DOP853.C), (_dop853.C[n + 1:], DOP853.C_EXTRA),
        (_dop853.B, DOP853.B), (_dop853.E3, DOP853.E3), (_dop853.E5, DOP853.E5),
        (_dop853.D, DOP853.D),
    ]:
        _assert_same_bits(got, want)
