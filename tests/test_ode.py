"""Two-sided DOP853 integration with dense output."""

import numpy as np
import pytest
from scipy.integrate import DOP853, OdeSolution, solve_ivp

from tdho import _dop853
from tdho.classical import solve_homogeneous
from tdho.cli import build_context, load_scenario
from tdho.models import GeneralParametric
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
def test_scenario_trajectories_match_solve_ivp_bitwise(name):
    """solve_ode marches the homogeneous pair (u, v) and theta of each
    bundled scenario's equation, from the numeric basis's initial data at
    its t0 and tol, with scipy's steps and values bit for bit; each driven
    document is given a numeric basis.  The build collocates that basis, and
    it agrees with the march to its tol."""
    doc = load_scenario(name)
    if "driving" in doc:
        doc["basis"] = {"kind": "numeric", "ics": [1.0, 0.0, 0.0, 1.0], "tol": 1e-11}
    basis = build_context(doc).basis
    model = basis.model
    spec = doc["basis"]
    u0, du0, v0, dv0 = spec["ics"]
    t0 = float(spec.get("t0", model.t_min))
    tol = spec["tol"]

    def rhs(t, y):
        M, dM, _, w2 = model.terms(t)
        u, du, v, dv, _ = y.tolist()
        r = dM / M
        return np.array([du, -r * du - w2 * u, dv, -r * dv - w2 * v,
                         (v * du - u * dv) / (u * u + v * v)])

    y0 = [u0, du0, v0, dv0, np.arctan2(-v0, u0)]
    args = (t0, y0, model.t_min, model.t_max, tol, 1e-2 * tol)
    sol, oracle = solve_ode(rhs, *args), _oracle(rhs, *args)
    _assert_same_steps(sol, oracle)
    _assert_same_values(sol, oracle, np.random.default_rng(11))
    marched, built = sol(sol.ts).T, np.array(basis.slice(sol.ts))
    for k, col in enumerate((0, 1, 2, 3, 6)):
        scale = max(1.0, np.max(np.abs(marched[k])))
        assert np.max(np.abs(built[col] - marched[k])) <= 10 * tol * scale


def _tabulated_basis():
    """The numeric basis of the table M = 1 + 0.3 sin t, w^2 = 1 + 0.2 cos 2t
    on 31 nodes of [0, 6]."""
    ts = np.linspace(0.0, 6.0, 31)
    model = GeneralParametric(ts, 1.0 + 0.3 * np.sin(ts), 0.3 * np.cos(ts), -0.3 * np.sin(ts),
                              1.0 + 0.2 * np.cos(2.0 * ts))
    return solve_homogeneous(model, 1.0, 0.0, 0.0, 1.0)


def _scenario_basis(name):
    doc = load_scenario("lo" if name == "driven_lo" else name)
    if name == "driven_lo":
        doc["driving"] = {"force": {"kind": "cosine", "amplitude": 0.5, "omega": 1.3},
                          "t0": 0.0}
    return build_context(doc).basis


@pytest.mark.parametrize("name", ["ck", "lo", "driven_lo", "tabulated"])
def test_scenario_bases_match_solve_ivp(name):
    """The collocated (u, du, v, dv) of the numeric bases agree with
    scipy's DOP853 at rtol 1e-13 to 1e-12 of each column's largest value
    at 2001 times, whatever the basis's own tol.  scipy marches from t0 = 0
    to both ends, restarting at each table node, where a tabulated law is
    only piecewise smooth."""
    basis = _tabulated_basis() if name == "tabulated" else _scenario_basis(name)
    model = basis.model

    def rhs(t, y):
        M, dM, _, w2 = model.terms(t)
        return [y[1], -dM / M * y[1] - w2 * y[0], y[3], -dM / M * y[3] - w2 * y[2]]

    ts = np.linspace(model.t_min, model.t_max, 2001)
    cuts = np.unique([model.t_min, 0.0, model.t_max, *model.nodes])
    want = np.empty((4, ts.size))
    for way in (cuts[cuts <= 0.0][::-1], cuts[cuts >= 0.0]):
        y = basis.slice(0.0)[:4]
        for a, b in zip(way[:-1], way[1:]):
            sol = solve_ivp(rhs, (a, b), y, method="DOP853", rtol=1e-13, atol=1e-15,
                            dense_output=True)
            side = (ts >= min(a, b)) & (ts <= max(a, b))
            want[:, side], y = sol.sol(ts[side]), sol.y[:, -1]
    gap = np.max(np.abs(np.array(basis.slice(ts)[:4]) - want), axis=1)
    assert np.all(gap <= 1e-12 * np.max(np.abs(want), axis=1)), gap


def test_tableau_matches_scipy_bitwise():
    n = _dop853.N_STAGES
    for got, want in [
        (_dop853.A[:n, :n], DOP853.A), (_dop853.A[n + 1:], DOP853.A_EXTRA),
        (_dop853.C[:n], DOP853.C), (_dop853.C[n + 1:], DOP853.C_EXTRA),
        (_dop853.B, DOP853.B), (_dop853.E3, DOP853.E3), (_dop853.E5, DOP853.E5),
        (_dop853.D, DOP853.D),
    ]:
        _assert_same_bits(got, want)
