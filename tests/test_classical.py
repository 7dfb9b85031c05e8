"""Classical trajectory pairs, the invariant, angles, and driven paths."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import tdho.classical
import tdho.ode
from tdho.classical import (
    DegenerateBasisError,
    NumericBasis,
    OmegaSignError,
    OverdampedError,
    QuadratureError,
    SingularPathError,
    DrivenSolution,
    analytic_basis_ck,
    analytic_basis_sho,
    delta_legacy,
    export_basis_csv,
    export_driven_csv,
    null_driven,
    reduced_basis,
    shift_particular,
    solve_homogeneous,
    solve_particular,
    unwrapped_ellipse_angle,
)
from tdho.cli import build_context, load_scenario
from tdho.models import (
    CaldirolaKanai,
    CosineForce,
    Force,
    GeneralParametric,
    LoDampedPulsating,
    OscillatorModel,
    reduced_frequency_squared,
)

from conftest import T_MAX, T_MIN


# ---------------------------------------------------------------------------
# analytic bases
# ---------------------------------------------------------------------------

def test_sho_basis_is_cos_sin(sho_basis_c1):
    ts = np.linspace(T_MIN, T_MAX, 200)
    u, _, v, _, rho, _, _ = sho_basis_c1.slice(ts)
    np.testing.assert_allclose(u, np.cos(ts), rtol=1e-15)
    np.testing.assert_allclose(v, np.sin(ts), rtol=1e-15)
    np.testing.assert_allclose(rho, 1.0, rtol=1e-15)
    assert sho_basis_c1.omega == 1.0


def test_sho_c1_theta_is_minus_t(sho_basis_c1):
    ts = np.linspace(T_MIN, T_MAX, 200)
    np.testing.assert_allclose(sho_basis_c1.slice(ts)[6], -ts, atol=1e-14)


def test_sho_c2_ellipse(sho_basis_c2):
    ts = np.linspace(T_MIN, T_MAX, 200)
    np.testing.assert_allclose(sho_basis_c2.slice(ts)[4],
                               np.sqrt(4.0 * np.cos(ts) ** 2 + np.sin(ts) ** 2))
    assert sho_basis_c2.omega == 2.0
    np.testing.assert_allclose(sho_basis_c2.omega_check(ts), 2.0, rtol=1e-14)


def test_ck_basis_envelope_and_omega(ck_basis):
    w_ck = np.sqrt(0.91)
    ts = np.linspace(T_MIN, T_MAX, 200)
    np.testing.assert_allclose(
        ck_basis.slice(ts)[0], np.exp(-0.3 * ts) * np.cos(w_ck * ts), rtol=1e-14
    )
    assert ck_basis.omega == pytest.approx(w_ck, rel=1e-15)
    np.testing.assert_allclose(ck_basis.omega_check(ts), w_ck, rtol=1e-13)


def test_ck_overdamped_rejected():
    with pytest.raises(OverdampedError):
        analytic_basis_ck(CaldirolaKanai(1.0, 2.0, 1.0, t_min=0.0, t_max=5.0))


def test_drho_never_differenced(sho_basis_c2):
    """drho = (u du + v dv)/rho must match the analytic derivative."""
    ts = np.linspace(0.1, 9.0, 117)
    h = 1e-6
    rho = lambda t: sho_basis_c2.slice(t)[4]  # noqa: E731
    fd = (rho(ts + h) - rho(ts - h)) / (2 * h)
    np.testing.assert_allclose(sho_basis_c2.slice(ts)[5], fd, atol=1e-9)


# ---------------------------------------------------------------------------
# unwrapped angle
# ---------------------------------------------------------------------------

def test_unwrapped_angle_reduces_to_minus_s_for_circle():
    s = np.linspace(-30.0, 30.0, 1501)
    np.testing.assert_allclose(unwrapped_ellipse_angle(s, 1.0), -s, atol=1e-13)


@pytest.mark.parametrize("C", [0.3, 1.0, 2.0, 7.5])
def test_unwrapped_angle_is_continuous_and_winds(C):
    s = np.linspace(-20.0, 20.0, 40001)
    th = unwrapped_ellipse_angle(s, C)
    assert np.max(np.abs(np.diff(th))) < 0.05  # no 2 pi jumps
    # agrees with the principal value modulo 2 pi
    raw = np.arctan2(-np.sin(s), C * np.cos(s))
    np.testing.assert_allclose(np.cos(th), np.cos(raw), atol=1e-12)
    np.testing.assert_allclose(np.sin(th), np.sin(raw), atol=1e-12)
    # one full revolution per 2 pi of s
    assert unwrapped_ellipse_angle(2.0 * np.pi, C) == pytest.approx(-2.0 * np.pi)
    assert unwrapped_ellipse_angle(0.0, C) == 0.0


# ---------------------------------------------------------------------------
# numeric bases
# ---------------------------------------------------------------------------

def test_numeric_sho_matches_analytic():
    m = CaldirolaKanai(1.0, 0.0, 1.0, t_min=T_MIN, t_max=T_MAX)
    b = solve_homogeneous(m, 1.0, 0.0, 0.0, 1.0, t0=0.0, tol=1e-11)
    ts = np.linspace(T_MIN, T_MAX, 300)
    u, _, v, _, _, _, theta = b.slice(ts)
    np.testing.assert_allclose(u, np.cos(ts), atol=5e-10)
    np.testing.assert_allclose(v, np.sin(ts), atol=5e-10)
    np.testing.assert_allclose(theta, -ts, atol=5e-10)
    assert b.omega == pytest.approx(1.0, rel=1e-12)


def test_numeric_ck_matches_analytic(ck_basis):
    m = CaldirolaKanai(1.0, 0.6, 1.0, t_min=T_MIN, t_max=T_MAX)
    w_ck = np.sqrt(0.91)
    b = solve_homogeneous(m, 1.0, -0.3, 0.0, w_ck, t0=0.0, tol=1e-11)
    ts = np.linspace(T_MIN, T_MAX, 300)
    got, want = b.slice(ts), ck_basis.slice(ts)
    for k in (0, 3, 6):  # u, dv, theta
        np.testing.assert_allclose(got[k], want[k], atol=5e-10)


def test_numeric_theta_branch_at_reference(lo_basis):
    th0 = lo_basis.slice(0.0)[6]
    assert -np.pi < th0 <= np.pi
    # u(0) = 1, v(0) = 0 -> theta(0) = 0 for this fixture
    assert th0 == pytest.approx(0.0, abs=1e-12)


def test_numeric_theta_continuity(lo_basis):
    ts = np.linspace(T_MIN, T_MAX, 20000)
    th = lo_basis.slice(ts)[6]
    assert np.max(np.abs(np.diff(th))) < 0.05
    # theta decreases on average (winding follows the invariant's sign)
    assert th[-1] < th[0]


def test_degenerate_pair_rejected():
    m = CaldirolaKanai(1.0, 0.0, 1.0, t_min=0.0, t_max=5.0)
    with pytest.raises(DegenerateBasisError):
        solve_homogeneous(m, 1.0, 0.0, 2.0, 0.0, t0=0.0)  # v = 2u


def test_omega_sign_rejected():
    m = CaldirolaKanai(1.0, 0.0, 1.0, t_min=0.0, t_max=5.0)
    with pytest.raises(OmegaSignError):
        solve_homogeneous(m, 0.0, 1.0, 1.0, 0.0, t0=0.0)  # Omega = -1


@pytest.mark.parametrize("build,message", [
    (lambda: solve_homogeneous(CaldirolaKanai(1.0, 0.0, 1.0), 1.0, 0.0, 0.0, 1.0, tol=0.0),
     "tol must be positive"),
    (lambda: analytic_basis_sho(CaldirolaKanai(1.0, 0.0, 1.0), 0.0, 1.0),
     "w_s, A, B must all be positive"),
    (lambda: analytic_basis_sho(CaldirolaKanai(1.0, 0.0, 1.0), 1.0, -1.0),
     "w_s, A, B must all be positive"),
    (lambda: analytic_basis_ck(CaldirolaKanai(1.0, 0.6, 1.0), -1.0, 1.0),
     "A, B must be positive"),
    (lambda: analytic_basis_ck(CaldirolaKanai(1.0, 0.6, 1.0), 1.0, 0.0),
     "A, B must be positive"),
], ids=["tol", "sho_A", "sho_B", "ck_A", "ck_B"])
def test_nonpositive_basis_data_is_refused_as_value_error(build, message):
    with pytest.raises(ValueError) as refused:
        build()
    assert refused.type is ValueError and str(refused.value) == message


@pytest.mark.parametrize("build,message", [
    (lambda: analytic_basis_ck(
        LoDampedPulsating(1.0, 0.1, 0.2, 3.0, 1.0, t_min=-1.0, t_max=12.0)),
     "analytic_ck basis needs a CaldirolaKanai model"),
    (lambda: analytic_basis_sho(CaldirolaKanai(2.0, 0.3, 1.5, t_min=-1.0, t_max=12.0)),
     "analytic_sho basis needs a UnitMassSHO model"),
    (lambda: analytic_basis_sho(CaldirolaKanai(1.0, 0.3, 1.5, t_min=-1.0, t_max=12.0)),
     "analytic_sho basis needs a UnitMassSHO model"),
    (lambda: analytic_basis_sho(CaldirolaKanai(2.0, 0.0, 1.5, t_min=-1.0, t_max=12.0)),
     "analytic_sho basis needs a UnitMassSHO model"),
], ids=["ck_of_lo", "sho_of_ck", "sho_of_damped", "sho_of_heavy"])
def test_an_analytic_basis_refuses_a_model_of_another_family(build, message):
    with pytest.raises(ValueError) as refused:
        build()
    assert refused.type is ValueError and str(refused.value) == message


def test_an_analytic_ck_basis_solves_the_model_it_reads():
    """m, gamma and w1 come from the model alone: on M = 2 e^{0.3 t}, w1 = 1.5
    the invariant M (vdot u - udot v) holds Omega = m A B w_ck at every time."""
    model = CaldirolaKanai(2.0, 0.3, 1.5, t_min=-1.0, t_max=12.0)
    basis = analytic_basis_ck(model, 1.0, 2.0)
    w_ck = np.sqrt(1.5**2 - 0.25 * 0.3**2)
    assert basis.model is model
    assert basis.omega == pytest.approx(2.0 * 2.0 * w_ck, rel=1e-15)
    ts = np.linspace(-1.0, 12.0, 101)
    np.testing.assert_allclose(basis.omega_check(ts), basis.omega, rtol=1e-13)


@pytest.mark.parametrize("t0", [-1.0, 0.0, 5.3, 12.0])
def test_numeric_basis_from_any_t0(t0):
    """From t0 at either end of the domain or inside it, the collocated basis
    is the closed form to 1e-12, reads its initial data at t0 exactly, and
    winds theta from atan2(-v0, u0) as the closed form does."""
    m = CaldirolaKanai(1.0, 0.6, 1.0, t_min=-1.0, t_max=12.0)
    exact = analytic_basis_ck(m, 1.0, 0.5)
    u0, du0, v0, dv0 = exact.slice(t0)[:4]
    b = solve_homogeneous(m, u0, du0, v0, dv0, t0=t0, tol=1e-11)
    assert b.slice(t0)[:4] == (u0, du0, v0, dv0)
    assert b.slice(t0)[6] == np.arctan2(-v0, u0)
    ts = np.linspace(-1.0, 12.0, 2001)
    got, want = b.slice(ts), exact.slice(ts)
    for k in range(4):
        np.testing.assert_allclose(got[k], want[k], rtol=0, atol=1e-12)
    np.testing.assert_allclose(got[6] - got[6][0], want[6] - want[6][0], rtol=0, atol=1e-11)


class _Circle:
    """Stub dense solution u = cos Wt, v = sin Wt with its tabulated
    theta = -W t."""

    def __init__(self, W):
        self.W = W

    def __call__(self, t):
        wt = self.W * np.asarray(t, dtype=float)
        return np.stack([np.cos(wt), -self.W * np.sin(wt),
                         np.sin(wt), self.W * np.cos(wt), -wt], axis=-1)


def test_numeric_theta_resolves_fast_winding():
    """theta winds 26,550 rad on [0, 2655]: each principal argument snaps
    to the tabulated theta's branch."""
    W = 10.0
    b = NumericBasis(_Circle(W), CaldirolaKanai(1.0, 0.0, W, 0.0, 2655.0), W)
    ts = np.array([1.0, 1000.0, 1777.7, 2655.0])
    np.testing.assert_allclose(b.slice(ts)[6], -W * ts, rtol=1e-12)
    assert b.slice(1000.0)[6] == pytest.approx(-10000.0, rel=1e-12)


@pytest.mark.parametrize("B", [0.1, 0.01, 1e-3])
def test_numeric_theta_marched_on_eccentric_basis(B):
    """theta turns A/B times its mean rate as (u, v) crosses the minor
    axis, up to 1000 times at B = 0.001, and still falls by less than 2 pi
    between two samples of the basis's steps: its unwrapping resolves it."""
    w_ck = np.sqrt(0.91)
    m = CaldirolaKanai(1.0, 0.6, 1.0, t_min=-1.0, t_max=12.0)
    b = solve_homogeneous(m, 1.0, -0.3, 0.0, B * w_ck, t0=0.0, tol=1e-11)
    exact = analytic_basis_ck(m, 1.0, B)
    ts = np.linspace(-1.0, 12.0, 20001)
    np.testing.assert_allclose(b.slice(ts)[6], exact.slice(ts)[6], rtol=0, atol=1e-9)


class _Unstable(OscillatorModel):
    """M = 1, w^2 = -1e4: x grows as e^{100 t} and overflows near t = 7.1."""

    def terms(self, t):
        zero = 0.0 * np.asarray(t, dtype=float)
        return 1.0 + zero, zero, zero, -1e4 + zero


def test_a_basis_that_overflows_is_refused():
    """Every panel is resolved, but the chained values overflow: the first
    panel whose values are not finite is named."""
    with pytest.raises(QuadratureError, match=r"basis not finite on \[7\.05"):
        solve_homogeneous(_Unstable(0.0, 10.0), 1.0, 0.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# reduced companion
# ---------------------------------------------------------------------------

def test_reduced_basis_preserves_invariant_and_angle(ck_basis):
    red = reduced_basis(ck_basis)
    ts = np.linspace(T_MIN, T_MAX, 200)
    assert red.omega == ck_basis.omega
    np.testing.assert_allclose(red.slice(ts)[6], ck_basis.slice(ts)[6], rtol=1e-13)
    # u0 = sqrt(M) u, and the reduced pair solves the unit-mass equation:
    # u0'' + w0^2 u0 = 0 with w0^2 = 0.91
    M = ck_basis.model.mass(ts)
    u0 = lambda t: red.slice(t)[0]  # noqa: E731
    np.testing.assert_allclose(u0(ts), np.sqrt(M) * ck_basis.slice(ts)[0], rtol=1e-14)
    h = 1e-4  # balances h^2 truncation against eps/h^2 roundoff
    d2u0 = (u0(ts + h) - 2 * u0(ts) + u0(ts - h)) / h**2
    np.testing.assert_allclose(d2u0, -0.91 * u0(ts), atol=1e-6)
    np.testing.assert_allclose(red.omega_check(ts), red.omega, rtol=1e-13)


def test_reduced_basis_model_is_unit_mass(lo_basis, lo_model):
    red = reduced_basis(lo_basis)
    ts = np.linspace(T_MIN, T_MAX, 50)
    np.testing.assert_allclose(red.model.mass(ts), 1.0)
    np.testing.assert_allclose(
        red.model.freq2(ts), reduced_frequency_squared(lo_model, ts)
    )


# ---------------------------------------------------------------------------
# driven paths
# ---------------------------------------------------------------------------

def test_particular_solution_cosine_drive(driven_sho):
    """F = cos 2t on w = 1 gives the bounded response x_p = -cos(2t)/3."""
    _, drv = driven_sho
    ts = np.linspace(T_MIN, T_MAX, 200)
    xp, dxp, _ = drv.slice(ts)
    np.testing.assert_allclose(xp, -np.cos(2 * ts) / 3.0, atol=5e-11)
    np.testing.assert_allclose(dxp, 2 * np.sin(2 * ts) / 3.0, atol=5e-11)
    assert drv.slice(0.0)[2] == 0.0


def test_driven_sho_path_is_its_closed_form(driven_sho):
    """Over the analytic basis, quadrature gives F = cos 2t's response and
    its phase integral to rounding: x_p = -cos(2t)/3, xdot_p = (2/3) sin 2t
    and delta = -t/12 + (5/144) sin 4t, at knots and between them."""
    _, drv = driven_sho
    ts = np.linspace(T_MIN, T_MAX, 5001)
    xp, dxp, delta = drv.slice(ts)
    np.testing.assert_allclose(xp, -np.cos(2 * ts) / 3.0, rtol=0, atol=1e-13)
    np.testing.assert_allclose(dxp, 2 * np.sin(2 * ts) / 3.0, rtol=0, atol=1e-13)
    np.testing.assert_allclose(delta, -ts / 12 + 5 / 144 * np.sin(4 * ts), rtol=0, atol=1e-13)


def test_driven_ck_path_matches_solve_ivp(driven_ck):
    """The damped, driven path against scipy's DOP853 march of (x_p, xdot_p,
    delta) at rtol 1e-13 from t0 = 0 to both ends; over a numeric basis
    solved at 1e-11, the path agrees to that basis's accuracy."""
    basis, drv = driven_ck
    model = basis.model

    def rhs(t, y):
        M, dM, _, w2 = model.terms(t)
        F = model.force_at(t)
        return [y[1], (F - dM * y[1]) / M - w2 * y[0], 0.5 * M * (w2 * y[0] ** 2 - y[1] ** 2)]

    ts = np.linspace(T_MIN, T_MAX, 2001)
    want = np.zeros((3, ts.size))
    for end, side in ((T_MIN, ts <= 0.0), (T_MAX, ts >= 0.0)):
        sol = solve_ivp(rhs, (0.0, end), [0.0, 0.0, 0.0], method="DOP853", rtol=1e-13,
                        atol=1e-15, dense_output=True)
        want[:, side] = sol.sol(ts[side])
    gap = np.max(np.abs(np.array(drv.slice(ts)) - want), axis=1)
    assert gap[0] < 1e-12 and gap[1] < 1e-12 and gap[2] < 2e-12, gap
    numeric = solve_particular(solve_homogeneous(model, 1.0, 0.0, 0.0, 1.0, tol=1e-11, t0=0.0),
                               0.0, 0.0, t0=0.0, tol=1e-11)
    np.testing.assert_allclose(numeric.slice(ts), drv.slice(ts), rtol=0, atol=1e-9)


class _HiddenFastForce(Force):
    """cos 40t with no frequency hint: the panels are sized for w = 1."""

    def __call__(self, t):
        return np.cos(40.0 * t)


def test_a_force_too_fast_for_its_panels_is_refused():
    model = CaldirolaKanai(1.0, 0.0, 1.0, t_min=0.0, t_max=6.0, force=_HiddenFastForce())
    with pytest.raises(QuadratureError, match="16- and 32-node Gauss-Legendre give"):
        solve_particular(analytic_basis_sho(model), 0.0, 0.0, tol=1e-10)


def _forbid_marches(monkeypatch):
    def march(*args, **kwargs):
        raise AssertionError("a trajectory was marched")

    monkeypatch.setattr(tdho.ode, "solve_ode", march)
    monkeypatch.setattr(tdho.ode, "_march", march)


@pytest.mark.parametrize("name", ["driven_sho", "driven_ck"])
def test_a_driven_build_over_an_analytic_basis_marches_nothing(monkeypatch, name):
    """The particular path is a quadrature over the scenario's basis."""
    _forbid_marches(monkeypatch)
    assert build_context(load_scenario(name)).driven is not None


@pytest.mark.parametrize("name", ["sho_c1", "sho_c2", "ck", "lo", "negative_control"])
def test_no_bundled_build_marches(monkeypatch, name):
    """A numeric basis is collocated: no undriven build runs DOP853 either."""
    _forbid_marches(monkeypatch)
    assert build_context(load_scenario(name)).basis is not None


def test_panels_too_wide_for_the_basis_are_refused(monkeypatch, lo_model):
    """At a frequency scale of 1e-3 one panel spans [0, 12]: its 16- and
    32-node collocations disagree, and the error names the panel."""
    monkeypatch.setattr(tdho.classical, "frequency_scale", lambda model: 1e-3)
    with pytest.raises(QuadratureError, match=r"basis not resolved on \[0\.0, 12\.0\]"):
        solve_homogeneous(lo_model, 1.0, -0.7, 0.0, 1.0, t0=0.0, tol=1e-11)


def test_delta_rate_matches_definition(driven_sho):
    _, drv = driven_sho
    h = 1e-6
    for t in (0.5, 1.5, 3.0):
        rate_fd = (drv.slice(t + h)[2] - drv.slice(t - h)[2]) / (2 * h)
        xp, dxp, _ = drv.slice(t)
        assert rate_fd == pytest.approx(0.5 * xp**2 - 0.5 * dxp**2, abs=1e-8)


def test_null_driven_is_exactly_zero():
    m = CaldirolaKanai(1.0, 0.0, 1.0, t_min=0.0, t_max=5.0)
    nd = null_driven(m)
    ts = np.linspace(0.0, 5.0, 7)
    for q in nd.slice(ts):
        assert q.shape == ts.shape and np.all(q == 0.0)
    assert nd.slice(1.0) == (0.0, 0.0, 0.0)


def test_legacy_delta_differs_by_constant(driven_sho):
    """Endpoint form vs integrated form: equal up to one additive constant."""
    basis, drv = driven_sho
    ts = np.linspace(0.4, 2.7, 25)  # inside (0, pi), v = sin t != 0
    delta = lambda t: drv.slice(t)[2]  # noqa: E731
    diff = [delta_legacy(basis, drv, 0.4, t) - (delta(t) - delta(0.4)) for t in ts]
    assert np.std(diff) < 1e-9


def test_legacy_delta_rejects_singular_window(driven_sho):
    basis, drv = driven_sho
    with pytest.raises(SingularPathError):
        # v = sin t vanishes at t = pi inside (2, 4)
        delta_legacy(basis, drv, 2.0, 4.0)


def test_legacy_delta_array_matches_scalar_endpoints(driven_sho):
    basis, drv = driven_sho
    ts = np.linspace(0.4, 2.7, 25)
    vec = delta_legacy(basis, drv, 1.1, ts)
    scalar = [delta_legacy(basis, drv, 1.1, t) for t in ts]
    assert vec.shape == ts.shape
    np.testing.assert_allclose(vec, scalar, rtol=0.0, atol=1e-13)


def test_legacy_delta_at_t0_is_boundary_term(driven_sho):
    basis, drv = driven_sho
    t = 1.3
    v, dv = basis.slice(t)[2:4]
    boundary = -0.5 * basis.model.mass(t) * (dv / v) * drv.slice(t)[0] ** 2
    assert delta_legacy(basis, drv, t, t) == boundary


def test_path_integrals_match_closed_form_both_sides_of_t0():
    """∫cos from t0 = 0.7 on the path's half-radian panels over [-2, 5],
    read through the degree-7 steps as delta is."""
    model = CaldirolaKanai(1.0, 0.0, 1.0, t_min=-2.0, t_max=5.0)
    _, k0, edges, z, half = tdho.classical._path_panels(model, 0.7)
    path = tdho.classical._integrals(np.cos(z.ravel()), k0, edges, half, 1e-10)
    integral = tdho.classical._integral_steps(path[None], z, edges)
    ts = np.array([-2.0, -0.3, 0.7, 1.2, 4.99, 5.0])
    np.testing.assert_allclose(integral(ts)[:, 0], np.sin(ts) - np.sin(0.7),
                               rtol=0.0, atol=1e-14)
    assert integral(0.7)[0] == 0.0


def _fast_velocity_path(model):
    """A stand-in path with xdot_p = cos 200t, x_p = 0: the legacy integrand
    M cos^2 200t turns 100 radians on each half-radian panel."""
    return DrivenSolution(lambda t: (0.0 * t, np.cos(200.0 * t), 0.0 * t), 0.0, model)


def test_legacy_delta_rejects_under_resolved_integrand(driven_sho):
    basis, _ = driven_sho
    with pytest.raises(QuadratureError, match="16- and 32-node Gauss-Legendre give"):
        delta_legacy(basis, _fast_velocity_path(basis.model), 0.4, np.linspace(0.4, 2.7, 5))


def test_quadrature_refusal_prints_plain_floats(driven_sho):
    """The refusal names both rules' values as Python floats, not as the
    repr of numpy scalars (np.float64(...) under numpy 2)."""
    basis, _ = driven_sho
    with pytest.raises(QuadratureError) as info:
        delta_legacy(basis, _fast_velocity_path(basis.model), 0.4, 2.7)
    message = str(info.value)
    assert "np.float64" not in message
    coarse, fine = message.rsplit(" give ", 1)[1].split(" and ")
    assert float(coarse) != float(fine)


def test_legacy_delta_panels_have_every_table_node_in_its_window_as_an_edge(monkeypatch):
    """On a driven tabulated model no panel of delta_legacy straddles a node
    (w^2 is only C^2 there): the edges its guard sees are the window's ends,
    t0 and every node inside, and lie at most half a radian apart."""
    ts = np.linspace(0.0, 6.0, 31)
    model = GeneralParametric(ts, 1.0 + 0.3 * np.sin(ts), 0.3 * np.cos(ts),
                              -0.3 * np.sin(ts), 1.0 + 0.2 * np.cos(2.0 * ts),
                              force=CosineForce(1.0, 1.3))
    basis = solve_homogeneous(model, 1.0, 0.0, 0.0, 1.0, tol=1e-11)
    driven = solve_particular(basis, 0.0, 0.0, tol=1e-11)
    seen = []

    def recording(vals, q, lo, hi, bound):
        seen.append(np.append(lo, hi[-1]))
        return two_rules(vals, q, lo, hi, bound)

    two_rules = tdho.classical._two_rules
    monkeypatch.setattr(tdho.classical, "_two_rules", recording)
    a, t0, b = 0.33, 0.77, 1.51  # inside v's first half-period from v(0) = 0
    delta_legacy(basis, driven, t0, np.linspace(a, b, 7))
    [edges] = seen
    assert edges[0] == a and edges[-1] == b and t0 in edges
    assert set(ts[(ts > a) & (ts < b)]) <= set(edges)
    assert np.all(np.diff(edges) > 0)
    assert np.diff(edges).max() <= 0.5 / tdho.classical.frequency_scale(model)


def test_shift_particular_rule(driven_sho):
    """x_p' = x_p + c u changes delta by -c M du (x_p + c u / 2) + const."""
    basis, drv = driven_sho
    c = 0.5
    shifted = shift_particular(drv, basis, c)
    ts = np.linspace(0.0, 9.0, 60)
    vals = []
    for t in ts:
        u, du = basis.slice(t)[:2]
        xp, _, delta = drv.slice(t)
        vals.append(shifted.slice(t)[2] - delta + c * du * (xp + 0.5 * c * u))
    assert np.std(vals) < 1e-9
    # new trajectory solves the same driven equation: residual check via ICs
    np.testing.assert_allclose(shifted.slice(ts)[0],
                               drv.slice(ts)[0] + c * basis.slice(ts)[0], rtol=1e-12)


def test_shift_particular_zero_is_identity(driven_sho):
    basis, drv = driven_sho
    assert shift_particular(drv, basis, 0.0) is drv


# ---------------------------------------------------------------------------
# one-read slices: derived quantities from the same read, bit for bit
# ---------------------------------------------------------------------------

def _assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("name", ["sho_c2", "ck", "numeric", "reduced_numeric"])
def test_basis_slice_equals_per_method_reads(name, sho_basis_c2, ck_basis, lo_basis):
    """rho, drho and omega_check are their formulas in (u, du, v, dv) of the
    same slice; the reduced slice is sqrt(M)·(u, v) of its base's slice."""
    basis = {"sho_c2": sho_basis_c2, "ck": ck_basis, "numeric": lo_basis,
             "reduced_numeric": reduced_basis(lo_basis)}[name]
    for t in (0.7, np.linspace(T_MIN, T_MAX, 97)):
        got = basis.slice(t)
        assert len(got) == 7
        u, du, v, dv, rho, drho, theta = got
        assert np.shape(theta) == np.shape(t)
        _assert_same_bits(rho, np.sqrt(u * u + v * v))
        _assert_same_bits(drho, (u * du + v * dv) / np.sqrt(u * u + v * v))
        _assert_same_bits(basis.omega_check(t),
                          basis.model.mass(t) * (dv * u - du * v))
    if name == "reduced_numeric":
        t = np.linspace(T_MIN, T_MAX, 97)
        M, dM = lo_basis.model.mass(t), lo_basis.model.dmass(t)
        base, got = lo_basis.slice(t), basis.slice(t)
        _assert_same_bits(got[1], np.sqrt(M) * (base[1] + 0.5 * (dM / M) * base[0]))
        _assert_same_bits(got[6], base[6])


@pytest.mark.parametrize("name", ["sho_c2", "ck", "ck_scenario"])
def test_a_scalar_slice_is_its_stack_read(name, sho_basis_c2, ck_basis):
    """basis.slice(t) at one time is, bit for bit, that time's entry of the
    slice over a stack of 5001 times: the analytic SHO and CK bases and the
    bundled ck scenario's numeric basis."""
    if name == "ck_scenario":
        from tdho.cli import build_context, load_scenario

        basis = build_context(load_scenario("ck")).basis
    else:
        basis = {"sho_c2": sho_basis_c2, "ck": ck_basis}[name]
    ts = np.linspace(basis.model.t_min, basis.model.t_max, 5001)
    stack = np.array(basis.slice(ts))
    one = np.array([basis.slice(t) for t in ts]).T
    _assert_same_bits(one, stack)


def test_driven_slices_equal_per_method_reads(driven_sho):
    """The shifted path is x_p + c·(u, du) of the same slices; the null path
    is zeros of the query's shape."""
    basis, drv = driven_sho
    c = 0.5
    shifted = shift_particular(drv, basis, c)
    null = null_driven(basis.model)
    for t in (0.7, np.linspace(T_MIN, T_MAX, 97)):
        for d in (drv, shifted, null):
            got = d.slice(t)
            assert len(got) == 3
            assert all(np.shape(q) == np.shape(t) for q in got)
        xp, dxp, _ = drv.slice(t)
        u, du = basis.slice(t)[:2]
        s_xp, s_dxp, _ = shifted.slice(t)
        _assert_same_bits(s_xp, xp + c * u)
        _assert_same_bits(s_dxp, dxp + c * du)
        _assert_same_bits(null.slice(t)[0], np.zeros(np.shape(t)))
    # scalar reads of the dense solution stay Python floats
    assert all(type(q) is float for q in drv.slice(0.7))


# ---------------------------------------------------------------------------
# CSV exports
# ---------------------------------------------------------------------------

def test_export_basis_csv(tmp_path, ck_basis):
    out = tmp_path / "basis.csv"
    export_basis_csv(ck_basis, out, n_samples=41)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,u,du,v,dv,omega_check"
    assert len(lines) == 42
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    np.testing.assert_allclose(data[:, 5], ck_basis.omega, rtol=1e-13)


def test_export_driven_csv(tmp_path, driven_sho):
    _, drv = driven_sho
    out = tmp_path / "driven.csv"
    export_driven_csv(drv, out, n_samples=21)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,xp,dxp,delta"
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    np.testing.assert_allclose(data[:, 1], -np.cos(2 * data[:, 0]) / 3.0,
                               atol=5e-11)
