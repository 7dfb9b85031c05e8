"""Classical-trajectory inputs for the exact quantum states.

A basis is a pair (u, v) of independent real solutions of
(d/dt)(M xdot) + M w^2 x = 0.  The Wronskian invariant
Omega = M (vdot u - udot v) is constant and must be positive; the envelope
rho = sqrt(u^2 + v^2) and the continuously unwrapped angle
theta = arg(u - iv) parameterize the quantum states.  A numeric basis is
collocated on Gauss-Legendre panels; driven models add a particular solution
x_p and the phase integral delta(t), by quadrature over the basis.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .models import (
    CaldirolaKanai,
    OscillatorModel,
    ReducedUnitMass,
    _is_unit_mass_sho,
    frequency_scale,
)
from .ode import DenseSolution

__all__ = [
    "DegenerateBasisError",
    "OmegaSignError",
    "OverdampedError",
    "SingularPathError",
    "QuadratureError",
    "ClassicalBasis",
    "unwrapped_ellipse_angle",
    "NumericBasis",
    "ReducedBasis",
    "DrivenSolution",
    "solve_homogeneous",
    "analytic_basis_sho",
    "analytic_basis_ck",
    "reduced_basis",
    "solve_particular",
    "null_driven",
    "shift_particular",
    "delta_legacy",
    "export_basis_csv",
    "export_driven_csv",
]

_TWO_PI = 2.0 * np.pi


class DegenerateBasisError(ValueError):
    """Initial data (u0, du0) and (v0, dv0) are proportional."""


class OmegaSignError(ValueError):
    """Omega <= 0; swap the two solutions or negate one of them."""


class OverdampedError(ValueError):
    """w1^2 <= gamma^2/4: no real oscillation frequency."""


class SingularPathError(ValueError):
    """The legacy delta integrand hits a zero of v on the path."""


class QuadratureError(RuntimeError):
    """A panel's integral or collocated basis is not resolved (its q- and
    2q-node rules disagree) or not finite."""


class ClassicalBasis:
    """Base class; subclasses provide model, omega and _read.

    Every quantity of a time slice comes from one read of the trajectory:
    callers index `slice(t)`.
    """

    model: OscillatorModel
    omega: float

    def _read(self, t):
        """(u, du, v, dv, theta) at t from one evaluation of the trajectory."""
        raise NotImplementedError

    def slice(self, t):
        """(u, du, v, dv, rho, drho, theta) at t from one read."""
        u, du, v, dv, theta = self._read(t)
        # u * u, not u ** 2: on numpy scalars the power rounds differently
        # from the array square, and a scalar read must be the stack's bits
        rho = np.sqrt(u * u + v * v)
        # assembled from the trajectory derivatives, never finite-differenced
        drho = (u * du + v * dv) / rho
        return u, du, v, dv, rho, drho, theta

    def omega_check(self, t):
        """M(t)·(vdot·u − udot·v); equals omega up to integration error."""
        return _invariant(self.model.mass(t), *self.slice(t)[:4])


def _invariant(M, u, du, v, dv):
    return M * (dv * u - du * v)


def unwrapped_ellipse_angle(s, C):
    """Continuous unwrapped arg of (C·cos s) − i·(sin s), zero at s = 0.

    The raw principal argument wraps every half-period; writing
    s = q·pi + r with |r| <= pi/2 keeps cos r >= 0, so the arctangent stays
    on the principal sheet and the -q*pi term carries the winding.
    """
    s = np.asarray(s, dtype=float)
    q = np.round(s / np.pi)
    r = s - q * np.pi
    out = -(q * np.pi + np.arctan2(np.sin(r), C * np.cos(r)))
    return out if out.ndim else float(out)


class _AnalyticCKBasis(ClassicalBasis):
    """u = A e^{-gamma t/2} cos(w_ck t), v = B e^{-gamma t/2} sin(w_ck t),
    with m and gamma those of the CaldirolaKanai model."""

    def __init__(self, model, w_ck, A, B):
        self.model = model
        self.gamma = model.gamma
        self.w_ck = float(w_ck)
        self.A = float(A)
        self.B = float(B)
        self.omega = model.m * A * B * w_ck

    def _read(self, t):
        t = np.asarray(t, dtype=float)
        env = np.exp(-0.5 * self.gamma * t)
        wt = self.w_ck * t
        c, s = np.cos(wt), np.sin(wt)
        a, b = self.A * env, self.B * env
        return (a * c, a * (-0.5 * self.gamma * c - self.w_ck * s),
                b * s, b * (-0.5 * self.gamma * s + self.w_ck * c),
                # the positive envelope drops out of arg(u - iv)
                unwrapped_ellipse_angle(wt, self.A / self.B))


class NumericBasis(ClassicalBasis):
    """Basis backed by dense output of (u, du, v, dv, theta).

    Each query computes the exact principal argument and snaps it to the
    branch of the tabulated theta, which tracks the winding to within pi.
    """

    def __init__(self, sol, model, omega):
        self.model = model
        self.omega = float(omega)
        self._sol = sol

    def _read(self, t):
        y = self._sol(t)
        u, v = y[..., 0], y[..., 2]
        raw = np.arctan2(-v, u)
        theta = raw + _TWO_PI * np.round((y[..., 4] - raw) / _TWO_PI)
        return u, y[..., 1], v, y[..., 3], theta if theta.ndim else float(theta)


class ReducedBasis(ClassicalBasis):
    """Unit-mass companion (u0, v0) = sqrt(M)·(u, v) of a general basis.

    Solves the reduced equation x'' + w0^2 x = 0 with the same invariant
    Omega and the same angle theta (the positive factor sqrt(M) does not
    move the argument of u - iv).
    """

    def __init__(self, base: ClassicalBasis):
        self.base = base
        self.model = ReducedUnitMass(base.model)
        self.omega = base.omega

    def _read(self, t):
        u, du, v, dv, theta = self.base._read(t)
        M, dM, _, _ = self.base.model.terms(t)
        root_m, k = np.sqrt(M), 0.5 * (dM / M)
        return (root_m * u, root_m * (du + k * u), root_m * v, root_m * (dv + k * v),
                theta)


def reduced_basis(basis: ClassicalBasis) -> ReducedBasis:
    return ReducedBasis(basis)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def solve_homogeneous(
    model: OscillatorModel,
    u0: float,
    du0: float,
    v0: float,
    dv0: float,
    tol: float = 1e-10,
    t0=None,
) -> ClassicalBasis:
    """The homogeneous pair (u, v), and theta with it, across the model domain,
    collocated on the particular path's panels (_collocate); their propagators
    carry (u, v) out from t0.  A panel whose 16- and 32-node propagators differ
    by over `tol` of their size, or whose values are not finite, raises
    QuadratureError.  theta is arg(u - iv) at each sample of the steps,
    unwrapped from atan2(-v0, u0) as it falls (thetadot = -Omega/(M rho^2)).

    Omega is fixed from the initial data; Omega <= 0 is rejected rather
    than silently repaired, since a sign flip would alter every phase
    downstream.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    t0, k0, edges, z, half = _path_panels(model, t0)
    wronskian = dv0 * u0 - du0 * v0
    scale = max(abs(u0), abs(v0)) * max(abs(du0), abs(dv0))
    if abs(wronskian) <= 1e-14 * max(scale, 1e-300):
        raise DegenerateBasisError("initial data for u and v are proportional (zero Wronskian)")
    omega = model.mass(t0) * wronskian
    if omega <= 0:
        raise OmegaSignError(f"Omega = {omega} <= 0; swap (u, v) or negate one solution")

    lo, hi, q = edges[:-1], edges[1:], _PATH_NODES
    M, dM, _, w2 = model.terms(z.ravel())
    r, w2 = (dM / M).reshape(z.shape), w2.reshape(z.shape)
    prop, x, dx = _collocate(half, r[:, :q], w2[:, :q])
    gap = (np.abs(_collocate(half, r[:, q:], w2[:, q:])[0] - prop).max(axis=(1, 2))
           / np.abs(prop).max(axis=(1, 2)))
    if not np.all(gap <= tol):  # also catches NaN
        i = int(np.argmax(np.where(np.isnan(gap), np.inf, gap)))
        raise QuadratureError(f"basis not resolved on [{lo[i]}, {hi[i]}]: its 16- and "
                              f"32-node propagators differ by {gap[i]:.3g} of their size")
    # pair[k] = [[u, v], [du, dv]] at edge k, stepped out from t0 both ways
    pair = np.empty((len(edges), 2, 2))
    pair[k0] = [[u0, v0], [du0, dv0]]
    back = np.linalg.inv(prop[:k0])
    with np.errstate(over="ignore", invalid="ignore"):  # refused below if not finite
        for k in range(k0, len(lo)):
            pair[k + 1] = prop[k] @ pair[k]
        for k in range(k0 - 1, -1, -1):
            pair[k] = back[k] @ pair[k + 1]
        at = _step_samples(np.stack([x @ pair[:-1], dx @ pair[:-1]]).transpose(3, 0, 1, 2)
                           .reshape(4, len(lo), q), pair.transpose(2, 1, 0).reshape(4, -1))
    if not (finite := np.isfinite(at).all(axis=(0, 2, 3))).all():
        i = int(np.argmin(finite))
        raise QuadratureError(f"basis not finite on [{lo[i]}, {hi[i]}]")
    raw = np.arctan2(-at[2], at[0]).ravel()  # in time order, t0 at sample k0 * 64
    # theta falls by less than 2 pi per sample: raw rises only where it wraps
    turns = np.append(0, np.cumsum(raw[1:] > raw[:-1]))
    theta = raw - _TWO_PI * (turns - turns[min(k0 * at[0, 0].size, raw.size - 1)])
    return NumericBasis(_dense_steps(np.append(at, [theta.reshape(at.shape[1:])], axis=0),
                                     edges), model, omega)


def _collocate(half, r, w2):
    """The propagators (panels, 2, 2) of (x, xdot) over panels of half width h,
    and x, xdot (panels, q, 2) at the q Gauss nodes from (x, xdot)(lo) = (1, 0)
    and (0, 1), from r = Mdot/M and w2 at the nodes: with S spectral
    integration, x = x(lo) + hS xdot and xdot = xdot(lo) - hS(r xdot + w2 x),
    so (1 + hS r + h^2 S w2 S) xdot = xdot(lo) - x(lo) hS w2."""
    q = r.shape[1]
    hS = half[:, :, None] * _integration(q, q)
    rhs = np.stack([-(hS @ w2[..., None])[..., 0], np.ones_like(w2)], axis=-1)
    dx = np.linalg.solve(np.eye(q) + hS * r[:, None] + (hS * w2[:, None]) @ hS, rhs)
    x = hS @ dx + [1.0, 0.0]
    wq = _gauss_legendre(q)[1]
    ends = np.stack([wq @ dx, -(wq @ (r[..., None] * dx + w2[..., None] * x))], axis=1)
    return np.eye(2) + half[:, :, None] * ends, x, dx


def analytic_basis_sho(model, A=1.0, B=1.0, w_s=None) -> ClassicalBasis:
    """Closed-form basis u = A cos(w_s t), v = B sin(w_s t) of the unit-mass
    oscillator `model` (a CaldirolaKanai model at m = 1, gamma = 0); Omega =
    A·B·w_s.  w_s is the model's w1 unless given: another value detunes the
    basis on purpose, as negative controls do.  Any other model is refused."""
    if not _is_unit_mass_sho(model):
        raise ValueError("analytic_sho basis needs a UnitMassSHO model")
    w_s = model.w1 if w_s is None else w_s
    if w_s <= 0 or A <= 0 or B <= 0:
        raise ValueError("w_s, A, B must all be positive")
    return _AnalyticCKBasis(model, w_s, A, B)


def analytic_basis_ck(model, A=1.0, B=1.0) -> ClassicalBasis:
    """Closed-form basis of a CaldirolaKanai model, M = m·e^{gamma t}, with
    w_ck^2 = w1^2 - gamma^2/4; any other model is refused."""
    if not isinstance(model, CaldirolaKanai):
        raise ValueError("analytic_ck basis needs a CaldirolaKanai model")
    if A <= 0 or B <= 0:
        raise ValueError("A, B must be positive")
    w_ck_sq = model.w1**2 - 0.25 * model.gamma**2
    if w_ck_sq <= 0:
        raise OverdampedError(
            f"w1^2 - gamma^2/4 = {w_ck_sq} <= 0: overdamped regime not supported"
        )
    return _AnalyticCKBasis(model, math.sqrt(w_ck_sq), A, B)


# ---------------------------------------------------------------------------
# driven trajectories
# ---------------------------------------------------------------------------

class DrivenSolution:
    """Particular solution x_p with velocity and phase integral delta.

    delta obeys d(delta)/dt = (M w^2/2) x_p^2 - (M/2) xdot_p^2 with
    delta(t0) = 0.  `read(t)` returns (x_p, xdot_p, delta) at t in one pass;
    `tol` is the relative tolerance of its quadrature, which a shifted path
    (shift_particular) keeps.
    """

    def __init__(self, read, t0: float, model: OscillatorModel, tol: float = 1e-10):
        self._read = read
        self.t0 = float(t0)
        self.model = model
        self.tol = float(tol)

    def slice(self, t):
        """(x_p, xdot_p, delta) at t from one read."""
        return self._read(t)


def null_driven(model: OscillatorModel) -> DrivenSolution:
    """The exact x_p ≡ 0, delta ≡ 0 solution of an undriven model."""

    def read(t):
        return tuple(np.zeros((3,) + np.shape(t)))

    return DrivenSolution(read, model.t_min, model)


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n):
    return np.polynomial.legendre.leggauss(n)


def _two_rules(vals, q, lo, hi, bound):
    """q-node panel integrals from vals, g times the half width at the points of
    _path_panels; rules that differ by over `bound` of ∫|g| raise QuadratureError."""
    (_, wq), (_, w2q) = _gauss_legendre(q), _gauss_legendre(2 * q)
    coarse, fine = vals[:, :q] @ wq, vals[:, q:] @ w2q
    gap = np.abs(coarse - fine) - bound * (np.abs(vals[:, q:]) @ w2q)
    if not np.all(gap <= 0.0):  # also catches NaN
        i = int(np.argmax(np.where(np.isnan(gap), np.inf, gap)))
        raise QuadratureError(
            f"integrand not resolved on [{lo[i]}, {hi[i]}]: {q}- and {2 * q}-node "
            f"Gauss-Legendre give {float(coarse[i])!r} and {float(fine[i])!r}"
        )
    return coarse


def _integrals(g, k0, edges, half, bound):
    """∫_{t0} g at every node of _path_panels, then at every edge (t0 is edge
    k0), from g at the nodes: spectral within each panel, whose 16- and
    32-node rules must agree to `bound` of ∫|g| (_two_rules)."""
    vals, q = half * g.reshape(len(half), -1), _PATH_NODES
    p = _two_rules(vals, q, edges[:-1], edges[1:], bound)
    ends = np.concatenate([-np.cumsum(p[:k0][::-1])[::-1], [0.0], np.cumsum(p[k0:])])
    within = vals[:, :q] @ np.vstack([_integration(q, q), _integration(q, 2 * q)]).T
    return np.append(ends[:-1, None] + within, ends)


# per panel of a path: Gauss nodes (checked against 2x), degree-7 steps
_PATH_NODES, _PATH_STEPS = 16, 8


@functools.lru_cache(maxsize=None)
def _integration(q, m):
    """(m, q): values at the q Gauss nodes of [-1, 1] to the integrals from -1
    of their Legendre series at the m Gauss nodes (spectral integration,
    Greengard 1991)."""
    leg = np.polynomial.legendre
    to_series = np.linalg.inv(leg.legvander(_gauss_legendre(q)[0], q - 1))
    return leg.legvander(_gauss_legendre(m)[0], q) @ leg.legint(to_series, lbnd=-1, axis=0)


@functools.lru_cache(maxsize=None)
def _path_matrices():
    """Fixed maps: `samples` from a panel's values at its q = _PATH_NODES
    Gauss nodes to their Legendre series at 8 Chebyshev-Lobatto points of
    each step, ends included; `rows` from those to y_old and the DOP853 F."""
    leg, q = np.polynomial.legendre, _PATH_NODES
    s = 0.5 - 0.5 * np.cos(np.pi * np.arange(8) / 7)
    z = -1.0 + 2.0 * (np.arange(_PATH_STEPS)[:, None] + s).ravel() / _PATH_STEPS
    # y - y_old = F0 x + F1 x w + F2 x^2 w + ... + F6 x^4 w^3, as _dop853_poly
    powers = s[1:, None] ** [1, 1, 2, 2, 3, 3, 4] * (1.0 - s[1:, None]) ** [0, 1, 1, 2, 2, 3, 3]
    eye = np.eye(8)
    rows = np.vstack([eye[0], np.linalg.solve(powers, eye[1:] - eye[0])])
    rows[1] = eye[7] - eye[0]  # F0 = y(1) - y_old exactly: a read at a knot is exact
    to_series = np.linalg.inv(leg.legvander(_gauss_legendre(q)[0], q - 1))
    return leg.legvander(z, q - 1) @ to_series, rows


def _step_samples(nodes, edges):
    """(k, panels, _PATH_STEPS, 8) samples of the series through `nodes` (k,
    panels, _PATH_NODES), with every panel's ends exactly `edges` (k, panels + 1)."""
    at = (nodes @ _path_matrices()[0].T).reshape(*nodes.shape[:2], _PATH_STEPS, 8)
    at[:, :, 0, 0], at[:, :, -1, -1] = edges[:, :-1], edges[:, 1:]
    return at


def _dense_steps(at, edges):
    """The DenseSolution of degree-7 DOP853-form steps, _PATH_STEPS per
    panel between `edges`, through the samples `at` of _step_samples."""
    steps = np.ascontiguousarray((at @ _path_matrices()[1].T).reshape(len(at), -1, 8).T)
    ts = np.append(np.linspace(edges[:-1], edges[1:], _PATH_STEPS, endpoint=False, axis=1),
                   edges[-1])
    return DenseSolution(ts, ts[:-1], np.diff(ts), steps[0], steps[1:])


def _integral_steps(paths, z, edges):
    """The DenseSolution through `paths` (k, nodes then edges of _path_panels,
    as _integrals lays them out), in _PATH_STEPS degree-7 steps per panel."""
    n = z.size
    at = _step_samples(paths[:, :n].reshape(len(paths), *z.shape)[..., :_PATH_NODES], paths[:, n:])
    return _dense_steps(at, edges)


def _path_panels(model, t0, span=None):
    """t0 (the span's start if None) within the span (the domain if None), its
    index among the panel edges, the edges, each panel's 16- then 32-node
    Gauss points and its half width.  Edges are at most half a radian of the
    fastest frequency apart: the span's ends, t0 and the table nodes inside
    the span are edges, and each gap between them equal panels."""
    start, end = (model.t_min, model.t_max) if span is None else span
    t0 = start if t0 is None else float(t0)
    model.check_domain(t0)
    t0 = min(max(t0, start), end)  # within check_domain's slack
    width = 0.5 / frequency_scale(model)
    cuts = sorted({start, t0, end, *(node for node in model.nodes if start < node < end)})
    edges = np.concatenate([*(np.linspace(a, b, math.ceil((b - a) / width), endpoint=False)
                              for a, b in zip(cuts[:-1], cuts[1:])), [end]])
    lo, hi, q = edges[:-1], edges[1:], _PATH_NODES
    mid, half = 0.5 * (hi + lo)[:, None], 0.5 * (hi - lo)[:, None]
    z = mid + half * np.concatenate([_gauss_legendre(q)[0], _gauss_legendre(2 * q)[0]])
    return t0, int(np.searchsorted(edges, t0)), edges, z, half


def solve_particular(
    basis: ClassicalBasis,
    xp0: float,
    dxp0: float,
    t0=None,
    tol: float = 1e-10,
) -> DrivenSolution:
    """x_p, xdot_p and delta by quadrature over a basis (variation of
    parameters): with Omega = M(vdot u - udot v),

        x_p = (v J_u - u J_v)/Omega,  xdot_p = (vdot J_u - udot J_v)/Omega,

    where J_u = M(xdot_p u - x_p udot) = J_u(t0) + ∫_{t0}^t u F, and J_v the
    same in v; delta = ∫_{t0}^t of its rate.  Each integral is spectral on
    Gauss-Legendre panels (_path_panels) whose 16- and 32-node rules must
    agree to `tol` of ∫|g|, else QuadratureError (_integrals); it is read
    through degree-7 dense-output steps, 8 per panel (_integral_steps)."""
    model = basis.model
    t0, k0, edges, z, half = _path_panels(model, t0)
    n = z.size
    # each quantity flat: the panels' q and 2q nodes, then the edges
    u, du, v, dv, _ = basis._read(np.append(z, edges))
    M, _, _, w2 = model.terms(z.ravel())
    F, M0, omega, i = model.force_at(z.ravel()), model.mass(t0), basis.omega, n + k0
    j_u = _integrals(u[:n] * F, k0, edges, half, tol) + M0 * (dxp0 * u[i] - xp0 * du[i])
    j_v = _integrals(v[:n] * F, k0, edges, half, tol) + M0 * (dxp0 * v[i] - xp0 * dv[i])
    xp, dxp = (v * j_u - u * j_v) / omega, (dv * j_u - du * j_v) / omega
    rate = 0.5 * M * (w2 * xp[:n] ** 2 - dxp[:n] ** 2)
    sol = _integral_steps(np.stack([xp, dxp, _integrals(rate, k0, edges, half, tol)]), z, edges)

    def read(t):
        y = sol(t)
        return tuple(y.tolist()) if y.ndim == 1 else (y[..., 0], y[..., 1], y[..., 2])

    return DrivenSolution(read, t0, model, tol)


def shift_particular(
    driven: DrivenSolution, basis: ClassicalBasis, c: float
) -> DrivenSolution:
    """New particular solution x_p' = x_p + c·u, its delta solved over `basis`
    from its data at driven.t0; that delta differs from
    delta - c·M·udot·(x_p + c·u/2) only by an additive constant."""
    if c == 0.0:
        return driven
    (xp0, dxp0, _), (u0, du0) = driven.slice(driven.t0), basis.slice(driven.t0)[:2]
    shifted = solve_particular(basis, xp0 + c * u0, dxp0 + c * du0, driven.t0, driven.tol)

    def read(t):
        xp, dxp, _ = driven.slice(t)
        u, du = basis.slice(t)[:2]
        return xp + c * u, dxp + c * du, shifted.slice(t)[2]

    return DrivenSolution(read, driven.t0, basis.model, driven.tol)


def delta_legacy(
    basis: ClassicalBasis,
    driven: DrivenSolution,
    t0: float,
    t: float | np.ndarray,
) -> float | np.ndarray:
    """Endpoint form of the phase integral:

        delta = -(M/2)(vdot/v) x_p^2 - (1/2) ∫ M (x_p vdot/v - xdot_p)^2 dz

    valid only where v does not vanish; agrees with the co-integrated delta
    up to an additive constant.  Kept as a cross-check oracle.  t may be a
    scalar or an array of endpoints.  The integral from t0 takes the
    particular path's panels on the window [a, b] spanned by t0 and t
    (_path_panels) and its quadrature (_integrals), but its own fixed
    1e-10 bound; it is read through the same degree-7 steps as delta.
    """
    model = basis.model
    t = np.asarray(t, dtype=float)
    a, b = min(t0, float(t.min())), max(t0, float(t.max()))
    probe = np.linspace(a, b, max(64, int(1024 * (b - a))))
    vv = basis.slice(probe)[2]
    if np.min(np.abs(vv)) < 1e-8 * np.max(np.abs(vv)) or np.any(
        vv[:-1] * vv[1:] < 0
    ):
        raise SingularPathError(
            f"v(t) vanishes on [{a}, {b}]; choose a window between zeros of v"
        )

    v, dv = basis.slice(t)[2:4]
    out = -0.5 * model.mass(t) * (dv / v) * driven.slice(t)[0] ** 2
    if b > a:  # a zero-width window leaves the boundary term alone
        t0, k0, edges, z, half = _path_panels(model, t0, (a, b))
        v, dv = basis.slice(z.ravel())[2:4]
        xp, dxp, _ = driven.slice(z.ravel())
        g = _integrals(model.mass(z.ravel()) * (xp * dv / v - dxp) ** 2, k0, edges, half, 1e-10)
        out = out - 0.5 * _integral_steps(g[None], z, edges)(t)[..., 0]
    return out if np.ndim(out) else float(out)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def _write_rows(path, header, columns):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join("%.17g" % x for x in row) + "\n")


def export_basis_csv(basis: ClassicalBasis, path, n_samples: int = 201):
    """Columns t, u, du, v, dv, omega_check at evenly spaced times."""
    model = basis.model
    ts = np.linspace(model.t_min, model.t_max, n_samples)
    u, du, v, dv = basis.slice(ts)[:4]
    _write_rows(
        path,
        ["t", "u", "du", "v", "dv", "omega_check"],
        [ts, u, du, v, dv, _invariant(model.mass(ts), u, du, v, dv)],
    )


def export_driven_csv(driven: DrivenSolution, path, n_samples: int = 201):
    """Columns t, xp, dxp, delta at evenly spaced times."""
    model = driven.model
    ts = np.linspace(model.t_min, model.t_max, n_samples)
    _write_rows(path, ["t", "xp", "dxp", "delta"], [ts, *driven.slice(ts)])
