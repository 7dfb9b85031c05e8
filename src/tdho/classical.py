"""Classical-trajectory inputs for the exact quantum states.

A basis is a pair (u, v) of independent real solutions of
(d/dt)(M xdot) + M w^2 x = 0.  The Wronskian invariant
Omega = M (vdot u - udot v) is constant and must be positive; the envelope
rho = sqrt(u^2 + v^2) and the continuously unwrapped angle
theta = arg(u - iv) parameterize the quantum states.  Driven models add a
particular solution x_p and the accumulated phase integral delta(t).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .models import (
    CaldirolaKanai,
    OscillatorModel,
    ReducedUnitMass,
    UnitMassSHO,
    frequency_scale,
)
from .ode import ODEError, solve_ode

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
    """A delta integral is not resolved (its 20- and 40-node Gauss-Legendre
    panels disagree) or is queried outside its tabulated span."""


class ClassicalBasis:
    """Base class; subclasses provide model, omega and _read.

    Every quantity of a time slice comes from one read of the trajectory
    (`slice`); the per-quantity methods are views of it.
    """

    model: OscillatorModel
    omega: float

    def _read(self, t):
        """(u, du, v, dv, theta) at t from one evaluation of the trajectory."""
        raise NotImplementedError

    def slice(self, t):
        """(u, du, v, dv, rho, drho, theta) at t from one read."""
        u, du, v, dv, theta = self._read(t)
        rho = np.sqrt(u ** 2 + v ** 2)
        # assembled from the trajectory derivatives, never finite-differenced;
        # u*u and u**2 round differently on numpy scalars, so rho is not reused
        drho = (u * du + v * dv) / np.sqrt(u * u + v * v)
        return u, du, v, dv, rho, drho, theta

    def u(self, t):
        return self.slice(t)[0]

    def du(self, t):
        return self.slice(t)[1]

    def v(self, t):
        return self.slice(t)[2]

    def dv(self, t):
        return self.slice(t)[3]

    def rho(self, t):
        return self.slice(t)[4]

    def drho(self, t):
        return self.slice(t)[5]

    def theta(self, t):
        return self.slice(t)[6]

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


class _AnalyticSHOBasis(ClassicalBasis):
    """u = A cos(w t), v = B sin(w t) over the unit-mass SHO."""

    def __init__(self, model, w_s, A, B):
        self.model = model
        self.w = float(w_s)
        self.A = float(A)
        self.B = float(B)
        self.omega = A * B * w_s

    def _read(self, t):
        wt = self.w * np.asarray(t, dtype=float)
        c, s = np.cos(wt), np.sin(wt)
        return (self.A * c, -self.A * self.w * s, self.B * s, self.B * self.w * c,
                unwrapped_ellipse_angle(wt, self.A / self.B))


class _AnalyticCKBasis(ClassicalBasis):
    """u = A e^{-gamma t/2} cos(w_ck t), v = B e^{-gamma t/2} sin(w_ck t)."""

    def __init__(self, model, m, gamma, w_ck, A, B):
        self.model = model
        self.gamma = float(gamma)
        self.w_ck = float(w_ck)
        self.A = float(A)
        self.B = float(B)
        self.omega = m * A * B * w_ck

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


_THETA_TABLE_CAP = 2**20 + 1


class NumericBasis(ClassicalBasis):
    """Basis backed by dense ODE output; theta from an unwrapped table.

    The table nodes are close enough that theta moves by less than pi/2
    between neighbours, so numpy's unwrap picks the right branch; each query
    then computes the exact principal argument and snaps it to the branch
    the table indicates.
    """

    def __init__(self, sol, model, omega, t_ref):
        self.model = model
        self.omega = float(omega)
        self.t_ref = float(t_ref)
        self._sol = sol
        self._build_theta_table()

    def _read(self, t):
        y = self._sol(t)
        u, v = y[..., 0], y[..., 2]
        raw = np.arctan2(-v, u)
        ref = np.interp(t, self._theta_ts, self._theta_table)
        theta = raw + _TWO_PI * np.round((ref - raw) / _TWO_PI)
        return u, y[..., 1], v, y[..., 3], theta if theta.ndim else float(theta)

    def _build_theta_table(self):
        """Size the nodes from the pointwise rate |thetadot| = |u vdot - v udot|/rho^2.

        The unwrapped steps alone cannot tell a step s from s - 2pi, so a
        table too coarse for the winding would look smooth and be wrong by
        whole turns.  The spacing keeps rate x spacing below pi/2 at every
        node (and the unwrapped steps too); past _THETA_TABLE_CAP nodes the
        basis is refused.
        """
        lo, hi = self.model.t_min, self.model.t_max
        n = 4097
        while True:
            ts = np.linspace(lo, hi, n)
            y = self._sol(ts)
            u, du, v, dv = y[:, 0], y[:, 1], y[:, 2], y[:, 3]
            unwrapped = np.unwrap(np.arctan2(-v, u))
            rate = np.max(np.abs(u * dv - v * du) / (u * u + v * v))
            step = max((ts[1] - ts[0]) * rate, np.max(np.abs(np.diff(unwrapped))))
            if step < 0.5 * np.pi:
                break
            # aim at pi/4 per node so that the next table passes
            need = (n - 1) * step / (0.25 * np.pi) + 1
            if not need <= _THETA_TABLE_CAP:  # also catches NaN
                raise ODEError(
                    f"theta table on [{lo}, {hi}] needs {need:.4g} nodes, above "
                    f"the cap of {_THETA_TABLE_CAP}: theta winds too fast"
                )
            n = max(2 * n - 1, math.ceil(need))
        # fix the branch so theta(t_ref) lands in (-pi, pi]
        th0 = np.interp(self.t_ref, ts, unwrapped)
        unwrapped -= _TWO_PI * math.floor((th0 + np.pi) / _TWO_PI)
        self._theta_ts = ts
        self._theta_table = unwrapped


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
        m = self.base.model
        M = m.mass(t)
        root_m, k = np.sqrt(M), 0.5 * (m.dmass(t) / M)
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
    """Integrate the homogeneous pair (u, v) across the model domain.

    Omega is fixed from the initial data; Omega <= 0 is rejected rather
    than silently repaired, since a sign flip would alter every phase
    downstream.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    t0 = model.t_min if t0 is None else float(t0)
    model.check_domain(t0)
    wronskian = dv0 * u0 - du0 * v0
    scale = max(abs(u0), abs(v0)) * max(abs(du0), abs(dv0))
    if abs(wronskian) <= 1e-14 * max(scale, 1e-300):
        raise DegenerateBasisError(
            "initial data for u and v are proportional (zero Wronskian)"
        )
    omega = model.mass(t0) * wronskian
    if omega <= 0:
        raise OmegaSignError(
            f"Omega = {omega} <= 0; swap (u, v) or negate one solution"
        )

    def rhs(t, y):
        M = model.mass(t)
        r = model.dmass(t) / M
        w2 = model.freq2(t)
        return np.array(
            [y[1], -r * y[1] - w2 * y[0], y[3], -r * y[3] - w2 * y[2]]
        )

    sol = solve_ode(
        rhs, t0, [u0, du0, v0, dv0], model.t_min, model.t_max,
        rtol=tol, atol=1e-2 * tol,
    )
    return NumericBasis(sol, model, omega, t_ref=t0)


def analytic_basis_sho(w_s, A, B, model=None, t_min=0.0, t_max=20.0) -> ClassicalBasis:
    """Closed-form SHO basis u = A cos(w_s t), v = B sin(w_s t); Omega = A·B·w_s."""
    if w_s <= 0 or A <= 0 or B <= 0:
        raise ValueError("w_s, A, B must all be positive")
    if model is None:
        model = UnitMassSHO(w_s, t_min, t_max)
    return _AnalyticSHOBasis(model, w_s, A, B)


def analytic_basis_ck(m, gamma, w1, A, B, model=None, t_min=0.0, t_max=20.0) -> ClassicalBasis:
    """Closed-form basis for M = m·e^{gamma t} with w_ck^2 = w1^2 - gamma^2/4."""
    if A <= 0 or B <= 0:
        raise ValueError("A, B must be positive")
    w_ck_sq = w1**2 - 0.25 * gamma**2
    if w_ck_sq <= 0:
        raise OverdampedError(
            f"w1^2 - gamma^2/4 = {w_ck_sq} <= 0: overdamped regime not supported"
        )
    if model is None:
        model = CaldirolaKanai(m, gamma, w1, t_min, t_max)
    return _AnalyticCKBasis(model, m, gamma, math.sqrt(w_ck_sq), A, B)


# ---------------------------------------------------------------------------
# driven trajectories
# ---------------------------------------------------------------------------

class DrivenSolution:
    """Particular solution x_p with velocity and phase integral delta.

    delta obeys d(delta)/dt = (M w^2/2) x_p^2 - (M/2) xdot_p^2 with
    delta(t0) = 0.  `read(t)` returns (x_p, xdot_p, delta) at t in one pass.
    """

    def __init__(self, read, t0: float, model: OscillatorModel):
        self._read = read
        self.t0 = float(t0)
        self.model = model

    def slice(self, t):
        """(x_p, xdot_p, delta) at t from one read."""
        return self._read(t)

    def xp(self, t):
        return self._read(t)[0]

    def dxp(self, t):
        return self._read(t)[1]

    def delta(self, t):
        return self._read(t)[2]


def null_driven(model: OscillatorModel) -> DrivenSolution:
    """The exact x_p ≡ 0, delta ≡ 0 solution of an undriven model."""

    def read(t):
        return tuple(np.zeros((3,) + np.shape(t)))

    return DrivenSolution(read, model.t_min, model)


def _delta_rate(model, t, xp, dxp):
    M = model.mass(t)
    return 0.5 * M * model.freq2(t) * xp * xp - 0.5 * M * dxp * dxp


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n):
    return np.polynomial.legendre.leggauss(n)


def _gauss_panels(g, lo, hi):
    """20-node Gauss–Legendre integrals of g over each [lo_i, hi_i].

    g is called once, on the 20- and the 40-node points of every panel
    together; a panel whose two rules differ by more than 1e-10 of its
    integral of |g| raises QuadratureError.
    """
    if lo.size == 0:
        return np.zeros(0)
    (x20, w20), (x40, w40) = _gauss_legendre(20), _gauss_legendre(40)
    mid, half = 0.5 * (hi + lo)[:, None], 0.5 * (hi - lo)[:, None]
    z = mid + half * np.concatenate([x20, x40])
    vals = half * np.asarray(g(z.ravel()), dtype=float).reshape(z.shape)
    coarse, fine = vals[:, :20] @ w20, vals[:, 20:] @ w40
    gap = np.abs(coarse - fine) - 1e-10 * (np.abs(vals[:, 20:]) @ w40)
    if not np.all(gap <= 0.0):  # also catches NaN
        i = int(np.argmax(np.where(np.isnan(gap), np.inf, gap)))
        raise QuadratureError(
            f"integrand not resolved on [{lo[i]}, {hi[i]}]: 20- and 40-node "
            f"Gauss-Legendre give {coarse[i]!r} and {fine[i]!r}"
        )
    return coarse


def _panel_integral(g, t0, t_lo, t_hi, width):
    """t -> integral of g from t0 to t, for t in [t_lo, t_hi] and vectorized g.

    Whole panels of `width` step out from t0 both ways and are summed once
    into a cumulative table; each query adds the exact partial panel from
    the table edge next to it (on the t0 side) up to t.
    """
    k_lo = math.floor((t0 - t_lo) / width)
    k_hi = math.floor((t_hi - t0) / width)
    ks = np.arange(-k_lo, k_hi, dtype=float)
    p = _gauss_panels(g, t0 + ks * width, t0 + (ks + 1.0) * width)
    # table[k + k_lo] = integral from t0 to t0 + k*width
    table = np.concatenate(
        [-np.cumsum(p[:k_lo][::-1])[::-1], [0.0], np.cumsum(p[k_lo:])]
    )
    slack = 1e-9 * max(t_hi - t_lo, 1.0)

    def integral(t):
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        if flat.size and (flat.min() < t_lo - slack or flat.max() > t_hi + slack):
            raise QuadratureError(f"query time outside tabulated span [{t_lo}, {t_hi}]")
        k = np.clip(np.trunc((flat - t0) / width), -k_lo, k_hi)
        part = _gauss_panels(g, t0 + k * width, flat)
        out = (table[k.astype(int) + k_lo] + part).reshape(t.shape)
        return out if out.ndim else float(out)

    return integral


def _panel_width(model):
    # one radian of the fastest model frequency per panel: the 20-node rule
    # is then exact to rounding for the smooth delta integrands
    return 1.0 / frequency_scale(model)


def solve_particular(
    model: OscillatorModel,
    xp0: float,
    dxp0: float,
    t0=None,
    tol: float = 1e-10,
) -> DrivenSolution:
    """Integrate {x_p, delta} as one augmented system with shared steps."""
    t0 = model.t_min if t0 is None else float(t0)
    model.check_domain(t0)

    def rhs(t, y):
        M = model.mass(t)
        r = model.dmass(t) / M
        w2 = model.freq2(t)
        F = model.force_at(t)
        return np.array(
            [
                y[1],
                F / M - r * y[1] - w2 * y[0],
                _delta_rate(model, t, y[0], y[1]),
            ]
        )

    sol = solve_ode(
        rhs, t0, [xp0, dxp0, 0.0], model.t_min, model.t_max,
        rtol=tol, atol=1e-2 * tol,
    )

    def read(t):
        y = sol(t)
        return tuple(y.tolist()) if y.ndim == 1 else (y[..., 0], y[..., 1], y[..., 2])

    return DrivenSolution(read, t0, model)


def shift_particular(
    driven: DrivenSolution, basis: ClassicalBasis, c: float, model=None
) -> DrivenSolution:
    """New particular solution x_p' = x_p + c·u with delta recomputed.

    The recomputed delta differs from delta - c·M·udot·(x_p + c·u/2) only
    by an additive constant.
    """
    model = basis.model if model is None else model
    if c == 0.0:
        return driven

    def path(t):
        xp, dxp, _ = driven.slice(t)
        u, du = basis.slice(t)[:2]
        return xp + c * u, dxp + c * du

    def rate(t):
        return _delta_rate(model, t, *path(t))

    delta = _panel_integral(rate, driven.t0, model.t_min, model.t_max,
                            _panel_width(model))

    def read(t):
        return (*path(t), delta(t))

    return DrivenSolution(read, driven.t0, model)


def delta_legacy(
    basis: ClassicalBasis,
    driven: DrivenSolution,
    model: OscillatorModel,
    t0: float,
    t: float | np.ndarray,
) -> float | np.ndarray:
    """Endpoint form of the phase integral:

        delta = -(M/2)(vdot/v) x_p^2 - (1/2) ∫ M (x_p vdot/v - xdot_p)^2 dz

    valid only where v does not vanish; agrees with the co-integrated delta
    up to an additive constant.  Kept as a cross-check oracle.  t may be a
    scalar or an array of endpoints; all share one panel table from t0.
    """
    t = np.asarray(t, dtype=float)
    a, b = min(t0, float(t.min())), max(t0, float(t.max()))
    span = max(b - a, 1e-12)
    probe = np.linspace(a, b, max(64, int(1024 * span)))
    vv = basis.v(probe)
    if np.min(np.abs(vv)) < 1e-8 * np.max(np.abs(vv)) or np.any(
        vv[:-1] * vv[1:] < 0
    ):
        raise SingularPathError(
            f"v(t) vanishes on [{a}, {b}]; choose a window between zeros of v"
        )

    def integrand(z):
        v, dv = basis.slice(z)[2:4]
        xp, dxp, _ = driven.slice(z)
        return model.mass(z) * (xp * dv / v - dxp) ** 2

    integral = _panel_integral(integrand, t0, a, b, _panel_width(model))(t)
    v, dv = basis.slice(t)[2:4]
    boundary = -0.5 * model.mass(t) * (dv / v) * driven.slice(t)[0] ** 2
    out = boundary - 0.5 * integral
    return out if np.ndim(out) else float(out)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def _write_rows(path, header, columns):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join("%.17g" % x for x in row) + "\n")


def export_basis_csv(basis: ClassicalBasis, path, n_samples: int = 201, model=None):
    """Columns t, u, du, v, dv, omega_check at evenly spaced times."""
    model = basis.model if model is None else model
    ts = np.linspace(model.t_min, model.t_max, n_samples)
    u, du, v, dv = basis.slice(ts)[:4]
    _write_rows(
        path,
        ["t", "u", "du", "v", "dv", "omega_check"],
        [ts, u, du, v, dv, _invariant(basis.model.mass(ts), u, du, v, dv)],
    )


def export_driven_csv(driven: DrivenSolution, path, n_samples: int = 201, model=None):
    """Columns t, xp, dxp, delta at evenly spaced times."""
    model = driven.model if model is None else model
    ts = np.linspace(model.t_min, model.t_max, n_samples)
    _write_rows(path, ["t", "xp", "dxp", "delta"], [ts, *driven.slice(ts)])
