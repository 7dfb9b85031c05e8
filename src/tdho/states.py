"""Exact eigenstates of the time-dependent oscillator.

Every state is built from classical data at one time slice: the invariant
Omega, the envelope rho and its derivative, the unwrapped angle theta, and
(for driven systems) the particular solution x_p with its phase integral
delta.  The common evaluation kernel is

    psi_n(x, t) = (Omega/(pi hbar))^{1/4} / sqrt(2^n n!) * rho^{-1/2}
                  * exp[i (n + 1/2) theta]
                  * exp[(d^2/2hbar)(-Omega/rho^2 + i M rhodot/rho)]
                  * H_n(sqrt(Omega/hbar) d / rho)
                  * exp[i (M xdot_p x + delta)/hbar],      d = x - x_p,

with x_p = delta = 0 in the undriven case.  With xi = sqrt(Omega/hbar) d / rho
the kernel evaluates it as (Omega/hbar)^{1/4} rho^{-1/2} e^{-xi^2/2} h_n(xi)
times the phases, where h_n = H_n / sqrt(2^n n! sqrt(pi)) comes from the
normalised Hermite recurrence, so one pass gives any set of orders of a
slice (state_block).  Closed-form families (constant mass, exponential
mass, pulsating mass) are evaluated through independent code paths with
the same branch convention, so general/specialized comparisons need no
phase alignment.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import state_kernel, state_kernel_block
from .classical import ClassicalBasis, DrivenSolution, unwrapped_ellipse_angle
from .models import OscillatorModel

__all__ = [
    "StateSpec",
    "WavefunctionField",
    "psi_unit_mass",
    "psi_general",
    "psi_driven",
    "state_block",
    "psi_sho",
    "psi_ck",
    "psi_lo",
    "state_field",
    "dump_state_grid",
]


@dataclass
class StateSpec:
    """Everything needed to evaluate one eigenstate family member."""

    n: int
    hbar: float
    basis: ClassicalBasis
    driven: DrivenSolution | None = None

    def __post_init__(self):
        if self.n < 0 or self.n != int(self.n):
            raise ValueError("n must be a non-negative integer")
        self.n = int(self.n)
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")
        self.hbar = float(self.hbar)
        if self.basis.omega <= 0:
            raise ValueError("basis invariant Omega must be positive")
        if self.model.has_driving and self.driven is None:
            raise ValueError("model carries a driving force; supply a DrivenSolution")
        if self.driven is not None and self.driven.model is not self.model:
            raise ValueError("the DrivenSolution is over another model than the basis")

    @property
    def model(self) -> OscillatorModel:
        return self.basis.model

    def describe(self) -> dict:
        doc = {
            "n": self.n,
            "hbar": self.hbar,
            "model": self.model.to_json(),
            "basis": {"type": type(self.basis).__name__, "omega": self.basis.omega},
        }
        if self.driven is not None:
            doc["driven"] = {"t0": self.driven.t0}
        return doc


def _log_norm(omega, hbar, rho):
    """ln[(Omega/hbar)^{1/4} rho^{-1/2}], the factor in front of h_n(xi) e^{-xi^2/2}."""
    return 0.25 * math.log(omega / hbar) - 0.5 * math.log(rho)


def _kernel_call(x, n, log_norm, gauss_re, gauss_im, scale, phase0,
                 x_shift=0.0, k_lin=0.0):
    """state_kernel on scalar-or-array x (a scalar x returns a complex)."""
    scalar = np.isscalar(x) or np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
    out = state_kernel(xs, n, log_norm, gauss_re, gauss_im, scale,
                       x_shift, k_lin, phase0)
    return complex(out[0]) if scalar else out


def _slice_params(spec: StateSpec, t, with_driving: bool):
    """Kernel parameters of spec's classical data at scalar time t, shared by
    every order: ((log_norm, gauss_re, gauss_im, scale, x_shift, k_lin),
    theta, delta/hbar).  Order n takes the phase (n + 1/2) theta + delta/hbar."""
    basis, model, hbar = spec.basis, spec.model, spec.hbar
    t = float(t)
    model.check_domain(t)
    rho, drho, theta = (float(q) for q in basis.slice(t)[4:])
    M = float(model.mass(t))
    omega = basis.omega

    if with_driving and spec.driven is not None:
        xp, dxp, delta = spec.driven.slice(t)
        x_shift = float(xp)
        k_lin = M * float(dxp) / hbar
        phase_shift = float(delta) / hbar
    else:
        x_shift = 0.0
        k_lin = 0.0
        phase_shift = 0.0

    params = (
        _log_norm(omega, hbar, rho),
        -0.5 * omega / (hbar * rho * rho),
        0.5 * M * drho / (hbar * rho),
        math.sqrt(omega / hbar) / rho,
        x_shift,
        k_lin,
    )
    return params, theta, phase_shift


def _eval_slice(spec: StateSpec, x, t, with_driving: bool):
    """Evaluate the kernel at scalar time t for scalar-or-array x."""
    params, theta, phase_shift = _slice_params(spec, t, with_driving)
    log_norm, gauss_re, gauss_im, scale, x_shift, k_lin = params
    phase0 = (spec.n + 0.5) * theta + phase_shift
    return _kernel_call(x, spec.n, log_norm, gauss_re, gauss_im, scale, phase0,
                        x_shift, k_lin)


def state_block(spec: StateSpec, x, t, orders):
    """The given orders of spec's state at time t on the ascending grid x
    (spec.n is not read).

    Driven when spec carries a DrivenSolution, as in state_field.  The
    classical data of the slice is evaluated once and every order comes from
    one recurrence to max(orders).  Returns (window, rows): rows[i] is
    psi_{orders[i]} on x[window], and every sample outside the window is an
    exact zero.
    """
    params, theta, phase_shift = _slice_params(spec, t, with_driving=True)
    return state_kernel_block(x, orders, *params, 0.5 * theta + phase_shift, theta)


def psi_general(spec: StateSpec, x, t):
    """Eigenstate of the undriven variable-mass oscillator over spec.basis."""
    return _eval_slice(spec, x, t, with_driving=False)


def psi_unit_mass(spec: StateSpec, x, t):
    """Eigenstate of the unit-mass system; requires M(t) = 1."""
    M = float(spec.model.mass(t))
    if abs(M - 1.0) > 1e-12:
        raise ValueError(f"psi_unit_mass needs a unit-mass model; M({t}) = {M}")
    return _eval_slice(spec, x, t, with_driving=False)


def psi_driven(spec: StateSpec, x, t):
    """Displaced eigenstate of the driven oscillator.

    The driving enters as the argument shift x - x_p and the extra phase
    (M xdot_p x + delta)/hbar; the Gaussian/Hermite structure is untouched.
    """
    if spec.driven is None:
        raise ValueError("StateSpec has no DrivenSolution attached")
    return _eval_slice(spec, x, t, with_driving=True)


# ---------------------------------------------------------------------------
# closed-form families (independent code paths, same branch convention)
# ---------------------------------------------------------------------------

def _rho_tilde(s, C):
    """sqrt(1 + (C^2 - 1) cos^2 s) and its s-derivative."""
    rt = np.sqrt(1.0 + (C * C - 1.0) * np.cos(s) ** 2)
    drt = -(C * C - 1.0) * np.sin(2.0 * s) / (2.0 * rt)
    return rt, drt


def psi_sho(w_s, Ccoef, n, hbar, x, t):
    """Constant-mass oscillator eigenstate with pulsation parameter C.

    C = 1 is the stationary textbook state; C != 1 breathes with envelope
    rho_tilde = sqrt(1 + (C^2 - 1) cos^2(w_s t)), period pi/w_s.
    """
    if w_s <= 0 or Ccoef <= 0:
        raise ValueError("w_s and Ccoef must be positive")
    s = w_s * float(t)
    rt, drt = _rho_tilde(s, Ccoef)
    rt, drt = float(rt), float(drt * w_s)  # d/dt, not d/ds
    theta = unwrapped_ellipse_angle(s, Ccoef)
    return _kernel_call(
        x,
        int(n),
        _log_norm(Ccoef * w_s, hbar, rt),
        -0.5 * Ccoef * w_s / (hbar * rt * rt),
        0.5 * drt / (hbar * rt),
        math.sqrt(Ccoef * w_s / hbar) / rt,
        (n + 0.5) * theta,
    )


def psi_ck(m, gamma, w1, Ccoef, n, hbar, x, t):
    """Exponential-mass (M = m e^{gamma t}) oscillator eigenstate.

    Same ellipse data as the constant-mass state but at the shifted
    frequency w_ck = sqrt(w1^2 - gamma^2/4), with the mass factor in the
    Gaussian width and the extra -gamma/2 in its imaginary part.
    """
    from .classical import OverdampedError

    w_ck_sq = w1 * w1 - 0.25 * gamma * gamma
    if w_ck_sq <= 0:
        raise OverdampedError(
            f"w1^2 - gamma^2/4 = {w_ck_sq} <= 0: overdamped regime not supported"
        )
    w_ck = math.sqrt(w_ck_sq)
    t = float(t)
    M = m * math.exp(gamma * t)
    s = w_ck * t
    rt, drt = _rho_tilde(s, Ccoef)
    rt, drt = float(rt), float(drt * w_ck)
    theta = unwrapped_ellipse_angle(s, Ccoef)
    return _kernel_call(
        x,
        int(n),
        _log_norm(M * Ccoef * w_ck, hbar, rt),
        -0.5 * M * Ccoef * w_ck / (hbar * rt * rt),
        0.5 * M * (drt / rt - 0.5 * gamma) / hbar,
        math.sqrt(M * Ccoef * w_ck / hbar) / rt,
        (n + 0.5) * theta,
    )


def psi_lo(m0, gamma, mu, nu, w_lo, Ccoef, n, hbar, x, t):
    """Damped-pulsating-mass oscillator eigenstate.

    The mass m0 e^{2(gamma t + mu sin nu t)} is compensated by the model
    frequency, so the ellipse data runs at the constant reduced frequency
    w_lo; the mass enters through the width factor and -Mdot/2M.
    """
    if m0 <= 0:
        raise ValueError("m0 must be positive")
    if w_lo <= 0:
        raise ValueError("w_lo must be positive")
    m0, gamma, mu, nu, t = float(m0), float(gamma), float(mu), float(nu), float(t)
    # LoDampedPulsating.mass/dmass term for term, so both agree bit for bit
    M = float(m0 * np.exp(2.0 * (gamma * t + mu * np.sin(nu * t))))
    dM = float(2.0 * (gamma + mu * nu * np.cos(nu * t)) * M)
    s = w_lo * t
    rt, drt = _rho_tilde(s, Ccoef)
    rt, drt = float(rt), float(drt * w_lo)
    theta = unwrapped_ellipse_angle(s, Ccoef)
    return _kernel_call(
        x,
        int(n),
        _log_norm(M * Ccoef * w_lo, hbar, rt),
        -0.5 * M * Ccoef * w_lo / (hbar * rt * rt),
        0.5 * (M * drt / rt - 0.5 * dM) / hbar,
        math.sqrt(M * Ccoef * w_lo / hbar) / rt,
        (n + 0.5) * theta,
    )


# ---------------------------------------------------------------------------
# field objects
# ---------------------------------------------------------------------------

class WavefunctionField:
    """Callable (x, t) -> complex amplitude with the StateSpec it evaluates."""

    def __init__(self, fn, label: str, spec: StateSpec):
        self._fn = fn
        self.label = label
        self.spec = spec

    @property
    def hbar(self) -> float:
        return self.spec.hbar

    def __call__(self, x, t):
        return self._fn(x, t)

    def __repr__(self):
        return f"WavefunctionField({self.label})"


def state_field(spec: StateSpec) -> WavefunctionField:
    """Field for the general (or driven, when attached) eigenstate."""
    if spec.driven is not None:
        fn = lambda x, t: psi_driven(spec, x, t)  # noqa: E731
        label = f"psi_driven[n={spec.n}]"
    else:
        fn = lambda x, t: psi_general(spec, x, t)  # noqa: E731
        label = f"psi_general[n={spec.n}]"
    return WavefunctionField(fn, label, spec)


def dump_state_grid(field: WavefunctionField, x, t: float, csv_path, meta=None):
    """Write samples as CSV (x, re_psi, im_psi, abs2) plus a JSON sidecar."""
    x = np.asarray(x, dtype=np.float64)
    values = field(x, t)
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,re_psi,im_psi,abs2\n")
        for xi, vi in zip(x, values):
            fh.write(
                "%.17g,%.17g,%.17g,%.17g\n"
                % (xi, vi.real, vi.imag, abs(vi) ** 2)
            )
    spec = field.spec
    sidecar = {
        "label": field.label,
        "n": spec.n,
        "hbar": spec.hbar,
        "t": float(t),
        "model": spec.model.to_json(),
        "grid": {
            "x_min": float(x[0]),
            "x_max": float(x[-1]),
            "points": int(len(x)),
        },
        "spec": spec.describe(),
    }
    if meta:
        sidecar.update(meta)
    side_path = str(csv_path) + ".json"
    with open(side_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return side_path
