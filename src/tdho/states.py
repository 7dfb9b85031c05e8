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

with x_p = delta = 0 in the undriven case.  With scale = sqrt(Omega/hbar) / rho
and xi = scale d the kernel evaluates it as sqrt(scale) e^{-xi^2/2} h_n(xi)
times the phases, where h_n = H_n / sqrt(2^n n! sqrt(pi)) is the monic
Hermite recurrence's f_n times sqrt(2^n / n!), that normalisation applied to
the requested orders only, so one pass gives any set of orders of a
slice or of a stack of them, on the slices' cutoff windows (state_window;
tdho._kernels.cutoff_window names the window of one order).  The classical
data of a stack of times is read once, as arrays: one domain check, one
basis slice, one mass read and one driven slice for the whole stack.  A
single time is a stack of one and takes the same path, so a slice read
alone has the bits it has in any stack.

Every read, of one order or of many, forms the kernel's six slice columns
(chirp, scale, centre, linear phase, phase0 and dphase) in one place
(_columns) and hands all six to it.  The kernel alone forms the
normalisation sqrt(scale) e^{-xi^2/2}, so every read is a normalised
state, and order n's phase (n + 1/2) theta + delta/hbar, as
phase0 + n dphase.  So a field read of order n (state_field, psi_*) is,
bit for bit, the row of a full-depth state_kernel_window read of [n] over
its slice or over any stack of slices that holds it.  Window reads
(state_window, closed_form_window) stop at e^-READ_DEPTH of each slice's
amplitude scale; field reads go down to the kernel's LOG_FLOOR.

The closed-form families (exponential mass, constant at gamma = 0, and
pulsating mass) differ only in their law for the mass M(t), k = Mdot/M and
the constant reduced frequency w_c^2, which each reads from its own
parameters, never from a model's mass or a basis.  One slice formula turns
any law into the kernel parameters, with the same branch convention, so
general/specialized comparisons need no phase alignment.  CLOSED_FORMS is the one map from a
model family to its law and its closed_form.kind; closed_form_window gives
any set of orders of a family's closed-form slices at one time or a stack
of times from the same one recurrence, on the slices' cutoff windows, and
psi_sho, psi_ck and psi_lo one order from the family's parameters; a law,
too, reads a whole stack of times at once.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass

import numpy as np

from ._kernels import state_kernel, state_kernel_window
from .classical import (
    ClassicalBasis,
    DrivenSolution,
    OverdampedError,
    null_driven,
    unwrapped_ellipse_angle,
)
from .models import CaldirolaKanai, LoDampedPulsating, OscillatorModel

__all__ = [
    "StateSpec",
    "WavefunctionField",
    "psi_unit_mass",
    "psi_general",
    "psi_driven",
    "state_window",
    "psi_sho",
    "psi_ck",
    "psi_lo",
    "CLOSED_FORMS",
    "closed_form_law",
    "closed_form_window",
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


# Every state block the suite reads is zero below e^-READ_DEPTH of its
# slice's amplitude scale (state_kernel_window's depth): at most
# e^-40 / 0.358 ≈ 1.2e-17 of the state's peak for orders up to 1000, under
# eps/16.  A norm or Gram entry sees that squared, below 1.4e-34 of the
# peak's square; a maximum sees it under the rounding of the peak; a
# linear sum over 4096 points under 5e-14 of the peak, far below
# BOUNDARY_RATIO.  Change it only by that argument, given in full in
# tdho.verify's module docstring.
READ_DEPTH = 40.0


def _columns(t, omega, hbar, rho, gauss_im, theta, x_shift, k_lin, phase_shift):
    """The kernel's six slice columns of a state whose invariant (with the
    mass folded in) is omega, with envelope rho, chirp gauss_im, angle theta,
    centre x_shift, linear phase k_lin and phase offset phase_shift, each
    given at every time of the stack np.atleast_1d(t): scalars for a scalar
    t, one 1-D column each for a 1-D sequence of times.  The kernel forms
    the normalisation from the scale alone.  Order n takes the phase
    phase0 + n dphase = (n + 1/2) theta + phase_shift."""
    columns = np.array((
        gauss_im,
        np.sqrt(omega / hbar) / rho,
        x_shift,
        k_lin,
        0.5 * theta + phase_shift,
        theta,
    ))
    return columns if np.ndim(t) else columns[:, 0]


def _slice_params(spec: StateSpec, t):
    """The kernel's six slice columns (gauss_im, scale, x_shift, k_lin,
    phase0, dphase) of spec's state at t, driven when spec carries a
    DrivenSolution: scalars for a scalar t, one 1-D column each for a 1-D
    sequence of times (_columns).  The basis, the mass and the
    driven solution are each read once for the whole stack."""
    basis, model, hbar = spec.basis, spec.model, spec.hbar
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    model.check_domain(ts)
    rho, drho, theta = basis.slice(ts)[4:]
    M = model.mass(ts)
    if spec.driven is not None:
        xp, dxp, delta = spec.driven.slice(ts)
        shift = (xp, M * dxp / hbar, delta / hbar)
    else:
        shift = (np.zeros(ts.shape),) * 3
    return _columns(t, basis.omega, hbar, rho, 0.5 * M * drho / (hbar * rho), theta,
                    *shift)


def state_window(spec: StateSpec, x, t, orders):
    """The given orders of spec's state at time t, or at each of a 1-D
    sequence of times, on the ascending grid x (spec.n is not read), read
    to READ_DEPTH: (rows, offset) as state_kernel_window gives them.

    Driven when spec carries a DrivenSolution, as in state_field.  The
    classical data of all the times is read once, as one stack, and every
    order at every time comes from one recurrence to max(orders).  rows is
    (len(orders), W) for a scalar t, rows[i] being psi_{orders[i]} on
    x[offset:offset + W], and the (len(t), len(orders), W) stack of them
    for a sequence; every other column of x is an exact zero, as is every
    sample below e^-READ_DEPTH of its slice's amplitude scale.
    """
    return state_kernel_window(x, orders, *_slice_params(spec, t), depth=READ_DEPTH)


def psi_general(spec: StateSpec, x, t):
    """Eigenstate of the undriven variable-mass oscillator over spec.basis:
    a driven spec is read over null_driven."""
    if spec.driven is not None:
        spec = StateSpec(spec.n, spec.hbar, spec.basis, null_driven(spec.model))
    return state_kernel(x, spec.n, *_slice_params(spec, float(t)))


def psi_unit_mass(spec: StateSpec, x, t):
    """Eigenstate of the unit-mass system; requires M(t) = 1."""
    M = float(spec.model.mass(t))
    if abs(M - 1.0) > 1e-12:
        raise ValueError(f"psi_unit_mass needs a unit-mass model; M({t}) = {M}")
    return psi_general(spec, x, t)


def psi_driven(spec: StateSpec, x, t):
    """Displaced eigenstate of the driven oscillator.

    The driving enters as the argument shift x - x_p and the extra phase
    (M xdot_p x + delta)/hbar; the Gaussian/Hermite structure is untouched.
    """
    if spec.driven is None:
        raise ValueError("StateSpec has no DrivenSolution attached")
    return state_kernel(x, spec.n, *_slice_params(spec, float(t)))


# ---------------------------------------------------------------------------
# closed-form families (independent code paths, same branch convention)
# ---------------------------------------------------------------------------

def _rho_tilde(s, C):
    """sqrt(1 + (C^2 - 1) cos^2 s) and its s-derivative."""
    rt = np.sqrt(1.0 + (C * C - 1.0) * np.cos(s) ** 2)
    drt = -(C * C - 1.0) * np.sin(2.0 * s) / (2.0 * rt)
    return rt, drt


# Each family's law (M, k, w_c^2) at t, a time or a 1-D array of them, from
# the family's own parameters (its model's params()), never from a model's
# mass or a basis.

def _ck_law(t, m, gamma, w1):
    # M as CaldirolaKanai.terms forms it
    return m * np.exp(gamma * t), gamma, w1 * w1 - 0.25 * gamma * gamma


def _lo_law(t, m0, gamma, mu, nu, w_lo):
    if m0 <= 0:
        raise ValueError("m0 must be positive")
    if w_lo <= 0:
        raise ValueError("w_lo must be positive")
    # M as LoDampedPulsating.terms forms it and k as the factor its Mdot puts
    # on it, so both agree bit for bit
    M = m0 * np.exp(2.0 * (gamma * t + mu * np.sin(nu * t)))
    return M, 2.0 * (gamma + mu * nu * np.cos(nu * t)), w_lo * w_lo


# the one map from a model family to its closed form: family -> (its
# closed_form.kind, its law)
CLOSED_FORMS = {
    CaldirolaKanai: ("ck", _ck_law),
    LoDampedPulsating: ("lo", _lo_law),
}


def closed_form_law(model):
    """t -> (M, k, w_c^2) of model's family from its own parameters
    (model.params()), at a time or at a 1-D array of them, or None for a
    family without a closed form."""
    if type(model) not in CLOSED_FORMS:
        return None
    return functools.partial(CLOSED_FORMS[type(model)][1], **model.params())


def _closed_columns(law, Ccoef, hbar, t):
    """The kernel's six slice columns of the closed form with pulsation
    parameter Ccoef of the family whose law gives the mass M(t),
    k = Mdot/M and the constant reduced frequency w_c^2, at t, from one
    read of the stack np.atleast_1d(t): scalars for a scalar t, one 1-D
    column each for a 1-D sequence of times (_columns).  The ellipse data
    of C runs at w_c; the mass enters through the width factor and the
    chirp's -k/2."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    M, k, w2 = law(ts)
    if Ccoef <= 0:
        raise ValueError("Ccoef must be positive")
    if w2 <= 0:
        raise OverdampedError(f"w_c^2 = {w2} <= 0: overdamped regime not supported")
    w_c = np.sqrt(w2)
    s = w_c * ts
    rt, drt = _rho_tilde(s, Ccoef)
    drt = drt * w_c  # d/dt, not d/ds
    zero = np.zeros(ts.shape)
    return _columns(t, M * Ccoef * w_c, hbar, rt, 0.5 * M * (drt / rt - 0.5 * k) / hbar,
                    unwrapped_ellipse_angle(s, Ccoef), zero, zero, zero)


def closed_form_window(model, Ccoef, orders, hbar, x, t):
    """The given orders of the closed-form state with pulsation parameter
    Ccoef of model's family at t, or at each of a 1-D sequence of times, on
    the ascending grid x, as state_window's (rows, offset), read to
    READ_DEPTH, from one recurrence."""
    law = closed_form_law(model)
    if law is None:
        raise ValueError(f"{type(model).__name__} has no closed-form state")
    return state_kernel_window(x, orders, *_closed_columns(law, Ccoef, hbar, t),
                               depth=READ_DEPTH)


def psi_sho(w_s, Ccoef, n, hbar, x, t):
    """Unit-mass oscillator eigenstate with pulsation parameter C: psi_ck
    at m = 1, gamma = 0.

    C = 1 is the stationary textbook state; C != 1 breathes with envelope
    rho_tilde = sqrt(1 + (C^2 - 1) cos^2(w_s t)), period pi/w_s.
    """
    if w_s <= 0:
        raise ValueError("w_s must be positive")
    return psi_ck(1.0, 0.0, w_s, Ccoef, n, hbar, x, t)


def psi_ck(m, gamma, w1, Ccoef, n, hbar, x, t):
    """Exponential-mass (M = m e^{gamma t}) oscillator eigenstate.

    Same ellipse data as the constant-mass state but at the shifted
    frequency w_ck = sqrt(w1^2 - gamma^2/4), with the mass factor in the
    Gaussian width and the extra -gamma/2 in its imaginary part.
    """
    law = functools.partial(_ck_law, m=m, gamma=gamma, w1=w1)
    return state_kernel(x, int(n), *_closed_columns(law, Ccoef, hbar, float(t)))


def psi_lo(m0, gamma, mu, nu, w_lo, Ccoef, n, hbar, x, t):
    """Damped-pulsating-mass oscillator eigenstate.

    The mass m0 e^{2(gamma t + mu sin nu t)} is compensated by the model
    frequency, so the ellipse data runs at the constant reduced frequency
    w_lo; the mass enters through the width factor and -Mdot/2M.
    """
    law = functools.partial(_lo_law, m0=m0, gamma=gamma, mu=mu, nu=nu, w_lo=w_lo)
    return state_kernel(x, int(n), *_closed_columns(law, Ccoef, hbar, float(t)))


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
    fn = psi_general if spec.driven is None else psi_driven
    return WavefunctionField(functools.partial(fn, spec), f"{fn.__name__}[n={spec.n}]", spec)


@functools.lru_cache(maxsize=8)
def _x_column(grid) -> tuple:
    """The x column of dump_state_grid's CSV on grid, one string per sample:
    formatted once per grid, as every file on it shares the column."""
    return tuple("%.17g" % v for v in grid.xs().tolist())


def dump_state_grid(field: WavefunctionField, grid, t: float, csv_path, meta=None):
    """Write the samples of field at t on grid (a tdho.transforms.Grid) as
    CSV (x, re_psi, im_psi, abs2) plus a JSON sidecar."""
    values = field(grid.xs(), t)
    # abs2 as a per-row abs(psi)**2 forms it, hypot then pow:
    # np.abs(values)**2 differs from it in the last bit for many values
    abs2 = [h**2 for h in np.hypot(values.real, values.imag).tolist()]
    rows = zip(_x_column(grid), values.real.tolist(), values.imag.tolist(), abs2)
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,re_psi,im_psi,abs2\n")
        fh.write("%s,%.17g,%.17g,%.17g\n" * len(abs2)
                 % tuple(itertools.chain.from_iterable(rows)))
    spec = field.spec
    sidecar = {
        "label": field.label,
        "n": spec.n,
        "hbar": spec.hbar,
        "t": float(t),
        "model": spec.model.to_json(),
        "grid": {
            "x_min": float(grid.x_min),
            "x_max": float(grid.x_max),
            "points": grid.points,
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
