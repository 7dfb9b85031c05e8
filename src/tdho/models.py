"""Oscillator parameter families M(t), w^2(t), F(t).

All builtin families carry closed-form first and second mass derivatives;
nothing here is ever finite-differenced.  The unit-mass reduction
w0^2 = w^2 + (1/4)(Mdot/M)^2 - (1/2)(Mddot/M) lives here too, since it only
needs the model data.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "ModelSample",
    "Force",
    "ConstantForce",
    "CosineForce",
    "ExpCosineForce",
    "PolynomialForce",
    "force_from_json",
    "OscillatorModel",
    "UnitMassSHO",
    "CaldirolaKanai",
    "LoDampedPulsating",
    "GeneralParametric",
    "ReducedUnitMass",
    "evaluate_model",
    "reduced_frequency_squared",
    "lo_frequency_squared",
    "frequency_scale",
    "model_from_json",
]


class DomainError(ValueError):
    """Raised when a time lies outside a model's domain."""


@dataclass(frozen=True)
class ModelSample:
    """Exact model data at one time: M, dM/dt, d2M/dt2, w^2, F."""

    t: float
    M: float
    dM: float
    d2M: float
    w2: float
    F: float


# ---------------------------------------------------------------------------
# driving-force families
# ---------------------------------------------------------------------------

class Force:
    kind = "none"

    def __call__(self, t):
        raise NotImplementedError

    @property
    def is_zero(self) -> bool:
        return False

    def frequency_hint(self) -> float:
        """Characteristic angular frequency of the force; frequency_scale
        takes it into the residual dt and the delta quadrature panel widths."""
        return 0.0

    def to_json(self) -> dict:
        raise NotImplementedError


class ConstantForce(Force):
    kind = "constant"

    def __init__(self, F0: float):
        self.F0 = float(F0)

    def __call__(self, t):
        return self.F0 if np.isscalar(t) else np.full(np.shape(t), self.F0)

    @property
    def is_zero(self):
        return self.F0 == 0.0

    def to_json(self):
        return {"kind": "constant", "F0": self.F0}


class CosineForce(Force):
    """F(t) = amplitude * cos(omega*t + phase)."""

    kind = "cosine"

    def __init__(self, amplitude: float, omega: float, phase: float = 0.0):
        self.amplitude = float(amplitude)
        self.omega = float(omega)
        self.phase = float(phase)

    def __call__(self, t):
        return self.amplitude * np.cos(self.omega * t + self.phase)

    @property
    def is_zero(self):
        return self.amplitude == 0.0

    def frequency_hint(self):
        return abs(self.omega)

    def to_json(self):
        return {
            "kind": "cosine",
            "amplitude": self.amplitude,
            "omega": self.omega,
            "phase": self.phase,
        }


class ExpCosineForce(Force):
    """F(t) = amplitude * e^{rate*t} * cos(omega*t + phase).

    The natural drive for an exponentially growing mass: with rate = gamma/2
    the reduced (unit-mass) force of a C-K model is a plain cosine.
    """

    kind = "expcosine"

    def __init__(self, amplitude: float, rate: float, omega: float, phase: float = 0.0):
        self.amplitude = float(amplitude)
        self.rate = float(rate)
        self.omega = float(omega)
        self.phase = float(phase)

    def __call__(self, t):
        return self.amplitude * np.exp(self.rate * t) * np.cos(self.omega * t + self.phase)

    @property
    def is_zero(self):
        return self.amplitude == 0.0

    def frequency_hint(self):
        return max(abs(self.omega), abs(self.rate))

    def to_json(self):
        return {
            "kind": "expcosine",
            "amplitude": self.amplitude,
            "rate": self.rate,
            "omega": self.omega,
            "phase": self.phase,
        }


class PolynomialForce(Force):
    """F(t) = sum_k coeffs[k] * t^k."""

    kind = "polynomial"

    def __init__(self, coeffs):
        self.coeffs = [float(c) for c in coeffs]

    def __call__(self, t):
        return np.polynomial.polynomial.polyval(np.asarray(t, dtype=float), self.coeffs)

    @property
    def is_zero(self):
        return all(c == 0.0 for c in self.coeffs)

    def to_json(self):
        return {"kind": "polynomial", "coeffs": list(self.coeffs)}


_FORCE_KINDS = {
    "constant": lambda d: ConstantForce(d["F0"]),
    "cosine": lambda d: CosineForce(d["amplitude"], d["omega"], d.get("phase", 0.0)),
    "expcosine": lambda d: ExpCosineForce(
        d["amplitude"], d["rate"], d["omega"], d.get("phase", 0.0)
    ),
    "polynomial": lambda d: PolynomialForce(d["coeffs"]),
}


def force_from_json(doc) -> Force | None:
    if doc is None:
        return None
    kind = doc.get("kind")
    if kind not in _FORCE_KINDS:
        raise ValueError(f"unknown force kind {kind!r}")
    return _FORCE_KINDS[kind](doc)


# ---------------------------------------------------------------------------
# model families
# ---------------------------------------------------------------------------

class OscillatorModel:
    """Base: positive, twice-differentiable M(t) and w^2(t) on [t_min, t_max].

    Subclasses implement mass/dmass/d2mass/freq2 in closed form; evaluation
    is pure and instances are immutable after construction.
    """

    family = "base"

    def __init__(self, t_min: float, t_max: float, force: Force | None = None):
        if not (t_min < t_max):
            raise ValueError(f"empty time domain [{t_min}, {t_max}]")
        self.t_min = float(t_min)
        self.t_max = float(t_max)
        self.force = force

    # closed-form family data -------------------------------------------
    def mass(self, t):
        raise NotImplementedError

    def dmass(self, t):
        raise NotImplementedError

    def d2mass(self, t):
        raise NotImplementedError

    def freq2(self, t):
        raise NotImplementedError

    # ---------------------------------------------------------------------
    def check_domain(self, t):
        t = np.asarray(t)
        # small slack so finite-difference probes at domain ends don't trip
        eps = 1e-12 * max(abs(self.t_min), abs(self.t_max), 1.0)
        if np.any(t < self.t_min - eps) or np.any(t > self.t_max + eps):
            raise DomainError(
                f"t outside model domain [{self.t_min}, {self.t_max}]"
            )

    def force_at(self, t):
        if self.force is None:
            return 0.0 if np.isscalar(t) else np.zeros(np.shape(t))
        return self.force(t)

    @property
    def has_driving(self) -> bool:
        return self.force is not None and not self.force.is_zero

    def params(self) -> dict:
        raise NotImplementedError

    def to_json(self) -> dict:
        doc = {
            "family": self.family,
            "params": self.params(),
            "t_min": self.t_min,
            "t_max": self.t_max,
        }
        if self.force is not None:
            doc["force"] = self.force.to_json()
        return doc

    def __repr__(self):
        return f"{type(self).__name__}({json.dumps(self.params())})"


class UnitMassSHO(OscillatorModel):
    """Constant mass 1, constant frequency w_s."""

    family = "UnitMassSHO"

    def __init__(self, w_s: float, t_min=0.0, t_max=20.0, force=None):
        super().__init__(t_min, t_max, force)
        if w_s <= 0:
            raise ValueError("w_s must be positive")
        self.w_s = float(w_s)

    def mass(self, t):
        return 1.0 if np.isscalar(t) else np.ones(np.shape(t))

    def dmass(self, t):
        return 0.0 if np.isscalar(t) else np.zeros(np.shape(t))

    d2mass = dmass

    def freq2(self, t):
        return self.w_s**2 if np.isscalar(t) else np.full(np.shape(t), self.w_s**2)

    def params(self):
        return {"w_s": self.w_s}


class CaldirolaKanai(OscillatorModel):
    """M(t) = m e^{gamma t}, constant frequency w1."""

    family = "CaldirolaKanai"

    def __init__(self, m: float, gamma: float, w1: float, t_min=0.0, t_max=20.0, force=None):
        super().__init__(t_min, t_max, force)
        if m <= 0:
            raise ValueError("m must be positive")
        self.m = float(m)
        self.gamma = float(gamma)
        self.w1 = float(w1)

    def mass(self, t):
        return self.m * np.exp(self.gamma * np.asarray(t, dtype=float)) if not np.isscalar(t) \
            else self.m * math.exp(self.gamma * t)

    def dmass(self, t):
        return self.gamma * self.mass(t)

    def d2mass(self, t):
        return self.gamma**2 * self.mass(t)

    def freq2(self, t):
        return self.w1**2 if np.isscalar(t) else np.full(np.shape(t), self.w1**2)

    def params(self):
        return {"m": self.m, "gamma": self.gamma, "w1": self.w1}


def lo_frequency_squared(m0, gamma, mu, nu, w_lo, t):
    """w^2 making mass m0*exp[2(gamma t + mu sin(nu t))] reduce to constant w_lo.

    With g(t) = gamma*t + mu*sin(nu*t) and sqrt(M) = sqrt(m0) e^{g}, the
    compensating frequency is w_lo^2 + g'(t)^2 + g''(t):
        w_lo^2 + (gamma + mu*nu*cos(nu*t))^2 - mu*nu^2*sin(nu*t).
    """
    if m0 <= 0:
        raise ValueError("m0 must be positive")
    t = np.asarray(t, dtype=float) if not np.isscalar(t) else t
    dg = gamma + mu * nu * np.cos(nu * t)
    d2g = -mu * nu**2 * np.sin(nu * t)
    return w_lo**2 + dg * dg + d2g


class LoDampedPulsating(OscillatorModel):
    """M(t) = m0 exp[2(gamma t + mu sin(nu t))], frequency compensating to w_lo.

    The frequency is defined so the unit-mass reduction is the constant-
    frequency oscillator w0 = w_lo.
    """

    family = "LoDampedPulsating"

    def __init__(self, m0, gamma, mu, nu, w_lo, t_min=0.0, t_max=20.0, force=None):
        super().__init__(t_min, t_max, force)
        if m0 <= 0:
            raise ValueError("m0 must be positive")
        if w_lo <= 0:
            raise ValueError("w_lo must be positive")
        self.m0 = float(m0)
        self.gamma = float(gamma)
        self.mu = float(mu)
        self.nu = float(nu)
        self.w_lo = float(w_lo)

    def _g(self, t):
        return self.gamma * t + self.mu * np.sin(self.nu * t)

    def mass(self, t):
        return self.m0 * np.exp(2.0 * self._g(np.asarray(t, dtype=float)
                                              if not np.isscalar(t) else t))

    def dmass(self, t):
        dg = self.gamma + self.mu * self.nu * np.cos(self.nu * t)
        return 2.0 * dg * self.mass(t)

    def d2mass(self, t):
        dg = self.gamma + self.mu * self.nu * np.cos(self.nu * t)
        d2g = -self.mu * self.nu**2 * np.sin(self.nu * t)
        return (4.0 * dg * dg + 2.0 * d2g) * self.mass(t)

    def freq2(self, t):
        return lo_frequency_squared(self.m0, self.gamma, self.mu, self.nu, self.w_lo, t)

    def params(self):
        return {
            "m0": self.m0,
            "gamma": self.gamma,
            "mu": self.mu,
            "nu": self.nu,
            "w_lo": self.w_lo,
        }


class GeneralParametric(OscillatorModel):
    """User-tabulated M, dM, d2M, w^2 interpolated by cubic splines.

    The spline of M is differentiated and compared against the supplied dM
    table; disagreement beyond 1e-4 (relative) triggers a warning, since a
    sloppy table would silently corrupt the reduced frequency.
    """

    family = "GeneralParametric"

    def __init__(self, ts, M, dM, d2M, w2, force=None):
        from scipy.interpolate import CubicSpline

        ts = np.asarray(ts, dtype=float)
        if ts.ndim != 1 or len(ts) < 4:
            raise ValueError("need at least 4 time nodes")
        super().__init__(ts[0], ts[-1], force)
        self._ts = ts
        M = np.asarray(M, dtype=float)
        if np.any(M <= 0):
            raise ValueError("M must be positive everywhere")
        self._M = CubicSpline(ts, M)
        self._dM = CubicSpline(ts, np.asarray(dM, dtype=float))
        self._d2M = CubicSpline(ts, np.asarray(d2M, dtype=float))
        self._w2 = CubicSpline(ts, np.asarray(w2, dtype=float))
        spline_dM = self._M.derivative()(ts)
        scale = np.max(np.abs(dM)) or 1.0
        mismatch = np.max(np.abs(spline_dM - dM)) / scale
        if mismatch > 1e-4:
            warnings.warn(
                f"supplied dM/dt disagrees with the spline derivative of M "
                f"(relative {mismatch:.2e}); check table consistency",
                stacklevel=2,
            )

    def mass(self, t):
        out = self._M(t)
        return float(out) if np.isscalar(t) else out

    def dmass(self, t):
        out = self._dM(t)
        return float(out) if np.isscalar(t) else out

    def d2mass(self, t):
        out = self._d2M(t)
        return float(out) if np.isscalar(t) else out

    def freq2(self, t):
        out = self._w2(t)
        return float(out) if np.isscalar(t) else out

    def params(self):
        return {
            "t": self._ts.tolist(),
            "M": self._M(self._ts).tolist(),
            "dM": self._dM(self._ts).tolist(),
            "d2M": self._d2M(self._ts).tolist(),
            "w2": self._w2(self._ts).tolist(),
        }


class ReducedUnitMass(OscillatorModel):
    """The unit-mass companion of a model: M = 1, w^2 = w0^2(base, t), no force.

    This is the system whose eigenstates feed the dilation/phase transform
    chain back to the original model.
    """

    family = "ReducedUnitMass"

    def __init__(self, base: OscillatorModel):
        super().__init__(base.t_min, base.t_max, None)
        self.base = base

    def mass(self, t):
        return 1.0 if np.isscalar(t) else np.ones(np.shape(t))

    def dmass(self, t):
        return 0.0 if np.isscalar(t) else np.zeros(np.shape(t))

    d2mass = dmass

    def freq2(self, t):
        return reduced_frequency_squared(self.base, t)

    def params(self):
        return {"base": self.base.to_json()}

    def to_json(self):
        return {
            "family": self.family,
            "params": self.params(),
            "t_min": self.t_min,
            "t_max": self.t_max,
        }


# ---------------------------------------------------------------------------
# evaluation and derived quantities
# ---------------------------------------------------------------------------

def evaluate_model(model: OscillatorModel, t) -> ModelSample:
    """Exact model data at time t (closed-form, never differenced)."""
    model.check_domain(t)
    return ModelSample(
        t=float(t),
        M=float(model.mass(t)),
        dM=float(model.dmass(t)),
        d2M=float(model.d2mass(t)),
        w2=float(model.freq2(t)),
        F=float(model.force_at(t)),
    )


def reduced_frequency_squared(model: OscillatorModel, t):
    """Unit-mass frequency: w^2 + (1/4)(dM/M)^2 - (1/2)(d2M/M).

    Equivalently w^2 - (1/sqrt(M)) d^2(sqrt M)/dt^2.
    """
    model.check_domain(t)
    M = model.mass(t)
    dM = model.dmass(t)
    d2M = model.d2mass(t)
    return model.freq2(t) + 0.25 * (dM / M) ** 2 - 0.5 * (d2M / M)


def frequency_scale(model: OscillatorModel, n_samples: int = 128) -> float:
    """Largest angular-frequency scale present in the model.

    Used to choose finite-difference dt and quadrature panel widths.
    """
    ts = np.linspace(model.t_min, model.t_max, n_samples)
    w2 = np.max(np.abs(model.freq2(ts)))
    w02 = np.max(np.abs(reduced_frequency_squared(model, ts)))
    scale = math.sqrt(max(w2, w02, 1e-12))
    M = model.mass(ts)
    scale = max(scale, np.max(np.abs(model.dmass(ts) / M)))
    scale = max(scale, math.sqrt(np.max(np.abs(model.d2mass(ts) / M))))
    if model.force is not None:
        scale = max(scale, model.force.frequency_hint())
    return float(max(scale, 1e-6))


_FAMILIES = {
    "UnitMassSHO": lambda p, lo, hi, f: UnitMassSHO(p["w_s"], lo, hi, f),
    "CaldirolaKanai": lambda p, lo, hi, f: CaldirolaKanai(
        p["m"], p["gamma"], p["w1"], lo, hi, f
    ),
    "LoDampedPulsating": lambda p, lo, hi, f: LoDampedPulsating(
        p["m0"], p["gamma"], p["mu"], p["nu"], p["w_lo"], lo, hi, f
    ),
}


def model_from_json(doc: dict) -> OscillatorModel:
    """Rebuild a model from its JSON document (see to_json)."""
    family = doc.get("family")
    force = force_from_json(doc.get("force"))
    if family == "GeneralParametric":
        p = doc["params"]
        return GeneralParametric(p["t"], p["M"], p["dM"], p["d2M"], p["w2"], force)
    if family == "ReducedUnitMass":
        return ReducedUnitMass(model_from_json(doc["params"]["base"]))
    if family not in _FAMILIES:
        raise ValueError(f"unknown model family {family!r}")
    return _FAMILIES[family](doc["params"], doc["t_min"], doc["t_max"], force)
