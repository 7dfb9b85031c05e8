"""Oscillator parameter families M(t), w^2(t), F(t).

A family states its law once, as `terms(t)` = (M, Mdot, Mddot, w^2) in
closed form; nothing here is ever finite-differenced.  `mass`, `dmass`,
`d2mass` and `freq2` are reads of `terms`, and a reader of two or more of
them takes all from one `terms` call.  The unit-mass reduction
w0^2 = w^2 + (1/4)(Mdot/M)^2 - (1/2)(Mddot/M) lives here too, since it only
needs the model data.
"""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = [
    "DomainError",
    "Force",
    "ConstantForce",
    "CosineForce",
    "ExpCosineForce",
    "PolynomialForce",
    "force_from_json",
    "OscillatorModel",
    "CaldirolaKanai",
    "LoDampedPulsating",
    "GeneralParametric",
    "ReducedUnitMass",
    "reduced_frequency_squared",
    "frequency_scale",
    "model_from_json",
]


class DomainError(ValueError):
    """Raised when a time lies outside a model's domain."""


def _constant(value, t):
    """value at each time of t, in t's shape; a scalar t builds no array."""
    return value + 0.0 * t


# ---------------------------------------------------------------------------
# driving-force families
# ---------------------------------------------------------------------------

class Force:
    """A driving force F(t).  `keys` names its constructor's arguments in
    order: they are its JSON document's keys, next to its `kind`."""

    kind = ""
    keys = ()

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
        # a copy of each list, so the document never aliases the force
        doc = {"kind": self.kind}
        for k in self.keys:
            v = getattr(self, k)
            doc[k] = list(v) if isinstance(v, list) else v
        return doc


class ConstantForce(Force):
    kind, keys = "constant", ("F0",)

    def __init__(self, F0: float):
        self.F0 = float(F0)

    def __call__(self, t):
        return _constant(self.F0, t)

    @property
    def is_zero(self):
        return self.F0 == 0.0


class CosineForce(Force):
    """F(t) = amplitude * cos(omega*t + phase)."""

    kind, keys = "cosine", ("amplitude", "omega", "phase")

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


class ExpCosineForce(Force):
    """F(t) = amplitude * e^{rate*t} * cos(omega*t + phase).

    The natural drive for an exponentially growing mass: with rate = gamma/2
    the reduced (unit-mass) force of a C-K model is a plain cosine.
    """

    kind, keys = "expcosine", ("amplitude", "rate", "omega", "phase")

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


class PolynomialForce(Force):
    """F(t) = sum_k coeffs[k] * t^k."""

    kind, keys = "polynomial", ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = [float(c) for c in coeffs]

    def __call__(self, t):
        return np.polynomial.polynomial.polyval(np.asarray(t, dtype=float), self.coeffs)

    @property
    def is_zero(self):
        return all(c == 0.0 for c in self.coeffs)


_FORCE_KINDS = {cls.kind: cls for cls in
                (ConstantForce, CosineForce, ExpCosineForce, PolynomialForce)}


def _only_keys(doc: dict, keys, what: str) -> dict:
    """doc, once each of its keys is one of keys: a key that no constructor
    reads (a misspelt one, say) is a ValueError naming it, never dropped."""
    if unknown := [k for k in doc if k not in keys]:
        raise ValueError(f"unknown {what} key(s) {', '.join(map(repr, unknown))}; "
                         f"it reads {', '.join(keys)}")
    return doc


def force_from_json(doc) -> Force | None:
    if doc is None:
        return None
    kind = doc.get("kind")
    if kind not in _FORCE_KINDS:
        raise ValueError(f"unknown force kind {kind!r}")
    cls = _FORCE_KINDS[kind]
    _only_keys(doc, ("kind", *cls.keys), f"{kind} force")
    # phase, the one argument with a default, may be absent
    return cls(*(doc[k] for k in cls.keys if k in doc or k != "phase"))


# ---------------------------------------------------------------------------
# model families
# ---------------------------------------------------------------------------

class OscillatorModel:
    """Base: positive, twice-differentiable M(t) and w^2(t) on [t_min, t_max].

    A family implements `terms` in closed form, and nothing else of its
    law; evaluation is pure and instances are immutable after construction.
    `keys` names the family's parameters in constructor order, each an
    attribute.
    """

    family = "base"
    keys = ()
    nodes = ()  # where the law is only piecewise smooth: no panel straddles one

    def __init__(self, t_min: float, t_max: float, force: Force | None = None):
        if not (t_min < t_max):
            raise ValueError(f"empty time domain [{t_min}, {t_max}]")
        self.t_min = float(t_min)
        self.t_max = float(t_max)
        self.force = force

    # closed-form family data -------------------------------------------
    def terms(self, t):
        """(M, Mdot, Mddot, w^2) at a time or an array of times."""
        raise NotImplementedError

    def mass(self, t):
        return self.terms(t)[0]

    def dmass(self, t):
        return self.terms(t)[1]

    def d2mass(self, t):
        return self.terms(t)[2]

    def freq2(self, t):
        return self.terms(t)[3]

    # ---------------------------------------------------------------------
    def check_domain(self, t):
        # small slack so finite-difference probes at domain ends don't trip;
        # each test asks whether t is inside, which NaN never is
        eps = 1e-12 * max(abs(self.t_min), abs(self.t_max), 1.0)
        lo, hi = self.t_min - eps, self.t_max + eps
        if isinstance(t, float):  # a Python or numpy float: the same IEEE test
            outside = not lo <= t <= hi
        else:
            t = np.asarray(t)
            outside = not np.all((t >= lo) & (t <= hi))
        if outside:
            ts = np.atleast_1d(np.asarray(t, dtype=float))
            refused = ts[~((ts >= lo) & (ts <= hi))].tolist()
            raise DomainError(f"t outside model domain [{self.t_min}, {self.t_max}]: "
                              + ", ".join(map(str, refused)))

    def force_at(self, t):
        """F(t); 0.0 without a force, which broadcasts against any t."""
        return 0.0 if self.force is None else self.force(t)

    @property
    def has_driving(self) -> bool:
        return self.force is not None and not self.force.is_zero

    def params(self) -> dict:
        """The family's parameters by name, in `keys` order: its JSON
        document's "params", and the keyword arguments of its closed form."""
        return {k: getattr(self, k) for k in self.keys}

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


class CaldirolaKanai(OscillatorModel):
    """M(t) = m e^{gamma t}, constant frequency w1; at m = 1, gamma = 0 the
    unit-mass oscillator (the schema family "UnitMassSHO")."""

    family = "CaldirolaKanai"
    keys = ("m", "gamma", "w1")

    def __init__(self, m: float, gamma: float, w1: float, t_min=0.0, t_max=20.0, force=None):
        super().__init__(t_min, t_max, force)
        if m <= 0:
            raise ValueError("m must be positive")
        self.m = float(m)
        self.gamma = float(gamma)
        self.w1 = float(w1)

    def terms(self, t):
        M = self.m * np.exp(self.gamma * np.asarray(t, dtype=float))
        return M, self.gamma * M, self.gamma**2 * M, _constant(self.w1**2, t)


class LoDampedPulsating(OscillatorModel):
    """M(t) = m0 exp[2(gamma t + mu sin(nu t))], frequency compensating to w_lo.

    The frequency is defined so the unit-mass reduction is the constant-
    frequency oscillator w0 = w_lo.
    """

    family = "LoDampedPulsating"
    keys = ("m0", "gamma", "mu", "nu", "w_lo")

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

    def terms(self, t):
        # with g = gamma t + mu sin(nu t) and sqrt(M) = sqrt(m0) e^g, the
        # frequency that reduces to w_lo is w_lo^2 + g'^2 + g''
        t = np.asarray(t, dtype=float)
        sin, cos = np.sin(self.nu * t), np.cos(self.nu * t)
        M = self.m0 * np.exp(2.0 * (self.gamma * t + self.mu * sin))
        dg = self.gamma + self.mu * self.nu * cos
        d2g = -self.mu * self.nu**2 * sin
        return M, 2.0 * dg * M, (4.0 * dg * dg + 2.0 * d2g) * M, self.w_lo**2 + dg * dg + d2g


class _Hermite:
    """Piecewise polynomial of degree 2k+1 through the value and the first k
    derivatives tabulated at each node, in powers of t - t_i.  The last node
    is a piece of its own (its Taylor polynomial), so every node returns its
    table entries exactly; times past either end extrapolate a piece."""

    def __init__(self, ts, tables):
        k = len(tables) - 1
        h = np.diff(ts)
        low = [tab / math.factorial(j) for j, tab in enumerate(tables)]
        # with s = (t - t_i)/h, the top k+1 coefficients (times h^j) meet the
        # m-th derivative at s = 1: sum_j perm(j, m) c_j h^j = h^m y1^(m)
        top = range(k + 1, 2 * k + 2)
        rhs = [tables[m][1:] * h**m - sum(math.perm(j, m) * low[j][:-1] * h**j
                                          for j in range(m, k + 1))
               for m in range(k + 1)]
        high = np.linalg.solve([[math.perm(j, m) for j in top] for m in range(k + 1)], rhs)
        self.ts = ts
        self.coef = low + [np.append(c / h**j, 0.0) for j, c in zip(top, high)]

    def __call__(self, t, m=0):
        """The m-th derivative at t; a float for a scalar t."""
        i = np.maximum(np.searchsorted(self.ts, t, side="right") - 1, 0)
        dt = t - self.ts[i]
        out = 0.0
        for j in range(len(self.coef) - 1, m - 1, -1):
            out = out * dt + math.perm(j, m) * self.coef[j][i]
        return float(out) if np.isscalar(t) else out


def _not_a_knot_slopes(ts, y):
    """Node slopes of scipy's default `CubicSpline` (not-a-knot ends), by one
    tridiagonal (Thomas) solve of scipy's system in O(len(ts))."""
    dx = np.diff(ts)
    slope = np.diff(y) / dx
    d0, d1 = float(ts[2] - ts[0]), float(ts[-1] - ts[-3])
    # interior row i: dx[i] s[i-1] + 2 (dx[i-1] + dx[i]) s[i] + dx[i-1] s[i+1]
    lower = [0.0, *dx[1:].tolist(), d1]
    diag = [dx[1], *(2.0 * (dx[:-1] + dx[1:])).tolist(), dx[-2]]
    upper = [d0, *dx[:-1].tolist()]
    b = [((dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0,
         *(3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])).tolist(),
         (dx[-1] ** 2 * slope[-2] + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1]
    for i in range(1, len(b)):
        w = lower[i] / diag[i - 1]
        diag[i] -= w * upper[i - 1]
        b[i] -= w * b[i - 1]
    b[-1] /= diag[-1]
    for i in range(len(b) - 2, -1, -1):
        b[i] = (b[i] - upper[i] * b[i + 1]) / diag[i]
    return np.array(b)


class GeneralParametric(OscillatorModel):
    """User-tabulated M, dM, d2M, w^2 on strictly increasing time nodes.

    M, dM and d2M are one piecewise quintic Hermite polynomial, so dmass
    and d2mass are exactly the derivatives of mass and the model is one
    Hamiltonian at any node count; w^2 is scipy's not-a-knot cubic spline.
    """

    family = "GeneralParametric"
    keys = ("t", "M", "dM", "d2M", "w2")

    def __init__(self, ts, M, dM, d2M, w2, force=None):
        ts = np.asarray(ts, dtype=float)
        tables = [np.asarray(v, dtype=float) for v in (M, dM, d2M, w2)]
        if ts.ndim != 1 or len(ts) < 4:
            raise ValueError("need at least 4 time nodes")
        if not np.all(np.diff(ts) > 0):
            raise ValueError("time nodes must be strictly increasing")
        for name, tab in zip(self.keys[1:], tables):
            if tab.shape != ts.shape:
                raise ValueError(f"{name} has {tab.size} values for {ts.size} time nodes")
        if np.any(tables[0] <= 0):
            raise ValueError("M must be positive everywhere")
        super().__init__(ts[0], ts[-1], force)
        self._tables = dict(zip(self.keys, [ts, *tables]))
        self.nodes = ts
        self._M = _Hermite(ts, tables[:3])
        self._w2 = _Hermite(ts, [tables[3], _not_a_knot_slopes(ts, tables[3])])

    def terms(self, t):
        return self._M(t), self._M(t, 1), self._M(t, 2), self._w2(t)

    def params(self):
        return {k: v.tolist() for k, v in self._tables.items()}


class ReducedUnitMass(OscillatorModel):
    """The unit-mass companion of a model: M = 1, w^2 = w0^2(base, t), no force.

    This is the system whose eigenstates feed the dilation/phase transform
    chain back to the original model.
    """

    family = "ReducedUnitMass"

    def __init__(self, base: OscillatorModel):
        super().__init__(base.t_min, base.t_max, None)
        self.base = base

    def terms(self, t):
        zero = _constant(0.0, t)
        return _constant(1.0, t), zero, zero, reduced_frequency_squared(self.base, t)

    def params(self):
        return {"base": self.base.to_json()}


# ---------------------------------------------------------------------------
# derived quantities
# ---------------------------------------------------------------------------

def reduced_frequency_squared(model: OscillatorModel, t):
    """Unit-mass frequency: w^2 + (1/4)(dM/M)^2 - (1/2)(d2M/M).

    Equivalently w^2 - (1/sqrt(M)) d^2(sqrt M)/dt^2.
    """
    model.check_domain(t)
    M, dM, d2M, w2 = model.terms(t)
    return w2 + 0.25 * (dM / M) ** 2 - 0.5 * (d2M / M)


def frequency_scale(model: OscillatorModel) -> float:
    """Largest angular-frequency scale present in the model, sampled at 128
    times across its domain.

    Used to choose finite-difference dt and quadrature panel widths.
    """
    ts = np.linspace(model.t_min, model.t_max, 128)
    M, dM, d2M, w2 = model.terms(ts)
    w02 = np.max(np.abs(reduced_frequency_squared(model, ts)))
    scale = math.sqrt(max(np.max(np.abs(w2)), w02, 1e-12))
    scale = max(scale, np.max(np.abs(dM / M)))
    scale = max(scale, math.sqrt(np.max(np.abs(d2M / M))))
    if model.force is not None:
        scale = max(scale, model.force.frequency_hint())
    return float(max(scale, 1e-6))


def _unit_mass_sho(w_s, t_min, t_max, force):
    """The schema family "UnitMassSHO": the constant-frequency unit-mass
    oscillator is the Caldirola-Kanai model at m = 1, gamma = 0."""
    model = CaldirolaKanai(1.0, 0.0, w_s, t_min, t_max, force)
    if model.w1 <= 0:
        raise ValueError("w_s must be positive")
    return model


_unit_mass_sho.keys = ("w_s",)


def _is_unit_mass_sho(model) -> bool:
    """Whether model is the unit-mass oscillator that the family
    "UnitMassSHO" builds: a CaldirolaKanai model at m = 1, gamma = 0."""
    return isinstance(model, CaldirolaKanai) and model.m == 1.0 and model.gamma == 0.0


# the families of a model_from_json document with a declared time domain;
# each constructor takes its `keys`, then t_min, t_max and the force
_FAMILIES = {
    "UnitMassSHO": _unit_mass_sho,
    "CaldirolaKanai": CaldirolaKanai,
    "LoDampedPulsating": LoDampedPulsating,
}


def model_from_json(doc: dict) -> OscillatorModel:
    """Rebuild a model from its JSON document (see to_json)."""
    family = doc.get("family")
    force = force_from_json(doc.get("force"))
    if family == "ReducedUnitMass":
        return ReducedUnitMass(model_from_json(doc["params"]["base"]))
    if family == "GeneralParametric":  # its domain is its table's
        build, domain = GeneralParametric, ()
    elif family in _FAMILIES:
        build, domain = _FAMILIES[family], (doc["t_min"], doc["t_max"])
    else:
        raise ValueError(f"unknown model family {family!r}")
    p = _only_keys(doc["params"], build.keys, f"{family} params")
    return build(*(p[k] for k in build.keys), *domain, force)
