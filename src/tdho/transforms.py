"""Unitary operators on sampled wavefunctions.

Four primitives — dilation, quadratic phase, linear phase, translation —
compose into the mass-reduction operator U0 and the driving operator U_F.
Operator products act right-to-left, exactly as written:

    U0      = QuadraticPhase(Mdot/4M) . Dilation(-ln M / 2)
    U0_dag  = Dilation(+ln M / 2)     . QuadraticPhase(-Mdot/4M)
    U_F     = ConstPhase(delta) . LinearPhase(M xdot_p) . Translation(x_p)

Support-changing primitives (dilation, translation) either re-evaluate an
attached analytic source exactly or fall back to a six-point Lagrange read
of the samples; out-of-span reads are taken as zero, which is consistent
only because compliant grid functions are negligible at their edges (the
boundary invariant, enforced by the sizing policy below).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import OscillatorModel, evaluate_model

__all__ = [
    "Grid",
    "GridFunction",
    "GridTooSmallError",
    "sample_on_grid",
    "apply_dilation",
    "apply_translation",
    "apply_quadratic_phase",
    "apply_linear_phase",
    "apply_constant_phase",
    "apply_U0",
    "apply_U0_dagger",
    "apply_UF",
    "apply_UF_dagger",
    "unit_mass_parameters",
    "hnew_coefficients",
    "policy_grid",
]

BOUNDARY_RATIO = 1e-10


class GridTooSmallError(ValueError):
    """A transform pushed significant amplitude to the grid boundary."""


@dataclass(frozen=True)
class Grid:
    x_min: float
    x_max: float
    points: int = 4096

    def __post_init__(self):
        if not (self.x_min < self.x_max):
            raise ValueError("x_min must be below x_max")
        if self.points < 16:
            raise ValueError("need at least 16 samples")

    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.points)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.points - 1)


class GridFunction:
    """Complex samples at x_i = x_min + i dx for one time slice.

    `source`, when present, is the analytic x -> psi map the samples came
    from; transforms compose it so downstream values stay exact instead of
    interpolation-limited.
    """

    def __init__(self, x_min, dx, values, t, hbar=1.0, source=None):
        values = np.asarray(values, dtype=np.complex128)
        if values.ndim != 1 or len(values) < 16:
            raise ValueError("need a 1-D array of at least 16 samples")
        if dx <= 0:
            raise ValueError("dx must be positive")
        self.x_min = float(x_min)
        self.dx = float(dx)
        self.values = values
        self.t = float(t)
        self.hbar = float(hbar)
        self.source = source

    @property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(len(self.values))

    @property
    def x_max(self) -> float:
        return self.x_min + self.dx * (len(self.values) - 1)

    def boundary_ratio(self) -> float:
        peak = np.max(np.abs(self.values))
        if peak == 0.0:
            return 0.0
        return max(abs(self.values[0]), abs(self.values[-1])) / peak

    def is_compliant(self) -> bool:
        return self.boundary_ratio() < BOUNDARY_RATIO

    def _with(self, values, source):
        return GridFunction(self.x_min, self.dx, values, self.t, self.hbar, source)


def sample_on_grid(field, grid: Grid, t, attach_source: bool = True) -> GridFunction:
    """Evaluate a wavefunction field on a grid at one time."""
    xs = grid.xs()
    values = field(xs, t)

    if attach_source:
        def source(x):
            return field(x, t)
    else:
        source = None
    return GridFunction(grid.x_min, grid.dx, values, t, getattr(field, "hbar", 1.0),
                        source)


# denominators prod_{j != k} (k - j) of the six-point Lagrange weights
_LAGRANGE_DENOM = np.array([-120.0, 24.0, -12.0, 12.0, -24.0, 120.0])


def _lagrange_eval(g: GridFunction, xq: np.ndarray) -> np.ndarray:
    """Six-point Lagrange read of the samples; exact zeros outside the span.

    Each query takes the six samples around it, the stencil clipped to the
    grid at either edge, so any polynomial of degree <= 5 is reproduced to
    rounding everywhere in [x_min, x_max] (Fornberg, Math. Comp. 51 (1988)
    699-706).
    """
    xq = np.asarray(xq, dtype=float)
    out = np.zeros(xq.shape, dtype=np.complex128)
    inside = (xq >= g.x_min) & (xq <= g.x_max)
    s = (xq[inside] - g.x_min) / g.dx
    first = np.clip(np.floor(s).astype(np.intp) - 2, 0, len(g.values) - 6)
    offsets = np.arange(6)
    d = (s - first)[:, None] - offsets
    weights = np.stack(
        [np.prod(d[:, offsets != k], axis=1) for k in range(6)], axis=1
    ) / _LAGRANGE_DENOM
    out[inside] = np.sum(weights * g.values[first[:, None] + offsets], axis=1)
    return out


def _read(g: GridFunction, xq: np.ndarray) -> np.ndarray:
    if g.source is not None:
        return np.asarray(g.source(xq), dtype=np.complex128)
    return _lagrange_eval(g, xq)


def _require_support(g: GridFunction, op: str):
    ratio = g.boundary_ratio()
    if ratio >= BOUNDARY_RATIO:
        # how much wider the grid must be for the edge samples to decay
        # below threshold, assuming roughly Gaussian tails
        grow = 1.0 + 0.5 * math.log(max(ratio / BOUNDARY_RATIO, 1.0 + 1e-9))
        lo = g.x_min * grow
        hi = g.x_max * grow
        raise GridTooSmallError(
            f"{op} left boundary ratio {ratio:.2e} >= {BOUNDARY_RATIO:.0e}; "
            f"retry on a grid covering roughly [{lo:.3g}, {hi:.3g}]"
        )
    return g


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def apply_dilation(g: GridFunction, a: float) -> GridFunction:
    """f(x) -> e^{a/2} f(e^a x); the e^{a/2} keeps the L2 norm."""
    if a == 0.0:
        return g
    ea = math.exp(a)
    half = math.exp(0.5 * a)
    values = half * _read(g, ea * g.x)
    if g.source is not None:
        src = g.source

        def source(x):
            return half * np.asarray(src(ea * np.asarray(x)))
    else:
        source = None
    return _require_support(g._with(values, source), f"dilation(a={a})")


def apply_translation(g: GridFunction, d: float) -> GridFunction:
    """f(x) -> f(x - d)."""
    if d == 0.0:
        return g
    values = _read(g, g.x - d)
    if g.source is not None:
        src = g.source

        def source(x):
            return np.asarray(src(np.asarray(x) - d))
    else:
        source = None
    return _require_support(g._with(values, source), f"translation(d={d})")


def _phase_factor(g: GridFunction, phase_of_x):
    values = np.exp(1j * phase_of_x(g.x)) * g.values
    if g.source is not None:
        src = g.source

        def source(x):
            x = np.asarray(x)
            return np.exp(1j * phase_of_x(x)) * np.asarray(src(x))
    else:
        source = None
    return g._with(values, source)


def apply_quadratic_phase(g: GridFunction, alpha: float) -> GridFunction:
    """Multiply by e^{i alpha x^2 / hbar}."""
    if alpha == 0.0:
        return g
    hbar = g.hbar
    return _phase_factor(g, lambda x: (alpha / hbar) * x * x)


def apply_linear_phase(g: GridFunction, k: float) -> GridFunction:
    """Multiply by e^{i k x / hbar}."""
    if k == 0.0:
        return g
    hbar = g.hbar
    return _phase_factor(g, lambda x: (k / hbar) * x)


def apply_constant_phase(g: GridFunction, c: float) -> GridFunction:
    """Multiply by e^{i c / hbar}."""
    if c == 0.0:
        return g
    hbar = g.hbar
    return _phase_factor(g, lambda x: np.full(np.shape(x), c / hbar))


# ---------------------------------------------------------------------------
# composites
# ---------------------------------------------------------------------------

def apply_U0(model: OscillatorModel, t, g: GridFunction) -> GridFunction:
    """Mass-reduction operator: QuadraticPhase(Mdot/4M) after Dilation(-lnM/2)."""
    s = evaluate_model(model, t)
    g = apply_dilation(g, -0.5 * math.log(s.M))
    return apply_quadratic_phase(g, 0.25 * s.dM / s.M)


def apply_U0_dagger(model: OscillatorModel, t, g: GridFunction) -> GridFunction:
    """Inverse reduction: Dilation(+lnM/2) after QuadraticPhase(-Mdot/4M)."""
    s = evaluate_model(model, t)
    g = apply_quadratic_phase(g, -0.25 * s.dM / s.M)
    return apply_dilation(g, 0.5 * math.log(s.M))


def apply_UF(model: OscillatorModel, driven, t, g: GridFunction) -> GridFunction:
    """Driving operator: phases e^{i(M xdot_p x + delta)/hbar} after the
    translation by x_p (momentum factor rightmost, so it acts first)."""
    s = evaluate_model(model, t)
    xp, dxp, delta = (float(q) for q in driven.slice(t))
    g = apply_translation(g, xp)
    g = apply_linear_phase(g, s.M * dxp)
    return apply_constant_phase(g, delta)


def apply_UF_dagger(model: OscillatorModel, driven, t, g: GridFunction) -> GridFunction:
    s = evaluate_model(model, t)
    xp, dxp, delta = (float(q) for q in driven.slice(t))
    g = apply_constant_phase(g, -delta)
    g = apply_linear_phase(g, -s.M * dxp)
    return apply_translation(g, -xp)


# ---------------------------------------------------------------------------
# generator bookkeeping
# ---------------------------------------------------------------------------

def unit_mass_parameters(model: OscillatorModel, t):
    """(alpha, beta, dalpha, dbeta) of the canonical reduction beta = -ln M,
    alpha = Mdot/4M (the choice that kills the cross term)."""
    s = evaluate_model(model, t)
    beta = -math.log(s.M)
    dbeta = -s.dM / s.M
    alpha = 0.25 * s.dM / s.M
    dalpha = 0.25 * (s.d2M / s.M - (s.dM / s.M) ** 2)
    return alpha, beta, dalpha, dbeta


def hnew_coefficients(model: OscillatorModel, t, alpha, beta, dalpha, dbeta):
    """Coefficients (kinetic, cross, potential) of the transformed
    Hamiltonian  kinetic p^2 + cross (xp + px) + potential x^2."""
    s = evaluate_model(model, t)
    m_eff = s.M * math.exp(beta)
    kinetic = 0.5 / m_eff
    cross = -0.25 * dbeta - alpha / m_eff
    potential = (
        0.5 * s.M * s.w2 * math.exp(beta)
        + alpha * dbeta
        - dalpha
        + 2.0 * alpha * alpha / m_eff
    )
    return kinetic, cross, potential


# ---------------------------------------------------------------------------
# grid sizing
# ---------------------------------------------------------------------------

def policy_grid(basis, n: int, hbar: float = 1.0, driven=None, times=None,
                points: int = 4096, pad: float = 8.0) -> Grid:
    """Default grid: x_p range plus pad * rho_eff * sqrt(hbar(2n+1)/Omega).

    rho_eff covers both the state itself (envelope rho) and its unit-mass
    companion (envelope sqrt(M) rho), so the same grid can carry every stage
    of the transform chain.
    """
    model = basis.model
    if times is None:
        lo, hi = model.t_min, model.t_max
    else:
        ts = np.asarray(times, dtype=float)
        lo, hi = float(ts.min()), float(ts.max())
        if lo == hi:
            hi = lo + 1e-6
    dense = np.linspace(lo, hi, 513)
    rho = basis.rho(dense)
    M = np.asarray(model.mass(dense), dtype=float)
    rho_eff = float(np.max(rho * np.maximum(1.0, np.sqrt(M))))
    half = pad * rho_eff * math.sqrt(hbar * (2 * n + 1) / basis.omega)
    if driven is not None:
        xp = np.asarray(driven.xp(dense), dtype=float)
        return Grid(float(xp.min()) - half, float(xp.max()) + half, points)
    return Grid(-half, half, points)
