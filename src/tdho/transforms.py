"""Unitary operators on sampled wavefunctions.

Every operator is one affine map with a quadratic phase, reading g once:

    (T g)(x) = sqrt(s) e^{i((alpha x + k) x + c)/hbar} g(s x - d)

The primitives are its parameters, one each: Dilation(a) is s = e^a,
Translation(d) is d, and QuadraticPhase(alpha), LinearPhase(k) and
ConstPhase(c) are the phase's coefficients.  The mass-reduction operator
U0, the driving operator U_F and their inverses are products of them,
acting right-to-left as written, each fused into one map:

    U0      = QuadraticPhase(Mdot/4M) . Dilation(-ln M / 2)
              s = M^{-1/2}, alpha = Mdot/4M
    U0_dag  = Dilation(+ln M / 2) . QuadraticPhase(-Mdot/4M)
              s = M^{1/2}, alpha = -Mdot/4
    U_F     = ConstPhase(delta) . LinearPhase(M xdot_p) . Translation(x_p)
              d = x_p, k = M xdot_p, c = delta
    U_F_dag = Translation(-x_p) . LinearPhase(-M xdot_p) . ConstPhase(-delta)
              d = -x_p, k = -M xdot_p, c = -M xdot_p x_p - delta

A map that moves support (s != 1 or d != 0) either re-evaluates an attached
analytic source exactly or falls back to a six-point Lagrange read of the
samples; out-of-span reads are taken as zero, which is consistent only
because compliant grid functions are negligible at their edges (the
boundary invariant, enforced by the sizing policy below).

A GridFunction holds one state's samples, or a stack of states on the same
grid as (rows, points) values; every map acts along the last axis, so one
pass (one exp(i phase(x)), one set of Lagrange weights) serves every row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import OscillatorModel

__all__ = [
    "Grid",
    "GridFunction",
    "GridTooSmallError",
    "sample_on_grid",
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
    """Complex samples at x_i = x_min + i dx for one time slice: one state's
    (points,) values or a stack of states' (rows, points) values.

    `source`, when present, is the analytic map the samples came from: called
    with ascending query points x, it returns their values in the samples'
    layout, (len(x),) for one state or (rows, len(x)) for a stack (a
    state_block partial, for instance).  Transforms compose it so downstream
    values stay exact instead of interpolation-limited.
    """

    def __init__(self, x_min, dx, values, t, hbar=1.0, source=None):
        values = np.asarray(values, dtype=np.complex128)
        if values.ndim not in (1, 2) or values.shape[-1] < 16:
            raise ValueError("need 1-D or (rows, points) values of at least 16 samples")
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
        return self.x_min + self.dx * np.arange(self.values.shape[-1])

    @property
    def x_max(self) -> float:
        return self.x_min + self.dx * (self.values.shape[-1] - 1)

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
    """Six-point Lagrange read of the samples of every row at the 1-D query
    points xq; exact zeros outside the span.

    Each query takes the six samples around it, the stencil clipped to the
    grid at either edge, so any polynomial of degree <= 5 is reproduced to
    rounding everywhere in [x_min, x_max] (Fornberg, Math. Comp. 51 (1988)
    699-706).  The stencils and weights are computed once for all rows.
    """
    xq = np.asarray(xq, dtype=float)
    out = np.zeros(g.values.shape[:-1] + xq.shape, dtype=np.complex128)
    inside = (xq >= g.x_min) & (xq <= g.x_max)
    s = (xq[inside] - g.x_min) / g.dx
    first = np.clip(np.floor(s).astype(np.intp) - 2, 0, g.values.shape[-1] - 6)
    offsets = np.arange(6)
    d = (s - first)[:, None] - offsets
    weights = np.stack(
        [np.prod(d[:, offsets != k], axis=1) for k in range(6)], axis=1
    ) / _LAGRANGE_DENOM
    del d
    # summed term by term, in one order for every row; each term is read
    # into one buffer
    term = np.empty(g.values.shape[:-1] + first.shape, dtype=g.values.dtype)
    acc = weights[:, 0] * np.take(g.values, first, axis=-1, out=term)
    for k in range(1, 6):
        acc += np.multiply(weights[:, k], np.take(g.values, first + k, axis=-1, out=term),
                           out=term)
    out[..., inside] = acc
    return out


def _edge_ratio(values) -> float:
    """Largest of the two outermost samples at either end over the peak, of
    the worst row of values (0 for a zero row).

    Two samples, since one may sit on a node: Hermite functions have only
    simple zeros, so the next sample is not one.
    """
    mag = np.abs(values)
    edge = np.max(mag[..., [0, 1, -2, -1]], axis=-1)
    peak = np.max(mag, axis=-1)
    return float(np.max(np.divide(edge, peak, out=np.zeros_like(peak),
                                  where=peak > 0.0)))


def _affine(g: GridFunction, op: str, s=1.0, d=0.0, alpha=0.0, k=0.0, c=0.0):
    """The module's map T, on g's samples and composed into its source.

    A pure phase multiplies the samples.  A map that moves support
    re-evaluates the source at s x - d, or Lagrange-reads the samples there,
    and refuses (GridTooSmallError) a result whose two outermost samples at
    either end reach BOUNDARY_RATIO of its peak (_edge_ratio).
    """
    moves = s != 1.0 or d != 0.0
    if not moves and alpha == 0.0 and k == 0.0 and c == 0.0:
        return g
    root_s = math.sqrt(s)
    a2, a1, a0 = alpha / g.hbar, k / g.hbar, c / g.hbar

    def factor(x):
        return root_s * np.exp(1j * ((a2 * x + a1) * x + a0))

    src, source = g.source, None
    if src is not None:
        def source(x):
            x = np.asarray(x)
            return factor(x) * np.asarray(src(s * x - d))
    x = g.x
    if not moves:
        return g._with(factor(x) * g.values, source)
    out = g._with(factor(x) * _lagrange_eval(g, s * x - d) if src is None
                  else source(x), source)
    ratio = _edge_ratio(out.values)
    if ratio >= BOUNDARY_RATIO:
        # how much wider the grid must be for the edge samples to decay
        # below threshold, assuming roughly Gaussian tails
        grow = 1.0 + 0.5 * math.log(max(ratio / BOUNDARY_RATIO, 1.0 + 1e-9))
        raise GridTooSmallError(
            f"{op} left boundary ratio {ratio:.2e} >= {BOUNDARY_RATIO:.0e}; "
            f"retry on a grid covering roughly "
            f"[{g.x_min * grow:.3g}, {g.x_max * grow:.3g}]"
        )
    return out


# ---------------------------------------------------------------------------
# composites
# ---------------------------------------------------------------------------

def _read(model: OscillatorModel, t, *names):
    """The named model functions at t as floats, after the domain check."""
    model.check_domain(t)
    return [float(getattr(model, name)(t)) for name in names]


def apply_U0(model: OscillatorModel, t, g: GridFunction) -> GridFunction:
    """Mass reduction QuadraticPhase(Mdot/4M) . Dilation(-ln M/2):
    M^{-1/4} e^{i Mdot x^2 / 4M hbar} g(x / sqrt(M))."""
    M, dM = _read(model, t, "mass", "dmass")
    return _affine(g, f"U0(t={t})", s=M ** -0.5, alpha=0.25 * dM / M)


def apply_U0_dagger(model: OscillatorModel, t, g: GridFunction) -> GridFunction:
    """Inverse reduction Dilation(+ln M/2) . QuadraticPhase(-Mdot/4M):
    M^{1/4} e^{-i Mdot x^2 / 4 hbar} g(sqrt(M) x)."""
    M, dM = _read(model, t, "mass", "dmass")
    return _affine(g, f"U0_dagger(t={t})", s=M ** 0.5, alpha=-0.25 * dM)


def apply_UF(model: OscillatorModel, driven, t, g: GridFunction) -> GridFunction:
    """Driving operator ConstPhase(delta) . LinearPhase(M xdot_p) .
    Translation(x_p): e^{i(M xdot_p x + delta)/hbar} g(x - x_p)."""
    [M] = _read(model, t, "mass")
    xp, dxp, delta = (float(q) for q in driven.slice(t))
    return _affine(g, f"U_F(t={t})", d=xp, k=M * dxp, c=delta)


def apply_UF_dagger(model: OscillatorModel, driven, t, g: GridFunction) -> GridFunction:
    """e^{-i(M xdot_p (x + x_p) + delta)/hbar} g(x + x_p)."""
    [M] = _read(model, t, "mass")
    xp, dxp, delta = (float(q) for q in driven.slice(t))
    p = M * dxp
    return _affine(g, f"U_F_dagger(t={t})", d=-xp, k=-p, c=-p * xp - delta)


# ---------------------------------------------------------------------------
# generator bookkeeping
# ---------------------------------------------------------------------------

def unit_mass_parameters(model: OscillatorModel, t):
    """(alpha, beta, dalpha, dbeta) of the canonical reduction beta = -ln M,
    alpha = Mdot/4M (the choice that kills the cross term)."""
    M, dM, d2M = _read(model, t, "mass", "dmass", "d2mass")
    beta = -math.log(M)
    dbeta = -dM / M
    alpha = 0.25 * dM / M
    dalpha = 0.25 * (d2M / M - (dM / M) ** 2)
    return alpha, beta, dalpha, dbeta


def hnew_coefficients(model: OscillatorModel, t, alpha, beta, dalpha, dbeta):
    """Coefficients (kinetic, cross, potential) of the transformed
    Hamiltonian  kinetic p^2 + cross (xp + px) + potential x^2."""
    M, w2 = _read(model, t, "mass", "freq2")
    m_eff = M * math.exp(beta)
    kinetic = 0.5 / m_eff
    cross = -0.25 * dbeta - alpha / m_eff
    potential = (
        0.5 * M * w2 * math.exp(beta)
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
    dense = np.linspace(lo, hi, 513)
    rho = basis.slice(dense)[4]
    M = np.asarray(model.mass(dense), dtype=float)
    rho_eff = float(np.max(rho * np.maximum(1.0, np.sqrt(M))))
    half = pad * rho_eff * math.sqrt(hbar * (2 * n + 1) / basis.omega)
    if driven is not None:
        xp = np.asarray(driven.slice(dense)[0], dtype=float)
        return Grid(float(xp.min()) - half, float(xp.max()) + half, points)
    return Grid(-half, half, points)
