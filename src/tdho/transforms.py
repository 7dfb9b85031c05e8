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

Each composite's parameters come from one coefficient function and act in
two forms: on a state's eight kernel columns in closed form
(_affine_columns), and on samples (_affine), where a map that moves support
(s != 1 or d != 0) takes a six-point Lagrange read; out-of-span reads are
taken as zero, which is consistent only because compliant grid functions
are negligible at their edges (the boundary invariant, enforced by the
sizing policy below and by _refuse_unsupported, for either form).

A GridFunction is the one window type: one state's samples, a stack of
states on the same grid as (rows, W) values, or a stack of those over
times, on a window of W columns of its grid.  Every other column holds
exact zeros, and a whole-grid function is the window at offset 0.  Every
map acts along the last axis, so one pass (one exp(i phase(x)), one set of
Lagrange weights) serves every row, and writes onto a window of its own:
the columns whose image s x - d can reach the input's window.  A
window holds the Grid it lives on, which alone forms the sample points
(Grid.xs) and the spacing (Grid.dx): every x is a slice of the grid's one
x array and every Lagrange query index is computed as the whole grid
computes it, so each column holds the whole grid's bits.  A kernel window
(rows, offset) on a grid's points is GridFunction(grid, rows, t,
offset=offset).
"""

from __future__ import annotations

import functools
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

    @functools.cached_property
    def _xs(self) -> np.ndarray:
        x = np.linspace(self.x_min, self.x_max, self.points)
        x.setflags(write=False)
        return x

    def xs(self) -> np.ndarray:
        """The grid's sample points, linspace(x_min, x_max, points): one
        read-only array per grid, formed on the first call."""
        return self._xs

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.points - 1)


class GridFunction:
    """Complex samples at the points grid.xs() of their grid, on the columns
    offset .. offset + W - 1, every other column an exact zero.  By default
    the window is the whole grid (offset 0, W = grid.points).  values are
    one state's (W,) samples or a stack of states' (rows, W) at the time t;
    with t a sequence of times, values hold one such entry per time along
    their first axis.  Indexing or iterating gives entry j of that axis, a
    view of values on the same window: time j of a stack over times, else
    row j at t.
    """

    def __init__(self, grid: Grid, values, t, hbar=1.0, offset=0):
        values = np.asarray(values, dtype=np.complex128)
        if values.ndim not in (1, 2, 3):
            raise ValueError("need (W,), (rows, W) or (times, rows, W) values")
        width = values.shape[-1]
        if not 0 <= offset <= grid.points - width:
            raise ValueError(f"a window of {width} columns at offset {offset} "
                             f"does not fit a grid of {grid.points} points")
        self.grid = grid
        self.values = values
        sequence = isinstance(t, (list, tuple, np.ndarray))
        self.t = tuple(map(float, t)) if sequence else float(t)
        self.hbar = float(hbar)
        self.offset = int(offset)

    @property
    def x(self) -> np.ndarray:
        """The window's sample points, a view of the grid's."""
        return self.grid.xs()[self.offset:self.offset + self.values.shape[-1]]

    def __getitem__(self, j) -> GridFunction:
        t = self.t[j] if isinstance(self.t, tuple) else None
        return self._with(self.values[j], t=t)

    def __iter__(self):
        return (self[j] for j in range(len(self.values)))

    def columns(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """The grid columns lo .. hi - 1 (by default all of them) of the
        values, zeros outside the window: a view of values when the window
        holds every one, else a copy."""
        hi = self.grid.points if hi is None else hi
        offset, width = self.offset, self.values.shape[-1]
        if offset <= lo and hi <= offset + width:
            return self.values[..., lo - offset:hi - offset]
        out = np.zeros(self.values.shape[:-1] + (hi - lo,), dtype=np.complex128)
        a, b = max(lo, offset), min(hi, offset + width)
        if a < b:
            out[..., a - lo:b - lo] = self.values[..., a - offset:b - offset]
        return out

    def _with(self, values, offset=None, t=None) -> GridFunction:
        """values on this function's grid, by default at its offset and t."""
        return GridFunction(self.grid, values, self.t if t is None else t, self.hbar,
                            self.offset if offset is None else offset)


def sample_on_grid(field, grid: Grid, t) -> GridFunction:
    """Evaluate a wavefunction field on a grid at one time."""
    return GridFunction(grid, field(grid.xs(), t), t, getattr(field, "hbar", 1.0))


# denominators prod_{j != k} (k - j) of the six-point Lagrange weights
_LAGRANGE_DENOM = np.array([-120.0, 24.0, -12.0, 12.0, -24.0, 120.0])


def _lagrange_eval(g: GridFunction, xq: np.ndarray):
    """Six-point Lagrange read of the samples of every row at the ascending
    1-D query points xq, as a window on them: (rows, j), rows[..., i] the
    read at xq[j + i], and every other query an exact zero, being outside
    the grid's span or reading no column of g's window.

    Each query takes the six samples of the whole grid g.grid around it,
    the stencil clipped to the grid at either edge, so any polynomial of
    degree <= 5 is reproduced to rounding everywhere in [grid.x_min,
    grid.x_max] (Fornberg, Math. Comp. 51 (1988) 699-706).  The stencils and
    weights are computed once for all rows, from the whole grid's indices,
    and read g's window with zeros around it: each query's read is the
    whole grid's, bit for bit.
    """
    xq = np.asarray(xq, dtype=float)
    grid = g.grid
    lo, hi = g.offset, g.offset + g.values.shape[-1]
    inside = np.flatnonzero((xq >= grid.x_min) & (xq <= grid.x_max))
    s = (xq[inside] - grid.x_min) / grid.dx
    first = np.clip(np.floor(s).astype(np.intp) - 2, 0, grid.points - 6)
    # the queries whose stencil reads the window: one run, as first ascends
    reach = np.flatnonzero((first + 6 > lo) & (first < hi))
    if lo == hi or not reach.size:
        return np.zeros(g.values.shape[:-1] + (0,), dtype=np.complex128), 0
    s, first = s[reach[0]:reach[-1] + 1], first[reach[0]:reach[-1] + 1]
    offsets = np.arange(6)
    d = (s - first)[:, None] - offsets
    weights = np.stack(
        [np.prod(d[:, offsets != k], axis=1) for k in range(6)], axis=1
    ) / _LAGRANGE_DENOM
    del d
    # the columns the stencils read, zeros around the window; contiguous,
    # as np.take copies a strided input on every call
    base = int(first[0])
    padded = np.ascontiguousarray(g.columns(base, int(first[-1]) + 6))
    first -= base
    # summed term by term, in one order for every row; each term is read
    # into one buffer
    term = np.empty(g.values.shape[:-1] + first.shape, dtype=g.values.dtype)
    acc = weights[:, 0] * np.take(padded, first, axis=-1, out=term)
    for k in range(1, 6):
        acc += np.multiply(weights[:, k], np.take(padded, first + k, axis=-1, out=term),
                           out=term)
    return acc, int(inside[reach[0]])


def _edge_columns(points: int) -> tuple[int, ...]:
    """The columns _edge_ratio reads on a grid of points samples: the two
    outermost at either end."""
    return (0, 1, points - 2, points - 1)


def _edge_ratio(values, offset: int = 0, points: int | None = None) -> float:
    """Largest of the two outermost samples at either end of the grid over
    the peak, of the worst row of values (0 for a zero row).  values is a
    window at column offset of a grid of points samples (by default the
    whole grid); the edge columns outside it are exact zeros.

    Two samples, since one may sit on a node: Hermite functions have only
    simple zeros, so the next sample is not one.
    """
    width = np.shape(values)[-1]
    points = width if points is None else points
    edges = [c - offset for c in _edge_columns(points) if 0 <= c - offset < width]
    if not edges:
        return 0.0
    mag = np.abs(values)
    edge = np.max(mag[..., edges], axis=-1)
    peak = np.max(mag, axis=-1)
    return float(np.max(np.divide(edge, peak, out=np.zeros_like(peak),
                                  where=peak > 0.0)))


def _refuse_unsupported(op: str, g: GridFunction, out: GridFunction, s=1.0, d=0.0):
    """Refuse (GridTooSmallError) out, g's image under a map that reads g at
    s x - d, if its two outermost samples at either end of the grid reach
    BOUNDARY_RATIO of its peak (_edge_ratio), or if it is zero and g is not."""
    grid = out.grid
    ratio = _edge_ratio(out.values, out.offset, grid.points)
    if ratio >= BOUNDARY_RATIO:
        # how much wider the grid must be for the edge samples to decay
        # below threshold, assuming roughly Gaussian tails
        centre, half = 0.5 * (grid.x_min + grid.x_max), 0.5 * (grid.x_max - grid.x_min)
        half *= 1.0 + 0.5 * math.log(max(ratio / BOUNDARY_RATIO, 1.0 + 1e-9))
        why, lo, hi = (f"left boundary ratio {ratio:.2e} >= {BOUNDARY_RATIO:.0e}",
                       centre - half, centre + half)
    elif ratio == 0.0 and not np.any(out.values) and np.any(g.values):
        # the grid joined with the samples' image, the points x with s x - d on it
        why = f"moved every sample off the grid [{grid.x_min:.3g}, {grid.x_max:.3g}]"
        lo, hi = min(grid.x_min, (grid.x_min + d) / s), max(grid.x_max, (grid.x_max + d) / s)
    else:
        return
    raise GridTooSmallError(f"{op} {why}; retry on a grid covering roughly "
                            f"[{lo:.3g}, {hi:.3g}]")


def _affine(g: GridFunction, op: str, s=1.0, d=0.0, alpha=0.0, k=0.0, c=0.0):
    """The module's map T on g's samples: a pure phase multiplies them on
    g's window; a map that moves support Lagrange-reads them at s x - d
    (_lagrange_eval) onto the window of columns its reads reach."""
    moves = s != 1.0 or d != 0.0
    if not moves and alpha == 0.0 and k == 0.0 and c == 0.0:
        return g
    x = g.grid.xs()
    rows, j = _lagrange_eval(g, s * x - d) if moves else (g.values, g.offset)
    a2, a1, a0 = alpha / g.hbar, k / g.hbar, c / g.hbar
    x = x[j:j + rows.shape[-1]]
    out = g._with(math.sqrt(s) * np.exp(1j * ((a2 * x + a1) * x + a0)) * rows, j)
    if moves:
        _refuse_unsupported(op, g, out, s, d)
    return out


def _affine_columns(columns, hbar, s=1.0, d=0.0, alpha=0.0, k=0.0, c=0.0):
    """The eight kernel columns (tdho._kernels.state_kernel_window) of T psi
    from psi's: scalars, or 1-D stacks over slices, as are the parameters.
    The factor's alpha x^2 is centred at 0, not at the new centre x_shift',
    so k_lin and phase0 take 2 alpha x_shift'/hbar and -alpha x_shift'^2/hbar."""
    log_norm, gauss_re, gauss_im, scale, x_shift, k_lin, phase0, dphase = columns
    shift = (x_shift + d) / s
    return np.array((log_norm + 0.5 * np.log(s), gauss_re * s * s,
                     gauss_im * s * s + alpha / hbar, scale * s, shift,
                     s * k_lin + (k + 2.0 * alpha * shift) / hbar,
                     phase0 - k_lin * d + (c - alpha * shift * shift) / hbar, dphase))


# ---------------------------------------------------------------------------
# composites
# ---------------------------------------------------------------------------

def _read(model: OscillatorModel, t, *names):
    """The named model functions at t as floats, after the domain check."""
    model.check_domain(t)
    return [float(getattr(model, name)(t)) for name in names]


# each composite's (s, d, alpha, k, c) at t, on samples and on columns
def _U0_coefficients(model: OscillatorModel, t):
    M, dM = _read(model, t, "mass", "dmass")
    return M ** -0.5, 0.0, 0.25 * dM / M, 0.0, 0.0


def _U0_dagger_coefficients(model: OscillatorModel, t):
    M, dM = _read(model, t, "mass", "dmass")
    return M ** 0.5, 0.0, -0.25 * dM, 0.0, 0.0


def _UF_coefficients(model: OscillatorModel, driven, t):
    [M] = _read(model, t, "mass")
    xp, dxp, delta = (float(q) for q in driven.slice(t))
    return 1.0, xp, 0.0, M * dxp, delta


def _UF_dagger_coefficients(model: OscillatorModel, driven, t):
    [M] = _read(model, t, "mass")
    xp, dxp, delta = (float(q) for q in driven.slice(t))
    p = M * dxp
    return 1.0, -xp, 0.0, -p, -p * xp - delta


def apply_U0(model: OscillatorModel, t, g: GridFunction) -> GridFunction:
    """Mass reduction QuadraticPhase(Mdot/4M) . Dilation(-ln M/2):
    M^{-1/4} e^{i Mdot x^2 / 4M hbar} g(x / sqrt(M))."""
    return _affine(g, f"U0(t={t})", *_U0_coefficients(model, t))


def apply_U0_dagger(model: OscillatorModel, t, g: GridFunction) -> GridFunction:
    """Inverse reduction Dilation(+ln M/2) . QuadraticPhase(-Mdot/4M):
    M^{1/4} e^{-i Mdot x^2 / 4 hbar} g(sqrt(M) x)."""
    return _affine(g, f"U0_dagger(t={t})", *_U0_dagger_coefficients(model, t))


def apply_UF(model: OscillatorModel, driven, t, g: GridFunction) -> GridFunction:
    """Driving operator ConstPhase(delta) . LinearPhase(M xdot_p) .
    Translation(x_p): e^{i(M xdot_p x + delta)/hbar} g(x - x_p)."""
    return _affine(g, f"U_F(t={t})", *_UF_coefficients(model, driven, t))


def apply_UF_dagger(model: OscillatorModel, driven, t, g: GridFunction) -> GridFunction:
    """e^{-i(M xdot_p (x + x_p) + delta)/hbar} g(x + x_p)."""
    return _affine(g, f"U_F_dagger(t={t})", *_UF_dagger_coefficients(model, driven, t))


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
