"""Independent numerical certification of the constructed states.

Nothing here reuses the formulas being checked: time derivatives come from
fourth-order finite differencing of fresh state evaluations, and the
residual's spatial derivative from the five-point stencil.  Every integral
is a plain sum dx Σ over the grid's samples (norms, inner products, the
Gram product, the stationarity drift and position moments), and momentum
moments sum over the DFT's wavenumbers: for a state negligible at the
grid's edges and near the Nyquist wavenumber both converge exponentially
(the trapezoidal rule), and one guard refuses a state that is not.  Every
check returns the measured number next to the threshold it was judged
against.

The suite's checks read every order a scenario asks for at one time from
one recurrence, and each run_suite call evaluates the scenario's state at
its times once, for every check that reads it (see run_suite).  Each check
makes one stacked kernel call per set of times it reads: the closed forms,
the chain's companion, its image under U_F U0_dagger (the companion's
kernel columns mapped in closed form, _exact_chain) and the
uncertainty check's undriven state are one stack over the scenario's
times each, stationarity's probe times one stack, and the residual's six
other stencil times one stack per t.
Orthonormality alone reads one call per time: a window over all its times
would widen each time's Gram product.  The oracles keep their own
parameters: a closed form (closed_form_window) takes its slice from its
family's law in tdho.states.CLOSED_FORMS, never from the basis or the
model's mass, and only shares the recurrence; frequency_map's target is
that law's w_c^2; delta_legacy keeps its own endpoint formula, probe and
guard bound, and shares only the particular path's panels, Gauss rule and reader.

The suite reads each state down to e^-READ_DEPTH (e^-40) of its slice's
amplitude scale and takes the samples below as exact zeros: every
tdho.states.state_window and closed_form_window read stops there (the
constant lives in tdho.states and is re-exported here).  The kernel alone
reads to e^-700 (LOG_FLOOR).  An order's peak is at least 0.358 of
that scale up to n = 1000, so every zeroed sample is below 1.2e-17 of its
row's peak, under eps/16, and no reduction the checks form can see it.
Norms, Gram entries, the stationarity drift and the moments' sums see it
squared, below 1.4e-34 of the peak's square; the closed-form distance, a
maximum, sees it below the rounding of the peak-sized terms it compares;
the Nyquist bins and the moments' DFT, linear sums over at most 4096
points, see at most 5e-14 of the peak, four orders below BOUNDARY_RATIO.
What a narrower window does move is rounding: a slice may skip exponent
tracking, and a sum loses terms that lie below its last bit.  A verdict
can only move if its measured value sits within that rounding of its
threshold.  schrodinger_residual, check_transform_equivalence, state_field
and the CLI's state dump read at full depth.

So at high order most of the grid holds exact zeros, and no read of the
suite stores them: every block it reads is a GridFunction (see
tdho.transforms) on the kernel's cutoff window, the union of its slices'
cutoff windows, whose outside columns are the exact zeros a whole-grid
block holds.  A block holds the Grid it lives on: every x, stencil step and
sum reads its points (Grid.xs) and spacing (Grid.dx).  A block over several
times is one stack, and each time's window is a view of it.  The reductions
run on the states' support window (_support), read from the stored values,
not from the kernel's cutoff, so any nonzero sample (NaN and inf too) lies
inside it: the residual's stencils and norms, the Gram product, the
closed-form distance, the stationarity drift and the chain's norms.  Two
windows meet on the union of their supports, each read there with zeros
around it (GridFunction.columns).  Zeros add nothing to a sum, a norm or a
maximum, so the support window moves results by rounding only: the order of
summation changes.  The residual's window is 8 columns wider, so the
five-point stencils and their zeroed edges read on it what they read on the
whole grid.  The chain maps no samples: the maps on samples
(apply_U0_dagger, apply_UF) are checked against it by
check_transform_equivalence, outside the suite.

Moments and their DFT read the whole grid: uncertainty pads each time's
stack of rows with zeros to it, one DFT per stack (_stack_moments).  The
resolution guard (_resolved_window) that orthonormality, norms, inner
products and the stationarity drift run reads its window: the edge
columns that lie in it, the three Nyquist bins as direct sums, and a
Parseval bound on their ratio to the spectrum's peak; only when that bound
cannot show the rows resolved does the whole grid's DFT
(_resolved_spectrum) decide, on the zero-padded rows.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import states as _states
from . import transforms as _transforms
from .classical import delta_legacy, null_driven, reduced_basis, shift_particular
from .models import CaldirolaKanai, DomainError, frequency_scale, reduced_frequency_squared
from .states import READ_DEPTH, StateSpec, closed_form_law, closed_form_window, state_field
from .transforms import (
    BOUNDARY_RATIO,
    Grid,
    GridFunction,
    GridTooSmallError,
    _affine_columns,
    _edge_ratio,
    _refuse_unsupported,
    apply_U0_dagger,
    apply_UF,
    sample_on_grid,
)

__all__ = [
    "GridMismatchError",
    "DegenerateStateError",
    "ResidualReport",
    "MomentReport",
    "CheckResult",
    "SuiteContext",
    "simpson",
    "norm",
    "inner_product",
    "moments",
    "schrodinger_residual",
    "check_omega_constancy",
    "check_transform_equivalence",
    "check_stationarity",
    "phase_aligned_distance",
    "run_suite",
    "report_json",
    "DEFAULT_THRESHOLDS",
    "READ_DEPTH",
    "CHECK_NAMES",
]


class GridMismatchError(ValueError):
    """Two grid functions live on unequal Grids (x_min, x_max or points)."""


class DegenerateStateError(ValueError):
    """A sampled state is zero or not finite, so a measure relative to it
    (residual, chain distance, closed-form distance) is undefined."""


def _nondegenerate(size, name: str, where: str, undefined: str):
    """size — one norm or peak per row, or one for all — once every value is
    finite and positive; otherwise DegenerateStateError, naming the first
    that is not and what it leaves undefined."""
    size = np.asarray(size)
    bad = ~(np.isfinite(size) & (size > 0.0))
    if bad.any():
        raise DegenerateStateError(
            f"{name} = {size[bad].flat[0]}{where}: the sampled state is zero or "
            f"not finite, so {undefined} is undefined"
        )
    return size


def _support(*windows: GridFunction, margin: int = 0) -> slice:
    """The slice of grid columns outside which every window is exactly
    zero, widened by margin columns each way: clipped at column 0, and at
    the grid's end by the caller's .indices(points); the whole grid when
    every sample is zero.  It is read from the values, one float64 view of
    each window scanned for != 0 and OR-reduced over its rows, so NaN, inf
    and any sample a code path leaves nonzero count."""
    first, stop = None, None
    for g in windows:
        if not g.values.size:
            continue
        flat = np.ascontiguousarray(g.values).view(np.float64)
        live = np.logical_or.reduce(flat.reshape(-1, flat.shape[-1]) != 0.0, axis=0)
        # a column is live where its real or its imaginary part is
        live = live.view(np.uint16) != 0
        lo = int(np.argmax(live))
        if not live[lo]:
            continue
        hi = g.offset + live.size - int(np.argmax(live[::-1]))
        first = g.offset + lo if first is None else min(first, g.offset + lo)
        stop = hi if stop is None else max(stop, hi)
    if first is None:
        return slice(None)
    return slice(max(first - margin, 0), stop + margin)


# ---------------------------------------------------------------------------
# finite-difference stencil (fourth order)
# ---------------------------------------------------------------------------

def _d2(values: np.ndarray, dx: float, out: np.ndarray) -> np.ndarray:
    """Fourth-order second derivative (five-point stencil) along the last
    axis of the contiguous complex values, zeroed edges, formed in out.

    The stencil's coefficients are real, so it runs on float64 views, a
    column two floats wide: the complex form's adds and multiplies, in its
    order, on re and im.  The complex division by 12 dx^2 multiplies each part by the
    rounded reciprocal (Smith's algorithm with a zero imaginary part), and
    so does this, at the cost of a real multiply."""
    v, o = values.view(np.float64), out.view(np.float64)
    o[..., :4] = o[..., -4:] = 0.0
    inner = o[..., 4:-4]
    np.multiply(-30.0, v[..., 4:-4], out=inner)
    pair = v[..., 6:-2] + v[..., 2:-6]
    inner += np.multiply(16.0, pair, out=pair)
    inner -= np.add(v[..., 8:], v[..., :-8], out=pair)
    inner *= 1.0 / (12.0 * dx * dx)
    return out


# ---------------------------------------------------------------------------
# quadrature observables
# ---------------------------------------------------------------------------

def simpson(y, dx: float):
    """Composite Simpson integral along the last axis of real samples y
    spaced dx apart, by scipy.integrate.simpson's rule from scipy 1.11 on,
    end correction for an even count included.  No check calls it."""
    y = np.asarray(y)
    w = np.zeros(y.shape[-1])
    if w.size < 3:
        raise ValueError("Simpson's rule needs at least 3 samples")
    odd = w.size - 1 + w.size % 2  # samples under the plain composite rule
    w[1:odd - 1:2] = 4.0 / 3.0
    w[2:odd - 1:2] = 2.0 / 3.0
    w[0] = w[odd - 1] = 1.0 / 3.0
    if odd < w.size:
        w[-3:] += (-1.0 / 12.0, 8.0 / 12.0, 5.0 / 12.0)
    return dx * (y @ w)


def _resolved_columns(what: str, *gs: GridFunction) -> list:
    """Each of gs, states on one grid, as a contiguous copy of the columns
    where any of them is nonzero (_support), once each is resolved there
    (_resolved_window): the columns that a plain sum dx Σ reads."""
    lo, hi, _ = _support(*gs).indices(gs[0].grid.points)
    out = [np.ascontiguousarray(g.columns(lo, hi)) for g in gs]
    for g, live in zip(gs, out):
        _resolved_window(g._with(live, offset=lo), what)
    return out


def norm(g: GridFunction) -> float:
    """L2 norm sqrt(dx Σ|psi|²) of one state (_resolved_columns)."""
    [live] = _resolved_columns("norm", g)
    return math.sqrt(g.grid.dx * float(np.vdot(live, live).real))


def inner_product(g1: GridFunction, g2: GridFunction) -> complex:
    """⟨g1|g2⟩ = dx Σ conj(g1) g2 of two states (_resolved_columns)."""
    if g1.grid != g2.grid:
        raise GridMismatchError("grid functions are sampled on different grids")
    a, b = _resolved_columns("inner product", g1, g2)
    return complex(g1.grid.dx * np.vdot(a, b))


@dataclass(frozen=True)
class MomentReport:
    mean_x: float
    var_x: float
    mean_p: float
    var_p: float
    t: float


def _resolved_spectrum(g: GridFunction, what: str):
    """(|psi|², |DFT|) along the last axis of g's samples, one state or a
    stack of states, once every row is shown fit for plain sums over the
    grid.

    Such sums converge exponentially only while a state is negligible at
    both edges of the grid and near the Nyquist wavenumber.  Refused, in
    this order: a row that is zero or not finite (DegenerateStateError), a
    row whose two outermost samples at either end (_edge_ratio: one may sit
    on a node), or whose three DFT bins around the Nyquist wavenumber, reach
    BOUNDARY_RATIO of its peak (GridTooSmallError).  A window of the grid
    is read zero-padded to the whole grid.
    """
    values = g.columns()
    points = values.shape[-1]
    density = np.abs(values) ** 2
    _nondegenerate(np.sum(density, axis=-1), f"{what}: ‖psi‖²",
                   f" at t = {g.t}", "its sum over the grid")
    ratio = _edge_ratio(values)
    if ratio >= BOUNDARY_RATIO:
        raise GridTooSmallError(
            f"{what}: state not resolved at t = {g.t} on {points} points: "
            f"edge over peak {ratio:.2e} >= {BOUNDARY_RATIO:.0e}; widen the grid"
        )
    spectrum = np.abs(np.fft.fft(values, axis=-1))
    band = spectrum[..., points // 2 - 1:points // 2 + 2]
    nyquist = float(np.max(np.max(band, axis=-1) / np.max(spectrum, axis=-1)))
    if nyquist >= BOUNDARY_RATIO:
        raise GridTooSmallError(
            f"{what}: state not resolved at t = {g.t} on {points} points: "
            f"Nyquist bins over peak {nyquist:.2e} >= {BOUNDARY_RATIO:.0e}; "
            "use more points"
        )
    return density, spectrum


@functools.lru_cache(maxsize=1)
def _roots_of_unity(points: int) -> np.ndarray:
    """e^{-2 pi i j / P} for j = 0 .. P - 1: the DFT's twiddles on P points,
    angles within one turn."""
    roots = np.exp(-2j * math.pi / points * np.arange(points))
    roots.setflags(write=False)  # shared by every call on P points
    return roots


def _nyquist_bins(g: GridFunction) -> np.ndarray:
    """The DFT bins P//2 - 1, P//2 and P//2 + 1 over the P points of g's
    grid of each row of g: (rows, 3) direct sums over its window, as its
    other columns hold zeros."""
    points = g.grid.points
    jk = np.outer(np.arange(g.offset, g.offset + g.values.shape[-1]),
                  np.arange(-1, 2) + points // 2)
    return g.values @ _roots_of_unity(points)[jk % points]


def _resolved_window(g: GridFunction, what: str):
    """Refuse the rows of g as _resolved_spectrum refuses them, without the
    grid's DFT when they show themselves resolved.

    They do when every row's ‖psi‖² is finite and positive, the grid's
    edge columns 0, 1, P - 2 and P - 1 that lie in the window (the others
    hold zeros) stay below BOUNDARY_RATIO of its peak, and so do its three
    bins around the Nyquist wavenumber, each a direct sum over the window:
    by Parseval the DFT's peak is at least ‖psi‖₂ (sum_k |psi^_k|² =
    P sum_j |psi_j|²), so band / ‖psi‖₂ bounds band / peak from above.
    Otherwise _resolved_spectrum decides on the zero-padded rows, with its
    refusals and messages.
    """
    norm2 = np.sum(np.abs(g.values) ** 2, axis=-1)
    resolved = (bool(np.all(np.isfinite(norm2) & (norm2 > 0.0)))
                and _edge_ratio(g.values, g.offset, g.grid.points) < BOUNDARY_RATIO)
    if resolved:
        band = np.max(np.abs(_nyquist_bins(g)), axis=-1)
        resolved = float(np.max(band / np.sqrt(norm2))) < BOUNDARY_RATIO
    if not resolved:
        _resolved_spectrum(g, what)


def moments(g: GridFunction) -> MomentReport:
    """Position/momentum means and variances of one state's samples (hbar
    of g).

    Positions are plain sums over the samples, momenta sums over the
    wavenumbers k = 2 pi fftfreq(P, dx) of the DFT; both converge
    exponentially in the number of samples (the trapezoidal rule and the
    spectral derivative of a smooth, decayed function).  Both read the
    whole grid: a window is zero-padded to it.  A state that is not
    negligible at either edge of the grid, or in the three DFT bins around
    the Nyquist wavenumber, is not resolved: GridTooSmallError.
    """
    if g.values.ndim != 1:
        raise ValueError("moments takes one state's (points,) samples, not a stack")
    [report] = _stack_moments(g._with(g.values[np.newaxis]))
    return report


def _stack_moments(g: GridFunction) -> list:
    """moments of each row of g, a (rows, W) stack of states at one time,
    from one zero-padded (rows, P) array, one |psi|², one DFT and one
    wavenumber vector.  Each row's sums are its own 1-D dots, so every
    moment holds the bits of moments(row).  A refused stack is read again
    row by row, so that the refusal names the first row moments refuses,
    with that row's ratio."""
    g = g._with(g.columns(), offset=0)
    try:
        densities, spectra = _resolved_spectrum(g, "moments")
    except (DegenerateStateError, GridTooSmallError):
        if len(g.values) > 1:
            for row in g:
                moments(row)
        raise
    x = g.x
    k = 2.0 * math.pi * np.fft.fftfreq(g.grid.points, g.grid.dx)
    reports = []
    for density, power in zip(densities, spectra**2):
        n2 = float(np.sum(density))
        mean_x = float(x @ density) / n2
        var_x = float((x - mean_x) ** 2 @ density) / n2
        total = float(np.sum(power))
        mean_k = float(k @ power) / total
        var_k = float((k - mean_k) ** 2 @ power) / total
        reports.append(MomentReport(mean_x, var_x, g.hbar * mean_k, g.hbar**2 * var_k, g.t))
    return reports


# ---------------------------------------------------------------------------
# Schrödinger residual
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidualReport:
    rel_l2_residual: float
    points: int
    dx: float
    dt: float
    residual_coarse: float
    convergence_order_estimate: float


# offsets, in units of dt, of the times the residual reads the state at: the
# fine stencil takes t, t ± dt, t ± 2dt and the coarse one t, t ± 2dt, t ± 4dt
_STENCIL_STEPS = (0, 1, -1, 2, -2, 4, -4)


def _residual_dt(model) -> float:
    return 1e-3 * 2.0 * math.pi / frequency_scale(model)


def _check_stencil_domain(model, t, dt):
    """Refuse (DomainError) a residual time whose stencil, t ± 4dt, leaves
    the model's domain, before any state is read there."""
    try:
        model.check_domain([t - 4 * dt, t + 4 * dt])
    except DomainError:
        raise DomainError(
            f"residual at t = {t}: the stencil reaches t ± 4dt = "
            f"[{t - 4 * dt:.6g}, {t + 4 * dt:.6g}] with dt = {dt:.3g}, outside "
            f"the model domain [{model.t_min}, {model.t_max}]") from None


def _residual_once(model, x, dx, points, t, dt, hbar, psi, d1, d2):
    """Relative L2 residuals of the rows psi (..., len(x)) sampled at t, one
    per row, with d1 and d2 their differences psi(t + dt) - psi(t - dt) and
    psi(t + 2dt) - psi(t - 2dt), on the window x of a grid of points
    samples dx apart, outside which every row is zero.  The rows are only
    read.  Inside each end of the window that is not the grid's, four
    columns must be zero: the stencil's two zeroed edge columns then equal
    the full grid's."""
    # numpy's elementwise loops run at half speed or less on a window of
    # rows, which is strided, so the stencil reads one contiguous copy
    psi = np.ascontiguousarray(psi)
    M, _, _, w2 = (float(q) for q in model.terms(t))
    F = float(model.force_at(t))
    h_psi = _d2(psi, dx, np.empty_like(psi))
    # the real scalings on float views: the complex forms' bits (_d2)
    h = h_psi.view(np.float64)
    h *= -(hbar * hbar) / (2.0 * M)
    h_psi += (0.5 * M * w2 * x * x - x * F) * psi
    h_norm = _nondegenerate(np.linalg.norm(h_psi, axis=-1), "‖H psi‖",
                            f" at t = {t} on {points} points", "its residual")
    o_psi = np.multiply(8.0, d1)
    o_psi -= d2
    o = o_psi.view(np.float64)
    o *= 1.0 / (12.0 * dt)
    np.multiply(1j * hbar, o_psi, out=o_psi)
    o_psi -= h_psi
    return np.linalg.norm(o_psi, axis=-1) / h_norm


def _residual_pair(model, t, dt, centre: GridFunction, stencil: GridFunction):
    """(fine, coarse) residuals of the rows of centre, the state at t on
    its grid, with stencil the stack of its rows at t + k dt for each k in
    _STENCIL_STEPS[1:], in that order.  The coarse stencil steps (2dt, 2dx):
    it reads every other sample at t, t ± 2dt, t ± 4dt.  The windows are
    only read.

    Both stencils run on one window of columns outside which all seven rows
    are zero (_support), widened by 8 columns: four zero samples of the
    coarse stencil inside each end.  The centre and the differences
    psi(t + k dt) - psi(t - k dt) are read there, from the even column at
    or below its start, with zeros outside their windows; the coarse
    stencil takes the window of the full grid's every other sample, so it
    reads the same samples as on the full grid."""
    grid = centre.grid
    x = grid.xs()
    lo, hi, _ = _support(centre, stencil, margin=8).indices(grid.points)
    even = lo - lo % 2
    rows = stencil.values
    psi = centre.columns(even, hi)
    # the differences, subtracted straight into their zero-padded window
    d1, d2, d4 = diffs = np.zeros((3, *rows.shape[1:-1], hi - even), dtype=np.complex128)
    first, stop = max(even, stencil.offset), min(hi, stencil.offset + rows.shape[-1])
    if first < stop:
        live = rows[..., first - stencil.offset:stop - stencil.offset]
        np.subtract(live[0::2], live[1::2], out=diffs[..., first - even:stop - even])
    fine = _residual_once(model, x[lo:hi], grid.dx, grid.points, t, dt, centre.hbar,
                          *(a[..., lo - even:] for a in (psi, d1, d2)))
    coarse = _residual_once(model, x[even:hi:2], 2 * grid.dx, (grid.points + 1) // 2,
                            t, 2 * dt, centre.hbar, *(a[..., ::2] for a in (psi, d2, d4)))
    return fine, coarse


def _order(fine, coarse) -> float:
    """Convergence-order estimate log2(coarse / fine) of a (2dt, 2dx) step."""
    return math.log2(coarse / fine) if fine > 0 else float("inf")


def schrodinger_residual(field, model, grid: Grid, t, dt=None,
                         hbar=None) -> ResidualReport:
    """Relative L2 residual ‖(i hbar ∂t - H) psi‖ / ‖H psi‖ at time t.

    The time derivative differences fresh analytic field evaluations at
    t ± dt, t ± 2dt (never stored samples), so the result certifies the
    formulas rather than the storage.  A second stencil at (2dt, 2dx), on
    every other sample at t, t ± 2dt, t ± 4dt, yields the convergence-order
    estimate.
    """
    hbar = getattr(field, "hbar", 1.0) if hbar is None else hbar
    if dt is None:
        dt = _residual_dt(model)
    _check_stencil_domain(model, t, dt)
    times = [t + k * dt for k in _STENCIL_STEPS]
    at = [field(grid.xs(), s) for s in times]
    centre = GridFunction(grid, at[0], t, hbar)
    stencil = centre._with(np.stack(at[1:]), t=times[1:])
    fine, coarse = (float(r) for r in _residual_pair(model, t, dt, centre, stencil))
    return ResidualReport(
        rel_l2_residual=fine,
        points=grid.points,
        dx=grid.dx,
        dt=float(dt),
        residual_coarse=coarse,
        convergence_order_estimate=_order(fine, coarse),
    )


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------

def check_omega_constancy(basis) -> float:
    """Max relative drift of M (vdot u - udot v) at 200 times across the domain."""
    model = basis.model
    ts = np.linspace(model.t_min, model.t_max, 200)
    vals = basis.omega_check(ts)
    return float(np.max(np.abs(vals - basis.omega)) / abs(basis.omega))


def _chain_distance(chained: GridFunction, direct: GridFunction):
    """Relative L2 distance between chained and direct at direct.t, one per
    row of either, over the columns where either is nonzero (_support)."""
    where = f" at t = {direct.t} on {direct.grid.points} points"
    lo, hi, _ = _support(chained, direct).indices(direct.grid.points)
    chained, direct = chained.columns(lo, hi), direct.columns(lo, hi)
    direct_norm = _nondegenerate(np.linalg.norm(direct, axis=-1), "direct ‖psi‖", where,
                                 "the chain distance")
    return np.linalg.norm(chained - direct, axis=-1) / direct_norm


def _exact_chain(driven, spec0: StateSpec, g0: GridFunction, orders, depth=None):
    """U_F U0_dagger on spec0's kernel columns at the times of g0, a stack of
    its windows: read once, mapped with the samples' coefficients, drawn as
    orders by one kernel call to depth and guarded as samples would be; g0
    itself where both maps are the identity at every time."""
    model = driven.model
    # (5, 2, T): U0_dagger's and then U_F's (s, d, alpha, k, c) at each time,
    # read through the module as the samples' maps read them
    maps = np.array([(_transforms._U0_dagger_coefficients(model, t),
                      _transforms._UF_coefficients(model, driven, t)) for t in g0.t]).T
    if (maps[0] == 1.0).all() and not maps[1:].any():
        return g0
    columns = _states._slice_params(spec0, g0.t)
    for coefficients in maps.transpose(1, 0, 2):
        columns = _affine_columns(columns, spec0.hbar, *coefficients)
    rows, offset = _states.state_kernel_window(g0.grid.xs(), orders, *columns, depth=depth)
    out = g0._with(rows.reshape(g0.values.shape[:-1] + rows.shape[-1:]), offset)
    (s0, s1), (d0, d1) = maps[0], maps[1]  # the chain reads g0 at s0 s1 x - s0 d1 - d0
    for t, before, after, s, d in zip(g0.t, g0, out, s0 * s1, s0 * d1 + d0):
        _refuse_unsupported(f"U_F U0_dagger(t={t})", before, after, s, d)
    return out


def check_transform_equivalence(
    basis, driven, n, t, grid, hbar: float = 1.0, exact: bool = False
) -> float:
    """Relative L2 distance between the operator chain and the direct state.

    The unit-mass eigenstate psi_n^0 (built over the companion basis
    sqrt(M)(u, v)) is pushed through U0_dagger and U_F, on its samples or
    (exact) on its kernel columns drawn at full depth, and compared to the
    directly evaluated displaced state on the grid.
    """
    model = basis.model
    driven = null_driven(model) if driven is None else driven
    spec0 = StateSpec(n, hbar, reduced_basis(basis))
    g0 = sample_on_grid(state_field(spec0), grid, t)
    if exact:
        chained = _exact_chain(driven, spec0, g0._with(g0.values[None], t=[t]), [n])[0]
    else:
        chained = apply_UF(model, driven, t, apply_U0_dagger(model, t, g0))
    direct = state_field(StateSpec(n, hbar, basis, driven))(g0.x, t)
    return float(_chain_distance(chained, g0._with(direct)))


def _max_drift(base: GridFunction, later):
    """Max L1 distance dx Σ ||psi|² - |base|²| over the states psi in later,
    one per row of base, over the columns where either is nonzero
    (_support); each state refused unless resolved (_resolved_window)."""
    _resolved_window(base, "stationarity")
    worst = np.zeros(base.values.shape[:-1])
    for psi in later:
        _resolved_window(psi, "stationarity")
        lo, hi, _ = _support(base, psi).indices(base.grid.points)
        dens = np.abs(psi.columns(lo, hi)) ** 2 - np.abs(base.columns(lo, hi)) ** 2
        worst = np.maximum(worst, base.grid.dx * np.sum(np.abs(dens), axis=-1))
    return worst


def check_stationarity(field, grid: Grid, times):
    """Max L1 distance of |psi|^2 from its value at times[0] (_max_drift): a
    float, or one per row when field returns (rows, points) values."""
    x = grid.xs()
    states = (GridFunction(grid, field(x, t), t) for t in np.asarray(times, dtype=float))
    worst = _max_drift(next(states), states)
    return float(worst) if worst.ndim == 0 else worst


def phase_aligned_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Max pointwise |a - e^{i phi} b| / max|a| with a single best phase."""
    return float(_phase_aligned_distances(np.reshape(a, (1, -1)),
                                          np.reshape(b, (1, -1)))[0])


def _phase_aligned_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """phase_aligned_distance of each row of a against the same row of b,
    (R, W) each: one best phase per row, from one np.vdot per row (a phase
    of 1 where a row's overlap is 0)."""
    peak = _nondegenerate(np.max(np.abs(a), axis=-1), "max|a|", "",
                          "the relative distance")
    phi = []
    for row_a, row_b in zip(a, b):
        overlap = np.vdot(row_b, row_a)
        phi.append(overlap / abs(overlap) if overlap != 0 else 1.0)
    phi = np.array(phi, dtype=np.complex128)[:, np.newaxis]
    return np.max(np.abs(a - phi * b), axis=-1) / peak


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------

DEFAULT_THRESHOLDS = {
    "residual": 1e-6,
    "omega_constancy": 1e-8,
    "frequency_map": 1e-12,
    "transform_chain_exact": 1e-10,
    "closed_form_agreement": 1e-8,
    "uncertainty": 1e-8,
    "delta_equivalence": 1e-8,
    "orthonormality": 1e-8,
    "stationarity": 1e-9,
    "stationarity_period": 1e-8,
    "stationarity_contrast": 1e-2,
}


def state_window(spec: StateSpec, grid: Grid, t, orders) -> GridFunction:
    """tdho.states.state_window on grid's points, as a GridFunction at t.
    Every block of a state over a basis that the suite reads on its grid
    comes from here."""
    rows, offset = _states.state_window(spec, grid.xs(), t, orders)
    return GridFunction(grid, rows, t, spec.hbar, offset=offset)


def _closed_forms(ctx, times) -> GridFunction:
    """The closed form of ctx.ns with C = ctx.closed_form_C at each of
    times (closed_form_window) on ctx.grid."""
    rows, offset = closed_form_window(ctx.model, ctx.closed_form_C, ctx.ns, ctx.hbar,
                                      ctx.grid.xs(), times)
    return GridFunction(ctx.grid, rows, times, ctx.hbar, offset=offset)


@dataclass
class CheckResult:
    check: str
    params: dict
    measured: float
    threshold: float
    op: str = "<"

    @property
    def passed(self) -> bool:
        if self.op == ">":
            return self.measured > self.threshold
        return self.measured < self.threshold

    def to_json(self) -> dict:
        doc = {
            "check": self.check,
            "params": self.params,
            "measured": self.measured,
            "threshold": self.threshold,
            "pass": self.passed,
        }
        if self.op != "<":
            doc["op"] = self.op
        return doc


@dataclass
class SuiteContext:
    """Prepared inputs one scenario's checks run against.

    `closed_form_C` is the pulsation parameter C of the closed-form state of
    the model's family (None: no closed form to compare with).  No state
    evaluated from it is kept here (see run_suite).
    """

    basis: object
    driven: object | None
    ns: list
    times: list
    grid: Grid
    hbar: float = 1.0
    closed_form_C: float | None = None
    orthonormality_nmax: int = 8

    @property
    def model(self):
        return self.basis.model

    def state(self, n, driven=None) -> StateSpec:
        return StateSpec(n, self.hbar, self.basis,
                         driven if driven is not None else self.driven)


def _n_then_t(ctx: SuiteContext, per_t):
    """(n, t, per_t[j][i]) in report order, n outer and t inner, where
    per_t[j][i] belongs to order ctx.ns[i] at time ctx.times[j]."""
    for i, n in enumerate(ctx.ns):
        for j, t in enumerate(ctx.times):
            yield n, t, per_t[j][i]


def _run_residual(ctx: SuiteContext, rows) -> list:
    """Fine and coarse residuals of every order.  The centre of the stencil
    at each t is the run's shared window; the other six stencil times are
    one window per t, from one kernel pass."""
    tol = DEFAULT_THRESHOLDS["residual"]
    model = ctx.model
    dt = _residual_dt(model)
    for t in ctx.times:
        _check_stencil_domain(model, t, dt)
    spec = ctx.state(max(ctx.ns))
    per_t = []
    for t, centre in zip(ctx.times, rows()):
        fine, coarse = _residual_pair(model, t, dt, centre, state_window(
            spec, ctx.grid, [t + k * dt for k in _STENCIL_STEPS[1:]], ctx.ns))
        per_t.append([(float(f), float(c)) for f, c in zip(fine, coarse)])
    return [CheckResult("residual",
                        {"n": n, "t": t, "order": round(_order(fine, coarse), 2)},
                        fine, tol)
            for n, t, (fine, coarse) in _n_then_t(ctx, per_t)]


def _run_omega(ctx: SuiteContext, rows) -> list:
    tol = DEFAULT_THRESHOLDS["omega_constancy"]
    measured = check_omega_constancy(ctx.basis)
    return [CheckResult("omega_constancy", {}, measured, tol)]


def _run_frequency_map(ctx: SuiteContext, rows) -> list:
    """Max |w0^2(t) - target| at 512 times, against the constant the model's
    family reduces to in closed form; a model without one is refused."""
    tol = DEFAULT_THRESHOLDS["frequency_map"]
    m = ctx.model
    law = closed_form_law(m)
    if law is None:
        raise ValueError(
            f"frequency_map has no closed-form reduced frequency for {type(m).__name__}")
    target = law(m.t_min)[2]
    ts = np.linspace(m.t_min, m.t_max, 512)
    w02 = np.asarray(reduced_frequency_squared(m, ts), dtype=float)
    measured = float(np.max(np.abs(w02 - target)))
    return [CheckResult("frequency_map", {"target": target}, measured, tol)]


def _run_transform_chain(ctx: SuiteContext, rows) -> list:
    """The chain of every order per t against the direct state, the run's
    shared window (undriven, the state over null_driven): the companion
    state's kernel columns at all the times go through U0_dagger and U_F
    in closed form and are drawn as one stack (_exact_chain)."""
    tol = DEFAULT_THRESHOLDS["transform_chain_exact"]
    driven = ctx.driven if ctx.driven is not None else null_driven(ctx.model)
    companion = StateSpec(max(ctx.ns), ctx.hbar, reduced_basis(ctx.basis))
    companions = state_window(companion, ctx.grid, ctx.times, ctx.ns)
    exacts = _exact_chain(driven, companion, companions, ctx.ns, _states.READ_DEPTH)
    per_t = [_chain_distance(chained, direct).tolist()
             for direct, chained in zip(rows(), exacts)]
    return [CheckResult("transform_chain", {"n": n, "t": t, "path": "exact"}, measured, tol)
            for n, t, measured in _n_then_t(ctx, per_t)]


def _run_closed_form(ctx: SuiteContext, rows) -> list:
    """The closed-form window of ctx.ns against the undriven general state's
    window (the state over null_driven) per t, each one stack over
    ctx.times; undriven, the general one is the run's shared window.  Each
    distance runs on the columns where either is nonzero (_support)."""
    tol = DEFAULT_THRESHOLDS["closed_form_agreement"]
    C = ctx.closed_form_C
    if C is None:
        raise ValueError("closed_form_agreement needs the closed-form C of the scenario")
    blocks = rows() if ctx.driven is None else state_window(
        ctx.state(max(ctx.ns), driven=null_driven(ctx.model)), ctx.grid, ctx.times,
        ctx.ns)
    per_t = []
    for wanted, block in zip(_closed_forms(ctx, ctx.times), blocks):
        lo, hi, _ = _support(wanted, block).indices(ctx.grid.points)
        per_t.append(_phase_aligned_distances(wanted.columns(lo, hi),
                                              block.columns(lo, hi)).tolist())
    return [CheckResult("closed_form_agreement", {"n": n, "t": t}, d, tol)
            for n, t, d in _n_then_t(ctx, per_t)]


def _run_uncertainty(ctx: SuiteContext, rows) -> list:
    """Driven against undriven moments of every order per t, on the
    scenario's grid: equal variances, <x> shifted by x_p, <p> by M xdot_p.
    The driven window is the run's shared one; the undriven one is one
    stack over ctx.times.  The moments of each time's driven and undriven
    rows come from one padded read each (_stack_moments), and x_p, xdot_p
    and M are read once for all the times."""
    tol = DEFAULT_THRESHOLDS["uncertainty"]
    if ctx.driven is None:
        raise ValueError("uncertainty check needs a driven scenario")
    plain = state_window(ctx.state(max(ctx.ns), driven=null_driven(ctx.model)),
                         ctx.grid, ctx.times, ctx.ns)
    ts = np.array(ctx.times)
    xps, dxps, _ = ctx.driven.slice(ts)
    p_shifts = (ctx.model.mass(ts) * dxps).tolist()
    per_t = []
    for driven_rows, plain_rows, xp, p_shift in zip(rows(), plain, xps.tolist(), p_shifts):
        per_t.append([
            max(
                abs(m_f.var_x - m_0.var_x),
                abs(m_f.var_p - m_0.var_p),
                abs(m_f.mean_x - m_0.mean_x - xp),
                abs(m_f.mean_p - m_0.mean_p - p_shift),
            )
            for m_f, m_0 in zip(_stack_moments(driven_rows), _stack_moments(plain_rows))
        ])
    return [CheckResult("uncertainty", {"n": n, "t": t}, d, tol)
            for n, t, d in _n_then_t(ctx, per_t)]


def _v_window(ctx: SuiteContext):
    """Longest stretch of the domain where v keeps one sign, inset 15%."""
    m = ctx.model
    ts = np.linspace(m.t_min, m.t_max, 4096)
    v = np.asarray(ctx.basis.slice(ts)[2])
    sign_change = np.nonzero(v[:-1] * v[1:] <= 0)[0]
    edges = [m.t_min] + [0.5 * (ts[i] + ts[i + 1]) for i in sign_change] + [m.t_max]
    spans = [(edges[i + 1] - edges[i], edges[i], edges[i + 1])
             for i in range(len(edges) - 1)]
    _, a, b = max(spans)
    inset = 0.15 * (b - a)
    return a + inset, b - inset


def _run_delta_equivalence(ctx: SuiteContext, rows) -> list:
    tol = DEFAULT_THRESHOLDS["delta_equivalence"]
    if ctx.driven is None:
        raise ValueError("delta_equivalence check needs a driven scenario")
    a, b = _v_window(ctx)
    samples = np.linspace(a, b, 100)
    diffs = (
        delta_legacy(ctx.basis, ctx.driven, a, samples)
        - np.asarray(ctx.driven.slice(samples)[2])
    )
    out = [CheckResult(
        "delta_equivalence", {"form": "legacy", "window": [a, b]},
        float(np.std(diffs)), tol,
    )]

    c = 0.5
    shifted = shift_particular(ctx.driven, ctx.basis, c)
    ts = np.linspace(ctx.model.t_min, ctx.model.t_max, 100)
    M = np.asarray(ctx.model.mass(ts), dtype=float)
    u, du = ctx.basis.slice(ts)[:2]
    xp, _, delta = ctx.driven.slice(ts)
    g = np.asarray(shifted.slice(ts)[2]) - delta + c * M * du * (xp + 0.5 * c * u)
    out.append(CheckResult(
        "delta_equivalence", {"form": "shift_rule", "c": c},
        float(np.std(g)), tol,
    ))
    return out


def _run_orthonormality(ctx: SuiteContext, rows) -> list:
    """max |<psi_m|psi_n> - delta_mn| over m <= n <= nmax, from one window
    of orders 0..nmax per time on the scenario's grid (state_window) and one
    Gram product of plain sums, dx conj(rows) @ rows.T, over its nonzero
    columns (_support).  The rows are refused unless each is resolved on the
    whole grid (_resolved_window), where those sums converge exponentially.

    The row names the lowest (t, m, n) whose deviation is within P eps of
    the largest (P points): entries at rounding level tie, and rounding
    must not move the named place."""
    tol = DEFAULT_THRESHOLDS["orthonormality"]
    n_max = ctx.orthonormality_nmax
    grid = ctx.grid
    lower = np.tril_indices(n_max + 1, -1)
    spec = ctx.state(n_max)
    errs = []
    for t in ctx.times:
        # a contiguous copy: the product of the strided window raised the
        # peak RSS of a high-order pass by 0.9 MB
        [live] = _resolved_columns("orthonormality",
                                   state_window(spec, grid, t, range(n_max + 1)))
        err = np.abs(grid.dx * (np.conj(live) @ live.T) - np.eye(n_max + 1))
        err[lower] = -1.0  # each pair once, m <= n
        errs.append(err)
    by_t = np.argsort(ctx.times, kind="stable")
    errs = np.array(errs)[by_t]
    worst = float(np.max(errs))
    j, m, n = np.argwhere(errs >= worst - grid.points * np.finfo(float).eps)[0]
    return [CheckResult("orthonormality", {"m": int(m), "n": int(n), "t": ctx.times[by_t[j]]},
                        worst, tol)]


def _run_stationarity(ctx: SuiteContext, rows) -> list:
    """The drift of the closed-form block of ctx.ns of a constant mass (a
    CaldirolaKanai model at gamma = 0, period pi/w1), as check_stationarity
    measures it, from one stack over every probe time: for C = 1 nine
    probes over one period, each against the first; otherwise a pair
    (t, t + period) per t of the first three of ctx.times and the pair
    (0, half a period).  The stack lives on its slices' cutoff window
    (closed_form_window), whose outside columns are exact zeros, and each
    drift is a plain sum there (_max_drift)."""
    C = ctx.closed_form_C
    model = ctx.model
    if not isinstance(model, CaldirolaKanai) or model.gamma != 0.0 or C is None:
        raise ValueError("stationarity check applies to the constant-mass family")
    period = math.pi / model.w1
    if C == 1.0:
        probes = np.linspace(0.0, 2.0 * math.pi / model.w1, 9)
    else:
        probes = [s for t in ctx.times[:3] for s in (t, t + period)] + [0.0, 0.5 * period]
    stack = _closed_forms(ctx, probes)
    # a state the grid misses has no column in the window, and its drift
    # would read 0.0; Σ|psi|² from the float view makes no stack-sized temporary
    parts = stack.values.view(np.float64)
    _nondegenerate(np.einsum("...j,...j->...", parts, parts), "stationarity: ‖psi‖²",
                   f" on {ctx.grid.points} points", "its drift")

    def probe_drift(first, stop):  # of probes first + 1 .. stop - 1 from probe first
        return _max_drift(stack[first], stack[first + 1:stop])

    if C == 1.0:
        tol = DEFAULT_THRESHOLDS["stationarity"]
        return [CheckResult("stationarity", {"n": n, "C": C}, float(d), tol)
                for n, d in zip(ctx.ns, probe_drift(0, len(probes)))]
    tol_p = DEFAULT_THRESHOLDS["stationarity_period"]
    tol_c = DEFAULT_THRESHOLDS["stationarity_contrast"]
    *drifts, contrast = [probe_drift(j, j + 2) for j in range(0, len(probes), 2)]
    out = []
    for i, n in enumerate(ctx.ns):
        for t, drift in zip(ctx.times, drifts):
            out.append(CheckResult(
                "stationarity", {"n": n, "C": C, "t": t, "shift": "period"},
                float(drift[i]), tol_p,
            ))
        out.append(CheckResult(
            "stationarity", {"n": n, "C": C, "shift": "half_period"},
            float(contrast[i]), tol_c, op=">",
        ))
    return out


# each runner takes (ctx, rows); rows() is run_suite's shared window
_CHECK_RUNNERS = {
    "residual": _run_residual,
    "omega_constancy": _run_omega,
    "frequency_map": _run_frequency_map,
    "transform_chain": _run_transform_chain,
    "closed_form_agreement": _run_closed_form,
    "uncertainty": _run_uncertainty,
    "delta_equivalence": _run_delta_equivalence,
    "orthonormality": _run_orthonormality,
    "stationarity": _run_stationarity,
}

CHECK_NAMES = sorted(_CHECK_RUNNERS)


def run_suite(ctx: SuiteContext, checks) -> list:
    """Run the named checks; deterministic ordering by check name.

    `checks` is a list of check names; each check is judged against its
    DEFAULT_THRESHOLDS entries, which no caller can change.  Any other entry
    raises ValueError (a configuration error, not a failure).

    The window of ctx.ns at ctx.times is one kernel pass, made when a check
    first needs it, and only read, by the residual (stencil centre), the
    chain (direct state), uncertainty (driven state) and, undriven,
    closed-form agreement.  It lives for this call only: the next call
    evaluates it afresh.
    """
    for name in checks:
        if name not in CHECK_NAMES:  # a list: an unhashable entry is unknown too
            raise ValueError(
                f"unknown check {name!r}; available: {', '.join(CHECK_NAMES)}"
            )
    rows = functools.cache(
        lambda: state_window(ctx.state(max(ctx.ns)), ctx.grid, ctx.times, ctx.ns))
    results = []
    for name in sorted(checks):
        results.extend(_CHECK_RUNNERS[name](ctx, rows))
    return results


def report_json(results) -> str:
    return json.dumps([r.to_json() for r in results], indent=2, sort_keys=True) + "\n"
