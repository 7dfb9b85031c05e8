"""Independent numerical certification of the constructed states.

Nothing here reuses the formulas being checked: time derivatives come from
fourth-order finite differencing of fresh state evaluations, spatial
derivatives from five-point stencils, observables from composite Simpson
quadrature (one weight vector: scipy's rule from 1.11 on, with its end
correction for an even number of samples).  Every check returns the
measured number next to the threshold it was judged against.

The suite's checks that read several orders of one state at one time (the
residual at each of its seven stencil times, the transform chain, the
closed-form agreement, the uncertainty moments and orthonormality) take
them from one state block per time: one recurrence gives every order the
scenario asks for.  The oracles they are compared against (the closed
forms, the chain's exact re-evaluations, delta_legacy) stay per-order calls.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .classical import delta_legacy, null_driven, reduced_basis, shift_particular
from .models import (
    CaldirolaKanai,
    LoDampedPulsating,
    UnitMassSHO,
    frequency_scale,
    reduced_frequency_squared,
)
from .states import StateSpec, psi_ck, psi_lo, psi_sho, state_block, state_field
from .transforms import (
    Grid,
    GridFunction,
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
    "CHECK_NAMES",
]


class GridMismatchError(ValueError):
    """Two grid functions do not share the same sample points."""


class DegenerateStateError(ValueError):
    """A sampled state is zero or not finite, so a measure relative to it
    (residual, chain distance, closed-form distance) is undefined."""


# ---------------------------------------------------------------------------
# finite-difference stencils (fourth order)
# ---------------------------------------------------------------------------

def _d1(values: np.ndarray, dx: float) -> np.ndarray:
    """Fourth-order first derivative; the two samples at each edge are left
    zero (compliant grids are negligible there)."""
    out = np.zeros_like(values)
    out[2:-2] = (
        8.0 * (values[3:-1] - values[1:-3]) - (values[4:] - values[:-4])
    ) / (12.0 * dx)
    return out


def _d2(values: np.ndarray, dx: float) -> np.ndarray:
    """Fourth-order second derivative (five-point stencil) along the last
    axis, zeroed edges."""
    out = np.zeros_like(values)
    out[..., 2:-2] = (
        -30.0 * values[..., 2:-2]
        + 16.0 * (values[..., 3:-1] + values[..., 1:-3])
        - (values[..., 4:] + values[..., :-4])
    ) / (12.0 * dx * dx)
    return out


# ---------------------------------------------------------------------------
# quadrature observables
# ---------------------------------------------------------------------------

def _check_same_grid(g1: GridFunction, g2: GridFunction):
    if (
        len(g1.values) != len(g2.values)
        or abs(g1.x_min - g2.x_min) > 1e-12 * max(1.0, abs(g1.x_min))
        or abs(g1.dx - g2.dx) > 1e-12 * g1.dx
    ):
        raise GridMismatchError("grid functions are sampled on different grids")


@functools.lru_cache(maxsize=8)
def _unit_simpson_weights(points: int) -> np.ndarray:
    """Weights w with ∫ y dx ≈ dx * (w @ y) over `points` samples: composite
    Simpson, plus scipy's correction for the last interval (Cartwright)
    when `points` is even.  Read-only, as the cache shares it."""
    if points < 3:
        raise ValueError("Simpson's rule needs at least 3 samples")
    w = np.zeros(points)
    odd = points - 1 + points % 2  # samples under the plain composite rule
    w[1:odd - 1:2] = 4.0 / 3.0
    w[2:odd - 1:2] = 2.0 / 3.0
    w[0] = w[odd - 1] = 1.0 / 3.0
    if odd < points:
        w[-3:] += (-1.0 / 12.0, 8.0 / 12.0, 5.0 / 12.0)
    w.setflags(write=False)
    return w


def simpson(y, dx: float):
    """Composite Simpson integral of real samples y spaced dx apart, by the
    rule of scipy.integrate.simpson from scipy 1.11 on."""
    y = np.asarray(y)
    return dx * (_unit_simpson_weights(len(y)) @ y)


def norm(g: GridFunction) -> float:
    """L2 norm sqrt(∫|psi|^2 dx) by composite Simpson quadrature."""
    return math.sqrt(float(simpson(np.abs(g.values) ** 2, dx=g.dx)))


def inner_product(g1: GridFunction, g2: GridFunction) -> complex:
    """⟨g1|g2⟩ = ∫ conj(g1) g2 dx by composite Simpson quadrature."""
    _check_same_grid(g1, g2)
    integrand = np.conj(g1.values) * g2.values
    return complex(
        simpson(integrand.real, dx=g1.dx) + 1j * simpson(integrand.imag, dx=g1.dx)
    )


@dataclass(frozen=True)
class MomentReport:
    mean_x: float
    var_x: float
    mean_p: float
    var_p: float
    t: float


def moments(g: GridFunction) -> MomentReport:
    """Position/momentum means and variances from the samples; <p^2> is
    -hbar^2 ∫psi* psi'' with the five-point stencil (hbar of g)."""
    hbar = g.hbar
    x = g.x
    density = np.abs(g.values) ** 2
    n2 = float(simpson(density, dx=g.dx))
    mean_x = float(simpson(x * density, dx=g.dx)) / n2
    var_x = float(simpson((x - mean_x) ** 2 * density, dx=g.dx)) / n2
    d1 = _d1(g.values, g.dx)
    mean_p = hbar * float(simpson((np.conj(g.values) * d1).imag, dx=g.dx)) / n2
    d2 = _d2(g.values, g.dx)
    p2 = -hbar * hbar * float(simpson((np.conj(g.values) * d2).real, dx=g.dx)) / n2
    return MomentReport(mean_x, var_x, mean_p, p2 - mean_p**2, g.t)


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


def _residual_once(model, x, t, dt, hbar, psi, f_p1, f_m1, f_p2, f_m2):
    """Relative L2 residuals of the rows (..., len(x)) sampled at t, t ± dt
    and t ± 2dt, one per row."""
    dx = x[1] - x[0]
    dpsi_dt = (8.0 * (f_p1 - f_m1) - (f_p2 - f_m2)) / (12.0 * dt)
    M = float(model.mass(t))
    w2 = float(model.freq2(t))
    F = float(model.force_at(t))
    h_psi = (
        -(hbar * hbar) / (2.0 * M) * _d2(psi, dx)
        + (0.5 * M * w2 * x * x - x * F) * psi
    )
    h_norm = np.linalg.norm(h_psi, axis=-1)
    bad = ~(np.isfinite(h_norm) & (h_norm > 0.0))
    if bad.any():
        raise DegenerateStateError(
            f"‖H psi‖ = {h_norm[bad].flat[0]} at t = {t} on {len(x)} points: the "
            "sampled state is zero or not finite, so its residual is undefined"
        )
    o_psi = 1j * hbar * dpsi_dt - h_psi
    return np.linalg.norm(o_psi, axis=-1) / h_norm


def _residual_pair(model, x, t, dt, hbar, at):
    """(fine, coarse) residuals of the rows at[k], sampled at t + k dt on x
    for each k in _STENCIL_STEPS.  The coarse stencil steps (2dt, 2dx): it
    reads every other sample at t, t ± 2dt, t ± 4dt."""
    fine = _residual_once(model, x, t, dt, hbar, at[0], at[1], at[-1], at[2], at[-2])
    coarse = _residual_once(model, x[::2], t, 2 * dt, hbar,
                            *(at[k][..., ::2] for k in (0, 2, -2, 4, -4)))
    return fine, coarse


def _order(fine, coarse) -> float:
    """Convergence-order estimate log2(coarse / fine) of a (2dt, 2dx) step."""
    return math.log2(coarse / fine) if fine > 0 else float("inf")


def schrodinger_residual(field, model, grid, t, dt=None, hbar=None) -> ResidualReport:
    """Relative L2 residual ‖(i hbar ∂t - H) psi‖ / ‖H psi‖ at time t.

    The time derivative differences fresh analytic field evaluations at
    t ± dt, t ± 2dt (never stored samples), so the result certifies the
    formulas rather than the storage.  A second stencil at (2dt, 2dx), on
    every other sample at t, t ± 2dt, t ± 4dt, yields the convergence-order
    estimate.
    """
    hbar = getattr(field, "hbar", 1.0) if hbar is None else hbar
    x = grid.xs() if isinstance(grid, Grid) else np.asarray(grid, dtype=float)
    if dt is None:
        dt = _residual_dt(model)
    model.check_domain(t - 4 * dt)
    model.check_domain(t + 4 * dt)
    at = {k: np.asarray(field(x, t + k * dt)) for k in _STENCIL_STEPS}
    fine, coarse = (float(r) for r in _residual_pair(model, x, t, dt, hbar, at))
    return ResidualReport(
        rel_l2_residual=fine,
        points=len(x),
        dx=float(x[1] - x[0]),
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


def _chain_distance(driven, t, g0: GridFunction, direct) -> float:
    """Relative L2 distance between U_F U0_dagger g0 and the direct samples
    on g0's grid."""
    model = driven.model
    g1 = apply_U0_dagger(model, t, g0)
    g2 = apply_UF(model, driven, t, g1)
    direct_norm = np.linalg.norm(direct)
    if not (np.isfinite(direct_norm) and direct_norm > 0.0):
        raise DegenerateStateError(
            f"‖psi‖ = {direct_norm} at t = {t} on {len(direct)} points: the "
            "direct state is zero or not finite, so the chain distance is undefined"
        )
    return float(np.linalg.norm(g2.values - direct) / direct_norm)


def check_transform_equivalence(
    basis, driven, n, t, grid, hbar: float = 1.0, exact: bool = False
) -> float:
    """Relative L2 distance between the operator chain and the direct state.

    The unit-mass eigenstate psi_n^0 (built over the companion basis
    sqrt(M)(u, v)) is pushed through U0_dagger and U_F on the grid and
    compared to the directly evaluated displaced state.
    """
    if driven is None:
        driven = null_driven(basis.model)
    spec0 = StateSpec(n, hbar, reduced_basis(basis))
    g0 = sample_on_grid(state_field(spec0), grid, t, attach_source=exact)
    direct = np.asarray(state_field(StateSpec(n, hbar, basis, driven))(g0.x, t))
    return _chain_distance(driven, t, g0, direct)


def check_stationarity(field, grid, times) -> float:
    """Max L1 distance of |psi|^2 from its value at times[0]."""
    x = grid.xs() if isinstance(grid, Grid) else np.asarray(grid, dtype=float)
    dx = x[1] - x[0]
    times = np.asarray(times, dtype=float)
    base = np.abs(np.asarray(field(x, times[0]))) ** 2
    worst = 0.0
    for t in times[1:]:
        dens = np.abs(np.asarray(field(x, t))) ** 2
        worst = max(worst, float(simpson(np.abs(dens - base), dx=dx)))
    return worst


def phase_aligned_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Max pointwise |a - e^{i phi} b| / max|a| with a single best phase."""
    a = np.asarray(a)
    b = np.asarray(b)
    peak = np.max(np.abs(a))
    if not (np.isfinite(peak) and peak > 0.0):
        raise DegenerateStateError(
            f"max|a| = {peak}: the reference samples are zero or not finite, "
            "so the relative distance is undefined"
        )
    overlap = np.vdot(b, a)
    phi = overlap / abs(overlap) if overlap != 0 else 1.0
    return float(np.max(np.abs(a - phi * b)) / peak)


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------

DEFAULT_THRESHOLDS = {
    "residual": 1e-6,
    "omega_constancy": 1e-8,
    "frequency_map": 1e-12,
    "transform_chain": 1e-6,
    "transform_chain_exact": 1e-10,
    "closed_form_agreement": 1e-8,
    "uncertainty": 1e-8,
    "delta_equivalence": 1e-8,
    "orthonormality": 1e-8,
    "stationarity": 1e-9,
    "stationarity_period": 1e-8,
    "stationarity_contrast": 1e-2,
}


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


# samples of the fine grid that moments and orthonormality integrate on
_MOMENT_POINTS = 32768


@dataclass
class SuiteContext:
    """Prepared inputs one scenario's checks run against.

    `closed_form_C` is the pulsation parameter C of the closed-form state of
    the model's family (None: no closed form to compare with).
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

    def fine_grid(self) -> Grid:
        points = max(self.grid.points, _MOMENT_POINTS)
        return Grid(self.grid.x_min, self.grid.x_max, points)


def _tol(overrides, key, name=None):
    name = key if name is None else name
    if overrides and key in overrides:
        return float(overrides[key])
    return DEFAULT_THRESHOLDS[name]


def _grid_rows(spec: StateSpec, xs, t, orders) -> np.ndarray:
    """state_block's rows of the given orders on the whole grid xs."""
    window, rows = state_block(spec, xs, t, orders)
    full = np.zeros((len(rows), len(xs)), dtype=np.complex128)
    full[:, window] = rows
    return full


def _n_then_t(ctx: SuiteContext, per_t):
    """(n, t, per_t[j][i]) in report order, n outer and t inner, where
    per_t[j][i] belongs to order ctx.ns[i] at time ctx.times[j]."""
    for i, n in enumerate(ctx.ns):
        for j, t in enumerate(ctx.times):
            yield n, t, per_t[j][i]


def _run_residual(ctx: SuiteContext, overrides) -> list:
    """Fine and coarse residuals of every order, from one block of ctx.ns at
    each of the seven stencil times of each t."""
    tol = _tol(overrides, "tolerance", "residual")
    model = ctx.model
    dt = _residual_dt(model)
    xs = ctx.grid.xs()
    spec = ctx.state(max(ctx.ns))
    per_t = []
    for t in ctx.times:
        at = {k: _grid_rows(spec, xs, t + k * dt, ctx.ns) for k in _STENCIL_STEPS}
        fine, coarse = _residual_pair(model, xs, t, dt, ctx.hbar, at)
        per_t.append([(float(f), float(c)) for f, c in zip(fine, coarse)])
    return [CheckResult("residual",
                        {"n": n, "t": t, "order": round(_order(fine, coarse), 2)},
                        fine, tol)
            for n, t, (fine, coarse) in _n_then_t(ctx, per_t)]


def _run_omega(ctx: SuiteContext, overrides) -> list:
    tol = _tol(overrides, "tolerance", "omega_constancy")
    measured = check_omega_constancy(ctx.basis)
    return [CheckResult("omega_constancy", {}, measured, tol)]


def _run_frequency_map(ctx: SuiteContext, overrides) -> list:
    tol = _tol(overrides, "tolerance", "frequency_map")
    m = ctx.model
    ts = np.linspace(m.t_min, m.t_max, 512)
    w02 = np.asarray(reduced_frequency_squared(m, ts), dtype=float)
    if isinstance(m, CaldirolaKanai):
        target = m.w1**2 - 0.25 * m.gamma**2
    elif isinstance(m, LoDampedPulsating):
        target = m.w_lo**2
    elif isinstance(m, UnitMassSHO):
        target = m.w_s**2
    else:
        target = float(np.mean(w02))
    measured = float(np.max(np.abs(w02 - target)))
    return [CheckResult("frequency_map", {"target": target}, measured, tol)]


def _run_transform_chain(ctx: SuiteContext, overrides) -> list:
    """Both chain paths of every order from one block of the companion state
    (g0, shared by the paths) and one of the direct state per t; the exact
    path's re-evaluations stay per-order calls."""
    tol_i = _tol(overrides, "tolerance", "transform_chain")
    tol_e = _tol(overrides, "tolerance_exact", "transform_chain_exact")
    driven = ctx.driven if ctx.driven is not None else null_driven(ctx.model)
    unit = reduced_basis(ctx.basis)
    n_top = max(ctx.ns)
    companion = StateSpec(n_top, ctx.hbar, unit)
    direct_spec = StateSpec(n_top, ctx.hbar, ctx.basis, driven)
    sources = [state_field(StateSpec(n, ctx.hbar, unit)) for n in ctx.ns]
    grid = ctx.grid
    xs = grid.xs()
    per_t = []
    for t in ctx.times:
        g0_rows = _grid_rows(companion, xs, t, ctx.ns)
        direct_rows = _grid_rows(direct_spec, xs, t, ctx.ns)
        pairs = []
        for field0, g0_values, direct in zip(sources, g0_rows, direct_rows):
            g0 = GridFunction(grid.x_min, grid.dx, g0_values, t, ctx.hbar)
            g0_exact = g0._with(g0_values, functools.partial(field0, t=t))
            pairs.append((_chain_distance(driven, t, g0, direct),
                          _chain_distance(driven, t, g0_exact, direct)))
        per_t.append(pairs)
    out = []
    for n, t, (interp, exact) in _n_then_t(ctx, per_t):
        out.append(CheckResult(
            "transform_chain", {"n": n, "t": t, "path": "interp"}, interp, tol_i))
        out.append(CheckResult(
            "transform_chain", {"n": n, "t": t, "path": "exact"}, exact, tol_e))
    return out


def _closed_form(ctx: SuiteContext):
    """The closed-form state of the model's family as (n, x, t) -> values."""
    m, C, hbar = ctx.model, ctx.closed_form_C, ctx.hbar
    if C is None:
        raise ValueError("closed_form_agreement needs the closed-form C of the scenario")
    if isinstance(m, UnitMassSHO):
        return lambda n, x, t: psi_sho(m.w_s, C, n, hbar, x, t)
    if isinstance(m, CaldirolaKanai):
        return lambda n, x, t: psi_ck(m.m, m.gamma, m.w1, C, n, hbar, x, t)
    if isinstance(m, LoDampedPulsating):
        return lambda n, x, t: psi_lo(m.m0, m.gamma, m.mu, m.nu, m.w_lo, C, n, hbar, x, t)
    raise ValueError(f"closed_form_agreement has no closed form for {type(m).__name__}")


def _run_closed_form(ctx: SuiteContext, overrides) -> list:
    """Each closed form (a per-order oracle call) against the general state
    read from one block of ctx.ns per t."""
    tol = _tol(overrides, "tolerance", "closed_form_agreement")
    closed = _closed_form(ctx)
    general = StateSpec(max(ctx.ns), ctx.hbar, ctx.basis)
    xs = ctx.grid.xs()
    per_t = []
    for t in ctx.times:
        rows = _grid_rows(general, xs, t, ctx.ns)
        per_t.append([phase_aligned_distance(np.asarray(closed(n, xs, t)), row)
                      for n, row in zip(ctx.ns, rows)])
    return [CheckResult("closed_form_agreement", {"n": n, "t": t}, d, tol)
            for n, t, d in _n_then_t(ctx, per_t)]


def _block_moments(spec: StateSpec, grid: Grid, t, orders) -> list:
    """moments of each order at t, read from one block; the block is freed
    on return, so callers hold one at a time."""
    window, rows = state_block(spec, grid.xs(), t, orders)
    out = []
    for row in rows:
        values = np.zeros(grid.points, dtype=np.complex128)
        values[window] = row
        out.append(moments(GridFunction(grid.x_min, grid.dx, values, t, spec.hbar)))
    return out


def _run_uncertainty(ctx: SuiteContext, overrides) -> list:
    tol = _tol(overrides, "tolerance", "uncertainty")
    if ctx.driven is None:
        raise ValueError("uncertainty check needs a driven scenario")
    grid = ctx.fine_grid()
    n_top = max(ctx.ns)
    driven_spec = ctx.state(n_top)
    plain_spec = ctx.state(n_top, driven=null_driven(ctx.model))
    per_t = []
    for t in ctx.times:
        m_driven = _block_moments(driven_spec, grid, t, ctx.ns)
        m_plain = _block_moments(plain_spec, grid, t, ctx.ns)
        xp, dxp, _ = (float(q) for q in ctx.driven.slice(t))
        p_shift = float(ctx.model.mass(t)) * dxp
        per_t.append([
            max(
                abs(m_f.var_x - m_0.var_x),
                abs(m_f.var_p - m_0.var_p),
                abs(m_f.mean_x - m_0.mean_x - xp),
                abs(m_f.mean_p - m_0.mean_p - p_shift),
            )
            for m_f, m_0 in zip(m_driven, m_plain)
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


def _run_delta_equivalence(ctx: SuiteContext, overrides) -> list:
    tol = _tol(overrides, "tolerance", "delta_equivalence")
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


_GRAM_COLUMNS = 4096


def _run_orthonormality(ctx: SuiteContext, overrides) -> list:
    """max |<psi_m|psi_n> - delta_mn| over m <= n <= nmax, from one block of
    orders per time and one Simpson-weighted Gram product."""
    tol = _tol(overrides, "tolerance", "orthonormality")
    n_max = ctx.orthonormality_nmax
    grid = ctx.fine_grid()
    xs = grid.xs()
    weights = _unit_simpson_weights(grid.points)
    lower = np.tril_indices(n_max + 1, -1)
    spec = ctx.state(n_max)
    worst = 0.0
    worst_at = {}
    for t in ctx.times:
        window, rows = state_block(spec, xs, t, range(n_max + 1))
        w = weights[window]
        gram = np.zeros((n_max + 1, n_max + 1), dtype=np.complex128)
        # column blocks keep the weighted conjugate copy small
        for lo in range(0, rows.shape[1], _GRAM_COLUMNS):
            part = rows[:, lo:lo + _GRAM_COLUMNS]
            gram += (np.conj(part) * w[lo:lo + _GRAM_COLUMNS]) @ part.T
        gram *= grid.dx
        err = np.abs(gram - np.eye(n_max + 1))
        err[lower] = -1.0  # each pair once, m <= n
        m, n = np.unravel_index(np.argmax(err), err.shape)
        if err[m, n] > worst:
            worst = float(err[m, n])
            worst_at = {"m": int(m), "n": int(n), "t": t}
    return [CheckResult("orthonormality", worst_at, worst, tol)]


def _run_stationarity(ctx: SuiteContext, overrides) -> list:
    C = ctx.closed_form_C
    if not isinstance(ctx.model, UnitMassSHO) or C is None:
        raise ValueError("stationarity check applies to the constant-mass family")
    w_s = ctx.model.w_s
    xs = ctx.grid.xs()
    out = []
    for n in ctx.ns:
        field = lambda x, t: psi_sho(w_s, C, n, ctx.hbar, x, t)  # noqa: E731
        if C == 1.0:
            tol = _tol(overrides, "tolerance", "stationarity")
            probe = np.linspace(0.0, 2.0 * math.pi / w_s, 9)
            measured = check_stationarity(field, xs, probe)
            out.append(CheckResult("stationarity", {"n": n, "C": C}, measured, tol))
        else:
            tol_p = _tol(overrides, "tolerance", "stationarity_period")
            tol_c = _tol(overrides, "tolerance_contrast", "stationarity_contrast")
            period = math.pi / w_s
            for t in ctx.times[:3]:
                measured = check_stationarity(field, xs, [t, t + period])
                out.append(CheckResult(
                    "stationarity", {"n": n, "C": C, "t": t, "shift": "period"},
                    measured, tol_p,
                ))
            contrast = check_stationarity(field, xs, [0.0, 0.5 * period])
            out.append(CheckResult(
                "stationarity", {"n": n, "C": C, "shift": "half_period"},
                contrast, tol_c, op=">",
            ))
    return out


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

    `checks` is a list of names or {"name": ..., "tolerance": ...} dicts.
    Unknown names raise ValueError (a configuration error, not a failure).
    """
    normalized = []
    for c in checks:
        if isinstance(c, str):
            normalized.append((c, {}))
        else:
            normalized.append((c["name"], {k: v for k, v in c.items() if k != "name"}))
    for name, _ in normalized:
        if name not in _CHECK_RUNNERS:
            raise ValueError(
                f"unknown check {name!r}; available: {', '.join(CHECK_NAMES)}"
            )
    results = []
    for name, overrides in sorted(normalized, key=lambda c: c[0]):
        results.extend(_CHECK_RUNNERS[name](ctx, overrides))
    return results


def report_json(results) -> str:
    return json.dumps([r.to_json() for r in results], indent=2, sort_keys=True) + "\n"
