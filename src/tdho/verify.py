"""Independent numerical certification of the constructed states.

Nothing here reuses the formulas being checked: time derivatives come from
fourth-order finite differencing of fresh field evaluations, spatial
derivatives from five-point stencils, observables from composite Simpson
quadrature (one weight vector: scipy's rule from 1.11 on, with its end
correction for an even number of samples).  Every check returns the
measured number next to the threshold it was judged against.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field as dataclass_field

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
    """Fourth-order second derivative (five-point stencil), zeroed edges."""
    out = np.zeros_like(values)
    out[2:-2] = (
        -30.0 * values[2:-2]
        + 16.0 * (values[3:-1] + values[1:-3])
        - (values[4:] + values[:-4])
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


def moments(g: GridFunction, hbar=None) -> MomentReport:
    """Position/momentum means and variances from the samples; <p^2> is
    -hbar^2 ∫psi* psi'' with the five-point stencil."""
    hbar = g.hbar if hbar is None else hbar
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


def _residual_once(field, model, x, t, dt, hbar):
    dx = x[1] - x[0]
    psi = np.asarray(field(x, t))
    f_p1 = np.asarray(field(x, t + dt))
    f_m1 = np.asarray(field(x, t - dt))
    f_p2 = np.asarray(field(x, t + 2 * dt))
    f_m2 = np.asarray(field(x, t - 2 * dt))
    dpsi_dt = (8.0 * (f_p1 - f_m1) - (f_p2 - f_m2)) / (12.0 * dt)
    M = float(model.mass(t))
    w2 = float(model.freq2(t))
    F = float(model.force_at(t))
    h_psi = (
        -(hbar * hbar) / (2.0 * M) * _d2(psi, dx)
        + (0.5 * M * w2 * x * x - x * F) * psi
    )
    h_norm = np.linalg.norm(h_psi)
    if not (np.isfinite(h_norm) and h_norm > 0.0):
        raise DegenerateStateError(
            f"‖H psi‖ = {h_norm} at t = {t} on {len(x)} points: the sampled "
            "state is zero or not finite, so its residual is undefined"
        )
    o_psi = 1j * hbar * dpsi_dt - h_psi
    return float(np.linalg.norm(o_psi) / h_norm)


def schrodinger_residual(field, model, grid, t, dt=None, hbar=None) -> ResidualReport:
    """Relative L2 residual ‖(i hbar ∂t - H) psi‖ / ‖H psi‖ at time t.

    The time derivative differences fresh analytic field evaluations at
    t ± dt, t ± 2dt (never stored samples), so the result certifies the
    formulas rather than the storage.  A second evaluation at (2dt, 2dx)
    yields the convergence-order estimate.
    """
    hbar = getattr(field, "hbar", 1.0) if hbar is None else hbar
    x = grid.xs() if isinstance(grid, Grid) else np.asarray(grid, dtype=float)
    if dt is None:
        dt = 1e-3 * 2.0 * math.pi / frequency_scale(model)
    model.check_domain(t - 2 * dt)
    model.check_domain(t + 2 * dt)
    fine = _residual_once(field, model, x, t, dt, hbar)
    coarse = _residual_once(field, model, x[::2], t, 2 * dt, hbar)
    order = math.log2(coarse / fine) if fine > 0 else float("inf")
    return ResidualReport(
        rel_l2_residual=fine,
        points=len(x),
        dx=float(x[1] - x[0]),
        dt=float(dt),
        residual_coarse=coarse,
        convergence_order_estimate=order,
    )


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------

def check_omega_constancy(basis, model=None, n_samples: int = 200) -> float:
    """Max relative drift of M (vdot u - udot v) across the domain."""
    model = basis.model if model is None else model
    ts = np.linspace(model.t_min, model.t_max, n_samples)
    vals = basis.omega_check(ts)
    return float(np.max(np.abs(vals - basis.omega)) / abs(basis.omega))


def check_transform_equivalence(
    model, basis, driven, n, t, grid, hbar: float = 1.0, exact: bool = False
) -> float:
    """Relative L2 distance between the operator chain and the direct state.

    The unit-mass eigenstate psi_n^0 (built over the companion basis
    sqrt(M)(u, v)) is pushed through U0_dagger and U_F on the grid and
    compared to the directly evaluated displaced state.
    """
    if driven is None:
        driven = null_driven(model)
    unit = reduced_basis(basis)
    spec0 = StateSpec(n, hbar, unit, unit.model)
    g0 = sample_on_grid(state_field(spec0), grid, t, attach_source=exact)
    g1 = apply_U0_dagger(model, t, g0)
    g2 = apply_UF(model, driven, t, g1)
    direct_spec = StateSpec(n, hbar, basis, model, driven)
    direct = np.asarray(state_field(direct_spec)(g2.x, t))
    direct_norm = np.linalg.norm(direct)
    if not (np.isfinite(direct_norm) and direct_norm > 0.0):
        raise DegenerateStateError(
            f"‖psi‖ = {direct_norm} at t = {t} on {len(direct)} points: the "
            "direct state is zero or not finite, so the chain distance is undefined"
        )
    return float(np.linalg.norm(g2.values - direct) / direct_norm)


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


@dataclass
class SuiteContext:
    """Prepared inputs one scenario's checks run against."""

    model: object
    basis: object
    driven: object | None
    ns: list
    times: list
    grid: Grid
    hbar: float = 1.0
    family_info: dict = dataclass_field(default_factory=dict)
    orthonormality_nmax: int = 8
    moment_points: int = 32768

    def state(self, n, driven=None) -> StateSpec:
        return StateSpec(n, self.hbar, self.basis,
                         self.model, driven if driven is not None else self.driven)

    def fine_grid(self) -> Grid:
        points = max(self.grid.points, self.moment_points)
        return Grid(self.grid.x_min, self.grid.x_max, points)


def _tol(overrides, key, name=None):
    name = key if name is None else name
    if overrides and key in overrides:
        return float(overrides[key])
    return DEFAULT_THRESHOLDS[name]


def _run_residual(ctx: SuiteContext, overrides) -> list:
    tol = _tol(overrides, "tolerance", "residual")
    out = []
    for n in ctx.ns:
        f = state_field(ctx.state(n))
        for t in ctx.times:
            rep = schrodinger_residual(f, ctx.model, ctx.grid, t, hbar=ctx.hbar)
            out.append(CheckResult(
                "residual", {"n": n, "t": t, "order": round(rep.convergence_order_estimate, 2)},
                rep.rel_l2_residual, tol,
            ))
    return out


def _run_omega(ctx: SuiteContext, overrides) -> list:
    tol = _tol(overrides, "tolerance", "omega_constancy")
    measured = check_omega_constancy(ctx.basis, ctx.model)
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
    tol_i = _tol(overrides, "tolerance", "transform_chain")
    tol_e = _tol(overrides, "tolerance_exact", "transform_chain_exact")
    out = []
    for n in ctx.ns:
        for t in ctx.times:
            for exact, tol, path in ((False, tol_i, "interp"), (True, tol_e, "exact")):
                d = check_transform_equivalence(
                    ctx.model, ctx.basis, ctx.driven, n, t, ctx.grid,
                    hbar=ctx.hbar, exact=exact,
                )
                out.append(CheckResult(
                    "transform_chain", {"n": n, "t": t, "path": path}, d, tol
                ))
    return out


def _closed_form_pair(ctx: SuiteContext, n):
    """(closed-form fn, general fn) both as (x, t) -> values."""
    info = ctx.family_info
    kind = info.get("kind")
    C = float(info.get("Ccoef", 1.0))
    hbar = ctx.hbar
    general = state_field(StateSpec(n, hbar, ctx.basis, ctx.model))
    if kind == "sho":
        w_s = ctx.model.w_s
        closed = lambda x, t: psi_sho(w_s, C, n, hbar, x, t)  # noqa: E731
    elif kind == "ck":
        m = ctx.model
        closed = lambda x, t: psi_ck(m.m, m.gamma, m.w1, C, n, hbar, x, t)  # noqa: E731
    elif kind == "lo":
        m = ctx.model
        closed = lambda x, t: psi_lo(  # noqa: E731
            m.m0, m.gamma, m.mu, m.nu, m.w_lo, C, n, hbar, x, t
        )
    else:
        raise ValueError(
            f"closed_form_agreement needs family_info kind sho/ck/lo, got {kind!r}"
        )
    return closed, general


def _run_closed_form(ctx: SuiteContext, overrides) -> list:
    tol = _tol(overrides, "tolerance", "closed_form_agreement")
    xs = ctx.grid.xs()
    out = []
    for n in ctx.ns:
        closed, general = _closed_form_pair(ctx, n)
        for t in ctx.times:
            d = phase_aligned_distance(
                np.asarray(closed(xs, t)), np.asarray(general(xs, t))
            )
            out.append(CheckResult(
                "closed_form_agreement", {"n": n, "t": t}, d, tol
            ))
    return out


def _run_uncertainty(ctx: SuiteContext, overrides) -> list:
    tol = _tol(overrides, "tolerance", "uncertainty")
    if ctx.driven is None:
        raise ValueError("uncertainty check needs a driven scenario")
    grid = ctx.fine_grid()
    out = []
    for n in ctx.ns:
        f_driven = state_field(ctx.state(n))
        f_plain = state_field(ctx.state(n, driven=null_driven(ctx.model)))
        for t in ctx.times:
            m_f = moments(sample_on_grid(f_driven, grid, t, attach_source=False))
            m_0 = moments(sample_on_grid(f_plain, grid, t, attach_source=False))
            xp, dxp, _ = (float(q) for q in ctx.driven.slice(t))
            p_shift = float(ctx.model.mass(t)) * dxp
            measured = max(
                abs(m_f.var_x - m_0.var_x),
                abs(m_f.var_p - m_0.var_p),
                abs(m_f.mean_x - m_0.mean_x - xp),
                abs(m_f.mean_p - m_0.mean_p - p_shift),
            )
            out.append(CheckResult("uncertainty", {"n": n, "t": t}, measured, tol))
    return out


def _v_window(ctx: SuiteContext):
    """Longest stretch of the domain where v keeps one sign, inset 15%."""
    m = ctx.model
    ts = np.linspace(m.t_min, m.t_max, 4096)
    v = np.asarray(ctx.basis.v(ts))
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
        delta_legacy(ctx.basis, ctx.driven, ctx.model, a, samples)
        - np.asarray(ctx.driven.delta(samples))
    )
    out = [CheckResult(
        "delta_equivalence", {"form": "legacy", "window": [a, b]},
        float(np.std(diffs)), tol,
    )]

    c = 0.5
    shifted = shift_particular(ctx.driven, ctx.basis, c, ctx.model)
    ts = np.linspace(ctx.model.t_min, ctx.model.t_max, 100)
    M = np.asarray(ctx.model.mass(ts), dtype=float)
    u, du = ctx.basis.slice(ts)[:2]
    xp, _, delta = ctx.driven.slice(ts)
    g = np.asarray(shifted.delta(ts)) - delta + c * M * du * (xp + 0.5 * c * u)
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
        window, rows = state_block(spec, xs, t)
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
    info = ctx.family_info
    if info.get("kind") != "sho":
        raise ValueError("stationarity check applies to the constant-mass family")
    C = float(info.get("Ccoef", 1.0))
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
