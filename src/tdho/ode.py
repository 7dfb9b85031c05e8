"""DOP853-form dense output, and a port of scipy's DOP853 march.

`DenseSolution` reads steps in the dense-output form of DOP853 (Hairer,
Nørsett & Wanner, *Solving ODEs I*, §II.5 and §II.10): tdho.classical's
bases and paths.  `solve_ode` repeats scipy's DOP853 march (`solve_ivp`,
dense_output=True, no max_step) operation for operation, so every knot and
dense-output row is bit-identical to scipy's; no trajectory solve calls it.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from . import _dop853 as tableau

__all__ = ["DenseSolution", "ODEError", "solve_ode"]

# step control of scipy's RungeKutta solvers
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10
ERROR_EXPONENT = -1 / 8  # -1 / (error estimator order + 1)
RTOL_MIN = 100 * np.finfo(float).eps
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


class ODEError(RuntimeError):
    pass


class DenseSolution:
    """Piecewise DOP853 dense output over steps sorted by time.

    Step i is (t_old[i], h[i], y_old[i], rows[:, i]): its start, signed
    length, start value and the 7 rows F of its polynomial, rows (7, steps,
    components) so that each row's gather is one contiguous take.  A query
    picks its step by one searchsorted (a time on a knot takes the earlier
    step, as scipy's OdeSolution) and evaluates _dop853_poly, as scipy does,
    at all query times at once: a scalar time gives shape (ncomponents,),
    an array of times (len(t), ncomponents)."""

    def __init__(self, ts, t_old, h, y_old, rows):
        self.ts = np.asarray(ts, dtype=np.float64)
        self.t_min = float(self.ts[0])
        self.t_max = float(self.ts[-1])
        self._slack = 1e-9 * max(self.t_max - self.t_min, 1.0)
        self._t_old, self._h, self._y_old, self._rows = t_old, h, y_old, rows

    @property
    def ncomponents(self):
        return self._y_old.shape[1]

    def __call__(self, t):
        t = np.asarray(t, dtype=np.float64)
        flat = t.ravel()
        if flat.size:
            self._check_span(flat.min(), flat.max())
        k = np.clip(np.searchsorted(self.ts, flat, side="left") - 1, 0, len(self._h) - 1)
        x = ((flat - self._t_old[k]) / self._h[k])[:, None]
        # F gathered one row at a time: memory stays at (points, components)
        y = _dop853_poly(lambda j: self._rows[j].take(k, 0), x) + self._y_old.take(k, 0)
        return y.reshape(t.shape + (self.ncomponents,))

    def _check_span(self, lo, hi):
        if lo < self.t_min - self._slack or hi > self.t_max + self._slack:
            raise ODEError(
                f"evaluation time outside integrated span "
                f"[{self.t_min}, {self.t_max}]"
            )


def _dop853_poly(row, x):
    """The dense-output polynomial of one DOP853 step at x = (t - t_old)/h,
    without y_old, as scipy's Dop853DenseOutput evaluates it: from row(6)
    down to row(0), multiplying by x and 1 - x in turn."""
    w = 1 - x
    return ((((((((0.0 + row(6)) * x + row(5)) * w + row(4)) * x + row(3)) * w
              + row(2)) * x + row(1)) * w + row(0)) * x)


def _rms(x):
    # math.sqrt(x.dot(x)) is np.linalg.norm of a 1-D float array, undispatched
    return math.sqrt(x.dot(x)) / x.size ** 0.5


def _initial_step(fun, t0, y0, f0, t_end, direction, rtol, atol):
    """The starting step of Hairer §II.4, as scipy's select_initial_step
    computes it for an error estimator of order 7 and no step cap."""
    interval_length = abs(t_end - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0 * direction, y0 + h0 * direction * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -ERROR_EXPONENT
    return min(100 * h0, h1, interval_length)


def _error_norm(KT, h, scale):
    """The step's RMS error estimate from the transposed stages KT, the
    5th-order estimate damped by the 3rd-order one (Hairer §II.10)."""
    err5 = KT.dot(tableau.E5) / scale
    err3 = KT.dot(tableau.E3) / scale
    err5_norm_2 = math.sqrt(err5.dot(err5)) ** 2
    err3_norm_2 = math.sqrt(err3.dot(err3)) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return float(abs(h) * err5_norm_2 / np.sqrt(denom * len(scale)))


def _march(f, t0, y0, t_end, rtol, atol):
    """DOP853 from t0 to t_end; returns (ts, steps) in time order, each
    step (t_old, h, y_old, F)."""
    def fail(reason):
        return ODEError(f"integration from t={t0} towards t={t_end} failed: {reason}")

    t, t_stop, y = float(t0), float(t_end), y0
    f_old = f(t, y)
    if t == t_stop:
        # one constant step: the zero polynomial about y0
        return [t, t], [(t, 1.0, y, np.zeros((7, len(y))))]
    direction = float(np.sign(t_stop - t))
    h_abs = float(_initial_step(f, t, y, f_old, t_stop, direction, rtol, atol))
    # the 12 stages, the end-point slope, then the 3 dense-output stages
    K = np.empty((len(tableau.A), len(y)))
    n = tableau.N_STAGES
    # per stage s >= 1, hoisted out of the steps: K's row s, the view of the
    # stages before it, its tableau row and its node
    stages = [(s, K[:s].T, tableau.A[s, :s], float(tableau.C[s]))
              for s in range(1, len(K))]
    step_T, error_T = K[:n].T, K[:n + 1].T  # the stages the step and its error weigh
    step_stages, dense_stages = stages[:n - 1], stages[n:]
    ts, steps = [t], []
    while direction * (t - t_stop) < 0:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise fail(TOO_SMALL_STEP)
            t_new = t + h_abs * direction
            if direction * (t_new - t_stop) > 0:
                t_new = t_stop
            h = t_new - t
            h_abs = abs(h)
            K[0] = f_old
            for s, before, a, c in step_stages:
                K[s] = f(t + c * h, y + before.dot(a) * h)
            y_new = y + h * step_T.dot(tableau.B)
            f_new = K[n] = f(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _error_norm(error_T, h, scale)
            if error_norm < 1:
                factor = (MAX_FACTOR if error_norm == 0 else
                          min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
        for s, before, a, c in dense_stages:
            K[s] = f(t + c * h, y + before.dot(a) * h)
        F = np.empty((7, len(y)))
        delta_y = y_new - y
        F[0] = delta_y
        F[1] = h * f_old - delta_y
        F[2] = 2 * delta_y - h * (f_new + f_old)
        F[3:] = h * tableau.D.dot(K)
        steps.append((t, h, y, F))
        t, y, f_old = t_new, y_new, f_new
        ts.append(t)
    if not np.all(np.isfinite(y)):
        raise fail("the end state is not finite")
    if direction < 0:
        return ts[::-1], steps[::-1]
    return ts, steps


def solve_ode(f, t0, y0, t_lo, t_hi, rtol=1e-10, atol=1e-12):
    """Integrate dy/dt = f(t, y) with initial data y(t0) = y0 over [t_lo, t_hi].

    f returns a float64 array of y's shape.  t0 may sit anywhere inside the
    span; integration marches in both directions from it.  Returns a
    DenseSolution.
    """
    if not (t_lo <= t0 <= t_hi):
        raise ODEError(f"t0={t0} outside requested span [{t_lo}, {t_hi}]")
    y0 = np.asarray(y0, dtype=np.float64)
    # the step control never terminates on a non-finite initial slope
    if not np.all(np.isfinite(f(t0, y0))):
        raise ODEError(f"right-hand side is not finite at t0={t0}")
    if rtol < RTOL_MIN:
        warnings.warn("At least one element of `rtol` is too small. "
                      f"Setting `rtol = np.maximum(rtol, {RTOL_MIN})`.", stacklevel=2)
        rtol = RTOL_MIN
    parts = []
    if t_lo < t0:
        parts.append(_march(f, t0, y0, t_lo, rtol, atol))
    if t_hi > t0 or not parts:
        parts.append(_march(f, t0, y0, t_hi, rtol, atol))
    ts = np.concatenate([parts[0][0]] + [p[0][1:] for p in parts[1:]])
    t_old, h, y_old, F = zip(*(s for p in parts for s in p[1]))
    return DenseSolution(ts, np.array(t_old), np.array(h), np.array(y_old), np.stack(F, axis=1))
