"""Two-sided DOP853 integration with one dense evaluator.

scipy's DOP853 (Hairer, Nørsett & Wanner, *Solving ODEs I*) marches
from t0 to each end of the requested span; its 7th-order dense output is as
accurate between steps as at them, so no step cap is needed.  The two
marches are joined into one piecewise evaluator over the whole span.
"""

from __future__ import annotations

import bisect

import numpy as np

__all__ = ["DenseSolution", "ODEError", "solve_ode"]


class ODEError(RuntimeError):
    pass


class DenseSolution:
    """Piecewise DOP853 dense output over the accepted steps, sorted by time.

    The interpolants of every step are stacked into arrays once: step start
    t_old, signed length h, start value y_old and the 7 rows F of the dense
    output polynomial.  A query picks its step with one searchsorted (the
    rule of scipy's OdeSolution: a time on a knot takes the earlier step)
    and evaluates scipy's Horner recurrence

        y = (((F6 x + F5)(1-x) + F4) x + ... + F0) x + y_old,  x = (t - t_old)/h

    in numpy over all query times at once, so the values are bit-identical
    to scipy's.  A scalar time gives shape (ncomponents,), an array of
    times gives (len(t), ncomponents).
    """

    def __init__(self, ts, interpolants):
        self.ts = np.asarray(ts, dtype=np.float64)
        self.t_min = float(self.ts[0])
        self.t_max = float(self.ts[-1])
        self._slack = 1e-9 * max(self.t_max - self.t_min, 1.0)
        # a degenerate span has one constant interpolant: the zero
        # polynomial about its value
        steps = [(i.t_old, i.h, i.y_old, i.F) if hasattr(i, "F")
                 else (i.t_old, 1.0, i.value, np.zeros((7, len(i.value))))
                 for i in interpolants]
        self._t_old = np.array([s[0] for s in steps], dtype=np.float64)
        self._h = np.array([s[1] for s in steps], dtype=np.float64)
        self._y_old = np.array([s[2] for s in steps], dtype=np.float64)
        self._F = np.array([s[3] for s in steps], dtype=np.float64)
        self._knots = self.ts.tolist()

    @property
    def ncomponents(self):
        return self._y_old.shape[1]

    def __call__(self, t):
        t = np.asarray(t, dtype=np.float64)
        if t.ndim == 0:
            return self._at(float(t))
        flat = t.ravel()
        if flat.size:
            self._check_span(flat.min(), flat.max())
        k = np.clip(np.searchsorted(self.ts, flat, side="left") - 1, 0, len(self._h) - 1)
        x = ((flat - self._t_old[k]) / self._h[k])[:, None]
        # F gathered one row at a time: memory stays at (points, components)
        y = _dop853_poly(lambda j: self._F[k, j], x) + self._y_old[k]
        return y.reshape(t.shape + (self.ncomponents,))

    def _at(self, t):
        """Scalar fast path: the same recurrence on Python floats."""
        self._check_span(t, t)
        k = min(max(bisect.bisect_left(self._knots, t) - 1, 0), len(self._h) - 1)
        x = (t - float(self._t_old[k])) / float(self._h[k])
        return np.array([_dop853_poly(f.__getitem__, x) + y0
                         for f, y0 in zip(self._F[k].T.tolist(), self._y_old[k].tolist())])

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


def _march(f, t0, y0, t_end, rtol, atol):
    """DOP853 from t0 to t_end; returns (ts, interpolants) in time order."""
    from scipy.integrate import solve_ivp

    res = solve_ivp(f, (t0, t_end), y0, method="DOP853", rtol=rtol, atol=atol,
                    dense_output=True)
    if not res.success or not np.all(np.isfinite(res.y[:, -1])):
        raise ODEError(f"integration from t={t0} towards t={t_end} failed: {res.message}")
    if t_end < t0:
        return res.sol.ts[::-1], res.sol.interpolants[::-1]
    return res.sol.ts, res.sol.interpolants


def solve_ode(f, t0, y0, t_lo, t_hi, rtol=1e-10, atol=1e-12):
    """Integrate dy/dt = f(t, y) with initial data y(t0) = y0 over [t_lo, t_hi].

    t0 may sit anywhere inside the span; integration marches in both
    directions from it.  Returns a DenseSolution.
    """
    if not (t_lo <= t0 <= t_hi):
        raise ODEError(f"t0={t0} outside requested span [{t_lo}, {t_hi}]")
    y0 = np.asarray(y0, dtype=np.float64)
    # scipy's step control never terminates on a non-finite initial slope
    if not np.all(np.isfinite(f(t0, y0))):
        raise ODEError(f"right-hand side is not finite at t0={t0}")
    parts = []
    if t_lo < t0:
        parts.append(_march(f, t0, y0, t_lo, rtol, atol))
    if t_hi > t0 or not parts:
        parts.append(_march(f, t0, y0, t_hi, rtol, atol))
    ts = np.concatenate([parts[0][0]] + [p[0][1:] for p in parts[1:]])
    return DenseSolution(ts, [i for p in parts for i in p[1]])
