"""Two-sided DOP853 integration with one dense evaluator.

scipy's DOP853 (Hairer, Nørsett & Wanner, *Solving ODEs I*) marches
from t0 to each end of the requested span; its 7th-order dense output is as
accurate between steps as at them, so no step cap is needed.  The two
marches are joined into one piecewise evaluator over the whole span.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DenseSolution", "ODEError", "solve_ode"]


class ODEError(RuntimeError):
    pass


class DenseSolution:
    """Piecewise DOP853 dense output over the accepted steps, sorted by time.

    Evaluation at arbitrary times inside the integrated span is vectorized:
    a scalar time gives shape (ncomponents,), an array of times gives
    (len(t), ncomponents).
    """

    def __init__(self, ts, interpolants):
        from scipy.integrate import OdeSolution

        self.ts = np.asarray(ts, dtype=np.float64)
        self.t_min = float(self.ts[0])
        self.t_max = float(self.ts[-1])
        self._slack = 1e-9 * max(self.t_max - self.t_min, 1.0)
        self._sol = OdeSolution(self.ts, interpolants)

    @property
    def ncomponents(self):
        return len(self._sol(self.t_min))

    def __call__(self, t):
        t = np.asarray(t, dtype=np.float64)
        if t.size and (t.min() < self.t_min - self._slack
                       or t.max() > self.t_max + self._slack):
            raise ODEError(
                f"evaluation time outside integrated span "
                f"[{self.t_min}, {self.t_max}]"
            )
        return self._sol(t).T

    def component(self, k):
        """Scalar-in/scalar-out view of component k."""

        def f(t):
            return float(self(t)[k]) if np.ndim(t) == 0 else self(t)[:, k]

        return f


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
