"""Span recorder and the wrappers that feed it, for traced runs only.

A span is (name, start, end, parent, request id).  Spans are kept in flat
typed arrays while the run lasts and written once, at the end, as one .npz
file.  Self time is a span's duration minus the time its direct children
cover; the program is single-threaded, so children nest inside their parent.

`install(tracer)` wraps the public functions and methods of tdho.cli,
tdho.models, tdho.ode, tdho.classical, tdho.states (with tdho._kernels),
tdho.transforms and tdho.verify.  Untraced runs never call it, so they run
the program unmodified.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.request_ids = array("i")
        self.stack: list[int] = []
        self.request = [-1]  # one-element list: cheap to read from closures
        self.counters: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, amount: float = 1.0):
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def current_name(self) -> str | None:
        return self.names[self.name_ids[self.stack[-1]]] if self.stack else None

    def _open(self, nid: int) -> int:
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.request_ids.append(self.request[0])
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(_clock())
        return idx

    def _close(self, idx: int):
        self.ends[idx] = _clock()
        self.stack.pop()

    def record(self, name: str, start: float, end: float):
        """Add a finished top-level span."""
        self.name_ids.append(self.name_id(name))
        self.parents.append(-1)
        self.request_ids.append(self.request[0])
        self.starts.append(start)
        self.ends.append(end)

    @contextmanager
    def span(self, name: str):
        idx = self._open(self.name_id(name))
        try:
            yield idx
        finally:
            self._close(idx)

    def wrap(self, fn, name: str, before=None, after=None):
        """Return fn recording one span per call.

        `before(tracer, args, kwargs)` may return replacement (args, kwargs);
        `after(tracer, args, result)` records counts from the result.
        """
        nid = self.name_id(name)
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            idx = open_(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(idx)
            if after is not None:
                after(self, args, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # ------------------------------------------------------------------
    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_ids, dtype=np.int32).copy(),
            "start": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self.ends, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int32).copy(),
            "request": np.frombuffer(self.request_ids, dtype=np.int32).copy(),
        }

    def extend(self, spans: dict, names: list[str], parent: int):
        """Append spans recorded in another process (a traced CLI child).

        Their parents are re-indexed, top-level child spans hang under
        `parent`, and every span is tagged with the current request.  Start
        and end keep the child's own clock, so only durations are comparable.
        """
        offset = len(self.starts)
        remap = np.array([self.name_id(n) for n in names], dtype=np.int32)
        parent = np.where(spans["parent"] >= 0, spans["parent"].astype(np.int64) + offset,
                          parent)
        self.name_ids.extend(remap[spans["name_id"]].tolist())
        self.starts.extend(spans["start"].tolist())
        self.ends.extend(spans["end"].tolist())
        self.parents.extend(parent.tolist())
        self.request_ids.extend([self.request[0]] * len(spans["start"]))

    def durations(self, name: str) -> list[float]:
        if name not in self._ids:
            return []
        a = self.arrays()
        hit = a["name_id"] == self._ids[name]
        return (a["end"][hit] - a["start"][hit]).tolist()

    def self_times(self) -> np.ndarray:
        a = self.arrays()
        dur = a["end"] - a["start"]
        parent = a["parent"]
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        return dur - covered

    def self_by_name(self, passes: int) -> dict:
        """Self time per pass summed by span name."""
        name_id = np.frombuffer(self.name_ids, dtype=np.int32)
        totals = np.bincount(name_id, weights=self.self_times(), minlength=len(self.names))
        return {name: float(t) / passes for name, t in zip(self.names, totals)}

    def save(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=object),
            counter_keys=np.array(list(self.counters), dtype=object),
            counter_values=np.array(list(self.counters.values()), dtype=np.float64),
            **self.arrays(),
        )


def load(path):
    """(spans dict, names, counters) from a file written by Tracer.save."""
    with np.load(path, allow_pickle=True) as z:
        spans = {k: z[k] for k in ("name_id", "start", "end", "parent", "request")}
        names = [str(n) for n in z["names"]]
        counters = dict(zip((str(k) for k in z["counter_keys"]), z["counter_values"]))
    return spans, names, counters


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------

def summarize(tracer: Tracer, groups: dict[str, tuple[str, ...]]) -> dict:
    """Per group: calls and inclusive time of its outermost spans, self time
    of all its spans.

    A span is outermost in a group when no ancestor belongs to the group,
    so nested calls (a basis method calling another) are not counted twice.
    """
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    parent = a["parent"]
    self_time = tracer.self_times()
    name_id = a["name_id"]
    out = {}
    for group, names in groups.items():
        ids = [tracer._ids[n] for n in names if n in tracer._ids]
        member = np.isin(name_id, ids)
        # climb all ancestor chains in step, one level per iteration
        nested = np.zeros(len(dur), dtype=bool)
        anc = parent.copy()
        live = member & (anc >= 0)
        while live.any():
            idx = np.nonzero(live)[0]
            nested[idx] |= member[anc[idx]]
            anc[idx] = parent[anc[idx]]
            live[idx] = (anc[idx] >= 0) & ~nested[idx]
        outer = member & ~nested
        out[group] = {
            "spans": int(member.sum()),
            "calls": int(outer.sum()),
            "time_s": float(dur[outer].sum()),
            "self_s": float(self_time[member].sum()),
        }
    return out


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------

def _replace_everywhere(original, wrapper):
    """Point every tdho module attribute bound to `original` at `wrapper`.

    Modules import public functions by name (`from .ode import solve_ode`),
    so the wrapper must replace each of those bindings, not only the one
    in the defining module.
    """
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "tdho" or mod_name.startswith("tdho.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def _wrap_function(tracer, module, name, span_name, before=None, after=None):
    original = getattr(module, name)
    _replace_everywhere(original, tracer.wrap(original, span_name, before, after))


def _wrap_method(tracer, cls, name, span_name, before=None, after=None):
    original = cls.__dict__[name]
    setattr(cls, name, tracer.wrap(original, span_name, before, after))


def _is_scalar(t) -> bool:
    ndim = getattr(t, "ndim", None)
    if ndim is not None:
        return ndim == 0
    return not isinstance(t, (list, tuple))


def _count_model_call(tracer, args, kwargs):
    t = args[1] if len(args) > 1 else kwargs.get("t")
    tracer.count("models.scalar_calls", 1.0 if _is_scalar(t) else 0.0)
    return args, kwargs


def _count_rhs(tracer, args, kwargs):
    f = args[0]

    def counted(t, y):
        tracer.count("ode.rhs_evals")
        return f(t, y)

    return (counted,) + tuple(args[1:]), kwargs


def _count_knots(tracer, args, result):
    tracer.count("ode.knots", len(result.ts))


def _count_dense(tracer, args, kwargs):
    points = np.size(args[1]) if len(args) > 1 else np.size(kwargs["t"])
    tracer.count("ode.dense_points", points)
    if tracer.current_name() == "classical.solve_homogeneous":
        # the only dense reads inside a basis build fill its theta table
        tracer.count("classical.theta_table_points", points)
    return args, kwargs


def _count_kernel(tracer, args, kwargs):
    x, n, log_norm, gauss_re = args[0], args[1], args[2], args[3]
    x_shift = args[6]
    points = int(np.size(x))
    d = np.asarray(x, dtype=np.float64) - x_shift
    alive = int(np.count_nonzero(log_norm + gauss_re * d * d > _LOG_FLOOR))
    tracer.count("states.kernel_points", points)
    tracer.count("states.kernel_alive", alive)
    tracer.count("states.hermite_steps", n * points)
    # computed, not measured: x read and complex result written per point,
    # plus two float64 reads and one write per recurrence step per live point
    tracer.count("states.kernel_bytes", 24 * points + 24 * n * alive)
    return args, kwargs


_LOG_FLOOR = -700.0  # tdho._kernels._ref.LOG_FLOOR, re-read by install()

MODEL_METHODS = ("mass", "dmass", "d2mass", "freq2", "force_at")
BASIS_METHODS = ("u", "du", "v", "dv", "theta", "rho", "drho", "omega_check")
FIELD_FUNCTIONS = ("psi_general", "psi_unit_mass", "psi_driven", "psi_sho",
                   "psi_ck", "psi_lo")
CHAIN_FUNCTIONS = ("apply_U0", "apply_U0_dagger", "apply_UF", "apply_UF_dagger")

# metric group -> span names; each span name is recorded by one wrapper below
GROUPS = {
    "cli.load_scenario": ("cli.load_scenario",),
    "cli.build_context": ("cli.build_context",),
    "models": ("models.method",),
    "ode.solve": ("ode.solve_ode",),
    "ode.dense": ("ode.dense",),
    "classical.basis_build": ("classical.solve_homogeneous",
                              "classical.analytic_basis_sho",
                              "classical.analytic_basis_ck",
                              "classical.reduced_basis"),
    "classical.particular": ("classical.solve_particular",),
    "classical.basis_eval": ("classical.basis_method",),
    "classical.delta_legacy": ("classical.delta_legacy",),
    "classical.shift_particular": ("classical.shift_particular",),
    "classical.export": ("classical.export_basis_csv", "classical.export_driven_csv"),
    "states.field": ("states.field",),
    "states.kernel": ("states.state_kernel",),
    "states.dump": ("states.dump_state_grid",),
    "transforms.policy_grid": ("transforms.policy_grid",),
    "transforms.sample": ("transforms.sample_on_grid",),
    "transforms.chain": ("transforms.chain",),
    "verify.residual_call": ("verify.schrodinger_residual",),
    "verify.quadrature": ("verify.quadrature", "verify.simpson"),
    "verify.simpson": ("verify.simpson",),
}


def install(tracer: Tracer):
    """Wrap the public entry points of every tdho layer (traced runs only)."""
    import tdho._kernels
    import tdho.classical as classical
    import tdho.cli as cli
    import tdho.models as models
    import tdho.ode as ode
    import tdho.states as states
    import tdho.transforms as transforms
    import tdho.verify as verify
    from tdho._kernels import _ref

    global _LOG_FLOOR
    _LOG_FLOOR = _ref.LOG_FLOOR

    _wrap_function(tracer, cli, "load_scenario", "cli.load_scenario")
    _wrap_function(tracer, cli, "build_context", "cli.build_context")

    for cls in (models.OscillatorModel, *_subclasses(models.OscillatorModel)):
        for name in MODEL_METHODS:
            if name in cls.__dict__:
                _wrap_method(tracer, cls, name, "models.method", before=_count_model_call)

    _wrap_function(tracer, ode, "solve_ode", "ode.solve_ode",
                   before=_count_rhs, after=_count_knots)
    _wrap_method(tracer, ode.DenseSolution, "__call__", "ode.dense", before=_count_dense)

    for name in ("solve_homogeneous", "analytic_basis_sho", "analytic_basis_ck",
                 "reduced_basis", "solve_particular", "delta_legacy",
                 "shift_particular", "export_basis_csv", "export_driven_csv"):
        _wrap_function(tracer, classical, name, f"classical.{name}")
    for cls in (classical.ClassicalBasis, *_subclasses(classical.ClassicalBasis)):
        for name in BASIS_METHODS:
            if name in cls.__dict__:
                _wrap_method(tracer, cls, name, "classical.basis_method")

    _wrap_method(tracer, states.WavefunctionField, "__call__", "states.field")
    for name in FIELD_FUNCTIONS:
        _wrap_function(tracer, states, name, "states.field")
    _wrap_function(tracer, tdho._kernels, "state_kernel", "states.state_kernel",
                   before=_count_kernel)
    _wrap_function(tracer, states, "dump_state_grid", "states.dump_state_grid")

    _wrap_function(tracer, transforms, "policy_grid", "transforms.policy_grid")
    _wrap_function(tracer, transforms, "sample_on_grid", "transforms.sample_on_grid")
    for name in CHAIN_FUNCTIONS:
        _wrap_function(tracer, transforms, name, "transforms.chain")

    _wrap_function(tracer, verify, "schrodinger_residual", "verify.schrodinger_residual")
    # quadrature: the public observables and Simpson's rule as tdho.verify
    # calls it (its own module binding of scipy's simpson)
    for name in ("norm", "inner_product", "moments"):
        _wrap_function(tracer, verify, name, "verify.quadrature")
    _wrap_function(tracer, verify, "simpson", "verify.simpson")


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out
