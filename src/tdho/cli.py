"""Command-line front end.

One JSON scenario file describes everything (model, basis, driving, states,
grid, times, checks); the subcommands only select an action and output
paths.  Exit codes: 0 all checks pass, 1 any check failed, 2 configuration
error (bad schema, unknown check, inconsistent grid, a time outside the
model's domain, unwritable output path) or numerical error (a collocation
or quadrature that cannot be resolved, a state that samples to zero, or a
grid that does not resolve a state), 3 internal error (any other exception,
a defect in tdho itself: its traceback, then its type and message).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__
from . import states as _states
from ._schema import best_match
from .classical import (
    QuadratureError,
    analytic_basis_ck,
    analytic_basis_sho,
    export_basis_csv,
    export_driven_csv,
    solve_homogeneous,
    solve_particular,
)
from .models import (
    _FAMILIES,
    _FORCE_KINDS,
    CaldirolaKanai,
    GeneralParametric,
    _is_unit_mass_sho,
    model_from_json,
)
from ._kernels import cutoff_window
from .states import CLOSED_FORMS, dump_state_grid, state_field
from .transforms import (
    BOUNDARY_RATIO,
    Grid,
    GridTooSmallError,
    _edge_columns,
    _edge_ratio,
    policy_grid,
)
from .verify import DegenerateStateError, SuiteContext, report_json, run_suite

__all__ = ["main", "load_scenario", "build_context", "ScenarioError"]


class ScenarioError(ValueError):
    """Scenario file is invalid or internally inconsistent."""


def _numbers(*names) -> dict:
    return {name: {"type": "number"} for name in names}


_NUMBER_ARRAY = {"type": "array", "items": {"type": "number"}}


def _when(key, value, properties: dict, inside=None, optional=()) -> dict:
    """Subschema: where `key` is `value`, every entry of `properties` not in
    `optional` is required with its schema (under object `inside`, if given)."""
    then = {"required": [k for k in properties if k not in optional], "properties": properties}
    if inside is not None:
        then = {"required": [inside], "properties": {inside: then}}
    return {"if": {"required": [key], "properties": {key: {"const": value}}},
            "then": then}


SCENARIO_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["name", "model", "basis", "states", "times", "grid"],
    "properties": {
        "name": {"type": "string"},
        "hbar": {"type": "number", "exclusiveMinimum": 0},
        "model": {
            "type": "object",
            "required": ["family", "params", "t_min", "t_max"],
            "properties": {
                "family": {"enum": [*_FAMILIES, "GeneralParametric"]},
                "params": {"type": "object"},
                "t_min": {"type": "number"},
                "t_max": {"type": "number"},
            },
            # the parameters each family's constructor reads
            "allOf": [
                *(_when("family", family, _numbers(*build.keys), "params")
                  for family, build in _FAMILIES.items()),
                _when("family", "GeneralParametric",
                      {k: _NUMBER_ARRAY for k in GeneralParametric.keys}, "params"),
            ],
        },
        "basis": {
            "type": "object",
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["analytic_sho", "analytic_ck", "numeric"]},
                "A": {"type": "number", "exclusiveMinimum": 0},
                "B": {"type": "number", "exclusiveMinimum": 0},
                "w_s": {"type": "number", "exclusiveMinimum": 0},
                "ics": {
                    "type": "array",
                    "items": {"type": "number"},
                    "minItems": 4,
                    "maxItems": 4,
                },
                "t0": {"type": "number"},
                "tol": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "driving": {
            "type": "object",
            "required": ["force"],
            "properties": {
                "force": {
                    "type": "object",
                    "required": ["kind"],
                    # the keys each force's constructor reads; phase may be absent
                    "allOf": [
                        _when("kind", kind, {"coeffs": {**_NUMBER_ARRAY, "minItems": 1}}
                              if kind == "polynomial" else _numbers(*cls.keys),
                              optional=("phase",))
                        for kind, cls in _FORCE_KINDS.items()
                    ],
                },
                "xp0": {"type": "number"},
                "dxp0": {"type": "number"},
                "t0": {"type": "number"},
                "tol": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "states": {
            "type": "array",
            "items": {"type": "integer", "minimum": 0},
            "minItems": 1,
        },
        "times": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "grid": {
            "type": "object",
            "properties": {
                "policy": {"type": "boolean"},
                "points": {"type": "integer", "minimum": 16},
                "pad": {"type": "number", "exclusiveMinimum": 0},
                "x_min": {"type": "number"},
                "x_max": {"type": "number"},
            },
            "dependentRequired": {"x_min": ["x_max"], "x_max": ["x_min"]},
        },
        "closed_form": {
            "type": "object",
            "properties": {
                "kind": {"enum": ["sho", "ck", "lo"]},
                "Ccoef": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        # check names only: every threshold is tdho.verify's DEFAULT_THRESHOLDS
        "checks": {"type": "array", "items": {"type": "string"}},
    },
}


def _resolve_scenario(path) -> str:
    """Accept a filesystem path or the bare name of a bundled scenario."""
    if Path(path).exists():
        return str(path)
    from .scenarios import BUNDLED, scenario_path

    name = Path(path).stem
    if name in BUNDLED:
        return scenario_path(name)
    return str(path)


def _refuse_constant(name):
    # NaN and +-Infinity are Python's extensions, not JSON (RFC 8259)
    raise ScenarioError(f"scenario is not valid JSON: {name} is not a JSON number")


def _finite_number(literal: str):
    """A number literal as json reads it (int or float), refused unless its
    float value is finite: 1e400 would read as inf, and a 400-digit integer
    would overflow the first float computed from it."""
    if not math.isfinite(float(literal)):
        shown = literal if len(literal) <= 24 else literal[:20] + "..."
        raise ScenarioError(f"scenario is not valid JSON: {shown} does not fit a float")
    return int(literal) if literal.lstrip("-").isdigit() else float(literal)


def load_scenario(path) -> dict:
    try:
        with open(_resolve_scenario(path), "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=_refuse_constant,
                            parse_float=_finite_number, parse_int=_finite_number)
    except OSError as e:
        raise ScenarioError(f"cannot read scenario: {e}") from e
    except (json.JSONDecodeError, UnicodeDecodeError) as e:  # JSON is UTF-8 (RFC 8259)
        raise ScenarioError(f"scenario is not valid JSON: {e}") from e
    # the error jsonschema.validate would raise
    found = best_match(SCENARIO_SCHEMA, doc)
    if found is not None:
        raise ScenarioError("scenario schema violation at %s: %s" % found)
    return doc


def _build_basis(scenario, model):
    b = scenario["basis"]
    kind = b["kind"]
    if kind == "analytic_sho":
        if not _is_unit_mass_sho(model):
            raise ScenarioError("analytic_sho basis needs a UnitMassSHO model")
        # w_s may be overridden to detune the basis (negative controls)
        return analytic_basis_sho(model, b.get("A", 1.0), b.get("B", 1.0), b.get("w_s"))
    if kind == "analytic_ck":
        if not isinstance(model, CaldirolaKanai):
            raise ScenarioError("analytic_ck basis needs a CaldirolaKanai model")
        return analytic_basis_ck(model, b.get("A", 1.0), b.get("B", 1.0))
    ics = b.get("ics")
    if ics is None:
        raise ScenarioError("numeric basis needs \"ics\": [u0, du0, v0, dv0]")
    return solve_homogeneous(model, *ics, tol=float(b.get("tol", 1e-10)), t0=b.get("t0"))


def _closed_form_C(scenario, model):
    """C of the closed-form state the scenario compares with, or None.

    An analytic basis is its own closed form, with C = A/B."""
    cf = scenario.get("closed_form")
    if cf is not None:
        kind = cf.get("kind")
        kinds = {CLOSED_FORMS.get(type(model), (None,))[0]}
        if _is_unit_mass_sho(model):
            kinds.add("sho")
        if kind is not None and kind not in kinds:
            raise ScenarioError(
                f"closed_form kind {kind!r} is not the family of a "
                f"{type(model).__name__} model"
            )
        return float(cf.get("Ccoef", 1.0))
    b = scenario["basis"]
    if b["kind"] in ("analytic_sho", "analytic_ck"):
        return float(b.get("A", 1.0) / b.get("B", 1.0))
    return None


def build_context(scenario: dict, fast: bool = False):
    """Assemble model, basis, driving, grid, and sweep lists."""
    model_doc = dict(scenario["model"])
    if "driving" in scenario:
        model_doc["force"] = scenario["driving"]["force"]
    model = model_from_json(model_doc)
    declared = [model_doc["t_min"], model_doc["t_max"]]
    if declared != [model.t_min, model.t_max]:
        raise ScenarioError(f"model declares the time domain {declared}, but its "
                            f"table spans [{model.t_min}, {model.t_max}]")
    # every state exists on the domain only: refuse a time outside it
    # before anything is solved
    times = [float(t) for t in scenario["times"]]
    model.check_domain(times)

    basis = _build_basis(scenario, model)
    closed_form_C = _closed_form_C(scenario, model)

    driven = None
    if "driving" in scenario:
        d = scenario["driving"]
        driven = solve_particular(
            basis,
            float(d.get("xp0", 0.0)),
            float(d.get("dxp0", 0.0)),
            t0=d.get("t0"),
            tol=float(d.get("tol", 1e-10)),
        )

    hbar = float(scenario.get("hbar", 1.0))
    ns = sorted(set(int(n) for n in scenario["states"]))
    ortho_nmax = 8
    if fast:
        ns = [n for n in ns if n <= 2] or ns[:1]
        times = times[:3]
        ortho_nmax = 4

    # explicit bounds give an explicit grid; without them, the policy grid
    g = scenario["grid"]
    explicit = "x_min" in g  # the schema requires x_max with it
    if g.get("policy", not explicit) == explicit:
        raise ScenarioError("grid: policy: true contradicts the explicit x_min/x_max"
                            if explicit else "grid: policy: false needs x_min and x_max")
    if explicit and "pad" in g:
        raise ScenarioError("grid: pad sizes the policy grid, not explicit x_min/x_max")
    points = int(g.get("points", 4096))
    if explicit:
        grid = Grid(float(g["x_min"]), float(g["x_max"]), points)
    else:
        grid = policy_grid(basis, max(ns), hbar, driven=driven, times=times,
                           points=points, pad=float(g.get("pad", 8.0)))

    ctx = SuiteContext(
        basis=basis,
        driven=driven,
        ns=ns,
        times=times,
        grid=grid,
        hbar=hbar,
        closed_form_C=closed_form_C,
        orthonormality_nmax=ortho_nmax,
    )
    _validate_grid(ctx)
    return ctx


def _validate_grid(ctx: SuiteContext):
    """The grid must keep the largest requested state negligible at its
    edges: the largest of its two outermost samples at either end must stay
    below BOUNDARY_RATIO of its peak.

    Two samples, since one may sit on a node (_edge_ratio).  Lower orders
    decay faster past the largest order's turning point, so its edges bound
    theirs.  The kernel columns of every time come from one stacked read
    (_slice_params).

    A time is passed without a read when its window at READ_DEPTH
    (cutoff_window with that depth) holds grid columns but none of the
    four edge columns, n <= 1000 and scale dx sqrt(2n + 1) <= 0.8:

    - the edges lie beyond the window's radius, where the state is below
      sqrt(scale) e^-READ_DEPTH (4.3e-18 sqrt(scale));
    - the order's peak is at least 0.358 sqrt(scale) for every n up to
      1000 (state_kernel_window), and it lies within the radius, so
      between two grid columns, at most dx/2 from one;
    - with phi_k(xi) = e^{-xi^2/2} h_k(xi), Cramér's bound |phi_k| <=
      1.0865 pi^(-1/4) < 0.816 and phi_n' = sqrt(n/2) phi_{n-1} -
      sqrt((n+1)/2) phi_{n+1} bound the slope of |psi| = sqrt(scale)
      |phi_n(scale d)| by 0.816 sqrt(2n + 1) scale^(3/2), so a column
      within dx/2 of the peak reads at least sqrt(scale) (0.358 - 0.408 *
      0.8) > 0.03 sqrt(scale).

    So such a time's whole-grid ratio is below 1.4e-16, far under the bar.
    Any other time whose cutoff window at LOG_FLOOR (cutoff_window) holds
    none of the edge columns is not read either: those samples are exact
    zeros and its ratio is 0.  Every other time is decided by one read of
    that window (state_kernel_window to LOG_FLOOR): the whole grid's read,
    as state_field reads it, is this window zero-padded, so the window's
    edge ratio is the whole grid's bit for bit.
    """
    spec, grid = ctx.state(max(ctx.ns)), ctx.grid
    n, xs = spec.n, grid.xs()
    edges = _edge_columns(len(xs))
    for t, column in zip(ctx.times, _states._slice_params(spec, ctx.times).T.tolist()):
        _, scale, x_shift = column[:3]
        if n <= 1000 and scale * grid.dx * math.sqrt(2 * n + 1) <= 0.8:
            a, b = cutoff_window(xs, n, scale, x_shift, _states.READ_DEPTH)
            if a < b and not any(a <= c < b for c in edges):
                continue
        a, b = cutoff_window(xs, n, scale, x_shift)
        if not any(a <= c < b for c in edges):
            continue
        ratio = _edge_ratio(*_states.state_kernel_window(xs, [n], *column), len(xs))
        if ratio >= BOUNDARY_RATIO:
            raise ScenarioError(f"grid {grid} too small for n={n} at t={t}: "
                                f"boundary ratio {ratio:.2e}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_state(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.t:
        # size and validate the grid for the times that are written
        scenario = {**scenario, "times": args.t}
    ctx = build_context(scenario)
    out_dir = Path(args.out)
    # a file is named by its time's 6 significant digits: refuse two times
    # that share them before writing anything, as one would overwrite the other
    named = {}
    for t in ctx.times:
        if f"{t:g}" in named:
            raise ScenarioError(
                f"times {named[f'{t:g}']!r} and {t!r} both write "
                f"{out_dir / f'state_n{ctx.ns[0]}_t{t:g}.csv'}; give times that "
                "differ in their first 6 significant digits")
        named[f"{t:g}"] = t
    out_dir.mkdir(parents=True, exist_ok=True)
    for n in ctx.ns:
        f = state_field(ctx.state(n))
        for t in ctx.times:
            csv_path = out_dir / f"state_n{n}_t{t:g}.csv"
            dump_state_grid(f, ctx.grid, t, csv_path, meta={"scenario": scenario["name"]})
            print(csv_path)
    return 0


def cmd_verify(args) -> int:
    scenario = load_scenario(args.scenario)
    checks = scenario.get("checks")
    if not checks:
        raise ScenarioError("scenario has no \"checks\" to run")
    ctx = build_context(scenario, fast=(args.suite == "fast"))
    results = run_suite(ctx, checks)
    text = report_json(results)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    n_fail = sum(1 for r in results if not r.passed)
    print(
        f"{scenario['name']}: {len(results) - n_fail}/{len(results)} checks passed",
        file=sys.stderr,
    )
    return 1 if n_fail else 0


def cmd_classical(args) -> int:
    scenario = load_scenario(args.scenario)
    ctx = build_context(scenario)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    basis_path = out_dir / f"{scenario['name']}_basis.csv"
    export_basis_csv(ctx.basis, basis_path)
    print(basis_path)
    if ctx.driven is not None:
        driven_path = out_dir / f"{scenario['name']}_driven.csv"
        export_driven_csv(ctx.driven, driven_path)
        print(driven_path)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tdho",
        description="Exact eigenstates of driven, variable-mass oscillators: "
        "build, transform, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_state = sub.add_parser("state", help="dump wavefunction grids")
    p_state.add_argument("scenario")
    p_state.add_argument("--t", nargs="*", type=float, help="override sample times")
    p_state.add_argument("--out", default="out", help="output directory")
    p_state.set_defaults(fn=cmd_state)

    p_verify = sub.add_parser("verify", help="run the scenario's checks")
    p_verify.add_argument("scenario")
    p_verify.add_argument("--suite", choices=["full", "fast"], default="full")
    p_verify.add_argument("--out", help="write the JSON report here")
    p_verify.set_defaults(fn=cmd_verify)

    p_classical = sub.add_parser("classical", help="dump trajectory CSVs")
    p_classical.add_argument("scenario")
    p_classical.add_argument("--out", default="out")
    p_classical.set_defaults(fn=cmd_classical)

    p_version = sub.add_parser("version", help="print the package version")
    p_version.set_defaults(fn=lambda args: print(__version__) or 0)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ScenarioError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (QuadratureError, DegenerateStateError, GridTooSmallError) as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        # load_scenario turns read failures into ScenarioError, so this is
        # an output path
        print(f"error: cannot write output: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # never exit 1, a failed check's code
        sys.excepthook(*sys.exc_info())  # the traceback, to find the defect
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
