"""Command-line interface: scenarios, exit codes, deterministic outputs."""

import importlib
import json
import math
import os
import random
import subprocess
import sys
import warnings
from contextlib import suppress
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import tdho
import tdho.classical
import tdho.cli
import tdho.states
import tdho.verify
from tdho._kernels import cutoff_window
from tdho.classical import QuadratureError, analytic_basis_ck, analytic_basis_sho
from tdho.cli import (
    ScenarioError,
    _build_basis,
    _validate_grid,
    build_context,
    load_scenario,
    main,
)
from tdho.models import CaldirolaKanai, LoDampedPulsating
from tdho.scenarios import BUNDLED, scenario_path
from tdho.states import StateSpec, _slice_params, state_field
from tdho.transforms import BOUNDARY_RATIO, Grid, GridFunction, _edge_columns, _edge_ratio
from tdho.verify import READ_DEPTH, state_window

ROOT = Path(__file__).resolve().parents[1]


def _scenario_doc(**overrides):
    doc = {
        "name": "t",
        "seed": 42,
        "hbar": 1.0,
        "model": {"family": "UnitMassSHO", "params": {"w_s": 1.0},
                  "t_min": -1.0, "t_max": 12.0},
        "basis": {"kind": "analytic_sho", "A": 1.0, "B": 1.0},
        "states": [0, 1],
        "times": [0.0, 1.0],
        "grid": {"policy": True, "points": 4096, "pad": 8.0},
        "checks": ["residual"],
    }
    doc.update(overrides)
    return doc


def _write(tmp_path, doc, name="scn.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


# ---------------------------------------------------------------------------
# scenario loading
# ---------------------------------------------------------------------------

def test_bundled_scenarios_resolve_and_validate():
    import jsonschema

    from tdho.cli import SCENARIO_SCHEMA

    jsonschema.validators.validator_for(SCENARIO_SCHEMA).check_schema(SCENARIO_SCHEMA)
    assert set(BUNDLED) >= {"sho_c1", "sho_c2", "ck", "lo",
                            "driven_sho", "driven_ck", "negative_control"}
    for name in BUNDLED:
        doc = load_scenario(scenario_path(name))
        assert doc["name"] == name
    with pytest.raises(KeyError):
        scenario_path("nope")


def test_load_scenario_accepts_bare_bundled_name():
    assert load_scenario("sho_c1")["name"] == "sho_c1"


def test_load_scenario_schema_violation_reports_path(tmp_path):
    doc = _scenario_doc()
    del doc["model"]["family"]
    with pytest.raises(ScenarioError, match="family"):
        load_scenario(_write(tmp_path, doc))


@pytest.mark.parametrize("violation", [
    {"model": {"family": "Nope", "params": {}, "t_min": 0.0, "t_max": 1.0}},
    {"states": [0, -1]},
    {"states": []},
    {"hbar": 0.0},
    {"times": "0.5"},
    {"basis": {"kind": "numeric", "ics": [1.0, 0.0, 0.0]}},
    {"checks": [{"tolerance": 1e-3}]},
    {"name": 7, "grid": {"points": 8}},
])
def test_load_scenario_error_matches_jsonschema_validate(tmp_path, violation):
    """The validator built once raises what jsonschema.validate raises."""
    import jsonschema

    from tdho.cli import SCENARIO_SCHEMA

    doc = _scenario_doc(**violation)
    with pytest.raises(jsonschema.ValidationError) as oracle:
        jsonschema.validate(doc, SCENARIO_SCHEMA)
    e = oracle.value
    where = getattr(e, "json_path", None) or "$." + ".".join(
        str(p) for p in e.absolute_path)
    with pytest.raises(ScenarioError) as got:
        load_scenario(_write(tmp_path, doc))
    assert str(got.value) == f"scenario schema violation at {where}: {e.message}"


@pytest.mark.parametrize("name,old,new,constant", [
    ("sho_c1", '"hbar": 1.0', '"hbar": NaN', "NaN"),
    ("sho_c1", '"hbar": 1.0', '"hbar": Infinity', "Infinity"),
    ("sho_c1", '"times": [0.0,', '"times": [NaN,', "NaN"),
    ("ck", '"gamma": 0.6', '"gamma": NaN', "NaN"),
])
def test_non_json_constants_are_refused(tmp_path, capsys, name, old, new, constant):
    """NaN and Infinity are not JSON numbers: the scenario is refused with
    exit 2 before any of it is used."""
    text = Path(scenario_path(name)).read_text(encoding="utf-8")
    assert old in text
    path = tmp_path / f"{name}.json"
    path.write_text(text.replace(old, new), encoding="utf-8")
    with pytest.raises(ScenarioError) as got:
        load_scenario(str(path))
    assert str(got.value) == f"scenario is not valid JSON: {constant} is not a JSON number"
    assert main(["verify", str(path), "--suite", "fast"]) == 2
    assert capsys.readouterr().err == (
        f"error: scenario is not valid JSON: {constant} is not a JSON number\n")


@pytest.mark.parametrize("name,old,new,shown", [
    ("sho_c1", '"hbar": 1.0', '"hbar": 1e400', "1e400"),
    ("ck", '"gamma": 0.6', '"gamma": -1e999', "-1e999"),
    ("sho_c1", '"hbar": 1.0', '"hbar": 1' + "0" * 400, "1" + "0" * 19 + "..."),
], ids=["1e400", "-1e999", "401_digits"])
def test_numbers_that_overflow_a_float_are_refused(tmp_path, capsys, name, old, new, shown):
    """A number literal whose float value is not finite is refused with exit
    2 as invalid JSON, never read as inf nor left to overflow later."""
    text = Path(scenario_path(name)).read_text(encoding="utf-8")
    assert old in text
    path = tmp_path / f"{name}.json"
    path.write_text(text.replace(old, new), encoding="utf-8")
    with pytest.raises(ScenarioError) as got:
        load_scenario(str(path))
    assert str(got.value) == f"scenario is not valid JSON: {shown} does not fit a float"
    assert main(["verify", str(path), "--suite", "fast"]) == 2
    assert capsys.readouterr().err == f"error: {got.value}\n"


def test_scenario_that_is_not_utf8_is_refused(tmp_path, capsys):
    text = Path(scenario_path("sho_c1")).read_text(encoding="utf-8")
    path = tmp_path / "latin1.json"
    path.write_bytes(text.replace('"sho_c1"', '"sho_c1\u00e9"').encode("latin-1"))
    with pytest.raises(ScenarioError, match="^scenario is not valid JSON: 'utf-8' codec"):
        load_scenario(str(path))
    assert main(["verify", str(path), "--suite", "fast"]) == 2
    assert capsys.readouterr().err.startswith("error: scenario is not valid JSON: ")


def test_load_scenario_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ScenarioError, match="JSON"):
        load_scenario(str(p))


def test_load_scenario_missing_file():
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario("/no/such/file.json")


# ---------------------------------------------------------------------------
# context building
# ---------------------------------------------------------------------------

def test_build_context_defaults_hbar_to_one(tmp_path):
    doc = _scenario_doc()
    del doc["hbar"]
    ctx = build_context(load_scenario(_write(tmp_path, doc)))
    assert ctx.hbar == 1.0


def test_build_context_fast_mode_trims_sweep(tmp_path):
    doc = _scenario_doc(states=[0, 1, 2, 3], times=[0.0, 1.0, 2.5, 4.0])
    ctx = build_context(load_scenario(_write(tmp_path, doc)), fast=True)
    assert max(ctx.ns) <= 2
    assert len(ctx.times) <= 3


def test_build_context_rejects_mismatched_basis(tmp_path):
    doc = _scenario_doc(model={"family": "CaldirolaKanai",
                               "params": {"m": 1.0, "gamma": 0.6, "w1": 1.0},
                               "t_min": -1.0, "t_max": 12.0})
    with pytest.raises(ScenarioError, match="UnitMassSHO"):
        build_context(load_scenario(_write(tmp_path, doc)))


@pytest.mark.parametrize("model,kind", [
    ({"family": "CaldirolaKanai", "params": {"m": 1.0, "gamma": 0.6, "w1": 1.0}},
     "sho"),
    ({"family": "CaldirolaKanai", "params": {"m": 2.0, "gamma": 0.0, "w1": 1.0}},
     "sho"),
    ({"family": "CaldirolaKanai", "params": {"m": 1.0, "gamma": 0.6, "w1": 1.0}},
     "lo"),
], ids=["sho_on_ck", "sho_on_mass_2", "lo_on_ck"])
def test_closed_form_of_another_family_is_config_error(tmp_path, capsys, model, kind):
    """closed_form.kind must name the model's own family; "sho" names only
    the unit-mass oscillator, CaldirolaKanai at m = 1, gamma = 0."""
    model.update(t_min=-1.0, t_max=12.0)
    doc = _scenario_doc(model=model, basis={"kind": "numeric",
                                            "ics": [1.0, 0.0, 0.0, 1.0]},
                        closed_form={"kind": kind, "Ccoef": 1.0},
                        checks=["closed_form_agreement"])
    assert main(["verify", _write(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: closed_form kind {kind!r}") and err.count("\n") == 1


def test_ck_closed_form_of_a_unit_mass_document_is_its_sho_closed_form(tmp_path, capsys):
    """A UnitMassSHO document builds CaldirolaKanai(1, 0, w_s), so its "ck"
    closed form is its "sho" one: the same report, row for row."""
    reports = []
    for kind in ("sho", "ck"):
        doc = load_scenario("sho_c1")
        doc["closed_form"]["kind"] = kind
        assert main(["verify", _write(tmp_path, doc, f"{kind}.json")]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


def _constant_mass_doc(m):
    """A CaldirolaKanai document at gamma = 0: a breathing state (A = 2, B = 1)
    of the constant mass m, with its closed form (C = 2)."""
    return _scenario_doc(
        model={"family": "CaldirolaKanai", "params": {"m": m, "gamma": 0.0, "w1": 1.3},
               "t_min": -1.0, "t_max": 12.0},
        basis={"kind": "analytic_ck", "A": 2.0, "B": 1.0},
        states=[0, 1, 2, 3], times=[0.0, 1.0, 2.5],
        closed_form={"kind": "ck", "Ccoef": 2.0},
        checks=["closed_form_agreement", "orthonormality", "residual", "stationarity",
                "transform_chain"])


def test_a_constant_mass_other_than_one_passes_stationarity(tmp_path, capsys):
    """Stationarity applies to every constant mass (CaldirolaKanai with
    gamma = 0), with period pi/w1: at m = 2 every row of every check passes."""
    assert main(["verify", _write(tmp_path, _constant_mass_doc(2.0))]) == 0
    rows = json.loads(capsys.readouterr().out)
    stationarity = [r for r in rows if r["check"] == "stationarity"]
    assert len(stationarity) == 4 * 4 and all(r["pass"] for r in rows)


def test_stationarity_refuses_a_grid_that_misses_its_state(tmp_path, capsys):
    """A grid far from the state holds no column of the probe stack: the
    check refuses it as a zero state (a numerical error), as closed-form
    agreement does, rather than report a zero drift."""
    doc = load_scenario("sho_c1")
    doc.update(grid={"x_min": 100.0, "x_max": 112.0, "points": 256},
               checks=["stationarity"])
    assert main(["verify", _write(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == (
        "numerical error: stationarity: ‖psi‖² = 0.0 on 256 points: the sampled "
        "state is zero or not finite, so its drift is undefined\n")


def test_stationarity_refuses_a_probe_the_grid_cuts_off(tmp_path, capsys):
    """sho_c2's breathing state is narrowest at t = pi/2: a grid that holds
    it there passes the grid guard, but cuts off the wide t = 0 probe of the
    half-period contrast, which is refused rather than summed."""
    doc = load_scenario("sho_c2")
    doc.update(times=[math.pi / 2], grid={"x_min": -7.0, "x_max": 7.0, "points": 512},
               checks=["stationarity"])
    assert main(["verify", _write(tmp_path, doc)]) == 2
    assert capsys.readouterr().err.startswith(
        "numerical error: stationarity: state not resolved at t = 0.0 on 512 points: "
        "edge over peak")


@pytest.mark.parametrize("basis,message", [
    ({"kind": "analytic_ck"}, "analytic_ck basis needs a CaldirolaKanai model"),
    ({"kind": "numeric"}, 'numeric basis needs "ics": [u0, du0, v0, dv0]'),
], ids=["analytic_ck_on_lo", "numeric_without_ics"])
def test_a_basis_the_model_cannot_take_is_a_scenario_error(basis, message):
    model = LoDampedPulsating(1.0, 0.1, 0.2, 3.0, 1.0, t_min=-1.0, t_max=12.0)
    with pytest.raises(ScenarioError) as refused:
        _build_basis({"basis": basis}, model)
    assert refused.type is ScenarioError and str(refused.value) == message


def _driven_closed_form_doc(name, w_s=None):
    """The bundled driven scenario with its family's closed form (C = 1) and
    closed_form_agreement as its one check; w_s detunes its analytic SHO basis."""
    doc = load_scenario(name)
    kind = {"driven_sho": "sho", "driven_ck": "ck"}[name]
    doc.update(closed_form={"kind": kind, "Ccoef": 1.0},
               checks=["closed_form_agreement"])
    if w_s is not None:
        doc["basis"]["w_s"] = w_s
    return doc


@pytest.mark.parametrize("name", ["driven_sho", "driven_ck"])
def test_closed_form_agreement_runs_on_a_driven_scenario(tmp_path, capsys, name):
    """A driven scenario compares its closed form with the undriven state
    over its basis: every row of every order and time passes (exit 0)."""
    assert main(["verify", _write(tmp_path, _driven_closed_form_doc(name))]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 12 and all(r["pass"] for r in rows)


def test_closed_form_agreement_fails_a_detuned_driven_basis(tmp_path, capsys):
    """The same check on driven_sho over a basis detuned by 1 %: every row
    fails (exit 1), none is refused."""
    doc = _driven_closed_form_doc("driven_sho", w_s=1.01)
    assert main(["verify", _write(tmp_path, doc)]) == 1
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 12 and not any(r["pass"] for r in rows)


def _tabulated_doc(nodes, **overrides):
    """The exact table of M = 1 + 0.3 sin t, w^2 = 1 on [0, 6], with a
    numeric basis, n <= 3 at four times, and the checks that apply to it."""
    ts = np.linspace(0.0, 6.0, nodes)
    model = {"family": "GeneralParametric", "t_min": 0.0, "t_max": 6.0,
             "params": {"t": ts.tolist(), "M": (1.0 + 0.3 * np.sin(ts)).tolist(),
                        "dM": (0.3 * np.cos(ts)).tolist(),
                        "d2M": (-0.3 * np.sin(ts)).tolist(),
                        "w2": np.ones_like(ts).tolist()}}
    fields = dict(model=model, basis={"kind": "numeric", "ics": [1.0, 0.0, 0.0, 1.0]},
                  states=[0, 1, 2, 3], times=[1.0, 2.5, 4.0, 5.5],
                  checks=["omega_constancy", "residual", "transform_chain"])
    return _scenario_doc(**{**fields, **overrides})


def test_frequency_map_without_a_closed_form_target_is_config_error(tmp_path, capsys):
    """A tabulated model has no closed-form reduced frequency to compare
    w0^2 with: frequency_map is refused (exit 2), not judged against the
    mean of w0^2 itself."""
    doc = _tabulated_doc(121, states=[0], times=[1.0], checks=["frequency_map"])
    assert main(["verify", _write(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err == ("configuration error: frequency_map has no closed-form reduced "
                   "frequency for GeneralParametric\n")


@pytest.mark.parametrize("nodes", [31, 121])
def test_exact_tabulated_table_verifies(tmp_path, capsys, nodes):
    """The exact table of M = 1 + 0.3 sin t passes every row at any node
    count: the Mdot the ODE reads is the derivative of the M in the
    Hamiltonian, so the invariant Omega holds to the integrator's accuracy."""
    doc = _tabulated_doc(nodes)
    assert main(["verify", _write(tmp_path, doc)]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 33 and all(row["pass"] for row in rows)
    [omega] = [row["measured"] for row in rows if row["check"] == "omega_constancy"]
    assert omega < 1e-8


def test_a_driven_tabulated_model_verifies(tmp_path, capsys):
    """The paper's general case: M = 1 + 0.3 sin t and w^2 = 1 + 0.2 cos 2t
    both tabulated on 31 nodes, driven by cos 1.3t.  Every table node is a
    panel edge of the particular path's quadrature, whose 16- and 32-node
    rules then agree (across a node, where w^2 is only C^2, they do not),
    and every row passes."""
    doc = _tabulated_doc(
        31, basis={"kind": "numeric", "ics": [1.0, 0.0, 0.0, 1.0], "tol": 1e-11},
        driving={"force": {"kind": "cosine", "amplitude": 1.0, "omega": 1.3}},
        checks=["omega_constancy", "residual", "transform_chain", "uncertainty"])
    ts = np.array(doc["model"]["params"]["t"])
    doc["model"]["params"]["w2"] = (1.0 + 0.2 * np.cos(2.0 * ts)).tolist()
    assert main(["verify", _write(tmp_path, doc)]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 49 and all(row["pass"] for row in rows)


def _driven_lo_doc():
    """lo driven by 0.5 cos 1.3t, with the checks that read its path."""
    doc = load_scenario("lo")
    doc["driving"] = {"force": {"kind": "cosine", "amplitude": 0.5, "omega": 1.3},
                      "t0": 0.0}
    doc["checks"] = ["residual", "uncertainty", "transform_chain", "delta_equivalence",
                     "omega_constancy"]
    return doc


def _driven_tabulated_doc():
    """The tabulated document of test_a_driven_tabulated_model_verifies."""
    doc = _tabulated_doc(
        31, driving={"force": {"kind": "cosine", "amplitude": 1.0, "omega": 1.3}},
        checks=["omega_constancy", "residual", "transform_chain", "uncertainty"])
    ts = np.array(doc["model"]["params"]["t"])
    doc["model"]["params"]["w2"] = (1.0 + 0.2 * np.cos(2.0 * ts)).tolist()
    return doc


@pytest.mark.parametrize("tol", [None, 1e-11])
@pytest.mark.parametrize("build", [_driven_lo_doc, _driven_tabulated_doc])
def test_a_driven_numeric_basis_verifies_at_its_own_tol(tmp_path, capsys, build, tol):
    """A collocated basis is smooth to rounding, so the particular path's
    guard passes at a driving.tol equal to the basis's (both defaulted, or
    both 1e-11), and every row passes."""
    doc = build()
    doc["basis"].pop("tol", None)
    if tol is not None:
        doc["basis"]["tol"] = doc["driving"]["tol"] = tol
    assert main(["verify", _write(tmp_path, doc)]) == 0
    assert all(row["pass"] for row in json.loads(capsys.readouterr().out))


def test_tabulated_domain_must_be_its_tables(tmp_path, capsys):
    """A tabulated model's domain is its first and last node; a document
    that declares another one is refused (exit 2), not run on the table's."""
    doc = _tabulated_doc(31)
    doc["model"].update(t_min=-5.0, t_max=40.0)
    assert main(["verify", _write(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == ("error: model declares the time domain [-5.0, 40.0], "
                                       "but its table spans [0.0, 6.0]\n")


_SHO = {"family": "UnitMassSHO", "t_min": -1.0, "t_max": 12.0}


@pytest.mark.parametrize("overrides,where", [
    ({"model": {**_SHO, "params": {}}}, "'w_s' is a required property"),
    ({"model": {**_SHO, "params": {"w_s": [1]}}}, "[1] is not of type 'number'"),
    ({"model": {"family": "CaldirolaKanai", "params": {"m": 1.0, "w1": 1.0},
                "t_min": -1.0, "t_max": 12.0}}, "'gamma' is a required property"),
    ({"model": {"family": "GeneralParametric", "params": {"t": [0, 1, 2, 3]},
                "t_min": 0.0, "t_max": 3.0}}, "'M' is a required property"),
    ({"driving": {"force": {"kind": "cosine", "omega": 2.0}}},
     "'amplitude' is a required property"),
    ({"driving": {"force": {"kind": "expcosine", "amplitude": 1.0, "omega": 1.0}}},
     "'rate' is a required property"),
    ({"driving": {"force": {"kind": "polynomial", "coeffs": []}}}, "[] should be non-empty"),
    ({"grid": {"x_min": -8.0}}, "'x_max' is a dependency of 'x_min'"),
    ({"grid": {"x_max": 8.0}}, "'x_min' is a dependency of 'x_max'"),
    ({"driving": {"force": {"kind": "cosine", "amplitude": 1.0, "omega": 2.0,
                            "phase": "abc"}}},
     "at $.driving.force.phase: 'abc' is not of type 'number'"),
], ids=["no_params", "w_s_list", "ck_no_gamma", "general_no_M", "cosine_no_amplitude",
        "expcosine_no_rate", "polynomial_no_coeffs", "x_min_alone", "x_max_alone",
        "cosine_phase_not_a_number"])
def test_malformed_scenario_is_schema_error(tmp_path, capsys, overrides, where):
    """Missing or mistyped family parameters and force keys, and half a grid
    span, are refused by the schema (exit 2), not by a KeyError or TypeError."""
    assert main(["verify", _write(tmp_path, _scenario_doc(**overrides))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: scenario schema violation") and where in err


def test_build_context_explicit_grid_too_small(tmp_path):
    doc = _scenario_doc(grid={"x_min": -2.0, "x_max": 2.0, "points": 256})
    with pytest.raises(ScenarioError, match="too small"):
        build_context(load_scenario(_write(tmp_path, doc)))


@pytest.mark.parametrize("grid,conflict", [
    ({"policy": True, "x_min": -3.0, "x_max": 3.0}, "policy: true contradicts"),
    ({"policy": False}, "policy: false needs x_min and x_max"),
    ({"x_min": -8.0, "x_max": 8.0, "pad": 8.0}, "pad sizes the policy grid"),
], ids=["policy_with_bounds", "no_policy_no_bounds", "pad_with_bounds"])
def test_a_grid_section_that_contradicts_itself_is_refused(tmp_path, capsys, grid,
                                                           conflict):
    """Explicit bounds give an explicit grid, no bounds the policy grid sized
    by pad; a section that asks for both, or for neither, exits 2.  On its
    own, [-3, 3] is refused as too small for sho_c1."""
    doc = load_scenario("sho_c1")
    doc["grid"], doc["checks"] = grid, ["residual"]
    assert main(["verify", _write(tmp_path, doc)]) == 2
    assert conflict in capsys.readouterr().err


def test_classical_has_no_samples_option(tmp_path, capsys):
    """The trajectory CSVs have a fixed 201 rows."""
    with pytest.raises(SystemExit) as exit_:
        main(["classical", "sho_c1", "--out", str(tmp_path), "--samples", "5"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --samples 5" in capsys.readouterr().err


def test_build_context_driving(tmp_path):
    doc = _scenario_doc(driving={
        "force": {"kind": "cosine", "amplitude": 1.0, "omega": 2.0, "phase": 0.0},
        "xp0": -1.0 / 3.0, "dxp0": 0.0, "t0": 0.0, "tol": 1e-11,
    })
    ctx = build_context(load_scenario(_write(tmp_path, doc)))
    assert ctx.driven is not None
    assert ctx.model.has_driving
    assert ctx.driven.slice(0.0)[0] == pytest.approx(-1.0 / 3.0)


# ---------------------------------------------------------------------------
# commands and exit codes
# ---------------------------------------------------------------------------

def test_version_command(capsys):
    assert main(["version"]) == 0
    from tdho import __version__
    assert __version__ in capsys.readouterr().out


def test_verify_fast_passes_bundled(capsys):
    rc = main(["verify", "sho_c1", "--suite", "fast"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "checks passed" in captured.err
    report = json.loads(captured.out)
    assert all(r["pass"] for r in report)


def test_verify_negative_control_fails():
    assert main(["verify", "negative_control", "--suite", "fast"]) == 1


def test_a_scenario_cannot_set_its_own_threshold(tmp_path, capsys):
    """A negative control that loosens its residual bar to 1.0 would pass;
    the check list holds names only, so it is refused as a schema error."""
    doc = json.loads(Path(scenario_path("negative_control")).read_text(encoding="utf-8"))
    doc["checks"] = [{"name": "residual", "tolerance": 1.0}]
    assert main(["verify", _write(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == (
        "error: scenario schema violation at $.checks[0]: "
        "{'name': 'residual', 'tolerance': 1.0} is not of type 'string'\n")


def test_driven_ck_interpolated_chain_passes_at_n12():
    """The chain on samples (check_transform_equivalence, the oracle of
    acceptance criterion 3a) keeps inside criterion 3a's 1e-6 at n = 12 on
    the bundled driven_ck scenario's grid and times; a natural cubic spline
    read reaches 2.4e-6."""
    doc = load_scenario("driven_ck")
    doc["states"] = [12]
    ctx = build_context(doc)
    interp = [tdho.verify.check_transform_equivalence(ctx.basis, ctx.driven, 12, t, ctx.grid)
              for t in ctx.times]
    assert len(interp) == 3 and max(interp) < 1e-6


@pytest.mark.parametrize("points", [64, 96, 128, 192, 256, 4096])
@pytest.mark.parametrize("name", ["driven_sho", "driven_ck"])
def test_uncertainty_is_correct_or_refused_at_any_grid_size(tmp_path, capsys, name,
                                                            points):
    """The spectral moments on the scenario's own grid either certify every
    row to rounding (exit 0) or refuse the grid as not resolved (exit 2);
    a coarse grid never reads as a failed check (exit 1)."""
    doc = load_scenario(name)
    doc["checks"] = ["uncertainty"]
    doc["grid"]["points"] = points
    rc = main(["verify", _write(tmp_path, doc)])
    captured = capsys.readouterr()
    if rc == 2:
        assert captured.err.startswith("numerical error: moments: state not resolved")
        assert "not resolved" in captured.err
        assert points < 4096
    else:
        assert rc == 0, captured.err
        rows = json.loads(captured.out)
        assert len(rows) == 12 and max(r["measured"] for r in rows) <= 1e-13


@pytest.mark.parametrize("points", [17, 64, 96, 128])
def test_orthonormality_is_correct_or_refused_on_a_coarse_grid(tmp_path, capsys,
                                                                points):
    """Plain sums on the scenario's own grid: a grid too coarse for the
    states up to orthonormality's nmax is refused with exit 2; at 128 points
    the orthonormality row is certified."""
    doc = load_scenario("sho_c1")
    doc["grid"] = {"policy": True, "points": points}
    rc = main(["verify", _write(tmp_path, doc)])
    captured = capsys.readouterr()
    if points < 128:
        assert rc == 2 and "not resolved" in captured.err
        assert captured.err.startswith("numerical error: orthonormality: state not resolved")
    else:
        [row] = [r for r in json.loads(captured.out) if r["check"] == "orthonormality"]
        assert row["pass"] and row["measured"] <= 1e-13


def test_one_sample_time_at_the_end_of_the_domain(tmp_path, capsys):
    """The policy grid of a single sample time is sized at that time alone,
    so at t_max it reads no trajectory past the integrated span."""
    doc = load_scenario("lo")
    doc["times"] = [doc["model"]["t_max"]]
    doc["checks"] = ["orthonormality"]
    rc = main(["verify", _write(tmp_path, doc)])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    [row] = json.loads(captured.out)
    assert row["pass"] and row["measured"] <= 1e-13


def test_residual_names_its_stencil_when_it_leaves_the_domain(tmp_path, capsys):
    """t = 11.99 lies inside lo's domain [-1, 12], but the residual's stencil
    reaches t + 4dt past its end: the refusal (exit 2) names the check, t,
    dt, the stencil's reach and the domain."""
    doc = load_scenario("lo")
    doc["times"], doc["checks"] = [11.99], ["residual"]
    assert main(["verify", _write(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    for words in ("residual at t = 11.99", "stencil reaches t ± 4dt = [11.97",
                  "with dt = 0.00", "domain [-1.0, 12.0]"):
        assert words in err, err


OUT_OF_DOMAIN = "configuration error: t outside model domain [-1.0, 12.0]: 50.0\n"


def _never_solved(monkeypatch):
    """Make the basis and particular solves that tdho.cli calls fail the test."""
    def solve(*args, **kwargs):
        raise AssertionError("a trajectory was solved before the domain check")

    for name in ("solve_homogeneous", "solve_particular"):
        monkeypatch.setattr(tdho.cli, name, solve)


@pytest.mark.parametrize("command", ["verify", "state", "classical"])
@pytest.mark.parametrize("name", ["sho_c1", "ck", "lo", "driven_sho", "driven_ck"])
def test_a_time_outside_the_domain_is_refused_before_any_solve(tmp_path, capsys,
                                                              monkeypatch, name, command):
    """A sample time past the model's domain [-1, 12] is a configuration
    error (exit 2) that names it, on every family and command: build_context
    refuses it before the basis or the particular solution is solved, and
    nothing is written."""
    _never_solved(monkeypatch)
    doc = load_scenario(name)
    doc["times"] = [0.0, 50.0]
    out = tmp_path / "out"
    argv = [command, _write(tmp_path, doc)]
    assert main(argv if command == "verify" else [*argv, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", OUT_OF_DOMAIN)
    assert not out.exists()


@pytest.mark.parametrize("grid, suite", [
    ({"x_min": -3, "x_max": 3, "points": 4096}, "full"),
    ({"policy": True}, "fast"),
], ids=["grid_too_small_at_0", "past_the_fast_suite_times"])
def test_the_domain_refusal_comes_first(tmp_path, capsys, grid, suite):
    """The domain refusal wins over a grid too small at an earlier time (on
    [-3, 3], sho_c1 is refused at t = 0), and covers the times that
    --suite fast does not sample (its first three)."""
    doc = load_scenario("sho_c1")
    doc["grid"] = grid
    doc["times"] = [0.0, 1.0, 2.5, 50.0]
    assert main(["verify", _write(tmp_path, doc), "--suite", suite]) == 2
    assert capsys.readouterr().err == OUT_OF_DOMAIN


def test_state_refuses_a_t_outside_the_domain(tmp_path, capsys, monkeypatch):
    """tdho state --t replaces the scenario's times, and a --t time past the
    domain is refused as a scenario time is."""
    _never_solved(monkeypatch)
    out = tmp_path / "out"
    assert main(["state", "sho_c1", "--t", "50", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", OUT_OF_DOMAIN)
    assert not out.exists()


@pytest.mark.parametrize("t", ["nan", "inf"])
def test_state_refuses_a_non_finite_t(tmp_path, capsys, monkeypatch, t):
    """A non-finite --t is never inside the domain: the domain check refuses
    it, naming the time and the domain, before anything is solved."""
    _never_solved(monkeypatch)
    out = tmp_path / "out"
    assert main(["state", "sho_c1", "--t", t, "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", f"configuration error: t outside model domain [-1.0, 12.0]: {t}\n")
    assert not out.exists()


def test_verify_leaves_scipy_interpolate_unimported(tmp_path):
    """No command imports scipy, a cold `tdho verify` of a tabulated model
    included, and none imports jsonschema, tdho.ode or its DOP853 tableau."""
    src = str(Path(tdho.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for argv in (["verify", "driven_ck", "--suite", "fast", "--out",
                  str(tmp_path / "report.json")],
                 ["verify", _write(tmp_path, _tabulated_doc(31)), "--suite", "fast"],
                 ["state", "ck", "--out", str(tmp_path / "state")],
                 ["classical", "lo", "--out", str(tmp_path / "classical")]):
        code = (
            "import sys\n"
            "from tdho.cli import main\n"
            f"rc = main({argv!r})\n"
            "print(rc, 'scipy.interpolate' in sys.modules, 'scipy' in sys.modules,\n"
            "      'jsonschema' in sys.modules, 'tdho.ode' in sys.modules,\n"
            "      'tdho._dop853' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=300)
        # `state` and `classical` list the files they write before the flags
        assert proc.stdout.splitlines()[-1].split() == ["0"] + ["False"] * 5, \
            (argv, proc.stderr)


@pytest.mark.parametrize("error", [QuadratureError])
def test_verify_numerical_error_exit_2(monkeypatch, capsys, error):
    def failing_solve(*args, **kwargs):
        raise error("step size underflow")

    monkeypatch.setattr(tdho.classical, "_collocate", failing_solve)
    assert main(["verify", "lo", "--suite", "fast"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and err.count("\n") == 1


def test_a_basis_its_panels_cannot_resolve_exits_2(monkeypatch, capsys):
    """At a frequency scale of 1e-3 the basis's panels span [-1, 0] and
    [0, 12]: the collocation guard refuses the second, a numerical error."""
    monkeypatch.setattr(tdho.classical, "frequency_scale", lambda model: 1e-3)
    assert main(["verify", "lo"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical error: basis not resolved on [0.0, 12.0]"), err


def test_a_basis_that_overflows_exits_2_without_a_warning(tmp_path, capsys):
    """M = 1, w^2 = -1e4 on [0, 10]: x grows as e^{100 t}, every panel is
    resolved, and the chained values overflow near t = 7.06.  The refusal
    names that panel, and no numpy warning reaches the user."""
    ts = np.linspace(0.0, 10.0, 11)
    model = {"family": "GeneralParametric", "t_min": 0.0, "t_max": 10.0,
             "params": {"t": ts.tolist(), "M": np.ones(11).tolist(),
                        "dM": np.zeros(11).tolist(), "d2M": np.zeros(11).tolist(),
                        "w2": np.full(11, -1e4).tolist()}}
    doc = _scenario_doc(model=model, basis={"kind": "numeric", "ics": [1.0, 0.0, 0.0, 1.0]},
                        checks=["omega_constancy"])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["verify", _write(tmp_path, doc)]) == 2
    assert caught == []
    assert capsys.readouterr().err == "numerical error: basis not finite on [7.055, 7.06]\n"


def test_a_crash_exits_3_not_1(monkeypatch, capsys):
    """An exception that no refusal names is an internal error, exit 3, with
    its traceback: exit 1 stays a failed check.  argparse's own exit is left
    alone."""
    def crash(ctx, rows):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setitem(tdho.verify._CHECK_RUNNERS, "residual", crash)
    assert main(["verify", "sho_c1", "--suite", "fast"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("Traceback") and "in crash\n" in err
    assert err.endswith("\ninternal error: ZeroDivisionError: float division by zero\n")
    with pytest.raises(SystemExit) as info:
        main(["verify"])
    assert info.value.code == 2


def _zero_window(spec, grid, t, orders):
    """state_window's zero rows on the whole grid (offset 0): (len(orders),
    points) at a scalar t, one such block per time for a sequence of times."""
    return GridFunction(grid, np.zeros(np.shape(t) + (len(orders), grid.points)), t)


def test_verify_degenerate_state_is_numerical_error(monkeypatch, capsys):
    """A zero state refused by the residual check is labelled numerical, not
    configuration."""
    monkeypatch.setattr(tdho.verify, "state_window", _zero_window)
    assert main(["verify", "sho_c1", "--suite", "fast"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and "zero or not finite" in err


def test_verify_zero_state_in_the_chain_is_numerical_error(tmp_path, monkeypatch,
                                                           capsys):
    """The suite's transform chain refuses a zero state with exit 2."""
    monkeypatch.setattr(tdho.verify, "state_window", _zero_window)
    path = _write(tmp_path, _scenario_doc(checks=["transform_chain"]))
    assert main(["verify", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and "chain distance is undefined" in err


def test_verify_writes_report_file(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["verify", "sho_c1", "--suite", "fast", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert {r["check"] for r in report} >= {"residual"}


@pytest.mark.parametrize("argv", [
    ["verify", "sho_c1", "--suite", "fast", "--out", "{tmp}/missing/r.json"],
    ["verify", "sho_c1", "--suite", "fast", "--out", "{tmp}/file/r.json"],
    ["state", "sho_c1", "--t", "0", "--out", "{tmp}/file"],
    ["classical", "sho_c1", "--out", "{tmp}/file"],
], ids=["verify_missing_dir", "verify_under_file", "state_onto_file",
        "classical_onto_file"])
def test_unwritable_output_is_config_error(tmp_path, capsys, argv):
    """An output path that cannot be written exits 2 with one error line."""
    (tmp_path / "file").write_text("")
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1
    assert str(tmp_path) in err


def test_verify_unknown_check_is_config_error(tmp_path, capsys):
    path = _write(tmp_path, _scenario_doc(checks=["bogus"]))
    assert main(["verify", path]) == 2
    assert "unknown check" in capsys.readouterr().err


def test_verify_schema_error_exit_2(tmp_path, capsys):
    doc = _scenario_doc()
    doc["basis"]["kind"] = "mystery"
    assert main(["verify", _write(tmp_path, doc)]) == 2


def test_verify_no_checks_exit_2(tmp_path):
    doc = _scenario_doc()
    del doc["checks"]
    assert main(["verify", _write(tmp_path, doc)]) == 2


def test_state_outputs_are_deterministic(tmp_path, capsys):
    outs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        assert main(["state", "sho_c1", "--t", "0", "--out", str(d)]) == 0
        outs.append((d / "state_n0_t0.csv").read_bytes())
    assert outs[0] == outs[1]
    capsys.readouterr()


def test_state_ground_state_samples(tmp_path, capsys):
    d = tmp_path / "out"
    assert main(["state", "sho_c1", "--t", "0", "--out", str(d)]) == 0
    capsys.readouterr()
    data = np.loadtxt(d / "state_n0_t0.csv", delimiter=",", skiprows=1)
    x, re, im = data[:, 0], data[:, 1], data[:, 2]
    np.testing.assert_allclose(re, np.pi**-0.25 * np.exp(-(x**2) / 2.0),
                               atol=1e-14)
    np.testing.assert_allclose(im, 0.0, atol=1e-14)
    sidecar = json.loads((d / "state_n0_t0.csv.json").read_text())
    assert sidecar["hbar"] == 1.0
    assert sidecar["scenario"] == "sho_c1"


def _pushed_state_doc(**overrides):
    """A ground state pushed by a constant force from x_p = 0 at t = 0 to
    x_p = 10 at t = pi, sampled at t = 0 only."""
    return _scenario_doc(driving={"force": {"kind": "constant", "F0": 5.0}, "t0": 0.0},
                         times=[0.0], **overrides)


def test_state_at_other_times_sizes_the_grid_for_them(tmp_path, capsys):
    """tdho state --t sizes the policy grid for the times it writes, so each
    written state keeps its norm there."""
    d = tmp_path / "out"
    path = _write(tmp_path, _pushed_state_doc())
    assert main(["state", path, "--t", "3.14159", "--out", str(d)]) == 0
    capsys.readouterr()
    for n in (0, 1):
        data = np.loadtxt(d / f"state_n{n}_t3.14159.csv", delimiter=",", skiprows=1)
        x, abs2 = data[:, 0], data[:, 3]
        assert abs(np.sum(abs2) * (x[1] - x[0]) - 1.0) < 1e-12


def test_state_at_other_times_refuses_a_grid_too_small_for_them(tmp_path, capsys):
    """An explicit grid that holds the state at the scenario's times but not
    at the --t times is refused (exit 2), not written."""
    d = tmp_path / "out"
    doc = _pushed_state_doc(states=[0], grid={"x_min": -10.0, "x_max": 10.0})
    assert main(["state", _write(tmp_path, doc), "--t", "3.14159", "--out", str(d)]) == 2
    assert "too small" in capsys.readouterr().err
    assert not d.exists()


def test_state_refuses_two_times_that_name_one_file(tmp_path, capsys):
    """Two --t times that format alike (%g) would write the same files: the
    run is refused (exit 2) with both times and the file named, and nothing
    is written."""
    d = tmp_path / "out"
    assert main(["state", "sho_c1", "--t", "1.0", "1.0000001", "--out", str(d)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        f"error: times 1.0 and 1.0000001 both write {d / 'state_n0_t1.csv'}; give "
        "times that differ in their first 6 significant digits\n")
    assert not d.exists()


def _grid_ending_on_the_node_doc(tmp_path):
    """The pushed ground and first excited states at t = pi on a grid that
    ends at x_p(pi): half of each state lies past the edge, and the edge
    sample itself sits on psi_1's node at its centre."""
    doc = {**_pushed_state_doc(), "times": [math.pi]}
    x_end = float(build_context(load_scenario(_write(tmp_path, doc)))
                  .driven.slice(math.pi)[0])
    assert abs(x_end - 10.0) < 1e-6
    return {**doc, "grid": {"x_min": -10.0, "x_max": x_end}}


@pytest.mark.parametrize("argv", [["state", "--t", repr(math.pi)], ["verify"]],
                         ids=["state", "verify_residual"])
def test_a_node_on_the_edge_does_not_hide_a_leaking_grid(tmp_path, capsys, argv):
    """The grid is judged by the two outermost samples at either end, so a
    state whose edge sample falls on its node is still refused (exit 2)."""
    doc = _grid_ending_on_the_node_doc(tmp_path)
    assert doc["checks"] == ["residual"]
    d = tmp_path / "out"
    command, *options = argv
    assert main([command, _write(tmp_path, doc), *options, "--out", str(d)]) == 2
    assert "too small" in capsys.readouterr().err
    assert not d.exists()


# ---------------------------------------------------------------------------
# the grid guard reads only where neither its bound nor the cutoff window
# clears the edges
# ---------------------------------------------------------------------------

@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(family=st.sampled_from(["sho", "ck", "driven_ck"]), n=st.integers(0, 64),
       hbar=st.floats(0.3, 3.0), t=st.floats(-0.5, 11.5), C=st.floats(0.5, 2.0),
       centre=st.floats(-20.0, 20.0), half=st.floats(0.5, 90.0),
       points=st.integers(16, 700))
def test_a_time_the_guard_skips_has_a_zero_edge_ratio(driven_ck, family, n, hbar, t,
                                                      C, centre, half, points):
    """Whenever the grid guard does not read a time, the whole-grid read it
    skips is far below the bar (_a_skip_is_sound): over grids, times,
    orders, hbar and pulsation parameters of a breathing, an
    exponential-mass and a driven state."""
    if family == "driven_ck":
        basis, driven = driven_ck
    elif family == "sho":
        model = CaldirolaKanai(1.0, 0.0, 1.0, t_min=-1.0, t_max=12.0)
        basis, driven = analytic_basis_sho(model, C, 1.0), None
    else:
        basis = analytic_basis_ck(CaldirolaKanai(1.0, 0.6, 1.0, t_min=-1.0, t_max=12.0), C, 1.0)
        driven = None
    _a_skip_is_sound(StateSpec(n, hbar, basis, driven), Grid(centre - half, centre + half,
                                                             points), t)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(family=st.sampled_from(["sho", "ck", "driven_ck"]), n=st.integers(0, 64),
       hbar=st.floats(0.3, 3.0), t=st.floats(-0.5, 11.5), C=st.floats(0.5, 2.0),
       centre=st.floats(-5.0, 5.0), half=st.floats(4.0, 40.0),
       points=st.integers(256, 2048))
def test_a_time_the_guard_bound_passes_is_far_below_the_bar(driven_ck, family, n, hbar, t,
                                                             C, centre, half, points):
    """The skip test's claim on grids fine enough for the guard's bound
    (scale dx sqrt(2n + 1) <= 0.8) to pass most times that reach the cutoff
    window at LOG_FLOOR."""
    _a_skip_is_sound(_guard_spec(driven_ck, family, n, hbar, C),
                     Grid(centre - half, centre + half, points), t)


def _a_skip_is_sound(spec, grid, t):
    """If the grid guard does not read spec on grid at time t: where the
    cutoff window at LOG_FLOOR holds none of the four edge samples, the
    whole-grid _edge_ratio is exactly 0.0; otherwise the guard's bound
    passed the time, its READ_DEPTH window (state_window) reads exact zeros
    at the edges, and the whole grid's ratio is below 2e-16."""
    if _guard_reads(spec, grid, t):
        event("read")
        return
    xs = grid.xs()
    ratio = _edge_ratio(state_field(spec)(xs, t))
    a, b = cutoff_window(xs, spec.n, *_slice_params(spec, t)[1:3])
    edges = list(_edge_columns(grid.points))
    if not any(a <= c < b for c in edges):
        event("skipped: no edge in the cutoff window")
        assert ratio == 0.0
    else:
        event("skipped by the bound")
        assert not state_window(spec, grid, t, [spec.n]).columns()[..., edges].any()
        assert ratio < 2e-16


def _guard_reads(spec, grid, t):
    """Whether the grid guard reads state spec on grid at time t."""
    ctx = SimpleNamespace(state=lambda _: spec, ns=[spec.n], grid=grid, times=[t])
    with pytest.MonkeyPatch.context() as patch:
        reads = _counting_reads(patch)
        with suppress(ScenarioError):
            _validate_grid(ctx)
    return bool(reads)


def test_the_guard_skips_a_time_by_single_columns(driven_ck):
    """Grids whose ends sweep across the ends of a driven state's cutoff
    window, a tenth of a column at a time, start the window on column 1 and
    2 and end it on column P-1 and P-2: the guard reads the first and the
    last and skips the other two, and every time it skips has a zero edge
    ratio."""
    spec, t, points = StateSpec(8, 1.0, *driven_ck), 1.3, 64
    ref = Grid(-60.0, 60.0, 120001).xs()
    a, b = cutoff_window(ref, spec.n, *_slice_params(spec, t)[1:3])
    assert 0 < a < b < len(ref)
    left, right = ref[a], ref[b - 1]
    dx = (right - left) / (points - 11)
    width = dx * (points - 1)
    seen = {}
    for shift in np.linspace(-4.0, 4.0, 81) * dx:
        for grid in (Grid(left + shift, left + shift + width, points),
                     Grid(right + shift - width, right + shift, points)):
            read = _guard_reads(spec, grid, t)
            if not read:
                assert _edge_ratio(state_field(spec)(grid.xs(), t)) == 0.0
            lo, hi = cutoff_window(grid.xs(), spec.n, *_slice_params(spec, t)[1:3])
            seen.setdefault(("a", lo), set()).add(read)
            seen.setdefault(("b", points - hi), set()).add(read)
    assert seen[("a", 1)] == {True} and seen[("a", 2)] == {False}
    assert seen[("b", 1)] == {True} and seen[("b", 2)] == {False}


def _counting_reads(monkeypatch):
    """Patch tdho.states.state_kernel_window, the kernel read the grid guard
    decides a time by, to count its calls."""
    calls = []
    kernel = tdho.states.state_kernel_window

    def counting(*args, **kwargs):
        calls.append(args)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(tdho.states, "state_kernel_window", counting)
    return calls


def test_the_high_order_benchmark_documents_build_without_a_read(monkeypatch):
    """The benchmark's high_n_states documents of seeds 1 to 7 (orders up to
    64 on the policy grid) keep every cutoff window inside the grid's edges:
    build_context validates their grids without one kernel read.  So does
    sho_c1, whose three times the guard's bound passes."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    worker = importlib.import_module("worker")
    calls = _counting_reads(monkeypatch)
    for seed in range(1, 8):
        for doc in worker.high_n_documents(random.Random(f"{seed}/documents")):
            build_context(doc)
    assert calls == []
    build_context(load_scenario("sho_c1"))
    assert calls == []


def test_a_grid_too_small_for_sho_c1_is_refused_with_its_ratio(tmp_path, capsys):
    """sho_c1 on the explicit grid [-3, 3] is read at t = 0 and refused
    (exit 2) with the boundary ratio its edges read."""
    doc = load_scenario("sho_c1")
    doc["grid"] = {"x_min": -3, "x_max": 3, "points": 4096}
    assert main(["verify", _write(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == (
        "error: grid Grid(x_min=-3.0, x_max=3.0, points=4096) too small for n=3 "
        "at t=0.0: boundary ratio 3.70e-01\n")


def _guard_verdict_is_the_whole_grids(spec, grid, t):
    """The grid guard refuses spec on grid at time t exactly when the
    whole-grid read state_field(spec)(grid.xs(), t) reaches BOUNDARY_RATIO
    at its edges, with that read's ratio in its message; the ratio."""
    ratio = _edge_ratio(state_field(spec)(grid.xs(), t))
    ctx = SimpleNamespace(state=lambda _: spec, ns=[spec.n], grid=grid, times=[t])
    if ratio < BOUNDARY_RATIO:
        _validate_grid(ctx)
        return ratio
    with pytest.raises(ScenarioError) as refused:
        _validate_grid(ctx)
    assert str(refused.value) == (
        f"grid {grid} too small for n={spec.n} at t={t}: boundary ratio {ratio:.2e}")
    return ratio


def _guard_spec(driven_ck, family, n, hbar, C):
    """Order n at hbar of a breathing (C), an exponential-mass (C) or the
    driven_ck fixture's state."""
    if family == "driven_ck":
        return StateSpec(n, hbar, *driven_ck)
    if family == "sho":
        model = CaldirolaKanai(1.0, 0.0, 1.0, t_min=-1.0, t_max=12.0)
        return StateSpec(n, hbar, analytic_basis_sho(model, C, 1.0))
    model = CaldirolaKanai(1.0, 0.6, 1.0, t_min=-1.0, t_max=12.0)
    return StateSpec(n, hbar, analytic_basis_ck(model, C, 1.0))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(family=st.sampled_from(["sho", "ck", "driven_ck"]), n=st.integers(0, 64),
       hbar=st.floats(0.3, 3.0), t=st.floats(-0.5, 11.5), C=st.floats(0.5, 2.0),
       centre=st.floats(-20.0, 20.0), half=st.floats(0.5, 90.0),
       points=st.integers(16, 700))
def test_the_guard_refuses_exactly_where_the_whole_grid_does(driven_ck, family, n, hbar,
                                                             t, C, centre, half, points):
    """The guard decides a time it reads from its cutoff window at
    LOG_FLOOR: over the draws of the skip test, it refuses exactly the
    grids whose whole-grid read reaches BOUNDARY_RATIO, with that read's
    ratio."""
    spec = _guard_spec(driven_ck, family, n, hbar, C)
    ratio = _guard_verdict_is_the_whole_grids(spec, Grid(centre - half, centre + half,
                                                         points), t)
    event(f"refused: {ratio >= BOUNDARY_RATIO}")


@pytest.mark.parametrize("family", ["sho", "ck", "driven_ck"])
@pytest.mark.parametrize("n", [0, 12])
def test_the_guard_decides_at_the_bar_as_the_whole_grid(driven_ck, family, n):
    """Grids whose width brings the whole-grid edge ratio within a factor
    of 3 of BOUNDARY_RATIO, on both sides of it: the guard refuses exactly
    where the whole grid reaches the bar."""
    spec = _guard_spec(driven_ck, family, n, 1.0, 1.3)
    t = 4.1

    def ratio(half):
        return _edge_ratio(state_field(spec)(Grid(0.2 - half, 0.2 + half, 301).xs(), t))

    lo, hi = 1.0, 40.0  # the bar is crossed between these half-widths
    assert ratio(lo) >= BOUNDARY_RATIO > ratio(hi)
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if ratio(mid) >= BOUNDARY_RATIO else (lo, mid)
    ratios = [_guard_verdict_is_the_whole_grids(spec, Grid(0.2 - half, 0.2 + half, 301), t)
              for half in np.linspace(0.97, 1.03, 61) * hi]
    near = [r for r in ratios if BOUNDARY_RATIO / 3 < r < 3 * BOUNDARY_RATIO]
    assert min(near) < BOUNDARY_RATIO <= max(near)


def test_a_bundled_build_reads_its_slices_once_and_never_the_whole_grid(monkeypatch):
    """Each bundled scenario's build reads the kernel columns of all its
    times in one stacked _slice_params call, and the grid guard reads no
    time at all: its bound passes every bundled time."""
    reads = _counting_reads(monkeypatch)
    stacks = []
    params = tdho.states._slice_params

    def counting(spec, t):
        stacks.append(t)
        return params(spec, t)

    monkeypatch.setattr(tdho.states, "_slice_params", counting)
    for name in BUNDLED:
        reads.clear()
        stacks.clear()
        ctx = build_context(load_scenario(name))
        assert stacks == [ctx.times], name
        assert reads == [], name


@pytest.mark.parametrize("bounds, points", [((-12.0, 12.0), 64), ((-8.0, 8.0), 4096)],
                         ids=["coarse", "edge_in_read_window"])
def test_a_time_the_bound_does_not_cover_is_read_as_before(monkeypatch, bounds, points):
    """sho_c1's order 3 on a grid whose spacing fails the guard's bound
    (scale dx sqrt(2n + 1) about 1.0 on 64 points over [-12, 12]), or whose
    edge columns lie inside its READ_DEPTH window ([-8, 8]), is read at each
    of its times: one read of order 3 on the whole grid's points, to
    LOG_FLOOR, and the verdict is the whole grid's."""
    spec = build_context(load_scenario("sho_c1")).state(3)
    grid = Grid(*bounds, points)
    xs, edges = grid.xs(), _edge_columns(points)
    reads = _counting_reads(monkeypatch)
    for t in (0.0, 1.0, 2.5):
        _, scale, x_shift = _slice_params(spec, t)[:3]
        a, b = cutoff_window(xs, 3, scale, x_shift, READ_DEPTH)
        assert (scale * grid.dx * math.sqrt(7) > 0.8
                or any(a <= c < b for c in edges)), (bounds, t)
        _guard_verdict_is_the_whole_grids(spec, grid, t)
        reads.clear()
        with suppress(ScenarioError):
            _validate_grid(SimpleNamespace(state=lambda _: spec, ns=[3], grid=grid,
                                           times=[t]))
        assert len(reads) == 1, (bounds, t)
        np.testing.assert_array_equal(reads[0][0], xs)
        assert reads[0][1] == [3]


def test_a_bundled_run_leaves_numpy_ma_unimported():
    """Building and verifying the bundled scenarios in a fresh process
    imports no numpy.ma, which np.unique and np.union1d import on their
    first call and which adds to a process's peak RSS."""
    src = str(Path(tdho.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "from tdho.cli import build_context, load_scenario\n"
        "from tdho.scenarios import BUNDLED\n"
        "from tdho.verify import run_suite\n"
        "for name in BUNDLED:\n"
        "    doc = load_scenario(name)\n"
        "    run_suite(build_context(doc), doc['checks'])\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.stdout.split() == ["False"], proc.stderr


def test_classical_outputs(tmp_path, capsys):
    d = tmp_path / "out"
    assert main(["classical", "driven_sho", "--out", str(d)]) == 0
    capsys.readouterr()
    basis = np.loadtxt(d / "driven_sho_basis.csv", delimiter=",", skiprows=1)
    np.testing.assert_allclose(basis[:, 5], 1.0, rtol=1e-12)  # omega_check
    driven = np.loadtxt(d / "driven_sho_driven.csv", delimiter=",", skiprows=1)
    t, xp = driven[:, 0], driven[:, 1]
    np.testing.assert_allclose(xp, -np.cos(2 * t) / 3.0, atol=1e-9)
