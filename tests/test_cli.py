"""Command-line interface: scenarios, exit codes, deterministic outputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tdho
import tdho.classical
import tdho.verify
from tdho.classical import QuadratureError
from tdho.cli import ScenarioError, build_context, load_scenario, main
from tdho.ode import ODEError
from tdho.scenarios import BUNDLED, scenario_path


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
    ({"family": "UnitMassSHO", "params": {"w_s": 1.0}}, "ck"),
    ({"family": "CaldirolaKanai", "params": {"m": 1.0, "gamma": 0.6, "w1": 1.0}},
     "lo"),
], ids=["ck_on_sho", "lo_on_ck"])
def test_closed_form_of_another_family_is_config_error(tmp_path, capsys, model, kind):
    """closed_form.kind must name the model's own family."""
    model.update(t_min=-1.0, t_max=12.0)
    doc = _scenario_doc(model=model, basis={"kind": "numeric",
                                            "ics": [1.0, 0.0, 0.0, 1.0]},
                        closed_form={"kind": kind, "Ccoef": 1.0},
                        checks=["closed_form_agreement"])
    assert main(["verify", _write(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: closed_form kind {kind!r}") and err.count("\n") == 1


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
], ids=["no_params", "w_s_list", "ck_no_gamma", "general_no_M", "cosine_no_amplitude",
        "expcosine_no_rate", "polynomial_no_coeffs", "x_min_alone", "x_max_alone"])
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


def test_driven_ck_interpolated_chain_passes_at_n12():
    """The interpolated chain of the bundled driven_ck scenario keeps inside
    its 1e-6 gate at n = 12; a natural cubic spline read reaches 2.4e-6."""
    doc = load_scenario("driven_ck")
    doc["states"] = [12]
    results = tdho.verify.run_suite(build_context(doc), ["transform_chain"])
    interp = [r.measured for r in results if r.params["path"] == "interp"]
    assert len(interp) == 3 and max(interp) < 1e-6


def test_verify_leaves_scipy_interpolate_unimported(tmp_path):
    """A cold `tdho verify` of a chain scenario imports no scipy.interpolate."""
    report = str(tmp_path / "report.json")
    code = (
        "import sys\n"
        "from tdho.cli import main\n"
        f"rc = main(['verify', 'driven_ck', '--suite', 'fast', '--out', {report!r}])\n"
        "print(rc, 'scipy.interpolate' in sys.modules)\n"
    )
    src = str(Path(tdho.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.stdout.split() == ["0", "False"], proc.stderr


@pytest.mark.parametrize("error", [ODEError, QuadratureError])
def test_verify_numerical_error_exit_2(monkeypatch, capsys, error):
    def failing_solve(*args, **kwargs):
        raise error("step size underflow")

    monkeypatch.setattr(tdho.classical, "solve_ode", failing_solve)
    assert main(["verify", "lo", "--suite", "fast"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and err.count("\n") == 1


def _zero_block(spec, x, t, orders):
    return slice(0, len(x)), np.zeros((len(orders), len(x)), dtype=np.complex128)


def test_verify_degenerate_state_is_numerical_error(monkeypatch, capsys):
    """A zero state refused by the residual check is labelled numerical, not
    configuration."""
    monkeypatch.setattr(tdho.verify, "state_block", _zero_block)
    assert main(["verify", "sho_c1", "--suite", "fast"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and "zero or not finite" in err


def test_verify_zero_state_in_the_chain_is_numerical_error(tmp_path, monkeypatch,
                                                           capsys):
    """The suite's transform chain refuses a zero state with exit 2."""
    monkeypatch.setattr(tdho.verify, "state_block", _zero_block)
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


def test_classical_outputs(tmp_path, capsys):
    d = tmp_path / "out"
    assert main(["classical", "driven_sho", "--out", str(d)]) == 0
    capsys.readouterr()
    basis = np.loadtxt(d / "driven_sho_basis.csv", delimiter=",", skiprows=1)
    np.testing.assert_allclose(basis[:, 5], 1.0, rtol=1e-12)  # omega_check
    driven = np.loadtxt(d / "driven_sho_driven.csv", delimiter=",", skiprows=1)
    t, xp = driven[:, 0], driven[:, 1]
    np.testing.assert_allclose(xp, -np.cos(2 * t) / 3.0, atol=1e-9)
