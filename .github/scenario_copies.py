"""Verify edited copies of the bundled scenarios and check each exit code.

    python scenario_copies.py OUT_DIR TDHO_COMMAND...

Each row of COPIES names a bundled scenario (or None for the tabulated
document built here), the top-level keys it overrides (a dotted key sets a nested one),
the exit code `tdho verify` must return and a text its stderr must hold
(or None).  Every copy is written to OUT_DIR/<name>.json and verified with
TDHO_COMMAND, e.g. the installed `tdho` or `python -m tdho.cli`; stdout
is dropped, stderr and the exit code are printed.  Exits 1 if any copy
returns another code or misses its text.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from tdho.scenarios import scenario_path


def tabulated() -> dict:
    """The exact table of M = 1 + 0.3 sin t, w^2 = 1, on 31 nodes."""
    ts = np.linspace(0.0, 6.0, 31)
    return {"name": "tabulated", "hbar": 1.0,
            "model": {"family": "GeneralParametric", "t_min": 0.0, "t_max": 6.0,
                      "params": {"t": ts.tolist(), "M": (1.0 + 0.3 * np.sin(ts)).tolist(),
                                 "dM": (0.3 * np.cos(ts)).tolist(),
                                 "d2M": (-0.3 * np.sin(ts)).tolist(),
                                 "w2": np.ones_like(ts).tolist()}},
            "basis": {"kind": "numeric", "ics": [1.0, 0.0, 0.0, 1.0]},
            "states": [0, 1, 2, 3], "times": [1.0, 2.5, 4.0, 5.5],
            "grid": {"policy": True, "points": 4096, "pad": 8.0},
            "checks": ["omega_constancy", "residual", "transform_chain"]}


CK_1 = {"kind": "ck", "Ccoef": 1.0}

# (name, base scenario, overrides, exit code, stderr text)
COPIES = [
    # a tabulated model passes every row without scipy
    ("tabulated", None, {}, 0, None),
    # the paper's general case, mass and frequency both tabulated and driven:
    # every table node is an edge of the particular path's quadrature panels
    # and of the legacy delta's panels over its window
    ("tabulated_driven", None,
     {"model.params.w2": (1.0 + 0.2 * np.cos(2.0 * np.linspace(0.0, 6.0, 31))).tolist(),
      "basis.tol": 1e-11, "driving": {"force": {"kind": "cosine", "amplitude": 1.0, "omega": 1.3}},
      "checks": ["omega_constancy", "residual", "transform_chain", "uncertainty",
                 "delta_equivalence"]}, 0, None),
    # a driven scenario compares its family's closed form with the
    # undriven state over its basis
    ("driven_closed_form", "driven_ck",
     {"closed_form": CK_1, "checks": ["closed_form_agreement"]}, 0, None),
    # up to n = 16, the chain draws the companion's mapped kernel columns on
    # their cutoff window, the uncertainty rows are padded for their DFT, and
    # the closed forms compared on windows
    ("driven_ck_windows", "driven_ck",
     {"states": [0, 16], "closed_form": CK_1,
      "checks": ["transform_chain", "uncertainty", "closed_form_agreement"]}, 0, None),
    # on 512 points the chain's rows pass: each maps the companion's kernel
    # columns in closed form, so no six-point rule reads a companion the
    # physical grid does not resolve (ROADMAP item 2)
    ("driven_ck_512_chain", "driven_ck",
     {"grid.points": 512, "checks": ["transform_chain", "uncertainty"]}, 0, None),
    # U_F on a displaced, boosted state at hbar != 1: the exact chain maps
    # the companion's kernel columns through coefficients divided by hbar
    ("driven_ck_displaced", "driven_ck",
     {"hbar": 0.5, "driving.xp0": 1.0, "driving.dxp0": -0.5,
      "checks": ["transform_chain", "uncertainty"]}, 0, None),
    # the polynomial and constant forces, read from their documents as the
    # bundled scenarios read cosine and expcosine
    ("driven_polynomial", "driven_sho",
     {"driving.force": {"kind": "polynomial", "coeffs": [0.3, -0.2, 0.05]}}, 0, None),
    ("driven_constant", "driven_sho", {"driving.force": {"kind": "constant", "F0": 0.5}},
     0, None),
    # a force key that no constructor reads is refused, never dropped, and
    # an optional phase must be a number
    ("driven_force_phase_misspelt", "driven_sho", {"driving.force.phse": 0.3}, 2, "'phse'"),
    ("driven_force_phase_not_a_number", "driven_sho", {"driving.force.phase": "abc"},
     2, "scenario schema violation at $.driving.force.phase"),
    # orders up to 64 leave most of the grid exact zeros: the Gram product,
    # the closed-form distance and the stationarity drift run on the
    # states' support window
    ("sho_c1_high_n", "sho_c1",
     {"states": [0, 32, 64],
      "checks": ["closed_form_agreement", "orthonormality", "stationarity"]}, 0, None),
    # a stationary state's six stencil times share one amplitude (or two,
    # where rho rounds to 1 - 2^-53); n = 8, as the default sizing fails
    # the residual from n of about 12 up (ROADMAP item 1)
    ("sho_c1_stencils", "sho_c1", {"states": [0, 8], "checks": ["residual"]}, 0, None),
    # the grid guard passes a time unread only where the state's READ_DEPTH
    # window, or its cutoff window, misses the grid's edges: on [-3, 3] both
    # reach them, so it reads the edges and refuses
    ("sho_c1_small", "sho_c1", {"grid": {"x_min": -3, "x_max": 3, "points": 4096}},
     2, "too small for n="),
    # 64 points over [-12, 12] are too coarse for the guard's bound (scale dx
    # sqrt(2n + 1) about 1.0 > 0.8): each time is decided by one read of its
    # cutoff window and passes, and so does the closed-form agreement
    ("sho_c1_coarse", "sho_c1",
     {"grid": {"x_min": -12.0, "x_max": 12.0, "points": 64},
      "checks": ["closed_form_agreement"]}, 0, None),
    # a breathing state up to n = 64: its probe pairs are one stack
    ("sho_c2_high_n", "sho_c2",
     {"states": [0, 32, 64], "checks": ["closed_form_agreement", "stationarity"]},
     0, None),
    # stationarity applies to every constant mass: a breathing state of
    # mass 2 passes it and its closed form
    ("constant_mass", "ck",
     {"model.params": {"m": 2.0, "gamma": 0.0, "w1": 1.0},
      "basis": {"kind": "analytic_ck", "A": 2.0, "B": 1.0},
      "closed_form": {"kind": "ck", "Ccoef": 2.0},
      "checks": ["closed_form_agreement", "stationarity"]}, 0, None),
    # theta winds about 72 rad over the domain: the basis's theta, unwrapped
    # at every edge and Gauss node of its panels, agrees with the family's
    # closed form, which unwraps its own angle
    ("lo_fast_winding", "lo",
     {"model.params.w_lo": 6.0, "basis.ics": [1.0, -0.7, 0.0, 6.0],
      "closed_form": {"kind": "lo", "Ccoef": 1.0},
      "checks": ["closed_form_agreement", "omega_constancy", "frequency_map"]}, 0, None),
    # an eccentric basis, B = 0.001: theta turns about 1000 times its mean
    # rate as (u, v) crosses the minor axis, and still falls by less than
    # 2 pi between two of the basis's panel points
    ("ck_eccentric", "ck",
     {"basis.ics": [1.0, -0.3, 0.0, 0.001 * 0.91 ** 0.5],
      "closed_form": {"kind": "ck", "Ccoef": 1000.0},
      "checks": ["closed_form_agreement", "omega_constancy", "frequency_map"]}, 0, None),
    # a driven Lo model: its law in the chain, the shift rule and the legacy delta
    ("driven_lo", "lo",
     {"driving": {"force": {"kind": "cosine", "amplitude": 0.5, "omega": 1.3},
                  "xp0": 0.0, "dxp0": 0.0, "t0": 0.0, "tol": 1e-11},
      "checks": ["residual", "uncertainty", "transform_chain", "delta_equivalence",
                 "omega_constancy"]}, 0, None),
    # "sho" names the unit-mass oscillator only
    ("ck_as_sho", "ck", {"closed_form": {"kind": "sho"}}, 2, None),
    # every threshold is the certifier's, none the document's
    ("loosened", "negative_control",
     {"checks": [{"name": "residual", "tolerance": 1.0}]}, 2, None),
    # a time past the model's domain is refused before any trajectory is
    # solved, with the times it refuses
    ("out_of_domain", "ck", {"times": [0.0, 50.0]},
     2, "configuration error: t outside model domain [-1.0, 12.0]: 50.0"),
    # a grid section that asks for the policy grid and gives bounds
    ("contradictory_grid", "sho_c1",
     {"grid": {"policy": True, "x_min": -3.0, "x_max": 3.0}, "checks": ["residual"]},
     2, None),
    # 64 points are too coarse for sho_c1's orders: the window guard cannot
    # show its rows resolved, and the whole grid's DFT refuses them
    ("sho_c1_64", "sho_c1",
     {"grid": {"x_min": -12.0, "x_max": 12.0, "points": 64}, "checks": ["orthonormality"]},
     2, "numerical error: orthonormality: state not resolved"),
    # 64 points are too coarse for driven_ck's uncertainty rows: the DFT of
    # each time's stack refuses them, and a read row by row names the first
    # row refused, in the check's order, with that row's own ratio
    ("driven_ck_64", "driven_ck", {"grid.points": 64, "checks": ["uncertainty"]},
     2, "moments: state not resolved at t = 0.0 on 64 points: Nyquist"),
]


def document(base, overrides) -> dict:
    doc = (tabulated() if base is None
           else json.loads(Path(scenario_path(base)).read_text(encoding="utf-8")))
    for key, value in overrides.items():
        *parents, last = key.split(".")
        target = doc
        for parent in parents:
            target = target[parent]
        target[last] = value
    return doc


def main(out_dir, command) -> int:
    failed = 0
    for name, base, overrides, code, text in COPIES:
        path = Path(out_dir) / f"{name}.json"
        path.write_text(json.dumps(document(base, overrides)), encoding="utf-8")
        proc = subprocess.run([*command, "verify", str(path)], stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        sys.stderr.write(proc.stderr)
        ok = proc.returncode == code and (text is None or text in proc.stderr)
        print(f"{name} exit {proc.returncode} (expected {code}"
              + (f", stderr with {text!r}" if text else "") + ")"
              + ("" if ok else ": FAILED"))
        failed += not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
