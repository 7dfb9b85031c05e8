"""Which scenario's chain rows catch which defect: the transform_chain column
of the detection matrix (ROADMAP item 4).

Each mutation perturbs the kernel columns (tdho.states._slice_params) of a
bundled scenario's own state, the direct state the chain is compared with;
the companion, whose columns the chain maps, is left alone.  A cell is
active where the perturbed column is nonzero at some of the scenario's
times, and then fails the chain rows of exactly those times: all twelve
(four orders at three times), or the eight at t != 0 where the column
vanishes at t = 0.  A cell whose column is zero at every time (the chirp
of a constant mass, the boost of an undriven state) is inert and passes
every row.
"""

import functools

import numpy as np
import pytest

import tdho.states
from tdho.cli import build_context, load_scenario
from tdho.verify import run_suite

SCENARIOS = ["ck", "lo", "driven_sho", "driven_ck"]


def _scaled(*columns, by):
    def mutate(params):
        params[list(columns)] *= by
        return params
    return mutate


def _shifted(column, by):
    def mutate(params):
        params[column] += by
        return params
    return mutate


# the columns are (gauss_im, scale, x_shift, k_lin, phase0, dphase)
MUTATIONS = {
    "chirp": _scaled(0, by=1 + 1e-4),
    "x_p": _shifted(2, 1e-5),
    "k_lin": _scaled(3, by=1 + 1e-4),
    "phase0": _shifted(4, 1e-4),
    "theta": _scaled(4, 5, by=1 + 1e-5),
}

# (mutation, scenario) -> failing rows of 12; theta and a driven boost vanish
# at t = 0, where theta(0) = 0 and xdot_p(0) = 0
FAILING = {
    **{(m, name): 12 for m in ("chirp", "x_p", "phase0") for name in SCENARIOS},
    **{("theta", name): 8 for name in SCENARIOS},
    ("chirp", "driven_sho"): 0,
    ("k_lin", "ck"): 0,
    ("k_lin", "lo"): 0,
    ("k_lin", "driven_sho"): 8,
    ("k_lin", "driven_ck"): 8,
}


@functools.cache
def _context(name):
    return build_context(load_scenario(name))


@pytest.mark.parametrize("name", SCENARIOS)
@pytest.mark.parametrize("mutation", MUTATIONS)
def test_a_mutated_direct_state_fails_the_chain_where_it_acts(monkeypatch, mutation, name):
    """An active cell fails its rows (of 8, those at t != 0); an inert cell
    reads every row bit for bit as the unmutated state does."""
    ctx = _context(name)
    unmutated = [r.measured for r in run_suite(ctx, ["transform_chain"])]
    slice_params = tdho.states._slice_params
    mutate = MUTATIONS[mutation]

    def mutated(spec, t):
        params = slice_params(spec, t)
        return mutate(np.array(params)) if spec.basis is ctx.basis else params

    monkeypatch.setattr(tdho.states, "_slice_params", mutated)
    rows = run_suite(ctx, ["transform_chain"])
    failing = [r for r in rows if not r.passed]
    assert len(rows) == 12
    assert len(failing) == FAILING[mutation, name]
    if len(failing) == 8:
        assert all(r.params["t"] != 0.0 for r in failing)
    if not failing:
        assert [r.measured for r in rows] == unmutated
