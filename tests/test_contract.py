"""The certifier's contract as it stands: exact states on two probes wider
than the bundled documents, pinned row by row.

* The 12-time sweep: each bundled scenario whose states are exact gets 12
  times evenly spaced over [t_min + 0.1, t_max - 0.1] on one policy grid,
  sized for all twelve, and each (check, t) pair runs alone.
* The hbar probe: sho_c1, ck and driven_ck run their own checks at their
  own times with hbar in {1e-4, 1e-2, 1, 100}.

Every row of both passes except those listed below, which fail (or whose
run is refused) although the state is exact.  Each of those is a strict
expected failure naming the ROADMAP item that closes it:

* 13, the sixth-order residual verdict: residual rows whose order reads
  about 4 and whose value is within about 30 times the gate;
* 1b, residual slices sized from the state's own scales (1a refuses them
  until then): the residual rows further over the gate;
* 17, the wavenumber guard: driven_ck's late times and small hbar;
* 2, one slice sizer for every check: driven_ck's interpolated chain rows.

A change that mends a row makes its case pass, which fails the run
(strict): the row then leaves its table.  A row that starts to fail, or a
listed row that disappears, fails too.
"""

import dataclasses
import functools

import numpy as np
import pytest

from tdho.cli import build_context, load_scenario
from tdho.transforms import GridTooSmallError
from tdho.verify import run_suite

SWEEP = ["sho_c1", "sho_c2", "ck", "lo", "driven_sho", "driven_ck"]
PROBE = ["sho_c1", "ck", "driven_ck"]
HBARS = [1e-4, 1e-2, 1.0, 100.0]
ALL = (0, 1, 2, 3)
# the path of a listed transform_chain row; the exact path passes
PATH = {"transform_chain": "interp"}

# (scenario, check) -> [(time indices, orders, item)]; orders None: the
# (check, t) run is refused with GridTooSmallError
SWEEP_FAILURES = {
    ("ck", "residual"): [((4,), (3,), "13"), ((5, 6), ALL, "13"), ((7,), (0,), "13"),
                         ((7,), (1, 2, 3), "1b"), ((8, 9, 10, 11), ALL, "1b")],
    ("lo", "residual"): [((10,), ALL, "13")],
    ("driven_ck", "residual"): [((3,), (3,), "13"), ((4,), ALL, "13"),
                                ((5,), (1, 2, 3), "13"), ((6, 7, 8), ALL, "1b"),
                                ((9, 10, 11), ALL, "17")],
    ("driven_ck", "transform_chain"): [((7,), (2, 3), "2"), ((8, 9, 10, 11), ALL, "2")],
    ("driven_ck", "uncertainty"): [((9, 10, 11), None, "17")],
}
# (scenario, hbar, check) -> [(indices of the scenario's times, orders, item)]
PROBE_FAILURES = {
    ("driven_ck", 1e-4, "residual"): [((0, 1, 2), ALL, "17")],
    ("driven_ck", 1e-4, "uncertainty"): [((2,), ALL, "17")],
    ("driven_ck", 1e-2, "residual"): [((0, 1, 2), ALL, "17")],
}


@functools.cache
def _doc(name):
    return load_scenario(name)


def _sweep_times(name):
    model = _doc(name)["model"]
    return np.linspace(model["t_min"] + 0.1, model["t_max"] - 0.1, 12).tolist()


@functools.cache
def _sweep_context(name):
    return build_context({**_doc(name), "times": _sweep_times(name)})


@functools.cache
def _sweep_rows(name, check, i):
    """The rows of check at the sweep's i-th time, run alone on the sweep's
    grid."""
    ctx = _sweep_context(name)
    return run_suite(dataclasses.replace(ctx, times=[ctx.times[i]]), [check])


@functools.cache
def _probe_rows(name, hbar, check):
    return run_suite(build_context({**_doc(name), "hbar": hbar}), [check])


def _key(row):
    """A row's order and chain path (None for the other checks)."""
    return row.params.get("n"), row.params.get("path")


def _listed(check, entries):
    """{(time index, key): item} of the rows a table lists for check; key
    None for a refused run."""
    return {(i, None if n is None else (n, PATH.get(check))): item
            for times, orders, item in entries
            for i in times for n in (orders or (None,))}


def _row(rows, check, n, t=None):
    """The listed row of order n (at time t, when given) among rows."""
    found = [r for r in rows if _key(r) == (n, PATH.get(check))
             and (t is None or r.params["t"] == t)]
    assert len(found) == 1, (n, t, rows)
    return found[0]


def _cases(table, times_of):
    for key, entries in table.items():
        name, check = key[0], key[-1]
        for (i, row), item in _listed(check, entries).items():
            n = None if row is None else row[0]
            raises = GridTooSmallError if n is None else AssertionError
            mark = pytest.mark.xfail(strict=True, raises=raises,
                                     reason=f"ROADMAP item {item}")
            label = "refused" if n is None else f"n{n}"
            yield pytest.param(*key, i, n, marks=mark, id="-".join(
                [*map(str, key), f"t{times_of(name)[i]:.4g}", label]))


def _unexpected(rows, listed, i_of):
    """The rows that fail and are not listed."""
    return [r for r in rows if not r.passed and (i_of(r), _key(r)) not in listed]


@pytest.mark.parametrize("name, check", [(name, check) for name in SWEEP
                                         for check in _doc(name)["checks"]])
def test_the_sweep_passes_every_row_it_does_not_list(name, check):
    listed = _listed(check, SWEEP_FAILURES.get((name, check), []))
    for i in range(12):
        if (i, None) in listed:
            continue
        rows = _sweep_rows(name, check, i)
        assert rows
        assert not _unexpected(rows, listed, lambda r: i)


@pytest.mark.parametrize("name, check, i, n", _cases(SWEEP_FAILURES, _sweep_times))
def test_a_listed_sweep_row(name, check, i, n):
    row = _row(_sweep_rows(name, check, i), check, n)
    assert row.passed, row


@pytest.mark.parametrize("name, hbar, check", [(name, hbar, check) for name in PROBE
                                               for hbar in HBARS
                                               for check in _doc(name)["checks"]])
def test_the_hbar_probe_passes_every_row_it_does_not_list(name, hbar, check):
    listed = _listed(check, PROBE_FAILURES.get((name, hbar, check), []))
    times = _doc(name)["times"]
    rows = _probe_rows(name, hbar, check)
    assert rows
    assert not _unexpected(rows, listed, lambda r: times.index(r.params["t"])
                           if r.params.get("t") in times else None)


@pytest.mark.parametrize("name, hbar, check, i, n",
                         _cases(PROBE_FAILURES, lambda name: _doc(name)["times"]))
def test_a_listed_hbar_probe_row(name, hbar, check, i, n):
    t = _doc(name)["times"][i]
    row = _row(_probe_rows(name, hbar, check), check, n, t)
    assert row.passed, row
