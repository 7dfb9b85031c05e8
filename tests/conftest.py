"""Shared fixtures: one model/basis per family, solved once per session.

The numeric solves (tol 1e-11) cost ~0.1 s each, so session scope keeps the
suite fast without weakening any tolerance.
"""

import numpy as np
import pytest

from tdho._kernels import state_kernel_window
from tdho.classical import (
    analytic_basis_ck,
    analytic_basis_sho,
    solve_homogeneous,
    solve_particular,
)
from tdho.models import (
    CaldirolaKanai,
    CosineForce,
    ExpCosineForce,
    LoDampedPulsating,
)

# Shared desk-scale domain: starts below 0 so finite-difference probes at
# t = 0 stay inside, ends past the largest sample time used anywhere.
T_MIN, T_MAX = -1.0, 12.0
TIMES = (0.0, 1.0, 2.5)


@pytest.fixture(scope="session")
def sho_basis_c1():
    return analytic_basis_sho(CaldirolaKanai(1.0, 0.0, 1.0, t_min=T_MIN, t_max=T_MAX))


@pytest.fixture(scope="session")
def sho_basis_c2():
    return analytic_basis_sho(CaldirolaKanai(1.0, 0.0, 1.0, t_min=T_MIN, t_max=T_MAX), 2.0, 1.0)


@pytest.fixture(scope="session")
def ck_basis():
    return analytic_basis_ck(CaldirolaKanai(1.0, 0.6, 1.0, t_min=T_MIN, t_max=T_MAX))


@pytest.fixture(scope="session")
def lo_model():
    return LoDampedPulsating(1.0, 0.1, 0.2, 3.0, 1.0, t_min=T_MIN, t_max=T_MAX)


@pytest.fixture(scope="session")
def lo_basis(lo_model):
    # ICs chosen so u(0)=1 and Omega = 1 for this parameter set.
    return solve_homogeneous(lo_model, 1.0, -0.7, 0.0, 1.0, t0=0.0, tol=1e-11)


@pytest.fixture(scope="session")
def driven_sho():
    """Resonant-free driven SHO: F = cos 2t, particular x_p = -cos(2t)/3."""
    model = CaldirolaKanai(1.0, 0.0, 1.0, t_min=T_MIN, t_max=T_MAX, force=CosineForce(1.0, 2.0))
    basis = analytic_basis_sho(model)
    driven = solve_particular(basis, -1.0 / 3.0, 0.0, t0=0.0, tol=1e-11)
    return basis, driven


@pytest.fixture(scope="session")
def driven_ck():
    """Driven damped oscillator, F = e^{gamma t/2} cos t with gamma = 0.6."""
    model = CaldirolaKanai(
        1.0, 0.6, 1.0, t_min=T_MIN, t_max=T_MAX,
        force=ExpCosineForce(1.0, 0.3, 1.0),
    )
    basis = analytic_basis_ck(model)
    driven = solve_particular(basis, 0.0, 0.0, t0=0.0, tol=1e-11)
    return basis, driven


@pytest.fixture()
def rng():
    return np.random.default_rng(42)


def on_grid(window, points):
    """A kernel window (rows, offset) zero-padded to the whole grid of
    points columns."""
    rows, offset = window
    block = np.zeros(rows.shape[:-1] + (points,), dtype=rows.dtype)
    block[..., offset:offset + rows.shape[-1]] = rows
    return block


def kernel_block(x, orders, *params, depth=None):
    """state_kernel_window's rows zero-padded to the whole of x."""
    return on_grid(state_kernel_window(x, orders, *params, depth=depth), len(x))
