"""Exact quantum states of driven, time-dependent harmonic oscillators.

The library builds eigenstate wavefunctions from solutions of the classical
equation of motion, applies the squeeze/displacement-type unitary operators
that relate variable-mass, unit-mass and driven systems, and numerically
certifies the identities those constructions are supposed to satisfy
(Schrodinger residuals, invariant constancy, transform equivalences,
uncertainty preservation).
"""

__version__ = "0.1.0"

from . import classical, models, states, transforms, verify  # noqa: F401

# the state kernel is numpy only; reported in run provenance
kernel_backend = "numpy"
