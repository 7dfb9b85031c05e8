"""Grid-evaluation kernels: the Hermite recurrence fused with the log-space
Gaussian and the phase factors, in numpy (``_ref``)."""

from ._ref import hermite_values, state_kernel  # noqa: F401
