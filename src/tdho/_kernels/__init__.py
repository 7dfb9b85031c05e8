"""Grid-evaluation kernels: the normalised Hermite recurrence fused with the
log-space Gaussian and the phase factors, in numpy (``_ref``)."""

from ._ref import (  # noqa: F401
    cutoff_window,
    state_kernel,
    state_kernel_window,
)
