"""Grid-evaluation kernels: the normalised Hermite recurrence fused with the
log-space Gaussian and the phase factors, in numpy (``_ref``)."""

from ._ref import state_kernel, state_kernel_block, state_kernel_window  # noqa: F401
