"""Pure-numpy implementation of the grid kernels."""

import numpy as np

# exp() underflows to 0 a bit below -745; stopping earlier also keeps the
# skipped Hermite values away from overflow for any realistic order.
LOG_FLOOR = -700.0


def hermite_values(n, xi):
    """Physicists' Hermite polynomial H_n at the points xi.

    Three-term recurrence H_0 = 1, H_1 = 2 xi,
    H_{k+1} = 2 xi H_k - 2 k H_{k-1}.
    """
    xi = np.asarray(xi, dtype=np.float64)
    if n == 0:
        return np.ones_like(xi)
    h_prev = np.ones_like(xi)
    h = 2.0 * xi
    for k in range(1, n):
        h_prev, h = h, 2.0 * xi * h - (2.0 * k) * h_prev
    return h


def state_kernel(x, n, log_norm, gauss_re, gauss_im, scale, x_shift, k_lin, phase0):
    """Eigenstate samples on a grid, assembled in log space.

    With d = x - x_shift and xi = scale * d this returns

        exp(log_norm + gauss_re * d^2)
        * H_n(xi)
        * exp(i * (gauss_im * d^2 + k_lin * x + phase0))

    The real exponent is evaluated first; points below the underflow floor
    are short-circuited to 0 so the (possibly huge) Hermite factor is never
    formed where the Gaussian has already killed the amplitude.
    """
    x = np.asarray(x, dtype=np.float64)
    d = x - x_shift
    log_amp = log_norm + gauss_re * d * d
    out = np.zeros(x.shape, dtype=np.complex128)
    alive = log_amp > LOG_FLOOR
    if not alive.any():
        return out
    da = d[alive]
    herm = hermite_values(n, scale * da)
    arg = gauss_im * da * da + k_lin * x[alive] + phase0
    out[alive] = herm * np.exp(log_amp[alive] + 1j * arg)
    return out
