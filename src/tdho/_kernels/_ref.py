"""Pure-numpy implementation of the grid kernels."""

import cmath
import math

import numpy as np

# Points whose amplitude bound is below e^LOG_FLOOR are returned as exact
# zeros (float64 underflows to 0 a bit below e^-745).
LOG_FLOOR = -700.0

_LN2 = math.log(2.0)
_LOG_PI_4 = 0.25 * math.log(math.pi)
_PI_M14 = math.pi ** -0.25
# Cramér: |H_n(xi)| e^{-xi^2/2} <= 1.086435 sqrt(2^n n!) for every n and xi
_LOG_CRAMER = math.log(1.0865)
# the recurrence is rescaled before a bound on its terms can pass e^600;
# float64 overflows above e^709
_RESCALE_LOG = 600.0


def _cutoff_radius(n, log_norm, gauss_re, scale):
    """Radius R such that exp(log_norm + gauss_re d^2) |h_n(scale d)| is
    below e^LOG_FLOOR wherever |d| > R.

    h_n = H_n / sqrt(2^n n! sqrt(pi)) is the normalised Hermite polynomial.
    Two bounds on ln|h_n(xi)| hold for every xi:

        U1 = n ln(2|xi|) + n^2/(4 xi^2) - ln sqrt(2^n n! sqrt(pi))
             (term by term on the explicit sum of H_n),
        U2 = ln 1.0865 - ln(pi)/4 + xi^2/2   (Cramér).

    The smaller of their radii is returned, inf when neither decays.
    """
    if gauss_re >= 0.0:
        return math.inf
    a = -gauss_re
    s2 = scale * scale
    base = log_norm - LOG_FLOOR
    radius = math.inf
    if a > 0.5 * s2:
        radius = math.sqrt(max(base + _LOG_CRAMER - _LOG_PI_4, 0.0) / (a - 0.5 * s2))
    c = base - 0.5 * (n * _LN2 + math.lgamma(n + 1)) - _LOG_PI_4
    if n == 0:
        return min(radius, math.sqrt(max(c, 0.0) / a))
    if s2 == 0.0:
        return radius
    q = 0.25 * n * n / s2

    def excess(d):  # ln of the U1 amplitude bound at d, minus LOG_FLOOR
        return c - a * d * d + n * math.log(2.0 * abs(scale) * d) + q / (d * d)

    # excess decreases for d >= d0, where -2ad + n/d changes sign
    lo = math.sqrt(0.5 * n / a)
    if excess(lo) <= 0.0:
        return min(radius, lo)
    # n ln(d/d0) <= n (d/d0 - 1) and q/d^2 <= q/d0^2 give an upper bracket
    b = n / lo
    c_hi = excess(lo) + a * lo * lo - n
    hi = (b + math.sqrt(b * b + 4.0 * a * c_hi)) / (2.0 * a)
    # Newton from the right, safeguarded by bisection; excess(hi) <= 0 holds
    d = hi
    for _ in range(60):
        g = excess(d)
        if g > 0.0:
            lo = d
        else:
            hi = d
        slope = -2.0 * a * d + n / d - 2.0 * q / (d * d * d)
        new = d - g / slope
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        if abs(new - d) <= 1e-9 * d:
            break
        d = new
    return min(radius, hi)


def _hermite_function_rows(n, xi, log_amp):
    """exp(log_amp) h_k(xi) for k = 0..n, as (mantissa, exponent) pairs.

    The normalised recurrence h_0 = pi^{-1/4}, h_1 = sqrt(2) xi h_0,
    h_{k+1} = sqrt(2/(k+1)) xi h_k - sqrt(k/(k+1)) h_{k-1} (DLMF §18.9)
    runs on m = value * 2^-e with an integer exponent e per point (Bunck,
    BIT 49 (2009) 281-295).  Where exp(log_amp) would leave the normal
    float range, e starts as its binary exponent, so the Gaussian never
    underflows on its own; both recurrence terms are divided by a power of
    two, which is exact, before a bound on their growth could overflow.
    Yields (m_k, e) for k = 0..n; np.ldexp(m_k, e) is the value.
    """
    xi_max = float(np.max(np.abs(xi)))
    amp_hi = float(np.max(log_amp))
    if LOG_FLOOR < float(np.min(log_amp)) and amp_hi < _RESCALE_LOG:
        e = 0
        h = _PI_M14 * np.exp(log_amp)
        bound = amp_hi - _LOG_PI_4  # ln max(|h_k|, |h_{k-1}|) is at most this
    else:
        e = np.floor(log_amp * (1.0 / _LN2))
        h = _PI_M14 * np.exp(log_amp - e * _LN2)  # below 2 pi^{-1/4} < 2
        e = e.astype(np.int32)
        bound = _LN2
    yield h, e
    # max(|h_{k+1}|, |h_k|) <= max(a_k xi_max + b_k, 1) max(|h_k|, |h_{k-1}|),
    # and a_k xi_max + b_k <= sqrt(2) xi_max + 1 for every k
    may_overflow = bound + n * math.log(math.sqrt(2.0) * xi_max + 1.0) > _RESCALE_LOG
    h_prev = h
    for k in range(n):
        a_k = math.sqrt(2.0 / (k + 1))
        b_k = math.sqrt(k / (k + 1))
        if may_overflow:
            step = math.log(max(a_k * xi_max + b_k, 1.0))
            if bound + step > _RESCALE_LOG:
                _, ex = np.frexp(np.maximum(np.abs(h), np.abs(h_prev)))
                h, h_prev = np.ldexp(h, -ex), np.ldexp(h_prev, -ex)
                e = e + ex
                bound = 0.0
            bound += step
        h_next = xi * h  # in place from here on: fewer temporaries
        h_next *= a_k
        h_next -= b_k * h_prev
        h_prev, h = h, h_next
        yield h, e


def state_kernel(x, n, log_norm, gauss_re, gauss_im, scale, x_shift, k_lin, phase0):
    """Order n of state_kernel_block at the points x, in any order and shape:
    a one-row block (dphase = 0) on the sorted points, put back in x's order
    and shape."""
    x = np.asarray(x, dtype=np.float64)
    flat = x.ravel()
    order = np.argsort(flat, kind="stable")
    out = np.empty(flat.shape, dtype=np.complex128)
    out[order] = state_kernel_block(flat[order], [n], log_norm, gauss_re, gauss_im,
                                    scale, x_shift, k_lin, phase0, 0.0)[0]
    return out.reshape(x.shape)


def state_kernel_block(x, orders, log_norm, gauss_re, gauss_im, scale, x_shift,
                       k_lin, phase0, dphase):
    """Eigenstate samples of the requested orders on the ascending grid x,
    from one recurrence that runs to max(orders).

    With d = x - x_shift and xi = scale * d, row i holds order k = orders[i]:

        exp(log_norm + gauss_re * d^2)
        * h_k(xi)
        * exp(i * (gauss_im * d^2 + k_lin * x + phase0 + k * dphase)),

    where h_k = H_k / sqrt(2^k k! sqrt(pi)) is the normalised Hermite
    polynomial.  Returns the (len(orders), len(x)) rows.  Outside the widest
    of the requested orders' cutoff radii around x_shift the whole product
    is below e^LOG_FLOOR, and those samples are exact zeros; inside, the
    exponent-tracked recurrence runs, so no factor over- or underflows on
    its own.  Orders that are not requested are stepped through, not stored.
    """
    x = np.asarray(x, dtype=np.float64)
    orders = [int(k) for k in orders]
    n = max(orders)
    rows_of = {}  # order -> the rows that hold it
    for i, k in enumerate(orders):
        rows_of.setdefault(k, []).append(i)
    radius = max(_cutoff_radius(k, log_norm, gauss_re, scale) for k in rows_of)
    lo = int(np.searchsorted(x, x_shift - radius, side="left"))
    hi = int(np.searchsorted(x, x_shift + radius, side="right"))
    rows = np.zeros((len(orders), len(x)), dtype=np.complex128)
    if hi == lo:
        return rows
    xw = x[lo:hi]
    d = xw - x_shift
    base = np.exp(1j * (gauss_im * d * d + k_lin * xw + phase0))
    recurrence = _hermite_function_rows(n, scale * d, log_norm + gauss_re * d * d)
    for k, (m, e) in enumerate(recurrence):
        for i in rows_of.get(k, ()):
            row = rows[i, lo:hi]
            np.multiply(base, cmath.exp(1j * (k * dphase)), out=row)
            row *= np.ldexp(m, e)
    return rows
