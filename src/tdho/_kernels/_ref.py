"""Pure-numpy implementation of the grid kernels.

A state is sqrt(scale) e^{-xi^2/2} h_k(xi) times its phases.  The kernel
runs the monic recurrence f_{k+1} = xi f_k - (k/2) f_{k-1} (DLMF §18.9),
three array passes per step, on values with a binary exponent per point
(Bunck, BIT 49 (2009) 281-295), rescaled before the growth bound
max(xi_max + k/2, 1) per step lets them overflow.  h_k = c_k f_k, with
c_k = sqrt(2^k / k!) a float mantissa times a power of two that joins
those exponents, is formed for the requested orders only, so nothing
under- or overflows on its own up to n = 1000.
"""

import functools
import math

import numpy as np

# Points whose amplitude bound is below e^LOG_FLOOR are returned as exact
# zeros (float64 underflows to 0 a bit below e^-745).  A call with a depth
# raises its slices' floor to ln sqrt(scale) - depth, never below this.
LOG_FLOOR = -700.0

_LN2 = math.log(2.0)
_LOG_PI_4 = 0.25 * math.log(math.pi)
_PI_M14 = math.pi ** -0.25
# the recurrence is rescaled before a bound on its terms can pass e^600;
# float64 overflows above e^709
_RESCALE_LOG = 600.0


def _floor_depth(scale, depth=None):
    """How far a slice's floor lies below its amplitude scale: ln sqrt(scale)
    - LOG_FLOOR (over 328 for every float64 scale), or the depth if smaller."""
    base = 0.5 * math.log(scale) - LOG_FLOOR
    return base if depth is None else min(base, depth)


def _xi_radius(n, base):
    """Radius X such that e^{-xi^2/2} |h_n(xi)| is below e^-base wherever
    |xi| > X: the root of the excess E_n(xi), base - xi^2/2 plus the bound

        ln|h_n(xi)| <= n ln(2|xi|) + n^2/(4 xi^2) - ln sqrt(2^n n! sqrt(pi))

    that holds term by term on the explicit sum of H_n."""
    c = base - 0.5 * (n * _LN2 + math.lgamma(n + 1)) - _LOG_PI_4
    if n == 0:
        return math.sqrt(2.0 * max(c, 0.0))
    q = 0.25 * n * n

    def excess(xi):  # ln of the amplitude bound at xi, plus base
        return c - 0.5 * xi * xi + n * math.log(2.0 * xi) + q / (xi * xi)

    # excess decreases for xi >= sqrt(n), where -xi + n/xi changes sign
    lo = math.sqrt(n)
    if excess(lo) <= 0.0:
        return lo
    # n ln(xi/lo) <= n (xi/lo - 1) and q/xi^2 <= q/lo^2 bound excess(xi) by
    # excess(lo) - (xi - lo)^2 / 2: an upper bracket
    hi = lo + math.sqrt(2.0 * excess(lo))
    # Newton from the right, safeguarded by bisection; excess(hi) <= 0 holds
    xi = hi
    for _ in range(60):
        g = excess(xi)
        if g > 0.0:
            lo = xi
        else:
            hi = xi
        slope = -xi + n / xi - 2.0 * q / (xi * xi * xi)
        new = xi - g / slope
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        if abs(new - xi) <= 1e-9 * xi:
            break
        xi = new
    return hi


def _cutoff_radius(n, scale, depth=None):
    """Radius R such that sqrt(scale) e^{-xi^2/2} |h_n(xi)|, xi = scale d, is
    below e^floor wherever |d| > R (the floor of state_kernel_window)."""
    return _xi_radius(n, _floor_depth(scale, depth)) / scale


@functools.lru_cache(maxsize=64)
def _monic_norms(orders):
    """c_k = sqrt(2^k / k!), which takes the monic f_k to h_k, for the tuple
    orders as (K, 1) columns (mantissa, power, c_k): c_k = mantissa *
    2^power with mantissa in [0.5, 1), from k! exactly and rounded once, so
    that c_1000 ~ 1e-1133 keeps every bit; c_k itself is 0 or subnormal
    past k ~ 345."""
    mantissa, power = [], []
    for k in orders:
        factorial = math.factorial(k)
        shift = (factorial.bit_length() - k) // 2 + 64  # a root of >= 63 bits
        m, p = math.frexp(float(math.isqrt((1 << (k + 2 * shift)) // factorial)))
        mantissa.append(m)
        power.append(p - shift)
    mantissa = np.array(mantissa)[:, np.newaxis]
    power = np.array(power, dtype=np.int32)[:, np.newaxis]
    columns = mantissa, power, np.ldexp(mantissa, power)
    for column in columns:  # shared by every call with these orders
        column.setflags(write=False)
    return columns


def _monic_growth(n, xi_max):
    """sum_{k < n} ln max(xi_max + k/2, 1): the monic recurrence's growth
    bound over n steps on columns where |xi| <= xi_max."""
    first = max(0, math.ceil(2.0 * (1.0 - xi_max)))  # xi_max + k/2 >= 1 from here
    if first >= n:
        return 0.0
    return (math.lgamma(2.0 * xi_max + n) - math.lgamma(2.0 * xi_max + first)
            - (n - first) * _LN2)


def _span_bounds(xi, amp):
    """(max |xi|, min amp, max amp) over one slice's span, its xi and
    log_amp columns, read without a reduction: xi = scale (x - x_shift)
    ascends along the span as rounded, and log_amp = -xi^2/2 + ln
    sqrt(scale) falls with |xi| as rounded, as every rounding step is
    monotone.  So max |xi| and the least log_amp sit at the span's two
    ends, and the largest log_amp at the two columns around xi's sign
    change: the very floats that max and min over the span give."""
    c = int(xi.searchsorted(0.0))
    return (max(abs(float(xi[0])), abs(float(xi[-1]))),
            min(float(amp[0]), float(amp[-1])),
            max(float(amp[max(c - 1, 0)]), float(amp[min(c, len(amp) - 1)])))


def _hermite_function_rows(orders, xi, log_amp, spans):
    """exp(log_amp) h_k(xi) for the ascending orders k on a stack of slices:
    (norms, rows), the value of order orders[j] on slice s being
    norms[j, s] * np.ldexp(m[s], e[s]) for the j-th (m, e) of rows.

    xi and log_amp are (S, W): slice s lives on its columns spans[s] = (a, b)
    and is zero on the others; log_amp is overwritten.  The monic recurrence
    f_0 = pi^{-1/4}, f_1 = xi f_0, f_{k+1} = xi f_k - (k/2) f_{k-1}
    (DLMF §18.9: f_k = pi^{-1/4} H_k / 2^k) takes three array passes per
    step, and h_k = c_k f_k with c_k = sqrt(2^k / k!) (_monic_norms) is
    applied to the requested orders only.  It runs on m = f * 2^-e with an
    integer exponent e per point (Bunck, BIT 49 (2009) 281-295).  Where
    exp(log_amp) would leave the normal float range on a slice's columns, e
    starts there as its binary exponent, so the Gaussian never underflows
    on its own; elsewhere e stays 0.  A slice's two recurrence terms are
    divided by a power of two, which is exact, before a bound on their
    growth over its columns could overflow: max(|f_{k+1}|, |f_k|) <=
    max(xi_max + k/2, 1) max(|f_k|, |f_{k-1}|).  So each slice decides from
    its own columns alone, as a one-slice call on them would.

    norms is (K, S) for the K orders.  On a slice that tracks exponents or
    may rescale, norms holds c_k's mantissa and c_k's power of two rides
    that slice's e; on any other, e is 0 and norms holds c_k whole, which
    the growth bound keeps in the normal float range.  rows yields (m, e)
    for the requested orders only: m (S, W), and e (S, W) or the int 0
    when no slice carries exponents.  The next step overwrites both.  A
    slice's bounds over its span are read at a few columns (_span_bounds).
    """
    n = orders[-1]
    e = np.zeros(xi.shape, dtype=np.int32)
    carry = np.zeros(len(spans), dtype=bool)  # slices whose exponents may move
    watch = []  # [slice, max |xi|, growth bound] of slices that may overflow
    for s, (a, b) in enumerate(spans):
        log_amp[s, :a] = log_amp[s, b:] = -np.inf  # exp(-inf): exact zeros
        if a == b:
            continue
        amp = log_amp[s, a:b]
        xi_max, amp_lo, amp_hi = _span_bounds(xi[s, a:b], amp)
        if LOG_FLOOR < amp_lo and amp_hi < _RESCALE_LOG:
            bound = amp_hi - _LOG_PI_4  # ln max(|f_k|, |f_{k-1}|) is at most this
        else:
            exponent = np.floor(amp * (1.0 / _LN2))
            amp -= exponent * _LN2  # f_0 below 2 pi^{-1/4} < 2
            e[s, a:b] = exponent
            carry[s] = True
            bound = _LN2
        if bound + _monic_growth(n, xi_max) > _RESCALE_LOG:
            watch.append([s, xi_max, bound])
            carry[s] = True
    mantissa, power, whole = _monic_norms(tuple(orders))
    norms = np.where(carry, mantissa, whole)
    if carry.any():
        powers = np.where(carry, power, 0)[:, :, np.newaxis]
    else:
        e = powers = 0  # every exponent stays 0, and ldexp(m, 0) is m
    f = np.exp(log_amp, out=log_amp)  # log_amp's buffer holds f from here on
    f *= _PI_M14
    return norms, _monic_rows(orders, xi, f, e, powers, watch)


def _monic_rows(orders, xi, f, e, powers, watch):
    """The recurrence of _hermite_function_rows from f = f_0 on, yielding
    (f_k, e + powers[j]) for the j-th requested order k."""
    tracked = np.ndim(e) > 0
    shifted = np.empty_like(e) if tracked else None
    # three buffers in turn: no step allocates
    f_prev = np.zeros_like(f)
    f_next = np.empty_like(f)
    j = 0  # the next requested order's index
    for k in range(orders[-1] + 1):
        if k == orders[j]:
            yield f, (np.add(e, powers[j], out=shifted) if tracked else 0)
            j += 1
            if j == len(orders):
                return
        # the step from order k to k + 1
        for w in watch:
            s, xi_max, bound = w
            step = math.log(max(xi_max + 0.5 * k, 1.0))
            if bound + step > _RESCALE_LOG:
                _, ex = np.frexp(np.maximum(np.abs(f[s]), np.abs(f_prev[s])))
                np.ldexp(f[s], -ex, out=f[s])
                np.ldexp(f_prev[s], -ex, out=f_prev[s])
                e[s] += ex
                bound = 0.0
            w[2] = bound + step
        np.multiply(xi, f, out=f_next)
        if k:
            f_prev *= 0.5 * k
            f_next -= f_prev
        f_prev, f, f_next = f, f_next, f_prev


def state_kernel(x, n, *params):
    """Order n of state_kernel_window with the six scalar slice parameters
    params (gauss_im .. dphase), read to LOG_FLOOR, at the points x in any
    order and shape: its one row on the sorted points, zero-padded and put
    back in x's order and shape (a complex for a scalar x)."""
    x = np.asarray(x, dtype=np.float64)
    flat = x.ravel()
    order = np.argsort(flat, kind="stable")
    rows, a = state_kernel_window(flat[order], [n], *params)
    out = np.zeros(flat.shape, dtype=np.complex128)
    out[order[a:a + rows.shape[-1]]] = rows[0]
    return out.reshape(x.shape)[()]


def state_kernel_window(x, orders, gauss_im, scale, x_shift, k_lin, phase0, dphase,
                        depth=None):
    """Eigenstate samples of the requested orders on the ascending grid x,
    from one recurrence that runs to max(orders), for one time slice or a
    stack of them, kept on the union of the slices' cutoff windows:
    (rows, offset), rows[..., j] the samples at x[offset + j], and every
    sample at the columns of x outside [offset, offset + rows.shape[-1]) an
    exact zero.  The union is empty (no columns, offset 0) when every slice
    lies below its floor.

    With d = x - x_shift and xi = scale * d, row i holds order k = orders[i]:

        sqrt(scale) * exp(-xi^2 / 2) * h_k(xi)
        * exp(i * (gauss_im * d^2 + k_lin * x + phase0 + k * dphase)),

    where h_k = H_k / sqrt(2^k k! sqrt(pi)) is the normalised Hermite
    polynomial: a normalised state, for any parameters, as every unitary
    image of a normalised unit-mass eigenstate is.  The six slice
    parameters (gauss_im .. dphase) are all scalars, giving one slice's
    (len(orders), W) rows, or all 1-D sequences of S slices, giving
    (S, len(orders), W), entry s the rows of slice s.

    Each slice keeps its own cutoff window: outside the cutoff radius of
    n = max(orders) around its x_shift every requested order is below
    e^floor, and those samples are exact zeros.  The floor is LOG_FLOOR,
    or, with a depth, max(LOG_FLOOR, ln sqrt(scale) - depth): a slice is
    then read down to e^-depth of its amplitude scale sqrt(scale) and no
    further.  The peak of |row| is at least 0.358 sqrt(scale) for every
    order up to 1000, so a zeroed sample is below e^-depth / 0.358 of its
    row's peak.  The floor's depth below the amplitude scale,
    min(ln sqrt(scale) - LOG_FLOOR, depth), is all the radius reads
    besides n: one root in xi (_xi_radius), over scale.  One solve serves
    all orders, as that root grows with n.  The depth does not depend on
    n, so the argument that follows holds at any depth.  The root X_n is
    the first xi >= sqrt(n) where the excess E_n(xi) <= 0, and E_n falls
    from there on.  With u = 2 xi^2 / (n + 1) and
    k = (2n + 1) / (2n + 2) >= 1/2,
    E_{n+1}(xi) - E_n(xi) = ln u / 2 + k / u >= (ln 2k + 1) / 2 >= 1/2 for
    every xi (least at u = 2k).  So E_n(X_{n+1}) < E_{n+1}(X_{n+1}) <= 0 at
    X_{n+1} >= sqrt(n + 1): X_n <= X_{n+1}, apart by far more than the root
    solve's relative tolerance of 1e-9.  Inside, the exponent-tracked
    recurrence runs, so no factor over- or underflows on its own; each
    slice decides on its window alone whether its exponents need tracking
    and when to rescale.  One recurrence runs over the union of the
    windows, on one row per distinct amplitude (scale, x_shift, bitwise):
    slices that differ only in gauss_im, k_lin, phase0 or dphase share
    every real factor, and each then takes its own phase.  Every slice's
    rows, zero-padded to x, are bit for bit those of a one-slice call with
    its parameters.  Orders that are not requested are stepped through,
    not stored.  A stack of slices whose windows are far narrower than x
    takes that much less memory than x's columns.
    """
    x, orders, table, spans, (a, b) = _slices(x, orders, (
        gauss_im, scale, x_shift, k_lin, phase0, dphase), depth)
    rows = np.empty(table.shape[1:] + (len(orders), b - a), dtype=np.complex128)
    _fill(rows if table.ndim == 2 else rows[np.newaxis], x[a:b], orders, table, spans)
    return rows, a


def cutoff_window(x, n, scale, x_shift, depth=None):
    """The columns [a, b) of the ascending float64 grid x that a slice whose
    largest order is n keeps at LOG_FLOOR, or with a depth at its floor for
    that depth (state_kernel_window with the same depth): every requested
    order is an exact zero on the columns outside them.  Empty (a == b)
    when the slice lies below its floor on all of x."""
    return _window(x, x_shift, _cutoff_radius(n, scale, depth))


def _window(x, x_shift, radius):
    """The columns of the ascending grid x within radius of x_shift."""
    return (int(np.searchsorted(x, x_shift - radius, side="left")),
            int(np.searchsorted(x, x_shift + radius, side="right")))


def _slices(x, orders, params, depth):
    """(x, orders, table, spans, (a, b)) of a call: the slice parameters as
    a (6,) or (6, S) table, the union [a, b) on x of the slices' cutoff
    windows ((0, 0) if none holds a column), and each slice's window
    relative to a ((0, 0) if it holds none).  One root in xi is solved per
    distinct depth of the floor below the amplitude (_floor_depth), and
    each slice's radius is that root over its scale: at a depth every
    slice shares one solve.  Every slice's window comes from the same two
    searchsorted calls, as _window finds one."""
    x = np.asarray(x, dtype=np.float64)
    orders = [int(k) for k in orders]
    n = max(orders)
    # (6,) or (6, S); numpy refuses sequences of unequal lengths
    table = np.array(params, dtype=np.float64)
    if table.ndim > 2:
        raise ValueError("slice parameters must be scalars or 1-D sequences")
    _, scales, shifts = table.reshape(6, -1)[:3]
    roots = {}
    radii = []
    for scale in scales.tolist():
        base = _floor_depth(scale, depth)
        if base not in roots:  # bounds every lower order's
            roots[base] = _xi_radius(n, base)
        radii.append(roots[base] / scale)
    los = np.searchsorted(x, shifts - radii, side="left").tolist()
    his = np.searchsorted(x, shifts + radii, side="right").tolist()
    live = [(lo, hi) for lo, hi in zip(los, his) if lo < hi]
    a, b = (min(lo for lo, _ in live), max(hi for _, hi in live)) if live else (0, 0)
    spans = [(lo - a, hi - a) if lo < hi else (0, 0) for lo, hi in zip(los, his)]
    return x, orders, table, spans, (a, b)


def _fill(stack, xw, orders, table, spans):
    """Write the rows of every slice into stack, (S, len(orders), W), over
    the columns xw of the union of the cutoff windows, exact zeros outside
    each slice's own span of them: the core of state_kernel_window.

    Slices whose amplitude (scale, x_shift) is bitwise the same share their
    span and every real factor sqrt(scale) e^{-xi^2/2} h_k(xi), so the
    recurrence runs on one row per distinct amplitude; each slice then
    takes its real row by its amplitude, and its own phase and turn.  Each
    requested order is written for all slices at once, with one multiply
    and one in-place multiply.  A call without repeated amplitudes reuses
    the phase's buffers and allocates nothing new for the recurrence's
    input."""
    if not xw.size:
        return
    n = max(orders)
    rows_of = {}  # order -> the rows that hold it
    for i, k in enumerate(orders):
        rows_of.setdefault(k, []).append(i)
    table = table.reshape(6, -1)
    groups = {}  # amplitude bytes -> its index among the distinct ones
    firsts, group_of = [], []  # each amplitude's first slice, each slice's amplitude
    for s, key in enumerate(table[1:3].T):
        g = groups.setdefault(key.tobytes(), len(groups))
        if g == len(firsts):
            firsts.append(s)
        group_of.append(g)
    shared = len(firsts) < len(spans)
    gauss_im, scale, x_shift, k_lin, phase0, _ = table[:, :, np.newaxis]
    d = xw - x_shift
    # the row written last holds the common factor until its own turn;
    # (gauss * d) * d, not gauss * (d * d): the other order rounds
    # differently and would move every reported number
    base = stack[:, rows_of[n][-1]]
    phase = gauss_im * d
    phase *= d
    phase += k_lin * xw
    phase += phase0
    np.multiply(1j, phase, out=base)
    np.exp(base, out=base)
    if shared:
        # one row per distinct amplitude in buffers of their own, so that
        # the (S, W) ones are freed before the recurrence allocates
        d = xw - x_shift[firsts]
        phase = np.empty_like(d)
        scale = scale[firsts]
    d *= scale  # xi from here on: no (S, W) buffer is made twice
    log_amp = np.multiply(d, d, out=phase)
    log_amp *= -0.5
    log_amp += 0.5 * np.log(scale)
    ks = sorted(rows_of)
    norms, recurrence = _hermite_function_rows(ks, d, log_amp,
                                               [spans[s] for s in firsts])
    value = np.empty_like(d)
    # every requested order's c_k e^{i k dphase} per slice, as (K, S)
    turns = np.exp(1j * np.multiply.outer(ks, table[5]))
    if shared:
        group_of = np.array(group_of)
        norms = norms[:, group_of]
    # one amplitude's real row broadcasts; several are taken per slice
    real = np.empty(base.shape) if len(firsts) > 1 and shared else None
    turns *= norms
    for k, turn, (m, e) in zip(ks, turns[:, :, np.newaxis], recurrence):
        v = m if np.ndim(e) == 0 else np.ldexp(m, e, out=value)
        if real is not None:
            v = np.take(v, group_of, axis=0, out=real)
        for i in rows_of[k]:
            row = stack[:, i]
            np.multiply(base, turn, out=row)
            row *= v
    # the products above leave signed zeros outside a slice's span
    for s, (p, q) in enumerate(spans):
        stack[s, :, :p] = 0.0
        stack[s, :, q:] = 0.0
