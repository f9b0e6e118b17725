"""Bessel functions of the first kind, integer order, non-negative real argument.

Implements J_m(x) and J'_m(x) for the argument range the phase-mode filter
banks need (x up to ~1e4, |m| up to ~1e3, guarded to 1e6).  Two evaluation
kernels share the same mathematics:

* an ascending power series for small arguments (x < 12 with m <= 40, and
  any m for x < 1), and
* a normalized downward (Miller) recurrence started above the turning point
  otherwise.

Both kernels run in compensated (double-double) arithmetic by default, which
keeps the *absolute* error near 1e-30 times the oscillation envelope.  The
scalar entry points therefore hold a relative error below 1e-13 even for
arguments that land next to a zero of J_m.  The recurrence runs as a scalar
loop for single values and as one vectorized table kernel for many
arguments.

The program builds every table, the filter banks' and the mode-limit
search's, with ``compensated=False``: plain float64, where each argument
takes one of three lane classes by its own x and the table's m_max:

* x < 1: the series; 1 <= x < 25: plain Miller, as above;
* x >= 25: J_0 and J_1 from Hankel's expansion, then the upward recurrence,
  which is stable while m < x, to m_max;
* 25 <= x < m_max: as x >= 25, with the rows above floor(x) from a short
  downward recurrence scaled to meet the upward one at floor(x).

Plain tables hold ~5e-14 of the envelope sqrt(2/(pi x)) on the program's
banks and ~3e-13 at m_max = 1000, and rows m > x hold ~2e-13 relative error
wherever |J| > 1e-250 (the weights divide by them).

Negative orders are never evaluated directly: J_{-m} = (-1)^m J_m is applied
structurally, so the parity identity holds bit-exactly.

Conventions: derivatives always come from the exact three-term identity
J'_m = (J_{m-1} - J_{m+1})/2 (with J_{-1} = -J_1), never from differencing.
"""
from __future__ import annotations

import math

import numpy as np

from ._dd import dd_add, dd_div, dd_div_dd, dd_mul, dd_mul_d, two_prod
from .errors import DomainError, NumericError

ORDER_GUARD = 10**6

_SERIES_X_CUT = 12.0
_SERIES_M_CUT = 40
_TINY_X_CUT = 1.0
_RESCALE_THRESHOLD = 2.0**830
_RESCALE_FACTOR = 2.0**-600  # exact power of two: rescaling is rounding-free
_HANKEL_X_CUT = 25.0
_HANKEL_TERMS = 12  # of P and of Q each: the first omitted term is < 2e-19 at x = 25


def _hankel_coefficients() -> np.ndarray:
    """Hankel's expansion (DLMF 10.17.3) as polynomials in 1/x^2, highest
    power first, in columns P_0, Q_0, P_1, Q_1: P_nu = sum_k (-1)^k a_2k(nu)
    x^-2k and x Q_nu = sum_k (-1)^k a_2k+1(nu) x^-2k, a_k(nu) of DLMF 10.17.1."""
    columns = []
    for nu in (0, 1):
        a = [1.0]
        for k in range(1, 2 * _HANKEL_TERMS):
            a.append(a[-1] * (4 * nu * nu - (2 * k - 1) ** 2) / (8.0 * k))
        signs = (-1.0) ** np.arange(_HANKEL_TERMS)
        columns += [signs * a[0::2], signs * a[1::2]]
    return np.array(columns).T[::-1, :, None]


_HANKEL = _hankel_coefficients()


def _start_orders(m_max: int, x):
    """First recurrence order for Miller's algorithm, per argument in x.

    Starting max(m, x) plus ~13.5 * (x/2)^(1/3) places the seed deep enough
    past the turning point that the truncation contamination (the minimal
    solution admixture J_N/Y_N) stays below ~1e-26 for the whole range.
    """
    pad = np.maximum(22, np.ceil(13.5 * np.cbrt(x / 2.0))).astype(np.int64)
    return np.maximum(m_max, np.ceil(x).astype(np.int64)) + pad


def _series_j(m: int, x: float) -> float:
    """Ascending series in compensated arithmetic. Requires m >= 0, x >= 0."""
    if x == 0.0:
        return 1.0 if m == 0 else 0.0
    half = x / 2.0
    # prefix (x/2)^m / m!, with an early exit once it underflows
    ph, pl = 1.0, 0.0
    for i in range(1, m + 1):
        ph, pl = dd_mul_d(ph, pl, half)
        qh = ph / i
        rh, rl = two_prod(qh, float(i))
        ph, pl = qh, ((ph - rh) - rl + pl) / i
        if ph == 0.0:
            return 0.0
    # x^2/4 as dd
    x2h, x2l = two_prod(half, half)
    th, tl = ph, pl
    sh, sl = ph, pl
    for k in range(1, 400):
        th, tl = dd_mul(th, tl, x2h, x2l)
        den = float(k * (m + k))
        qh = th / den
        rh, rl = two_prod(qh, den)
        th, tl = -qh, -(((th - rh) - rl + tl) / den)
        sh, sl = dd_add(sh, sl, th, tl)
        if abs(th) <= 1e-34 * abs(sh) or th == 0.0:
            return sh + sl
    raise NumericError(f"series failed to converge for m={m}, x={x}")


def _miller_scalar(m: int, x: float) -> float:
    """Normalized downward recurrence for a single order. m >= 0, x > 0.

    Kept apart from _miller_table: on one argument the array kernel's
    per-step overhead costs 15-25x this loop (m = 300, x = 4999.9 on a
    2-core Xeon host: ~10 ms here against 180-250 ms).
    """
    nstart = int(_start_orders(m, np.float64(x)))
    jh, jl = 0.0, 0.0
    jph, jpl = 0.0, 0.0
    sh, sl = 0.0, 0.0
    outh, outl = 0.0, 0.0
    i2h, i2l = dd_div_dd(2.0, x)
    for order in range(nstart, -1, -1):
        if order == nstart:
            jh, jl = 1.0, 0.0
            jph, jpl = 0.0, 0.0
        if order == m:
            outh, outl = jh, jl
        if order == 0:
            sh, sl = dd_add(sh, sl, jh, jl)
            break
        if order % 2 == 0:
            sh, sl = dd_add(sh, sl, 2.0 * jh, 2.0 * jl)
        ch, cl = dd_mul_d(i2h, i2l, float(order))
        th, tl = dd_mul(ch, cl, jh, jl)
        njh, njl = dd_add(th, tl, -jph, -jpl)
        jph, jpl = jh, jl
        jh, jl = njh, njl
        if abs(jh) > _RESCALE_THRESHOLD:
            jh *= _RESCALE_FACTOR
            jl *= _RESCALE_FACTOR
            jph *= _RESCALE_FACTOR
            jpl *= _RESCALE_FACTOR
            sh *= _RESCALE_FACTOR
            sl *= _RESCALE_FACTOR
            outh *= _RESCALE_FACTOR
            outl *= _RESCALE_FACTOR
    rh, rl = dd_div(outh, outl, sh, sl)
    return rh + rl


def _validate(m: int, x: float) -> None:
    if not isinstance(m, (int, np.integer)):
        raise DomainError(f"order must be an integer, got {m!r}")
    if abs(int(m)) > ORDER_GUARD:
        raise DomainError(f"|order| exceeds guard {ORDER_GUARD}: {m}")
    if not math.isfinite(x):
        raise DomainError(f"argument must be finite, got {x!r}")
    if x < 0.0:
        raise DomainError(f"argument must be non-negative, got {x!r}")


def bessel_j(m: int, x: float) -> float:
    """J_m(x) for integer m (|m| <= 1e6) and finite x >= 0.

    Relative error <= 1e-12 against a high-precision reference whenever
    |J_m(x)| > 1e-300; absolute error <= 1e-300 below that.
    """
    _validate(m, x)
    m = int(m)
    x = float(x)
    if m < 0:
        v = bessel_j(-m, x)
        return -v if m % 2 else v
    if x < _TINY_X_CUT or (x < _SERIES_X_CUT and m <= _SERIES_M_CUT):
        return _series_j(m, x)
    return _miller_scalar(m, x)


def bessel_j_prime(m: int, x: float) -> float:
    """J'_m(x) via the exact identity (J_{m-1} - J_{m+1}) / 2.

    J'_0 reduces to -J_1 and is computed that way, bit-exactly.
    """
    _validate(m, x)
    m = int(m)
    x = float(x)
    if m < 0:
        v = bessel_j_prime(-m, x)
        return -v if m % 2 else v
    if m == 0:
        return -bessel_j(1, x)
    return 0.5 * (bessel_j(m - 1, x) - bessel_j(m + 1, x))


def _miller_table(m_max: int, x: np.ndarray, compensated: bool) -> np.ndarray:
    """Vectorized normalized Miller recurrence, m = 0..m_max, x_i >= ~1.

    Each lane carries J of the current and the previous order and the
    normalization sum, as (hi, lo) double-double pairs when `compensated`
    and as one float64 otherwise.  Only the step, the sum update and the
    final normalization depend on the arithmetic.  Plain float64 (bulk
    filter synthesis) random-walks to ~1e-14 of the oscillation envelope
    and checks for overflow every fourth step, which the 2**830 threshold
    leaves ample headroom for (growth per step is bounded by 2 n_top / min x);
    double-double checks every step.
    """
    n = x.size
    nstart = _start_orders(m_max, x)
    n_top = int(nstart.max())
    if compensated:
        i2h, i2l = dd_div_dd(2.0, x)

        def step(order, j, jp):
            ch, cl = dd_mul_d(i2h, i2l, float(order))
            th, tl = dd_mul(ch, cl, *j)
            return dd_add(th, tl, -jp[0], -jp[1])

        def accumulate(s, j, weight):
            return dd_add(*s, weight * j[0], weight * j[1])
    else:
        inv_x = 1.0 / x

        def step(order, j, jp):
            return ((2.0 * order) * inv_x * j[0] - jp[0],)

        def accumulate(s, j, weight):
            return (s[0] + weight * j[0],)
    words = 2 if compensated else 1
    cadence = 1 if compensated else 4
    j, jp, s = (tuple(np.zeros(n) for _ in range(words)) for _ in range(3))
    out = np.zeros((m_max + 1, n))

    has_seed = np.zeros(n_top + 1, dtype=bool)
    has_seed[nstart] = True

    for order in range(n_top, -1, -1):
        if has_seed[order]:
            seed = nstart == order
            for arr in j + jp:
                arr[seed] = 0.0
            j[0][seed] = 1.0
        if order <= m_max:
            out[order] = j[0]
        if order == 0:
            s = accumulate(s, j, 1.0)
            break
        if order % 2 == 0:
            s = accumulate(s, j, 2.0)
        j, jp = step(order, j, jp), j
        if order % cadence == 0 and np.abs(j[0]).max() > _RESCALE_THRESHOLD:
            big = np.abs(j[0]) > _RESCALE_THRESHOLD
            for arr in j + jp + s:
                arr[big] *= _RESCALE_FACTOR
            out[:, big] *= _RESCALE_FACTOR

    if compensated:
        rh, rl = dd_div(np.ones(n), np.zeros(n), *s)
        return out * rh + out * rl
    out /= s[0]
    return out


def _upward_table(m_max: int, x: np.ndarray) -> np.ndarray:
    """Plain float64 J_0..J_m_max by upward recurrence, rows above floor(x)
    by a short downward pass; valid on lanes with x >= _HANKEL_X_CUT.

    J_0 and J_1 come from Hankel's expansion, cos x and sin x from complex
    exp (as channel.superpose takes them, so no result depends on the SIMD
    dispatch of float64 cos/sin).  J_{m+1} = (2m/x) J_m - J_{m-1} is stable
    upward while m < x (Gautschi, SIAM Rev. 9, 1967) and writes every row of
    the returned table.  Rows past x, where the recurrence turns unstable,
    are discarded on lanes with x < m_max: a downward recurrence seeded at
    _start_orders (as Miller's is) runs over the one contiguous range of
    lanes that holds them, stores rows floor(x) + 1 .. m_max of those lanes,
    and is scaled to meet the upward value at floor(x).  That value needs no
    normalization sum and is well conditioned: x lies below the first zero
    of J_floor(x).  Lanes with x < _HANKEL_X_CUT hold garbage here (inf and
    NaN included), which the caller replaces.
    """
    out = np.empty((m_max + 1, x.size))
    with np.errstate(all="ignore"):  # discarded lanes and rows may overflow
        inv_x = 1.0 / x
        z = inv_x * inv_x
        poly = np.empty((4, x.size))
        poly[:] = _HANKEL[0]
        for coef in _HANKEL[1:]:
            poly *= z
            poly += coef
        p0, q0, p1, q1 = poly
        q0 *= inv_x
        q1 *= inv_x
        phase = np.exp(1j * x)
        cos, sin = phase.real, phase.imag
        amp = np.sqrt(inv_x / np.pi)
        out[0] = amp * (p0 * (cos + sin) + q0 * (cos - sin))
        if m_max:
            out[1] = amp * (p1 * (sin - cos) + q1 * (sin + cos))
        t = np.empty_like(x)
        for m in range(1, m_max):
            np.multiply(inv_x, 2.0 * m, out=t)
            t *= out[m]
            np.subtract(t, out[m - 1], out=out[m + 1])
    low = (x >= _HANKEL_X_CUT) & (x < m_max)
    if low.any():
        first, last = np.flatnonzero(low)[[0, -1]]
        lanes = slice(first, last + 1)
        _downward_rows(out[:, lanes], x[lanes], low[lanes])
    return out


def _downward_rows(block: np.ndarray, x: np.ndarray, low: np.ndarray) -> None:
    """In `block`, a view of a table's lanes at arguments x, replace rows
    floor(x) + 1 .. m_max of the `low` lanes by a downward recurrence scaled
    to the upward row floor(x); the other lanes keep every row."""
    m_max = block.shape[0] - 1
    nstart = np.where(low, _start_orders(m_max, x), -1)
    floor = np.where(low, np.floor(x).astype(np.int64), np.iinfo(np.int64).max)
    n_top, n_low, n_meet = int(nstart.max()), int(floor.min()), int(floor[low].max())
    has_seed = np.zeros(n_top + 1, dtype=bool)
    has_seed[nstart[low]] = True
    inv_x = np.divide(1.0, x, out=np.ones(x.size), where=low)  # the others, unseeded, stay 0
    j, jp, t, meet = (np.zeros(x.size) for _ in range(4))
    mask = np.empty(x.size, dtype=bool)
    for order in range(n_top, n_low - 1, -1):
        if has_seed[order]:
            seed = nstart == order
            j[seed], jp[seed] = 1.0, 0.0
        if order <= m_max:
            np.less(floor, order, out=mask)
            np.copyto(block[order], j, where=mask)
        if order <= n_meet:
            np.equal(floor, order, out=mask)
            np.copyto(meet, j, where=mask)
        if order == n_low:
            break
        np.multiply(inv_x, 2.0 * order, out=t)
        t *= j
        t -= jp
        j, jp, t = t, j, jp
        if order % 4 == 0 and np.abs(j).max() > _RESCALE_THRESHOLD:
            big = np.abs(j) > _RESCALE_THRESHOLD
            for arr in (j, jp, meet):
                arr[big] *= _RESCALE_FACTOR
            rows = block[order:]
            np.multiply(rows, _RESCALE_FACTOR, out=rows,
                        where=big & (floor < np.arange(order, m_max + 1)[:, None]))
    scale = np.zeros(x.size)
    np.divide(block[np.minimum(floor, m_max), np.arange(x.size)], meet, out=scale, where=low)
    rows = block[n_low + 1:]
    np.multiply(rows, scale, out=rows, where=floor < np.arange(n_low + 1, m_max + 1)[:, None])


def bessel_j_table(m_max: int, x, compensated: bool = True) -> np.ndarray:
    """J_m(x_i) for all m = 0..m_max over a vector of arguments.

    Returns an array of shape (m_max + 1, len(x)).  One recurrence per
    argument yields every order at once, which is how the filter banks
    consume this.  By default that is the compensated Miller recurrence
    (the series below x = 1).  With ``compensated=False`` the table is plain
    float64 and each lane takes its class from its own x and m_max (see the
    module docstring): Miller below x = 25, Hankel's J_0 and J_1 and the
    upward recurrence above, and where 25 <= x < m_max a downward pass for
    the rows above floor(x).  Errors then stay below 1e-12 of the
    oscillation envelope sqrt(2/(pi x)) (~5e-14 on the program's banks), and
    below 1e-12 relative on rows m > x where |J| > 1e-250: ample for filter
    synthesis, not the strict scalar contract.  Either way a column depends
    on its own argument only, bit for bit.
    """
    if not isinstance(m_max, (int, np.integer)) or m_max < 0:
        raise DomainError(f"m_max must be a non-negative integer, got {m_max!r}")
    if m_max > ORDER_GUARD:
        raise DomainError(f"m_max exceeds guard {ORDER_GUARD}: {m_max}")
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if x.ndim != 1:
        raise DomainError("x must be one-dimensional")
    if not np.all(np.isfinite(x)):
        raise DomainError("arguments must be finite")
    if np.any(x < 0.0):
        raise DomainError("arguments must be non-negative")

    m_max = int(m_max)
    tiny = x < _TINY_X_CUT
    miller = ~tiny if compensated else ~tiny & (x < _HANKEL_X_CUT)
    if x.size and miller.all():
        # the recurrence's own array is the table: no second table-sized buffer
        return _miller_table(m_max, x, compensated)
    out = np.zeros((m_max + 1, x.size)) if compensated else _upward_table(m_max, x)
    if miller.any():
        out[:, miller] = _miller_table(m_max, x[miller], compensated)
    for i in np.flatnonzero(tiny):
        xi = float(x[i])
        for m in range(m_max + 1):
            out[m, i] = v = _series_j(m, xi)
            if v == 0.0 and m > xi:
                out[m + 1:, i] = 0.0  # orders only sink further below 1e-300
                break
    return out
