"""Bessel functions of the first kind, integer order, non-negative real argument.

Implements J_m(x) and J'_m(x) for the argument range the phase-mode filter
banks need (x up to ~1e4, |m| up to ~1e3, guarded to 1e6) by two kernels:

* the ascending power series for small arguments (x < 12 with m <= 40, and
  any m for x < 1): one vectorized kernel over (order, argument) pairs,
  which tables call for their x < 1 lanes and scalars read at one argument;
* otherwise a normalized downward (Miller) recurrence started above the
  turning point: a scalar loop for one value, a table kernel for many.

Both run in compensated (double-double) arithmetic, which keeps the
*absolute* error near 1e-30 times the oscillation envelope, so the scalar
entry points hold a relative error below 1e-13 even next to a zero.

The program builds every table, the filter banks' and the mode-limit
search's, with ``compensated=False``, where each argument takes one of
three lane classes by its own x and the table's m_max:

* x < 1: the series; 1 <= x < 25: the Miller table, as above, so these
  lanes equal a compensated table's bit for bit;
* x >= 25, in plain float64: J_0 and J_1 from Hankel's expansion, then the
  upward recurrence, which is stable while m < x, to m_max; where
  x < m_max, the rows above floor(x) from a short downward recurrence over
  just those lanes, scaled to meet it at floor(x).

Plain tables hold ~5e-14 of the envelope sqrt(2/(pi x)) on the program's
banks and ~3e-13 at m_max = 1000 (1e-12 is their bound), and rows m > x
hold ~2e-13 relative error wherever |J| > 1e-250 (the weights divide by them).

Negative orders are never evaluated directly: J_{-m} = (-1)^m J_m is applied
structurally, so the parity identity holds bit-exactly.  Derivatives always
come from the exact identity J'_m = (J_{m-1} - J_{m+1})/2 (J_{-1} = -J_1).
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
_SERIES_LANES = 32  # lanes per series pass: its work arrays stay a small part of a table
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


def _series_rows(m_max: int, x: np.ndarray) -> np.ndarray:
    """J_0 .. J_{r-1} (rows) at arguments x (columns) by the ascending series
    (DLMF 10.2.2) in compensated arithmetic.  Order m's prefix (x/2)^m / m!
    is order m - 1's times one step.  A lane reads 0 from its first prefix
    that underflows; r <= m_max + 1 ends where every lane has, and rows r ..
    m_max are 0.  The series runs over all live (order, lane) pairs at once
    and drops each as it converges, so no pair's bits depend on another's."""
    half = x / 2.0
    prefix = [(np.ones_like(x), np.zeros_like(x))]
    for i in range(1, m_max + 1):
        h, l = dd_mul_d(*prefix[-1], half)
        qh = h / i
        if not qh.any():
            break
        rh, rl = two_prod(qh, float(i))
        prefix.append((qh, np.where(qh == 0.0, 0.0, ((h - rh) - rl + l) / i)))  # 0 stays 0
    ph, pl = np.stack(prefix, axis=1)
    out = np.zeros_like(ph)
    pairs = np.flatnonzero(ph)
    m, lane = np.divmod(pairs, x.size)
    th, tl = sh, sl = ph.flat[pairs], pl.flat[pairs]
    x2h, x2l = (a[lane] for a in two_prod(half, half))
    for k in range(1, 400):
        th, tl = dd_mul(th, tl, x2h, x2l)
        den = (k * (m + k)).astype(np.float64)
        qh = th / den
        rh, rl = two_prod(qh, den)
        th, tl = -qh, -(((th - rh) - rl + tl) / den)
        sh, sl = dd_add(sh, sl, th, tl)
        done = (np.abs(th) <= 1e-34 * np.abs(sh)) | (th == 0.0)
        if done.any():
            out.flat[pairs[done]] = sh[done] + sl[done]
            if done.all():
                return out
            pairs, m, th, tl, sh, sl, x2h, x2l = (
                a[~done] for a in (pairs, m, th, tl, sh, sl, x2h, x2l))
    raise NumericError(f"series failed to converge for m={m[0]}, x={x[pairs[0] % x.size]}")


def _miller_scalar(m: int, x: float) -> float:
    """Normalized downward recurrence for a single order. m >= 0, x > 0.

    Kept apart from _miller_table: on one argument the array kernel's
    per-step overhead costs 15-25x this loop (m = 300, x = 4999.9 on a
    2-core Xeon host: ~10 ms here against 180-250 ms).
    """
    nstart = int(_start_orders(m, np.float64(x)))
    jh, jl = 1.0, 0.0  # the seed, at order nstart
    jph = jpl = sh = sl = outh = outl = 0.0
    i2h, i2l = dd_div_dd(2.0, x)
    for order in range(nstart, -1, -1):
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
            jh, jl, jph, jpl, sh, sl, outh, outl = (
                v * _RESCALE_FACTOR for v in (jh, jl, jph, jpl, sh, sl, outh, outl))
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
    """J_m(x) for integer m (|m| <= 1e6) and finite x >= 0: relative error <= 1e-12
    against a high-precision reference where |J_m(x)| > 1e-300, absolute below that."""
    _validate(m, x)
    m, x = int(m), float(x)
    if m < 0:
        v = bessel_j(-m, x)
        return -v if m % 2 else v
    if x < _TINY_X_CUT or (x < _SERIES_X_CUT and m <= _SERIES_M_CUT):
        rows = _series_rows(m, np.array([x]))
        return float(rows[m, 0]) if m < len(rows) else 0.0
    return _miller_scalar(m, x)


def bessel_j_prime(m: int, x: float) -> float:
    """J'_m(x) by the exact identity (J_{m-1} - J_{m+1}) / 2; J'_0 is -J_1, bit-exactly."""
    _validate(m, x)
    m, x = int(m), float(x)
    if m < 0:
        v = bessel_j_prime(-m, x)
        return -v if m % 2 else v
    if m == 0:
        return -bessel_j(1, x)
    return 0.5 * (bessel_j(m - 1, x) - bessel_j(m + 1, x))


def _miller_table(m_max: int, x: np.ndarray) -> np.ndarray:
    """Vectorized normalized Miller recurrence, m = 0..m_max, x_i >= ~1.

    Each lane carries J of the current and the previous order and the
    normalization sum as (hi, lo) double-double pairs, and lanes whose J
    passes 2**830 are rescaled at that step.  The recurrence fills the
    returned array, which is normalized in place one row at a time.
    """
    n = x.size
    nstart = _start_orders(m_max, x)
    n_top = int(nstart.max())
    i2h, i2l = dd_div_dd(2.0, x)
    jh, jl, jph, jpl, sh, sl = (np.zeros(n) for _ in range(6))
    out = np.zeros((m_max + 1, n))

    has_seed = np.zeros(n_top + 1, dtype=bool)
    has_seed[nstart] = True

    for order in range(n_top, -1, -1):
        if has_seed[order]:
            seed = nstart == order
            jh[seed], jl[seed], jph[seed], jpl[seed] = 1.0, 0.0, 0.0, 0.0
        if order <= m_max:
            out[order] = jh
        if order == 0:
            sh, sl = dd_add(sh, sl, jh, jl)
            break
        if order % 2 == 0:
            sh, sl = dd_add(sh, sl, 2.0 * jh, 2.0 * jl)
        ch, cl = dd_mul_d(i2h, i2l, float(order))
        th, tl = dd_mul(ch, cl, jh, jl)
        jph, jpl, (jh, jl) = jh, jl, dd_add(th, tl, -jph, -jpl)
        if np.abs(jh).max() > _RESCALE_THRESHOLD:
            big = np.abs(jh) > _RESCALE_THRESHOLD
            for arr in (jh, jl, jph, jpl, sh, sl):
                arr[big] *= _RESCALE_FACTOR
            out[:, big] *= _RESCALE_FACTOR

    rh, rl = dd_div(np.ones(n), np.zeros(n), sh, sl)
    for row in out:  # in place: no second table-sized buffer
        row[:] = row * rh + row * rl
    return out


def _upward_table(m_max: int, x: np.ndarray) -> np.ndarray:
    """Plain float64 J_0..J_m_max by upward recurrence, rows above floor(x)
    by a short downward pass; valid on lanes with x >= _HANKEL_X_CUT.

    J_0 and J_1 come from Hankel's expansion, cos x and sin x from complex
    exp (as channel.superpose takes them, so no result depends on the SIMD
    dispatch of float64 cos/sin).  J_{m+1} = (2m/x) J_m - J_{m-1} is stable
    upward while m < x (Gautschi, SIAM Rev. 9, 1967) and writes every row of
    the returned table.  Rows past x, where the recurrence turns unstable,
    are discarded on lanes with 25 <= x < m_max: _downward_rows recurs down
    over just those lanes from _start_orders (as Miller's does) and writes
    their rows floor(x) + 1 .. m_max, scaled to meet the upward value at
    floor(x).  That value needs no normalization sum and is well
    conditioned: x lies below the first zero of J_floor(x).  Lanes with
    x < _HANKEL_X_CUT hold garbage here (inf and NaN included), which the
    caller replaces.
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
    lanes = np.flatnonzero((x >= _HANKEL_X_CUT) & (x < m_max))
    if lanes.size:
        _downward_rows(out, x, lanes)
    return out


def _downward_rows(out: np.ndarray, x: np.ndarray, lanes: np.ndarray) -> None:
    """In the table `out` at arguments x, replace rows floor(x) + 1 .. m_max
    of the listed lanes by a downward recurrence scaled to the upward row
    floor(x), over those lanes alone, sorted by x: the lanes that take row n
    are a prefix and those that meet the upward row at n a slice.  Rows are
    written as the recurrence goes and scaled at the end.  A lane reads no
    other and steps from the set's highest start order to its lowest
    floor(x), as over the contiguous range of lanes that holds the set."""
    m_max = out.shape[0] - 1
    lanes = lanes[np.argsort(x[lanes], kind="stable")]
    x = x[lanes]
    nstart = _start_orders(m_max, x)
    floor = np.floor(x).astype(np.int64)
    n_top, n_low, n_meet = int(nstart.max()), int(floor[0]), int(floor[-1])
    cut = np.searchsorted(floor, np.arange(m_max + 2))  # cut[n]: the lanes with floor(x) < n
    has_seed = np.zeros(n_top + 1, dtype=bool)
    has_seed[nstart] = True
    inv_x = 1.0 / x
    j, jp, t, meet = (np.zeros(x.size) for _ in range(4))
    for order in range(n_top, n_low - 1, -1):
        if has_seed[order]:
            seed = nstart == order
            j[seed], jp[seed] = 1.0, 0.0
        if order <= m_max:
            out[order, lanes[:cut[order]]] = j[:cut[order]]
        if order <= n_meet:
            meet[cut[order]:cut[order + 1]] = j[cut[order]:cut[order + 1]]
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
            for n in range(order, m_max + 1):
                rows = lanes[:cut[n]][big[:cut[n]]]
                out[n, rows] *= _RESCALE_FACTOR
    scale = out[floor, lanes] / meet
    for n in range(n_low + 1, m_max + 1):
        out[n, lanes[:cut[n]]] *= scale[:cut[n]]


def bessel_j_table(m_max: int, x, compensated: bool = True) -> np.ndarray:
    """J_m(x_i) for all m = 0..m_max over a vector of arguments.

    Returns an array of shape (m_max + 1, len(x)): one pass per argument
    yields every order at once, which is how the filter banks consume this.
    Lanes with x < 1 take the series kernel, over all (order, argument)
    pairs of a block of lanes at once; the others the compensated Miller
    recurrence, except that with ``compensated=False`` lanes with x >= 25
    take the plain float64 upward and downward recurrences of the module
    docstring: ample for filter synthesis, not the strict scalar contract.
    So the two tables differ only on lanes with x >= 25, and either way a
    column depends on its own argument only, bit for bit.
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
        return _miller_table(m_max, x)
    out = np.zeros((m_max + 1, x.size)) if compensated else _upward_table(m_max, x)
    if miller.any():
        out[:, miller] = _miller_table(m_max, x[miller])
    lanes = np.flatnonzero(tiny)
    for first in range(0, lanes.size, _SERIES_LANES):
        cols = lanes[first:first + _SERIES_LANES]
        rows = _series_rows(m_max, x[cols])
        out[:len(rows), cols] = rows
        out[len(rows):, cols] = 0.0
    return out
