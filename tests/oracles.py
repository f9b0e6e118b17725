"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, literal way (mpmath
arbitrary precision, plain Python loops over the defining sums) so it shares
no code path with the package.  The helpers at the end are the exception:
they read a package FilterBank back out in the literal (mode x sensor)
layout, keep the per-cell writers the array-speed exports must match byte
for byte, keep the plainer formulations (parity selection, the stacked
fold, the one-buffer joint transform, ranking over all maxima, the text
writer, the one-expression heatmap) the fast paths must match, hold scalar
conveniences built on the package's Bessel functions, and read a run's peak
report anchored on its first wave, all of which only tests need.
"""

import cmath
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from elliptic_doa.beamform import DENOMINATOR_FLOOR, DESIGNS
from elliptic_doa.errors import DomainError, InstabilityError
from elliptic_doa.specfun import (_RESCALE_FACTOR, _RESCALE_THRESHOLD, _start_orders, bessel_j,
                                  bessel_j_prime)
from elliptic_doa.spectrum import _PGM_FLOOR_DB, _RANKED_MAXIMA, TIE_RTOL, find_peaks

C = 299_792_458.0


def ref_bessel_j(m: int, x: float, dps: int = 40) -> float:
    """High-precision J_m(x) via mpmath, rounded once to double."""
    with mp.workdps(dps):
        return float(mp.besselj(int(m), mp.mpf(x)))


def ref_bessel_j_prime(m: int, x: float, dps: int = 40) -> float:
    with mp.workdps(dps):
        return float(mp.besselj(int(m), mp.mpf(x), 1))


def series_bessel_j(m: int, x: float) -> float:
    """Ascending power series summed in high precision.

    Working precision grows with x to absorb the alternating-series
    cancellation, so this stays a trustworthy independent oracle for the
    small-argument regime it is used in (x up to a few hundred).
    """
    m = abs(int(m)), int(m)
    sign = -1.0 if (m[1] < 0 and m[0] % 2) else 1.0
    m = m[0]
    dps = 30 + int(math.ceil(abs(x)))
    with mp.workdps(dps):
        xh = mp.mpf(x) / 2
        term = xh**m / mp.factorial(m)
        total = term
        for k in range(1, 10_000):
            term = -term * xh * xh / (k * (m + k))
            total += term
            if abs(term) < mp.mpf(10) ** (-dps) * (abs(total) + 1):
                break
        return sign * float(total)


def bessel_reference_suite(rng, n=10_000):
    """Criterion 07's (order, argument) pairs: orders 0..300, arguments
    uniform to 5000, log-uniform from 1e-8, uniform below 30, and within
    0.8-1.25 of the order."""
    m = rng.integers(0, 301, size=n)
    x = np.empty(n)
    kinds = rng.random(n)
    x[kinds < 0.5] = rng.uniform(0.0, 5000.0, size=int((kinds < 0.5).sum()))
    log_sel = (kinds >= 0.5) & (kinds < 0.8)
    x[log_sel] = 10.0 ** rng.uniform(-8, math.log10(5000.0), size=int(log_sel.sum()))
    small_sel = (kinds >= 0.8) & (kinds < 0.95)
    x[small_sel] = rng.uniform(0.0, 30.0, size=int(small_sel.sum()))
    edge_sel = kinds >= 0.95
    x[edge_sel] = np.clip(rng.uniform(0.8, 1.25, size=int(edge_sel.sum()))
                          * m[edge_sel], 0.0, 5000.0)
    return m, x


def contiguous_downward_rows(block, x, low):
    """The plain table's downward pass over one contiguous range of lanes,
    `block` a view of them: rows floor(x) + 1 .. m_max of the `low` lanes by
    a downward recurrence scaled to the upward row floor(x), every lane of
    the range stepped and masked at every order.  specfun._downward_rows,
    which gathers the low lanes, must give the same bits."""
    m_max = block.shape[0] - 1
    nstart = np.where(low, _start_orders(m_max, x), -1)
    floor = np.where(low, np.floor(x).astype(np.int64), np.iinfo(np.int64).max)
    n_top, n_low, n_meet = int(nstart.max()), int(floor.min()), int(floor[low].max())
    has_seed = np.zeros(n_top + 1, dtype=bool)
    has_seed[nstart[low]] = True
    inv_x = np.divide(1.0, x, out=np.ones(x.size), where=low)
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


def brute_phase_mode(channel_values, phis, radii, freqs, mode_half, design="robust"):
    """Literal per-term phase-mode expansion of one ring, no reductions.

    H_m(f_k) = (1/P) sum_p H[p,k] e^{j m phi_p} W_{m,p}(f_k) with the filter
    evaluated through mpmath Bessel values, term by term.  A trailing point
    axis on channel_values, H[p, k, b], gives out[i, k, b].
    """
    p_count = len(phis)
    k_count = len(freqs)
    out = np.zeros((2 * mode_half + 1, k_count) + np.shape(channel_values)[2:], dtype=complex)
    for mi, m in enumerate(range(-mode_half, mode_half + 1)):
        jm = 1j**m
        for k in range(k_count):
            acc = 0.0 + 0.0j
            for p in range(p_count):
                x = 2.0 * math.pi * freqs[k] * radii[p] / C
                jv = ref_bessel_j(m, x)
                if design == "plain":
                    w = 1.0 / (jm * jv)
                else:
                    jvp = ref_bessel_j_prime(m, x)
                    w = 2.0 / (jm * (jv + 1j * jvp))
                acc += channel_values[p, k] * cmath.exp(1j * m * phis[p]) * w
            out[mi, k] = acc / p_count
    return out


def brute_joint_spectrum(mode_values, mode_half, k_count):
    """Direct double-loop DFT of the mode matrix (no FFT, no padding)."""
    m_count = 2 * mode_half + 1
    out = np.zeros((m_count, k_count))
    modes = np.arange(-mode_half, mode_half + 1)
    for q in range(m_count):
        phi = 2.0 * math.pi * q / m_count
        for t in range(k_count):
            acc = 0.0 + 0.0j
            for mi in range(m_count):
                for k in range(k_count):
                    acc += (mode_values[mi, k]
                            * cmath.exp(-1j * modes[mi] * phi)
                            * cmath.exp(-2j * math.pi * k * t / k_count))
            out[q, t] = abs(acc)
    return out


def brute_local_maxima(s):
    """Per-cell loop: True where s beats all 8 neighbors strictly; azimuth
    (rows) cyclic, delay (columns) clamped, so edge columns have 5 neighbors."""
    n_az, n_d = s.shape
    out = np.zeros(s.shape, dtype=bool)
    for q in range(n_az):
        for k in range(n_d):
            out[q, k] = all(s[q, k] > s[(q + dq) % n_az, k + dk]
                            for dq in (-1, 0, 1) for dk in (-1, 0, 1)
                            if (dq, dk) != (0, 0) and 0 <= k + dk < n_d)
    return out


def brute_planewave_entry(wave_amp, wave_delay, wave_az_deg, wave_el_deg,
                          x_m, y_m, f_hz):
    """Scalar far-field channel entry from the defining formula."""
    r = math.hypot(x_m, y_m)
    phi_p = math.atan2(y_m, x_m)
    phi = math.radians(wave_az_deg)
    theta = math.radians(wave_el_deg)
    h0 = wave_amp * cmath.exp(2j * math.pi * f_hz * wave_delay)
    geo = 2j * math.pi * f_hz * r * math.sin(theta) * math.cos(phi - phi_p) / C
    return h0 * cmath.exp(geo)


def brute_spherical_entry(wave_amp, wave_delay, wave_az_deg, wave_el_deg,
                          dist_m, x_m, y_m, f_hz):
    """Scalar exact spherical channel entry from the defining formula."""
    r = math.hypot(x_m, y_m)
    phi_p = math.atan2(y_m, x_m)
    phi = math.radians(wave_az_deg)
    theta = math.radians(wave_el_deg)
    d_p = math.sqrt(dist_m**2 + r**2
                    - 2.0 * dist_m * r * math.sin(theta) * math.cos(phi - phi_p))
    h0 = wave_amp * cmath.exp(2j * math.pi * f_hz * wave_delay)
    return (dist_m / d_p) * h0 * cmath.exp(2j * math.pi * f_hz * (dist_m - d_p) / C)


def longdouble_channel(scene, array, grid, model):
    """(P, K) channel of a scene in np.longdouble, from the realized sensor
    radii and azimuths: every wave's phase 2 pi f_k (tau + path_p / c), with
    f_k = f_start + k B / K, taken in one piece and summed wave by wave."""
    ld = np.longdouble
    pi = np.arccos(ld(-1.0))
    freqs = ld(grid.f_start_hz) + np.arange(grid.samples, dtype=ld) * (
        ld(grid.bandwidth_hz) / grid.samples)
    rows = []
    for ring in range(array.ring_count):
        r = array.ring_radii(ring).astype(ld)
        phi_p = array.ring_azimuths(ring).astype(ld)
        acc = np.zeros((r.size, freqs.size), dtype=np.clongdouble)
        for w in scene:
            theta, phi = ld(w.elevation_deg) * pi / 180, ld(w.azimuth_deg) * pi / 180
            if model == "planewave":
                path, gain = r * np.sin(theta) * np.cos(phi - phi_p), np.ones_like(r)
            else:
                d = ld(w.distance_m)
                d_p = np.sqrt(d * d + r * r - 2 * d * r * np.sin(theta) * np.cos(phi - phi_p))
                path, gain = d - d_p, d / d_p
            arg = 2 * pi * np.outer(ld(w.delay_s) + path / ld(C), freqs)
            acc += (ld(w.amplitude) * gain)[:, None] * (np.cos(arg) + 1j * np.sin(arg))
        rows.append(acc)
    return np.concatenate(rows)


def j_power(m):
    """j^m for integer m, exactly (one of 1, j, -1, -j)."""
    return np.array([1, 1j, -1, -1j])[np.asarray(m) % 4]


def bank_weights_at(bank, k):
    """(mode_half + 1, U) weights W over the bank's radii at sample k; rows are
    m = 0..M_h.  The bank's kernel writes W j^m, which j^-m turns into W exactly."""
    w = np.empty((bank.mode_half + 1, bank.radii.size), dtype=complex)
    bank.weights_from_jtable(bank.jtable(k, k + 1)[:, 0], k, w,
                             np.empty((w.shape[0] + 1, w.shape[1])))
    return w * j_power(-np.arange(w.shape[0]))[:, None]


def sensor_columns(bank, ring):
    """The bank column of each sensor p of one ring: its own representative's
    when the ring lists P, the one column when it lists one, and else that of
    its quadrant representative r = min(p, |P/2 - p|, P - p)."""
    columns = bank.ring_columns[ring]
    p = np.arange(len(bank.array.ring_xy(ring)))
    if columns.size in (1, p.size):
        return np.broadcast_to(columns, p.shape)
    return columns[np.minimum.reduce([p, np.abs(p.size // 2 - p), p.size - p])]


def bank_dense_weights(bank, ring, k):
    """Dense (2 mode_half + 1, P) weights of one ring; row i is mode m = i - mode_half."""
    gather = bank_weights_at(bank, k)[:, sensor_columns(bank, ring)]
    abs_m = np.abs(np.arange(-bank.mode_half, bank.mode_half + 1))
    return gather[abs_m]


def parity_select_products(w, cos_mt, sin_mt, sums, diffs):
    """One sample's (even, odd) mode sums the wasteful way: each weight-phase
    product (rows m = 0..M_h) against every parity column of the fold, then
    row m keeps column m mod 2, or column 0 when the fold has one.  w, cos_mt
    and sin_mt are (M_h + 1, R), sums and diffs (G B, R, parities); even and
    odd are (M_h + 1, G B)."""
    orders = np.arange(w.shape[0])
    parity = orders % sums.shape[-1]
    even = ((w * cos_mt) @ sums)[:, orders, parity].T
    odd = 1j * ((w * sin_mt) @ diffs)[:, orders, parity].T
    return even, odd


def stacked_fold(terms, k0, k1):
    """A _ShapeTerms fold of samples k0..k1-1 the stacked way: each ring's
    data moved to (K, B, P), its orbits gathered across the sensor stride,
    then the parity pairs A and B of fold's docstring stacked on a last axis
    before sums = A + B and diffs = A - B.  An unfolded ring's data are its
    own sums and diffs."""
    if not terms.folded:
        data = terms.data[0][:, k0:k1].transpose(1, 2, 0)[..., None]
        return data, data
    sums, diffs = [], []
    for data in terms.data:
        h = np.moveaxis(data, 0, -1)[k0:k1][..., terms.orbits]  # (k1 - k0, B, 4, R)
        h[..., [0, -1]] *= 0.5
        a = np.stack([h[..., 0, :] + h[..., 1, :], h[..., 0, :] - h[..., 1, :]], axis=-1)
        c = np.stack([h[..., 2, :] + h[..., 3, :], h[..., 2, :] - h[..., 3, :]], axis=-1)
        sums.append(a + c)
        diffs.append(a - c)
    return np.concatenate(sums, axis=1), np.concatenate(diffs, axis=1)


def one_buffer_joint_spectrum(modes, pad_az, pad_delay):
    """The magnitude map joint_spectrum must match bit for bit, from one
    zeroed complex (n_az, n_delay) buffer: the modes in its first K columns,
    the azimuth transform over those in place, the delay one over all."""
    n_az, k_count = (2 * modes.mode_half + 1) * pad_az, modes.grid.samples
    buf = np.zeros((n_az, k_count * pad_delay), dtype=complex)
    buf[modes.modes % n_az, :k_count] = modes.values
    np.fft.fft(buf[:, :k_count], axis=0, out=buf[:, :k_count])
    np.fft.fft(buf, axis=1, out=buf)
    return np.abs(buf)


def ranked_maxima(spectrum):
    """The strongest local maxima of a (small) map by repeated tie-rule picks
    over all of its maxima: what find_peaks lists as PeakReport.maxima."""
    s = spectrum.magnitudes
    left, picks = np.flatnonzero(brute_local_maxima(s)), []
    while left.size and len(picks) < _RANKED_MAXIMA:
        values = s.ravel()[left]
        tied = left[values >= values.max() * (1.0 - TIE_RTOL)]
        q = tied // s.shape[1]
        cell = int(tied[np.argmax(np.minimum(q, s.shape[0] - q))])
        picks.append(spectrum._peak_at(cell))
        left = left[left != cell]
    return tuple(picks)


def dump_bank_csv(bank, path):
    """Write the dense bank as `m,p,ring,f_hz,re,im` rows (small cases only)."""
    freqs = bank.grid.frequencies
    with open(path, "w") as fh:
        fh.write("m,p,ring,f_hz,re,im\n")
        for ring in range(bank.array.ring_count):
            for k in range(bank.grid.samples):
                dense = bank_dense_weights(bank, ring, k)
                for i, m in enumerate(range(-bank.mode_half, bank.mode_half + 1)):
                    for p, w in enumerate(dense[i]):
                        fh.write(f"{m},{p},{ring},{freqs[k]:.17g},"
                                 f"{w.real:.17g},{w.imag:.17g}\n")


def export_csv_cells(spectrum, path):
    """Per-cell `phi_deg,tau_s,mag_db` writer that JointSpectrum.export_csv must match."""
    mags = spectrum.magnitudes
    peak = mags.max()
    db = 20.0 * np.log10(np.maximum(mags, peak * 1e-20) / peak)
    taus = spectrum.delay_bins_s
    with open(path, "w") as fh:
        fh.write("phi_deg,tau_s,mag_db\n")
        for q in range(mags.shape[0]):
            phi = spectrum.azimuth_of_bin(q)
            for k in range(mags.shape[1]):
                fh.write(f"{phi:.10g},{taus[k]:.17g},{db[q, k]:.10g}\n")


def export_csv_text(spectrum, path):
    """Row-at-a-time `phi_deg,tau_s,mag_db` writer through a text-mode file
    and str formatting, that JointSpectrum.export_csv must match."""
    db = spectrum._magnitudes_db()
    pieces = [""] + [f",{tau:.17g},%.10g\n" for tau in spectrum.delay_bins_s]
    with open(path, "w", newline="\n") as fh:
        fh.write("phi_deg,tau_s,mag_db\n")
        for q, row in enumerate(db):
            fh.write(f"{spectrum.azimuth_of_bin(q):.10g}".join(pieces) % tuple(row.tolist()))


def pgm_pixels(spectrum):
    """The heatmap pixels JointSpectrum.export_pgm must write, each step a
    fresh array."""
    mags = spectrum.magnitudes
    db = 20.0 * np.log10(np.maximum(mags, mags.max() * 1e-20) / mags.max())
    return np.clip(255.0 * (1.0 - db / _PGM_FLOOR_DB), 0.0, 255.0).round().astype(np.uint8)


def export_channel_cells(channel, path):
    """Per-cell `p,f_hz,re,im` writer that channel.export_channel must match."""
    freqs = channel.grid.frequencies
    with open(path, "w") as fh:
        fh.write("p,f_hz,re,im\n")
        for p in range(channel.values.shape[0]):
            row = channel.values[p]
            for k in range(channel.values.shape[1]):
                fh.write(f"{p},{freqs[k]:.17g},{row[k].real:.17g},{row[k].imag:.17g}\n")


def make_filter(design, m, radius_m, f_hz, floor=DENOMINATOR_FLOOR):
    """Single filter weight at one (mode, radius, frequency).

    The "average" design uses the robust form; callers pass the averaged
    radius.  Raises InstabilityError when the denominator magnitude falls
    below ``floor``.
    """
    if design not in DESIGNS:
        raise DomainError(f"unknown filter design {design!r}")
    x = 2.0 * math.pi * f_hz * radius_m / C
    jm = bessel_j(m, x)
    if design == "plain":
        den = complex(jm, 0.0)
    else:
        den = jm + 1j * bessel_j_prime(m, x)
    if abs(den) < floor:
        raise InstabilityError(
            f"filter denominator |{den:.3e}| below floor {floor:.1e} "
            f"at m={m}, r={radius_m} m, f={f_hz} Hz")
    num = 1.0 if design == "plain" else 2.0
    return num / ((1, 1j, -1, -1j)[m % 4] * den)


@dataclass(frozen=True)
class BesselEval:
    """One (order, argument) evaluation bundling value and derivative."""

    order: int
    argument: float
    value: float
    derivative: float

    @classmethod
    def compute(cls, m, x):
        return cls(order=int(m), argument=float(x),
                   value=bessel_j(m, x), derivative=bessel_j_prime(m, x))


def rotate_sensors(xy, alpha_deg):
    """Rigid counterclockwise rotation of (P, 2) coordinates by alpha_deg
    about the array center: the reference for building a ring with its
    rotation folded into the parametrization.  Radii are preserved (to
    rounding)."""
    alpha = math.radians(alpha_deg)
    ca, sa = math.cos(alpha), math.sin(alpha)
    x, y = xy[:, 0], xy[:, 1]
    return np.column_stack([x * ca - y * sa, x * sa + y * ca])


def mirror_rotate_sensors(xy, alpha_deg):
    """The substitution x -> x cos a + y sin a, y -> x sin a - y cos a on (P, 2)
    coordinates.

    This is an *improper* rotation (determinant -1): a reflection across the
    x-axis followed by a counterclockwise rotation by alpha_deg.  It still
    preserves radii, but alpha_deg = 0 negates y rather than acting as the
    identity.
    """
    alpha = math.radians(alpha_deg)
    ca, sa = math.cos(alpha), math.sin(alpha)
    x, y = xy[:, 0], xy[:, 1]
    return np.column_stack([x * ca + y * sa, x * sa - y * ca])


def anchored_report(result):
    """A RunResult's peak report anchored on its first wave, with the run's
    exclusion window: what a sweep row reads for that point."""
    wave = result.scenario.scene[0]
    return find_peaks(result.spectrum, expected=(wave.azimuth_deg, wave.delay_s),
                      exclusion_cells=result.scenario.processing.exclusion_cells)
