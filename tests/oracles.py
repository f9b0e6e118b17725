"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, literal way (mpmath
arbitrary precision, plain Python loops over the defining sums) so it shares
no code path with the package.  The helpers at the end are the exception:
they read a package FilterBank back out in the literal (mode x sensor)
layout, keep the per-cell writers the array-speed exports must match byte
for byte, hold scalar conveniences built on the package's Bessel
functions, and read a run's peak report anchored on its first wave, all of
which only tests need.
"""

import cmath
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from elliptic_doa.beamform import DENOMINATOR_FLOOR, DESIGNS
from elliptic_doa.errors import DomainError, InstabilityError
from elliptic_doa.specfun import bessel_j, bessel_j_prime
from elliptic_doa.spectrum import find_peaks

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


def brute_phase_mode(channel_values, phis, radii, freqs, mode_half, design="robust"):
    """Literal per-term phase-mode expansion of one ring, no reductions.

    H_m(f_k) = (1/P) sum_p H[p,k] e^{j m phi_p} W_{m,p}(f_k) with the filter
    evaluated through mpmath Bessel values, term by term.
    """
    p_count = len(phis)
    k_count = len(freqs)
    out = np.zeros((2 * mode_half + 1, k_count), dtype=complex)
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


def bank_weights_at(bank, k):
    """(mode_half + 1, U) weights over the bank's radii at sample k; rows are m = 0..M_h."""
    return bank.weights_from_jtable(bank.jtable(k, k + 1)[:, 0], k)


def bank_dense_weights(bank, ring, k):
    """Dense (2 mode_half + 1, P) weights of one ring; row i is mode m = i - mode_half."""
    gather = bank_weights_at(bank, k)[:, bank.ring_sensor_map[ring]]
    abs_m = np.abs(np.arange(-bank.mode_half, bank.mode_half + 1))
    return gather[abs_m]


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
