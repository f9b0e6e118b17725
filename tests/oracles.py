"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, literal way (mpmath
arbitrary precision, plain Python loops over the defining sums) so it shares
no code path with the package.  The dense filter-bank views at the end are
the exception: they read a package FilterBank back out in the literal
(mode x sensor) layout, which only tests need.
"""

import cmath
import math

import mpmath as mp
import numpy as np

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


def bank_weights_at(bank, ring, k):
    """(mode_half + 1, U) weights of one ring at one frequency; rows are m = 0..M_h."""
    return bank.weights_from_jtable(ring, bank.ring_jtable(ring), k)


def bank_dense_weights(bank, ring, k):
    """Dense (2 mode_half + 1, P) weights; row i is mode m = i - mode_half."""
    gather = bank_weights_at(bank, ring, k)[:, bank.ring_sensor_map[ring]]
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
