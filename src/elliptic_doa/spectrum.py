"""Joint azimuth-delay maps, peak extraction and the artifact-ratio metric.

The mode-frequency matrix transforms with opposite-sign kernels to the
synthesis convention:

    S(phi_q, tau_k) = | sum_m sum_k' H[m, k'] e^{-j m phi_q} e^{-j 2 pi k' df tau_k} |

evaluated by FFTs with the mode axis laid out so m = 0 maps to bin 0 and
negative modes wrap.  Azimuth bins step 360/(M * pad_az) degrees; delay bins
step 1/(B * pad_delay) seconds (the frequency kernel is referenced to the
band start, so delay bins land on k/B regardless of the carrier; the
constant start-frequency phase ramp is invisible to the magnitude).

Quality is summarized by delta_db = 20 log10(main peak / largest artifact),
an artifact being a strict 8-neighbor local maximum outside a small
exclusion window around the main peak.  The window is measured in
*resolution cells* (360/M in azimuth, 1/B in delay) so that zero padding
does not shrink it into the peak's own main lobe.  Both axes carry the
sidelobe skirt of a rectangular truncation window (modes in azimuth,
samples in delay): sidelobe k sits (2k+1)/2 cells out at ~2/((2k+1) pi)
relative amplitude.  Those skirts are part of the peak's own response
envelope, not geometry-induced artifacts, so the default window of +-5
cells per axis excludes them down to -24.7 dB.  find_peaks reads a map in
one pass; JointSpectrum.peak is its global maximum alone, under one tie rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .beamform import ModeMatrix
from .channel import FrequencyGrid
from .errors import DegenerateInputError, DomainError

DEFAULT_EXCLUSION_CELLS = (5, 5)
TIE_RTOL = 1e-10  # two bins straddling an arrival's mirror axis differ by ~1e-12
_RANKED_MAXIMA = 10  # local maxima a peak report lists, strongest first
_PGM_FLOOR_DB = -35.0  # heatmap dynamic range below the peak


def joint_spectrum(modes: ModeMatrix, pad_az: int = 1, pad_delay: int = 1) -> "JointSpectrum":
    """2-D transform of the mode matrix into the azimuth-delay magnitude map,
    in place in one zeroed (n_az, n_delay) buffer, the modes in its first K
    columns: the azimuth transform over those, the delay one over all."""
    if pad_az < 1 or pad_delay < 1:
        raise DomainError("pad factors must be >= 1")
    m_count = 2 * modes.mode_half + 1
    n_az = m_count * pad_az
    k_count = modes.grid.samples
    buf = np.zeros((n_az, k_count * pad_delay), dtype=complex)
    buf[modes.modes % n_az, :k_count] = modes.values
    np.fft.fft(buf[:, :k_count], axis=0, out=buf[:, :k_count])
    np.fft.fft(buf, axis=1, out=buf)
    return JointSpectrum(magnitudes=np.abs(buf), pad_az=pad_az, pad_delay=pad_delay,
                         grid=modes.grid)


@dataclass
class JointSpectrum:
    """Magnitude map over azimuth bins (rows) and delay bins (columns)."""

    magnitudes: np.ndarray
    pad_az: int
    pad_delay: int
    grid: FrequencyGrid

    @property
    def delay_bins_s(self) -> np.ndarray:
        n = self.magnitudes.shape[1]
        return np.arange(n) / (self.pad_delay * self.grid.bandwidth_hz)

    def azimuth_of_bin(self, q: int) -> float:
        # multiply first so exact divisors yield exact degrees
        return (q * 360.0) / self.magnitudes.shape[0]

    def delay_of_bin(self, k: int) -> float:
        return k / (self.pad_delay * self.grid.bandwidth_hz)

    def peak(self) -> "SpectrumPeak":
        """The global maximum under `_strongest`'s tie rule, as find_peaks picks it."""
        return self._peak_at(_strongest(self.magnitudes))

    def _peak_at(self, cell: int) -> "SpectrumPeak":
        """The peak at a flat (azimuth, delay) bin index."""
        q, k = divmod(cell, self.magnitudes.shape[1])
        return SpectrumPeak(phi_deg=self.azimuth_of_bin(q), tau_s=self.delay_of_bin(k),
                            magnitude=float(self.magnitudes[q, k]))

    def _magnitudes_db(self) -> np.ndarray:
        """Magnitudes in dB relative to the global peak, floored at -400 dB."""
        peak = self.magnitudes.max()
        if peak <= 0.0:
            raise DegenerateInputError("cannot export an all-zero spectrum")
        db = np.maximum(self.magnitudes, peak * 1e-20)
        db /= peak
        return np.multiply(np.log10(db, out=db), 20.0, out=db)

    def export_csv(self, path) -> None:
        """Write `phi_deg,tau_s,mag_db` rows, dB relative to the global peak,
        as bytes: every line ends in LF on every platform."""
        db = self._magnitudes_db()
        # one ",tau,%.10g\n" piece per delay bin; a row joins them after its azimuth
        pieces = [b""] + [b",%.17g,%%.10g\n" % tau for tau in self.delay_bins_s]
        with open(path, "wb") as fh:
            fh.write(b"phi_deg,tau_s,mag_db\n")
            for q, row in enumerate(db):
                fh.write((b"%.10g" % self.azimuth_of_bin(q)).join(pieces) % tuple(row.tolist()))

    def export_pgm(self, path) -> None:
        """8-bit binary PGM heatmap.

        Rows are azimuth bins ascending, columns delay bins ascending; the
        dynamic range clamps at -35 dB (_PGM_FLOOR_DB) below the peak, with
        255 at the peak and 0 at or below the floor.
        """
        img = self._magnitudes_db()  # scaled, clipped and rounded in place
        img /= _PGM_FLOOR_DB
        np.multiply(np.subtract(1.0, img, out=img), 255.0, out=img)
        img = np.clip(img, 0.0, 255.0, out=img).round(out=img).astype(np.uint8)
        n_az, n_d = img.shape
        header = (f"P5\n# rows: azimuth bins 0..{n_az - 1}, step {360.0 / n_az:.10g} deg\n"
                  f"# cols: delay bins 0..{n_d - 1}, "
                  f"step {1.0 / (self.pad_delay * self.grid.bandwidth_hz):.10g} s\n"
                  f"{n_d} {n_az}\n255\n")
        with open(path, "wb") as fh:
            fh.write(header.encode("ascii"))
            fh.write(img.tobytes())


@dataclass(frozen=True)
class SpectrumPeak:
    phi_deg: float
    tau_s: float
    magnitude: float


@dataclass(frozen=True)
class PeakReport:
    """Main peak, strongest artifact and their ratio for one spectrum."""

    main: SpectrumPeak
    artifact: Optional[SpectrumPeak]
    delta_db: float
    maxima: tuple
    exclusion_cells: tuple

    def to_text(self) -> str:
        lines = [f"main: phi_deg={self.main.phi_deg:.10g} tau_s={self.main.tau_s:.17g} "
                 f"mag={self.main.magnitude:.10g}"]
        if self.artifact is None:
            lines.append("artifact: none")
        else:
            lines.append(f"artifact: phi_deg={self.artifact.phi_deg:.10g} "
                         f"tau_s={self.artifact.tau_s:.17g} mag={self.artifact.magnitude:.10g}")
        lines.append(f"delta_db={self.delta_db:.10g}")
        lines.append(f"exclusion_cells={self.exclusion_cells[0]},{self.exclusion_cells[1]}")
        for i, pk in enumerate(self.maxima):
            lines.append(f"rank {i}: phi_deg={pk.phi_deg:.10g} tau_s={pk.tau_s:.17g} "
                         f"mag={pk.magnitude:.10g}")
        return "\n".join(lines)


def _local_maxima_mask(s: np.ndarray) -> np.ndarray:
    """Strictly-greater-than-8-neighbors mask; azimuth cyclic, delay clamped.

    The delay and azimuth neighbors are compared over the whole map, the four
    diagonal ones only at the cells that pass those four."""
    n_d = s.shape[1]
    mask = np.ones(s.shape, dtype=bool)
    np.greater(s[:, 1:], s[:, :-1], out=mask[:, 1:])
    mask[:, :-1] &= s[:, :-1] > s[:, 1:]
    mask[1:] &= s[1:] > s[:-1]
    mask[:-1] &= s[:-1] > s[1:]
    mask[0] &= s[0] > s[-1]  # the azimuth wrap
    mask[-1] &= s[-1] > s[0]
    cells = np.flatnonzero(mask)
    flat, k = s.ravel(), cells % n_d
    values, keep = flat[cells], np.ones(cells.size, dtype=bool)
    for dk, edge in ((-1, k == 0), (1, k == n_d - 1)):
        for dq in (-n_d, n_d):  # flat indices wrap as azimuth does
            keep &= (values > flat.take(cells + dq + dk, mode="wrap")) | edge
    mask.ravel()[cells[~keep]] = False
    return mask


def _strongest(s: np.ndarray, cells: Optional[np.ndarray] = None) -> int:
    """Flat index of the maximum of s among `cells` (ascending flat indices;
    None: all of s).

    Entries within TIE_RTOL of the maximum tie, so rounding cannot move the
    pick; ties go to the bin farther from azimuth 0 (mirrored scenes pick
    mirrored bins), then to the lowest (azimuth, delay) pair.
    """
    values = s.ravel() if cells is None else s.ravel()[cells]
    tied = np.flatnonzero(values >= values.max() * (1.0 - TIE_RTOL))
    tied = tied if cells is None else cells[tied]
    q = tied // s.shape[1]
    return int(tied[np.argmax(np.minimum(q, s.shape[0] - q))])


def find_peaks(spectrum: JointSpectrum,
               expected: Optional[tuple] = None,
               exclusion_cells: tuple = DEFAULT_EXCLUSION_CELLS) -> PeakReport:
    """Locate the main peak and the largest artifact.

    With ``expected`` = (phi_deg, tau_s), the main peak is the maximum within
    the exclusion window around the expected bin (so a wrong global maximum
    shows up as delta_db < 0); otherwise it is the global maximum.  The main
    peak, the artifact and the ranking of the ten strongest local maxima
    (_RANKED_MAXIMA) all break ties as `_strongest` does; the ranking picks
    among the maxima within TIE_RTOL of the tenth largest or above it.
    """
    s = spectrum.magnitudes
    if not np.any(s > 0.0):
        raise DegenerateInputError("spectrum is identically zero")
    n_az, n_d = s.shape
    excl_q = int(exclusion_cells[0]) * spectrum.pad_az
    excl_k = int(exclusion_cells[1]) * spectrum.pad_delay

    def window_mask(q0: int, k0: int) -> np.ndarray:
        dq = np.abs(np.arange(n_az) - q0)
        dq = np.minimum(dq, n_az - dq)
        dk = np.abs(np.arange(n_d) - k0)
        return (dq[:, None] <= excl_q) & (dk[None, :] <= excl_k)

    cells = None
    if expected is not None:
        phi_e, tau_e = expected
        # exact fmod and clamping before round(): huge finite positions cannot overflow
        q_e = int(round(math.fmod(phi_e, 360.0) / 360.0 * n_az)) % n_az
        k_e = int(round(min(max(tau_e * spectrum.pad_delay * spectrum.grid.bandwidth_hz, 0.0),
                            n_d - 1.0)))
        cells = np.flatnonzero(window_mask(q_e, k_e))
    main_cell = _strongest(s, cells)
    main = spectrum._peak_at(main_cell)

    maxima_mask = _local_maxima_mask(s)
    candidates = np.flatnonzero(maxima_mask & ~window_mask(*divmod(main_cell, n_d)))
    artifact = spectrum._peak_at(_strongest(s, candidates)) if candidates.size else None
    delta_db = (math.inf if artifact is None or artifact.magnitude == 0.0
                else 20.0 * math.log10(main.magnitude / artifact.magnitude))

    # rank by repeated picks, so maxima within TIE_RTOL of each other (mirror
    # twins) keep the tie rule's order whatever their rounding; a pick is
    # within TIE_RTOL of the largest maximum left, which is never below the
    # tenth largest
    maxima, left = [], np.flatnonzero(maxima_mask)
    if left.size > _RANKED_MAXIMA:
        values = s.ravel()[left]
        left = left[values >= np.partition(values, -_RANKED_MAXIMA)[-_RANKED_MAXIMA]
                    * (1.0 - TIE_RTOL)]
    for _ in range(min(_RANKED_MAXIMA, left.size)):
        cell = _strongest(s, left)
        maxima.append(spectrum._peak_at(cell))
        left = left[left != cell]
    return PeakReport(main=main, artifact=artifact, delta_db=float(delta_db),
                      maxima=tuple(maxima),
                      exclusion_cells=(int(exclusion_cells[0]), int(exclusion_cells[1])))
