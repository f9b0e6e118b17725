"""Synthetic wideband multipath channels and measured-channel ingestion.

Phase convention: a path with delay tau contributes exp(+j 2 pi f tau) at the
array center, and sensor responses add a positive-exponent geometric phase on
top.  The joint-spectrum transform uses the matching opposite kernel signs.

Frequency grids are half-open: K samples at f_k = f_start + k * B / K, so the
sample step is exactly B/K, the delay resolution of a K-point transform is
exactly 1/B, and the maximum observable delay is (K-1)/B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .constants import SPEED_OF_LIGHT
from .errors import (
    ChannelDimensionError,
    ConfigError,
    DomainError,
    NonFiniteDataError,
    NonUniformGridError,
)
from .geometry import SensorArray, _read_csv


@dataclass(frozen=True)
class IncidentWave:
    """One propagation path reaching the array.

    delay_s and distance_m are independent inputs: the delay drives the
    center response phase, the distance only the spherical geometry terms.
    Callers wanting physical consistency should set delay_s = distance_m / c,
    but this is not enforced.  distance_m = None means "far field" and is
    only valid with the plane-wave model.
    """

    azimuth_deg: float
    delay_s: float
    elevation_deg: float = 90.0
    amplitude: float = 1.0
    distance_m: Optional[float] = None

    def __post_init__(self):
        if not math.isfinite(self.azimuth_deg):
            raise DomainError(f"azimuth_deg must be finite, got {self.azimuth_deg}")
        if not (self.delay_s >= 0.0 and math.isfinite(self.delay_s)):
            raise DomainError(f"delay_s must be non-negative, got {self.delay_s}")
        if not (0.0 <= self.elevation_deg <= 180.0):
            raise DomainError(f"elevation_deg must be in [0, 180], got {self.elevation_deg}")
        if not (self.amplitude > 0.0 and math.isfinite(self.amplitude)):
            raise DomainError(f"amplitude must be positive, got {self.amplitude}")
        if self.distance_m is not None and not (
            self.distance_m > 0.0 and math.isfinite(self.distance_m)
        ):
            raise DomainError(f"distance_m must be positive and finite, got {self.distance_m}")


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform frequency sampling of one measurement band."""

    f_start_hz: float
    bandwidth_hz: float
    samples: int

    def __post_init__(self):
        if not (self.f_start_hz > 0.0 and math.isfinite(self.f_start_hz)):
            raise DomainError(f"f_start_hz must be positive, got {self.f_start_hz}")
        if not (self.bandwidth_hz > 0.0 and math.isfinite(self.bandwidth_hz)):
            raise DomainError(f"bandwidth_hz must be positive, got {self.bandwidth_hz}")
        if self.samples < 2:
            raise DomainError(f"need at least 2 samples, got {self.samples}")

    @property
    def step_hz(self) -> float:
        return self.bandwidth_hz / self.samples

    @property
    def frequencies(self) -> np.ndarray:
        k = np.arange(self.samples)
        return self.f_start_hz + k * (self.bandwidth_hz / self.samples)

    @property
    def f_max_hz(self) -> float:
        return float(self.frequencies[-1])

    @property
    def f_center_hz(self) -> float:
        return self.f_start_hz + 0.5 * self.bandwidth_hz

    @property
    def delay_resolution_s(self) -> float:
        return 1.0 / self.bandwidth_hz

    @property
    def max_delay_s(self) -> float:
        return (self.samples - 1) / self.bandwidth_hz


@dataclass
class ChannelMatrix:
    """Complex frequency response per sensor: values[p, k], p in global order.

    An optional trailing axis stacks points of one array and grid:
    values[p, k, b] is point b.
    """

    array: SensorArray
    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self):
        expected = (self.array.total_sensors, self.grid.samples)
        if self.values.shape[:2] != expected or self.values.ndim not in (2, 3):
            raise ChannelDimensionError(
                f"channel shape {self.values.shape} != sensors x samples {expected}")
        if not np.all(np.isfinite(self.values)):
            raise NonFiniteDataError("channel contains non-finite entries")

    def ring_rows(self, ring: int) -> np.ndarray:
        """View of the rows belonging to one ring."""
        start = sum(len(self.array.ring_xy(i)) for i in range(ring))
        stop = start + len(self.array.ring_xy(ring))
        return self.values[start:stop]


def wave_response_center(wave: IncidentWave, grid: FrequencyGrid) -> np.ndarray:
    """Center-of-array response: amplitude * exp(+j 2 pi f tau) over the grid."""
    return wave.amplitude * np.exp(2j * np.pi * grid.frequencies * wave.delay_s)


MODELS = ("planewave", "spherical")
"""Propagation models superpose accepts."""


# a finite scene may overflow: ChannelMatrix's non-finite check reports it once
@np.errstate(over="ignore", invalid="ignore")
def superpose(scene: Sequence[IncidentWave], array: SensorArray,
              grid: FrequencyGrid, model: str = "planewave") -> ChannelMatrix:
    """Entrywise sum of per-wave responses, in scene order (deterministic).

    With H_center = wave_response_center(wave, grid), sensor p at radius r_p
    and azimuth phi_p, and a wave from azimuth phi and elevation theta:

    planewave (far field, unit path-loss ratio, linearized geometric phase):
        H[p, k] = H_center(f_k) exp(+j 2 pi f_k r_p sin(theta) cos(phi - phi_p) / c)
    spherical (exact wavefront, free-space path-loss ratio, no Taylor
    truncation; needs distance_m = d beyond the array radius):
        d_p = sqrt(d^2 + r_p^2 - 2 d r_p sin(theta) cos(phi - phi_p))
        H[p, k] = (d / d_p) H_center(f_k) exp(+j 2 pi f_k (d - d_p) / c)

    One pass fills the (P, K) output ring by ring: each wave's block of the
    ring is formed and added into the ring's rows, so no temporary spans
    the whole array.
    """
    if not scene:
        raise ConfigError("scene must contain at least one wave")
    if model not in MODELS:
        raise ConfigError(f"unknown propagation model {model!r}")
    if model == "spherical":
        for wave in scene:
            if wave.distance_m is None:
                raise DomainError("spherical model needs a finite source distance")
            if wave.distance_m <= array.max_radius_m:
                raise DomainError(f"source distance {wave.distance_m} m must exceed "
                                  f"the array radius {array.max_radius_m} m")
    freqs = grid.frequencies
    terms = [(math.sin(math.radians(w.elevation_deg)), math.radians(w.azimuth_deg),
              wave_response_center(w, grid)) for w in scene]
    values = np.empty((array.total_sensors, grid.samples), dtype=complex)
    start = 0
    for ring in range(array.ring_count):
        r, phip = array.ring_radii(ring), array.ring_azimuths(ring)
        rows = values[start: start + r.size]
        start += r.size
        for i, (wave, (sin_theta, phi, h0)) in enumerate(zip(scene, terms)):
            if model == "planewave":
                path = r * sin_theta * np.cos(phi - phip)
            else:
                d = wave.distance_m
                d_p = np.sqrt(d * d + r * r - 2.0 * d * r * sin_theta * np.cos(phi - phip))
                path = d - d_p
            block = 2j * np.pi * np.outer(path, freqs)
            block /= SPEED_OF_LIGHT
            np.exp(block, out=block)
            if model == "spherical":
                np.multiply((d / d_p)[:, None], block, out=block)
            block *= h0
            if i == 0:
                rows[...] = block
            else:
                rows += block
    return ChannelMatrix(array=array, grid=grid, values=values)


@np.errstate(over="ignore", invalid="ignore")  # as superpose
def add_awgn(channel: ChannelMatrix, snr_db: Optional[float], seed: int = 0) -> ChannelMatrix:
    """Add circularly-symmetric complex Gaussian noise at a target mean SNR.

    The per-entry noise variance is mean(|H|^2) / 10^(snr_db/10).  snr_db of
    None or +inf returns an unchanged copy.  Deterministic for a given seed.
    """
    if snr_db is None or snr_db == math.inf:
        return replace(channel, values=channel.values.copy())
    if not math.isfinite(snr_db):
        raise DomainError(f"snr_db must be finite or +inf, got {snr_db}")
    mean_power = float(np.mean(np.abs(channel.values) ** 2))
    try:
        noise_var = mean_power / (10.0 ** (snr_db / 10.0))
    except (OverflowError, ZeroDivisionError):
        raise DomainError(f"snr_db {snr_db} is outside the representable range") from None
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence([int(seed)])))
    sigma = math.sqrt(noise_var / 2.0)
    noise = gen.normal(0.0, sigma, size=channel.values.shape + (2,))
    return replace(channel, values=channel.values + noise[..., 0] + 1j * noise[..., 1])


def export_channel(channel: ChannelMatrix, path) -> None:
    """Write `p,f_hz,re,im` rows sorted by (p, f), full double precision."""
    # one ",f,%.17g,%.17g\n" piece per frequency; a row joins them after its index
    pieces = [""] + [f",{f:.17g},%.17g,%.17g\n" for f in channel.grid.frequencies]
    with open(path, "w") as fh:
        fh.write("p,f_hz,re,im\n")
        for p, row in enumerate(channel.values):
            re_im = np.ascontiguousarray(row).view(np.float64)  # interleaved re, im
            fh.write(str(p).join(pieces) % tuple(re_im.tolist()))


def ingest_channel(path, array: SensorArray) -> ChannelMatrix:
    """Parse a measured (or exported) channel file against a declared geometry.

    Validates sensor coverage, per-sensor sample counts, a shared frequency
    axis, grid uniformity within 1e-6 relative, and finiteness, and rejects
    a sensor that lists one frequency twice.  Each sensor's rows keep their
    file order.  The grid is inferred with bandwidth = K * step (half-open
    band convention).
    """
    rows = _read_csv(path, "p,f_hz,re,im", "channel")
    n = array.total_sensors
    p = rows["p"]
    # bincount allocates max(p) + 1 counters: an index out of range never reaches it
    counts = np.bincount(p, minlength=n) if ((p >= 0) & (p < n)).all() else np.zeros(0, int)
    if counts.size != n or not counts.all():
        raise ChannelDimensionError(
            f"sensor indices {np.unique(p)[:5].tolist()}... do not cover 0..{n - 1}")
    order = np.argsort(p, kind="stable")
    p, f = p[order], rows["f_hz"][order]
    if not np.all((p[1:] != p[:-1]) | (f[1:] > f[:-1])):  # a sensor's f does not rise
        by_f = np.lexsort((f, p))
        ps, fs = p[by_f], f[by_f]
        twice = np.flatnonzero((ps[1:] == ps[:-1]) & (fs[1:] == fs[:-1]))
        if twice.size:
            i = twice[0]
            raise ChannelDimensionError(f"sensor {ps[i]} has two rows at f_hz = {fs[i]:.17g}")
    k = int(counts[0])
    if (counts != k).any():
        raise ChannelDimensionError(
            f"per-sensor sample counts differ: {np.unique(counts).tolist()}")
    if k < 2:
        raise ChannelDimensionError("need at least 2 frequency samples per sensor")

    f = f.reshape(n, k)
    f_axis = f[0]
    differs = np.flatnonzero((f[1:] != f_axis).any(axis=1))
    if differs.size:
        raise NonUniformGridError(f"sensor {differs[0] + 1} has a different frequency axis")
    steps = np.diff(f_axis)
    step = float(steps.mean())
    if step <= 0.0 or np.any(np.abs(steps - step) > 1e-6 * step):
        raise NonUniformGridError("frequency axis is not uniform within 1e-6 relative")

    values = np.empty(p.size, dtype=complex)
    values.real, values.imag = rows["re"][order], rows["im"][order]
    values = values.reshape(n, k)
    if not np.all(np.isfinite(values)):
        raise NonFiniteDataError("channel file contains non-finite entries")
    grid = FrequencyGrid(f_start_hz=float(f_axis[0]), bandwidth_hz=step * k, samples=k)
    return ChannelMatrix(array=array, grid=grid, values=values)
