"""Sensor layout construction for elliptical, circular and concentric arrays.

Sensors are placed at uniform steps of the *elliptic* angular coordinate
(eta_p = 2*pi*p/P), rotated rigidly by the ring's rotation angle, and
optionally perturbed by an isotropic bivariate Gaussian (sigma/sqrt(2) per
axis).  Uniform spacing in eta is not uniform in the polar azimuth once the
ring is eccentric; all downstream math therefore works from the realized
Cartesian coordinates, from which radius and polar azimuth are always
recomputed rather than stored.  A ring is just those coordinates, a (P, 2)
float64 array in sensor order; a SensorArray pairs each with its spec.

Angles cross the public API in degrees and live internally in radians.
"""

from __future__ import annotations

import itertools
import math
import re
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .constants import SPEED_OF_LIGHT
from .errors import ConfigError, DomainError, ValidationError


@dataclass(frozen=True)
class EllipseSpec:
    """Placement recipe for one elliptical ring of sensors."""

    semi_major_m: float
    eccentricity: float = 0.0
    rotation_deg: float = 0.0
    sensors: int = 720
    sigma_m: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (self.semi_major_m > 0.0 and math.isfinite(self.semi_major_m)):
            raise DomainError(f"semi_major_m must be positive, got {self.semi_major_m}")
        if not (0.0 <= self.eccentricity < 1.0):
            raise DomainError(f"eccentricity must be in [0, 1), got {self.eccentricity}")
        if not (0.0 <= self.rotation_deg < 360.0):
            raise DomainError(f"rotation_deg must be in [0, 360), got {self.rotation_deg}")
        if self.sensors < 4:
            raise DomainError(f"need at least 4 sensors, got {self.sensors}")
        if not (self.sigma_m >= 0.0 and math.isfinite(self.sigma_m)):
            raise DomainError(f"sigma_m must be non-negative and finite, got {self.sigma_m}")
        if self.seed < 0:
            raise DomainError(f"seed must be unsigned, got {self.seed}")

    @property
    def semi_minor_m(self) -> float:
        return self.semi_major_m * math.sqrt(1.0 - self.eccentricity**2)


def build_ellipse(spec: EllipseSpec, ring_index: int = 0) -> np.ndarray:
    """Realize one ring of sensors from its spec as (P, 2) Cartesian coordinates.

    Position noise draws from a counter-based Philox stream keyed by
    (spec.seed, ring_index), so rebuilding with the same seed is
    bit-reproducible and rings of a concentric array get independent streams.
    """
    a = spec.semi_major_m
    b = spec.semi_minor_m
    alpha = math.radians(spec.rotation_deg)
    p = np.arange(spec.sensors)
    eta = 2.0 * np.pi * p / spec.sensors
    ca, sa = math.cos(alpha), math.sin(alpha)
    x = a * np.cos(eta) * ca - b * np.sin(eta) * sa
    y = a * np.cos(eta) * sa + b * np.sin(eta) * ca
    if spec.sigma_m > 0.0:
        gen = np.random.Generator(
            np.random.Philox(np.random.SeedSequence([int(spec.seed), int(ring_index)]))
        )
        noise = gen.normal(0.0, spec.sigma_m / math.sqrt(2.0), size=(spec.sensors, 2))
        x = x + noise[:, 0]
        y = y + noise[:, 1]
    return np.column_stack([x, y])


@dataclass
class SensorArray:
    """One or more concentric rings sharing the origin as their center.

    Each ring is (spec, xy): its placement recipe (None when ingested) and
    its realized (P, 2) coordinates.  Arrays compare by value.
    """

    rings: list[tuple[Optional[EllipseSpec], np.ndarray]]

    def __eq__(self, other):
        if not isinstance(other, SensorArray):
            return NotImplemented
        return (len(self.rings) == len(other.rings)
                and all(s == t and np.array_equal(a, b)
                        for (s, a), (t, b) in zip(self.rings, other.rings)))

    @property
    def ring_count(self) -> int:
        return len(self.rings)

    @property
    def total_sensors(self) -> int:
        return sum(len(xy) for _, xy in self.rings)

    def ring_spec(self, ring: int) -> Optional[EllipseSpec]:
        return self.rings[ring][0]

    def ring_xy(self, ring: int) -> np.ndarray:
        """(P, 2) Cartesian coordinates of one ring."""
        return self.rings[ring][1]

    def ring_radii(self, ring: int) -> np.ndarray:
        xy = self.ring_xy(ring)
        return np.hypot(xy[:, 0], xy[:, 1])

    def ring_azimuths(self, ring: int) -> np.ndarray:
        xy = self.ring_xy(ring)
        return np.arctan2(xy[:, 1], xy[:, 0])

    @property
    def max_radius_m(self) -> float:
        return max(float(self.ring_radii(i).max()) for i in range(self.ring_count))

    @property
    def min_radius_m(self) -> float:
        return min(float(self.ring_radii(i).min()) for i in range(self.ring_count))

    def to_csv(self, path) -> None:
        """Write `ring,p,x_m,y_m` rows, p being the global sensor index."""
        ring = np.repeat(np.arange(self.ring_count), [len(xy) for _, xy in self.rings])
        xy = np.vstack([xy for _, xy in self.rings])
        with open(path, "w") as fh:
            fh.write("ring,p,x_m,y_m\n")
            fh.writelines(f"{r},{p},{x:.17g},{y:.17g}\n"
                          for p, (r, (x, y)) in enumerate(zip(ring.tolist(), xy.tolist())))

    @classmethod
    def from_csv(cls, path) -> "SensorArray":
        rows = _read_csv(path, "ring,p,x_m,y_m", "geometry")
        if not rows.size:
            raise ConfigError("geometry file contains no sensors")
        bad = ~(np.isfinite(rows["x_m"]) & np.isfinite(rows["y_m"]))
        if bad.any():
            raise ConfigError(
                f"line {_file_line(path, int(bad.argmax()))}: coordinates must be finite")
        rows = rows[np.argsort(rows["p"], kind="stable")]
        if not np.array_equal(rows["p"], np.arange(rows.size)):
            raise ValidationError("global sensor indices must cover 0..N-1 exactly")
        ring = rows["ring"]
        if (np.diff(ring) < 0).any():
            raise ValidationError("ring indices must not decrease along p: each ring's "
                                  "sensors are one contiguous block of p")
        ids = np.unique(ring)
        if not np.array_equal(ids, np.arange(ids.size)):
            raise ValidationError("ring indices must cover 0..R-1 exactly")
        xy = np.column_stack([rows["x_m"], rows["y_m"]])
        return cls(rings=[(None, xy[ring == i]) for i in range(ids.size)])


def _read_csv(path, header: str, what: str) -> np.ndarray:
    """The rows under an exact `header` line, parsed by numpy's C reader into
    a structured array with the header's fields (`ring` and `p` int64, the
    rest float64).  Whitespace-only lines are skipped; an unparseable field
    or a wrong field count is a ConfigError naming the file line."""
    dtype = [(name, np.int64 if name in ("ring", "p") else np.float64)
             for name in header.split(",")]
    options = dict(dtype=dtype, delimiter=",", comments=None, ndmin=1)
    try:
        with open(path) as fh, warnings.catch_warnings():
            if (first := fh.readline().strip()) != header:
                raise ConfigError(f"unexpected {what} header: {first!r}")
            warnings.simplefilter("ignore", UserWarning)  # a header-only file
            # older numpy reads "1.5" into an int64 field through float, with this warning
            warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
            try:  # numpy reading the path itself is the fastest way in
                return np.loadtxt(path, skiprows=1, **options)
            except ValueError:  # a bad line, or one of spaces, which numpy does not skip
                return np.loadtxt(itertools.filterfalse(str.isspace, fh), **options)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file: {exc}") from exc
    except ValueError as exc:
        # numpy counts parsed rows from 0 in "at row N, column C", from 1 in "at row N;"
        found = re.fullmatch(r"(.*) at row (\d+)(,?).*", str(exc), flags=re.S)
        if found is None:
            raise ConfigError(f"{what} file: {exc}") from exc
        line = _file_line(path, int(found[2]) - (found[3] != ","))
        raise ConfigError(f"line {line}: {found[1]}") from exc


def _file_line(path, row: int) -> int:
    """Line number in the file of data row `row` (from 0) of _read_csv."""
    with open(path, errors="replace") as fh:
        lines = (n for n, text in enumerate(fh, start=1) if n > 1 and not text.isspace())
        return next(itertools.islice(lines, row, None))


def build_concentric(specs: Sequence[EllipseSpec]) -> SensorArray:
    """Realize several rings about a common center, in list order."""
    if not specs:
        raise ConfigError("need at least one ellipse spec")
    rings = [(spec, build_ellipse(spec, ring_index=i)) for i, spec in enumerate(specs)]
    return SensorArray(rings=rings)


@dataclass(frozen=True)
class NyquistReport:
    """Spatial sampling audit against the half-wavelength criterion."""

    f_max_hz: float
    wavelength_m: float
    limit_m: float
    per_ring: tuple  # (ring, max_spacing_m, max_spacing_wavelengths)
    passed: bool

    @property
    def max_spacing_m(self) -> float:
        return max(r[1] for r in self.per_ring)

    def to_text(self) -> str:
        lines = [f"nyquist audit at f_max = {self.f_max_hz:.6g} Hz "
                 f"(lambda = {self.wavelength_m:.6g} m, limit = {self.limit_m:.6g} m)"]
        for ring, spacing, wl in self.per_ring:
            verdict = "ok" if spacing < self.limit_m else "UNDERSAMPLED"
            lines.append(f"  ring {ring}: max adjacent spacing {spacing:.6g} m "
                         f"= {wl:.4f} lambda  [{verdict}]")
        lines.append(f"overall: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def nyquist_audit(array: SensorArray, f_max_hz: float) -> NyquistReport:
    """Largest adjacent (cyclically consecutive) sensor spacing per ring.

    Passes iff every spacing is below c / (2 f_max).
    """
    if not (f_max_hz > 0.0 and math.isfinite(f_max_hz)):
        raise DomainError(f"f_max_hz must be positive, got {f_max_hz}")
    lam = SPEED_OF_LIGHT / f_max_hz
    limit = lam / 2.0
    per_ring = []
    for i in range(array.ring_count):
        xy = array.ring_xy(i)
        d = np.hypot(*(xy - np.roll(xy, -1, axis=0)).T)
        mx = float(d.max())
        per_ring.append((i, mx, mx / lam))
    passed = all(r[1] < limit for r in per_ring)
    return NyquistReport(f_max_hz=float(f_max_hz), wavelength_m=lam, limit_m=limit,
                         per_ring=tuple(per_ring), passed=passed)
