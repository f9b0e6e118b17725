"""Phase-mode filter banks and the sensor-space -> mode-space expansion.

Per sensor p at radius r_p, mode m and frequency f, the bank weight is

    plain:   W = 1 / (j^m J_m(2 pi f r_p / c))
    robust:  W = 2 / (j^m [J_m(2 pi f r_p / c) + j J'_m(2 pi f r_p / c)])

The robust form has no deep nulls (J and J' never vanish together), so it
holds up over much wider bands; the plain form is kept for its exactness on
in-plane waves and for demonstrating the null problem.  The "average" design
replaces every radius of a ring by (a + b)/2, collapsing the ring's bank to
one weight per mode.

The sign of the jJ' term fixes the chirality of the residual reconstruction
phase against the positive-exponent channel convention.  J + jJ' makes the
gain phase for a low-elevation arrival advance like +x(1 - sin theta), so
the delay estimate shifts *later* by (r/c)(1 - sin theta) -- the behavior
wideband ring processing is known for -- and parks the full-strength
broadside image at tau + 2r/c.  The conjugate choice would mirror both
offsets to earlier delays and nothing else; denominator magnitudes, and
hence stability limits, are identical either way.

Weights for negative modes are not approximated: j^-m [J_-m + j J'_-m]
equals j^m [J_m + j J'_m] by the parity identities, so W_{-m,p} == W_{m,p}
exactly and only non-negative orders ever reach the Bessel kernel.  Quadrant
reduction additionally maps each sensor to its first elliptic-quadrant
mirror (same radius when placement noise is zero), cutting distinct radii to
P/4 + 1 per ring.

The expansion H_m(f_k) = (1/P) sum_p H[p,k] exp(+j m phi_p) W_{m,p}(f_k)
runs over ring representatives and never forms a (2 M_h + 1) x P operator:
modes +m and -m share W_m, and on a symmetric ring the four quadrant mirrors
share it too, so their data fold into parity pairs first.  A circle needs no
separate path (the DFT phase-mode excitation of uniform circular arrays,
Davies 1983; Mathews & Zoltowski, IEEE TSP 1994).  Concentric rings average
their per-ring mode matrices.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .channel import ChannelMatrix, FrequencyGrid
from .constants import SPEED_OF_LIGHT
from .errors import DomainError, InstabilityError, ValidationError
from .geometry import SensorArray
from .specfun import bessel_j, bessel_j_prime, bessel_j_table

DESIGNS = ("robust", "plain", "average")
REDUCTIONS = ("none", "symmetric")

DENOMINATOR_FLOOR = 1e-12
"""Hard runtime floor for filter denominators (distinct from the planning
threshold handed to mode_limit, typically 1e-6)."""

_JPOW = np.array([1.0 + 0.0j, 0.0 + 1.0j, -1.0 + 0.0j, 0.0 - 1.0j])


def _jpow(m) -> np.ndarray:
    """j**m for integer m (exact: cycles through {1, j, -1, -j})."""
    return _JPOW[np.asarray(m) % 4]


def _denominators(jtab: np.ndarray, design: str) -> np.ndarray:
    """Filter denominators J (plain) or J + jJ' (robust) for orders 0..M_h.

    jtab carries orders 0..M_h+1; the derivative rows come from the exact
    identity, J'_0 = -J_1 included.
    """
    m_top = jtab.shape[0] - 2
    den = jtab[: m_top + 1].astype(complex)
    if design != "plain":
        jp = den.imag
        jp[0] = -jtab[1]
        np.subtract(jtab[0:m_top], jtab[2: m_top + 2], out=jp[1:])
        jp[1:] *= 0.5
    return den


def make_filter(design: str, m: int, radius_m: float, f_hz: float,
                floor: float = DENOMINATOR_FLOOR) -> complex:
    """Single filter weight at one (mode, radius, frequency).

    The "average" design uses the robust form; callers pass the averaged
    radius.  Raises InstabilityError when the denominator magnitude falls
    below ``floor`` (the error names mode, radius and frequency; bank-level
    errors name the sensor index as well).
    """
    if design not in DESIGNS:
        raise DomainError(f"unknown filter design {design!r}")
    x = 2.0 * math.pi * f_hz * radius_m / SPEED_OF_LIGHT
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
    return num / (complex(_jpow(m)) * den)


def mode_limit(array: SensorArray, grid: FrequencyGrid, threshold: float,
               design: str = "robust", r_min_m: Optional[float] = None) -> int:
    """Largest usable half mode order before the filters destabilize.

    Returns the largest M_h such that the denominator magnitude at the
    worst-case argument x_min = 2 pi f_min r_min / c stays >= threshold for
    every |m| <= M_h.  r_min defaults to the smallest sensor radius over all
    rings (the semi-minor axis for an unperturbed ellipse); f_min is the
    lowest grid frequency.  Non-decreasing in both r_min and f_min.  For an
    average-design bank pass the smallest averaged ring radius instead: that
    is the smallest argument such a bank ever evaluates.
    """
    if not (threshold > 0.0):
        raise DomainError(f"threshold must be positive, got {threshold}")
    if design not in DESIGNS:
        raise DomainError(f"unknown filter design {design!r}")
    if r_min_m is None:
        r_min_m = array.min_radius_m
    x_min = 2.0 * math.pi * grid.f_start_hz * r_min_m / SPEED_OF_LIGHT
    return _mode_limit_at(x_min, threshold, "plain" if design == "plain" else "robust")


@functools.lru_cache(maxsize=1024)
def _mode_limit_at(x_min: float, threshold: float, design: str) -> int:
    """mode_limit's search at one argument; sweep points share it."""
    cap = int(math.ceil(x_min)) + 64
    while True:
        jtab = bessel_j_table(cap + 1, np.array([x_min]))
        mags = np.abs(_denominators(jtab, design))[:, 0]
        failing = np.flatnonzero(mags < threshold)
        if failing.size:
            first = int(failing[0])
            if first == 0:
                raise DomainError(
                    f"threshold {threshold} already fails at m=0 (x_min={x_min:.3g})")
            return first - 1
        cap = cap * 2 + 64


@dataclass(frozen=True)
class ModeMatrix:
    """Mode-space response: values[i, k] holds mode m = i - mode_half.

    An optional trailing axis stacks points: values[i, k, b] is point b.
    """

    values: np.ndarray
    mode_half: int
    grid: FrequencyGrid

    def __post_init__(self):
        expected = (2 * self.mode_half + 1, self.grid.samples)
        if self.values.shape[:2] != expected or self.values.ndim not in (2, 3):
            raise ValidationError(
                f"mode matrix shape {self.values.shape} != {expected}")
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("mode matrix contains non-finite entries")

    @property
    def modes(self) -> np.ndarray:
        return np.arange(-self.mode_half, self.mode_half + 1)


@dataclass
class FilterBank:
    """Frequency-dependent phase-mode weights for every ring of an array.

    Weights are represented compactly (non-negative modes x distinct radii)
    and evaluated per frequency sample; `unique_eval_count` reports how many
    independent (mode, sensor) filter evaluations per frequency sample the
    representation implies, which is the quantity the reduction factors
    compare (signed modes x all sensors when reduction is "none").
    """

    array: SensorArray
    grid: FrequencyGrid
    design: str
    mode_half: int
    reduction: str
    floor: float = DENOMINATOR_FLOOR
    ring_unique_radii: list = field(default_factory=list)
    ring_sensor_map: list = field(default_factory=list)

    @property
    def mode_count(self) -> int:
        return 2 * self.mode_half + 1

    @property
    def unique_eval_count(self) -> int:
        modes = self.mode_count if self.reduction == "none" else self.mode_half + 1
        return int(modes * sum(r.size for r in self.ring_unique_radii))

    @property
    def folded(self) -> bool:
        """True when the expansion folds each ring's quadrant mirrors."""
        return self.reduction == "symmetric" and self.design != "average"

    @property
    def dense_weight_count(self) -> int:
        return int(self.mode_count * self.array.total_sensors)

    def ring_jtable(self, ring: int) -> np.ndarray:
        """J_m tables for one ring: shape (mode_half + 2, K, U).

        Frequency-major layout keeps the per-sample slices contiguous for
        the expansion loop.
        """
        r = self.ring_unique_radii[ring]
        x = (2.0 * np.pi / SPEED_OF_LIGHT) * np.outer(self.grid.frequencies, r)
        tab = bessel_j_table(self.mode_half + 1, x.ravel(), compensated=False)
        return tab.reshape(self.mode_half + 2, self.grid.samples, r.size)

    def weights_from_jtable(self, ring: int, jtab: np.ndarray, k: int) -> np.ndarray:
        """(mode_half + 1, U) weights for one frequency sample."""
        den = _denominators(jtab[:, k, :], self.design if self.design != "average" else "robust")
        mags = np.abs(den)
        if mags.min() < self.floor:
            m_bad, u_bad = np.unravel_index(int(mags.argmin()), mags.shape)
            p_bad = int(np.flatnonzero(self.ring_sensor_map[ring] == u_bad)[0])
            raise InstabilityError(
                f"filter denominator {mags.min():.3e} below floor {self.floor:.1e} at "
                f"m={int(m_bad)}, p={p_bad} (ring {ring}), f={self.grid.frequencies[k]} Hz")
        num = 1.0 if self.design == "plain" else 2.0
        orders = np.arange(self.mode_half + 1)
        return np.divide(num * _jpow(-orders)[:, None], den, out=den)


def _quadrant_map(sensor_count: int) -> np.ndarray:
    """Map sensor index -> first-quadrant representative index (0..P/4).

    Sensors at elliptic angles eta, pi - eta, pi + eta and 2 pi - eta share
    the same radius, so indices p, P/2 - p, P/2 + p and P - p collapse.
    """
    q = sensor_count // 4
    half = sensor_count // 2
    p = np.arange(sensor_count)
    rep = np.where(p <= q, p, 0)
    rep = np.where((p > q) & (p <= half), half - p, rep)
    rep = np.where((p > half) & (p <= 3 * q), p - half, rep)
    rep = np.where(p > 3 * q, sensor_count - p, rep)
    return rep


def build_bank(array: SensorArray, grid: FrequencyGrid, design: str = "robust",
               mode_half: int = 0, reduction: str = "none",
               floor: float = DENOMINATOR_FLOOR) -> FilterBank:
    """Construct the filter bank for an array over a frequency grid.

    reduction="symmetric" exploits the four-fold radius symmetry of an
    unperturbed ring; it requires sigma = 0 and P divisible by 4 on every
    ring, whatever the design, and is rejected otherwise.  The "average"
    design needs ellipse parameters (it evaluates at (a+b)/2) and therefore
    a built geometry.
    """
    if design not in DESIGNS:
        raise DomainError(f"unknown filter design {design!r}")
    if reduction not in REDUCTIONS:
        raise DomainError(f"unknown reduction {reduction!r}")
    if mode_half < 0:
        raise DomainError(f"mode_half must be >= 0, got {mode_half}")
    bank = FilterBank(array=array, grid=grid, design=design, mode_half=mode_half,
                      reduction=reduction, floor=floor)
    for ring in range(array.ring_count):
        spec = array.ring_spec(ring)
        radii = array.ring_radii(ring)
        p = radii.size
        if reduction == "symmetric":
            if spec is None or spec.sigma_m != 0.0:
                raise ValidationError(
                    "symmetric reduction requires exact (sigma = 0) placement")
            if p % 4 != 0:
                raise ValidationError(
                    f"symmetric reduction requires P divisible by 4, got {p}")
        if design == "average":
            if spec is None:
                raise ValidationError(
                    "average design needs ellipse parameters; ring has none (ingested?)")
            rbar = 0.5 * (spec.semi_major_m + spec.semi_minor_m)
            bank.ring_unique_radii.append(np.array([rbar]))
            bank.ring_sensor_map.append(np.zeros(p, dtype=np.intp))
        elif reduction == "symmetric":
            rep = _quadrant_map(p)
            # collapse bitwise-equal representative radii too (a circle's
            # quadrant radii all round to the same few doubles)
            uniq, inverse = np.unique(radii[: p // 4 + 1], return_inverse=True)
            bank.ring_unique_radii.append(uniq)
            bank.ring_sensor_map.append(inverse[rep].astype(np.intp))
        else:
            bank.ring_unique_radii.append(radii.copy())
            bank.ring_sensor_map.append(np.arange(p, dtype=np.intp))
    return bank


def phase_mode_expand(channel: ChannelMatrix, ring: int, bank: FilterBank) -> ModeMatrix:
    """Expand one ring's sensor data into mode space.

    Sums over representatives r at azimuth alpha + theta_r.  A folded ring
    (FilterBank.folded) takes r = 0..P/4, whose mirrors P/2 - r, P/2 + r and
    P - r sit at pi - theta_r, pi + theta_r and -theta_r; with
    A = H_r +- H_{P/2+r}, B = H_{P-r} +- H_{P/2-r} (sign = parity of m),

    H_{+-m} = e^{+-jm alpha}/P sum_r W_{m,r} [cos(m theta_r)(A + B) +- j sin(m theta_r)(A - B)],

    the r = 0 and r = P/4 orbits, which list each sensor twice, at weight
    1/2; realized mirrors miss these ideal azimuths by rounding (<= 3e-15
    rad).  Any other ring is its own fold: r = p, alpha = 0, B = 0.

    A channel with a trailing point axis, values[p, k, b], yields mode
    values[i, k, b]: each frequency's weights W o cos(m theta) and
    W o sin(m theta) are formed once and applied to all points by one
    stacked matmul, which numpy runs as one GEMM per point with the shapes
    of a single-point call.  Every point therefore gets the bits it would
    get alone.
    """
    if bank.array is not channel.array and bank.array != channel.array:
        raise ValidationError("bank and channel refer to different arrays")
    if bank.grid != channel.grid:
        raise ValidationError("bank and channel grids differ")
    values = channel.ring_rows(ring)
    # the table build is the memory peak: only the output may exist before it
    out = np.empty((2 * bank.mode_half + 1,) + values.shape[1:], dtype=complex)
    jtab = bank.ring_jtable(ring)
    data = np.moveaxis(values.reshape(values.shape[:2] + (-1,)), 0, -1)  # (K, B, P)
    p = data.shape[-1]
    orders = np.arange(bank.mode_half + 1)
    if bank.folded:
        r = np.arange(p // 4 + 1)
        alpha = math.radians(channel.array.ring_spec(ring).rotation_deg)
        h = data[..., np.stack([r, p // 2 + r, p - r, p // 2 - r]) % p]  # (K, B, 4, R)
        h[..., [0, -1]] *= 0.5  # the r = 0 and r = P/4 orbits list each sensor twice
        a = np.stack([h[..., 0, :] + h[..., 1, :], h[..., 0, :] - h[..., 1, :]],
                     axis=-1)  # (K, B, R, parity)
        b = np.stack([h[..., 2, :] + h[..., 3, :], h[..., 2, :] - h[..., 3, :]], axis=-1)
        sums, diffs, parity = a + b, a - b, orders % 2
    else:
        r, alpha, parity = np.arange(p), 0.0, np.zeros_like(orders)
        sums = diffs = data[..., None]
    angle = np.outer(orders, channel.array.ring_azimuths(ring)[r] - alpha)
    cos_mt, sin_mt = np.cos(angle), np.sin(angle)
    wcol, rot = bank.ring_sensor_map[ring][r], np.exp(1j * orders * alpha)[:, None] / p
    stacked = out.reshape(out.shape[:2] + (-1,))  # (modes, K, B) view
    for k in range(channel.grid.samples):
        w = bank.weights_from_jtable(ring, jtab, k)[:, wcol]
        even = ((w * cos_mt) @ sums[k])[:, orders, parity].T
        odd = 1j * ((w * sin_mt) @ diffs[k])[:, orders, parity].T
        stacked[bank.mode_half:, k] = rot * (even + odd)
        stacked[bank.mode_half::-1, k] = rot.conj() * (even - odd)
    return ModeMatrix(values=out, mode_half=bank.mode_half, grid=channel.grid)


def concentric_expand(ring_modes: Sequence[ModeMatrix]) -> ModeMatrix:
    """Average per-ring mode matrices (equal ring weights, list order)."""
    if not ring_modes:
        raise ValidationError("need at least one ring mode matrix")
    first = ring_modes[0]
    for mm in ring_modes[1:]:
        if mm.mode_half != first.mode_half:
            raise ValidationError("mode ranges differ across rings")
        if mm.grid != first.grid:
            raise ValidationError("frequency grids differ across rings")
    total = np.zeros_like(first.values)
    for mm in ring_modes:
        total = total + mm.values
    return ModeMatrix(values=total / len(ring_modes), mode_half=first.mode_half,
                      grid=first.grid)


def expand_array(channel: ChannelMatrix, bank: FilterBank) -> ModeMatrix:
    """Full expansion: every ring, then the concentric average."""
    rings = [phase_mode_expand(channel, i, bank) for i in range(channel.array.ring_count)]
    return concentric_expand(rings)
