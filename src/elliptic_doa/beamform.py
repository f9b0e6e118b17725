"""Phase-mode filter banks and the sensor-space -> mode-space expansion.

Per sensor p at radius r_p, mode m and frequency f, the bank weight is

    plain:   W = 1 / (j^m J_m(2 pi f r_p / c))
    robust:  W = 2 / (j^m [J_m(2 pi f r_p / c) + j J'_m(2 pi f r_p / c)])

The robust form has no deep nulls (J and J' never vanish together), so it
holds up over much wider bands; the plain form is kept for its exactness on
in-plane waves and for demonstrating the null problem.  The "average" design
replaces every radius of a ring by (a + b)/2, collapsing the ring's bank to
one weight per mode.

The bank evaluates W j^m = num (J - jJ') / (J^2 + J'^2) (num = 1 with no J'
term in the plain design, 2 otherwise) in real arithmetic, into buffers made
once per expansion, and checks J^2 + J'^2 against DENOMINATOR_FLOOR^2.  The
exact factor j^-m (1, -j, -1 or j) lives in the phase tables of the
expansion and in a folded circle's weight column (see _ShapeTerms).

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
reduction additionally keeps only each ring's first-quadrant representatives
r = 0..P/4: sensor p has the radius of r = min(p, |P/2 - p|, P - p) when
placement noise is zero, so distinct radii fall to P/4 + 1 per ring (one on
a circle), and the bank keeps one radius vector for all rings, so
bitwise-equal radii of different rings are evaluated once.

Rotation convention: a ring rotated by alpha is its shape (semi-major axis,
eccentricity, sensor count) at rotation 0, turned rigidly, and turning a
ring only multiplies its mode m by e^{jm alpha}.  So a folded ring takes its
radii and its azimuths theta_r from its shape at rotation 0, never from its
rotated coordinates (which agree with them but for a few ulps), and rotated
copies of one ellipse share every bank column, every phase table and every
weight product; the e^{jm alpha} factor is applied per ring.

The expansion H_m(f_k) = (1/P) sum_p H[p,k] exp(+j m phi_p) W_{m,p}(f_k)
runs over ring representatives and never forms a (2 M_h + 1) x P operator:
modes +m and -m share W_m, and on a symmetric ring the four quadrant mirrors
share it too, so their data fold into parity pairs first.  A folded circle
has one weight per mode, so its sum over sensors is a DFT (the phase-mode
excitation of uniform circular arrays, Davies 1983; Mathews & Zoltowski,
IEEE TSP 1994): one FFT along its sensor axis per band chunk gives all its
modes, which the weights then scale.  Concentric rings average their per-ring
mode matrices.  One kernel does all of it: per chunk of the band one Bessel
table over the bank's radii and one fold per shape, per frequency one weight
evaluation and, per shape, a gather and either two matrix-vector products
per parity the fold keeps, ring and point, or on a circle two elementwise
products (see _expand).
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .channel import ChannelMatrix, FrequencyGrid
from .constants import SPEED_OF_LIGHT
from .errors import DomainError, InstabilityError, ValidationError
from .geometry import EllipseSpec, SensorArray, build_ellipse
from .specfun import ORDER_GUARD, bessel_j_table

DESIGNS = ("robust", "plain", "average")

DENOMINATOR_FLOOR = 1e-12
"""Hard runtime floor for filter denominators (distinct from the planning
threshold handed to mode_limit, typically 1e-6)."""


def _lap(stages: dict, stage: str, since: float) -> float:
    """Add the wall time since `since` (time.perf_counter) to stages[stage];
    return the time now.  The run's stage record (pipeline) uses it too."""
    now = time.perf_counter()
    stages[stage] = stages.get(stage, 0.0) + (now - since)
    return now


def mode_limit(array: SensorArray, grid: FrequencyGrid, threshold: float,
               design: str = "robust") -> int:
    """Largest usable half mode order before the filters destabilize.

    Returns the largest M_h such that the denominator magnitude at the
    worst-case argument x_min (search_argument) stays >= threshold for
    every |m| <= M_h.  Non-decreasing in both r_min and f_min.  The search
    reads the bank's own plain table at x_min (FilterBank.jtable), which
    below x_min = 25 is the double-double Miller table.  In the robust
    denominators, which the average design uses too, the limit lies above
    x_min; the plain design's J_m has zeros below x, so its limit may not.
    """
    if not (threshold > 0.0):
        raise DomainError(f"threshold must be positive, got {threshold}")
    return _mode_limit_at(search_argument(array, grid, design), threshold,
                          "plain" if design == "plain" else "robust")


def search_argument(array: SensorArray, grid: FrequencyGrid, design: str = "robust") -> float:
    """mode_limit's worst-case argument x_min = 2 pi f_min r_min / c.

    r_min is the smallest sensor radius over all rings (the semi-minor axis
    for an unperturbed ellipse), or for the average design the smallest
    averaged ring radius (a + b)/2, the smallest argument such a bank ever
    evaluates; f_min is the lowest grid frequency.  An x_min whose search
    would need Bessel orders past ORDER_GUARD is a DomainError that names
    it, raised before any table is built.
    """
    if design not in DESIGNS:
        raise DomainError(f"unknown filter design {design!r}")
    if design == "average":
        specs = [array.ring_spec(i) for i in range(array.ring_count)]
        if any(s is None for s in specs):
            raise ValidationError("average design needs ellipse parameters on every ring")
        r_min_m = min(0.5 * (s.semi_major_m + s.semi_minor_m) for s in specs)
    else:
        r_min_m = array.min_radius_m
    x_min = 2.0 * math.pi * grid.f_start_hz * r_min_m / SPEED_OF_LIGHT
    if not x_min <= ORDER_GUARD - 65:  # the search's first table has order ceil(x_min) + 65
        raise DomainError(
            f"x_min = 2 pi f_start_hz r_min / c = {x_min:.6g} (f_start_hz = {grid.f_start_hz:g}, "
            f"smallest radius {r_min_m:g} m) puts the mode search past the Bessel order "
            f"guard {ORDER_GUARD}")
    return x_min


@functools.lru_cache(maxsize=1024)
def _mode_limit_at(x_min: float, threshold: float, design: str) -> int:
    """mode_limit's search at one argument; sweep points share it."""
    cap = int(math.ceil(x_min)) + 64
    while True:
        j = bessel_j_table(cap + 1, [x_min], compensated=False)[:, 0]
        jp = 0.0 if design == "plain" else np.append(-j[1], 0.5 * (j[:-2] - j[2:]))
        failing = np.flatnonzero(np.abs(j[:-1] + 1j * jp) < threshold)
        if failing.size:
            first = int(failing[0])
            if first == 0:
                raise DomainError(
                    f"threshold {threshold} already fails at m=0 (x_min={x_min:.3g})")
            return first - 1
        cap = cap * 2 + 64
        if cap + 1 > ORDER_GUARD:
            raise DomainError(f"mode search at x_min={x_min:.6g} passes the Bessel order "
                              f"guard {ORDER_GUARD} before threshold {threshold} fails")


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


TABLE_CHUNK_BYTES = 8 << 20
"""Bytes of Bessel table, folded ring data and mode products per band chunk
of the expansion: each chunk takes as many frequency samples as fit (at
least one), so peak memory does not grow with samples x radii.

A sweep's batches release their arrays (pipeline.sweep_rows), so this
budget sets a sweep's peak memory.  The benchmark's sweep-fig4a op (two
bank groups of a 720-sensor ring, 100 samples, 501 modes) peaked at 49.8 MB
of process memory at 8 MiB, 48.2 MB at 4 MiB and 44.2 MB at 2 MiB, and a
fig7-cea run at 61.2, 57.9 and 57.9 MB.  Each halving adds a table call
and a fold per chunk: at 4 MiB the sweep op's median time relative to the
benchmark's reference task rose 1.7% and fig7-cea's 2.4% over 8 MiB (six
15 s runs each on a 2-core x86-64 host), so the budget stays 8 MiB."""


@dataclass
class FilterBank:
    """Frequency-dependent phase-mode weights for every ring of an array.

    All rings share one radius vector, `radii`, and `ring_columns[i]` lists
    the columns of ring i's representatives, in representative order.  A
    folded ring (see `folded`) has representatives r = 0..P/4, each standing
    for its quadrant mirrors P/2 - r, P/2 + r and P - r, with radii from its
    shape at rotation 0, so rotated copies of one ellipse share all their
    columns; a folded circle has one representative, its semi-major axis,
    and so does an average-design ring, at (a + b)/2.  Without reduction
    every sensor is its own representative.  Bitwise-equal radii share a
    column, within a ring and across rings.  Weights are
    evaluated per frequency sample over the columns, non-negative modes
    only; `unique_eval_count` reports how many (mode, column) filter
    evaluations per sample the representation implies, which is the
    quantity the reduction factors compare (signed modes x all sensors when
    reduction is "none").
    """

    array: SensorArray
    grid: FrequencyGrid
    design: str
    mode_half: int
    reduction: str
    radii: np.ndarray
    ring_columns: list

    @property
    def mode_count(self) -> int:
        return 2 * self.mode_half + 1

    @property
    def unique_eval_count(self) -> int:
        modes = self.mode_count if self.reduction == "none" else self.mode_half + 1
        return int(modes * self.radii.size)

    @property
    def folded(self) -> bool:
        """True when the expansion folds each ring's quadrant mirrors."""
        return self.reduction == "symmetric" and self.design != "average"

    @property
    def dense_weight_count(self) -> int:
        return int(self.mode_count * self.array.total_sensors)

    def jtable(self, k0: int, k1: int) -> np.ndarray:
        """J_m tables over `radii` at samples k0..k1-1: shape (mode_half + 2, k1 - k0, U).

        Every entry depends on its own (radius, frequency) only, so any
        split of the band yields the same bits.
        """
        x = (2.0 * np.pi / SPEED_OF_LIGHT) * np.outer(self.grid.frequencies[k0:k1], self.radii)
        tab = bessel_j_table(self.mode_half + 1, x.ravel(), compensated=False)
        return tab.reshape(self.mode_half + 2, k1 - k0, self.radii.size)

    def weights_from_jtable(self, jk, k, out, den):
        """W j^m at sample k from its (mode_half + 2, U) table slice: num (J -
        jJ') / (J^2 + J'^2) by real arithmetic (J' = 0 in the plain design),
        written into `out`, complex (mode_half + 1, U), with `den`, float
        (mode_half + 2, U), as work space.  J^2 + J'^2 below
        DENOMINATOR_FLOOR^2 is an InstabilityError naming m, p, ring and f."""
        np.copyto(den, jk)  # one pass over the (strided) table slice
        j, im = den[:-1], out.imag
        if self.design == "plain":
            im[:] = 0.0
        else:  # -J'_m = (J_{m+1} - J_{m-1}) / 2, -J'_0 = J_1
            np.subtract(den[2:], den[:-2], out=im[1:])
            im[1:] *= 0.5
            im[0] = den[1]
        j *= j
        j += np.multiply(im, im, out=out.real)
        if j.min() < DENOMINATOR_FLOOR ** 2:
            m_bad, u_bad = np.unravel_index(int(j.argmin()), j.shape)
            ring, p_bad = next((i, list(cols).index(u_bad))
                               for i, cols in enumerate(self.ring_columns) if u_bad in cols)
            raise InstabilityError(
                f"filter denominator {math.sqrt(j.min()):.3e} below floor {DENOMINATOR_FLOOR:.1e}"
                f" at m={int(m_bad)}, p={p_bad} (ring {ring}), f={self.grid.frequencies[k]} Hz")
        np.divide(1.0 if self.design == "plain" else 2.0, j, out=j)
        np.multiply(jk[:-1], j, out=out.real)
        im *= j
        return out


def _shape_xy(spec: EllipseSpec) -> np.ndarray:
    """A folded ring's shape: the ring at rotation 0 (sigma is 0, so its seed
    does not matter), which each rotated copy of it shares."""
    return build_ellipse(replace(spec, rotation_deg=0.0))


def build_bank(array: SensorArray, grid: FrequencyGrid, design: str = "robust",
               mode_half: int = 0, reduction: str = "none") -> FilterBank:
    """Construct the filter bank for an array over a frequency grid.

    reduction="symmetric" shares each ring's quadrant mirrors; it needs
    sigma = 0 and P divisible by 4 on every ring, whatever the design, and
    is rejected otherwise.  "auto" takes it where that holds and the design
    is not "average", else "none"; the bank's `reduction` records the choice.
    A folded ring's radii come from its shape at rotation 0 (see FilterBank).
    The "average" design needs ellipse parameters (it evaluates at (a+b)/2).
    """
    if design not in DESIGNS:
        raise DomainError(f"unknown filter design {design!r}")
    if reduction not in ("auto", "none", "symmetric"):
        raise DomainError(f"unknown reduction {reduction!r}")
    if mode_half < 0:
        raise DomainError(f"mode_half must be >= 0, got {mode_half}")
    specs = [array.ring_spec(ring) for ring in range(array.ring_count)]
    clean = all(s is not None and s.sigma_m == 0.0 and s.sensors % 4 == 0 for s in specs)
    if reduction == "auto":
        reduction = "symmetric" if clean and design != "average" else "none"
    elif reduction == "symmetric" and not clean:
        raise ValidationError("symmetric reduction requires exact (sigma = 0) placement "
                              "and P divisible by 4 on every ring")
    reps = []  # per ring: its representatives' radii
    for ring, spec in enumerate(specs):
        if design == "average":
            if spec is None:
                raise ValidationError(
                    "average design needs ellipse parameters; ring has none (ingested?)")
            reps.append(np.array([0.5 * (spec.semi_major_m + spec.semi_minor_m)]))
        elif reduction == "symmetric":
            if spec.eccentricity == 0.0:  # one representative: hypot's radius at r = 0
                reps.append(np.array([spec.semi_major_m]))
            else:
                xy = _shape_xy(spec)[: spec.sensors // 4 + 1]
                reps.append(np.hypot(xy[:, 0], xy[:, 1]))
        else:
            reps.append(array.ring_radii(ring))
    radii = np.concatenate(reps)
    column = np.arange(radii.size)
    if design == "average" or reduction == "symmetric":
        radii, column = np.unique(radii, return_inverse=True)
    return FilterBank(array=array, grid=grid, design=design, mode_half=mode_half,
                      reduction=reduction, radii=radii,
                      ring_columns=np.split(column, np.cumsum([r.size for r in reps])[:-1]))


class _ShapeTerms:
    """What the expansion needs of the rings of one shape: their shared
    representatives r, phase tables j^-m cos/sin(m theta_r) and weight
    columns, each ring's mode rotation e^{jm alpha}/P, and the stacked data
    fold of any band chunk.  The bank's weights are W j^m (FilterBank.
    weights_from_jtable), so the exact j^-m rides in the phase tables, or
    on a folded circle, which has none, in its one weight column.

    Folded rings (FilterBank.folded) group by shape (semi-major axis,
    eccentricity, sensor count) and take r = 0..P/4 of the shape at rotation
    0, whose mirrors P/2 - r, P/2 + r and P - r sit at pi - theta_r,
    pi + theta_r and -theta_r; ring g of the group is the shape turned by its
    alpha_g.  A folded circle (eccentricity 0) has one weight column and its
    sensors at theta_p = 2 pi p / P, so its fold is a DFT over all P sensors
    and it needs no phase tables.  Any other ring is a group of its own and
    its own fold: r = p, theta_r = phi_p, alpha = 0, B = 0; an average-design
    ring's one weight column broadcasts over its sensors.
    """

    def __init__(self, channel: ChannelMatrix, bank: FilterBank, rings: Sequence[int]):
        self.rings = list(rings)
        self.data = [v.reshape(v.shape[:2] + (-1,))  # per ring (P, K, B)
                     for v in map(channel.ring_rows, self.rings)]
        p, _, self.points = self.data[0].shape
        self.orders = np.arange(bank.mode_half + 1)
        self.turn = (-1j) ** (self.orders % 4)[:, None]  # j^-m, exactly
        self.folded = bank.folded
        columns = bank.ring_columns[self.rings[0]]
        for step in (1, -1):
            # a circle's or an average ring's one column, an unshared ring's
            # block and a folded shape's block in reverse (its radii fall
            # from a to b) are each a slice: take a view, not a copy
            if np.array_equal(columns, columns[0] + step * np.arange(columns.size)):
                stop = int(columns[-1]) + step
                columns = slice(int(columns[0]), stop if stop >= 0 else None, step)
                break
        self.columns = columns
        alphas, self.circle = [0.0], False
        if self.folded:
            specs = [channel.array.ring_spec(ring) for ring in self.rings]
            alphas = [math.radians(spec.rotation_deg) for spec in specs]
            self.circle = specs[0].eccentricity == 0.0
        self.rot = [np.exp(1j * self.orders * alpha)[:, None, None] / p for alpha in alphas]
        ring_points = self.points * len(self.rings)
        if self.circle:
            # one sample of a ring's FFT and of all rings' sums, diffs and
            # (even, odd) products, counted twice: at the single count the
            # larger chunks raised a fig4a sweep's max RSS by 4 MB
            self.sample_bytes = 32 * ring_points * (p + 4 * self.orders.size)
            return
        if self.folded:
            r = np.arange(p // 4 + 1)
            xy = _shape_xy(specs[0])
            theta = np.arctan2(xy[:, 1], xy[:, 0])
            self.orbits = np.stack([r, p // 2 + r, p - r, p // 2 - r]) % p
        else:
            r, theta = np.arange(p), channel.array.ring_azimuths(self.rings[0])
        # per parity q the fold keeps (two folded, one not), rows m = q (mod
        # parities) of j^-m cos/sin(m theta_r)
        parities = 2 if self.folded else 1
        angle = np.outer(self.orders, theta[r])
        self.phases = [(self.turn[q::parities] * np.cos(angle[q::parities]),
                        self.turn[q::parities] * np.sin(angle[q::parities]))
                       for q in range(parities)]
        # one sample's (even, odd) products of all rings and, folded, their sums
        # and diffs (an unfolded ring's are channel views)
        self.sample_bytes = 32 * ring_points * (
            self.orders.size + (2 * r.size if self.folded else 0))

    def fold(self, k0: int, k1: int) -> tuple:
        """(sums, diffs) of samples k0..k1-1, ring g's B points at g B .. (g + 1) B - 1.

        Phase-table folds are (k1 - k0, G B, R, parity): with A = H_r +-
        H_{P/2+r} and B = H_{P-r} +- H_{P/2-r} (sign = parity of m), sums =
        A + B and diffs = A - B; the r = 0 and r = P/4 orbits, which list each
        sensor twice, enter at weight 1/2.  Each ring gathers its orbits'
        sensor rows, (4, R, k1 - k0, B), and writes through transposed views;
        an unfolded ring's sums and diffs are channel views.

        A circle's are (k1 - k0, mode_half + 1, G B): from one FFT per ring,
        d[q] = sum_p H_p e^{-j 2 pi q p / P}, the mode sums V+(m) = d[-m mod P]
        and V-(m) = d[m mod P] give sums = (V+ + V-)/2 and diffs = (V+ - V-)/2,
        read through slices of d in blocks of P modes.
        """
        if not self.folded:
            data = self.data[0][:, k0:k1].transpose(1, 2, 0)
            return data[..., None], data[..., None]
        b = self.points
        if self.circle:
            p, size = self.data[0].shape[0], self.orders.size
            shape = (k1 - k0, size, len(self.rings) * b)
            sums, diffs = np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)
            for g, data in enumerate(self.data):
                d = np.fft.fft(data[:, k0:k1], axis=0)
                d *= 0.5
                s, t = (x[..., g * b:(g + 1) * b].transpose(1, 0, 2) for x in (sums, diffs))
                for m in range(0, size, p):  # modes m + i, 0 <= i < n: V-(m + i) = d[i]
                    n = min(p, size - m)  # and V+(m + i) = d[P - i], or d[0] at i = 0
                    np.add(d[0], d[0], out=s[m])
                    t[m] = 0.0
                    np.add(d[p - 1:p - n:-1], d[1:n], out=s[m + 1:m + n])
                    np.subtract(d[p - 1:p - n:-1], d[1:n], out=t[m + 1:m + n])
            return sums, diffs
        shape = (k1 - k0, len(self.rings) * b, self.orbits.shape[1], 2)
        sums, diffs = np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)
        for g, data in enumerate(self.data):
            h = data[self.orbits, k0:k1]
            h[:, [0, -1]] *= 0.5
            s, d = (x[:, g * b:(g + 1) * b].transpose(3, 2, 0, 1) for x in (sums, diffs))
            np.add(h[0], h[1], out=s[0])  # s = A
            np.subtract(h[0], h[1], out=s[1])
            np.add(h[2], h[3], out=h[0])  # h[:2] = B
            np.subtract(h[2], h[3], out=h[1])
            np.subtract(s, h[:2], out=d)
            s += h[:2]
        return sums, diffs

    def products(self, w_bank: np.ndarray, sums: np.ndarray, diffs: np.ndarray,
                 out: np.ndarray) -> tuple:
        """One sample's (even, odd) mode sums, each (mode_half + 1, G B), in
        `out`: one gather for all the group's rings, then per parity
        q one pair of weight-phase products over the rows m = q (mod parities)
        and one matrix-vector product per ring and point with parity q's column.
        A circle's are its one weight column times its sums and diffs."""
        w = w_bank[:, self.columns]
        even, odd = out
        if self.circle:
            w = w * self.turn
            np.multiply(w, sums, out=even)
            np.multiply(w, diffs, out=odd)
            return even, odd
        n = len(self.phases)
        for q, (cos_q, sin_q) in enumerate(self.phases):
            even[q::n] = ((w[q::n] * cos_q) @ sums[..., q:q + 1])[..., 0].T
            odd[q::n] = ((w[q::n] * sin_q) @ diffs[..., q:q + 1])[..., 0].T
        odd *= 1j
        return even, odd


def _expand(channel: ChannelMatrix, bank: FilterBank, rings: Sequence[int],
            stages=None) -> ModeMatrix:
    """The expansion kernel: the mean of the listed rings' mode matrices.

    The band runs in chunks of at most TABLE_CHUNK_BYTES of Bessel table,
    folded data and mode products (one bessel_j_table call over all bank
    radii and one fold per shape per chunk), then frequency by frequency
    (one weight evaluation, with its floor check, per sample, written into
    the same two buffers for every sample of the call), then shape by
    shape (a gather of the shape's columns, then per parity two weight-phase
    products and two matmuls, or on a circle its column times its FFT sums
    and diffs, written into the chunk's products).  After a chunk's samples,
    each ring adds its rotated products into the output once per chunk:

    H_{+-m} = e^{+-jm alpha}/P sum_r W_{m,r} [cos(m theta_r) sums_r +- j sin(m theta_r) diffs_r],

    theta_r the azimuths of the ring's shape at rotation 0 and alpha its
    rotation (see _ShapeTerms); on a circle, H_{+-m} = e^{+-jm alpha}/P W_m
    V+-(m).  A trailing point axis on the channel,
    values[p, k, b], yields mode values[i, k, b].  The matmuls stack the
    shape's rings and their points, which numpy runs as one matrix-vector
    product per parity, ring and point with the shapes of a single-point
    call, so every ring and point gets the bits it would get alone (and,
    as measured with OpenBLAS, the same bits at 1, 2 and 4 threads).
    Rings add into the output in list order and the sum is divided by their
    count once, as concentric_expand does.

    With a `stages` dict, the wall time (time.perf_counter seconds) of each
    part is added to its entry: "folds" (the shapes' phase tables and every
    chunk's fold), "tables" (the Bessel tables), "weights" and "products"
    (the weight-phase products, matmuls and ring sums).
    """
    if bank.array is not channel.array and bank.array != channel.array:
        raise ValidationError("bank and channel refer to different arrays")
    if bank.grid != channel.grid:
        raise ValidationError("bank and channel grids differ")
    stages, clock = {} if stages is None else stages, time.perf_counter()
    mh, samples = bank.mode_half, channel.grid.samples
    out = np.zeros((2 * mh + 1,) + channel.values.shape[1:], dtype=complex)
    total = out.reshape(out.shape[:2] + (-1,))  # (modes, K, B) view
    groups = {}
    for ring in rings:  # folded rings group by shape, any other ring is its own group
        spec = channel.array.ring_spec(ring)
        key = (spec.semi_major_m, spec.eccentricity, spec.sensors) if bank.folded else ring
        groups.setdefault(key, []).append(ring)
    terms = [_ShapeTerms(channel, bank, members) for members in groups.values()]
    # each ring's group, and the columns of its points in the group's products
    place = {ring: (n, slice(g * t.points, (g + 1) * t.points), t.rot[g])
             for n, t in enumerate(terms) for g, ring in enumerate(t.rings)}
    sample_bytes = 8 * (mh + 2) * bank.radii.size + sum(t.sample_bytes for t in terms)
    step = max(1, TABLE_CHUNK_BYTES // sample_bytes)
    den = np.empty((mh + 2, bank.radii.size))  # one sample's table rows, then work space
    w_bank = np.empty(den[1:].shape, complex)  # W j^m of one sample
    for k0 in range(0, samples, step):
        k1 = min(k0 + step, samples)
        # folding first keeps its temporaries out of the table's lifetime
        folds = [t.fold(k0, k1) for t in terms]
        clock = _lap(stages, "folds", clock)
        jtab = bank.jtable(k0, k1)
        clock = _lap(stages, "tables", clock)
        parts = [np.empty((2, k1 - k0, mh + 1, t.points * len(t.rings)), dtype=complex)
                 for t in terms]  # per shape: (even, odd) products by sample
        for i, k in enumerate(range(k0, k1)):
            bank.weights_from_jtable(jtab[:, i], k, w_bank, den)
            clock = _lap(stages, "weights", clock)
            for t, (sums, diffs), part in zip(terms, folds, parts):
                t.products(w_bank, sums[i], diffs[i], part[:, i])
            clock = _lap(stages, "products", clock)
        del folds, jtab  # the next chunk's table must not overlap this one
        for ring in rings:
            n, cols, rot = place[ring]
            even, odd = parts[n][..., cols].transpose(0, 2, 1, 3)  # (mh + 1, k1 - k0, B)
            total[mh + 1:, k0:k1] += rot[1:] * (even[1:] + odd[1:])
            total[mh::-1, k0:k1] += rot.conj() * (even - odd)
        del parts
        clock = _lap(stages, "products", clock)
    out /= len(rings)
    return ModeMatrix(values=out, mode_half=mh, grid=channel.grid)


def phase_mode_expand(channel: ChannelMatrix, ring: int, bank: FilterBank) -> ModeMatrix:
    """Expand one ring's sensor data into mode space (the expand_array kernel on one ring).

    H_m(f_k) = (1/P) sum_p H[p, k] e^{+jm phi_p} W_{m,p}(f_k), summed over
    the ring's representatives; realized mirrors miss their ideal azimuths
    by rounding (<= 3e-15 rad).
    """
    return _expand(channel, bank, [ring])


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
    total = sum(mm.values for mm in ring_modes)
    return ModeMatrix(values=total / len(ring_modes), mode_half=first.mode_half,
                      grid=first.grid)


def expand_array(channel: ChannelMatrix, bank: FilterBank, stages=None) -> ModeMatrix:
    """Full expansion: every ring, then the concentric average, in one pass
    over the band (see _expand, which also reads `stages`)."""
    return _expand(channel, bank, range(channel.array.ring_count), stages)
