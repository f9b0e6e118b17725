import cmath
import inspect
import math
import tracemalloc

import numpy as np
import pytest

from elliptic_doa import beamform, channel, geometry, pipeline, presets, specfun, spectrum
from elliptic_doa.constants import SPEED_OF_LIGHT
from elliptic_doa.errors import DomainError, InstabilityError, ValidationError
from elliptic_doa.specfun import bessel_j

import oracles

# frozen from the series oracle: J_0(1), J_1(1)
J0_1 = 0.7651976865579666
J1_1 = 0.44005058574493355
FIRST_J0_ROOT = 2.404825557695773

# Rounding of a phase m * phi (|phi| <= pi) per unit m, in rad: pi * 2**-53
PHASE_ROUNDING = math.pi * 2.0**-53
# Distance of a realized sensor azimuth from the kernel's, its shape's
# quadrant mirror turned by alpha, in rad: eta_p, x_p, y_p and atan2 round
# once on the ring and once on its shape at rotation 0, and alpha once.
# Measured up to 6.4 PHASE_ROUNDING on ellipses to e = 0.9 and P = 1000,
# rotated up to 337.5 degrees.
MIRROR_ROUNDING = 8 * PHASE_ROUNDING


def make_array(a=0.5, ecc=0.0, sensors=720, alpha=0.0, sigma=0.0, seed=0):
    return geometry.build_concentric([geometry.EllipseSpec(
        semi_major_m=a, eccentricity=ecc, rotation_deg=alpha,
        sensors=sensors, sigma_m=sigma, seed=seed)])


def small_grid(samples=8, f_start=28e9, bw=2e9):
    return channel.FrequencyGrid(f_start_hz=f_start, bandwidth_hz=bw, samples=samples)


# mode_limit's search at 41 log-spaced x_min in [1, 1e4], as a double-double
# table gave it: x_min, then robust at thresholds 1e-3 and 1e-6, then plain
# at 1e-3 and 1e-6 (the plain design's nulls make its column jump)
MODE_LIMITS = [
    (1.0, 5, 7, 4, 7),
    (1.25893, 5, 8, 4, 7),
    (1.58489, 6, 9, 5, 8),
    (1.99526, 6, 10, 6, 9),
    (2.51189, 7, 11, 6, 10),
    (3.16228, 8, 12, 7, 11),
    (3.98107, 9, 13, 8, 12),
    (5.01187, 10, 15, 10, 14),
    (6.30957, 12, 17, 11, 16),
    (7.94328, 14, 19, 13, 18),
    (10.0, 16, 22, 16, 21),
    (12.5893, 19, 25, 19, 25),
    (15.8489, 23, 29, 23, 29),
    (19.9526, 28, 34, 27, 34),
    (25.1189, 33, 41, 33, 40),
    (31.6228, 40, 48, 40, 48),
    (39.8107, 49, 58, 49, 57),
    (50.1187, 60, 69, 60, 69),
    (63.0957, 74, 84, 73, 83),
    (79.4328, 91, 101, 90, 101),
    (100.0, 112, 124, 23, 123),
    (125.893, 139, 151, 138, 151),
    (158.489, 172, 186, 71, 185),
    (199.526, 214, 229, 108, 228),
    (251.189, 267, 282, 98, 282),
    (316.228, 333, 350, 13, 350),
    (398.107, 416, 434, 7, 434),
    (501.187, 520, 540, 25, 540),
    (630.957, 651, 673, 59, 672),
    (794.328, 816, 839, 44, 839),
    (1000.0, 1023, 1048, 51, 1048),
    (1258.93, 1283, 1311, 7, 1310),
    (1584.89, 1610, 1640, 49, 1640),
    (1995.26, 2022, 2055, 38, 2055),
    (2511.89, 2541, 2576, 51, 2576),
    (3162.28, 3193, 3231, 53, 3231),
    (3981.07, 4014, 4055, 16, 4055),
    (5011.87, 5047, 5091, 111, 5091),
    (6309.57, 6346, 6395, 113, 6395),
    (7943.28, 7982, 8035, 121, 8035),
    (10000.0, 10041, 10098, 84, 7363),
]


class TestModeLimit:
    def test_paper_scale_circle(self):
        arr = make_array()
        grid = small_grid()
        mh = beamform.mode_limit(arr, grid, 1e-6)
        assert mh >= 250

    def test_degenerate_center_sensor(self):
        arr = geometry.SensorArray(rings=[(None, np.array([[0.0, 0.0], [0.1, 0.0]]))])
        grid = small_grid()
        # robust denominator at x=0: m=0 -> 1, m=1 -> |J_1 - jJ'_1| = 0.5, m=2 -> 0
        assert beamform.mode_limit(arr, grid, 1e-6) == 1
        assert beamform.mode_limit(arr, grid, 1e-6, design="plain") == 0

    def test_monotone_in_frequency_and_radius(self):
        arr_small = make_array(a=0.25, sensors=64)
        arr_big = make_array(a=0.5, sensors=64)
        lims_f = [beamform.mode_limit(arr_big, small_grid(f_start=f), 1e-6)
                  for f in (6e9, 12e9, 28e9)]
        assert lims_f == sorted(lims_f)
        assert (beamform.mode_limit(arr_small, small_grid(), 1e-6)
                <= beamform.mode_limit(arr_big, small_grid(), 1e-6))

    def test_threshold_guard(self):
        with pytest.raises(DomainError):
            beamform.mode_limit(make_array(sensors=8), small_grid(), 0.0)

    def test_search_requests_plain_tables_only(self, monkeypatch):
        """The search builds its table as FilterBank.jtable does."""
        real = beamform.bessel_j_table
        signature = inspect.signature(real)
        requested = []

        def spy(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            requested.append(bound.arguments["compensated"])
            return real(*args, **kwargs)

        monkeypatch.setattr(beamform, "bessel_j_table", spy)
        beamform._mode_limit_at.cache_clear()
        arr = make_array(ecc=0.5, sensors=64)
        for design in beamform.DESIGNS:
            beamform.mode_limit(arr, small_grid(), 1e-6, design=design)
        designs_only = len(requested)
        beamform.mode_limit(arr, small_grid(f_start=1e9), 1e-300)
        assert len(requested) - designs_only >= 2  # the cap doubled
        assert not any(requested)

    @pytest.mark.parametrize("x_min,limits", [(row[0], row[1:]) for row in MODE_LIMITS],
                             ids=[f"{row[0]:g}" for row in MODE_LIMITS])
    def test_limits_equal_the_double_double_search(self, x_min, limits):
        search = beamform._mode_limit_at.__wrapped__
        assert (search(x_min, 1e-3, "robust"), search(x_min, 1e-6, "robust"),
                search(x_min, 1e-3, "plain"), search(x_min, 1e-6, "plain")) == limits

    def test_search_doubles_its_cap_up_to_the_order_guard(self, monkeypatch):
        """A table that never fails drives the search loop: the first table has
        order ceil(x_min) + 65, each next one the doubled cap 2 cap + 64 (+ 1),
        and a cap past ORDER_GUARD raises naming x_min before its table is built."""
        orders = []

        def never_failing(m_max, x, compensated=True):
            orders.append(m_max)
            return np.ones((m_max + 1, len(x)))

        monkeypatch.setattr(beamform, "bessel_j_table", never_failing)
        search = beamform._mode_limit_at.__wrapped__
        with pytest.raises(DomainError, match=r"x_min=999000 passes the Bessel order guard"):
            search(999000.0, 1e-6, "robust")
        assert orders == [999065]  # the doubled cap 1998192 is never built
        orders.clear()
        with pytest.raises(DomainError, match=r"x_min=1000 passes the Bessel order guard"):
            search(1000.0, 1e-6, "plain")
        caps = [1064]
        while 2 * caps[-1] + 64 + 1 <= specfun.ORDER_GUARD:
            caps.append(2 * caps[-1] + 64)
        assert orders == [cap + 1 for cap in caps]


class TestMakeFilter:
    def test_robust_value_from_bessel_oracle(self):
        f = SPEED_OF_LIGHT / (2 * math.pi)  # makes x = r exactly
        got = oracles.make_filter("robust", 0, 1.0, f)
        want = 2.0 / complex(J0_1, -J1_1)  # J'_0 = -J_1 folds into -jJ_1
        assert got == pytest.approx(want, rel=1e-12)

    def test_plain_at_small_argument(self):
        f = SPEED_OF_LIGHT / (2 * math.pi)
        got = oracles.make_filter("plain", 0, 1e-8, f)
        assert got == pytest.approx(1.0 + 0.0j, rel=1e-9)

    def test_plain_null_raises(self):
        f = SPEED_OF_LIGHT / (2 * math.pi)
        with pytest.raises(InstabilityError):
            oracles.make_filter("plain", 0, FIRST_J0_ROOT, f)
        # the robust form rides through the same argument
        w = oracles.make_filter("robust", 0, FIRST_J0_ROOT, f)
        assert np.isfinite(w.real) and np.isfinite(w.imag)

    def test_unknown_design(self):
        with pytest.raises(DomainError):
            oracles.make_filter("fancy", 0, 1.0, 1e9)


class TestBank:
    def test_symmetric_requires_clean_and_divisible(self):
        grid = small_grid()
        noisy = make_array(sensors=720, sigma=1e-3, seed=1)
        odd = make_array(sensors=30)
        for design in beamform.DESIGNS:
            with pytest.raises(ValidationError):
                beamform.build_bank(noisy, grid, design=design, mode_half=4,
                                    reduction="symmetric")
            with pytest.raises(ValidationError):
                beamform.build_bank(odd, grid, design=design, mode_half=4,
                                    reduction="symmetric")

    def test_auto_folds_exactly_where_every_ring_allows(self):
        """The "auto" reduction folds when every ring has ellipse parameters,
        sigma = 0 and P divisible by 4, and the design is not "average"."""
        grid = small_grid(samples=2)
        clean = geometry.EllipseSpec(semi_major_m=0.15, eccentricity=0.7, sensors=36)
        perturbed = geometry.EllipseSpec(semi_major_m=0.2, sensors=36, sigma_m=1e-4, seed=1)
        spec_less = geometry.SensorArray(rings=[(None, geometry.build_ellipse(clean))])

        def auto(arr, design="robust"):
            bank = beamform.build_bank(arr, grid, design=design, mode_half=4, reduction="auto")
            return bank.reduction

        assert auto(geometry.build_concentric([clean])) == "symmetric"
        assert auto(geometry.build_concentric([clean, perturbed])) == "none"
        assert auto(make_array(sensors=30)) == "none"
        assert auto(spec_less) == "none"
        assert auto(geometry.build_concentric([clean]), design="average") == "none"
        with pytest.raises(DomainError):
            beamform.build_bank(spec_less, grid, reduction="folded")

    def test_auto_bank_of_fig7_cea_is_the_symmetric_bank(self):
        sc = pipeline.resolve(presets.get_preset("fig7-cea"))
        auto, symmetric = (beamform.build_bank(sc.array, sc.grid, reduction=reduction,
                                               mode_half=sc.processing.mode_half)
                           for reduction in ("auto", "symmetric"))
        assert auto.reduction == "symmetric" and auto.folded
        assert np.array_equal(auto.radii, symmetric.radii)
        assert [c.tolist() for c in auto.ring_columns] == [
            c.tolist() for c in symmetric.ring_columns]

    def test_reduction_counts(self):
        grid = small_grid()
        arr = make_array(ecc=0.7)
        full = beamform.build_bank(arr, grid, mode_half=125, reduction="none")
        red = beamform.build_bank(arr, grid, mode_half=125, reduction="symmetric")
        assert full.unique_eval_count == 251 * 720
        assert red.unique_eval_count == 126 * 181
        combined = full.unique_eval_count / red.unique_eval_count
        quadrant = 720 / 181
        assert combined >= 7.8
        assert quadrant >= 3.9

    def test_symmetric_equals_unreduced(self):
        grid = small_grid(samples=4)
        arr = make_array(ecc=0.7, sensors=48, alpha=30.0)
        full = beamform.build_bank(arr, grid, mode_half=20, reduction="none")
        red = beamform.build_bank(arr, grid, mode_half=20, reduction="symmetric")
        for k in range(4):
            a = oracles.bank_dense_weights(full, 0, k)
            b = oracles.bank_dense_weights(red, 0, k)
            assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()

    def test_bitwise_sharing_where_radii_identical(self):
        grid = small_grid(samples=2)
        arr = make_array(sensors=48)
        red = beamform.build_bank(arr, grid, mode_half=6, reduction="symmetric")
        full = beamform.build_bank(arr, grid, mode_half=6, reduction="none")
        radii = arr.ring_radii(0)
        rep = oracles.sensor_columns(red, 0)
        w_red = oracles.bank_dense_weights(red, 0, 0)
        w_full = oracles.bank_dense_weights(full, 0, 0)
        shared = radii == red.radii[rep]
        assert shared.any()
        assert np.array_equal(w_red[:, shared], w_full[:, shared])

    def test_circle_bank_collapses(self):
        grid = small_grid(samples=2)
        arr = make_array(sensors=720)
        red = beamform.build_bank(arr, grid, mode_half=8, reduction="symmetric")
        # every representative takes the semi-major axis, not its hypot radius
        assert red.radii.tolist() == [arr.ring_spec(0).semi_major_m]
        assert red.ring_columns[0].tolist() == [0]

    def test_ring_columns_list_representatives(self):
        ellipse = geometry.EllipseSpec(semi_major_m=0.15, eccentricity=0.7, sensors=36)
        copy = geometry.EllipseSpec(semi_major_m=0.15, eccentricity=0.7, rotation_deg=37.0,
                                    sensors=36)
        circle = geometry.EllipseSpec(semi_major_m=0.15, sensors=36)
        arr = geometry.build_concentric([ellipse, copy, circle])
        grid = small_grid(samples=2)
        bank = beamform.build_bank(arr, grid, mode_half=4, reduction="symmetric")
        cols = bank.ring_columns
        assert [c.size for c in cols] == [36 // 4 + 1, 36 // 4 + 1, 1]
        assert np.array_equal(cols[1], cols[0])
        assert cols[2].tolist() == [cols[0][0]]
        xy = geometry.build_ellipse(ellipse)[: 36 // 4 + 1]
        for ring in (0, 1):
            assert np.array_equal(bank.radii[cols[ring]], np.hypot(xy[:, 0], xy[:, 1]))
        assert bank.radii[cols[2]].tolist() == [0.15]
        full = beamform.build_bank(arr, grid, mode_half=4)
        assert [c.tolist() for c in full.ring_columns] == [
            list(range(36 * ring, 36 * (ring + 1))) for ring in range(3)]
        average = beamform.build_bank(arr, grid, design="average", mode_half=4)
        assert [c.size for c in average.ring_columns] == [1, 1, 1]

    def test_average_design(self):
        grid = small_grid(samples=3)
        arr = make_array(ecc=0.7)
        bank = beamform.build_bank(arr, grid, design="average", mode_half=10)
        assert bank.radii.size == 1
        spec = arr.ring_spec(0)
        assert bank.radii[0] == 0.5 * (spec.semi_major_m + spec.semi_minor_m)
        assert bank.unique_eval_count == 21  # modes x 1 radius

    def test_average_needs_spec(self):
        xy = np.array([[0.1, 0.0], [0.0, 0.1], [-0.1, 0.0], [0.0, -0.1]])
        arr = geometry.SensorArray(rings=[(None, xy)])
        with pytest.raises(ValidationError):
            beamform.build_bank(arr, small_grid(), design="average", mode_half=2)

    def test_negative_mode_rows_equal_positive(self):
        grid = small_grid(samples=2)
        arr = make_array(ecc=0.5, sensors=16)
        bank = beamform.build_bank(arr, grid, mode_half=5)
        w = oracles.bank_dense_weights(bank, 0, 1)
        for m in range(1, 6):
            assert np.array_equal(w[5 - m], w[5 + m])

    def test_instability_error_names_location(self):
        # radius and frequency chosen so x hits the first J_0 null at sensor 2
        # of ring 1 only; ring 0 (x = 0.5) and the rest of ring 1 (x = 1) are safe
        f0 = 10e9
        unit = SPEED_OF_LIGHT / (2 * math.pi * f0)  # the radius of x = 1
        ring_radii = [[0.5 * unit] * 4, [unit, unit, FIRST_J0_ROOT * unit, unit]]
        rings = [(None, np.array([[r * math.cos(i), r * math.sin(i)]
                                  for i, r in enumerate(radii)]))
                 for radii in ring_radii]
        arr = geometry.SensorArray(rings=rings)
        grid = channel.FrequencyGrid(f_start_hz=f0, bandwidth_hz=1e9, samples=2)
        bank = beamform.build_bank(arr, grid, design="plain", mode_half=2)
        where = r"m=0, p=2 \(ring 1\), f=10000000000.0 Hz"
        with pytest.raises(InstabilityError, match=where):
            oracles.bank_weights_at(bank, 0)
        ch = channel.ChannelMatrix(array=arr, grid=grid, values=np.ones((8, 2), dtype=complex))
        with pytest.raises(InstabilityError, match=where):
            beamform.expand_array(ch, bank)

    def test_mode_limit_keeps_bank_stable(self):
        arr = make_array(ecc=0.7, sensors=128)
        grid = small_grid(samples=12)
        mh = beamform.mode_limit(arr, grid, 1e-6)
        bank = beamform.build_bank(arr, grid, mode_half=mh, reduction="symmetric")
        for k in range(grid.samples):
            oracles.bank_weights_at(bank, k)  # must not raise

    def test_dump_csv(self, tmp_path):
        arr = make_array(sensors=8)
        grid = small_grid(samples=2)
        bank = beamform.build_bank(arr, grid, mode_half=1)
        path = tmp_path / "bank.csv"
        oracles.dump_bank_csv(bank, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "m,p,ring,f_hz,re,im"
        assert len(lines) == 1 + 3 * 8 * 2


class TestWeightKernel:
    """FilterBank.weights_from_jtable, which writes W j^m, against
    oracles.make_filter at every (mode, column, sample) of a bank."""

    @pytest.mark.parametrize("design", ["robust", "plain"])
    @pytest.mark.parametrize("ecc,sensors,reduction,sigma", [
        pytest.param(0.7, 36, "symmetric", 0.0, id="folded-ellipse"),
        pytest.param(0.0, 36, "symmetric", 0.0, id="folded-circle"),
        pytest.param(0.5, 30, "none", 1e-3, id="perturbed-unreduced"),
    ])
    def test_matches_make_filter(self, ecc, sensors, reduction, sigma, design):
        self.assert_matches(make_array(a=0.15, ecc=ecc, sensors=sensors, sigma=sigma, seed=3),
                            design, reduction)

    @pytest.mark.parametrize("reduction", ["none", "symmetric"])
    def test_average_design_matches_make_filter(self, reduction):
        self.assert_matches(make_array(a=0.15, ecc=0.5, sensors=24), "average", reduction)

    @staticmethod
    def assert_matches(arr, design, reduction):
        """x from about 18 (25 on the circle) to 39 with M_h = 30 takes
        Miller, upward and downward table lanes.  Each Bessel value sits
        within 1e-12 of the oracle's, and |dW| = |W|^2 |d den| (plain) or
        |W|^2 |d den| / 2 (robust)."""
        grid = small_grid(samples=4, f_start=8e9, bw=6e9)
        bank = beamform.build_bank(arr, grid, design=design, mode_half=30, reduction=reduction)
        x = 2 * math.pi * np.outer(grid.frequencies, bank.radii) / SPEED_OF_LIGHT
        assert ((x >= 25) & (x < 31)).any() and (x >= 31).any()
        for k, f in enumerate(grid.frequencies):
            jk = bank.jtable(k, k + 1)[:, 0]
            got = np.empty((31, bank.radii.size), dtype=complex)
            assert bank.weights_from_jtable(jk, k, got, np.empty(jk.shape)) is got
            want = np.array([[oracles.make_filter(design, m, r, f) for r in bank.radii]
                             for m in range(31)]) * oracles.j_power(np.arange(31))[:, None]
            err = np.abs(got - want)
            assert (err <= 1e-12 * np.abs(want) ** 2 + 4e-16 * np.abs(want)).all(), k
        if design == "plain":
            assert not got.imag.any()

    @pytest.mark.parametrize("design,mode_half,radii,where", [
        # x hits the first J_0 null at sensor 2 of ring 1 only
        ("plain", 2, [[0.5] * 4, [1.0, 1.0, FIRST_J0_ROOT, 1.0]], (0, 2, 1)),
        # |J_11(0.5) + jJ'_11(0.5)| ~ 1e-13 at sensor 1 of ring 0; every other
        # order and argument (x = 0.5 there, 1 elsewhere) stays above the floor
        ("robust", 11, [[1.0, 0.5, 1.0, 1.0], [1.0] * 4], (11, 1, 0)),
    ])
    def test_floor_error_names_the_one_failing_filter(self, design, mode_half, radii, where):
        f0 = 10e9
        unit = SPEED_OF_LIGHT / (2 * math.pi * f0)  # the radius of x = 1 at f0
        rings = [(None, np.array([[r * unit * math.cos(i), r * unit * math.sin(i)]
                                  for i, r in enumerate(ring)])) for ring in radii]
        arr = geometry.SensorArray(rings=rings)
        grid = channel.FrequencyGrid(f_start_hz=f0, bandwidth_hz=10e9, samples=2)
        bank = beamform.build_bank(arr, grid, design=design, mode_half=mode_half)
        failing = []
        for m in range(mode_half + 1):
            for ring in range(2):
                for p, r in enumerate(arr.ring_radii(ring)):
                    try:
                        oracles.make_filter(design, m, r, f0)
                    except InstabilityError:
                        failing.append((m, p, ring))
        assert failing == [where]
        with pytest.raises(InstabilityError,
                           match=r"m=%d, p=%d \(ring %d\), f=10000000000.0 Hz" % where):
            oracles.bank_weights_at(bank, 0)
        oracles.bank_weights_at(bank, 1)  # at 15 GHz x is 1.5 times larger: none fails


class TestExpansion:
    def test_unit_weights_average(self, monkeypatch):
        arr = make_array(sensors=16)
        grid = small_grid(samples=3)
        ch = channel.ChannelMatrix(array=arr, grid=grid,
                                   values=np.ones((16, 3), dtype=complex))
        bank = beamform.build_bank(arr, grid, design="plain", mode_half=2)
        # the kernel writes W j^m: unit values there are W = j^-m
        monkeypatch.setattr(beamform.FilterBank, "weights_from_jtable",
                            lambda self, jk, k, out, den: np.copyto(out, 1.0) or out)
        modes = beamform.phase_mode_expand(ch, 0, bank)
        # m = 0 row is the plain average of ones
        assert modes.values[2] == pytest.approx(np.ones(3), rel=1e-15)

    def test_circle_fidelity_plain_design(self):
        # in-plane wave on a circle: plain filters reconstruct H_l e^{jm phi_l}
        # essentially exactly (aliasing terms are hundreds of orders down)
        arr = make_array(sensors=720)
        grid = small_grid(samples=6)
        wave = channel.IncidentWave(azimuth_deg=37.0, delay_s=12e-9)
        ch = channel.superpose([wave], arr, grid)
        bank = beamform.build_bank(arr, grid, design="plain", mode_half=125,
                                   reduction="symmetric")
        modes = beamform.expand_array(ch, bank)
        h0 = channel.wave_response_center(wave, grid)
        phi_l = math.radians(37.0)
        for mi, m in enumerate(range(-125, 126)):
            ratio = modes.values[mi] / (h0 * cmath.exp(1j * m * phi_l))
            assert np.abs(np.abs(ratio) - 1.0).max() < 1e-9
            assert np.abs(np.angle(ratio)).max() < 1e-9

    def test_robust_gain_structure_on_circle(self):
        # robust filters reconstruct with gain 2J/(J + jJ'), magnitude <= 2;
        # the deviation from unity is an equal-magnitude chirp, not a defect
        arr = make_array(sensors=720)
        grid = small_grid(samples=4)
        wave = channel.IncidentWave(azimuth_deg=0.0, delay_s=0.0)
        ch = channel.superpose([wave], arr, grid)
        bank = beamform.build_bank(arr, grid, design="robust", mode_half=60,
                                   reduction="symmetric")
        modes = beamform.expand_array(ch, bank)
        r = float(np.mean(arr.ring_radii(0)))
        for mi, m in enumerate(range(-60, 61)):
            for k in range(4):
                x = 2 * math.pi * grid.frequencies[k] * r / SPEED_OF_LIGHT
                jm = bessel_j(abs(m), x)
                jp = 0.5 * (bessel_j(abs(m) - 1, x) - bessel_j(abs(m) + 1, x))
                want = 2 * jm / (jm + 1j * jp)
                assert modes.values[mi, k] == pytest.approx(want, rel=1e-6)

    def test_matches_literal_expansion(self):
        arr = make_array(ecc=0.7, sensors=36)
        grid = small_grid(samples=4, f_start=4e9, bw=1e9)
        wave = channel.IncidentWave(azimuth_deg=72.5, delay_s=3e-9)
        ch = channel.superpose([wave], arr, grid)
        bank = beamform.build_bank(arr, grid, design="robust", mode_half=6,
                                   reduction="symmetric")
        got = beamform.phase_mode_expand(ch, 0, bank).values
        want = oracles.brute_phase_mode(
            ch.values, arr.ring_azimuths(0), arr.ring_radii(0),
            grid.frequencies, mode_half=6)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_concentric_average(self):
        arr = make_array(ecc=0.5, sensors=24)
        grid = small_grid(samples=3)
        wave = channel.IncidentWave(azimuth_deg=10.0, delay_s=1e-9)
        ch = channel.superpose([wave], arr, grid)
        bank = beamform.build_bank(arr, grid, mode_half=4)
        single = beamform.phase_mode_expand(ch, 0, bank)
        one = beamform.concentric_expand([single])
        assert np.array_equal(one.values, single.values)
        dup = beamform.concentric_expand([single, single])
        assert np.allclose(dup.values, single.values, rtol=1e-15)

    def test_arrays_compare_by_value(self):
        specs = [geometry.EllipseSpec(semi_major_m=0.5, eccentricity=0.6, sensors=16),
                 geometry.EllipseSpec(semi_major_m=0.3, sensors=8)]
        grid = small_grid(samples=3)
        wave = channel.IncidentWave(azimuth_deg=20.0, delay_s=1e-9)
        bank = beamform.build_bank(geometry.build_concentric(specs), grid, mode_half=2)
        want = beamform.expand_array(channel.superpose([wave], bank.array, grid), bank)
        twin = geometry.build_concentric(specs)
        assert twin is not bank.array and twin == bank.array
        got = beamform.expand_array(channel.superpose([wave], twin, grid), bank)
        assert np.array_equal(got.values, want.values)
        turned = geometry.build_concentric(
            [specs[0], geometry.EllipseSpec(semi_major_m=0.3, rotation_deg=10.0, sensors=8)])
        assert turned != bank.array
        with pytest.raises(ValidationError, match="different arrays"):
            beamform.expand_array(channel.superpose([wave], turned, grid), bank)

    def test_concentric_mismatch_errors(self):
        arr = make_array(sensors=8)
        grid_a = small_grid(samples=3)
        grid_b = small_grid(samples=4)
        wave = channel.IncidentWave(azimuth_deg=0.0, delay_s=0.0)
        mm_a = beamform.phase_mode_expand(
            channel.superpose([wave], arr, grid_a), 0,
            beamform.build_bank(arr, grid_a, mode_half=2))
        mm_b = beamform.phase_mode_expand(
            channel.superpose([wave], arr, grid_b), 0,
            beamform.build_bank(arr, grid_b, mode_half=2))
        mm_c = beamform.phase_mode_expand(
            channel.superpose([wave], arr, grid_a), 0,
            beamform.build_bank(arr, grid_a, mode_half=3))
        with pytest.raises(ValidationError):
            beamform.concentric_expand([mm_a, mm_b])
        with pytest.raises(ValidationError):
            beamform.concentric_expand([mm_a, mm_c])
        with pytest.raises(ValidationError):
            beamform.concentric_expand([])


def literal_tolerance(want, arr, ch, bank):
    """Largest expected |fast - literal| entry, from three error regimes.

    Bessel tables: the bank's plain tables sit ~1e-14 of the
    envelope from the mpmath oracle, which the unfolded kernel always met
    as 1e-12 of the largest mode.  Phases: the literal sum rounds m phi_p,
    the kernel m theta_r, each by up to m PHASE_ROUNDING rad.  Mirrors: the
    fold puts every sensor of an orbit at its ideal mirror azimuth, which
    misses the realized one by up to MIRROR_ROUNDING.  |W| amplifies both
    phase terms: |error| <= M_h (2 PHASE_ROUNDING + MIRROR_ROUNDING) max|W|
    max|H|, which dominates once |W| reaches ~1e3.
    """
    w_max = max(float(np.abs(oracles.bank_weights_at(bank, k)).max())
                for k in range(bank.grid.samples))
    per_order = 2 * PHASE_ROUNDING + MIRROR_ROUNDING
    phases = bank.mode_half * per_order * w_max * np.abs(ch.values).max()
    return 1e-12 * np.abs(want).max() + phases


def literal_radii(arr, ring, design):
    if design != "average":
        return arr.ring_radii(ring)
    spec = arr.ring_spec(ring)
    return np.full(spec.sensors, 0.5 * (spec.semi_major_m + spec.semi_minor_m))


class TestFoldedExpansion:
    """The representative kernel against the literal per-sensor sum."""

    @pytest.mark.parametrize("ecc,alpha,sensors,mode_half,reduction,design,sigma", [
        pytest.param(0.9, 0.0, 40, 8, "symmetric", "robust", 0.0, id="ellipse-rot0"),
        pytest.param(0.7, 37.0, 36, 6, "symmetric", "robust", 0.0, id="ellipse-rot37"),
        pytest.param(0.5, 200.0, 32, 7, "symmetric", "robust", 0.0, id="ellipse-rot200"),
        # |W| reaches ~2e5 at m = 24 here: the phase regime dominates
        pytest.param(0.0, 0.0, 64, 24, "symmetric", "robust", 0.0, id="circle"),
        pytest.param(0.0, 37.0, 36, 6, "symmetric", "robust", 0.0, id="circle-rot37"),
        # modes past P/2 read FFT bins on both sides of P/2, past P a second block
        pytest.param(0.0, 0.0, 16, 12, "symmetric", "robust", 0.0, id="circle-wrapped-bins"),
        pytest.param(0.0, 20.0, 8, 10, "symmetric", "robust", 0.0, id="circle-modes-past-p"),
        pytest.param(0.0, 0.0, 32, 7, "symmetric", "plain", 0.0, id="circle-plain"),
        # the r = 0 and r = P/4 orbits have two members each
        pytest.param(0.6, 0.0, 4, 1, "symmetric", "robust", 0.0, id="p4"),
        pytest.param(0.6, 10.0, 8, 3, "symmetric", "robust", 0.0, id="p8"),
        pytest.param(0.5, 0.0, 30, 6, "none", "robust", 1e-3, id="perturbed-unreduced"),
        pytest.param(0.5, 45.0, 24, 5, "symmetric", "plain", 0.0, id="plain"),
        pytest.param(0.5, 0.0, 24, 5, "none", "average", 0.0, id="average"),
        pytest.param(0.5, 0.0, 24, 5, "symmetric", "average", 0.0, id="average-symmetric"),
    ])
    def test_matches_literal(self, ecc, alpha, sensors, mode_half, reduction, design, sigma):
        arr = make_array(a=0.15, ecc=ecc, sensors=sensors, alpha=alpha, sigma=sigma, seed=3)
        grid = small_grid(samples=3, f_start=4e9, bw=1e9)
        wave = channel.IncidentWave(azimuth_deg=72.5, delay_s=3e-9)
        ch = channel.superpose([wave], arr, grid)
        bank = beamform.build_bank(arr, grid, design=design, mode_half=mode_half,
                                   reduction=reduction)
        assert bank.folded == (reduction == "symmetric" and design != "average")
        got = beamform.phase_mode_expand(ch, 0, bank).values
        want = oracles.brute_phase_mode(
            ch.values, arr.ring_azimuths(0), literal_radii(arr, 0, design),
            grid.frequencies, mode_half=mode_half,
            design="plain" if design == "plain" else "robust")
        assert np.abs(got - want).max() <= literal_tolerance(want, arr, ch, bank)

    def test_three_rings_match_mean_of_literals(self):
        arr = geometry.build_concentric([
            geometry.EllipseSpec(semi_major_m=0.15, eccentricity=0.7, sensors=24),
            geometry.EllipseSpec(semi_major_m=0.12, eccentricity=0.5,
                                 rotation_deg=90.0, sensors=28),
            geometry.EllipseSpec(semi_major_m=0.1, sensors=16),
        ])
        grid = small_grid(samples=3, f_start=4e9, bw=1e9)
        wave = channel.IncidentWave(azimuth_deg=-40.0, delay_s=2e-9)
        ch = channel.superpose([wave], arr, grid)
        bank = beamform.build_bank(arr, grid, mode_half=5, reduction="symmetric")
        got = beamform.expand_array(ch, bank).values
        want = np.mean([oracles.brute_phase_mode(
            ch.ring_rows(i), arr.ring_azimuths(i), arr.ring_radii(i),
            grid.frequencies, mode_half=5) for i in range(3)], axis=0)
        assert np.abs(got - want).max() <= literal_tolerance(want, arr, ch, bank)


class TestBatchedExpansion:
    """A stack of points expands to exactly the single-point results."""

    AZIMUTHS = (72.5, -10.0, 133.0)

    def stack_and_points(self, arr, grid):
        points = [channel.superpose([channel.IncidentWave(azimuth_deg=az, delay_s=3e-9)],
                                    arr, grid).values for az in self.AZIMUTHS]
        stack = channel.ChannelMatrix(array=arr, grid=grid, values=np.stack(points, axis=-1))
        return stack, [channel.ChannelMatrix(array=arr, grid=grid, values=v) for v in points]

    @pytest.mark.parametrize("ecc,alpha,sensors,reduction,design,sigma", [
        pytest.param(0.7, 37.0, 36, "symmetric", "robust", 0.0, id="folded-ellipse"),
        pytest.param(0.0, 0.0, 64, "symmetric", "robust", 0.0, id="circle"),
        pytest.param(0.0, 37.0, 36, "symmetric", "robust", 0.0, id="circle-rot37"),
        pytest.param(0.5, 0.0, 30, "none", "robust", 1e-3, id="perturbed-unreduced"),
        pytest.param(0.5, 0.0, 24, "none", "average", 0.0, id="average"),
        pytest.param(0.5, 0.0, 24, "symmetric", "average", 0.0, id="average-symmetric"),
    ])
    def test_stack_equals_single_points(self, ecc, alpha, sensors, reduction, design, sigma):
        arr = make_array(a=0.15, ecc=ecc, sensors=sensors, alpha=alpha, sigma=sigma, seed=3)
        grid = small_grid(samples=3, f_start=4e9, bw=1e9)
        bank = beamform.build_bank(arr, grid, design=design, mode_half=6, reduction=reduction)
        stack, points = self.stack_and_points(arr, grid)
        got = beamform.phase_mode_expand(stack, 0, bank).values
        assert got.shape == (13, 3, len(points))
        for b, point in enumerate(points):
            want = beamform.phase_mode_expand(point, 0, bank).values
            assert np.array_equal(got[..., b], want), b

    def test_three_ring_array(self):
        arr = geometry.build_concentric([
            geometry.EllipseSpec(semi_major_m=0.15, eccentricity=0.7, sensors=24),
            geometry.EllipseSpec(semi_major_m=0.12, eccentricity=0.5,
                                 rotation_deg=90.0, sensors=28),
            geometry.EllipseSpec(semi_major_m=0.1, sensors=16),
        ])
        grid = small_grid(samples=3, f_start=4e9, bw=1e9)
        bank = beamform.build_bank(arr, grid, mode_half=5, reduction="symmetric")
        stack, points = self.stack_and_points(arr, grid)
        got = beamform.expand_array(stack, bank).values
        for b, point in enumerate(points):
            assert np.array_equal(got[..., b], beamform.expand_array(point, bank).values), b


class TestParityProducts:
    """Products over the parities the fold keeps against the full product
    over every parity column, then the parity selection
    (oracles.parity_select_products).  Two rotated copies of one ellipse
    share one group when folded and are a group each when not; the worst
    relative difference measured on these cases is 3.4e-16, and exactly 0
    on unfolded rings, which have one parity."""

    @pytest.mark.parametrize("points", [1, 3])
    @pytest.mark.parametrize("mode_half", [6, 7])
    @pytest.mark.parametrize("design", ["robust", "plain"])
    @pytest.mark.parametrize("reduction", ["symmetric", "none"])
    def test_matches_parity_selection(self, reduction, design, mode_half, points):
        specs = [geometry.EllipseSpec(semi_major_m=0.15, eccentricity=0.7, rotation_deg=alpha,
                                      sensors=36) for alpha in (0.0, 37.0)]
        arr = geometry.build_concentric(specs)
        grid = small_grid(samples=3, f_start=4e9, bw=1e9)
        values = np.stack([channel.superpose([channel.IncidentWave(azimuth_deg=az, delay_s=3e-9)],
                                             arr, grid).values
                           for az in (72.5, -10.0, 133.0)[:points]], axis=-1)
        ch = channel.ChannelMatrix(array=arr, grid=grid,
                                   values=values if points > 1 else values[..., 0])
        bank = beamform.build_bank(arr, grid, design=design, mode_half=mode_half,
                                   reduction=reduction)
        if bank.folded:  # representatives 0..P/4 of the shape at rotation 0
            groups, r = [[0, 1]], np.arange(36 // 4 + 1)
            xy = geometry.build_ellipse(specs[0])[r]
            thetas = [np.arctan2(xy[:, 1], xy[:, 0])]
        else:
            groups, r = [[0], [1]], np.arange(36)
            thetas = [arr.ring_azimuths(0), arr.ring_azimuths(1)]
        angle_of = [np.outer(np.arange(mode_half + 1), theta) for theta in thetas]
        for rings, angle in zip(groups, angle_of):
            terms = beamform._ShapeTerms(ch, bank, rings)
            sums, diffs = terms.fold(0, grid.samples)
            assert sums.shape == (grid.samples, len(rings) * points, r.size, 2 if bank.folded else 1)
            for k in range(grid.samples):
                w_bank = oracles.bank_weights_at(bank, k)
                # the products take the kernel's W j^m, their phase tables j^-m
                got = terms.products(
                    w_bank * oracles.j_power(np.arange(mode_half + 1))[:, None], sums[k],
                    diffs[k], np.empty((2, mode_half + 1, len(rings) * points), dtype=complex))
                want = oracles.parity_select_products(
                    w_bank[:, bank.ring_columns[rings[0]]], np.cos(angle), np.sin(angle),
                    sums[k], diffs[k])
                for fast, slow in zip(got, want):
                    assert fast.shape == (mode_half + 1, len(rings) * points)
                    assert np.abs(fast - slow).max() <= 1e-13 * np.abs(slow).max(), (rings, k)


class TestFold:
    """_ShapeTerms.fold against the stacked fold (oracles.stacked_fold), bit
    for bit: three rotated copies of one ellipse and a circle."""

    @pytest.mark.parametrize("span", [(0, 7), (2, 5), (4, 5)])
    @pytest.mark.parametrize("points", [1, 3])
    @pytest.mark.parametrize("rings", [[1], [0, 1, 2]])
    def test_matches_stacked_fold(self, rings, points, span):
        specs = TestSharedBank.rotated_copies_and_circle()
        arr = geometry.build_concentric(specs)
        grid = small_grid(samples=7, f_start=4e9, bw=1e9)
        values = np.stack([channel.superpose([channel.IncidentWave(azimuth_deg=az, delay_s=3e-9)],
                                             arr, grid).values
                           for az in (72.5, -10.0, 133.0)[:points]], axis=-1)
        ch = channel.ChannelMatrix(array=arr, grid=grid,
                                   values=values if points > 1 else values[..., 0])
        bank = beamform.build_bank(arr, grid, mode_half=8, reduction="symmetric")
        terms = beamform._ShapeTerms(ch, bank, rings)
        got, want = terms.fold(*span), oracles.stacked_fold(terms, *span)
        for fast, slow in zip(got, want):
            assert fast.shape == (span[1] - span[0], len(rings) * points, 40 // 4 + 1, 2)
            assert np.array_equal(fast, slow)
        # an unfolded ring's sums and diffs are views of its channel rows
        unfolded = beamform._ShapeTerms(ch, beamform.build_bank(arr, grid, mode_half=8), [3])
        for fast, slow in zip(unfolded.fold(*span), oracles.stacked_fold(unfolded, *span)):
            assert np.shares_memory(fast, ch.values)
            assert np.array_equal(fast, slow)


class TestSharedBank:
    """One radius vector for all rings, evaluated in band chunks."""

    @staticmethod
    def rotated_copies_and_circle():
        return [geometry.EllipseSpec(semi_major_m=0.15, eccentricity=0.9,
                                     rotation_deg=alpha, sensors=40)
                for alpha in (0.0, 40.0, 80.0)] + [
                    geometry.EllipseSpec(semi_major_m=0.1, sensors=32)]

    @classmethod
    def interleaved_shapes(cls):
        """The rotated copies with a second ellipse and the circle between them."""
        copies = cls.rotated_copies_and_circle()
        other = geometry.EllipseSpec(semi_major_m=0.12, eccentricity=0.6,
                                     rotation_deg=30.0, sensors=36)
        return [copies[1], other, copies[0], copies[3], copies[2]]

    def setup_case(self, samples=7, batch=False, specs=None):
        arr = geometry.build_concentric(specs or self.rotated_copies_and_circle())
        grid = small_grid(samples=samples, f_start=4e9, bw=1e9)
        waves = [channel.IncidentWave(azimuth_deg=az, delay_s=3e-9) for az in (72.5, -10.0)]
        values = [channel.superpose([w], arr, grid).values for w in waves]
        ch = channel.ChannelMatrix(array=arr, grid=grid,
                                   values=np.stack(values, axis=-1) if batch else values[0])
        return arr, grid, ch, beamform.build_bank(arr, grid, mode_half=8, reduction="symmetric")

    def assert_single_ring_banks(self, specs):
        """The array's expansion equals the mean of one-ring expansions bit
        for bit, and each shape's rotated copies add no bank radii."""
        arr, grid, ch, bank = self.setup_case(specs=specs)
        singles = []
        for ring, spec in enumerate(specs):
            one = geometry.build_concentric([spec])
            one_bank = beamform.build_bank(one, grid, mode_half=8, reduction="symmetric")
            one_ch = channel.ChannelMatrix(array=one, grid=grid, values=ch.ring_rows(ring))
            singles.append(beamform.expand_array(one_ch, one_bank))
        want = beamform.concentric_expand(singles).values
        assert np.array_equal(beamform.expand_array(ch, bank).values, want)
        shapes = {}  # the first ring of each shape
        for spec in specs:
            shapes.setdefault((spec.semi_major_m, spec.eccentricity, spec.sensors), spec)
        first_copies = geometry.build_concentric(list(shapes.values()))
        assert np.array_equal(
            bank.radii, beamform.build_bank(first_copies, grid, reduction="symmetric").radii)
        # the e = 0.9 copies evaluate the P/4 + 1 quadrant radii of their shape at rotation 0
        shape = geometry.build_concentric([geometry.EllipseSpec(
            semi_major_m=0.15, eccentricity=0.9, sensors=40)])
        shape_radii = beamform.build_bank(shape, grid, reduction="symmetric").radii
        assert shape_radii.size == 40 // 4 + 1
        assert np.isin(shape_radii, bank.radii).all()

    def test_rotated_copies_equal_single_ring_banks(self):
        self.assert_single_ring_banks(self.rotated_copies_and_circle())

    def test_interleaved_shapes_equal_single_ring_banks(self):
        self.assert_single_ring_banks(self.interleaved_shapes())

    @pytest.mark.parametrize("points", [1, 2])
    def test_scaled_cea_matches_literal(self, points):
        """A scaled-down fig7-cea (four rotated copies of an e = 0.9 ellipse
        and a circle) with a second ellipse shape among the copies, against
        the mean of literal per-ring expansions at realized azimuths and radii."""
        copy = [geometry.EllipseSpec(semi_major_m=0.15, eccentricity=0.9,
                                     rotation_deg=alpha, sensors=32)
                for alpha in (0.0, 22.5, 45.0, 67.5)]
        other = geometry.EllipseSpec(semi_major_m=0.12, eccentricity=0.6,
                                     rotation_deg=30.0, sensors=24)
        arr = geometry.build_concentric(copy[:2] + [other] + copy[2:] + [
            geometry.EllipseSpec(semi_major_m=0.1, sensors=16)])
        grid = channel.FrequencyGrid(f_start_hz=2e9, bandwidth_hz=0.5e9, samples=8)
        waves = [channel.IncidentWave(azimuth_deg=72.5, delay_s=6e-9),
                 channel.IncidentWave(azimuth_deg=-10.0, delay_s=3e-9)][:points]
        values = np.stack([channel.superpose([w], arr, grid).values for w in waves], axis=-1)
        ch = channel.ChannelMatrix(array=arr, grid=grid,
                                   values=values if points > 1 else values[..., 0])
        bank = beamform.build_bank(arr, grid, mode_half=6, reduction="symmetric")
        modes = beamform.expand_array(ch, bank).values.reshape(13, 8, points)
        literal_modes = np.mean([oracles.brute_phase_mode(
            ch.ring_rows(i).reshape(-1, 8, points), arr.ring_azimuths(i), arr.ring_radii(i),
            grid.frequencies, mode_half=6) for i in range(arr.ring_count)], axis=0)
        for b in range(points):
            fast = spectrum.joint_spectrum(beamform.ModeMatrix(
                values=modes[..., b], mode_half=6, grid=grid), pad_az=1, pad_delay=1).magnitudes
            literal = oracles.brute_joint_spectrum(literal_modes[..., b], 6, 8)
            assert np.abs(fast - literal).max() / literal.max() <= 1e-10, b

    @pytest.mark.parametrize("batch", [False, True])
    def test_band_chunks_do_not_change_bits(self, monkeypatch, batch):
        arr, grid, ch, bank = self.setup_case(batch=batch)
        want = beamform.expand_array(ch, bank).values
        spans = []
        jtable = beamform.FilterBank.jtable
        monkeypatch.setattr(beamform.FilterBank, "jtable",
                            lambda self, k0, k1: spans.append(k1 - k0) or jtable(self, k0, k1))
        # bytes per sample: the table column plus each folded ellipse's sums and
        # diffs and its (even, odd) mode products; the circle's FFT, sums, diffs
        # and products, counted twice
        points = 2 if batch else 1
        per_sample = (8 * (bank.mode_half + 2) * bank.radii.size
                      + sum(64 * points * (spec.sensors // 4 + 1)
                            + 32 * (bank.mode_half + 1) * points
                            if spec.eccentricity else
                            32 * points * (spec.sensors + 4 * (bank.mode_half + 1))
                            for spec in self.rotated_copies_and_circle()))
        for width in (1, 2, 3):
            spans.clear()
            monkeypatch.setattr(beamform, "TABLE_CHUNK_BYTES", width * per_sample)
            got = beamform.expand_array(ch, bank).values
            assert spans == [width] * (7 // width) + [7 % width] * (7 % width > 0)
            assert np.array_equal(got, want), width

    def test_peak_memory_stays_within_budget(self, monkeypatch):
        arr = geometry.build_concentric(self.interleaved_shapes())
        grid = small_grid(samples=128)
        ch = channel.superpose([channel.IncidentWave(azimuth_deg=30.0, delay_s=2e-9)], arr, grid)
        bank = beamform.build_bank(arr, grid, mode_half=40, reduction="symmetric")
        budget = 64 << 10
        assert 8 * (bank.mode_half + 2) * grid.samples * bank.radii.size > 8 * budget

        def peak_at(chunk_bytes):
            monkeypatch.setattr(beamform, "TABLE_CHUNK_BYTES", chunk_bytes)
            tracemalloc.start()
            try:
                beamform.expand_array(ch, bank)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # one-sample chunks hold what does not scale with the band: the
        # output, each ring's cos/sin(m theta) tables, one sample's weights
        fixed = peak_at(1)
        # a chunk holds its table and folded data, plus the recurrence's
        # per-lane vectors and one ring's fold temporaries while they are built
        assert peak_at(budget) - fixed <= 1.5 * budget
