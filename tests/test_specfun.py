import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from elliptic_doa import beamform, config, pipeline, presets, specfun
from elliptic_doa.constants import SPEED_OF_LIGHT
from elliptic_doa.errors import DomainError

import oracles

# value frozen from the independent series oracle (oracles.series_bessel_j),
# cross-checked against mpmath.besselj before the main build
J0_AT_1 = 0.7651976865579666
J1_AT_1 = 0.44005058574493355


def test_origin_values():
    assert specfun.bessel_j(0, 0.0) == 1.0
    assert specfun.bessel_j(1, 0.0) == 0.0
    assert specfun.bessel_j(7, 0.0) == 0.0
    assert specfun.bessel_j_prime(0, 0.0) == 0.0
    assert specfun.bessel_j_prime(1, 0.0) == 0.5


def test_negative_order_parity_is_structural():
    for m, x in [(3, 5.0), (4, 5.0), (17, 123.4), (40, 2.5), (251, 300.0)]:
        pos = specfun.bessel_j(m, x)
        neg = specfun.bessel_j(-m, x)
        assert neg == (-pos if m % 2 else pos)  # bit-exact
        posp = specfun.bessel_j_prime(m, x)
        negp = specfun.bessel_j_prime(-m, x)
        assert negp == (-posp if m % 2 else posp)


def test_series_oracle_value_at_one():
    assert oracles.series_bessel_j(0, 1.0) == pytest.approx(J0_AT_1, rel=1e-15)
    assert specfun.bessel_j(0, 1.0) == pytest.approx(J0_AT_1, rel=1e-13)
    assert specfun.bessel_j(1, 1.0) == pytest.approx(J1_AT_1, rel=1e-13)


def test_derivative_identity_is_exact():
    for m, x in [(1, 7.7), (5, 80.1), (30, 10.0), (125, 300.2)]:
        direct = 0.5 * (specfun.bessel_j(m - 1, x) - specfun.bessel_j(m + 1, x))
        assert specfun.bessel_j_prime(m, x) == direct
    for x in [0.3, 2.0, 55.5]:
        assert specfun.bessel_j_prime(0, x) == -specfun.bessel_j(1, x)


@pytest.mark.parametrize("m,x", [
    (0, 1e-9), (0, 0.5), (0, 2.404825557695773), (0, 11.99), (0, 12.01),
    (1, 3.8317059702075125), (2, 30.0), (40, 11.5), (41, 11.5), (41, 0.7),
    (10, 500.0), (125, 293.2), (125, 314.15), (250, 260.0), (300, 50.0),
    (0, 5000.0), (300, 4999.9), (17, 1234.5), (333, 340.0), (600, 10.0),
])
def test_scalar_matches_reference(m, x):
    got = specfun.bessel_j(m, x)
    ref = oracles.ref_bessel_j(m, x)
    if abs(ref) > 1e-300:
        assert got == pytest.approx(ref, rel=1e-13)
    else:
        assert abs(got - ref) <= 1e-300
    gotp = specfun.bessel_j_prime(m, x)
    refp = oracles.ref_bessel_j_prime(m, x)
    if abs(refp) > 1e-300:
        assert gotp == pytest.approx(refp, rel=1e-12)
    else:
        assert abs(gotp - refp) <= 1e-300


def test_relative_accuracy_next_to_a_root():
    # nearest double to the first root of J_0: the value is ~1e-16 yet the
    # compensated kernel still resolves it to full relative precision
    x = 2.404825557695773
    got = specfun.bessel_j(0, x)
    ref = oracles.ref_bessel_j(0, x, dps=60)
    assert abs(ref) < 1e-15
    assert got == pytest.approx(ref, rel=1e-12)


def test_table_agrees_with_scalar_and_reference():
    xs = np.array([0.0, 1e-4, 0.3, 1.0, 5.5, 11.9, 12.1, 100.0, 313.9, 2500.0])
    tab = specfun.bessel_j_table(60, xs)
    for i, x in enumerate(xs):
        for m in (0, 1, 2, 7, 40, 41, 60):
            scalar = specfun.bessel_j(m, float(x))
            if x < 1.0:  # one series kernel: a pair's bits do not depend on m_max
                assert tab[m, i] == scalar
            else:
                assert tab[m, i] == pytest.approx(scalar, rel=1e-13, abs=1e-300)
    # the plain table keeps envelope-relative accuracy, and below x = 25 the
    # same series and Miller lanes bit for bit
    fast = specfun.bessel_j_table(60, xs, compensated=False)
    assert fast[:, xs < 25.0].tobytes() == tab[:, xs < 25.0].tobytes()
    env = np.abs(tab).max(axis=0)
    assert np.all(np.abs(fast - tab) <= 1e-12 * env + 1e-300)


def test_scalar_at_x_from_one_takes_the_miller_kernel(monkeypatch):
    """A single value takes the kernel a compensated table's lane takes at
    its x: for x >= 1, at the small orders too, that is Miller's."""
    xs = np.linspace(1.0, 12.0, 12, endpoint=False)
    tab = specfun.bessel_j_table(40, xs)

    def series(*args):
        raise AssertionError("the series kernel ran")

    monkeypatch.setattr(specfun, "_series_rows", series)
    for i, x in enumerate(xs):
        for m in range(41):
            assert specfun.bessel_j(m, float(x)) == pytest.approx(tab[m, i], rel=1e-13,
                                                                   abs=1e-300)


def test_plain_table_builds_in_one_table_sized_buffer():
    # the recurrences fill the returned array and normalize it in place (the
    # Miller one alone in the second case), and the series fills its lanes
    # (all of them in the third case) by blocks
    for m_max, x in ((200, np.linspace(1.0, 300.0, 2000)),
                     (200, np.linspace(1.0, 24.9, 2000)),
                     (300, np.geomspace(1e-8, 1.0, 2000, endpoint=False))):
        tracemalloc.start()
        try:
            tab = specfun.bessel_j_table(m_max, x, compensated=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * tab.nbytes, m_max


def plain_table_errors(m_max, x):
    """The plain table's largest error against the double-double one, over
    the envelope sqrt(2/(pi x)), and relative on the rows m > x whose
    |J| > 1e-250 (the weights divide by these rows)."""
    ref = specfun.bessel_j_table(m_max, x)
    err = np.abs(specfun.bessel_j_table(m_max, x, compensated=False) - ref)
    past = (np.arange(m_max + 1)[:, None] > x) & (np.abs(ref) > 1e-250)
    return ((err / np.sqrt(2.0 / (np.pi * x))).max(),
            (err[past] / np.abs(ref[past])).max(initial=0.0))


@pytest.mark.parametrize("m_max", [0, 1, 24, 126, 301, 1000])
def test_plain_table_against_double_double(m_max):
    # Miller lanes below x = 25, Hankel and upward recurrence above, and the
    # downward pass wherever x < m_max (every x here at m_max = 1000)
    x = np.geomspace(1.0, 1e4, 300)
    envelope_err, past_err = plain_table_errors(m_max, x)
    assert envelope_err <= 1e-12
    assert past_err <= 1e-12


def bank_arguments(name, **paths):
    """m_max and the (sample, radius) arguments of a preset's bank tables."""
    cfg = presets.get_preset(name)
    cfg.pop("sweep", None)
    for path, value in paths.items():
        config.set_path(cfg, path.replace("__", "."), value)
    scenario = pipeline.resolve(cfg)
    proc = scenario.processing
    bank = beamform.build_bank(scenario.array, scenario.grid, design=proc.design,
                               mode_half=proc.mode_half, reduction="auto")
    x = (2.0 * np.pi / SPEED_OF_LIGHT) * np.outer(scenario.grid.frequencies, bank.radii)
    return bank.mode_half + 1, x


@pytest.mark.parametrize("name,paths", [
    ("fig7-cea", {}),
    ("fig4a", {"array__*__eccentricity": 0.0, "processing__modes": "auto"}),
    ("fig4a", {"array__*__eccentricity": 0.7, "processing__modes": "auto"}),
    ("fig8", {"array__*__sigma_wavelengths": 1.0, "seed": 2}),
], ids=["fig7-cea", "fig4a-e0", "fig4a-e0.7", "fig8-sample"])
def test_plain_table_on_bank_lanes_against_double_double(name, paths):
    m_max, x = bank_arguments(name, **paths)
    if name == "fig8":
        x = x[:1]  # one sample: 6480 unreduced columns
    for rows in np.array_split(x, -(-x.size // 8000)):
        envelope_err, past_err = plain_table_errors(m_max, rows.ravel())
        assert envelope_err <= 1e-12
        assert past_err <= 1e-12


def contiguous_table(monkeypatch, m_max, x):
    """The plain upward table with its downward pass over the one contiguous
    range of lanes that holds every lane with 25 <= x < m_max (oracles)."""
    with monkeypatch.context() as patch:
        patch.setattr(specfun, "_downward_rows", lambda *args: None)
        out = specfun._upward_table(m_max, x)
    low = (x >= specfun._HANKEL_X_CUT) & (x < m_max)
    if low.any():
        first, last = np.flatnonzero(low)[[0, -1]]
        lanes = slice(first, last + 1)
        oracles.contiguous_downward_rows(out[:, lanes], x[lanes], low[lanes])
    return out


@pytest.mark.parametrize("case", ["fig8-samples", "fig4a-e0.7", "criterion-07"])
def test_compacted_downward_pass_equals_contiguous_one(monkeypatch, case):
    """Gathering the lanes the downward pass needs gives the bits the pass
    over their contiguous range gives, on every lane of the table."""
    if case == "fig8-samples":  # one sample per table, as the bank takes them
        m_max, x = bank_arguments("fig8", **{"array__*__sigma_wavelengths": 1.0, "seed": 2})
        tables = [(m_max, x[k]) for k in range(0, x.shape[0], 10)]
    elif case == "fig4a-e0.7":
        m_max, x = bank_arguments("fig4a", **{"array__*__eccentricity": 0.7,
                                              "processing__modes": "auto"})
        tables = [(m_max, rows.ravel()) for rows in np.array_split(x, 4)]
    else:  # criterion 07's arguments at its order, and at half and twice it
        x = oracles.bessel_reference_suite(np.random.default_rng(20260808))[1]
        tables = [(m_max, x) for m_max in (150, 300, 600)]
    for m_max, args in tables:
        assert ((args >= 25.0) & (args < m_max)).any()
        want = contiguous_table(monkeypatch, m_max, args)
        got = specfun._upward_table(m_max, args)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), m_max


@settings(max_examples=60, deadline=None)
@given(m_max=st.integers(min_value=0, max_value=300),
       x=st.lists(st.one_of(st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
                            st.floats(min_value=1.0, max_value=400.0)),
                  min_size=1, max_size=12),
       mask=st.integers(min_value=0, max_value=2**12 - 1),
       compensated=st.booleans())
# x < 1 takes the series; J_300(2) ~ 1e-615, so that lane's recurrence
# passes 2**830 and is rescaled
@example(m_max=300, x=[0.5, 2.0, 150.0, 0.0], mask=0b0110, compensated=False)
@example(m_max=300, x=[0.5, 2.0, 150.0, 0.0], mask=0b1011, compensated=True)
# the plain table's lane classes: x >= 25 recurs upward from Hankel's J_0 and
# J_1, and below x = m_max a downward pass replaces the rows above floor(x),
# over the one range of lanes that holds such x; at x = m_max + 2 and x = m_max
# (and the doubles next to them) no row is left above floor(x) or one is
@example(m_max=40, x=[42.0, math.nextafter(42.0, math.inf), 30.5, 100.0],
         mask=0b1010, compensated=False)
@example(m_max=40, x=[40.0, math.nextafter(40.0, 0.0), 30.5, 100.0],
         mask=0b0101, compensated=False)
@example(m_max=60, x=[25.0, math.nextafter(25.0, 0.0), 100.0, 40.0],
         mask=0b1001, compensated=False)
# the downward pass's range of lanes holds lanes of every other class
@example(m_max=100, x=[30.0, 0.0, 500.0, 2.0, 30.5], mask=0b11010, compensated=False)
# integral x: floor(x) = x, the row where the downward pass meets the upward one
@example(m_max=80, x=[50.0, 33.0, 70.0, 120.0, 2.0], mask=0b10110, compensated=False)
# m_max >> x, as a forced mode count asks: from J_600(25.5) ~ 1e-700 the
# downward rows pass 2**830 and are rescaled
@example(m_max=600, x=[25.5, 60.0, 0.5, 400.0, 150.0], mask=0b10011, compensated=False)
# series lanes at their edges beside Miller and upward lanes: the series drops
# each (order, lane) pair as it converges, and each lane's prefix underflows
# at its own order (at once for 5e-324, whose x/2 is 0)
@example(m_max=300, x=[0.0, 2.0, 5e-324, 1e-300, 150.0, 0.999999], mask=0b101010,
         compensated=False)
@example(m_max=300, x=[0.0, 2.0, 5e-324, 1e-300, 150.0, 0.999999], mask=0b010101,
         compensated=True)
@example(m_max=0, x=[0.0, 2.0, 5e-324, 1e-300, 150.0, 0.999999], mask=0b100110,
         compensated=False)
@example(m_max=0, x=[0.0, 2.0, 5e-324, 1e-300, 150.0, 0.999999], mask=0b011001,
         compensated=True)
def test_property_table_columns_ignore_other_arguments(m_max, x, mask, compensated):
    # filter banks share one table across rings and split it by frequency:
    # each column must depend on its own argument only, bit for bit
    x = np.array(x)
    keep = np.array([bool(mask >> i & 1) for i in range(x.size)])
    full = specfun.bessel_j_table(m_max, x, compensated=compensated)
    part = specfun.bessel_j_table(m_max, x[keep], compensated=compensated)
    assert np.ascontiguousarray(full[:, keep]).tobytes() == part.tobytes()


def test_table_guards():
    with pytest.raises(DomainError):
        specfun.bessel_j_table(5, np.array([1.0, np.nan]))
    with pytest.raises(DomainError):
        specfun.bessel_j_table(5, np.array([-1.0]))
    with pytest.raises(DomainError):
        specfun.bessel_j_table(-1, np.array([1.0]))


def test_scalar_guards():
    with pytest.raises(DomainError):
        specfun.bessel_j(0, float("nan"))
    with pytest.raises(DomainError):
        specfun.bessel_j(0, float("inf"))
    with pytest.raises(DomainError):
        specfun.bessel_j(0, -0.5)
    with pytest.raises(DomainError):
        specfun.bessel_j(10**6 + 1, 1.0)
    with pytest.raises(DomainError):
        specfun.bessel_j(0.5, 1.0)  # non-integer order


def test_wronskian_style_positivity():
    # J_m J'_{m+1} - J_{m+1} J'_m tracks +2/(pi x); positive over the grid
    for m in (0, 1, 3, 10, 25, 50):
        for x in (0.25, 1.0, 2.404825557695773, 10.0, 42.0, 100.0):
            w = (specfun.bessel_j(m, x) * specfun.bessel_j_prime(m + 1, x)
                 - specfun.bessel_j(m + 1, x) * specfun.bessel_j_prime(m, x))
            assert w > 0.0, (m, x, w)


def test_decay_past_turning_point():
    # |J_m(x)| < 1e-15 once m exceeds x + 40 ln 10, sampled for x up to 300
    # (the margin shrinks like (x/2)^(1/3); it no longer covers x ~ 1000+)
    for x in (1.0, 10.0, 100.0, 300.0):
        m = math.ceil(x + 40.0 * math.log(10.0)) + 1
        assert abs(specfun.bessel_j(m, x)) < 1e-15


def test_magnitude_bound_and_underflow():
    assert abs(specfun.bessel_j(0, 3000.0)) <= 1.0
    # deep decay: only the <=1e-300 absolute contract applies down here
    assert specfun.bessel_j(400, 1.0) == 0.0
    assert abs(specfun.bessel_j(250, 10.0)) < 1e-300


def test_bessel_eval_bundle():
    ev = oracles.BesselEval.compute(3, 7.5)
    assert ev.order == 3 and ev.argument == 7.5
    assert ev.value == specfun.bessel_j(3, 7.5)
    assert ev.derivative == specfun.bessel_j_prime(3, 7.5)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(min_value=-200, max_value=200),
       x=st.floats(min_value=0.0, max_value=1500.0, allow_nan=False))
def test_property_parity_and_bound(m, x):
    v = specfun.bessel_j(m, x)
    assert abs(v) <= 1.0 + 1e-12
    mirror = specfun.bessel_j(-m, x)
    assert mirror == (-v if m % 2 else v)


@settings(max_examples=30, deadline=None)
@given(m=st.integers(min_value=0, max_value=100),
       x=st.floats(min_value=1e-3, max_value=500.0, allow_nan=False))
def test_property_derivative_identity(m, x):
    direct = 0.5 * (specfun.bessel_j(m - 1, x) - specfun.bessel_j(m + 1, x))
    assert specfun.bessel_j_prime(m, x) == pytest.approx(direct, rel=1e-10, abs=1e-300)


def test_scipy_cross_check():
    scipy_special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(5)
    for _ in range(120):
        m = int(rng.integers(0, 150))
        x = float(rng.uniform(0.0, 800.0))
        ref = float(scipy_special.jv(m, x))
        got = specfun.bessel_j(m, x)
        if abs(ref) > 1e-8:  # scipy's own accuracy degrades near roots
            assert got == pytest.approx(ref, rel=5e-10)
