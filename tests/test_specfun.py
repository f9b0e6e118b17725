import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from elliptic_doa import specfun
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
            assert tab[m, i] == pytest.approx(specfun.bessel_j(m, float(x)),
                                              rel=1e-13, abs=1e-300)
    # uncompensated mode keeps envelope-relative accuracy
    fast = specfun.bessel_j_table(60, xs, compensated=False)
    env = np.abs(tab).max(axis=0)
    assert np.all(np.abs(fast - tab) <= 1e-12 * env + 1e-300)


def test_plain_table_builds_in_one_table_sized_buffer():
    # the recurrence fills the returned array and normalizes it in place
    x = np.linspace(1.0, 300.0, 2000)
    tracemalloc.start()
    try:
        tab = specfun.bessel_j_table(200, x, compensated=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * tab.nbytes


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
