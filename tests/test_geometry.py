import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from elliptic_doa import geometry
from elliptic_doa.errors import ConfigError, DomainError, ValidationError

import oracles


def circle(a=0.5, sensors=720, **kw):
    return geometry.EllipseSpec(semi_major_m=a, eccentricity=0.0, sensors=sensors, **kw)


def test_spec_validation():
    with pytest.raises(DomainError):
        geometry.EllipseSpec(semi_major_m=0.0)
    with pytest.raises(DomainError):
        geometry.EllipseSpec(semi_major_m=1.0, eccentricity=1.0)
    with pytest.raises(DomainError):
        geometry.EllipseSpec(semi_major_m=1.0, rotation_deg=360.0)
    with pytest.raises(DomainError):
        geometry.EllipseSpec(semi_major_m=1.0, sensors=3)
    with pytest.raises(DomainError):
        geometry.EllipseSpec(semi_major_m=1.0, sigma_m=-0.1)


def test_semi_minor():
    spec = geometry.EllipseSpec(semi_major_m=0.5, eccentricity=0.7)
    assert spec.semi_minor_m == pytest.approx(0.5 * math.sqrt(1 - 0.49), rel=1e-15)
    assert circle().semi_minor_m == 0.5


def test_quarter_circle_positions():
    xy = geometry.build_ellipse(circle(sensors=4))
    want = [(0.5, 0.0), (0.0, 0.5), (-0.5, 0.0), (0.0, -0.5)]
    assert xy.shape == (4, 2) and xy.dtype == np.float64
    assert np.allclose(xy, want, rtol=0.0, atol=1e-12)


def test_rotated_placement_at_eta_zero():
    # a=1, b=0.5, alpha=90 deg: first sensor lands on (0, a)
    e = math.sqrt(1 - 0.25)
    spec = geometry.EllipseSpec(semi_major_m=1.0, eccentricity=e,
                                rotation_deg=90.0, sensors=4)
    x0, y0 = geometry.build_ellipse(spec)[0]
    assert x0 == pytest.approx(0.0, abs=1e-12)
    assert y0 == pytest.approx(1.0, rel=1e-12)


def test_radial_bounds_on_eccentric_ring():
    spec = geometry.EllipseSpec(semi_major_m=0.5, eccentricity=0.7, sensors=720)
    b = spec.semi_minor_m
    r = np.hypot(*geometry.build_ellipse(spec).T)
    assert b - 1e-12 <= r.min() and r.max() <= 0.5 + 1e-12
    assert r.min() == pytest.approx(b, rel=1e-12)
    assert r.max() == pytest.approx(0.5, rel=1e-12)


def test_polar_descriptors_recomputed():
    spec = geometry.EllipseSpec(semi_major_m=0.3, eccentricity=0.9,
                                rotation_deg=22.5, sensors=16)
    arr = geometry.build_concentric([spec])
    xy = geometry.build_ellipse(spec)
    assert np.array_equal(arr.ring_xy(0), xy)
    assert np.array_equal(arr.ring_radii(0), np.hypot(xy[:, 0], xy[:, 1]))
    assert np.array_equal(arr.ring_azimuths(0), np.arctan2(xy[:, 1], xy[:, 0]))


def test_rotation_is_proper_and_matches_parametrization():
    (r,) = oracles.rotate_sensors(np.array([[1.0, 0.0]]), 90.0)
    assert tuple(r) == (pytest.approx(0.0, abs=1e-12), pytest.approx(1.0))
    (r,) = oracles.rotate_sensors(np.array([[0.0, 1.0]]), 90.0)
    assert tuple(r) == (pytest.approx(-1.0), pytest.approx(0.0, abs=1e-12))

    spec0 = geometry.EllipseSpec(semi_major_m=0.5, eccentricity=0.8, sensors=48)
    spec90 = geometry.EllipseSpec(semi_major_m=0.5, eccentricity=0.8,
                                  rotation_deg=90.0, sensors=48)
    built = geometry.build_ellipse(spec90)
    rotated = oracles.rotate_sensors(geometry.build_ellipse(spec0), 90.0)
    assert np.allclose(built, rotated, rtol=0.0, atol=1e-12)


def test_rotation_identity_and_full_turn():
    xy = geometry.build_ellipse(circle(sensors=8))
    same = oracles.rotate_sensors(xy, 0.0)
    assert np.array_equal(same, xy)  # cos 0 = 1, sin 0 = 0 exactly
    turned = oracles.rotate_sensors(xy, 360.0)
    assert np.allclose(turned, xy, rtol=0.0, atol=1e-12)


def test_mirror_rotate_is_improper():
    (r,) = oracles.mirror_rotate_sensors(np.array([[1.0, 0.0]]), 90.0)
    assert tuple(r) == (pytest.approx(0.0, abs=1e-12), pytest.approx(1.0))
    # alpha = 0 negates y: reflection, not the identity
    up = np.array([[0.3, 0.4]])
    (r,) = oracles.mirror_rotate_sensors(up, 0.0)
    assert tuple(r) == (0.3, -0.4)
    # equivalent to reflect-across-x then rotate
    (ref_then_rot,) = oracles.rotate_sensors(np.array([[0.3, -0.4]]), 33.0)
    (direct,) = oracles.mirror_rotate_sensors(up, 33.0)
    assert direct[0] == pytest.approx(ref_then_rot[0], rel=1e-15)
    assert direct[1] == pytest.approx(ref_then_rot[1], rel=1e-15)


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(min_value=-720.0, max_value=720.0, allow_nan=False),
       ecc=st.floats(min_value=0.0, max_value=0.99),
       mirror=st.booleans())
def test_property_rotations_preserve_radius_multiset(alpha, ecc, mirror):
    spec = geometry.EllipseSpec(semi_major_m=0.4, eccentricity=ecc, sensors=24)
    xy = geometry.build_ellipse(spec)
    op = oracles.mirror_rotate_sensors if mirror else oracles.rotate_sensors
    before = np.sort(np.hypot(*xy.T))
    after = np.sort(np.hypot(*op(xy, alpha).T))
    assert np.allclose(before, after, rtol=1e-12, atol=0.0)


def test_equal_spacing_on_exact_circle():
    arr = geometry.build_concentric([circle(sensors=720)])
    xy = arr.ring_xy(0)
    d = np.hypot(*(xy - np.roll(xy, -1, axis=0)).T)
    assert d.max() - d.min() <= 1e-12 * d.mean()


def test_noise_reproducibility_and_bound():
    spec = geometry.EllipseSpec(semi_major_m=0.345, eccentricity=0.9,
                                sensors=720, sigma_m=0.01, seed=42)
    a = geometry.build_ellipse(spec, ring_index=3)
    b = geometry.build_ellipse(spec, ring_index=3)
    assert np.array_equal(a, b)
    c = geometry.build_ellipse(spec, ring_index=4)
    assert np.any(a[:, 0] != c[:, 0])
    # 6-sigma perimeter bound at this fixed seed
    assert np.hypot(*a.T).max() <= 0.345 + 6 * 0.01


def test_sigma_zero_is_noise_free():
    spec = geometry.EllipseSpec(semi_major_m=0.5, sensors=16, sigma_m=0.0, seed=9)
    other = geometry.EllipseSpec(semi_major_m=0.5, sensors=16, sigma_m=0.0, seed=10)
    assert np.array_equal(geometry.build_ellipse(spec), geometry.build_ellipse(other))


def test_concentric_structure():
    with pytest.raises(ConfigError):
        geometry.build_concentric([])
    single = geometry.build_concentric([circle(sensors=8)])
    assert single.ring_count == 1 and single.total_sensors == 8
    assert np.array_equal(single.ring_xy(0), geometry.build_ellipse(circle(sensors=8)))

    # nine-ring layout: eight rotated eccentric rings plus an outer circle
    specs = [geometry.EllipseSpec(semi_major_m=0.345, eccentricity=0.9,
                                  rotation_deg=22.5 * k, sensors=720)
             for k in range(8)]
    specs.append(circle(a=0.345, sensors=720))
    cea = geometry.build_concentric(specs)
    assert cea.ring_count == 9 and cea.total_sensors == 9 * 720
    assert cea.ring_spec(8) is specs[8]
    # ring i is realized with ring index i: equal noisy specs get their own streams
    noisy = [geometry.EllipseSpec(semi_major_m=0.3, sensors=8, sigma_m=0.01, seed=5)] * 3
    tagged = geometry.build_concentric(noisy)
    for i in range(3):
        assert np.array_equal(tagged.ring_xy(i), geometry.build_ellipse(noisy[i], ring_index=i))
    assert not np.array_equal(tagged.ring_xy(1), tagged.ring_xy(2))
    assert cea.min_radius_m == pytest.approx(0.345 * math.sqrt(1 - 0.81), rel=1e-6)
    assert cea.max_radius_m == pytest.approx(0.345, rel=1e-12)


def test_nyquist_audit_pass_and_fail():
    for ecc in (0.0, 0.5, 0.99):
        arr = geometry.build_concentric(
            [geometry.EllipseSpec(semi_major_m=0.5, eccentricity=ecc, sensors=720)])
        rep = geometry.nyquist_audit(arr, 30e9)
        assert rep.passed
        assert rep.per_ring[0][2] == pytest.approx(0.437, abs=0.002)

    cea = geometry.build_concentric([circle(a=0.345, sensors=720)])
    rep = geometry.nyquist_audit(cea, 43.5e9)
    assert rep.passed
    assert rep.max_spacing_m == pytest.approx(3.0e-3, abs=0.05e-3)
    assert rep.per_ring[0][2] == pytest.approx(0.437, abs=0.002)

    sparse = geometry.build_concentric([circle(sensors=4)])
    assert not geometry.nyquist_audit(sparse, 30e9).passed
    with pytest.raises(DomainError):
        geometry.nyquist_audit(sparse, 0.0)


def test_csv_roundtrip_bit_exact(tmp_path):
    specs = [geometry.EllipseSpec(semi_major_m=0.345, eccentricity=0.9,
                                  rotation_deg=45.0, sensors=12, sigma_m=0.004, seed=7),
             circle(a=0.2, sensors=8)]
    arr = geometry.build_concentric(specs)
    path = tmp_path / "geo.csv"
    arr.to_csv(path)
    back = geometry.SensorArray.from_csv(path)
    assert all(back.ring_spec(ring) is None for ring in range(back.ring_count))
    assert back.ring_count == 2 and back.total_sensors == 20
    for ring in range(2):
        assert np.array_equal(back.ring_xy(ring), arr.ring_xy(ring))


def test_csv_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n1,2\n")
    with pytest.raises(ConfigError):
        geometry.SensorArray.from_csv(bad)
    gap = tmp_path / "gap.csv"
    gap.write_text("ring,p,x_m,y_m\n0,0,1.0,0.0\n0,2,0.0,1.0\n")
    with pytest.raises(ValidationError):
        geometry.SensorArray.from_csv(gap)


def test_csv_rejects_non_finite_coordinates(tmp_path):
    for bad_value in ("nan", "inf", "-inf"):
        bad = tmp_path / f"{bad_value}.csv"
        bad.write_text(f"ring,p,x_m,y_m\n0,0,1.0,0.0\n0,1,{bad_value},1.0\n")
        with pytest.raises(ConfigError, match="line 3: coordinates must be finite"):
            geometry.SensorArray.from_csv(bad)
