import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from elliptic_doa import channel, geometry, pipeline
from elliptic_doa.errors import (
    ChannelDimensionError,
    ConfigError,
    DomainError,
    NonFiniteDataError,
    NonUniformGridError,
)
from elliptic_doa.presets import get_preset

import oracles


def make_array(a=0.5, ecc=0.0, sensors=32, **kw):
    return geometry.build_concentric(
        [geometry.EllipseSpec(semi_major_m=a, eccentricity=ecc, sensors=sensors, **kw)])


GRID = channel.FrequencyGrid(f_start_hz=28e9, bandwidth_hz=2e9, samples=40)


def test_grid_sampling_conventions():
    g = channel.FrequencyGrid(f_start_hz=58e9, bandwidth_hz=4e9, samples=200)
    assert g.step_hz == pytest.approx(20e6, rel=1e-15)
    assert g.frequencies[0] == 58e9
    assert g.frequencies[-1] == pytest.approx(62e9 - 20e6, rel=1e-15)
    with pytest.raises(DomainError):
        channel.FrequencyGrid(f_start_hz=-1.0, bandwidth_hz=1.0, samples=4)
    with pytest.raises(DomainError):
        channel.FrequencyGrid(f_start_hz=1e9, bandwidth_hz=1e9, samples=1)


def test_wave_validation():
    with pytest.raises(DomainError):
        channel.IncidentWave(azimuth_deg=0.0, delay_s=-1e-9)
    with pytest.raises(DomainError):
        channel.IncidentWave(azimuth_deg=0.0, delay_s=0.0, amplitude=0.0)
    with pytest.raises(DomainError):
        channel.IncidentWave(azimuth_deg=0.0, delay_s=0.0, distance_m=-2.0)


def test_center_response():
    ones = channel.wave_response_center(
        channel.IncidentWave(azimuth_deg=10.0, delay_s=0.0), GRID)
    assert np.array_equal(ones, np.ones(GRID.samples, dtype=complex))
    double = channel.wave_response_center(
        channel.IncidentWave(azimuth_deg=10.0, delay_s=0.0, amplitude=2.0), GRID)
    assert np.array_equal(double, 2.0 * np.ones(GRID.samples))
    # positive-exponent convention, verified by direct scalar evaluation
    tau = 30e-9
    resp = channel.wave_response_center(
        channel.IncidentWave(azimuth_deg=0.0, delay_s=tau), GRID)
    for k in (0, 17, GRID.samples - 1):
        f = GRID.frequencies[k]
        assert resp[k] == pytest.approx(cmath.exp(2j * math.pi * f * tau), rel=1e-12)


def test_planewave_against_literal_formula():
    arr = make_array(ecc=0.7, sensors=16)
    wave = channel.IncidentWave(azimuth_deg=25.0, delay_s=5e-9, elevation_deg=70.0)
    ch = channel.superpose([wave], arr, GRID, model="planewave")
    xy = arr.ring_xy(0)
    for p in (0, 3, 11):
        for k in (0, 20, 39):
            want = oracles.brute_planewave_entry(
                1.0, 5e-9, 25.0, 70.0, xy[p, 0], xy[p, 1],
                float(GRID.frequencies[k]))
            assert ch.values[p, k] == pytest.approx(want, rel=1e-12)


def test_planewave_special_angles():
    arr = make_array(sensors=8)
    h0 = channel.wave_response_center(
        channel.IncidentWave(azimuth_deg=0.0, delay_s=3e-9), GRID)
    # phi_l - phi_p = 90 deg: the cosine zeroes the geometric phase
    wave = channel.IncidentWave(azimuth_deg=90.0, delay_s=3e-9)
    ch = channel.superpose([wave], arr, GRID, model="planewave")
    assert np.allclose(ch.values[0], h0, rtol=1e-12)
    # theta = 0: broadside null of sin(theta) for every sensor
    wave = channel.IncidentWave(azimuth_deg=33.0, delay_s=3e-9, elevation_deg=0.0)
    ch = channel.superpose([wave], arr, GRID, model="planewave")
    assert np.allclose(ch.values, np.tile(h0, (8, 1)), rtol=1e-12)


def test_planewave_magnitude_is_amplitude():
    arr = make_array(ecc=0.9, sensors=12)
    wave = channel.IncidentWave(azimuth_deg=100.0, delay_s=1e-9, amplitude=1.7)
    ch = channel.superpose([wave], arr, GRID, model="planewave")
    assert np.allclose(np.abs(ch.values), 1.7, rtol=1e-12)


def test_spherical_center_sensor_and_path_loss():
    arr = geometry.SensorArray(rings=[(None, np.array([[0.0, 0.0], [0.3, -0.1]]))])
    wave = channel.IncidentWave(azimuth_deg=12.0, delay_s=4e-9, distance_m=2.5)
    ch = channel.superpose([wave], arr, GRID, model="spherical")
    h0 = channel.wave_response_center(wave, GRID)
    assert np.allclose(ch.values[0], h0, rtol=1e-14)  # d_p == d at the center
    xy = arr.ring_xy(0)
    for k in (0, 39):
        want = oracles.brute_spherical_entry(
            1.0, 4e-9, 12.0, 90.0, 2.5, xy[1, 0], xy[1, 1],
            float(GRID.frequencies[k]))
        assert ch.values[1, k] == pytest.approx(want, rel=1e-12)
    # |H| carries the free-space ratio d / d_p
    r = arr.ring_radii(0)[1]
    phi_p = arr.ring_azimuths(0)[1]
    d_p = math.sqrt(2.5**2 + r**2 - 2 * 2.5 * r * math.cos(math.radians(12.0) - phi_p))
    assert np.allclose(np.abs(ch.values[1]), 2.5 / d_p, rtol=1e-12)


def test_spherical_guards():
    arr = make_array(sensors=8)
    with pytest.raises(DomainError):
        channel.superpose([channel.IncidentWave(azimuth_deg=0.0, delay_s=0.0)], arr, GRID,
                          model="spherical")
    with pytest.raises(DomainError):
        channel.superpose([channel.IncidentWave(azimuth_deg=0.0, delay_s=0.0, distance_m=0.4)],
                          arr, GRID, model="spherical")


def test_spherical_converges_to_planewave():
    arr = make_array(a=0.05, sensors=16)
    worst = []
    for ratio in (10.0, 100.0, 1000.0):
        wave = channel.IncidentWave(azimuth_deg=40.0, delay_s=2e-9,
                                    distance_m=0.05 * ratio)
        sph = channel.superpose([wave], arr, GRID, model="spherical")
        pw = channel.superpose([wave], arr, GRID, model="planewave")
        dphi = np.abs(np.angle(sph.values / pw.values))
        worst.append(float(dphi.max()))
    assert worst[0] > worst[1] > worst[2]
    # low-band case computed with the oracle: 0.01 rad needs pi f a^2 / (c d) small
    low = channel.FrequencyGrid(f_start_hz=0.5e9, bandwidth_hz=0.5e9, samples=16)
    wave = channel.IncidentWave(azimuth_deg=40.0, delay_s=2e-9, distance_m=5.0)
    sph = channel.superpose([wave], arr, low, model="spherical")
    pw = channel.superpose([wave], arr, low, model="planewave")
    assert np.abs(np.angle(sph.values / pw.values)).max() < 0.01


def test_superpose_linearity():
    arr = make_array(sensors=12)
    for model, extra in (("planewave", {}), ("spherical", {"distance_m": 3.0})):
        w1 = channel.IncidentWave(azimuth_deg=330.0, delay_s=4e-9, **extra)
        w2 = channel.IncidentWave(azimuth_deg=300.0, delay_s=8e-9, **extra)
        both = channel.superpose([w1, w2], arr, GRID, model=model).values
        s1 = channel.superpose([w1], arr, GRID, model=model).values
        s2 = channel.superpose([w2], arr, GRID, model=model).values
        # bit for bit, signed zeros included
        assert (both.view(np.uint64) == (s1 + s2).view(np.uint64)).all()
    with pytest.raises(ConfigError):
        channel.superpose([], arr, GRID)
    with pytest.raises(ConfigError):
        channel.superpose([w1], arr, GRID, model="warp")


@pytest.mark.parametrize("model", channel.MODELS)
def test_superpose_matches_brute_force_on_two_rings(model):
    arr = geometry.build_concentric([
        geometry.EllipseSpec(semi_major_m=0.5, eccentricity=0.8, sensors=12),
        geometry.EllipseSpec(semi_major_m=0.3, eccentricity=0.0, sensors=7, rotation_deg=20.0),
    ])
    waves = [channel.IncidentWave(azimuth_deg=25.0, delay_s=5e-9, elevation_deg=70.0,
                                  amplitude=1.3, distance_m=2.5),
             channel.IncidentWave(azimuth_deg=250.0, delay_s=9e-9, amplitude=0.6,
                                  distance_m=4.0)]
    ch = channel.superpose(waves, arr, GRID, model=model)
    xy = np.concatenate([arr.ring_xy(0), arr.ring_xy(1)])
    assert ch.values.shape == (19, GRID.samples)
    for p, (x, y) in enumerate(xy):
        for k, f in enumerate(GRID.frequencies):
            parts = [oracles.brute_planewave_entry(w.amplitude, w.delay_s, w.azimuth_deg,
                                                   w.elevation_deg, x, y, float(f))
                     if model == "planewave" else
                     oracles.brute_spherical_entry(w.amplitude, w.delay_s, w.azimuth_deg,
                                                   w.elevation_deg, w.distance_m, x, y, float(f))
                     for w in waves]
            # relative to the terms: their sum may cancel
            assert abs(ch.values[p, k] - sum(parts)) <= 1e-12 * sum(map(abs, parts))


@pytest.mark.parametrize("model", channel.MODELS)
@pytest.mark.parametrize("waves", [1, 2])
@pytest.mark.parametrize("samples", [2, 15, 16, 17, 100, 200])
def test_superpose_matches_longdouble_reference(model, waves, samples):
    # K = 2 and 15 fill no block of 16 samples (a tail only), 16 and 200
    # leave no tail, and 72 sensors span two of the 64-sensor slices a later
    # wave adds through; the bound is below the error that one exp per entry
    # reached on these same cases (2.687e-12 of max |H|)
    arr = geometry.build_concentric([
        geometry.EllipseSpec(semi_major_m=0.5, eccentricity=0.8, sensors=72, rotation_deg=30.0),
        geometry.EllipseSpec(semi_major_m=0.3, eccentricity=0.0, sensors=20),
    ])
    scene = [channel.IncidentWave(azimuth_deg=25.0, delay_s=31e-9, elevation_deg=70.0,
                                  amplitude=1.3, distance_m=2.5),
             channel.IncidentWave(azimuth_deg=250.0, delay_s=47e-9, amplitude=0.6,
                                  distance_m=14.0)][:waves]
    grid = channel.FrequencyGrid(f_start_hz=58e9, bandwidth_hz=4e9, samples=samples)
    ch = channel.superpose(scene, arr, grid, model=model)
    ref = oracles.longdouble_channel(scene, arr, grid, model)
    assert np.abs(ch.values - ref).max() <= 2.65e-12 * np.abs(ref).max()


def test_superpose_allocates_no_per_wave_array():
    scenario = pipeline.resolve(get_preset("fig7-cea"))  # nine rings, 6480 sensors
    scene = scenario.scene + [channel.IncidentWave(azimuth_deg=200.0, delay_s=35e-9)]
    tracemalloc.start()
    try:
        ch = channel.superpose(scene, scenario.array, scenario.grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * ch.values.nbytes


def test_superpose_spherical_model():
    arr = make_array(a=0.242, ecc=0.95, sensors=16)
    wave = channel.IncidentWave(azimuth_deg=270.0, delay_s=6.5e-9, distance_m=1.95)
    ch = channel.superpose([wave], arr, GRID, model="spherical")
    # wavefront curvature: per-sensor phase at one frequency is not affine in p
    ph = np.unwrap(np.angle(ch.values[:, 0]))
    second_diff = np.diff(ph, 2)
    assert np.abs(second_diff).max() > 1e-3


def test_awgn_flag_seed_and_level():
    arr = make_array(sensors=720)
    grid = channel.FrequencyGrid(f_start_hz=28e9, bandwidth_hz=2e9, samples=150)
    wave = channel.IncidentWave(azimuth_deg=90.0, delay_s=30e-9)
    ch = channel.superpose([wave], arr, grid)
    clean = channel.add_awgn(ch, None)
    assert np.array_equal(clean.values, ch.values)
    inf_snr = channel.add_awgn(ch, math.inf)
    assert np.array_equal(inf_snr.values, ch.values)

    a = channel.add_awgn(ch, 0.0, seed=11)
    b = channel.add_awgn(ch, 0.0, seed=11)
    c = channel.add_awgn(ch, 0.0, seed=12)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)

    noise = a.values - ch.values
    sig_p = np.mean(np.abs(ch.values) ** 2)
    noise_p = np.mean(np.abs(noise) ** 2)
    snr_db = 10 * math.log10(sig_p / noise_p)
    assert abs(snr_db) <= 0.5  # K*P = 108000 entries


def test_channel_csv_roundtrip_and_inference(tmp_path):
    arr = make_array(a=0.242, ecc=0.7, sensors=10)
    grid = channel.FrequencyGrid(f_start_hz=58e9, bandwidth_hz=4e9, samples=200)
    wave = channel.IncidentWave(azimuth_deg=330.0, delay_s=4e-9)
    ch = channel.superpose([wave], arr, grid)
    path = tmp_path / "chan.csv"
    channel.export_channel(ch, path)
    back = channel.ingest_channel(path, arr)
    assert np.array_equal(back.values, ch.values)  # bit-identical
    assert back.grid.samples == 200
    assert back.grid.bandwidth_hz == pytest.approx(4e9, rel=1e-9)
    assert back.grid.step_hz == pytest.approx(20e6, rel=1e-9)


def test_export_matches_per_cell_writer(tmp_path):
    arr = make_array(a=0.242, ecc=0.7, sensors=10)
    grid = channel.FrequencyGrid(f_start_hz=58e9, bandwidth_hz=4e9, samples=50)
    ch = channel.add_awgn(channel.superpose(
        [channel.IncidentWave(azimuth_deg=330.0, delay_s=4e-9)], arr, grid), 10.0, seed=4)
    ch.values[2, :4] = [0.0, -0.0, complex(-0.0, 1.0), complex(1e-300, -0.0)]
    channel.export_channel(ch, tmp_path / "fast.csv")
    oracles.export_channel_cells(ch, tmp_path / "cells.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()


def test_ingest_errors(tmp_path):
    arr = make_array(sensors=4)
    grid = channel.FrequencyGrid(f_start_hz=1e9, bandwidth_hz=1e9, samples=3)
    wave = channel.IncidentWave(azimuth_deg=0.0, delay_s=0.0)
    ch = channel.superpose([wave], arr, grid)
    good = tmp_path / "good.csv"
    channel.export_channel(ch, good)
    lines = good.read_text().splitlines()

    missing = tmp_path / "missing.csv"  # drop one full sensor
    missing.write_text("\n".join(l for l in lines if not l.startswith("3,")) + "\n")
    with pytest.raises(ChannelDimensionError):
        channel.ingest_channel(missing, arr)

    short = tmp_path / "short.csv"  # drop a single row
    short.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ChannelDimensionError):
        channel.ingest_channel(short, arr)

    warped = tmp_path / "warped.csv"  # shift the middle sample on every sensor
    mid = f"{float(grid.frequencies[1]):.17g}"
    out = []
    for l in lines:
        parts = l.split(",")
        if len(parts) == 4 and parts[1] == mid:
            parts[1] = f"{float(grid.frequencies[1]) * 1.05:.17g}"
            l = ",".join(parts)
        out.append(l)
    warped.write_text("\n".join(out) + "\n")
    with pytest.raises(NonUniformGridError, match="not uniform within 1e-6 relative"):
        channel.ingest_channel(warped, arr)

    falling = tmp_path / "falling.csv"  # each sensor's rows from high to low frequency
    falling.write_text("\n".join([lines[0], *(row for p in range(4) for row in reversed(
        [l for l in lines[1:] if l.startswith(f"{p},")]))]) + "\n")
    with pytest.raises(NonUniformGridError, match="frequencies must rise along each sensor's rows"):
        channel.ingest_channel(falling, arr)

    nanfile = tmp_path / "nan.csv"
    out = list(lines)
    out[1] = out[1].rsplit(",", 1)[0] + ",nan"
    nanfile.write_text("\n".join(out) + "\n")
    with pytest.raises(NonFiniteDataError):
        channel.ingest_channel(nanfile, arr)

    garbled = tmp_path / "garbled.csv"
    garbled.write_text("p,f_hz,re,im\n0,notafloat,1,2\n")
    with pytest.raises(ConfigError):
        channel.ingest_channel(garbled, arr)


def test_ingest_rejects_duplicate_rows(tmp_path):
    arr = make_array(sensors=4)
    grid = channel.FrequencyGrid(f_start_hz=1e9, bandwidth_hz=1e9, samples=3)
    ch = channel.superpose([channel.IncidentWave(azimuth_deg=0.0, delay_s=0.0)], arr, grid)
    good = tmp_path / "good.csv"
    channel.export_channel(ch, good)
    lines = good.read_text().splitlines()
    f1, f0 = (f"{f:.17g}" for f in grid.frequencies[1::-1])

    once = tmp_path / "once.csv"  # sensor 2 lists its second sample twice, apart
    once.write_text("\n".join(lines + [lines[1 + 2 * 3 + 1]]) + "\n")
    with pytest.raises(ChannelDimensionError, match=f"sensor 2 has two rows at f_hz = {f1}$"):
        channel.ingest_channel(once, arr)

    everywhere = tmp_path / "everywhere.csv"  # every sensor repeats its first sample
    everywhere.write_text("\n".join(lines + [l for l in lines if l.split(",")[1:2] == [f0]])
                          + "\n")
    with pytest.raises(ChannelDimensionError, match=f"sensor 0 has two rows at f_hz = {f0}$"):
        channel.ingest_channel(everywhere, arr)


@pytest.mark.parametrize("kind", ["geometry", "channel"])
@pytest.mark.parametrize("edit,message", [
    (lambda ls: ls[:2] + ["1.5," + ls[2].split(",", 1)[1]] + ls[3:],
     "line 3: could not convert string '1.5' to int64"),
    (lambda ls: ls[:2] + ["1e3," + ls[2].split(",", 1)[1]] + ls[3:],
     "line 3: could not convert string '1e3' to int64"),
    (lambda ls: ls[:1] + ["# a comment"] + ls[1:], "line 2: the dtype passed requires 4 columns but 1 were found"),
    (lambda ls: ls[:2] + ["", " \t"] + ls[2:3] + [ls[3].rsplit(",", 1)[0]] + ls[4:],
     "line 6: the dtype passed requires 4 columns but 3 were found"),
    (lambda ls: ls[:1] + [""] + ls[1:3] + ["x," + ls[3].split(",", 1)[1]] + ls[4:],
     "line 5: could not convert string 'x' to int64"),
], ids=["index-decimal", "index-exponent", "comment-line", "short-line-after-blanks",
        "bad-index-after-blank"])
def test_ingest_parse_errors_name_the_line(tmp_path, kind, edit, message):
    arr = make_array(sensors=4)
    grid = channel.FrequencyGrid(f_start_hz=1e9, bandwidth_hz=1e9, samples=3)
    path = tmp_path / f"{kind}.csv"
    if kind == "geometry":
        arr.to_csv(path)
    else:
        channel.export_channel(channel.superpose(
            [channel.IncidentWave(azimuth_deg=0.0, delay_s=0.0)], arr, grid), path)
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(ConfigError, match=f"^{message}$"):
        if kind == "geometry":
            geometry.SensorArray.from_csv(path)
        else:
            channel.ingest_channel(path, arr)


def test_ingest_skips_blank_lines(tmp_path):
    arr = make_array(sensors=4)
    grid = channel.FrequencyGrid(f_start_hz=1e9, bandwidth_hz=1e9, samples=3)
    ch = channel.superpose([channel.IncidentWave(azimuth_deg=30.0, delay_s=1e-9)], arr, grid)
    path = tmp_path / "chan.csv"
    channel.export_channel(ch, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:3] + ["", "   "] + lines[3:] + [" "]) + "\n")
    assert np.array_equal(channel.ingest_channel(path, arr).values, ch.values)


@settings(max_examples=25, deadline=None)
@given(az=st.floats(min_value=-180.0, max_value=360.0),
       tau=st.floats(min_value=0.0, max_value=40e-9),
       amp=st.floats(min_value=0.1, max_value=5.0))
def test_property_scene_negation_cancels(az, tau, amp):
    arr = make_array(sensors=8)
    w = channel.IncidentWave(azimuth_deg=az, delay_s=tau, amplitude=amp)
    ch = channel.superpose([w, w], arr, GRID)
    assert np.array_equal(ch.values, 2.0 * channel.superpose([w], arr, GRID).values)
