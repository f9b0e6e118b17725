import math

import numpy as np
import pytest

from elliptic_doa import beamform, channel, spectrum
from elliptic_doa.errors import DegenerateInputError, DomainError

import oracles

GRID = channel.FrequencyGrid(f_start_hz=28e9, bandwidth_hz=2e9, samples=20)


def ideal_modes(mode_half, grid, phi_deg, tau_s, scale=1.0):
    """Noise-free mode matrix of a single path: scale * e^{jm phi} e^{j2pi f tau}."""
    m = np.arange(-mode_half, mode_half + 1)
    h0 = scale * np.exp(2j * np.pi * grid.frequencies * tau_s)
    values = np.exp(1j * m[:, None] * math.radians(phi_deg)) * h0
    return beamform.ModeMatrix(values=values, mode_half=mode_half, grid=grid)


def test_pad_validation():
    mm = ideal_modes(4, GRID, 0.0, 0.0)
    with pytest.raises(DomainError):
        spectrum.joint_spectrum(mm, pad_az=0)


def test_axes_and_bin_mapping():
    mm = ideal_modes(10, GRID, 0.0, 0.0)
    sp = spectrum.joint_spectrum(mm, pad_az=4, pad_delay=2)
    assert sp.magnitudes.shape == (21 * 4, 20 * 2)
    assert sp.azimuth_of_bin(21) == (21 * 360.0) / 84
    assert sp.delay_of_bin(3) == 3 / (2 * GRID.bandwidth_hz)
    assert sp.azimuth_of_bin(0) == 0.0
    assert sp.delay_bins_s[-1] == pytest.approx((39) / (2 * 2e9), rel=1e-15)


def test_on_grid_exponential_hits_exact_bin():
    mh = 10  # M = 21 azimuth bins; phi on bin 7 = 120 deg; tau on bin 6
    tau = 6 / GRID.bandwidth_hz
    mm = ideal_modes(mh, GRID, 120.0, tau)
    sp = spectrum.joint_spectrum(mm)
    rep = spectrum.find_peaks(sp)
    assert rep.main.phi_deg == (7 * 360.0) / 21
    assert rep.main.tau_s == 6 / GRID.bandwidth_hz
    assert rep.delta_db >= 60.0  # numerically clean input


def test_all_ones_peaks_at_zero():
    mm = beamform.ModeMatrix(values=np.ones((21, 20), dtype=complex),
                             mode_half=10, grid=GRID)
    rep = spectrum.find_peaks(spectrum.joint_spectrum(mm))
    assert rep.main.phi_deg == 0.0
    assert rep.main.tau_s == 0.0


def test_azimuth_shift_theorem():
    mh = 12
    step = 360.0 / 25
    base = spectrum.find_peaks(
        spectrum.joint_spectrum(ideal_modes(mh, GRID, 3 * step, 0.0)))
    shifted = spectrum.find_peaks(
        spectrum.joint_spectrum(ideal_modes(mh, GRID, 4 * step, 0.0)))
    assert shifted.main.phi_deg == pytest.approx(base.main.phi_deg + step, rel=1e-12)


def test_delay_shift_theorem():
    mh = 8
    tau0 = 4 / GRID.bandwidth_hz
    dtau = 1 / GRID.bandwidth_hz
    base = spectrum.find_peaks(spectrum.joint_spectrum(ideal_modes(mh, GRID, 40.0, tau0)))
    moved = spectrum.find_peaks(
        spectrum.joint_spectrum(ideal_modes(mh, GRID, 40.0, tau0 + dtau)))
    assert moved.main.tau_s == pytest.approx(base.main.tau_s + dtau, rel=1e-12)


def test_scaling_leaves_delta_invariant():
    mm = ideal_modes(10, GRID, 77.0, 3.3e-9)
    big = beamform.ModeMatrix(values=7.25 * mm.values, mode_half=10, grid=GRID)
    a = spectrum.find_peaks(spectrum.joint_spectrum(mm))
    b = spectrum.find_peaks(spectrum.joint_spectrum(big))
    assert b.main.magnitude == pytest.approx(7.25 * a.main.magnitude, rel=1e-12)
    assert b.delta_db == a.delta_db  # ratio is exactly scale-free
    assert (b.main.phi_deg, b.main.tau_s) == (a.main.phi_deg, a.main.tau_s)


def test_matches_brute_force_dft():
    rng = np.random.default_rng(3)
    mh, k = 4, 6
    values = rng.normal(size=(9, k)) + 1j * rng.normal(size=(9, k))
    grid = channel.FrequencyGrid(f_start_hz=1e9, bandwidth_hz=0.5e9, samples=k)
    mm = beamform.ModeMatrix(values=values, mode_half=mh, grid=grid)
    got = spectrum.joint_spectrum(mm).magnitudes
    want = oracles.brute_joint_spectrum(values, mh, k)
    assert np.abs(got - want).max() <= 1e-10 * want.max()


def test_find_peaks_with_expected_window():
    mh = 16
    tau = 5 / GRID.bandwidth_hz
    phi = (8 * 360.0) / 33
    strong = ideal_modes(mh, GRID, phi, tau).values
    weak = 0.25 * ideal_modes(mh, GRID, phi + 180.0, tau).values
    mm = beamform.ModeMatrix(values=strong + weak, mode_half=mh, grid=GRID)
    sp = spectrum.joint_spectrum(mm)
    free = spectrum.find_peaks(sp)
    assert free.main.phi_deg == pytest.approx(phi, rel=1e-12)
    # anchoring on the weak ray flips the ratio negative
    anchored = spectrum.find_peaks(sp, expected=(phi + 180.0, tau))
    assert anchored.main.phi_deg == pytest.approx((phi + 180.0) % 360.0, abs=360 / 33)
    assert anchored.delta_db < 0.0
    assert free.delta_db == pytest.approx(-anchored.delta_db, abs=1e-9)


@pytest.mark.parametrize("nudge", [0.0, 1e-13, -1e-13])
def test_half_bin_tie_ignores_rounding(nudge):
    # an arrival exactly between bins 9 and 10 (of 84) leaves them equal up
    # to rounding: the pick must not follow that rounding, and the mirrored
    # arrival must pick the mirrored bin
    tau = 5 / GRID.bandwidth_hz
    for phi, want, other in (((9.5 * 360.0) / 84, 10, 9), (-(9.5 * 360.0) / 84, 74, 75)):
        sp = spectrum.joint_spectrum(ideal_modes(10, GRID, phi, tau), pad_az=4)
        sp.magnitudes[other, 5] *= 1.0 + nudge
        for expected in (None, (phi % 360.0, tau)):
            assert spectrum.find_peaks(sp, expected=expected).main.phi_deg == \
                sp.azimuth_of_bin(want)
        assert sp.peak() == spectrum.find_peaks(sp).main
    # a real difference still wins
    sp.magnitudes[75, 5] *= 1.0 + 1e-6
    assert spectrum.find_peaks(sp).main.phi_deg == sp.azimuth_of_bin(75)


def test_huge_expected_position_reduces_without_overflow():
    # 484 azimuth bins: 1.7e308 / 360 * 484 overflows a double
    tau = 5 / GRID.bandwidth_hz
    sp = spectrum.joint_spectrum(ideal_modes(60, GRID, 40.0, tau), pad_az=4)
    for phi in (1.7e308, -1.7e308):
        assert spectrum.find_peaks(sp, expected=(phi, tau)) == \
            spectrum.find_peaks(sp, expected=(math.fmod(phi, 360.0), tau))
    last = sp.delay_of_bin(sp.magnitudes.shape[1] - 1)
    assert spectrum.find_peaks(sp, expected=(40.0, 1e308)) == \
        spectrum.find_peaks(sp, expected=(40.0, last))


@pytest.mark.parametrize("shape", [(1, 6), (2, 5), (3, 1), (16, 12), (41, 30)])
def test_local_maxima_mask_matches_brute_force(shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    # three levels make exactly equal neighbors common: a tie is no maximum
    for s in (rng.random(shape), rng.integers(0, 3, shape).astype(float)):
        assert np.array_equal(spectrum._local_maxima_mask(s), oracles.brute_local_maxima(s))


def test_local_maxima_mask_edges_and_ties():
    n_az, n_d = 12, 9
    s = 0.1 * np.random.default_rng(7).random((n_az, n_d))
    planted = {
        (0, 4): (3.0, True),           # first azimuth row
        (n_az - 1, 0): (2.0, True),    # last row, first delay column
        (5, n_d - 1): (2.0, True),     # last delay column
        (0, 7): (1.0, False),          # beaten across the azimuth wrap...
        (n_az - 1, 7): (1.5, True),    # ...by the last row
        (8, 4): (2.5, False),          # exactly equal neighbors
        (8, 5): (2.5, False),
    }
    for cell, (value, _) in planted.items():
        s[cell] = value
    mask = spectrum._local_maxima_mask(s)
    assert np.array_equal(mask, oracles.brute_local_maxima(s))
    assert {cell: bool(mask[cell]) for cell in planted} == \
        {cell: is_max for cell, (_, is_max) in planted.items()}


@pytest.mark.parametrize("twin", [0, 1])
@pytest.mark.parametrize("nudge", [1e-13, -1e-13])
def test_ranked_mirror_twins_ignore_rounding(twin, nudge):
    # an arrival at azimuth 0 mirrors the map about bin 0, so its sidelobes
    # come in twins at bins q and n - q: their rank order must not follow
    # rounding (the lower bin first: both sit equally far from azimuth 0)
    sp = spectrum.joint_spectrum(ideal_modes(10, GRID, 0.0, 5 / GRID.bandwidth_hz), pad_az=4)
    want = spectrum.find_peaks(sp).maxima
    n_az = sp.magnitudes.shape[0]
    bins = [round(pk.phi_deg * n_az / 360.0) for pk in want]
    pairs = [(q, n_az - q) for q in bins if 0 < q < n_az - q and n_az - q in bins]
    assert pairs
    q, mirror = pairs[0]
    assert bins.index(q) < bins.index(mirror)
    k = round(want[bins.index(q)].tau_s * sp.pad_delay * GRID.bandwidth_hz)
    sp.magnitudes[(q, mirror)[twin], k] *= 1.0 + nudge
    got = spectrum.find_peaks(sp).maxima
    assert [(pk.phi_deg, pk.tau_s) for pk in got] == [(pk.phi_deg, pk.tau_s) for pk in want]
    assert got == oracles.ranked_maxima(sp)


def test_ranked_maxima_on_a_tied_plateau():
    # 36 isolated maxima within TIE_RTOL of each other on a low random floor:
    # the ranking must pick among all of them, as over all maxima
    rng = np.random.default_rng(11)
    s = 0.1 * rng.random((30, 40))
    for q in range(1, 30, 5):
        for k in range(2, 40, 7):
            s[q, k] = 1.0 + rng.uniform(-2e-11, 2e-11)
    sp = spectrum.JointSpectrum(magnitudes=s, pad_az=1, pad_delay=1, grid=GRID)
    assert np.count_nonzero(s[oracles.brute_local_maxima(s)] > 0.5) == 36
    assert spectrum.find_peaks(sp).maxima == oracles.ranked_maxima(sp)


def test_two_ray_ranked_maxima():
    mh = 40
    tau1, tau2 = 4 / GRID.bandwidth_hz, 8 / GRID.bandwidth_hz
    phi1 = (74 * 360.0) / 81  # on-grid bins
    phi2 = (67 * 360.0) / 81
    v = (ideal_modes(mh, GRID, phi1, tau1).values
         + 0.8 * ideal_modes(mh, GRID, phi2, tau2).values)
    mm = beamform.ModeMatrix(values=v, mode_half=mh, grid=GRID)
    sp = spectrum.joint_spectrum(mm)
    rep = spectrum.find_peaks(sp)
    assert rep.maxima == oracles.ranked_maxima(sp)
    top2 = {(round(p.phi_deg, 6), round(p.tau_s * 1e12, 3)) for p in rep.maxima[:2]}
    assert top2 == {(round(phi1, 6), round(tau1 * 1e12, 3)),
                    (round(phi2, 6), round(tau2 * 1e12, 3))}


def test_zero_spectrum_rejected():
    mm = beamform.ModeMatrix(values=np.zeros((5, 4), dtype=complex), mode_half=2,
                             grid=channel.FrequencyGrid(1e9, 1e9, 4))
    with pytest.raises(DegenerateInputError):
        spectrum.find_peaks(spectrum.joint_spectrum(mm))


def test_padding_changes_delta_slowly():
    # once the map is oversampled (pad >= 2) more padding barely moves the
    # ratio; pad = 1 may sit a few dB high from artifact scalloping, which the
    # pipeline-level stability check covers on the reference scenario
    mm = ideal_modes(30, GRID, 41.3, 7.7e-9)
    deltas = []
    for pad in (2, 4, 8):
        rep = spectrum.find_peaks(spectrum.joint_spectrum(mm, pad_az=pad, pad_delay=pad))
        deltas.append(rep.delta_db)
    assert max(deltas) - min(deltas) <= 0.5


def test_exports(tmp_path):
    mm = ideal_modes(6, GRID, 0.0, 2e-9)
    sp = spectrum.joint_spectrum(mm)
    csv_path = tmp_path / "spec.csv"
    sp.export_csv(csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "phi_deg,tau_s,mag_db"
    assert len(lines) == 1 + 13 * 20
    peak_rows = [l for l in lines[1:] if l.endswith(",0")]
    assert peak_rows  # peak normalized to 0 dB
    # the array-speed writer matches the per-cell one byte for byte, also on
    # a padded two-ray map with cells at the -400 dB floor
    two_ray = spectrum.joint_spectrum(beamform.ModeMatrix(
        values=ideal_modes(6, GRID, 10.0, 2e-9).values + ideal_modes(6, GRID, 200.0, 7e-9).values,
        mode_half=6, grid=GRID), pad_az=3, pad_delay=2)
    two_ray.magnitudes[1, :3] = 0.0
    for sp_case in (sp, two_ray):
        sp_case.export_csv(tmp_path / "fast.csv")
        oracles.export_csv_cells(sp_case, tmp_path / "cells.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()

    pgm_path = tmp_path / "spec.pgm"
    sp.export_pgm(pgm_path)
    blob = pgm_path.read_bytes()
    assert blob.startswith(b"P5\n")
    header, rest = blob.split(b"255\n", 1)
    assert len(rest) == 13 * 20
    assert max(rest) == 255
    # byte-determinism
    sp.export_pgm(tmp_path / "again.pgm")
    assert (tmp_path / "again.pgm").read_bytes() == blob


@pytest.mark.parametrize("pad_delay", [1, 2])
def test_exports_match_reference_writers(tmp_path, pad_delay):
    mm = beamform.ModeMatrix(
        values=ideal_modes(6, GRID, 10.0, 2e-9).values + ideal_modes(6, GRID, 200.0, 7e-9).values,
        mode_half=6, grid=GRID)
    sp = spectrum.joint_spectrum(mm, pad_az=2, pad_delay=pad_delay)
    s = sp.magnitudes
    peak = s.max()
    s[1, :3] = 0.0  # the -400 dB floor
    s[2, :4] = peak * (1.0 - np.array([1e-7, 3e-9, 2e-11, 1e-12]))  # |mag_db| < 1e-4
    sp.export_csv(tmp_path / "bytes.csv")
    oracles.export_csv_text(sp, tmp_path / "text.csv")
    blob = (tmp_path / "bytes.csv").read_bytes()
    assert blob == (tmp_path / "text.csv").read_bytes()
    assert b",-400\n" in blob and b",0\n" in blob and b"e-0" in blob and b"\r" not in blob
    sp.export_pgm(tmp_path / "heatmap.pgm")
    pixels = (tmp_path / "heatmap.pgm").read_bytes().split(b"255\n", 1)[1]
    assert pixels == oracles.pgm_pixels(sp).tobytes()


def test_report_text():
    mm = ideal_modes(6, GRID, 60.0, 2e-9)
    rep = spectrum.find_peaks(spectrum.joint_spectrum(mm))
    text = rep.to_text()
    assert "main:" in text and "delta_db=" in text and "rank 0:" in text
