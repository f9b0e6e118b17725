"""Acceptance suite: one test per shipped performance criterion.

Each test prints a PASS/FAIL line with the measured numbers (run with -s to
see them) and then asserts.  Scenarios come from the shipped presets so the
CLI reproduces every figure-level claim checked here.
"""

import time

import numpy as np
import pytest

from elliptic_doa import (
    beamform,
    channel,
    geometry,
    pipeline,
    presets,
    spectrum,
)

import oracles


def _report(num, ok, detail):
    print(f"\ncriterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


def _sweep(cfg):
    return pipeline.sweep_rows(cfg)


def _by(rows, key):
    out = {}
    for r in rows:
        out.setdefault(r[key], []).append(r)
    return out


def _valid_half_widths(points):
    """Largest |phi| reachable from 0 through positive-delta samples only."""
    deltas = {p: d for p, d in points}
    pos = sorted(p for p in deltas if p >= 0)
    neg = sorted((-p for p in deltas if p <= 0))
    def walk(seq, sign):
        width = None
        for p in seq:
            if deltas[sign * p] > 0.0:
                width = p
            else:
                break
        return width if width is not None else -1.0
    return walk(neg, -1), walk(pos, +1)


def test_criterion_01_single_wave_reproduction():
    scenario = pipeline.resolve(presets.get_preset("fig3"))
    t0 = time.perf_counter()
    result = pipeline.run_scenario(scenario)
    elapsed = time.perf_counter() - t0
    main = result.report.main
    n_delay_bins = scenario.processing.pad_delay * scenario.grid.bandwidth_hz
    tau_bin = round(main.tau_s * n_delay_bins)
    ok = (main.phi_deg == 90.0
          and tau_bin == round(30e-9 * n_delay_bins)
          and main.tau_s == pytest.approx(30e-9, rel=1e-12)
          and result.report.delta_db > 10.0
          and elapsed < 60.0)
    _report(1, ok, f"peak=({main.phi_deg} deg, {main.tau_s * 1e9:.6g} ns) "
                   f"delta={result.report.delta_db:.2f} dB runtime={elapsed:.2f} s")
    assert main.phi_deg == 90.0
    assert tau_bin == round(30e-9 * n_delay_bins)
    assert result.report.delta_db > 10.0
    assert elapsed < 60.0


def test_criterion_02_eccentricity_azimuth_windows():
    rows = _sweep(presets.get_preset("fig4a"))
    by_e = _by(rows, "array.*.eccentricity")
    curves = {e: [(r["scene.0.azimuth_deg"], r["delta_db"]) for r in v]
              for e, v in by_e.items()}

    flat = [d for _, d in curves[0.0]]
    spread = max(flat) - min(flat)
    all_pos_07 = all(d > 0.0 for _, d in curves[0.7])
    w95 = _valid_half_widths(curves[0.95])
    w99 = _valid_half_widths(curves[0.99])
    ok = (spread <= 3.0 and all_pos_07
          and all(40.0 <= w <= 60.0 for w in w95)
          and all(5.0 <= w <= 25.0 for w in w99))
    _report(2, ok, f"e=0 spread={spread:.2f} dB; e=0.7 all positive={all_pos_07}; "
                   f"e=0.95 window=+-{w95} deg; e=0.99 window=+-{w99} deg")
    assert spread <= 3.0
    assert all_pos_07
    for w in w95:
        assert 40.0 <= w <= 60.0
    for w in w99:
        assert 5.0 <= w <= 25.0


def test_criterion_03_rotation_shift_and_two_ring_union():
    cfg_b = presets.get_preset("fig4b")
    cfg_b["sweep"]["axes"][0]["values"] = [[0.95, 121]]
    rows_b = _sweep(cfg_b)
    phis = [r["scene.0.azimuth_deg"] for r in rows_b]
    pos = [p for p, r in zip(phis, rows_b) if r["delta_db"] > 0.0]
    runs = []
    for p in sorted(pos):
        if runs and p - runs[-1][-1] <= 5.0:
            runs[-1].append(p)
        else:
            runs.append([p])
    containing = [run for run in runs if any(abs(p - 90.0) <= 2.5 for p in run)]
    center = (containing[0][0] + containing[0][-1]) / 2.0 if containing else float("nan")

    cfg_c = presets.get_preset("fig4c")
    cfg_c["sweep"]["axes"][0]["values"] = [[0.95, 183]]
    rows_c = _sweep(cfg_c)
    min_c = min(r["delta_db"] for r in rows_c)

    ok = abs(center - 90.0) <= 5.0 and min_c > 8.0
    _report(3, ok, f"rotated validity window center={center:.1f} deg; "
                   f"two-ring minimum delta={min_c:.2f} dB")
    assert abs(center - 90.0) <= 5.0
    assert min_c > 8.0


def test_criterion_04_elevation_behavior():
    rows = _sweep(presets.get_preset("fig5"))
    by_e = _by(rows, "array.*.eccentricity")
    worst_high = {}
    tau_low = {}
    for e, rs in by_e.items():
        worst_high[e] = min(r["delta_db"] for r in rs
                            if 75.0 <= r["scene.0.elevation_deg"] <= 90.0)
        tau_low[e] = [r["tau_s"] for r in rs if r["scene.0.elevation_deg"] == 30.0][0]
    ok = (all(v > 13.0 for v in worst_high.values())
          and all(30.0e-9 <= t <= 31.0e-9 for t in tau_low.values()))
    _report(4, ok, "; ".join(
        f"e={e}: min delta(75..90)={worst_high[e]:.1f} dB, "
        f"tau(30 deg)={tau_low[e] * 1e9:.2f} ns" for e in sorted(by_e)))
    for e in by_e:
        assert worst_high[e] > 13.0, e
        assert 30.0e-9 <= tau_low[e] <= 31.0e-9, e


def test_criterion_05_layout_comparison():
    deltas = {}
    for name in ("fig7-uca", "fig7-ucca", "fig7-cea"):
        result = pipeline.run_scenario(pipeline.resolve(presets.get_preset(name)))
        deltas[name] = oracles.anchored_report(result).delta_db
    ok = (12.0 <= deltas["fig7-uca"] <= 18.0
          and deltas["fig7-ucca"] >= 22.0 and deltas["fig7-cea"] >= 22.0)
    _report(5, ok, "; ".join(f"{k}: {v:.2f} dB" for k, v in deltas.items()))
    assert 12.0 <= deltas["fig7-uca"] <= 18.0
    assert deltas["fig7-ucca"] >= 22.0
    assert deltas["fig7-cea"] >= 22.0


def test_criterion_06_position_noise_ladder():
    rows = _sweep(presets.get_preset("fig8"))
    by_sigma = _by(rows, "array.*.sigma_wavelengths")
    means = {s: float(np.mean([r["delta_db"] for r in rs]))
             for s, rs in by_sigma.items()}
    paper = {0.5: 23.9, 1.0: 23.5, 2.0: 21.4, 5.0: 18.2}
    seq = [means[s] for s in sorted(means)]
    monotone = all(a >= b for a, b in zip(seq, seq[1:]))
    ok = (monotone
          and all(v >= 15.0 for v in seq)
          and all(abs(means[s] - paper[s]) <= 3.0 for s in paper))
    _report(6, ok, "; ".join(f"sigma={s}: {means[s]:.2f} dB (ref {paper[s]})"
                             for s in sorted(means)) + f"; monotone={monotone}")
    assert monotone
    for s in paper:
        assert means[s] >= 15.0, s
        assert abs(means[s] - paper[s]) <= 3.0, s


def test_criterion_07_bessel_reference_suite():
    rng = np.random.default_rng(20260808)
    m, x = oracles.bessel_reference_suite(rng)
    n = x.size

    from elliptic_doa.specfun import bessel_j, bessel_j_table
    tab = bessel_j_table(300, x)
    values = tab[m, np.arange(n)]

    worst_rel = 0.0
    worst_case = None
    failures = 0
    for i in range(n):
        ref = oracles.ref_bessel_j(int(m[i]), float(x[i]))
        got = float(values[i])
        if abs(ref) > 1e-300:
            rel = abs(got - ref) / abs(ref)
            if rel > worst_rel:
                worst_rel, worst_case = rel, (int(m[i]), float(x[i]))
            if rel > 1e-12:
                failures += 1
        else:
            if abs(got - ref) > 1e-300:
                failures += 1
    # the scalar operation must agree with the batched kernel it fronts
    scalar_sel = rng.integers(0, n, size=64)
    for i in scalar_sel:
        assert bessel_j(int(m[i]), float(x[i])) == pytest.approx(
            float(values[i]), rel=5e-13, abs=1e-300)
    ok = failures == 0
    _report(7, ok, f"{n} pairs, worst rel err {worst_rel:.2e} at {worst_case}, "
                   f"{failures} out of tolerance")
    assert failures == 0


def test_criterion_08_symmetry_reduction_equivalence():
    arr = geometry.build_concentric([geometry.EllipseSpec(
        semi_major_m=0.5, eccentricity=0.7, sensors=720)])
    grid = channel.FrequencyGrid(f_start_hz=28e9, bandwidth_hz=2e9, samples=100)
    full = beamform.build_bank(arr, grid, mode_half=125, reduction="none")
    red = beamform.build_bank(arr, grid, mode_half=125, reduction="auto")
    worst = 0.0
    for k in range(grid.samples):
        a = oracles.bank_weights_at(full, k)[:, oracles.sensor_columns(full, 0)]
        b = oracles.bank_weights_at(red, k)[:, oracles.sensor_columns(red, 0)]
        worst = max(worst, float(np.abs(a - b).max() / np.abs(a).max()))
    ratio = full.unique_eval_count / red.unique_eval_count
    ok = worst <= 1e-12 and ratio >= 7.5
    _report(8, ok, f"max relative weight difference {worst:.2e}; "
                   f"evaluation reduction {ratio:.2f}x "
                   f"({full.unique_eval_count} -> {red.unique_eval_count})")
    assert worst <= 1e-12
    assert ratio >= 7.5


_C9_MODES = 51  # averaged banks tolerate the radius spread only while
# m (a - b) / (a + b) stays moderate; 51 modes keeps the phase mismatch
# bounded through e = 0.7 on this geometry


def _peak_bin(eccentricity, design):
    """Literal peak bin at the method's native resolution (pad_delay = 1).

    The averaged bank drags the delay response by up to (a - b)/(2c), a
    sub-resolution shift that display oversampling would surface; the bin
    the method reports is compared here.
    """
    cfg = presets.get_preset("fig3")
    cfg["array"][0]["eccentricity"] = eccentricity
    cfg["processing"]["design"] = design
    cfg["processing"]["modes"] = _C9_MODES
    cfg["processing"]["pad_delay"] = 1
    result = pipeline.run_scenario(pipeline.resolve(cfg))
    return result.report.main.phi_deg, result.report.main.tau_s


def test_criterion_09_average_filter_validity():
    outcomes = {}
    for e in (0.0, 0.3, 0.5, 0.7):
        outcomes[e] = (_peak_bin(e, "robust"), _peak_bin(e, "average"))
    ok = all(a == b for a, b in outcomes.values())
    _report(9, ok, "; ".join(
        f"e={e}: per-sensor=({a[0]:.5g},{a[1] * 1e9:.5g}ns) "
        f"average=({b[0]:.5g},{b[1] * 1e9:.5g}ns)" for e, (a, b) in outcomes.items()))
    for e, (a, b) in outcomes.items():
        assert a == b, f"peak bin moved under the average design at e={e}"


@pytest.mark.xfail(strict=False,
                   reason="single averaged radius is not expected to hold "
                          "once the ring flattens past e ~ 0.7")
def test_criterion_09b_average_filter_beyond_validity():
    assert _peak_bin(0.95, "robust") == _peak_bin(0.95, "average")


def test_criterion_10_noise_robustness():
    base = pipeline.resolve(presets.get_preset("fig3"))
    clean = pipeline.run_scenario(base)
    m_total = 2 * base.processing.mode_half + 1
    cell_deg = 360.0 / m_total
    bandwidth = base.grid.bandwidth_hz

    def cell(report):
        return (round(report.main.phi_deg / cell_deg) % m_total,
                round(report.main.tau_s * bandwidth))

    ref_cell = cell(clean.report)
    hits = 0
    for seed in range(10):
        cfg = presets.get_preset("fig3")
        cfg["seed"] = seed
        cfg["processing"]["snr_db"] = 10.0
        noisy = pipeline.run_scenario(pipeline.resolve(cfg))
        if cell(noisy.report) == ref_cell:
            hits += 1
    ok = hits >= 9
    _report(10, ok, f"peak cell unchanged in {hits}/10 runs at 10 dB SNR "
                    f"(reference cell {ref_cell})")
    assert hits >= 9


def test_criterion_11_brute_force_equivalence():
    arr = geometry.build_concentric([geometry.EllipseSpec(
        semi_major_m=0.15, eccentricity=0.5, sensors=32)])
    grid = channel.FrequencyGrid(f_start_hz=1e9, bandwidth_hz=0.5e9, samples=16)
    wave = channel.IncidentWave(azimuth_deg=72.5, delay_s=6e-9)
    ch = channel.superpose([wave], arr, grid)
    bank = beamform.build_bank(arr, grid, design="robust", mode_half=7,
                               reduction="auto")
    modes = beamform.expand_array(ch, bank)
    fast = spectrum.joint_spectrum(modes, pad_az=1, pad_delay=1).magnitudes

    literal_modes = oracles.brute_phase_mode(
        ch.values, arr.ring_azimuths(0), arr.ring_radii(0),
        grid.frequencies, mode_half=7)
    literal = oracles.brute_joint_spectrum(literal_modes, 7, 16)
    worst = float(np.abs(fast - literal).max() / literal.max())
    ok = worst <= 1e-10
    _report(11, ok, f"optimized vs literal evaluation: max relative "
                    f"difference {worst:.2e}")
    assert worst <= 1e-10


def test_criterion_12_measured_data_path(tmp_path):
    cfg = presets.get_preset("fig13")
    scenario = pipeline.resolve(cfg)
    ch = channel.superpose(scenario.scene, scenario.array, scenario.grid)
    geo_path = tmp_path / "geometry.csv"
    chan_path = tmp_path / "channel.csv"
    scenario.array.to_csv(geo_path)
    channel.export_channel(ch, chan_path)

    back_array = geometry.SensorArray.from_csv(geo_path)
    back = channel.ingest_channel(chan_path, back_array)
    roundtrip = bool(np.array_equal(back.values, ch.values))

    ingested = pipeline.resolve_ingested(back_array, back.grid,
                                         {"name": "fig13-ingest", "processing": {"modes": 255}})
    result = pipeline.run_channel(ingested, back)
    top2 = {(p.phi_deg, round(p.tau_s * 1e12)) for p in result.report.maxima[:2]}
    want = {(330.0, 4000), (300.0, 8000)}
    ok = roundtrip and top2 == want
    _report(12, ok, f"roundtrip bit-identical={roundtrip}; "
                    f"top-2 peaks={sorted(top2)}")
    assert roundtrip
    assert top2 == want
