import argparse
import copy
import csv
import gc
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from elliptic_doa import beamform, channel, cli, config, geometry, pipeline, presets
from elliptic_doa.errors import ConfigError, ValidationError

import oracles


def small_scenario(**proc):
    return {
        "name": "small",
        "seed": 3,
        "array": [{"semi_major_m": 0.15, "eccentricity": 0.5, "sensors": 256}],
        "grid": {"f_start_hz": 28e9, "bandwidth_hz": 2e9, "samples": 24},
        "scene": [{"azimuth_deg": 45.0, "delay_s": 8e-9}],
        "processing": {"modes": 61, "pad_az": 2, **proc},
    }


def sweep_csv_without_runtime(out):
    """The rows of out/sweep.csv, each without its runtime_s column."""
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("runtime_s")
    return [row[:col] + row[col + 1:] for row in rows]


class TestResolve:
    def test_missing_sections(self):
        with pytest.raises(ConfigError):
            pipeline.resolve({"name": "x"})
        cfg = small_scenario()
        del cfg["scene"]
        with pytest.raises(ConfigError):
            pipeline.resolve(cfg)

    def test_auto_modes_and_reduction(self):
        """The bank, not the document, decides the reduction: a clean ellipse folds."""
        cfg = small_scenario()
        cfg["processing"]["modes"] = "auto"
        sc = pipeline.resolve(cfg)
        assert sc.processing.mode_half == sc.mode_limit_value > 60
        assert pipeline.run_scenario(sc).reduction == "symmetric"
        assert sc.config["processing"]["modes"] == 2 * sc.processing.mode_half + 1

    def test_requested_modes_round_up_to_odd(self):
        sc = pipeline.resolve(small_scenario(modes=80))
        assert sc.processing.mode_half == 40
        assert sc.config["processing"]["modes"] == 81

    def test_mode_cap_enforced(self):
        cfg = small_scenario(modes=5001)
        with pytest.raises(ValidationError):
            pipeline.resolve(cfg)
        sc = pipeline.resolve({**cfg, "force_modes": True})
        assert sc.processing.mode_half == 2500

    def test_sigma_in_wavelengths(self):
        cfg = small_scenario()
        cfg["array"][0]["sigma_wavelengths"] = 2.0
        cfg["allow_undersampled"] = True  # perturbed spacing exceeds the strict gate
        sc = pipeline.resolve(cfg)
        lam = 299792458.0 / 29e9
        assert sc.array.ring_spec(0).sigma_m == pytest.approx(2 * lam, rel=1e-12)
        # a perturbed ring cannot share quadrants
        assert pipeline.run_scenario(sc).reduction == "none"
        assert sc.config["array"][0]["sigma_m"] == pytest.approx(2 * lam, rel=1e-12)
        assert "sigma_wavelengths" not in sc.config["array"][0]

    def test_ring_seed_defaults_to_master(self):
        cfg = small_scenario()
        cfg["seed"] = 77
        sc = pipeline.resolve(cfg)
        assert sc.array.ring_spec(0).seed == 77
        cfg["array"][0]["seed"] = 5
        sc = pipeline.resolve(cfg)
        assert sc.array.ring_spec(0).seed == 5

    def test_nyquist_gate(self):
        cfg = small_scenario()
        cfg["array"][0]["sensors"] = 16
        with pytest.raises(ValidationError):
            pipeline.resolve(cfg)
        sc = pipeline.resolve({**cfg, "allow_undersampled": True})
        assert not sc.nyquist.passed

    def test_spherical_needs_distance(self):
        cfg = small_scenario(model="spherical")
        with pytest.raises(ValidationError):
            pipeline.resolve(cfg)
        cfg["scene"][0]["distance_m"] = 10.0
        sc = pipeline.resolve(cfg)
        assert sc.processing.model == "spherical"

    def test_resolved_config_is_stable(self):
        sc = pipeline.resolve(small_scenario())
        text = json.dumps(sc.config, sort_keys=True)
        again = pipeline.resolve(json.loads(text))
        assert json.dumps(again.config, sort_keys=True) == text

    def test_presets_resolve_and_roundtrip(self, tmp_path):
        """A resolved config, bare or embedded in a run manifest or a sweep
        record, resolves again to the same config and records."""
        for name in presets.PRESETS:
            cfg = presets.get_preset(name)
            sc = pipeline.resolve(cfg)
            text = json.dumps(sc.config, sort_keys=True)
            again = pipeline.resolve(json.loads(text))
            assert json.dumps(again.config, sort_keys=True) == text, name
            for kind in ("elliptic-doa-manifest", "elliptic-doa-sweep"):
                path = tmp_path / f"{name}-{kind}.json"
                path.write_text(json.dumps({"kind": kind, "config": sc.config}))
                again = pipeline.resolve(config.load_config(path))
                assert json.dumps(again.config, sort_keys=True) == text, (name, kind)
                assert (again.grid, again.scene, again.processing) == (
                    sc.grid, sc.scene, sc.processing), (name, kind)
                assert [again.array.ring_spec(i) for i in range(again.array.ring_count)] == [
                    sc.array.ring_spec(i) for i in range(sc.array.ring_count)], (name, kind)

    def test_integral_floats_read_as_ints(self):
        cfg = small_scenario(modes=61.0, pad_az=2.0, pad_delay=2.0, exclusion_cells=[5.0, 5.0])
        cfg["seed"] = 3.0
        cfg["array"][0].update(sensors=256.0, seed=3.0)
        cfg["grid"]["samples"] = 24.0
        sc = pipeline.resolve(cfg)
        assert json.dumps(sc.config, sort_keys=True) == json.dumps(
            pipeline.resolve(small_scenario()).config, sort_keys=True)
        assert type(sc.config["seed"]) is int and type(sc.grid.samples) is int

    def test_every_processing_key_off_default_resolves_again(self):
        proc = {"model": "spherical", "design": "average", "modes": 41,
                "mode_threshold": 1e-4, "pad_az": 3, "pad_delay": 3,
                "exclusion_cells": [4, 6], "exclusion_deg": 9, "snr_db": 20.0}
        defaults = {f.name: f.default for f in fields(pipeline.Processing)}
        assert proc.keys() == defaults.keys()
        assert all(value != defaults[key] for key, value in proc.items())
        cfg = small_scenario(**proc)
        cfg["scene"][0]["distance_m"] = 10.0
        sc = pipeline.resolve(cfg)
        assert sc.processing == pipeline.Processing(
            model="spherical", design="average", modes=41, mode_threshold=1e-4,
            pad_az=3, pad_delay=3,
            exclusion_cells=(1, 6), exclusion_deg=9, snr_db=20.0)  # 9 deg is one 8.8-deg cell
        assert sc.processing.mode_half == 20
        section = sc.config["processing"]
        assert section.keys() == defaults.keys()
        assert type(section["exclusion_deg"]) is int  # kept as configured
        for again in (pipeline.resolve(sc.config),
                      pipeline.resolve(json.loads(json.dumps(sc.config)))):
            assert again.processing == sc.processing

    def test_exclusion_deg_past_the_azimuth_axis_resolves_as_360(self, tmp_path):
        # fig3's cells are 0.72 deg wide: the largest double over one overflows
        cfg = presets.get_preset("fig3")
        cells = {}
        for value in (360.0, 1e308, sys.float_info.max):
            cfg["processing"]["exclusion_deg"] = value
            cells[value] = pipeline.resolve(cfg).processing.exclusion_cells
        assert cells[1e308] == cells[sys.float_info.max] == cells[360.0]
        assert cells[360.0][0] == cfg["processing"]["modes"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["run", "--config", str(cfg_path),
                         "--out-dir", str(tmp_path / "o")]) == 0

    def test_ingested_and_built_arrays_resolve_equal_processing(self, tmp_path):
        """Equal processing, but for noise: ingest adds none, so it refuses an snr_db."""
        proc = {"design": "plain", "modes": 41, "pad_delay": 3, "exclusion_deg": 5.0}
        sc = pipeline.resolve(small_scenario(**proc))
        sc.array.to_csv(tmp_path / "geo.csv")
        array = geometry.SensorArray.from_csv(tmp_path / "geo.csv")
        ingested = pipeline.resolve_ingested(array, sc.grid,
                                             {"processing": sc.config["processing"]})
        assert ingested.processing == sc.processing
        assert ingested.mode_limit_value == sc.mode_limit_value
        assert ingested.config["processing"] == sc.config["processing"]
        with pytest.raises(ConfigError, match=r"processing\.snr_db"):
            pipeline.resolve_ingested(array, sc.grid,
                                      {"processing": {**sc.config["processing"], "snr_db": 30.0}})


class TestSetPath:
    def test_paths(self):
        cfg = {"a": [{"x": 1}, {"x": 2}], "b": {"c": 3}}
        config.set_path(cfg, "b.c", 9)
        assert cfg["b"]["c"] == 9
        config.set_path(cfg, "a.1.x", 7)
        assert cfg["a"][1]["x"] == 7
        config.set_path(cfg, "a.*.x", 0)
        assert [r["x"] for r in cfg["a"]] == [0, 0]
        with pytest.raises(ConfigError):
            config.set_path(cfg, "a.5.x", 1)
        with pytest.raises(ConfigError):
            config.set_path(cfg, "b.*", 1)


RUN_STAGES = ("synthesis", "bank", "folds", "tables", "weights", "products", "fft", "peaks")


class TestRun:
    def test_run_and_manifest_replay(self, tmp_path):
        sc = pipeline.resolve(small_scenario())
        result = pipeline.run_scenario(sc)
        out1 = tmp_path / "one"
        pipeline.write_outputs(result, out1)
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["kind"] == "elliptic-doa-manifest"
        assert manifest["resolved"]["modes_total"] == 61  # odd request kept as-is
        assert set(manifest["resolved"]["stages"]) == {"resolve", "mode_limit", *RUN_STAGES,
                                                       "write"}

        replay_cfg = config.load_config(out1 / "manifest.json")
        sc2 = pipeline.resolve(replay_cfg)
        result2 = pipeline.run_scenario(sc2)
        out2 = tmp_path / "two"
        pipeline.write_outputs(result2, out2)
        for fname in ("peaks.txt", "spectrum.csv", "heatmap.pgm"):
            assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes(), fname

    @pytest.mark.parametrize("preset", ["fig3", "fig7-cea"])
    def test_stages_sum_to_runtime(self, preset):
        result = pipeline.run_scenario(pipeline.resolve(presets.get_preset(preset)))
        assert set(result.stages) == set(RUN_STAGES)
        assert sum(result.stages.values()) == pytest.approx(result.runtime_s, rel=0.05)

    def test_awgn_is_seeded_through_config(self):
        cfg = small_scenario(snr_db=5.0)
        a = pipeline.run_scenario(pipeline.resolve(cfg))
        b = pipeline.run_scenario(pipeline.resolve(cfg))
        assert np.array_equal(a.spectrum.magnitudes, b.spectrum.magnitudes)
        cfg["seed"] = 4
        c = pipeline.run_scenario(pipeline.resolve(cfg))
        assert not np.array_equal(a.spectrum.magnitudes, c.spectrum.magnitudes)

    def test_sweep_rows(self):
        cfg = small_scenario()
        cfg["sweep"] = {"axes": [
            {"path": "scene.0.azimuth_deg", "values": [0.0, 45.0]},
            {"path": "array.0.eccentricity", "values": [0.0, 0.5]},
        ]}
        rows = pipeline.sweep_rows(cfg)
        assert len(rows) == 4
        assert rows[0]["scene.0.azimuth_deg"] == 0.0
        assert {"phi_deg", "tau_s", "delta_db", "modes_total"} <= set(rows[0])
        # the anchored peak tracks the injected wave
        for row in rows:
            want = row["scene.0.azimuth_deg"] % 360.0
            assert abs(row["phi_deg"] - want) < 4.0

    def test_path_axis_reads_as_a_one_path_paths_axis(self):
        cfg = small_scenario()
        rows = []
        for axis in ({"path": "scene.0.azimuth_deg", "values": [0.0, 45.0]},
                     {"paths": ["scene.0.azimuth_deg"], "values": [[0.0], [45.0]]}):
            cfg["sweep"] = {"axes": [axis]}
            rows.append([{key: value for key, value in row.items() if key != "runtime_s"}
                         for row in pipeline.sweep_rows(cfg)])
        assert len(rows[0]) == 2
        assert rows[0] == rows[1]

    def test_sweep_batches_equal_single_runs(self, monkeypatch):
        cfg = small_scenario(snr_db=10.0)
        azimuths, eccentricities = [0.0, 45.0, 100.0], [0.0, 0.5]
        cfg["sweep"] = {"axes": [
            {"path": "scene.0.azimuth_deg", "values": azimuths},
            {"path": "array.0.eccentricity", "values": eccentricities},
        ]}
        # two points per batch: each eccentricity's three points span two batches
        monkeypatch.setattr(pipeline, "SWEEP_BATCH_BYTES", 2 * 16 * 256 * 24)
        batches = []
        expand = pipeline.expand_array

        def counting_expand(ch, bank, **kwargs):
            batches.append(ch.values.shape[2])
            return expand(ch, bank, **kwargs)

        monkeypatch.setattr(pipeline, "expand_array", counting_expand)
        rows = pipeline.sweep_rows(cfg)
        monkeypatch.undo()
        assert batches == [2, 1, 2, 1]
        assert len(rows) == 6
        for row, (az, ecc) in zip(rows, itertools.product(azimuths, eccentricities)):
            point = copy.deepcopy(cfg)
            del point["sweep"]
            point["scene"][0]["azimuth_deg"] = az
            point["array"][0]["eccentricity"] = ecc
            sc = pipeline.resolve(point)
            alone = pipeline.run_scenario(sc)
            anchored = oracles.anchored_report(alone)
            assert row.pop("runtime_s") > 0.0
            assert row == {
                "scene.0.azimuth_deg": az, "array.0.eccentricity": ecc,
                "phi_deg": anchored.main.phi_deg, "tau_s": anchored.main.tau_s,
                "delta_db": anchored.delta_db,
                "global_phi_deg": alone.report.main.phi_deg,
                "global_tau_s": alone.report.main.tau_s,
                "modes_total": 2 * sc.processing.mode_half + 1,
            }

    def test_one_peak_pass_per_map(self, monkeypatch):
        expected = []
        find_peaks = pipeline.find_peaks

        def counting_find_peaks(spec, **kwargs):
            expected.append(kwargs.get("expected"))
            return find_peaks(spec, **kwargs)

        monkeypatch.setattr(pipeline, "find_peaks", counting_find_peaks)
        pipeline.run_scenario(pipeline.resolve(small_scenario()))
        assert expected == [None]
        expected.clear()
        cfg = small_scenario()
        cfg["sweep"] = {"axes": [{"path": "scene.0.azimuth_deg", "values": [0.0, 45.0, 100.0]}]}
        assert len(pipeline.sweep_rows(cfg)) == 3
        assert expected == [(0.0, 8e-9), (45.0, 8e-9), (100.0, 8e-9)]

    def test_sweep_resolves_every_point_before_computing(self, monkeypatch):
        cfg = small_scenario()
        cfg["sweep"] = {"axes": [{"path": "processing.modes", "values": [61, 100001]}]}
        monkeypatch.setattr(pipeline, "build_bank", None)  # any compute would raise TypeError
        with pytest.raises(ValidationError, match="stability limit"):
            pipeline.sweep_rows(cfg)

    def test_second_bank_group_adds_no_peak_memory(self):
        """A batch lets go of its channel, spectra and modes, so nothing of
        the first group is alive while the second expands: two groups peak
        within 1.1x the larger group's sweep alone (1.13x when the first
        group's arrays stayed alive)."""
        def sweep(eccentricities):
            cfg = small_scenario(modes=101)
            cfg["grid"]["samples"] = 64
            cfg["sweep"] = {"axes": [
                {"path": "array.0.eccentricity", "values": eccentricities},
                {"path": "scene.0.azimuth_deg", "values": [0.0, 45.0, 100.0, 200.0, 300.0]},
            ]}
            return cfg

        def peak(cfg):
            tracemalloc.start()
            try:
                pipeline.sweep_rows(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        pipeline.sweep_rows(sweep([0.5, 0.7]))  # numpy's and the mode search's one-time setup
        alone = max(peak(sweep([e])) for e in (0.5, 0.7))
        assert peak(sweep([0.5, 0.7])) <= 1.1 * alone

    def test_sweep_requires_axes(self):
        with pytest.raises(ConfigError):
            pipeline.sweep_rows(small_scenario())

    def test_padding_stability_on_reference_scenario(self):
        # once both axes are oversampled, more padding barely moves the
        # artifact ratio; critically sampled grids under-read artifact
        # peaks by up to ~1 dB, which is why pad_delay defaults to 2
        deltas = []
        for pa, pd in ((4, 2), (4, 4), (8, 4), (8, 8)):
            cfg = presets.get_preset("fig3")
            cfg["processing"]["pad_az"] = pa
            cfg["processing"]["pad_delay"] = pd
            res = pipeline.run_scenario(pipeline.resolve(cfg))
            deltas.append(oracles.anchored_report(res).delta_db)
        assert max(deltas) - min(deltas) <= 0.5


class TestCli:
    def test_run_verb(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_scenario()))
        rc = cli.main(["run", "--config", str(cfg_path),
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "peak:" in out
        for fname in ("manifest.json", "peaks.txt", "spectrum.csv", "heatmap.pgm"):
            assert (tmp_path / "out" / fname).exists()

    def test_malformed_config_exits_1_without_outputs(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = cli.main(["run", "--config", str(bad), "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        assert not (tmp_path / "o").exists()
        assert "config error" in capsys.readouterr().err

    def test_validation_exit_2(self, tmp_path, capsys):
        cfg = small_scenario()
        cfg["array"][0]["sensors"] = 16
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = cli.main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert not (tmp_path / "o").exists()
        rc = cli.main(["run", "--config", str(cfg_path), "--allow-undersampled",
                       "--out-dir", str(tmp_path / "o")])
        assert rc == 0

    def test_sweep_verb_with_axis_flag(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_scenario()))
        rc = cli.main(["sweep", "--config", str(cfg_path),
                       "--axis", "scene.0.azimuth_deg=0,30",
                       "--out-dir", str(tmp_path / "sw")])
        assert rc == 0
        lines = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3
        record = json.loads((tmp_path / "sw" / "sweep_config.json").read_text())
        assert set(record["stages"]) == {"resolve", "mode_limit", *RUN_STAGES, "write"}
        assert lines[0].startswith("scene.0.azimuth_deg,")

    def test_sweep_csv_quotes_a_value_with_a_comma(self, tmp_path):
        cfg = small_scenario()
        cfg["sweep"] = {"axes": [{"path": "processing.exclusion_cells",
                                  "values": [[4, 6], [5, 5]]}]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["sweep", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 0
        with open(tmp_path / "sweep.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert len(rows) == 2
        assert all(len(row) == len(header) for row in rows)
        assert rows[0][header.index("processing.exclusion_cells")] == "[4, 6]"

    def test_sweep_record_reruns_to_the_same_rows(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_scenario(snr_db=10.0)))
        flags = ["--axis", "scene.0.azimuth_deg=0,30", "--seed", "5", "--pad-az", "3"]
        assert cli.main(["sweep", "--config", str(cfg_path), *flags,
                         "--out-dir", str(tmp_path / "a")]) == 0
        assert cli.main(["sweep", "--config", str(tmp_path / "a" / "sweep_config.json"),
                         "--out-dir", str(tmp_path / "b")]) == 0
        rows = sweep_csv_without_runtime(tmp_path / "a")
        assert len(rows) == 3
        assert sweep_csv_without_runtime(tmp_path / "b") == rows

    def test_undersampled_sweep_record_reruns_without_the_flag(self, tmp_path):
        """--allow-undersampled is written into the recorded document."""
        cfg = small_scenario()
        cfg["array"][0]["sensors"] = 16  # fails the spatial-sampling gate
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        axis = ["--axis", "scene.0.azimuth_deg=0,30"]
        assert cli.main(["sweep", "--config", str(cfg_path), *axis,
                         "--out-dir", str(tmp_path / "gated")]) == 2
        assert cli.main(["sweep", "--config", str(cfg_path), *axis, "--allow-undersampled",
                         "--out-dir", str(tmp_path / "a")]) == 0
        record = tmp_path / "a" / "sweep_config.json"
        assert json.loads(record.read_text())["config"]["allow_undersampled"] is True
        assert cli.main(["sweep", "--config", str(record), "--out-dir", str(tmp_path / "b")]) == 0
        rows = sweep_csv_without_runtime(tmp_path / "a")
        assert len(rows) == 3
        assert sweep_csv_without_runtime(tmp_path / "b") == rows

    def forced_scenario(self, tmp_path):
        """A 64-sensor, 0.05 m circle whose 101 modes pass its limit (46)."""
        cfg = small_scenario(modes=101)
        cfg["array"][0].update(semi_major_m=0.05, eccentricity=0.0, sensors=64)
        cfg["grid"]["samples"] = 8
        cfg["allow_undersampled"] = True
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_forced_run_manifest_reruns_without_the_flag(self, tmp_path):
        """--force-modes is written into the config the manifest embeds."""
        cfg_path = self.forced_scenario(tmp_path)
        assert cli.main(["run", "--config", str(cfg_path),
                         "--out-dir", str(tmp_path / "gated")]) == 2
        assert cli.main(["run", "--config", str(cfg_path), "--force-modes",
                         "--out-dir", str(tmp_path / "a")]) == 0
        manifest = tmp_path / "a" / "manifest.json"
        assert json.loads(manifest.read_text())["config"]["force_modes"] is True
        assert cli.main(["run", "--config", str(manifest), "--out-dir", str(tmp_path / "b")]) == 0
        spectra = [(tmp_path / run / "spectrum.csv").read_bytes() for run in ("a", "b")]
        assert spectra[0] == spectra[1]

    def test_forced_named_ingest_manifest_reruns_without_the_flags(self, tmp_path):
        """ingest writes --force-modes and --name into the config its manifest
        embeds, whose "force_modes": true opens the gate on the re-run, and
        records the files it read by size and SHA-256."""
        cfg = json.loads(self.forced_scenario(tmp_path).read_text())
        sc = pipeline.resolve({**cfg, "force_modes": True})
        files = {"geometry": tmp_path / "geo.csv", "channel": tmp_path / "chan.csv"}
        sc.array.to_csv(files["geometry"])
        channel.export_channel(channel.superpose(sc.scene, sc.array, sc.grid), files["channel"])
        doc = tmp_path / "ingest.json"
        doc.write_text(json.dumps({"allow_undersampled": True, "processing": {"modes": 101}}))
        ingest = ["ingest", "--geometry", str(files["geometry"]),
                  "--channel", str(files["channel"]), "--config"]
        assert cli.main([*ingest, str(doc), "--out-dir", str(tmp_path / "gated")]) == 2
        assert cli.main([*ingest, str(doc), "--force-modes", "--name", "foo",
                         "--out-dir", str(tmp_path / "a")]) == 0
        manifest = tmp_path / "a" / "manifest.json"
        assert cli.main([*ingest, str(manifest), "--out-dir", str(tmp_path / "b")]) == 0
        for name in ("spectrum.csv", "peaks.txt", "heatmap.pgm"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        records = []
        for run in ("a", "b"):
            record = json.loads((tmp_path / run / "manifest.json").read_text())
            del record["resolved"]["runtime_s"], record["resolved"]["stages"]
            records.append(record)
        assert records[0] == records[1]
        assert records[0]["config"]["name"] == "foo"
        assert records[0]["config"]["force_modes"] is True
        assert records[0]["resolved"]["inputs"] == {
            role: {"bytes": path.stat().st_size,
                   "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
            for role, path in files.items()}
        # a flag overwrites the document's key
        assert cli.main([*ingest, str(manifest), "--name", "bar",
                         "--out-dir", str(tmp_path / "c")]) == 0
        assert json.loads((tmp_path / "c" / "manifest.json").read_text())["config"]["name"] == "bar"

    def test_forced_sweep_record_reruns_without_the_flag(self, tmp_path):
        """sweep --force-modes is written into the recorded document."""
        cfg_path = self.forced_scenario(tmp_path)
        axis = ["--axis", "scene.0.azimuth_deg=0,30"]
        assert cli.main(["sweep", "--config", str(cfg_path), *axis,
                         "--out-dir", str(tmp_path / "gated")]) == 2
        assert cli.main(["sweep", "--config", str(cfg_path), *axis, "--force-modes",
                         "--out-dir", str(tmp_path / "a")]) == 0
        record = tmp_path / "a" / "sweep_config.json"
        assert json.loads(record.read_text())["config"]["force_modes"] is True
        assert cli.main(["sweep", "--config", str(record), "--out-dir", str(tmp_path / "b")]) == 0
        rows = sweep_csv_without_runtime(tmp_path / "a")
        assert len(rows) == 3
        assert sweep_csv_without_runtime(tmp_path / "b") == rows

    def test_sweep_non_string_name_exits_1_before_any_work(self, tmp_path, capsys, monkeypatch):
        """Without --out-dir the name picks the output directory: it is
        checked before the directory is named or any point resolves."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "sweep_rows", None)  # any point's work would raise TypeError
        (tmp_path / "cfg.json").write_text(json.dumps({**small_scenario(), "name": 5}))
        rc = cli.main(["sweep", "--config", "cfg.json", "--axis", "seed=1,2"])
        assert rc == 1
        assert capsys.readouterr().err == "config error: name must be a string, got 5\n"
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("document,argv,named", [
        ([1], ["run", "--config", "cfg.json"], "config root must be an object"),
        ({"kind": "elliptic-doa-manifest"}, ["run", "--config", "cfg.json"],
         "manifest carries no embedded config"),
        (small_scenario(), ["run", "--config", "missing.json"], "cannot read config"),
        (small_scenario(), ["sweep", "--config", "cfg.json", "--axis", "seed"],
         "--axis wants PATH=v1,v2,...: got 'seed'"),
        (small_scenario(), ["run", "--preset", "nope"], "unknown preset 'nope'"),
        (b'\xff\xfe{"name": "x"}', ["run", "--config", "cfg.json"], "config is not UTF-8"),
    ], ids=["root-array", "manifest-without-config", "config-missing", "axis-without-equals",
            "preset-unknown", "config-not-utf-8"])
    def test_unreadable_scenario_exits_1_with_one_line(self, tmp_path, capsys, monkeypatch,
                                                       document, argv, named):
        """A document given as bytes is written as is."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_bytes(
            document if isinstance(document, bytes) else json.dumps(document).encode())
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and named in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "runs").exists()

    def test_audit_verb(self, tmp_path, capsys):
        cfg = small_scenario()
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        geo = tmp_path / "geo.csv"
        rc = cli.main(["audit", "--config", str(cfg_path),
                       "--export-geometry", str(geo)])
        assert rc == 0
        assert "pass" in capsys.readouterr().out
        assert geo.exists()
        cfg["array"][0]["sensors"] = 16
        cfg_path.write_text(json.dumps(cfg))
        rc = cli.main(["audit", "--config", str(cfg_path)])
        assert rc == 2

    def test_audit_reads_no_processing(self, tmp_path, capsys):
        """audit realizes the array and stops: a processing section that
        would fail resolution (10^7 modes: the spectrum-size bound) runs no
        mode search and does not decide its exit code."""
        cfg = presets.get_preset("fig3")
        cfg["processing"]["modes"] = 10**7
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["audit", "--config", str(cfg_path)]) == 0
        assert "pass" in capsys.readouterr().out
        cfg["array"][0]["sensors"] = "x"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["audit", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "array[0].sensors" in err
        assert len(err.splitlines()) == 1

    def test_preset_listing_and_run(self, capsys):
        rc = cli.main(["presets"])
        assert rc == 0
        names = capsys.readouterr().out.split()
        assert "fig3" in names and "fig8" in names

    def test_ingest_verb(self, tmp_path, capsys):
        arr = geometry.build_concentric(
            [geometry.EllipseSpec(semi_major_m=0.15, eccentricity=0.5, sensors=256)])
        grid = channel.FrequencyGrid(f_start_hz=28e9, bandwidth_hz=2e9, samples=24)
        wave = channel.IncidentWave(azimuth_deg=45.0, delay_s=8e-9)
        ch = channel.superpose([wave], arr, grid)
        geo = tmp_path / "geo.csv"
        chan = tmp_path / "chan.csv"
        arr.to_csv(geo)
        channel.export_channel(ch, chan)
        rc = cli.main(["ingest", "--geometry", str(geo), "--channel", str(chan),
                       "--out-dir", str(tmp_path / "out"), "--pad-az", "2"])
        assert rc == 0
        assert (tmp_path / "out" / "peaks.txt").exists()
        out = capsys.readouterr().out
        assert "sensors=256" in out

    def test_ingest_stages_cover_runtime(self, tmp_path):
        """Reading, parsing and hashing the two files is the "ingest" stage,
        which runtime_s counts as a run's counts synthesis."""
        sc = pipeline.resolve(presets.get_preset("fig3"))
        sc.array.to_csv(tmp_path / "geo.csv")
        channel.export_channel(channel.superpose(sc.scene, sc.array, sc.grid),
                               tmp_path / "chan.csv")
        assert cli.main(["ingest", "--geometry", str(tmp_path / "geo.csv"), "--channel",
                         str(tmp_path / "chan.csv"), "--out-dir", str(tmp_path / "out")]) == 0
        resolved = json.loads((tmp_path / "out" / "manifest.json").read_text())["resolved"]
        stages = resolved.pop("stages")
        assert set(stages) == {"resolve", "mode_limit", "ingest", *RUN_STAGES[1:], "write"}
        ran = [stages[stage] for stage in ("ingest", *RUN_STAGES[1:])]
        assert sum(ran) == pytest.approx(resolved["runtime_s"], rel=0.05)

    def test_interleaved_ring_indices_exit_2_before_the_channel_is_read(self, tmp_path, capsys):
        """Channel rows map to rings as contiguous blocks of p, so a geometry
        whose ring index alternates along p would put data on the wrong rings."""
        arr = geometry.build_concentric([geometry.EllipseSpec(semi_major_m=a, sensors=4)
                                         for a in (0.1, 0.2)])
        arr.to_csv(tmp_path / "geo.csv")
        header, *lines = (tmp_path / "geo.csv").read_text().splitlines()
        lines = [f"{p % 2}," + line.split(",", 1)[1] for p, line in enumerate(lines)]
        (tmp_path / "geo.csv").write_text("\n".join([header, *lines]) + "\n")
        rc = cli.main(["ingest", "--geometry", str(tmp_path / "geo.csv"), "--channel",
                       str(tmp_path / "missing.csv"), "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "validation error: ring indices must not decrease along p: each ring's "
            "sensors are one contiguous block of p\n")

    def test_each_verb_registers_only_the_flags_it_reads(self):
        verbs = next(action for action in cli.build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)).choices
        options = {verb: sorted(flag for action in parser._actions
                                for flag in action.option_strings)
                   for verb, parser in verbs.items()}
        scenario = ["--config", "--preset", "--seed"]
        running = ["--allow-undersampled", "--force-modes", "--out-dir", "--pad-az", "--pad-delay"]
        assert options == {
            "run": sorted(["-h", "--help", *scenario, *running]),
            "sweep": sorted(["-h", "--help", *scenario, *running, "--axis"]),
            "audit": sorted(["-h", "--help", *scenario, "--f-max", "--export-geometry"]),
            "ingest": sorted(["-h", "--help", *running, "--geometry", "--channel", "--config",
                              "--name"]),
            "presets": ["--help", "-h"],
        }

    def test_seed_flag_changes_noise(self, tmp_path):
        cfg = small_scenario(snr_db=3.0)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        cli.main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "a")])
        cli.main(["run", "--config", str(cfg_path), "--seed", "9",
                  "--out-dir", str(tmp_path / "b")])
        a = (tmp_path / "a" / "spectrum.csv").read_bytes()
        b = (tmp_path / "b" / "spectrum.csv").read_bytes()
        assert a != b

    @pytest.mark.parametrize("extra,edit,named", [
        (["sweep", "--axis", "scene.0.azimuth_deg=0,abc"], None, "--axis"),
        (["sweep", "--axis", "scene.x.azimuth_deg=0"], None, "'scene.x.azimuth_deg'"),
        (["run"], lambda cfg: cfg.update(processing=[1]), "processing"),
        (["run", "--pad-az", "2"], lambda cfg: cfg.update(processing=[1]), "processing"),
        (["run"], lambda cfg: cfg["processing"].update(exclusion_cells=5), "exclusion_cells"),
        *((["run"], lambda cfg, v=v: cfg.update(seed=v), "seed")
          for v in ("auto", [1], {"a": 1}, math.nan)),
        (["run"], lambda cfg: cfg["array"][0].update(sensors=math.inf), "array[0].sensors"),
        *((["run"], lambda cfg, v=v: cfg["processing"].update(mode_threshold=v),
           "processing.mode_threshold") for v in (None, {"a": 1})),
        *((["run"], lambda cfg, k=k, v=v: cfg["processing"].update({k: v}), f"processing.{k}")
          for k in ("pad_az", "pad_delay") for v in ("x", None)),
        (["run"], lambda cfg: cfg["processing"].update(exclusion_deg="x"),
         "processing.exclusion_deg"),
        (["run"], lambda cfg: cfg["processing"].update(snr_db=[1]), "processing.snr_db"),
        (["run"], lambda cfg: cfg["processing"].update(exclusion_cells="12"), "exclusion_cells"),
        (["sweep"], lambda cfg: cfg.update(sweep=[1]), "sweep"),
        (["sweep", "--axis", "seed=1"], lambda cfg: cfg.update(sweep={"axes": 5}), "sweep"),
        (["sweep"], lambda cfg: cfg.update(sweep={"axes": [{"path": 5, "values": [1]}]}),
         "sweep paths"),
        # integer fields take integral values only: none is truncated
        (["run"], lambda cfg: cfg["array"][0].update(sensors=256.5), "array[0].sensors"),
        (["run"], lambda cfg: cfg["grid"].update(samples=24.5), "grid.samples"),
        (["run"], lambda cfg: cfg.update(seed=3.5), "seed"),
        (["run"], lambda cfg: cfg["array"][0].update(seed=1.5), "array[0].seed"),
        *((["run"], lambda cfg, k=k: cfg["processing"].update({k: 2.5}), f"processing.{k}")
          for k in ("pad_az", "pad_delay")),
        (["run"], lambda cfg: cfg["processing"].update(exclusion_cells=[2.5, 5]),
         "processing.exclusion_cells"),
        (["run"], lambda cfg: cfg["processing"].update(modes=61.5), "processing.modes"),
        # every section rejects a key that is not a field of its record
        (["run"], lambda cfg: cfg.update(procesing=cfg.pop("processing")), "'procesing'"),
        (["run"], lambda cfg: cfg["grid"].update(sampels=30), "'sampels'"),
        (["run"], lambda cfg: cfg["array"][0].update(eccentricty=cfg["array"][0].pop(
            "eccentricity")), "'eccentricty'"),
        (["run"], lambda cfg: cfg["scene"][0].update(elevation=60.0), "'elevation'"),
        (["run"], lambda cfg: cfg["grid"].pop("samples"), "'samples'"),
        (["run"], lambda cfg: cfg.pop("grid"), "'grid'"),
        *((["sweep"], lambda cfg, sweep=sweep: cfg.update(sweep=sweep), named)
          for sweep, named in (
              ({"axes": [{"path": "seed", "values": [1]}], "axis": []}, "'axis'"),
              ({"axes": [{"path": "seed", "values": [1], "vales": [2]}]}, "'vales'"),
              ({"axes": [{"path": "seed", "paths": ["seed"], "values": [[1]]}]},
               "sweep.axes[0]"),
              ({"axes": [{"path": "seed", "values": []}]}, "sweep.axes[0]"))),
        # a boolean field takes JSON true/false only: "false" is not falsy
        *((["run"], lambda cfg, v=v: cfg.update(allow_undersampled=v), "allow_undersampled")
          for v in ("false", "no", 0, 1, None)),
        *((["run"], lambda cfg, v=v: cfg.update(force_modes=v), "force_modes")
          for v in ("true", 1)),
        # ingest adds no noise to a measured channel
        (["ingest"], lambda cfg: cfg["processing"].update(snr_db=20.0), "processing.snr_db"),
        (["ingest"], lambda cfg: cfg.update(procesing=cfg.pop("processing")), "'procesing'"),
        (["ingest"], lambda cfg: cfg.update(allow_undersampled="no"), "allow_undersampled"),
        (["ingest"], lambda cfg: cfg.update(name=5), "name"),
        # ingest reads the sections it does not use as run reads them
        (["ingest"], lambda cfg: cfg.update(grid=5, seed="x", array=5, scene=None), "bad seed"),
        (["ingest"], lambda cfg: cfg.update(grid=5), "grid must be an object"),
        (["ingest"], lambda cfg: cfg.update(array=5), "array must be a non-empty list"),
        (["ingest"], lambda cfg: cfg["array"][0].update(sigma_wavelengths="x"),
         "bad array[0].sigma_wavelengths"),
        (["ingest"], lambda cfg: cfg.update(scene=None), "scene must be a non-empty list"),
        (["ingest"], lambda cfg: cfg.update(sweep={"axes": 5}), "sweep requires"),
        (["run"], lambda cfg: cfg["processing"].update(modes=0), "modes must be positive"),
        (["run"], lambda cfg: cfg["processing"].update(pad_az=0), "pad factors must be >= 1"),
        (["run"], lambda cfg: cfg["array"][0].update(sigma_m=1e-4, sigma_wavelengths=0.1),
         "array[0]: give sigma_m or sigma_wavelengths, not both"),
        (["sweep"], lambda cfg: cfg.update(sweep={"axes": [5]}), "each sweep axis"),
        (["sweep"], lambda cfg: cfg.update(sweep={"axes": [{"path": "array.*", "values": [1]}]}),
         "cannot assign to '*' directly in 'array.*'"),
        # the bank decides the reduction: a document that still sets it, as
        # manifests written while it was a setting do, is refused
        (["run"], lambda cfg: cfg["processing"].update(reduction="symmetric"), "'reduction'"),
        (["ingest"], lambda cfg: cfg["processing"].update(reduction="none"), "'reduction'"),
    ], ids=["axis-value-not-json", "axis-path-not-index", "processing-not-object",
            "processing-not-object-with-pad-flag", "exclusion-cells-not-list",
            "seed-auto", "seed-list", "seed-dict", "seed-nan", "sensors-infinite",
            "mode-threshold-null", "mode-threshold-dict", "pad-az-text", "pad-az-null",
            "pad-delay-text", "pad-delay-null", "exclusion-deg-text", "snr-db-list",
            "exclusion-cells-text", "sweep-not-object", "sweep-axes-not-list-with-axis-flag",
            "sweep-path-not-text", "sensors-fraction", "samples-fraction", "seed-fraction",
            "ring-seed-fraction", "pad-az-fraction", "pad-delay-fraction",
            "exclusion-cells-fraction", "modes-fraction", "top-level-procesing",
            "grid-sampels", "ring-eccentricty", "scene-elevation", "grid-samples-missing",
            "grid-missing", "sweep-unknown-key", "sweep-axis-unknown-key",
            "sweep-axis-path-and-paths", "sweep-axis-values-empty",
            "allow-undersampled-text-false", "allow-undersampled-text-no",
            "allow-undersampled-zero", "allow-undersampled-one", "allow-undersampled-null",
            "force-modes-text-true", "force-modes-one",
            "ingest-snr-db", "ingest-top-level-procesing", "ingest-allow-undersampled-text-no",
            "ingest-name-not-text", "ingest-unused-sections-malformed", "ingest-grid-not-object",
            "ingest-array-not-list", "ingest-sigma-wavelengths-text", "ingest-scene-null",
            "ingest-sweep-axes-not-list", "modes-zero", "pad-az-zero",
            "ring-both-sigmas", "sweep-axis-not-object", "sweep-path-ends-in-star",
            "processing-reduction", "ingest-processing-reduction"])
    def test_malformed_input_exits_1_with_one_line(self, tmp_path, capsys, extra, edit, named):
        err = self.assert_one_line_exit(tmp_path, capsys, extra, edit, 1, "config error: ")
        assert named in err

    @pytest.mark.parametrize("path,value", [pytest.param(path, value, id=path) for path, value in (
        ("seed", True), ("processing.modes", True), ("processing.exclusion_cells", [True, 5]),
        ("scene.0.amplitude", True), ("array.0.semi_major_m", True), ("array.0.seed", False),
        ("array.0.sigma_wavelengths", True), ("grid.samples", True),
        ("processing.exclusion_deg", False), ("processing.snr_db", True))])
    def test_boolean_for_a_number_exits_1_naming_the_field(self, tmp_path, capsys, path, value):
        # JSON's true is not the number 1: a boolean passes for no numeric field
        err = self.assert_one_line_exit(tmp_path, capsys, ["run"],
                                        lambda cfg: config.set_path(cfg, path, value),
                                        1, "config error: ")
        assert f"bad {path.replace('.0', '[0]')}" in err

    @pytest.mark.parametrize("edit", [
        lambda cfg: cfg["processing"].update(snr_db=1e30),
        lambda cfg: cfg["processing"].update(snr_db=-1e4),
        lambda cfg: cfg["processing"].update(exclusion_deg=math.nan),
        lambda cfg: cfg["processing"].update(exclusion_deg=-5),
        lambda cfg: cfg["array"][0].update(sigma_m=math.nan),
        lambda cfg: cfg.update(seed=-1),
        # finite values whose synthesis overflows: one line, no numpy warnings
        lambda cfg: cfg["scene"][0].update(delay_s=1e297),
        lambda cfg: (cfg["scene"][0].update(amplitude=1e300),
                     cfg["processing"].update(snr_db=10.0)),
        lambda cfg: (cfg["scene"][0].update(distance_m=1e300),
                     cfg["processing"].update(model="spherical")),
    ], ids=["snr-db-overflows", "snr-db-underflows", "exclusion-deg-nan",
            "exclusion-deg-negative", "sigma-nan",
            "seed-negative", "delay-overflows-phase", "amplitude-overflows-noise-power",
            "distance-overflows-spherical-path"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_out_of_domain_input_exits_2_with_one_line(self, tmp_path, capsys, edit):
        self.assert_one_line_exit(tmp_path, capsys, ["run"], edit, 2, "validation error: ")

    @staticmethod
    def assert_one_line_exit(tmp_path, capsys, extra, edit, code, prefix, document=None):
        """`document`, when given, is the config file's text in place of the
        edited small scenario."""
        cfg = small_scenario()
        if edit is not None:
            edit(cfg)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg) if document is None else document)
        if extra[0] == "ingest":  # the small scenario's array and noiseless channel
            sc = pipeline.resolve(small_scenario())
            sc.array.to_csv(tmp_path / "geo.csv")
            channel.export_channel(channel.superpose(sc.scene, sc.array, sc.grid),
                                   tmp_path / "chan.csv")
            extra = [*extra, "--geometry", str(tmp_path / "geo.csv"),
                     "--channel", str(tmp_path / "chan.csv")]
        rc = cli.main([extra[0], "--config", str(cfg_path),
                       "--out-dir", str(tmp_path / "o"), *extra[1:]])
        err = capsys.readouterr().err
        assert rc == code
        assert err.startswith(prefix)
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()
        return err

    @pytest.mark.parametrize("verb", ["run", "sweep", "ingest"])
    @pytest.mark.parametrize("document", [
        "[" * 200_000,
        json.dumps(small_scenario())[:-1] + ', "sweep": ' + "[" * 600 + "]" * 600 + "}",
        json.dumps({**small_scenario(), "array": None}).replace(
            "null", "[" * 600 + json.dumps(small_scenario()["array"]) + "]" * 600),
    ], ids=["brackets-200000", "sweep-600-lists", "array-600-lists"])
    def test_deeply_nested_config_exits_1_with_one_line(self, tmp_path, capsys, verb, document):
        """The JSON parser recurses once per level of '[' x 200000, and a
        valid document 600 lists deep would overflow the copy resolve makes."""
        err = self.assert_one_line_exit(tmp_path, capsys, [verb], None, 1, "config error: ",
                                        document=document)
        assert "config nests more than 32 arrays and objects deep" in err

    def test_run_manifest_and_scenario_ingest(self, tmp_path, capsys):
        """ingest --config reads every section of a scenario and of a run
        manifest and keeps its name and processing.  The run folds its clean
        ellipse; an ingested ring has no ellipse parameters, so its bank
        does not, and each manifest records its own bank's choice."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_scenario()))
        assert cli.main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "run")]) == 0
        run = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert run["resolved"]["reduction"] == "symmetric"
        sc = pipeline.resolve(small_scenario())
        sc.array.to_csv(tmp_path / "geo.csv")
        channel.export_channel(channel.superpose(sc.scene, sc.array, sc.grid),
                               tmp_path / "chan.csv")
        for doc in (cfg_path, tmp_path / "run" / "manifest.json"):
            out = tmp_path / doc.stem
            assert cli.main(["ingest", "--geometry", str(tmp_path / "geo.csv"), "--channel",
                             str(tmp_path / "chan.csv"), "--config", str(doc),
                             "--out-dir", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["config"]["name"] == "small"
            assert manifest["config"]["processing"]["modes"] == 61
            assert manifest["resolved"]["reduction"] == "none"
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("path,value,flags,field", [
        ("array.0.sensors", 1e30, [], "array[*].sensors"),
        ("array.0.sensors", 1e9, [], "array[*].sensors"),
        ("grid.samples", 1e30, [], "grid.samples"),
        ("processing.pad_az", 1e16, [], "processing.pad_az (10000000000000000)"),
        ("processing.modes", 10**7, ["--force-modes"], "processing.modes (10000001)"),
    ], ids=["sensors-1e30", "sensors-1e9", "samples-1e30", "pad_az-1e16", "forced-modes-1e7"])
    def test_oversized_request_exits_2_naming_the_field(self, tmp_path, capsys,
                                                        path, value, flags, field):
        err = self.assert_one_line_exit(tmp_path, capsys, ["run", *flags],
                                        lambda cfg: config.set_path(cfg, path, value),
                                        2, "validation error: ")
        assert field in err
        assert f"MAX_ARRAY_BYTES = {pipeline.MAX_ARRAY_BYTES}" in err

    @pytest.mark.parametrize("verb", ["run", "sweep"])
    def test_huge_anchor_azimuth_exits_0(self, tmp_path, capsys, verb):
        cfg = small_scenario(pad_az=8)  # 488 bins: 1.7e308 / 360 * 488 overflows a double
        cfg["scene"][0]["azimuth_deg"] = 1.7e308
        if verb == "sweep":
            cfg["sweep"] = {"axes": [{"path": "array.0.eccentricity", "values": [0.0, 0.5]}]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = cli.main([verb, "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")])
        assert rc == 0
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("verb,work", [("run", "run_scenario"), ("sweep", "sweep_rows")])
    def test_output_dir_blocked_by_a_file_exits_1_before_any_work(self, tmp_path, capsys,
                                                                   monkeypatch, verb, work):
        """run --out-dir under a regular file, sweep --out-dir that is one."""
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = blocker / "sub" if verb == "run" else blocker

        def no_work(*args, **kwargs):
            raise AssertionError(f"{work} ran before the output directory was checked")

        monkeypatch.setattr(cli, work, no_work)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_scenario()))
        axis = ["--axis", "seed=1,2"] if verb == "sweep" else []
        rc = cli.main([verb, "--config", str(cfg_path), "--out-dir", str(out), *axis])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == (f"config error: cannot make output directory {out}: "
                       f"{blocker} is not a directory\n")

    def test_geometry_export_into_missing_directory_exits_1_naming_it(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_scenario()))
        target = tmp_path / "missing" / "geo.csv"
        rc = cli.main(["audit", "--config", str(cfg_path), "--export-geometry", str(target)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("cannot write output: ") and str(target) in err
        assert len(err.splitlines()) == 1

    def test_audit_f_max_zero_exits_2(self, tmp_path, capsys):
        """0 is a given frequency, not the grid-top default."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_scenario()))
        rc = cli.main(["audit", "--config", str(cfg_path), "--f-max", "0"])
        assert rc == 2
        assert capsys.readouterr().err == "validation error: f_max_hz must be positive, got 0.0\n"

    def test_unknown_processing_key_exits_1_naming_it(self, tmp_path, capsys):
        err = self.assert_one_line_exit(
            tmp_path, capsys, ["run"],
            lambda cfg: cfg["processing"].update(mode_treshold=1e-4), 1, "config error: ")
        assert "'mode_treshold'" in err

    def test_oversized_bessel_table_exits_2_naming_the_fields(self, tmp_path, capsys):
        """One unreduced 720-sensor ring at 1,999,999 modes: the spectrum
        (0.24 GiB) fits, but one frequency sample of the bank's Bessel table
        would take 8 (M_h + 2) 720 bytes = 5.4 GiB."""
        def edit(cfg):
            cfg["array"][0].update(sensors=720, sigma_m=1e-4)
            cfg["grid"]["samples"] = 2
            cfg["processing"]["modes"] = 1_999_999

        err = self.assert_one_line_exit(tmp_path, capsys, ["run", "--force-modes"], edit,
                                        2, "validation error: ")
        assert "processing.modes (1999999)" in err and "array[*].sensors (720)" in err
        assert f"MAX_ARRAY_BYTES = {pipeline.MAX_ARRAY_BYTES}" in err

    def test_average_design_on_ingested_array_exits_2(self, tmp_path, capsys):
        """An ingested ring has no ellipse parameters to average."""
        sc = pipeline.resolve(small_scenario())
        sc.array.to_csv(tmp_path / "geo.csv")
        channel.export_channel(channel.superpose(sc.scene, sc.array, sc.grid),
                               tmp_path / "chan.csv")
        (tmp_path / "proc.json").write_text(json.dumps({"processing": {"design": "average"}}))
        rc = cli.main(["ingest", "--geometry", str(tmp_path / "geo.csv"), "--channel",
                       str(tmp_path / "chan.csv"), "--config", str(tmp_path / "proc.json"),
                       "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "validation error: average design needs ellipse parameters on every ring\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("path,value", [
        ("array.0.semi_major_m", 1e9),
        ("array.0.semi_major_m", 1e30),
        ("array.0.sigma_m", 1e9),
        ("grid.f_start_hz", 1e16),
    ], ids=["semi-major-1e9", "semi-major-1e30", "sigma-1e9", "f-start-1e16"])
    def test_huge_mode_argument_exits_2_naming_x_min(self, tmp_path, capsys, path, value):
        err = self.assert_one_line_exit(tmp_path, capsys, ["run", "--allow-undersampled"],
                                        lambda cfg: config.set_path(cfg, path, value),
                                        2, "validation error: ")
        assert "x_min" in err and "f_start_hz" in err and "smallest radius" in err

    def test_hopeless_auto_mode_search_exits_2_before_it_starts(self, tmp_path, capsys,
                                                                monkeypatch):
        """With auto modes the robust limit lies above x_min, so a Bessel
        table too large at M_h = x_min is refused without the search, a
        one-lane table of about x_min orders.  The plain design's limit has
        no such bound, so it still searches."""
        def far_ring(design):
            def edit(cfg):
                cfg["array"][0].update(semi_major_m=1702.0, eccentricity=0.0, sensors=720)
                cfg["processing"].update(modes="auto", design=design)
            return edit

        def reached(*args):
            raise ValidationError("the search ran")

        monkeypatch.setattr(beamform, "_mode_limit_at", reached)
        for design in ("robust", "average"):
            err = self.assert_one_line_exit(tmp_path, capsys, ["run", "--allow-undersampled"],
                                            far_ring(design), 2, "validation error: ")
            assert err == (
                "validation error: processing.modes 'auto' at x_min = 998796 with 720 sensors: "
                f"the {design} design's mode limit lies above x_min, so one frequency sample "
                "of the filter bank's Bessel table would exceed MAX_ARRAY_BYTES = 1073741824\n")
        err = self.assert_one_line_exit(tmp_path, capsys, ["run", "--allow-undersampled"],
                                        far_ring("plain"), 2, "validation error: ")
        assert err == "validation error: the search ran\n"

    @pytest.mark.parametrize("modes,named", [("abc", "bad processing.modes"),
                                             (0, "modes must be positive")],
                             ids=["text", "zero"])
    def test_bad_mode_count_exits_1_before_the_mode_search(self, tmp_path, capsys, monkeypatch,
                                                            modes, named):
        """An explicit count is read before the mode-limit search, which on
        this far ring runs for seconds and then fails on its own."""
        def searched(*args, **kwargs):
            raise AssertionError("the mode-limit search ran")

        def edit(cfg):
            cfg["array"][0].update(semi_major_m=1702.0, eccentricity=0.0, sensors=720)
            cfg["processing"].update(modes=modes)

        monkeypatch.setattr(pipeline, "mode_limit", searched)
        err = self.assert_one_line_exit(tmp_path, capsys, ["run"], edit, 1, "config error: ")
        assert named in err

    def test_process_entry_exits_as_main_returns(self, tmp_path, capsys):
        """`python -m elliptic_doa.cli` runs `entry`: on success, a config
        error and a validation failure it exits with main's code and prints
        main's output, one stderr line on an error."""
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        cfg = small_scenario()
        config.set_path(cfg, "grid.samples", 1e30)
        big = tmp_path / "big.json"
        big.write_text(json.dumps(cfg))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        out = ["--out-dir", str(tmp_path / "o")]
        for argv, code in ((["presets"], 0), (["run", "--config", str(bad), *out], 1),
                           (["run", "--config", str(big), *out], 2)):
            assert cli.main(argv) == code
            inproc = capsys.readouterr()
            proc = subprocess.run([sys.executable, "-m", "elliptic_doa.cli", *argv], env=env,
                                  cwd=tmp_path, capture_output=True, text=True)
            assert (proc.returncode, proc.stdout, proc.stderr) == (code, inproc.out, inproc.err)
            assert len(proc.stderr.splitlines()) == (code != 0)
        assert not (tmp_path / "o").exists()

    def test_main_leaves_the_heap_unfrozen(self, capsys):
        """main is the in-process API: only the process entry freezes."""
        before = gc.get_freeze_count()
        assert cli.main(["presets"]) == 0
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("argv,code", [
        (["presets"], 0), (["run", "--preset", "no-such-preset"], 1),
        (["--version"], 0), (["--no-such-flag"], 2),
    ], ids=["presets", "unknown-preset", "version", "usage-error"])
    def test_entry_freezes_the_heap_and_exits_with_mains_code(self, monkeypatch, capsys,
                                                               argv, code):
        """argparse's own exits (--version, a usage error) freeze the heap too."""
        frozen = []
        monkeypatch.setattr(gc, "freeze", lambda: frozen.append(True))
        monkeypatch.setattr(sys, "argv", ["elliptic-doa", *argv])
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert (exc.value.code, frozen) == (code, [True])

    @pytest.mark.parametrize("index", [-1, 256, 10**12])
    def test_out_of_range_channel_index_exits_2(self, tmp_path, capsys, index):
        """An index is checked against the sensor count before anything is
        sized by it (10**12 counters would be 8 TB)."""
        arr = geometry.build_concentric(
            [geometry.EllipseSpec(semi_major_m=0.15, eccentricity=0.5, sensors=256)])
        grid = channel.FrequencyGrid(f_start_hz=28e9, bandwidth_hz=2e9, samples=24)
        arr.to_csv(tmp_path / "geo.csv")
        path = tmp_path / "chan.csv"
        channel.export_channel(channel.superpose(
            [channel.IncidentWave(azimuth_deg=45.0, delay_s=8e-9)], arr, grid), path)
        lines = path.read_text().splitlines()
        lines[1] = f"{index}," + lines[1].split(",", 1)[1]
        path.write_text("\n".join(lines) + "\n")
        rc = cli.main(["ingest", "--geometry", str(tmp_path / "geo.csv"), "--channel",
                       str(path), "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("validation error: sensor indices ")
        assert err.endswith("do not cover 0..255\n")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("empty,code,message", [
        ("geo", 1, "config error: geometry file contains no sensors"),
        ("chan", 2, "validation error: sensor indices []... do not cover 0..255"),
    ])
    def test_header_only_ingest_file_exits_with_one_line(self, tmp_path, capsys,
                                                         empty, code, message):
        arr = geometry.build_concentric(
            [geometry.EllipseSpec(semi_major_m=0.15, eccentricity=0.5, sensors=256)])
        grid = channel.FrequencyGrid(f_start_hz=28e9, bandwidth_hz=2e9, samples=24)
        arr.to_csv(tmp_path / "geo.csv")
        channel.export_channel(channel.superpose(
            [channel.IncidentWave(azimuth_deg=45.0, delay_s=8e-9)], arr, grid),
            tmp_path / "chan.csv")
        path = tmp_path / f"{empty}.csv"
        path.write_text(path.read_text().splitlines()[0] + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["ingest", "--geometry", str(tmp_path / "geo.csv"), "--channel",
                           str(tmp_path / "chan.csv"), "--out-dir", str(tmp_path / "o")])
        assert rc == code
        assert capsys.readouterr().err == message + "\n"
        assert not caught


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    """The expansion runs through matmul; BLAS threading must not move a bit.

    fig7-cea stacks eight rotated copies of one ellipse into the widest
    products the expansion runs; fig3's 720-sensor circle and the two-row
    fig4a sweep (e = 0 and 0.7, three points per row) run the longest mode
    columns, where a summation split over threads would move the last digits.
    """
    cfg = small_scenario()
    cfg["array"] = [
        {"semi_major_m": 0.15, "eccentricity": 0.9, "rotation_deg": 22.5, "sensors": 256},
        {"semi_major_m": 0.15, "sensors": 256},
    ]
    cfg["allow_undersampled"] = True  # the flattened ring's ends are sparse
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    sweep = presets.get_preset("fig4a")
    sweep["sweep"]["axes"][0]["values"] = [[0.0, "auto"], [0.7, "auto"]]
    sweep["sweep"]["axes"][1]["values"] = [-90.0, -30.0, 30.0]
    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(json.dumps(sweep))

    def run_files(out):
        return [(out / name).read_bytes() for name in ("spectrum.csv", "peaks.txt")]

    src = str(Path(__file__).resolve().parents[1] / "src")
    differ = []
    for label, argv, read in (
            ("rings", ["run", "--config", str(cfg_path)], run_files),
            ("fig7-cea", ["run", "--preset", "fig7-cea"], run_files),
            ("fig3", ["run", "--preset", "fig3"], run_files),
            ("fig4a-sweep", ["sweep", "--config", str(sweep_path)], sweep_csv_without_runtime)):
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])))
            out = tmp_path / f"{label}-threads{threads}"
            subprocess.run([sys.executable, "-m", "elliptic_doa.cli", *argv,
                            "--out-dir", str(out)], env=env, check=True, capture_output=True)
            outputs.append(read(out))
        if outputs[0] != outputs[1]:
            differ.append(label)
    assert differ == []


def test_public_names_resolve():
    import elliptic_doa

    missing = [name for name in elliptic_doa.__all__ if not hasattr(elliptic_doa, name)]
    assert missing == []


ROOT = Path(__file__).resolve().parents[1]


def _script(relpath: str):
    """A script of the repository, loaded as a module."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(Path(relpath).stem, ROOT / relpath)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sites_resolve():
    """Every call site the benchmark tracer wraps still exists, so a rename
    or removal in the program fails here and not only in `perfbench`."""
    import importlib

    tracer = _script("perfbench/tracer.py")  # imports no program code
    assert tracer.SITES
    for module_name, attr, _span in tracer.SITES:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module_name, attr)


def test_tracer_opens_every_wrapped_span(tmp_path):
    """A run and a two-point sweep open every span the benchmark tracer
    wraps but the two expansion entry points, which the program no longer
    calls.  A call that leaves the namespace where the tracer wraps it
    would drop its span, and its metric would read 0 without an error."""
    tracer = _script("perfbench/tracer.py")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    opened = {}
    for verb, argv in (("run", ["--preset", "fig3"]),
                       ("sweep", ["--preset", "fig3", "--axis", "scene.0.azimuth_deg=0,30"])):
        trace = tmp_path / f"{verb}.json"
        subprocess.run([sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(trace), verb,
                        *argv, "--out-dir", str(tmp_path / verb)],
                       env=env, check=True, capture_output=True)
        opened[verb] = {span[0] for span in json.loads(trace.read_text())["spans"]}
    unused = {"beamform.phase_mode_expand", "beamform.concentric_expand"}
    assert opened["run"] | opened["sweep"] == {
        tracer.ROOT, *(span for _, _, span in tracer.SITES)} - unused
    assert opened["run"] - opened["sweep"] == {
        "pipeline.run_scenario", "pipeline.write_outputs",
        "spectrum.export_csv", "spectrum.export_pgm"}
    assert opened["sweep"] - opened["run"] == {"pipeline.sweep_rows", "pipeline.write_sweep_csv"}


def test_sweep_digest_drops_only_the_runtime_column(tmp_path):
    # a quoted cell holds a comma, as sweep.csv writes an exclusion_cells value
    (tmp_path / "sweep.csv").write_text('processing.exclusion_cells,runtime_s,phi_deg\n'
                                        '"[4, 6]",0.25,12.5\n"[5, 5]",0.5,13\n')
    kept = 'processing.exclusion_cells,phi_deg\n"[4, 6]",12.5\n"[5, 5]",13\n'
    assert _script("scripts/preset_digests.py").sweep_digests(tmp_path) == [
        ("sweep-without-runtime", hashlib.sha256(kept.encode()).hexdigest())]


def test_digest_check_names_differing_lines_and_skips_other_hosts():
    script = _script("scripts/preset_digests.py")
    facts = ["# host numpy 9.9", "# host simd A B"]
    text = "\n".join(["# expected digests", *facts, "a spectrum.csv 01", "b peaks.txt 02"]) + "\n"
    assert script.check(text, facts, ["a spectrum.csv 01", "b peaks.txt 02"]) == (
        0, "all 2 lines match")
    code, verdict = script.check(text, facts, ["a spectrum.csv 01", "b peaks.txt 03",
                                               "c heatmap.pgm 04"])
    assert code == 1
    assert verdict == "2 lines differ: b peaks.txt, c heatmap.pgm"
    code, verdict = script.check(text, ["# host numpy 9.8", "# host simd A B"], [])
    assert code == 0
    assert verdict.startswith("not comparable: '# host numpy 9.8' here")
    # the committed file carries the host facts and the 34 digest lines
    committed = (ROOT / "scripts" / "preset_digests.txt").read_text().splitlines()
    assert [line.split()[2] for line in committed if line.startswith("# host ")] == [
        "numpy", "blas", "simd"]
    assert len([line for line in committed if not line.startswith("#")]) == 34
