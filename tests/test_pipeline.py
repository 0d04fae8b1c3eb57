import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import yaml

import ridekit
from ridekit import iso2631, road, sampling, signals, thresholds
from ridekit.cli import main
from ridekit.config import check_smoothing_fits, load_config
from ridekit.errors import ConfigError
from ridekit.iri import compute_iri
from ridekit.pipeline import analyze, build_road, calibrate, generate_road
from ridekit.road import SmoothingParams, load_grid
from ridekit.sampling import lhs
from ridekit.signals import read_response_csv, write_response_csv
from ridekit.vehicle import Scenario, default_car, default_geometry, simulate


ROAD_B = {"length": 200.0, "step": 0.1, "roughness_class": "B"}
SHORT_SYNTHETIC = r"road.synthetic.length must be at least 10 \* step"


def write_config(path, **overrides):
    doc = {
        "seed": 7,
        "road": {"synthetic": dict(ROAD_B)},
        "scenario": {"target_speed_kmh": 54.0},
        "batch": {"n": 3, "dt": 0.002},
        "analysis": {"window_m": 5.0, "ds": 0.1},
        "iri": {"segment_m": 5.0, "speed_kmh": 80.0},
    }
    for key, value in overrides.items():
        if value is None:
            doc.pop(key, None)
        else:
            doc[key] = value
    path.write_text(yaml.safe_dump(doc))
    return path


class TestConfig:
    def test_minimal_config_loads(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "c.yaml"))
        assert cfg.seed == 7
        assert cfg.n == 3
        assert cfg.road_synthetic["roughness_class"] == "B"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.yaml"
        write_config(path)
        doc = yaml.safe_load(path.read_text())
        doc["typo_section"] = {}
        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(ConfigError, match="typo_section"):
            load_config(path)

    def test_missing_road_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="road"):
            load_config(write_config(tmp_path / "c.yaml", road=None))

    def test_iri_method_requires_explicit_speed(self, tmp_path):
        path = write_config(tmp_path / "c.yaml", scenario={"lane_half_width": 1.5})
        with pytest.raises(ConfigError, match="target_speed_kmh"):
            load_config(path)

    def test_cli_methods_override_triggers_speed_check(self, tmp_path, capsys):
        path = write_config(
            tmp_path / "c.yaml",
            scenario={"lane_half_width": 1.5},
            analysis={"window_m": 5.0, "ds": 0.1, "methods": ["threshold"]},
        )
        assert load_config(path).methods == ("threshold",)  # config alone is fine
        code = main(["analyze", "--config", str(path), "--methods", "iri", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "target_speed_kmh" in capsys.readouterr().err

    def test_missing_road_file_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.yaml", road={"file": "/no/such/grid.txt"})
        with pytest.raises(ConfigError, match="does not exist"):
            load_config(path)

    def test_cli_seed_override_wins(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "c.yaml"), seed=99)
        assert cfg.seed == 99

    def test_band_table_loaded_once_with_the_config(self, tmp_path):
        shipped = (resources.files("ridekit.data") / "comfort_bands_v1.csv").read_text(encoding="utf-8")
        bands_path = tmp_path / "bands.csv"
        bands_path.write_text(shipped.replace("z,PT,-0.10,0.10", "z,PT,-0.05,0.05"))
        analysis = {"window_m": 5.0, "ds": 0.1, "bands_file": str(bands_path)}
        cfg = load_config(write_config(tmp_path / "c.yaml", analysis=analysis))
        assert cfg.bands == thresholds.load_bands(bands_path) != thresholds.load_bands()
        assert cfg.bands[("z", "PT")].upper == 0.05
        assert load_config(write_config(tmp_path / "c.yaml", analysis=analysis), methods=("iso",)).bands is None

    @pytest.mark.parametrize("axis, penalty", [(0, "lambda_x"), (1, "lambda_y"), (0, "lambda_z")])
    def test_smoothing_needs_five_nodes_on_its_own_axis(self, axis, penalty):
        # lambda_z smooths a profile, which has one sample per station
        counts = [4, 4]
        counts[axis] = 5
        check_smoothing_fits(SmoothingParams(**{penalty: 1e-3}), *counts)
        counts[axis] = 4
        with pytest.raises(ConfigError, match=penalty):
            check_smoothing_fits(SmoothingParams(**{penalty: 1e-3}), *counts)
        check_smoothing_fits(SmoothingParams(), *counts)

    @pytest.mark.parametrize(
        "penalty, axis, synthetic, load_message, grid",
        [
            ("lambda_y", "lateral offsets", {"length": 200.0, "step": 0.1, "lateral_span": 0.75, "offset_step": 0.5},
             None, lambda: road.straight_grid(np.zeros(2001), 0.1, lateral_span=0.75, offset_step=0.5)),
            ("lambda_x", "stations", {"length": 0.3, "step": 0.1}, SHORT_SYNTHETIC,
             lambda: road.straight_grid(np.zeros(4), 0.1)),
            ("lambda_z", "stations", {"length": 0.3, "step": 0.1}, SHORT_SYNTHETIC,
             lambda: road.straight_grid(np.zeros(4), 0.1)),
        ],
        ids=["lambda_y_four_offsets", "lambda_x_four_stations", "lambda_z_four_samples"],
    )
    def test_smoothing_on_a_short_axis_fails_before_any_output(
        self, tmp_path, monkeypatch, capsys, penalty, axis, synthetic, load_message, grid
    ):
        # a synthetic road fails at load; the same road as a grid file fails
        # once it is loaded, before either command makes its output directory.
        # A synthetic road of four stations is shorter than ten steps, which
        # the load refuses before it looks at the smoothing.
        monkeypatch.chdir(tmp_path)
        message = f"road.smoothing.{penalty} needs at least 5 {axis}; the road has 4"
        synthetic_road = {"synthetic": {"roughness_class": "B", **synthetic}, "smoothing": {penalty: 1.0}}
        with pytest.raises(ConfigError, match=load_message or message):
            load_config(write_config(tmp_path / "synthetic.yaml", road=synthetic_road))
        road.save_grid("grid.txt", grid())
        path = write_config(tmp_path / "file.yaml", road={"file": "grid.txt", "smoothing": {penalty: 1.0}})
        for command in (["analyze"], ["calibrate", "--reference", "absent.csv"]):
            out = tmp_path / "out"
            assert main([*command, "--config", str(path), "--out", str(out)]) == 2
            assert message in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize(
        "section, entry",
        [
            ("analysis", {"aggregator": "median"}),
            ("analysis", {"iso_reduction": "rms"}),
            ("analysis", {"ds": 0.0}),
            ("analysis", {"weightings": {"x": "d", "z": "q"}}),
            ("batch", {"dt": 0.01}),
            ("iri", {"segment_m": 0.0}),
            ("iri", {"speed_kmh": -10.0}),
            ("analysis", {"window_m": 0.05}),
            ("iri", {"segment_m": 0.04}),
            ("road", {"synthetic": {"length": 200.0, "step": 0.0, "roughness_class": "B"}}),
            ("road", {"synthetic": {"length": 200.0, "step": 0.5, "roughness_class": "B"}}),
            ("iri", {"segment_m": 300.0}),
            ("road", {"synthetic": None, "file": "coarse_grid.txt"}),
            ("analysis", {"window_m": 250.0}),
            ("road", {"synthetic": {"length": 200.0, "step": 0.1, "roughness_class": "B", "offset_step": 0.0}}),
            ("road", {"synthetic": {"length": 200.0, "step": 0.1, "roughness_class": "B", "lateral_span": 0.0}}),
            ("road", {"synthetic": {"length": 200.0, "step": 0.1, "roughness_class": "B", "lateral_span": float("inf")}}),
            ("analysis", {"bands_file": "bands_incomplete.csv"}),
            ("analysis", {"bands_file": "bands_sign.csv"}),
            ("analysis", {"bands_file": "bands_columns.csv"}),
            ("analysis", {"k_factors": [float("nan"), 1.0, 1.0]}),
            ("analysis", {"k_factors": [-2.0, 1.0, 1.0]}),
            ("road", {"smoothing": {"lambda_x": float("nan")}}),
            ("road", {"smoothing": {"lambda_y": float("inf")}}),
            ("road", {"synthetic": {**ROAD_B, "length": float("inf")}}),
            ("road", {"synthetic": {**ROAD_B, "patch": {"length": 20.0, "roughness_class": "E"}}}),
            ("road", {"synthetic": {**ROAD_B, "patch": {"start": "near the end", "length": 20.0, "roughness_class": "E"}}}),
            ("road", {"synthetic": {**ROAD_B, "patch": {"start": 190.0, "length": 20.0, "roughness_class": "E"}}}),
            ("road", {"synthetic": {**ROAD_B, "length": -5.0}}),
            ("road", {"synthetic": {**ROAD_B, "length": 0.5}}),
            ("road", {"synthetic": {**ROAD_B, "step": 1.0e-12}}),
            ("analysis", {"window_m": float("nan")}),
            ("iri", {"speed_kmh": float("inf")}),
            ("batch", {"n": float("inf")}),
            ("batch", {"n": 2.5}),
            ("calibration", {"max_iter": float("inf")}),
            ("seed", float("inf")),
            ("seed", -1),
            ("vehicle", {"front": {"c_s": float("nan")}}),
            ("vehicle", {"geometry": {"wheelbase": float("inf")}}),
            ("scenario", {"target_speed_kmh": float("inf")}),
            ("scenario", {"distributions": {"l_p": {"kind": "gaussian", "mu": float("nan"), "sigma": 0.2}}}),
            ("scenario", {"lane_half_width": -1.0}),
            ("road", {"synthetic": {**ROAD_B, "lateral_span": 1.5}}),
            ("analysis", {"methods": []}),
            ("scenario", {"target_speed_kmh": None, "profile": [[0.0, 80.0, 9.0]]}),
            ("scenario", {"target_speed_kmh": None, "profile": {"a": 1}}),
            ("scenario", {"profile": [[0.0, 80.0], [100.0, 60.0]]}),
        ],
        ids=[
            "aggregator", "iso_reduction", "ds", "weightings", "dt", "segment_m", "speed_kmh", "window_below_ds",
            "segment_below_step", "step", "iri_step", "segment_beyond_road",
            "iri_step_grid_file", "window_beyond_road", "offset_step", "lateral_span",
            "lateral_span_inf", "bands_incomplete", "bands_sign", "bands_columns", "k_nan", "k_negative",
            "lambda_x_nan", "lambda_y_inf", "length_inf", "patch_missing_start", "patch_non_numeric", "patch_outside",
            "negative_length", "length_below_ten_steps", "step_too_fine", "window_nan", "iri_speed_inf", "n_inf",
            "n_fractional", "max_iter_inf", "seed_inf", "seed_negative", "c_s_nan", "wheelbase_inf", "speed_inf",
            "mu_nan", "lane_negative", "road_narrower_than_lane", "methods_empty", "profile_triple",
            "profile_mapping", "profile_and_speed",
        ],
    )
    def test_bad_setting_fails_before_any_output(self, tmp_path, monkeypatch, capsys, section, entry):
        monkeypatch.chdir(tmp_path)
        road.save_grid("coarse_grid.txt", road.straight_grid(np.zeros(401), 0.5))
        shipped = (resources.files("ridekit.data") / "comfort_bands_v1.csv").read_text(encoding="utf-8")
        (tmp_path / "bands_incomplete.csv").write_text("axis,style,lower,upper\nx,PT,-0.9,0.9\n")
        (tmp_path / "bands_sign.csv").write_text(shipped.replace("x,PT,-0.90,", "x,PT,0.00,"))
        (tmp_path / "bands_columns.csv").write_text(shipped.replace("lower,upper", "low,high"))
        path = write_config(tmp_path / "c.yaml")
        doc = yaml.safe_load(path.read_text())
        if isinstance(entry, dict):
            entry = {key: value for key, value in {**doc.get(section, {}), **entry}.items() if value is not None}
        doc[section] = entry
        path.write_text(yaml.safe_dump(doc))
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(path), "--out", str(out)]) == 2
        assert "error [ConfigError]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "scenario",
        [
            {"profile": [[0.0, 80.0, 9.0]]},
            {"profile": {"a": 1}},
            {"profile": [[0.0, "fast"]]},
            {"profile": [[10.0, 80.0], [0.0, 60.0]]},
            {"profile": []},
            {"target_speed_kmh": 54.0, "profile": [[0.0, 80.0]]},
            {"target_speed_kmh": "fast"},
            {"target_speed_kmh": 0.0},
        ],
        ids=["triple", "mapping", "text_speed", "decreasing", "empty", "both_speeds", "constant_text", "constant_zero"],
    )
    def test_malformed_speed_names_the_setting(self, tmp_path, scenario):
        with pytest.raises(ConfigError, match=r"^scenario\.(profile|target_speed_kmh)"):
            load_config(write_config(tmp_path / "c.yaml", scenario=scenario))

    @pytest.mark.parametrize(
        "section, entry, setting",
        [
            ("scenario", {"target_speed_kmh": 54.0, "lane_half_width": "wide"}, "scenario.lane_half_width"),
            ("road", {"synthetic": dict(ROAD_B), "smoothing": {"lambda_x": "soft"}}, "road.smoothing.lambda_x"),
            ("vehicle", {"front": {"k_s": "stiff"}}, "vehicle.front.k_s"),
            ("vehicle", {"geometry": {"wheelbase": "long"}}, "vehicle.geometry.wheelbase"),
            ("scenario", {"target_speed_kmh": 54.0, "distributions": {"v_dev": {"kind": "gaussian", "mu": "x", "sigma": 1.0}}},
             "scenario.distributions.v_dev.mu"),
        ],
        ids=["lane_half_width", "lambda_x", "front_k_s", "wheelbase", "gaussian_mu"],
    )
    def test_non_numeric_value_names_the_setting(self, tmp_path, capsys, section, entry, setting):
        path = write_config(tmp_path / "c.yaml", **{section: entry})
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error [ConfigError]: {setting} must be a number, got ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_negative_seed_flag_fails_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(write_config(tmp_path / "c.yaml")), "--seed", "-3", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error [ConfigError]: seed must be a finite whole number and >= 0")
        assert not out.exists()

    def test_invalid_yaml_fails_before_any_output(self, tmp_path, capsys):
        path = tmp_path / "c.yaml"
        path.write_text("seed: [1\nroad: {\n")
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error [ConfigError]: ") and err.count("\n") == 1
        assert f"config {path} is not valid YAML at line 2, column 5" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "entry",
        [
            {"p0": {"k_tire": 300000.0, "k_tyre": 300000.0}},
            {"stages": [["k_tire"], ["d_tire"]], "p0": {"k_tire": 300000.0}},
            {"p0": {"k_tire": 500000.0}},
            {"max_iter": 0},
            {"tol": -1.0},
            {"max_iter": float("inf")},
            {"max_iter": 2.5},
        ],
        ids=["p0_unknown", "p0_missing", "p0_out_of_bounds", "max_iter", "tol", "max_iter_inf", "max_iter_fractional"],
    )
    def test_bad_calibration_setting_fails_before_any_output(self, reference_file, tmp_path, capsys, entry):
        config, ref_path, _ = reference_file
        doc = yaml.safe_load(config.read_text())
        doc["calibration"].update(entry)
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(doc))
        out = tmp_path / "out"
        assert main(["calibrate", "--config", str(path), "--reference", str(ref_path), "--out", str(out)]) == 2
        assert "error [ConfigError]" in capsys.readouterr().err
        assert not out.exists()

    def test_jobs_setting_removed(self, tmp_path):
        path = write_config(tmp_path / "c.yaml", batch={"n": 3, "dt": 0.002, "jobs": 2})
        with pytest.raises(ConfigError, match="jobs"):
            load_config(path)
        config = write_config(tmp_path / "ok.yaml")
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--config", str(config), "--jobs", "2", "--out", str(tmp_path / "o")])
        assert exc.value.code != 0
        assert not (tmp_path / "o").exists()


class TestGenerateRoad:
    def test_round_trip(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "c.yaml"))
        out = tmp_path / "road.txt"
        generate_road(cfg, out)
        grid = load_grid(out)
        direct = build_road(cfg)
        assert np.array_equal(grid.elevations, direct.elevations)

    def test_identical_bytes_per_seed(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "c.yaml"))
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        generate_road(cfg, a)
        generate_road(cfg, b)
        assert a.read_bytes() == b.read_bytes()

    def test_too_short_road_refused(self, tmp_path):
        path = write_config(
            tmp_path / "c.yaml",
            road={"synthetic": {"length": 5.0, "step": 1.0, "roughness_class": "A"}},
        )
        with pytest.raises(ConfigError, match=SHORT_SYNTHETIC):
            load_config(path)

    def test_cli_entry(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.yaml")
        out = tmp_path / "cli_road.txt"
        assert main(["generate-road", "--config", str(config), "--out", str(out)]) == 0
        assert out.exists()


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("analyze")
    cfg = load_config(write_config(tmp / "c.yaml"))
    out = tmp / "out"
    summary = analyze(cfg, out)
    return cfg, out, summary


@pytest.fixture(scope="module")
def reference_file(tmp_path_factory):
    from conftest import bump_event_road
    from ridekit.road import save_grid

    tmp = tmp_path_factory.mktemp("calib")
    grid = bump_event_road(length=200.0, curve=(80.0, 150.0, 45.0))
    road_path = tmp / "bump_road.txt"
    save_grid(road_path, grid)
    config = write_config(
        tmp / "c.yaml",
        road={"file": str(road_path)},
        scenario={"target_speed_kmh": 54.0},
        batch={"n": 1, "dt": 0.001},
        calibration={"stages": [["k_tire"]], "max_iter": 25},
    )
    cfg = load_config(config)
    scenario = Scenario(road=build_road(cfg), target_speed=cfg.target_speed)
    from ridekit.calibration import apply_parameters

    front, rear = apply_parameters(default_car(), default_car(), {"k_tire": 300000.0})
    run = simulate(scenario, front, default_geometry(), dt=cfg.dt, rear_params=rear)
    ref_path = tmp / "reference.csv"
    write_response_csv(ref_path, run)
    return config, ref_path, tmp


class TestAnalyze:
    def test_outputs_written(self, bundle):
        _, out, _ = bundle
        expected = {
            "manifest.json",
            "sample_plan.csv",
            "failures.csv",
            "space_signals.csv",
            "threshold_report.csv",
            "iso_report.csv",
            "iso_windows.csv",
            "iri_report.csv",
            "iri_windows.csv",
            "comparison.txt",
        }
        assert expected <= {p.name for p in out.iterdir()}

    def test_manifest_hashes_match_files(self, bundle):
        import hashlib

        _, out, _ = bundle
        manifest = json.loads((out / "manifest.json").read_text())
        for name, digest in manifest["outputs"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    def test_window_counts_consistent(self, bundle):
        _, out, _ = bundle
        lines = (out / "iso_report.csv").read_text().strip().splitlines()[1:]
        totals = {int(parts[1]) + int(parts[3]) for parts in (line.split(",") for line in lines)}
        assert len(totals) == 1  # C + N identical across categories
        centers = {}
        for name in ("iso_windows.csv", "iri_windows.csv"):
            rows = (out / name).read_text().strip().splitlines()[1:]
            centers[name] = [row.split(",")[0] for row in rows]
        assert centers["iso_windows.csv"] == centers["iri_windows.csv"]
        assert totals == {len(centers["iso_windows.csv"])}
        for row in (out / "threshold_report.csv").read_text().strip().splitlines()[1:]:
            _, _, c, _, n, _ = row.split(",")
            assert int(c) + int(n) == len(centers["iso_windows.csv"])

    @pytest.mark.parametrize(
        "synthetic, segment_m",
        [
            ({"length": 104.95, "step": 0.05, "roughness_class": "C"}, 5.0),
            ({"length": 100.0, "step": 0.1, "roughness_class": "C"}, 3.0),
            ({"length": 200.0, "step": 0.1, "roughness_class": "C"}, 50.0),
        ],
        ids=["road_past_last_window", "segments_short_of_road_end", "segments_longer_than_window"],
    )
    def test_methods_share_one_window_partition(self, tmp_path, synthetic, segment_m):
        # window k is the same stretch of road for the threshold, ISO and IRI methods
        path = write_config(
            tmp_path / "c.yaml",
            seed=5,
            road={"synthetic": synthetic},
            batch={"n": 2, "dt": 0.002},
            iri={"segment_m": segment_m, "speed_kmh": 80.0},
        )
        cfg = load_config(path)
        out = tmp_path / "out"
        analyze(cfg, out)
        centers = {}
        for name in ("iso_windows.csv", "iri_windows.csv"):
            rows = (out / name).read_text().strip().splitlines()[1:]
            centers[name] = [float(row.split(",")[0]) for row in rows]
        assert centers["iso_windows.csv"] == centers["iri_windows.csv"]
        windows = len(centers["iso_windows.csv"])
        assert windows == int(synthetic["length"] // cfg.window_m)
        assert centers["iso_windows.csv"][0] == pytest.approx(cfg.window_m / 2)  # synthetic roads start at 0
        for name in ("threshold_report.csv", "iso_report.csv", "iri_report.csv"):
            for row in (out / name).read_text().strip().splitlines()[1:]:
                parts = row.split(",")
                assert int(parts[-4]) + int(parts[-2]) == windows, (name, row)

    def test_one_segment_longer_than_the_windows(self, tmp_path):
        path = write_config(
            tmp_path / "c.yaml",
            road={"synthetic": {"length": 150.0, "step": 0.1, "roughness_class": "C"}},
            batch={"n": 2, "dt": 0.002},
            iri={"segment_m": 100.0, "speed_kmh": 80.0},
        )
        cfg = load_config(path)
        summary = analyze(cfg, tmp_path / "out")
        grid = build_road(cfg)
        profile = road.wheel_track_profile(grid, 0.0, cfg.smoothing)
        (segment,) = compute_iri(profile, grid.grid_step, speed=80.0 / 3.6, segment_length=100.0)
        iri_windows = summary["reports"]["iri"]
        assert iri_windows.report.total_windows == 30
        np.testing.assert_allclose(iri_windows.iri, segment.iri, rtol=1e-12)

    @pytest.mark.parametrize("ds", [0.1, 0.3])
    def test_each_window_reads_its_own_segment(self, tmp_path, ds):
        # 0.3 m does not divide the 5 m segments: the samples of window k
        # still take segment k's index from their position
        synthetic = {"length": 300.0, "step": 0.1, "roughness_class": "C",
                     "patch": {"start": 120.0, "length": 60.0, "roughness_class": "E"}}
        path = write_config(
            tmp_path / "c.yaml",
            seed=3,
            road={"synthetic": synthetic},
            batch={"n": 2, "dt": 0.002},
            analysis={"window_m": 5.0, "ds": ds, "methods": ["iri"]},
        )
        cfg = load_config(path)
        summary = analyze(cfg, tmp_path / "out")
        grid = build_road(cfg)
        profile = road.wheel_track_profile(grid, 0.0, cfg.smoothing)
        segments = compute_iri(profile, grid.grid_step, speed=80.0 / 3.6, segment_length=5.0)
        iri_windows = summary["reports"]["iri"]
        assert len(segments) == iri_windows.report.total_windows == 60
        np.testing.assert_allclose(iri_windows.iri, [segment.iri for segment in segments], rtol=1e-12)

    def test_smooth_road_all_quiet(self, tmp_path):
        path = write_config(
            tmp_path / "c.yaml",
            road={"synthetic": {"length": 200.0, "step": 0.1, "roughness_class": "A"}},
            batch={"n": 2, "dt": 0.002},
        )
        cfg = load_config(path)
        summary = analyze(cfg, tmp_path / "out")
        iso = summary["reports"]["iso"]
        assert set(iso.labels) == {"NU"}
        threshold = summary["reports"]["threshold"]
        for axis in ("x", "y"):
            for style in ("PT", "ND", "AG"):
                assert threshold[(axis, style)].rows[0].c == 0

    def test_cli_analyze_and_determinism(self, tmp_path):
        config = write_config(tmp_path / "c.yaml", batch={"n": 2, "dt": 0.002})
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["analyze", "--config", str(config), "--out", str(out1)]) == 0
        assert main(["analyze", "--config", str(config), "--out", str(out2)]) == 0
        for p1 in sorted(out1.iterdir()):
            assert p1.read_bytes() == (out2 / p1.name).read_bytes(), p1.name


    def test_out_of_lane_row_fails_alone_and_bundle_completes(self, tmp_path):
        # the two stratified l_p draws land in [0, 1.5) and [1.5, 3): one run
        # stays in the lane, the other is outside it
        path = write_config(
            tmp_path / "c.yaml",
            road={"synthetic": {"length": 200.0, "step": 0.1, "roughness_class": "B", "lateral_span": 2.5}},
            scenario={
                "target_speed_kmh": 54.0,
                "lane_half_width": 1.5,
                "distributions": {"l_p": {"kind": "uniform", "a": 0.0, "b": 3.0}},
            },
            batch={"n": 2, "dt": 0.002},
        )
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(path), "--out", str(out)]) == 0
        failures = (out / "failures.csv").read_text().splitlines()[1:]
        assert len(failures) == 1 and "lane half width" in failures[0]
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["outputs"]) == {p.name for p in out.iterdir()} - {"manifest.json"}
        assert "iri_report.csv" in manifest["outputs"]

    def test_run_too_short_for_iso_weighting_is_a_failure_row(self, tmp_path, capsys):
        # 100 m at 1000 km/h lasts 0.36 s, under the 1 s the ISO weighting needs
        path = write_config(
            tmp_path / "c.yaml",
            road={"synthetic": {"length": 100.0, "step": 0.1, "roughness_class": "C"}},
            scenario={"target_speed_kmh": 1000.0},
            batch={"n": 2, "dt": 0.002},
        )
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error [ConfigError]: every run in the batch failed") and err.count("\n") == 1
        failures = (out / "failures.csv").read_text().splitlines()[1:]
        assert failures == [f"{i},signal must cover at least 1 s" for i in range(2)]
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["outputs"]) == {p.name for p in out.iterdir()} - {"manifest.json"}
        assert set(manifest["outputs"]) == {"sample_plan.csv", "failures.csv"}


class TestBatchMatchesSingleRuns:
    def test_each_row_reduces_as_its_single_run(self, tmp_path, monkeypatch):
        # the reduction analyze applies in its batch gives, for every row that
        # succeeds, what it gives for a direct simulate of that row, bit for
        # bit: the per-window a_v it keeps and the space series it merges;
        # two of the four l_p strata lie past the 1.5 m lane, so two rows fail
        calls, merges = [], []
        original = sampling.run_batch

        def recording(plan, scenario, params, geometry, reduce, **kwargs):
            batch = original(plan, scenario, params, geometry, reduce, **kwargs)
            calls.append((plan, scenario, params, geometry, reduce, kwargs, batch))
            return batch

        class RecordingAggregate(signals.aggregate):
            def __init__(self, aggregator):
                super().__init__(aggregator)
                self.added = []
                merges.append(self)

            def add(self, run):
                self.added.append(run)
                super().add(run)

        monkeypatch.setattr(sampling, "run_batch", recording)
        monkeypatch.setattr(signals, "aggregate", RecordingAggregate)
        path = write_config(
            tmp_path / "c.yaml",
            road={"synthetic": {"length": 200.0, "step": 0.1, "roughness_class": "C", "lateral_span": 2.5}},
            scenario={
                "target_speed_kmh": 54.0,
                "lane_half_width": 1.5,
                "distributions": {"l_p": {"kind": "uniform", "a": 0.0, "b": 3.0}},
            },
            batch={"n": 4, "dt": 0.002},
        )
        cfg = load_config(path)
        analyze(cfg, tmp_path / "out")
        [(plan, scenario, params, geometry, reduce, kwargs, batch)] = calls
        failed = [i for i, _ in batch.failures]
        assert len(failed) == 2
        kept = [i for i in range(plan.n) if i not in failed]
        channels = ("ax", "ay", "az", "vx")  # the merges in the order analyze makes them
        assert len(merges) == len(channels)
        assert all(len(merge.added) == len(kept) for merge in merges)
        for k, (i, a_v) in enumerate(zip(kept, batch.reduced, strict=True)):
            run = simulate(scenario.with_inputs(**plan.row_inputs(i)), params, geometry, **kwargs)
            single_space = signals.to_space(run, channels, cfg.ds)
            for ch, merge in zip(channels, merges):
                series = merge.added[k]
                assert (series.s0, series.ds) == (single_space[ch].s0, single_space[ch].ds)
                assert np.array_equal(series.values, single_space[ch].values)
            single_a_v = reduce(run)
            assert len(a_v) == 40 and np.array_equal(a_v, single_a_v)


class TestSharedWork:
    def test_analyze_builds_the_surface_once(self, tmp_path, monkeypatch):
        # every wheel track of every run and the IRI track read one surface
        builds = []

        class CountingSurface(road.SurfaceInterpolator):
            def __init__(self, *args, **kwargs):
                builds.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(road, "SurfaceInterpolator", CountingSurface)
        cfg = load_config(write_config(tmp_path / "c.yaml"))
        summary = analyze(cfg, tmp_path / "out")
        assert set(summary["reports"]) == {"threshold", "iso", "iri"}
        assert cfg.n == 3 and summary["failures"] == []
        assert len(builds) == 1

    def test_analyze_designs_one_filter_per_axis(self, tmp_path, monkeypatch):
        designs, weighted = [], []
        original_design, original_weight = iso2631._design, iso2631.weight_signal

        def counting_design(spec, sample_rate):
            designs.append((spec.weighting_id, sample_rate))
            return original_design(spec, sample_rate)

        def counting_weight(*args):
            weighted.append(1)
            return original_weight(*args)

        monkeypatch.setattr(iso2631, "_DESIGNS", {})
        monkeypatch.setattr(iso2631, "_design", counting_design)
        monkeypatch.setattr(iso2631, "weight_signal", counting_weight)
        weightings = {"x": "d", "y": "c", "z": "k"}
        config = write_config(tmp_path / "c.yaml", analysis={"window_m": 5.0, "ds": 0.1, "weightings": weightings})
        cfg = load_config(config)
        analyze(cfg, tmp_path / "out")
        assert sorted(designs) == sorted((wid, 1.0 / cfg.dt) for wid in weightings.values())
        assert len(weighted) == cfg.n * len(weightings)

    def test_analyze_after_another_car_repeats_its_bundle(self, tmp_path):
        # the corner discretisations of the first car are cached in the process;
        # another car in between must neither see them nor change them
        base = load_config(write_config(tmp_path / "a.yaml", batch={"n": 2, "dt": 0.002}))
        other = load_config(
            write_config(
                tmp_path / "b.yaml",
                batch={"n": 2, "dt": 0.002},
                vehicle={"front": {"k_s": 30000.0, "c_s": 2500.0}},
            )
        )
        outs = [tmp_path / name for name in ("o1", "o2", "o3")]
        for cfg, out in zip((base, other, base), outs, strict=True):
            analyze(cfg, out)
        first, second, third = ({p.name: p.read_bytes() for p in out.iterdir()} for out in outs)
        assert first == third
        assert first["space_signals.csv"] != second["space_signals.csv"]


class TestCliMatchesPipeline:
    def test_thresholds_cli_reproduces_single_run_bundle(self, tmp_path):
        config = write_config(
            tmp_path / "c.yaml",
            road={"synthetic": {"length": 200.0, "step": 0.1, "roughness_class": "E"}},
            batch={"n": 1, "dt": 0.002},
            analysis={"window_m": 1.0, "ds": 0.1, "methods": ["threshold"]},
        )
        cfg = load_config(config)
        row = lhs(cfg.distributions, cfg.n, cfg.seed).row_inputs(0)
        scenario = Scenario(
            road=build_road(cfg),
            target_speed=cfg.target_speed,
            lane_half_width=cfg.lane_half_width,
            smoothing=cfg.smoothing,
        ).with_inputs(**row)
        trace = tmp_path / "trace.csv"
        write_response_csv(trace, simulate(scenario, cfg.front, cfg.geometry, dt=cfg.dt, rear_params=cfg.rear))
        analyze(cfg, tmp_path / "bundle")
        out = tmp_path / "thresholds.csv"
        argv = ["thresholds", "--trace", str(trace), "--ds", str(cfg.ds), "--window", str(cfg.window_m)]
        assert main(argv + ["--out", str(out)]) == 0
        bundle_report = (tmp_path / "bundle" / "threshold_report.csv").read_bytes()
        assert out.read_bytes() == bundle_report
        assert any(int(line.split(",")[2]) > 0 for line in bundle_report.decode().splitlines()[1:])


class TestCalibrateCommand:
    def test_known_truth_recovery_and_report(self, reference_file):
        config, ref_path, tmp = reference_file
        cfg = load_config(config)
        result = calibrate(cfg, ref_path, tmp / "out")
        assert result.completed
        assert abs(result.params["k_tire"] - 300000.0) / 300000.0 < 0.02
        report = json.loads((tmp / "out" / "calibration_report.json").read_text())
        improvement = report["channel_nrmse"]["az"]["improvement_percent"]
        assert improvement is not None and improvement >= 0.0
        assert report["completed"] is True
        assert report["stages"][0]["parameters"] == ["k_tire"]

    def test_report_reuses_the_chains_drive_plan(self, reference_file, tmp_path, monkeypatch):
        # the report's before and after points add no speed-loop run to the
        # one plan per friction change that the chain's own evaluations need
        from ridekit import calibration, vehicle

        config, ref_path, _ = reference_file
        doc = yaml.safe_load(config.read_text())
        doc["calibration"] = {"stages": [["mu_tire"], ["k_tire"]], "max_iter": 10}
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(doc))
        in_chain, frictions, loops = [], [], []
        run_chain, simulate, track_speed = calibration.run_chain, calibration.simulate, vehicle._track_speed

        def marking_run_chain(*args, **kwargs):
            in_chain.append(True)
            try:
                return run_chain(*args, **kwargs)
            finally:
                in_chain.pop()

        def recording_simulate(scenario, params, *args, **kwargs):
            if in_chain:
                frictions.append(scenario.mu_rs * params.mu_tire)
            return simulate(scenario, params, *args, **kwargs)

        def counting_track_speed(*args):
            loops.append(1)
            return track_speed(*args)

        monkeypatch.setattr(calibration, "run_chain", marking_run_chain)
        monkeypatch.setattr(calibration, "simulate", recording_simulate)
        monkeypatch.setattr(vehicle, "_track_speed", counting_track_speed)
        assert calibrate(load_config(path), ref_path, tmp_path / "out").completed
        assert len(set(frictions)) > 1
        assert len(loops) == 1 + sum(a != b for a, b in zip(frictions, frictions[1:]))

    def test_reference_missing_columns_listed(self, reference_file, tmp_path):
        config, ref_path, _ = reference_file
        run = read_response_csv(ref_path)
        partial = tmp_path / "partial.csv"
        t = run.v_x.t
        cols = ["t", "vx", "ax", "az", "s"]
        rows = np.column_stack([t, run.v_x.values, run.a_x.values, run.a_z.values, run.s.values])
        partial.write_text(
            ",".join(cols) + "\n" + "\n".join(",".join(repr(float(v)) for v in row) for row in rows) + "\n"
        )
        cfg = load_config(config)
        result = calibrate(cfg, partial, tmp_path / "out")
        assert result.completed
        report = json.loads((tmp_path / "out" / "calibration_report.json").read_text())
        skipped = {name for name, _ in map(tuple, report["skipped_channels"])}
        assert {"ay", "phi_rate", "theta_rate", "psi_rate"} <= skipped

    def test_malformed_reference_reports_line(self, reference_file, tmp_path):
        config, _, _ = reference_file
        bad = tmp_path / "bad.csv"
        bad.write_text("t,vx,ax,ay,az,phi_rate,theta_rate,psi_rate,s\n0,1,2,3,4,5,6,7,8\n0.1,zz,2,3,4,5,6,7,8\n")
        cfg = load_config(config)
        with pytest.raises(Exception, match="line 3"):
            calibrate(cfg, bad, tmp_path / "out")

    def test_cli_exit_codes(self, reference_file, tmp_path):
        config, ref_path, _ = reference_file
        out = tmp_path / "cli_out"
        code = main(["calibrate", "--config", str(config), "--reference", str(ref_path), "--out", str(out)])
        assert code == 0
        assert main(["analyze", "--config", "/nonexistent.yaml"]) == 2


class TestSmallCommands:
    def test_sample_plan_cli(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.yaml")
        out = tmp_path / "plan.csv"
        assert main(["sample-plan", "--config", str(config), "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header == "v_dev,l_p,mu_rs"

    def test_iri_cli(self, tmp_path):
        profile = tmp_path / "profile.csv"
        s = 0.1 * np.arange(1200)
        z = 0.003 * np.sin(2 * np.pi * s / 8.0)
        profile.write_text("station,elevation\n" + "\n".join(f"{a},{b}" for a, b in zip(s, z)) + "\n")
        out = tmp_path / "iri.csv"
        assert main(["iri", "--profile", str(profile), "--segment", "50", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "s_start,iri,label"
        assert len(lines) == 3  # 119.9 m -> 2 segments
        # comment lines, blank lines and no header read the same
        bare = tmp_path / "bare.csv"
        bare.write_text("# site\n" + "\n".join(f"{a},{b}" for a, b in zip(s, z)) + "\n\n  # end\n")
        assert main(["iri", "--profile", str(bare), "--segment", "50", "--out", str(tmp_path / "bare_iri.csv")]) == 0
        assert (tmp_path / "bare_iri.csv").read_text() == out.read_text()

    @pytest.mark.parametrize(
        "row, message",
        [("0.2", "line 4: expected 2 fields, got 1"), ("0.2,x", "line 4: non-numeric value")],
        ids=["short", "non_numeric"],
    )
    def test_iri_cli_bad_row_names_its_line(self, tmp_path, capsys, row, message):
        profile = tmp_path / "profile.csv"
        profile.write_text(f"station,elevation\n0.0,0.0\n0.1,0.0\n{row}\n0.3,0.0\n")
        assert main(["iri", "--profile", str(profile), "--segment", "0.1"]) == 2
        err = capsys.readouterr().err
        assert "error [InvalidInput]" in err and message in err

    @pytest.mark.parametrize(
        "stations", [(0.0, 0.1, 0.25), (0.0, 0.1, 0.1), (0.2, 0.1, 0.0)], ids=["gap", "repeat", "decreasing"]
    )
    def test_iri_cli_non_uniform_stations_fail(self, tmp_path, capsys, stations):
        profile = tmp_path / "profile.csv"
        profile.write_text("station,elevation\n" + "".join(f"{s},0.0\n" for s in stations))
        assert main(["iri", "--profile", str(profile), "--segment", "0.1"]) == 2
        assert "profile stations must be uniformly increasing" in capsys.readouterr().err

    def test_iri_cli_zero_classify_speed_fails(self, tmp_path, capsys):
        profile = tmp_path / "profile.csv"
        s = 0.1 * np.arange(1200)
        profile.write_text("station,elevation\n" + "\n".join(f"{a},0.0" for a in s) + "\n")
        out = tmp_path / "iri.csv"
        args = ["iri", "--profile", str(profile), "--segment", "50", "--classify-speed-kmh", "0", "--out", str(out)]
        assert main(args) == 2
        assert "error [InvalidInput]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flags",
        [("iri", ["--speed-kmh", "nan"]), ("iri", ["--speed-kmh", "inf"]), ("iri", ["--segment", "nan"]),
         ("thresholds", ["--window", "nan"]), ("thresholds", ["--ds", "nan"])],
        ids=["iri_speed_nan", "iri_speed_inf", "iri_segment_nan", "thresholds_window_nan", "thresholds_ds_nan"],
    )
    def test_non_finite_flag_fails_with_one_line(self, tmp_path, capsys, class_c_run, command, flags):
        profile = tmp_path / "profile.csv"
        profile.write_text("station,elevation\n" + "\n".join(f"{0.1 * k},0.0" for k in range(1200)) + "\n")
        trace = tmp_path / "trace.csv"
        write_response_csv(trace, class_c_run)
        out = tmp_path / "out.csv"
        source = ["--profile", str(profile)] if command == "iri" else ["--trace", str(trace)]
        assert main([command, *source, *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error [InvalidInput]")
        assert not out.exists()

    def test_iso_cli(self, tmp_path, class_c_run):
        trace = tmp_path / "trace.csv"
        write_response_csv(trace, class_c_run)
        out = tmp_path / "iso.csv"
        assert main(["iso", "--trace", str(trace), "--out", str(out)]) == 0
        header, row = out.read_text().strip().splitlines()
        assert header.startswith("ax_w_rms")
        assert row.split(",")[4] in ("NU", "LU", "FU", "U", "VU", "EU")

    def test_thresholds_cli(self, tmp_path, class_c_run):
        trace = tmp_path / "trace.csv"
        write_response_csv(trace, class_c_run)
        out = tmp_path / "bands.csv"
        assert main(["thresholds", "--trace", str(trace), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 10  # header + 3 axes x 3 styles


def run_fresh(script, *args):
    """Run ``script`` in a new interpreter that imports this ``ridekit``; return its last output line."""
    src = str(Path(ridekit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


class TestImportBoundary:
    """Importing the package loads no SciPy and no yaml; each command loads the SciPy it runs.

    scipy.signal (about 0.3 s to import) loads only where an ISO filter runs.
    """

    def test_import_loads_no_scipy_and_no_yaml(self):
        script = """
import sys
import ridekit.cli
print(sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "yaml")))
"""
        assert run_fresh(script) == "[]"

    @pytest.mark.parametrize(
        "command, loaded, not_loaded",
        [
            ("--version", (), ("scipy",)),
            ("thresholds", (), ("scipy",)),
            ("generate-road", (), ("scipy",)),
            ("iri", ("scipy.linalg",), ("scipy.interpolate", "scipy.ndimage", "scipy.special", "scipy.signal")),
            # an unsmoothed grid file: cleaned and read across on numpy alone
            ("calibrate", ("scipy.linalg",), ("scipy.interpolate", "scipy.ndimage", "scipy.special", "scipy.signal")),
        ],
        ids=["version", "thresholds", "generate-road", "iri", "calibrate"],
    )
    def test_each_command_loads_only_the_scipy_it_runs(
        self, command, loaded, not_loaded, reference_file, class_c_run, tmp_path
    ):
        config, ref_path, _ = reference_file
        trace = tmp_path / "trace.csv"
        write_response_csv(trace, class_c_run)
        profile = tmp_path / "profile.csv"
        profile.write_text("station,elevation\n" + "".join(f"{0.1 * k},{0.001 * (k % 3)}\n" for k in range(200)))
        argv = {
            "--version": ["--version"],
            "thresholds": ["thresholds", "--trace", trace, "--out", tmp_path / "bands.csv"],
            "generate-road": [
                "generate-road", "--config", write_config(tmp_path / "c.yaml"), "--out", tmp_path / "road.txt"
            ],
            "iri": ["iri", "--profile", profile, "--segment", "5", "--out", tmp_path / "iri.csv"],
            "calibrate": ["calibrate", "--config", config, "--reference", ref_path, "--out", tmp_path / "calib"],
        }[command]
        script = """
import json, sys
from ridekit import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:  # --version
    code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""
        code, modules = json.loads(run_fresh(script, *argv))
        assert code == 0
        for name in loaded:
            assert name in modules
        for name in not_loaded:
            assert not [m for m in modules if m == name or m.startswith(name + ".")]

    def test_grid_file_and_unsmoothed_tracks_load_no_scipy(self, tmp_path):
        from conftest import bump_event_road
        from ridekit.road import save_grid

        save_grid(tmp_path / "road.txt", bump_event_road(length=100.0))
        script = """
import sys
from ridekit import road
grid = road.load_grid(sys.argv[1])
assert not grid.laterally_uniform
road.wheel_track_profile(grid, 0.3)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
        assert run_fresh(script, tmp_path / "road.txt") == "[]"

    def test_smoothed_surface_loads_scipy_interpolate(self):
        script = """
import sys
from ridekit import road
grid = road.straight_grid(road.synth_profile(20.0, 0.1, "C", seed=1), 0.1)
grid.surface()
before = "scipy.interpolate" in sys.modules
grid.surface(road.SmoothingParams(lambda_x=1e-3))
print([before, "scipy.interpolate" in sys.modules])
"""
        assert run_fresh(script) == "[False, True]"

    def test_commands_without_iso_filters_never_import_scipy_signal(self, reference_file, class_c_run, tmp_path):
        config, ref_path, _ = reference_file
        trace = tmp_path / "trace.csv"
        write_response_csv(trace, class_c_run)
        profile = tmp_path / "profile.csv"
        profile.write_text("station,elevation\n" + "".join(f"{0.1 * k},{0.001 * (k % 3)}\n" for k in range(200)))
        script = """
import sys
from pathlib import Path
from ridekit import cli, pipeline
from ridekit.config import load_config
config, reference, trace, profile, out = sys.argv[1:]
steps = [
    ("import", lambda: 0),
    ("calibrate", lambda: 0 if pipeline.calibrate(load_config(config), reference, Path(out) / "calib").completed else 1),
    ("iri", lambda: cli.main(["iri", "--profile", profile, "--segment", "5", "--out", str(Path(out) / "iri.csv")])),
    ("thresholds", lambda: cli.main(["thresholds", "--trace", trace, "--out", str(Path(out) / "bands.csv")])),
]
print([(name, step(), "scipy.signal" in sys.modules) for name, step in steps])
"""
        seen = run_fresh(script, config, ref_path, trace, profile, tmp_path)
        assert seen == repr([(name, 0, False) for name in ("import", "calibrate", "iri", "thresholds")])

    def test_iso_command_imports_scipy_signal_on_first_use(self, class_c_run, tmp_path):
        trace = tmp_path / "trace.csv"
        write_response_csv(trace, class_c_run)
        out = tmp_path / "iso.csv"
        script = """
import sys
from ridekit import cli
before = "scipy.signal" in sys.modules
code = cli.main(["iso", "--trace", sys.argv[1], "--out", sys.argv[2]])
print([before, code, "scipy.signal" in sys.modules])
"""
        assert run_fresh(script, trace, out) == repr([False, 0, True])
        assert out.read_text().startswith("ax_w_rms")
