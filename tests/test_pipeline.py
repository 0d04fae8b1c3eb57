import json
from importlib import resources

import numpy as np
import pytest
import yaml

from ridekit import iso2631, road, thresholds
from ridekit.cli import main
from ridekit.config import load_config
from ridekit.errors import ConfigError
from ridekit.pipeline import analyze, build_road, calibrate, generate_road
from ridekit.road import load_grid
from ridekit.sampling import lhs
from ridekit.signals import read_response_csv, write_response_csv
from ridekit.vehicle import Scenario, default_car, default_geometry, simulate


def write_config(path, **overrides):
    doc = {
        "seed": 7,
        "road": {"synthetic": {"length": 200.0, "step": 0.1, "roughness_class": "B"}},
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
            ("iri", {"segment_m": 150.0}),
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
        ],
        ids=[
            "aggregator", "iso_reduction", "ds", "weightings", "dt", "segment_m", "speed_kmh", "window_below_ds",
            "segment_below_step", "step", "iri_step", "segment_beyond_road", "one_interpolated_segment",
            "iri_step_grid_file", "window_beyond_road", "offset_step", "lateral_span",
            "lateral_span_inf", "bands_incomplete", "bands_sign", "bands_columns", "k_nan", "k_negative",
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
        doc[section] = {key: value for key, value in {**doc[section], **entry}.items() if value is not None}
        path.write_text(yaml.safe_dump(doc))
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(path), "--out", str(out)]) == 2
        assert "error [ConfigError]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "entry",
        [
            {"p0": {"k_tire": 300000.0, "k_tyre": 300000.0}},
            {"stages": [["k_tire"], ["d_tire"]], "p0": {"k_tire": 300000.0}},
            {"p0": {"k_tire": 500000.0}},
            {"max_iter": 0},
            {"tol": -1.0},
        ],
        ids=["p0_unknown", "p0_missing", "p0_out_of_bounds", "max_iter", "tol"],
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
        cfg = load_config(path)
        with pytest.raises(Exception, match="length"):
            generate_road(cfg, tmp_path / "r.txt")

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
            scenario={"target_speed_kmh": 54.0, "distributions": {"l_p": {"kind": "uniform", "a": 0.0, "b": 3.0}}},
            batch={"n": 2, "dt": 0.002},
        )
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(path), "--out", str(out)]) == 0
        failures = (out / "failures.csv").read_text().splitlines()[1:]
        assert len(failures) == 1 and "lane half width" in failures[0]
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["outputs"]) == {p.name for p in out.iterdir()} - {"manifest.json"}
        assert "iri_report.csv" in manifest["outputs"]


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

    def test_iri_cli_zero_classify_speed_fails(self, tmp_path, capsys):
        profile = tmp_path / "profile.csv"
        s = 0.1 * np.arange(1200)
        profile.write_text("station,elevation\n" + "\n".join(f"{a},0.0" for a in s) + "\n")
        out = tmp_path / "iri.csv"
        args = ["iri", "--profile", str(profile), "--segment", "50", "--classify-speed-kmh", "0", "--out", str(out)]
        assert main(args) == 2
        assert "error [InvalidInput]" in capsys.readouterr().err
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
