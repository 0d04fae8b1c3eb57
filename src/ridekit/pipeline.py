"""End-to-end flows behind the CLI: road generation, batch analysis, calibration.

Every command writes its outputs plus a ``manifest.json`` carrying the config
hash, the seed, the package version, and the SHA-256 of every written file.
Nothing in the bundle depends on wall-clock time or filesystem ordering, so a
repeated invocation with the same config and seed reproduces the bundle byte
for byte.
"""

from __future__ import annotations

import hashlib
import io
import json
from pathlib import Path

import numpy as np

from . import __version__
from . import calibration as calib_mod
from . import iri as iri_mod
from . import iso2631, road, sampling, sections, signals
from .config import PipelineConfig, config_hash
from .errors import ConfigError
from .vehicle import Scenario

__all__ = ["build_road", "generate_road", "analyze", "calibrate"]


def build_road(cfg: PipelineConfig) -> road.RoadGrid:
    """Load the configured grid file or synthesize the configured road."""
    if cfg.road_file is not None:
        return road.load_grid(cfg.road_file)
    spec = cfg.road_synthetic
    profile = road.synth_profile(spec["length"], spec["step"], spec["roughness_class"], cfg.seed)
    patch = spec.get("patch")
    if patch is not None:
        start = float(patch["start"])
        length = float(patch["length"])
        rough = road.synth_profile(spec["length"], spec["step"], patch["roughness_class"], cfg.seed)
        i0 = int(round(start / spec["step"]))
        i1 = int(round((start + length) / spec["step"]))
        if not (0 <= i0 < i1 <= len(profile)):
            raise ConfigError("road.synthetic.patch lies outside the road")
        profile = profile.copy()
        profile[i0:i1] = rough[i0:i1]
    # close the track with the periodic wrap sample so the stations span the
    # nominal length exactly and every method sees the same window count
    profile = np.concatenate([profile, profile[:1]])
    return road.straight_grid(
        profile, spec["step"], lateral_span=spec["lateral_span"], offset_step=spec["offset_step"]
    )


def _write(out_dir: Path, name: str, text: str, outputs: dict[str, str]) -> None:
    data = text.encode("utf-8")
    (out_dir / name).write_bytes(data)
    outputs[name] = hashlib.sha256(data).hexdigest()


def _write_manifest(out_dir: Path, cfg: PipelineConfig, outputs: dict[str, str]) -> None:
    manifest = {
        "config_sha256": config_hash(cfg),
        "seed": cfg.seed,
        "version": __version__,
        "outputs": dict(sorted(outputs.items())),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def generate_road(cfg: PipelineConfig, out_path) -> Path:
    """Synthesize the configured road and write it as a grid file."""
    if cfg.road_synthetic is None:
        raise ConfigError("generate-road needs road.synthetic in the config")
    grid = build_road(cfg)
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    road.save_grid(out_path, grid)
    return out_path


def _scenario(cfg: PipelineConfig, grid: road.RoadGrid) -> Scenario:
    """The configured base scenario; sampled runs override its stochastic inputs."""
    return Scenario(
        road=grid,
        target_speed=cfg.target_speed,
        lane_half_width=cfg.lane_half_width,
        smoothing=cfg.smoothing,
    )


def _space_signal(runs, channel: str, ds: float, aggregator: str) -> signals.SpaceSeries:
    per_run = [signals.to_space(run, channel, ds) for run in runs]
    return signals.aggregate(per_run, aggregator)


def analyze(cfg: PipelineConfig, out_dir) -> dict:
    """Run the full batch analysis and write the report bundle.

    Returns a summary dict with the reports and the failure list, mainly for
    tests and interactive use; files are the authoritative output.
    """
    grid = build_road(cfg)
    if grid.length < cfg.window_m:
        raise ConfigError(f"analysis.window_m {cfg.window_m:g} m is longer than the {grid.length:g} m road")
    if "iri" in cfg.methods:
        _check_iri_fits(cfg, grid)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs: dict[str, str] = {}

    scenario = _scenario(cfg, grid)
    plan = sampling.lhs(cfg.distributions, cfg.n, cfg.seed)
    _write(out_dir, "sample_plan.csv", plan.to_csv_text(), outputs)

    batch = sampling.run_batch(plan, scenario, cfg.front, cfg.geometry, dt=cfg.dt, rear_params=cfg.rear)
    runs = batch.successful()
    fail_text = "row,reason\n" + "".join(f"{i},{reason}\n" for i, reason in batch.failures)
    _write(out_dir, "failures.csv", fail_text, outputs)
    if not runs:
        _write_manifest(out_dir, cfg, outputs)
        raise ConfigError("every run in the batch failed; see failures.csv")

    summary: dict = {"failures": batch.failures, "reports": {}}
    tables: list[str] = []

    space = {ch: _space_signal(runs, ch, cfg.ds, cfg.aggregator) for ch in ("ax", "ay", "az")}
    rows = zip(space["ax"].positions, space["ax"].values, space["ay"].values, space["az"].values, strict=True)
    text = "s,ax,ay,az\n" + "".join(f"{s:.3f},{ax:.6e},{ay:.6e},{az:.6e}\n" for s, ax, ay, az in rows)
    _write(out_dir, "space_signals.csv", text, outputs)

    if "threshold" in cfg.methods:
        reports, text = sections.find_critical_bands(space, cfg.bands, cfg.window_m)
        _write(out_dir, "threshold_report.csv", text, outputs)
        tables.append(sections.threshold_table(reports))
        summary["reports"]["threshold"] = reports

    if "iso" in cfg.methods:
        weightings = {axis: iso2631.load_weighting(w) for axis, w in cfg.weightings.items()}
        iso_windows = sections.classify_windows_iso(
            runs, cfg.window_m, weightings, cfg.k_factors, cfg.iso_reduction
        )
        _write(out_dir, "iso_report.csv", iso_windows.report.to_csv_text(), outputs)
        centers = 0.5 * (iso_windows.edges[:-1] + iso_windows.edges[1:])
        rows = zip(centers, iso_windows.a_v, iso_windows.labels)
        text = "s_center,a_v,label\n" + "".join(f"{s:.3f},{a_v:.6e},{label}\n" for s, a_v, label in rows)
        _write(out_dir, "iso_windows.csv", text, outputs)
        tables.append(iso_windows.report.format_table())
        summary["reports"]["iso"] = iso_windows

    if "iri" in cfg.methods:
        profile = road.wheel_track_profile(grid, 0.0, cfg.smoothing, grid.grid_step)
        results = iri_mod.compute_iri(
            profile,
            grid.grid_step,
            speed=cfg.iri_speed_kmh / 3.6,
            segment_length=cfg.iri_segment_m,
        )
        iri_series = _iri_space_series(results, grid, cfg)
        speed_series = _space_signal(runs, "vx", cfg.ds, "mean")
        iri_windows = sections.classify_windows_iri(iri_series, speed_series, cfg.window_m)
        _write(out_dir, "iri_report.csv", iri_windows.report.to_csv_text(), outputs)
        centers = 0.5 * (iri_windows.edges[:-1] + iri_windows.edges[1:])
        rows = zip(centers, iri_windows.iri, iri_windows.speed_kmh, iri_windows.labels)
        lines = (f"{s:.3f},{value:.6e},{kmh:.3f},{label}\n" for s, value, kmh, label in rows)
        text = "s_center,iri,speed_kmh,label\n" + "".join(lines)
        _write(out_dir, "iri_windows.csv", text, outputs)
        tables.append(iri_windows.report.format_table())
        summary["reports"]["iri"] = iri_windows

    _write(out_dir, "comparison.txt", "\n\n".join(tables) + "\n", outputs)
    _write_manifest(out_dir, cfg, outputs)
    return summary


def _check_iri_fits(cfg: PipelineConfig, grid: road.RoadGrid) -> None:
    """Fail before any output when the IRI settings cannot run on this road."""
    step = grid.grid_step
    if step > 0.25:
        raise ConfigError(f"the iri method needs a road step of at most 0.25 m, got {step:g} m")
    per_segment = round(cfg.iri_segment_m / step)
    if per_segment < 1:
        raise ConfigError("iri.segment_m must cover at least one road step")
    n_steps = len(signals.uniform_grid(grid.stations[0], grid.length, step)) - 1
    if n_steps * step < cfg.iri_segment_m:
        raise ConfigError(f"iri.segment_m {cfg.iri_segment_m:g} m is longer than the {n_steps * step:g} m road")
    if cfg.iri_segment_m > cfg.window_m + 1e-9 and n_steps // per_segment < 2:
        raise ConfigError("iri.segment_m leaves fewer than two segments; shrink it")


def _iri_space_series(results, grid, cfg: PipelineConfig) -> signals.SpaceSeries:
    """Index values on the analysis grid.

    Segments at or below the window length map piecewise-constant (each window
    averages its own segments); coarser segments are interpolated linearly
    between segment midpoints, mirroring how sparse measured index samples are
    densified.
    """
    values = np.array([r.iri for r in results])
    s0 = float(grid.stations[0])
    if cfg.iri_segment_m <= cfg.window_m + 1e-9:
        per = max(int(round(cfg.iri_segment_m / cfg.ds)), 1)
        dense = np.repeat(values, per)
        return signals.SpaceSeries(s0=s0, ds=cfg.ds, values=dense)
    midpoints = np.array([s0 + r.s_start + 0.5 * r.segment_length for r in results])
    return iri_mod.interpolate_iri(midpoints, values, cfg.ds)


def calibrate(cfg: PipelineConfig, reference_path, out_dir) -> calib_mod.ChainResult:
    """Run the staged calibration against a reference trace and write the report."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs: dict[str, str] = {}

    reference = signals.read_reference_csv(reference_path)
    scenario = _scenario(cfg, build_road(cfg))
    constraints = calib_mod.BoxConstraints.vehicle_defaults()
    chain = cfg.calibration_chain
    names = chain.parameters
    if cfg.calibration_p0:
        p0 = dict(cfg.calibration_p0)
    else:
        p0 = dict(zip(names, constraints.midpoint(names)))
    base_front, base_rear = calib_mod.apply_parameters(cfg.front, cfg.rear, p0)

    residual_fn = calib_mod.simulation_residual(
        scenario, cfg.geometry, reference, base_front, base_rear, dt=cfg.dt
    )
    before = calib_mod.evaluate_residual(
        base_front, scenario, cfg.geometry, reference, dt=cfg.dt, rear_params=base_rear
    )
    result = calib_mod.run_chain(
        chain, p0, residual_fn,
        constraints=constraints, tol=cfg.calibration_tol, max_iter=cfg.calibration_max_iter,
    )
    front, rear = calib_mod.apply_parameters(cfg.front, cfg.rear, result.params)
    after = calib_mod.evaluate_residual(
        front, scenario, cfg.geometry, reference, dt=cfg.dt, rear_params=rear
    )

    report = {
        "completed": result.completed,
        "failure": result.failure,
        "initial_params": p0,
        "final_params": result.params,
        "objective": result.objective if result.stage_reports else None,
        "stages": [
            {
                "parameters": list(sr.stage),
                "objective_before": sr.objective_before,
                "objective_after": sr.objective_after,
                "objective_trace": sr.objective_trace,
                "reason": sr.reason,
            }
            for sr in result.stage_reports
        ],
        "channel_nrmse": _ref_opt_rows(before, after),
        "skipped_channels": [list(item) for item in after.skipped],
    }
    _write(out_dir, "calibration_report.json", json.dumps(report, indent=2, sort_keys=True) + "\n", outputs)
    _write(out_dir, "calibration_table.csv", _ref_opt_csv(before, after), outputs)
    _write_manifest(out_dir, cfg, outputs)
    return result


def _ref_opt_rows(before: calib_mod.Residual, after: calib_mod.Residual) -> dict:
    rows = {}
    for name in sorted(before.channel_nrmse):
        ref = before.channel_nrmse[name]
        opt = after.channel_nrmse.get(name)
        change = None if opt is None or ref == 0 else 100.0 * (ref - opt) / ref
        rows[name] = {"ref": ref, "opt": opt, "improvement_percent": change}
    return rows


def _ref_opt_csv(before: calib_mod.Residual, after: calib_mod.Residual) -> str:
    buf = io.StringIO()
    buf.write("channel,nrmse_ref,nrmse_opt,improvement_percent\n")
    for name, row in _ref_opt_rows(before, after).items():
        opt = "" if row["opt"] is None else f"{row['opt']:.6e}"
        change = "" if row["improvement_percent"] is None else f"{row['improvement_percent']:.4f}"
        buf.write(f"{name},{row['ref']:.6e},{opt},{change}\n")
    return buf.getvalue()
