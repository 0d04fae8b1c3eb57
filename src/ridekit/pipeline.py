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
from .config import PipelineConfig, check_smoothing_fits, config_hash
from .errors import ConfigError, DomainBoundsError, InvalidInput
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
        rough = road.synth_profile(spec["length"], spec["step"], patch["roughness_class"], cfg.seed)
        i0, i1 = patch["rows"]
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


def _config_error(setting: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, raising its :class:`InvalidInput` as a ``ConfigError`` on ``setting``."""
    try:
        return build(*args, **kwargs)
    except InvalidInput as exc:
        raise ConfigError(f"{setting}: {exc}") from exc


def _preflight(cfg: PipelineConfig, grid: road.RoadGrid, analysis: bool):
    """Every check that needs the road, run before a command makes its output directory.

    Returns the base scenario (sampled runs override its stochastic inputs)
    and, for ``analysis``, the one window partition every method reports on
    and the centre line's IRI segments (``None`` without the iri method).
    """
    check_smoothing_fits(cfg.smoothing, len(grid.stations), len(grid.lateral_offsets))
    scenario = _config_error(
        "scenario", Scenario, grid, cfg.target_speed, lane_half_width=cfg.lane_half_width, smoothing=cfg.smoothing
    )
    reach = cfg.lane_half_width + cfg.geometry.track_width / 2
    try:
        grid.check_offset([-reach, reach])
    except DomainBoundsError as exc:
        reach_name = "scenario.lane_half_width + vehicle.geometry.track_width / 2"
        raise ConfigError(f"a wheel may sit {reach_name} = {reach:g} m off the centre line: {exc}") from None
    if not analysis:
        return scenario, None, None
    edges = _config_error("analysis.window_m", sections.window_edges, grid.stations[0], grid.length, cfg.window_m)
    segments = None
    if "iri" in cfg.methods:
        profile = road.wheel_track_profile(grid, 0.0, cfg.smoothing)
        speed = cfg.iri_speed_kmh / 3.6
        segments = _config_error("iri", iri_mod.compute_iri, profile, grid.grid_step, speed, cfg.iri_segment_m)
    return scenario, edges, segments


def analyze(cfg: PipelineConfig, out_dir) -> dict:
    """Run the full batch analysis and write the report bundle.

    Returns a summary dict with the reports and the failure list, mainly for
    tests and interactive use; files are the authoritative output.
    """
    grid = build_road(cfg)
    scenario, edges, iri_segments = _preflight(cfg, grid, analysis=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs: dict[str, str] = {}

    plan = sampling.lhs(cfg.distributions, cfg.n, cfg.seed)
    _write(out_dir, "sample_plan.csv", plan.to_csv_text(), outputs)

    merged = {ch: signals.aggregate(cfg.aggregator) for ch in ("ax", "ay", "az")}
    if "iri" in cfg.methods:
        merged["vx"] = signals.aggregate("mean")  # the IRI classification speed
    weightings = {axis: iso2631.load_weighting(w) for axis, w in cfg.weightings.items()}

    def reduce(run):
        """Merge a run's space series into ``merged``; keep only its per-window a_v (iso method)."""
        space = signals.to_space(run, tuple(merged), cfg.ds)
        a_v = sections.iso_window_av(run, edges, weightings, cfg.k_factors) if "iso" in cfg.methods else None
        # series of one to_space call share their grid: if the first fits, all do
        for ch, series in space.items():
            merged[ch].add(series)
        return a_v

    batch = sampling.run_batch(plan, scenario, cfg.front, cfg.geometry, reduce, dt=cfg.dt, rear_params=cfg.rear)
    fail_text = "row,reason\n" + "".join(f"{i},{reason}\n" for i, reason in batch.failures)
    _write(out_dir, "failures.csv", fail_text, outputs)
    if not batch.reduced:
        _write_manifest(out_dir, cfg, outputs)
        raise ConfigError("every run in the batch failed; see failures.csv")

    summary: dict = {"failures": batch.failures, "reports": {}}
    tables: list[str] = []

    space = {ch: acc.result() for ch, acc in merged.items()}
    rows = zip(space["ax"].positions, space["ax"].values, space["ay"].values, space["az"].values, strict=True)
    text = "s,ax,ay,az\n" + "".join(f"{s:.3f},{ax:.6e},{ay:.6e},{az:.6e}\n" for s, ax, ay, az in rows)
    _write(out_dir, "space_signals.csv", text, outputs)

    if "threshold" in cfg.methods:
        reports, text = sections.find_critical_bands(space, cfg.bands, edges)
        _write(out_dir, "threshold_report.csv", text, outputs)
        tables.append(sections.threshold_table(reports))
        summary["reports"]["threshold"] = reports

    if "iso" in cfg.methods:
        iso_windows = sections.classify_windows_iso(batch.reduced, edges, cfg.iso_reduction)
        _write(out_dir, "iso_report.csv", iso_windows.report.to_csv_text(), outputs)
        rows = zip(centers, iso_windows.a_v, iso_windows.labels)
        text = "s_center,a_v,label\n" + "".join(f"{s:.3f},{a_v:.6e},{label}\n" for s, a_v, label in rows)
        _write(out_dir, "iso_windows.csv", text, outputs)
        tables.append(iso_windows.report.format_table())
        summary["reports"]["iso"] = iso_windows

    if "iri" in cfg.methods:
        iri_series = _iri_space_series(iri_segments, grid, cfg)
        iri_windows = sections.classify_windows_iri(iri_series, space["vx"], edges)
        _write(out_dir, "iri_report.csv", iri_windows.report.to_csv_text(), outputs)
        rows = zip(centers, iri_windows.iri, iri_windows.speed_kmh, iri_windows.labels)
        lines = (f"{s:.3f},{value:.6e},{kmh:.3f},{label}\n" for s, value, kmh, label in rows)
        text = "s_center,iri,speed_kmh,label\n" + "".join(lines)
        _write(out_dir, "iri_windows.csv", text, outputs)
        tables.append(iri_windows.report.format_table())
        summary["reports"]["iri"] = iri_windows

    _write(out_dir, "comparison.txt", "\n\n".join(tables) + "\n", outputs)
    _write_manifest(out_dir, cfg, outputs)
    return summary


def _iri_space_series(results, grid, cfg: PipelineConfig) -> signals.SpaceSeries:
    """Index values on the analysis grid, from the road start to its end.

    Segments at or below the window length map piecewise-constant by position
    (each window averages its own segments), and the part past the last whole
    segment keeps that segment's value.  Coarser segments are interpolated linearly
    between segment midpoints, mirroring how sparse measured index samples are
    densified, and held constant before the first and after the last.
    """
    values = np.array([r.iri for r in results])
    s0 = float(grid.stations[0])
    positions = signals.uniform_grid(s0, grid.length, cfg.ds)
    if cfg.iri_segment_m <= cfg.window_m + 1e-9:
        index = np.floor((positions - s0) / results[0].segment_length + 1e-9).astype(int)
        dense = values[np.minimum(index, len(values) - 1)]
    else:
        midpoints = np.array([s0 + r.s_start + 0.5 * r.segment_length for r in results])
        dense = np.interp(positions, midpoints, values)
    return signals.SpaceSeries(s0=s0, ds=cfg.ds, values=dense)


def calibrate(cfg: PipelineConfig, reference_path, out_dir) -> calib_mod.ChainResult:
    """Run the staged calibration against a reference trace and write the report."""
    grid = build_road(cfg)
    scenario, _, _ = _preflight(cfg, grid, analysis=False)
    reference = signals.read_reference_csv(reference_path)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs: dict[str, str] = {}

    constraints = calib_mod.BoxConstraints.vehicle_defaults()
    chain = cfg.calibration_chain
    names = chain.parameters
    if cfg.calibration_p0:
        p0 = dict(cfg.calibration_p0)
    else:
        p0 = dict(zip(names, constraints.midpoint(names)))
    base_front, base_rear = calib_mod.apply_parameters(cfg.front, cfg.rear, p0)

    # the report's before and after points reuse the plan the chain's function holds
    residual_fn = calib_mod.simulation_residual(
        scenario, cfg.geometry, reference, base_front, base_rear, dt=cfg.dt
    )
    before = residual_fn(p0)
    result = calib_mod.run_chain(
        chain, p0, lambda values: residual_fn(values).vector,
        constraints=constraints, tol=cfg.calibration_tol, max_iter=cfg.calibration_max_iter,
    )
    after = residual_fn(result.params)
    rows = _ref_opt_rows(before, after)

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
        "channel_nrmse": rows,
        "skipped_channels": [list(item) for item in after.skipped],
    }
    _write(out_dir, "calibration_report.json", json.dumps(report, indent=2, sort_keys=True) + "\n", outputs)
    _write(out_dir, "calibration_table.csv", _ref_opt_csv(rows), outputs)
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


def _ref_opt_csv(rows: dict) -> str:
    buf = io.StringIO()
    buf.write("channel,nrmse_ref,nrmse_opt,improvement_percent\n")
    for name, row in rows.items():
        opt = "" if row["opt"] is None else f"{row['opt']:.6e}"
        change = "" if row["improvement_percent"] is None else f"{row['improvement_percent']:.4f}"
        buf.write(f"{name},{row['ref']:.6e},{opt},{change}\n")
    return buf.getvalue()
