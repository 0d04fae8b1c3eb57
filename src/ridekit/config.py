"""Pipeline configuration: YAML parsing, validation, and hashing.

A single config file drives every subcommand; unknown keys are rejected so
typos surface instead of silently using defaults.  The SHA-256 of the
canonicalized document goes into the run manifest, which together with the
seed makes report bundles reproducible bit for bit.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import iso2631, thresholds
from .calibration import CALIBRATION_PARAMETERS, OptimizationChain
from .errors import ConfigError, InvalidInput
from .road import ROUGHNESS_PSD_SCALE, SmoothingParams
from .sampling import InputDistribution, default_input_distributions
from .sections import ISO_REDUCTIONS
from .signals import AGGREGATORS
from .vehicle import MAX_DT, QuarterCarParams, SpeedProfile, VehicleGeometry, default_car, default_geometry

__all__ = ["PipelineConfig", "load_config", "config_hash"]

_TOP_KEYS = {"seed", "out_dir", "road", "scenario", "batch", "analysis", "iri", "vehicle", "calibration"}
_METHODS = ("threshold", "iso", "iri")


@dataclass(frozen=True)
class PipelineConfig:
    """Validated pipeline inputs; see the shipped example config for the schema."""

    raw: dict = field(repr=False)
    seed: int
    out_dir: str
    road_file: str | None
    road_synthetic: dict | None
    smoothing: SmoothingParams
    target_speed: SpeedProfile
    lane_half_width: float
    distributions: list[InputDistribution]
    n: int
    dt: float
    window_m: float
    ds: float
    methods: tuple[str, ...]
    aggregator: str
    weightings: dict[str, str]
    k_factors: tuple[float, float, float]
    bands: dict[tuple[str, str], thresholds.ThresholdBand] | None
    iso_reduction: str
    iri_segment_m: float
    iri_speed_kmh: float
    front: QuarterCarParams
    rear: QuarterCarParams
    geometry: VehicleGeometry
    calibration_chain: OptimizationChain
    calibration_p0: dict[str, float] | None
    calibration_tol: float
    calibration_max_iter: int


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"missing field {key!r} in {context}")
    return mapping[key]


def _one_of(value: str, allowed, key: str) -> str:
    if value not in allowed:
        raise ConfigError(f"{key} {value!r} not in {tuple(allowed)}")
    return value


def _check_keys(mapping: dict, allowed: set[str], context: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown field(s) {sorted(unknown)} in {context}")


def _parse_speed(scenario: dict) -> SpeedProfile:
    if "profile" in scenario:
        pairs = scenario["profile"]
        try:
            s = np.array([float(p[0]) for p in pairs])
            v = np.array([float(p[1]) / 3.6 for p in pairs])
        except (TypeError, IndexError):
            raise ConfigError("scenario.profile must be a list of [s_m, v_kmh] pairs") from None
        return SpeedProfile(breakpoints=s, speeds=v)
    kmh = scenario.get("target_speed_kmh", 80.0)
    if not (kmh > 0):
        raise ConfigError("scenario.target_speed_kmh must be > 0")
    return SpeedProfile.constant(kmh / 3.6)


def _parse_distributions(spec: dict) -> list[InputDistribution]:
    dists = {d.name: d for d in default_input_distributions()}
    for name, entry in spec.items():
        if name not in dists:
            raise ConfigError(f"unknown scenario variable {name!r} in scenario.distributions")
        kind = _require(entry, "kind", f"distribution {name!r}")
        if kind == "gaussian":
            params = (float(_require(entry, "mu", name)), float(_require(entry, "sigma", name)))
        elif kind == "uniform":
            params = (float(_require(entry, "a", name)), float(_require(entry, "b", name)))
        else:
            raise ConfigError(f"distribution {name!r}: unknown kind {kind!r}")
        dists[name] = InputDistribution(name, kind, params)
    return [dists[name] for name in ("v_dev", "l_p", "mu_rs")]


def _parse_quarter_car(entry: dict | None, context: str) -> QuarterCarParams:
    base = default_car()
    if not entry:
        return base
    allowed = {"m_s", "m_u", "k_s", "c_s", "k_t", "d_t", "mu_tire"}
    _check_keys(entry, allowed, context)
    kwargs = {k: float(v) for k, v in entry.items()}
    return QuarterCarParams(**{**base.__dict__, **kwargs})


def load_config(
    path,
    seed: int | None = None,
    out_dir: str | None = None,
    methods: tuple[str, ...] | None = None,
) -> PipelineConfig:
    """Parse and validate a YAML config file; CLI overrides win over the file."""
    try:
        return _load_config(path, seed=seed, out_dir=out_dir, methods=methods)
    except ConfigError:
        raise
    except (TypeError, ValueError, AttributeError) as exc:
        raise ConfigError(f"invalid value in config {path}: {exc}") from exc


def _load_config(path, seed: int | None, out_dir: str | None, methods: tuple[str, ...] | None) -> PipelineConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    with open(path, "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh) or {}
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    _check_keys(raw, _TOP_KEYS, "config")

    road = raw.get("road", {})
    _check_keys(road, {"file", "synthetic", "smoothing"}, "road")
    road_file = road.get("file")
    if road_file is not None and not Path(road_file).exists():
        raise ConfigError(f"road.file {road_file!r} does not exist")
    road_synthetic = None
    if "synthetic" in road:
        synth = road["synthetic"]
        _check_keys(synth, {"length", "step", "roughness_class", "lateral_span", "offset_step", "patch"}, "road.synthetic")
        length = float(_require(synth, "length", "road.synthetic"))
        step = float(synth.get("step", 0.1))
        if not (step > 0):
            raise ConfigError("road.synthetic.step must be > 0")
        klass = str(_require(synth, "roughness_class", "road.synthetic")).upper()
        _one_of(klass, ROUGHNESS_PSD_SCALE, "road.synthetic.roughness_class")
        patch = synth.get("patch")
        if patch is not None:
            _check_keys(patch, {"start", "length", "roughness_class"}, "road.synthetic.patch")
            pklass = str(_require(patch, "roughness_class", "road.synthetic.patch")).upper()
            _one_of(pklass, ROUGHNESS_PSD_SCALE, "road.synthetic.patch.roughness_class")
        lateral_span = float(synth.get("lateral_span", 2.0))
        offset_step = float(synth.get("offset_step", 0.5))
        if not (offset_step > 0):
            raise ConfigError("road.synthetic.offset_step must be > 0")
        if not np.isfinite(lateral_span) or round(2 * lateral_span / offset_step) < 1:
            raise ConfigError("road.synthetic.lateral_span must be finite and give at least two lateral offsets")
        road_synthetic = {
            "length": length,
            "step": step,
            "roughness_class": klass,
            "lateral_span": lateral_span,
            "offset_step": offset_step,
            "patch": patch,
        }
    if road_file is None and road_synthetic is None:
        raise ConfigError("road needs either 'file' or 'synthetic'")
    if road_file is not None and road_synthetic is not None:
        raise ConfigError("road takes either 'file' or 'synthetic', not both")
    smoothing_entry = road.get("smoothing", {})
    _check_keys(smoothing_entry, {"lambda_x", "lambda_y", "lambda_z"}, "road.smoothing")
    smoothing = SmoothingParams(
        lambda_x=float(smoothing_entry.get("lambda_x", 0.0)),
        lambda_y=float(smoothing_entry.get("lambda_y", 0.0)),
        lambda_z=float(smoothing_entry.get("lambda_z", 0.0)),
    )

    scenario = raw.get("scenario", {})
    _check_keys(scenario, {"target_speed_kmh", "profile", "lane_half_width", "distributions"}, "scenario")
    target_speed = _parse_speed(scenario)
    lane_half_width = float(scenario.get("lane_half_width", 1.5))
    distributions = _parse_distributions(scenario.get("distributions", {}))
    speed_given = "profile" in scenario or "target_speed_kmh" in scenario

    batch = raw.get("batch", {})
    _check_keys(batch, {"n", "dt"}, "batch")
    n = int(batch.get("n", 50))
    if n < 1:
        raise ConfigError("batch.n must be >= 1")
    dt = float(batch.get("dt", 1e-3))
    if not (0 < dt <= MAX_DT):
        raise ConfigError(f"batch.dt must be in (0, {MAX_DT}] s")

    analysis = raw.get("analysis", {})
    _check_keys(
        analysis,
        {"window_m", "ds", "methods", "aggregator", "weightings", "k_factors", "bands_file", "iso_reduction"},
        "analysis",
    )
    if methods is None:
        methods = tuple(analysis.get("methods", list(_METHODS)))
    for m in methods:
        _one_of(m, _METHODS, "analysis.methods entry")
    bands_file = analysis.get("bands_file")
    if bands_file is not None and not Path(bands_file).exists():
        raise ConfigError(f"analysis.bands_file {bands_file!r} does not exist")
    bands = None
    if "threshold" in methods:
        try:
            bands = thresholds.load_bands(bands_file)
        except InvalidInput as exc:
            raise ConfigError(f"analysis.bands_file: {exc}") from exc
    window_m = float(analysis.get("window_m", 5.0))
    if window_m <= 0:
        raise ConfigError("analysis.window_m must be > 0")
    if "iri" in methods and not speed_given:
        raise ConfigError(
            "the iri method applies speed-dependent thresholds: set "
            "scenario.target_speed_kmh or scenario.profile explicitly"
        )
    ds = float(analysis.get("ds", 0.1))
    if not (ds > 0):
        raise ConfigError("analysis.ds must be > 0")
    if window_m < ds:
        raise ConfigError("analysis.window_m must be >= analysis.ds")
    aggregator = _one_of(str(analysis.get("aggregator", "mean")), AGGREGATORS, "analysis.aggregator")
    iso_reduction = _one_of(str(analysis.get("iso_reduction", "mean")), ISO_REDUCTIONS, "analysis.iso_reduction")
    weightings = {str(k): str(v) for k, v in analysis.get("weightings", iso2631.DEFAULT_WEIGHTINGS).items()}
    _check_keys(weightings, {"x", "y", "z"}, "analysis.weightings")
    for axis, wid in weightings.items():
        _one_of(wid.lower(), iso2631.available_weightings(), f"analysis.weightings.{axis}")
    k_factors = tuple(float(k) for k in analysis.get("k_factors", [1.0, 1.0, 1.0]))
    if len(k_factors) != 3 or not all(np.isfinite(k) and k >= 0 for k in k_factors):
        raise ConfigError("analysis.k_factors must hold three finite values >= 0")

    iri_entry = raw.get("iri", {})
    _check_keys(iri_entry, {"segment_m", "speed_kmh"}, "iri")
    iri_segment_m = float(iri_entry.get("segment_m", 5.0))
    if not (iri_segment_m > 0):
        raise ConfigError("iri.segment_m must be > 0")
    iri_speed_kmh = float(iri_entry.get("speed_kmh", 80.0))
    if not (iri_speed_kmh > 0):
        raise ConfigError("iri.speed_kmh must be > 0")

    vehicle_entry = raw.get("vehicle", {})
    _check_keys(vehicle_entry, {"front", "rear", "geometry"}, "vehicle")
    front = _parse_quarter_car(vehicle_entry.get("front"), "vehicle.front")
    rear = _parse_quarter_car(vehicle_entry.get("rear", vehicle_entry.get("front")), "vehicle.rear")
    geo_entry = vehicle_entry.get("geometry", {})
    _check_keys(geo_entry, {"wheelbase", "track_width"}, "vehicle.geometry")
    geometry = VehicleGeometry(**{**default_geometry().__dict__, **{k: float(v) for k, v in geo_entry.items()}})

    calib = raw.get("calibration", {})
    _check_keys(calib, {"stages", "p0", "tol", "max_iter"}, "calibration")
    if "stages" in calib:
        stages = tuple(tuple(str(name) for name in stage) for stage in calib["stages"])
        for stage in stages:
            for name in stage:
                if name not in CALIBRATION_PARAMETERS:
                    raise ConfigError(f"calibration stage parameter {name!r} unknown")
        chain = OptimizationChain(stages=stages)
    else:
        chain = OptimizationChain.default()
    p0 = {str(k): float(v) for k, v in calib.get("p0", {}).items()} or None
    if p0 is not None:
        for name, value in p0.items():
            if name not in CALIBRATION_PARAMETERS:
                raise ConfigError(f"calibration.p0 parameter {name!r} unknown")
            lo, hi = CALIBRATION_PARAMETERS[name]
            if not (lo <= value <= hi):
                raise ConfigError(f"calibration.p0.{name} {value} outside its bounds [{lo}, {hi}]")
        missing = [name for name in chain.parameters if name not in p0]
        if missing:
            raise ConfigError(f"calibration.p0 misses chain parameters {missing}")
    tol = float(calib.get("tol", 1e-12))
    if not (tol >= 0):
        raise ConfigError("calibration.tol must be >= 0")
    max_iter = int(calib.get("max_iter", 60))
    if max_iter < 1:
        raise ConfigError("calibration.max_iter must be >= 1")

    return PipelineConfig(
        raw=raw,
        seed=int(seed if seed is not None else raw.get("seed", 0)),
        out_dir=str(out_dir if out_dir is not None else raw.get("out_dir", "out")),
        road_file=road_file,
        road_synthetic=road_synthetic,
        smoothing=smoothing,
        target_speed=target_speed,
        lane_half_width=lane_half_width,
        distributions=distributions,
        n=n,
        dt=dt,
        window_m=window_m,
        ds=ds,
        methods=methods,
        aggregator=aggregator,
        weightings=weightings,
        k_factors=k_factors,
        bands=bands,
        iso_reduction=iso_reduction,
        iri_segment_m=iri_segment_m,
        iri_speed_kmh=iri_speed_kmh,
        front=front,
        rear=rear,
        geometry=geometry,
        calibration_chain=chain,
        calibration_p0=p0,
        calibration_tol=tol,
        calibration_max_iter=max_iter,
    )


def config_hash(cfg: PipelineConfig) -> str:
    """SHA-256 over the canonicalized config document plus the effective seed."""
    canonical = json.dumps({"config": cfg.raw, "seed": cfg.seed}, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
