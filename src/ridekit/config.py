"""Pipeline configuration: YAML parsing, validation, and hashing.

A single config file drives every subcommand; unknown keys are rejected so
typos surface instead of silently using defaults.  The SHA-256 of the
canonicalized document goes into the run manifest, which together with the
seed makes report bundles reproducible bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import operator
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import iso2631, thresholds
from .calibration import CALIBRATION_PARAMETERS, OptimizationChain
from .errors import ConfigError, InvalidInput
from .road import _MIN_SMOOTHING_NODES, ROUGHNESS_PSD_SCALE, SmoothingParams
from .sampling import InputDistribution, default_input_distributions
from .sections import ISO_REDUCTIONS
from .signals import AGGREGATORS
from .vehicle import MAX_DT, QuarterCarParams, Scenario, SpeedProfile, VehicleGeometry, default_car, default_geometry

__all__ = ["PipelineConfig", "load_config", "check_smoothing_fits", "config_hash"]

_TOP_KEYS = {"seed", "out_dir", "road", "scenario", "batch", "analysis", "iri", "vehicle", "calibration"}
_METHODS = ("threshold", "iso", "iri")

#: Most samples a synthetic road profile may hold: 1,000 km at 0.1 m.
MAX_PROFILE_SAMPLES = 10**7


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


_BOUNDS = {">": operator.gt, ">=": operator.ge, "<=": operator.le}


def _number(value, key: str, *, above=None, at_least=None, at_most=None, whole: bool = False):
    """``value`` as a finite number within its bounds, and as an ``int`` when ``whole``.

    Every number the config supplies is read here, so NaN, infinity, a
    fractional count or a value past its bound fails the same way wherever
    it appears, and a non-number fails with the name of its setting.  Values
    that build a domain object get no bounds here: the object checks them.
    """
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be a number, got {value!r}") from None
    bounds = [(op, b) for op, b in ((">", above), (">=", at_least), ("<=", at_most)) if b is not None]
    finite = np.isfinite(number) and (number.is_integer() or not whole)
    if not (finite and all(_BOUNDS[op](number, b) for op, b in bounds)):
        rule = " and ".join([f"a finite {'whole ' if whole else ''}number", *(f"{op} {b:g}" for op, b in bounds)])
        raise ConfigError(f"{key} must be {rule}, got {value!r}")
    if whole:
        return int(value) if isinstance(value, int) else int(number)  # a large int seed stays exact
    return number


def _parse_speed(scenario: dict) -> SpeedProfile:
    if "profile" not in scenario:
        kmh = _number(scenario.get("target_speed_kmh", 80.0), "scenario.target_speed_kmh", above=0)
        return SpeedProfile.constant(kmh / 3.6)
    if "target_speed_kmh" in scenario:
        raise ConfigError("scenario.profile and scenario.target_speed_kmh are both set; give one of them")
    pairs = scenario["profile"]
    if not isinstance(pairs, list) or not all(isinstance(p, list) and len(p) == 2 for p in pairs):
        raise ConfigError(f"scenario.profile must be a list of [s_m, v_kmh] pairs, got {pairs!r}")
    s = np.array([_number(p[0], "scenario.profile position") for p in pairs])
    v = np.array([_number(p[1], "scenario.profile speed") / 3.6 for p in pairs])
    try:
        return SpeedProfile(breakpoints=s, speeds=v)
    except InvalidInput as exc:
        raise ConfigError(f"scenario.profile: {exc}") from None


def _parse_distributions(spec: dict) -> list[InputDistribution]:
    dists = {d.name: d for d in default_input_distributions()}
    for name, entry in spec.items():
        if name not in dists:
            raise ConfigError(f"unknown scenario variable {name!r} in scenario.distributions")
        kind = _require(entry, "kind", f"distribution {name!r}")
        keys = {"gaussian": ("mu", "sigma"), "uniform": ("a", "b")}.get(kind)
        if keys is None:
            raise ConfigError(f"distribution {name!r}: unknown kind {kind!r}")
        params = tuple(_number(_require(entry, key, name), f"scenario.distributions.{name}.{key}") for key in keys)
        dists[name] = InputDistribution(name, kind, params)
    return [dists[name] for name in ("v_dev", "l_p", "mu_rs")]


def _parse_quarter_car(entry: dict | None, context: str) -> QuarterCarParams:
    entry = entry or {}
    _check_keys(entry, {"m_s", "m_u", "k_s", "c_s", "k_t", "d_t", "mu_tire"}, context)
    return replace(default_car(), **{k: _number(v, f"{context}.{k}") for k, v in entry.items()})


def check_smoothing_fits(smoothing: SmoothingParams, n_stations: int, n_offsets: int) -> None:
    """Raise :class:`ConfigError` for a smoothing penalty on an axis too short to smooth.

    ``lambda_x`` smooths along the road's stations, ``lambda_y`` across its
    lateral offsets and ``lambda_z`` along an extracted profile, which has
    one sample per station; each needs at least ``road._MIN_SMOOTHING_NODES``.
    """
    axes = (
        ("lambda_x", smoothing.lambda_x, n_stations, "stations"),
        ("lambda_y", smoothing.lambda_y, n_offsets, "lateral offsets"),
        ("lambda_z", smoothing.lambda_z, n_stations, "stations"),
    )
    for name, lam, nodes, axis in axes:
        if lam > 0 and nodes < _MIN_SMOOTHING_NODES:
            raise ConfigError(
                f"road.smoothing.{name} needs at least {_MIN_SMOOTHING_NODES} {axis}; the road has {nodes}"
            )


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
    import yaml

    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.safe_load(fh) or {}
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
            raise ConfigError(f"config {path} is not valid YAML{where}: {getattr(exc, 'problem', exc)}") from None
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
        length = _number(_require(synth, "length", "road.synthetic"), "road.synthetic.length")
        step = _number(synth.get("step", 0.1), "road.synthetic.step", above=0)
        if not (length >= 10 * step):
            raise ConfigError("road.synthetic.length must be at least 10 * step")
        if round(length / step) > MAX_PROFILE_SAMPLES:
            raise ConfigError(f"road.synthetic length / step exceeds {MAX_PROFILE_SAMPLES:.0e} profile samples")
        klass = str(_require(synth, "roughness_class", "road.synthetic")).upper()
        _one_of(klass, ROUGHNESS_PSD_SCALE, "road.synthetic.roughness_class")
        patch = synth.get("patch")
        if patch is not None:
            _check_keys(patch, {"start", "length", "roughness_class"}, "road.synthetic.patch")
            pklass = str(_require(patch, "roughness_class", "road.synthetic.patch")).upper()
            _one_of(pklass, ROUGHNESS_PSD_SCALE, "road.synthetic.patch.roughness_class")
            start = _number(_require(patch, "start", "road.synthetic.patch"), "road.synthetic.patch.start")
            end = start + _number(_require(patch, "length", "road.synthetic.patch"), "road.synthetic.patch.length")
            # the rows of the synthesized profile the patch replaces
            i0, i1 = int(round(start / step)), int(round(end / step))
            if not (0 <= i0 < i1 <= int(round(length / step))):
                raise ConfigError("road.synthetic.patch lies outside the road")
            patch = {"roughness_class": pklass, "rows": (i0, i1)}
        lateral_span = _number(synth.get("lateral_span", 2.0), "road.synthetic.lateral_span")
        offset_step = _number(synth.get("offset_step", 0.5), "road.synthetic.offset_step", above=0)
        if round(2 * lateral_span / offset_step) < 1:
            raise ConfigError("road.synthetic.lateral_span must give at least two lateral offsets")
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
    lambdas = ("lambda_x", "lambda_y", "lambda_z")
    smoothing = SmoothingParams(**{lam: _number(smoothing_entry.get(lam, 0.0), f"road.smoothing.{lam}") for lam in lambdas})
    if road_synthetic is not None:
        # the built grid closes the profile with its wrap sample
        n_stations = int(round(length / step)) + 1
        check_smoothing_fits(smoothing, n_stations, int(round(2 * lateral_span / offset_step)) + 1)

    scenario = raw.get("scenario", {})
    _check_keys(scenario, {"target_speed_kmh", "profile", "lane_half_width", "distributions"}, "scenario")
    target_speed = _parse_speed(scenario)
    # the Scenario default is the one default lane; the preflight builds a
    # Scenario from this value, which checks it
    lane_half_width = _number(scenario.get("lane_half_width", Scenario.lane_half_width), "scenario.lane_half_width")
    distributions = _parse_distributions(scenario.get("distributions", {}))
    speed_given = "profile" in scenario or "target_speed_kmh" in scenario

    batch = raw.get("batch", {})
    _check_keys(batch, {"n", "dt"}, "batch")
    n = _number(batch.get("n", 50), "batch.n", at_least=1, whole=True)
    dt = _number(batch.get("dt", 1e-3), "batch.dt", above=0, at_most=MAX_DT)

    analysis = raw.get("analysis", {})
    _check_keys(
        analysis,
        {"window_m", "ds", "methods", "aggregator", "weightings", "k_factors", "bands_file", "iso_reduction"},
        "analysis",
    )
    if methods is None:
        methods = tuple(analysis.get("methods", list(_METHODS)))
    if not methods:
        raise ConfigError(f"analysis.methods must name at least one of {_METHODS}")
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
    if "iri" in methods and not speed_given:
        raise ConfigError(
            "the iri method applies speed-dependent thresholds: set "
            "scenario.target_speed_kmh or scenario.profile explicitly"
        )
    ds = _number(analysis.get("ds", 0.1), "analysis.ds", above=0)
    window_m = _number(analysis.get("window_m", 5.0), "analysis.window_m", at_least=ds)
    aggregator = _one_of(str(analysis.get("aggregator", "mean")), AGGREGATORS, "analysis.aggregator")
    iso_reduction = _one_of(str(analysis.get("iso_reduction", "mean")), ISO_REDUCTIONS, "analysis.iso_reduction")
    weightings = {str(k): str(v) for k, v in analysis.get("weightings", iso2631.DEFAULT_WEIGHTINGS).items()}
    _check_keys(weightings, {"x", "y", "z"}, "analysis.weightings")
    for axis, wid in weightings.items():
        _one_of(wid.lower(), iso2631.available_weightings(), f"analysis.weightings.{axis}")
    k_factors = analysis.get("k_factors", [1.0, 1.0, 1.0])
    k_factors = tuple(_number(k, "analysis.k_factors entry", at_least=0) for k in k_factors)
    if len(k_factors) != 3:
        raise ConfigError("analysis.k_factors must hold three values")

    iri_entry = raw.get("iri", {})
    _check_keys(iri_entry, {"segment_m", "speed_kmh"}, "iri")
    iri_segment_m = _number(iri_entry.get("segment_m", 5.0), "iri.segment_m", above=0)
    iri_speed_kmh = _number(iri_entry.get("speed_kmh", 80.0), "iri.speed_kmh", above=0)

    vehicle_entry = raw.get("vehicle", {})
    _check_keys(vehicle_entry, {"front", "rear", "geometry"}, "vehicle")
    front = _parse_quarter_car(vehicle_entry.get("front"), "vehicle.front")
    rear = _parse_quarter_car(vehicle_entry.get("rear", vehicle_entry.get("front")), "vehicle.rear")
    geo_entry = vehicle_entry.get("geometry", {})
    _check_keys(geo_entry, {"wheelbase", "track_width"}, "vehicle.geometry")
    geometry = replace(default_geometry(), **{k: _number(v, f"vehicle.geometry.{k}") for k, v in geo_entry.items()})

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
    p0 = None
    if calib.get("p0"):
        p0 = {}
        for name, value in calib["p0"].items():
            if name not in CALIBRATION_PARAMETERS:
                raise ConfigError(f"calibration.p0 parameter {name!r} unknown")
            lo, hi = CALIBRATION_PARAMETERS[name]
            p0[name] = _number(value, f"calibration.p0.{name}", at_least=lo, at_most=hi)
        missing = [name for name in chain.parameters if name not in p0]
        if missing:
            raise ConfigError(f"calibration.p0 misses chain parameters {missing}")
    tol = _number(calib.get("tol", 1e-12), "calibration.tol", at_least=0)
    max_iter = _number(calib.get("max_iter", 60), "calibration.max_iter", at_least=1, whole=True)

    return PipelineConfig(
        raw=raw,
        seed=_number(raw.get("seed", 0) if seed is None else seed, "seed", at_least=0, whole=True),
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
