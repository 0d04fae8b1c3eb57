"""Command line interface.

Subcommands: generate-road, analyze, calibrate, iri, iso, thresholds,
sample-plan.  Global flags --config/--seed/--out apply where they make
sense; every failure exits nonzero with a one-line structured message.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__, iri as iri_mod, iso2631, sampling, sections, signals, thresholds
from .config import load_config
from .errors import ConfigError, InvalidInput, ToolkitError
from .pipeline import analyze, calibrate, generate_road

__all__ = ["main"]


def _common_flags(parser: argparse.ArgumentParser, config_required: bool = True) -> None:
    parser.add_argument("--config", required=config_required, help="YAML config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="output file or directory")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ridekit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"ridekit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-road", help="synthesize a road and write the grid file")
    _common_flags(p)

    p = sub.add_parser("analyze", help="run the batch analysis and write the report bundle")
    _common_flags(p)
    p.add_argument("--methods", default=None, help="comma list overriding the config, e.g. iri,iso")

    p = sub.add_parser("calibrate", help="calibrate vehicle parameters against a reference trace")
    _common_flags(p)
    p.add_argument("--reference", required=True, help="reference trace CSV")

    p = sub.add_parser("iri", help="roughness index of an elevation profile CSV (station,elevation)")
    p.add_argument("--profile", required=True)
    p.add_argument("--segment", type=float, default=100.0, help="segment length [m]")
    p.add_argument("--speed-kmh", type=float, default=80.0, help="index computation speed [km/h]")
    p.add_argument("--classify-speed-kmh", type=float, default=None, help="travel speed for labels")
    p.add_argument("--out", default=None)

    p = sub.add_parser("iso", help="frequency-weighted comfort evaluation of a trace CSV")
    p.add_argument("--trace", required=True)
    default_weightings = ",".join(f"{axis}={w}" for axis, w in iso2631.DEFAULT_WEIGHTINGS.items())
    p.add_argument("--weightings", default=default_weightings, help="axis=weighting list")
    p.add_argument("--out", default=None)

    p = sub.add_parser("thresholds", help="acceleration-band exceedance summary of a trace CSV")
    p.add_argument("--trace", required=True)
    p.add_argument("--ds", type=float, default=0.1)
    p.add_argument("--window", type=float, default=5.0)
    p.add_argument("--bands-file", default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("sample-plan", help="write the stratified sample plan as CSV")
    _common_flags(p)
    return parser


def _cmd_generate_road(args) -> int:
    cfg = load_config(args.config, seed=args.seed)
    out = args.out or "road_grid.txt"
    generate_road(cfg, out)
    print(f"wrote {out}")
    return 0


def _cmd_analyze(args) -> int:
    methods = tuple(args.methods.split(",")) if args.methods else None
    cfg = load_config(args.config, seed=args.seed, out_dir=args.out, methods=methods)
    analyze(cfg, cfg.out_dir)
    print(f"wrote report bundle to {cfg.out_dir}")
    return 0


def _cmd_calibrate(args) -> int:
    cfg = load_config(args.config, seed=args.seed, out_dir=args.out)
    result = calibrate(cfg, args.reference, cfg.out_dir)
    status = "completed" if result.completed else f"aborted: {result.failure}"
    print(f"calibration {status}; report in {cfg.out_dir}")
    return 0 if result.completed else 3


def _read_profile_csv(path) -> tuple[np.ndarray, np.ndarray]:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#") or line.lower().startswith("station"):
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise InvalidInput(f"{path}: line {lineno}: expected 'station,elevation'")
            try:
                rows.append((float(parts[0]), float(parts[1])))
            except ValueError:
                raise InvalidInput(f"{path}: line {lineno}: non-numeric value") from None
    if len(rows) < 2:
        raise InvalidInput(f"{path}: need at least two profile samples")
    data = np.asarray(rows)
    return data[:, 0], data[:, 1]


def _cmd_iri(args) -> int:
    stations, elevation = _read_profile_csv(args.profile)
    steps = np.diff(stations)
    if np.any(steps <= 0) or np.max(np.abs(steps - steps[0])) > 1e-6 * steps[0]:
        raise InvalidInput("profile stations must be uniformly increasing")
    results = iri_mod.compute_iri(
        elevation, float(steps[0]), speed=args.speed_kmh / 3.6, segment_length=args.segment
    )
    classify_speed = args.speed_kmh if args.classify_speed_kmh is None else args.classify_speed_kmh
    lines = (
        f"{stations[0] + r.s_start:.3f},{r.iri:.6f},{iri_mod.classify_iri(r.iri, classify_speed)}\n" for r in results
    )
    _emit(args.out, "s_start,iri,label\n" + "".join(lines))
    return 0


def _cmd_iso(args) -> int:
    run = signals.read_response_csv(args.trace)
    weightings = {}
    for item in args.weightings.split(","):
        axis, _, wid = item.partition("=")
        if axis not in ("x", "y", "z") or not wid:
            raise ConfigError(f"bad --weightings entry {item!r}")
        weightings[axis] = iso2631.load_weighting(wid)
    weighted = iso2631.weight_axes(run, weightings)
    rms = [weighted[axis].a_w_rms if axis in weighted else 0.0 for axis in ("x", "y", "z")]
    a_v = iso2631.combine({axis: r**2 for axis, r in zip("xyz", rms)})
    label, perception = iso2631.classify_iso(a_v)
    values = ",".join(f"{v:.6e}" for v in (*rms, a_v))
    _emit(args.out, f"ax_w_rms,ay_w_rms,az_w_rms,a_v,label,perception\n{values},{label},{perception}\n")
    return 0


def _cmd_thresholds(args) -> int:
    run = signals.read_response_csv(args.trace)
    bands = thresholds.load_bands(args.bands_file)
    space = {f"a{axis}": signals.to_space(run, f"a{axis}", args.ds) for axis in thresholds.AXES}
    _, text = sections.find_critical_bands(space, bands, args.window)
    _emit(args.out, text)
    return 0


def _cmd_sample_plan(args) -> int:
    cfg = load_config(args.config, seed=args.seed)
    plan = sampling.lhs(cfg.distributions, cfg.n, cfg.seed)
    _emit(args.out or "sample_plan.csv", plan.to_csv_text())
    return 0


def _emit(out, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(text, encoding="utf-8")
        print(f"wrote {out}")


_COMMANDS = {
    "generate-road": _cmd_generate_road,
    "analyze": _cmd_analyze,
    "calibrate": _cmd_calibrate,
    "iri": _cmd_iri,
    "iso": _cmd_iso,
    "thresholds": _cmd_thresholds,
    "sample-plan": _cmd_sample_plan,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ToolkitError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
