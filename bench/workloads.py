"""The four workloads: seeded inputs, the timed operations, and their checks.

Every workload has three parts.  ``prepare`` writes the inputs for a seed
into a run directory, with ``expect.json`` holding what the checks need; it
runs in its own process so that its memory does not count towards the
measured process's peak.  ``load`` reads the config and expectations before
any timing starts.  ``operations`` lists the calls of one round as ``Op``s,
each paired with the check of its output; a check returns a list of errors,
empty when the output is right.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import yaml

import reference as ref

WINDOW_M = 5.0
DS = 0.1
AXES = ("x", "y", "z")


class Op(NamedTuple):
    """One timed call of a round and the check of its output.

    ``known_fault`` names a fault of the program that makes the check fail on
    every run, on inputs that do not depend on the seed: such a failure is
    counted as a failed operation but does not make the run incorrect.
    """

    call: Callable[[], object]
    check: Callable[[object], list[str]]
    known_fault: str | None = None


# --- shared input helpers ------------------------------------------------------


def rough_profile(n: int, step: float, phi0: float, rng: np.random.Generator) -> np.ndarray:
    """Random-phase profile with displacement PSD phi0 * (f / 0.1)^-2."""
    freqs = np.fft.rfftfreq(n, d=step)
    amp = np.zeros_like(freqs)
    amp[1:] = np.sqrt(phi0 * (freqs[1:] / 0.1) ** -2 * n / (2.0 * step))
    spectrum = amp * np.exp(2j * np.pi * rng.uniform(size=len(freqs)))
    spectrum[0] = 0.0
    return np.fft.irfft(spectrum, n=n)


def write_grid(path: Path, stations, headings, ref_elev, offsets, z) -> None:
    """Grid text format: header lines, then 'station heading elevation z...'."""
    lines = [
        f"station_step={float(stations[1] - stations[0])!r}",
        f"offset_start={float(offsets[0])!r}",
        f"offset_step={float(offsets[1] - offsets[0])!r}",
        f"n_offsets={len(offsets)}",
    ]
    for i in range(len(stations)):
        cells = [stations[i], headings[i], ref_elev[i], *z[i]]
        lines.append(" ".join(repr(float(c)) for c in cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def headings_of(stations: np.ndarray, curvature: np.ndarray) -> np.ndarray:
    steps = np.diff(stations)
    return np.concatenate([[0.0], np.cumsum(0.5 * (curvature[:-1] + curvature[1:]) * steps)])


def write_yaml(path: Path, doc: dict) -> None:
    path.write_text(yaml.safe_dump(doc, sort_keys=True), encoding="utf-8")


def read_rows(path: Path) -> list[list[str]]:
    """Rows of a CSV file without its header line."""
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    return [line.split(",") for line in lines[1:]]


# --- checks shared by the report bundles ------------------------------------------


def check_manifest(out: Path) -> list[str]:
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    outputs = manifest["outputs"]
    errors = []
    present = {p.name for p in out.iterdir()} - {"manifest.json"}
    if set(outputs) != present:
        errors.append(f"manifest lists {sorted(outputs)}, bundle holds {sorted(present)}")
    for name, digest in outputs.items():
        path = out / name
        if path.exists() and hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            errors.append(f"manifest SHA-256 of {name} does not match its bytes")
    return errors


def check_counts(rows: list[list[str]], labels: list[str], windows: int, what: str) -> list[str]:
    """Report rows 'category,C,R_c,N,R_n' against per-window labels."""
    errors = []
    for category, c, _, n, _ in rows:
        if int(c) + int(n) != windows:
            errors.append(f"{what} {category}: C + N = {int(c) + int(n)}, expected {windows}")
        if int(c) != labels.count(category):
            errors.append(f"{what} {category}: C = {c} but {labels.count(category)} windows carry the label")
    return errors


def check_analysis_bundle(out: Path, summary: dict, expect: dict) -> list[str]:
    """Checks of an ``analyze`` bundle against independent recomputation."""
    errors = check_manifest(out)
    windows = expect["windows"]
    per = int(round(WINDOW_M / DS))

    failures = read_rows(out / "failures.csv")
    if failures:
        errors.append(f"{len(failures)} runs failed: {failures[:3]}")
    plan = read_rows(out / "sample_plan.csv")
    if len(plan) != expect["n"]:
        errors.append(f"sample plan has {len(plan)} rows, expected {expect['n']}")

    space = np.loadtxt(out / "space_signals.csv", delimiter=",", skiprows=1, ndmin=2)
    if int(math.floor(len(space) * DS / WINDOW_M + 1e-9)) != windows:
        errors.append(f"space signals cover {len(space)} samples, not {windows} windows")

    # acceleration bands: recount from the printed space signals (7 digits)
    thr_rows = read_rows(out / "threshold_report.csv")
    flags = {}
    for axis_name, style, c, _, n, _ in thr_rows:
        col = 1 + AXES.index(axis_name)
        surely, maybe = ref.critical_windows(space[:, col], ref.BANDS[(axis_name, style)], per, rel=1e-6)
        if int(c) + int(n) != windows:
            errors.append(f"threshold {axis_name}/{style}: C + N = {int(c) + int(n)}, expected {windows}")
        if not surely.sum() <= int(c) <= maybe.sum():
            errors.append(f"threshold {axis_name}/{style}: C = {c}, recount gives {surely.sum()}..{maybe.sum()}")
        program = np.asarray(summary["reports"]["threshold"][(axis_name, style)].rows[0].critical_windows)
        if len(program) != windows or np.any(surely & ~program) or np.any(program & ~maybe):
            errors.append(f"threshold {axis_name}/{style}: per-window flags disagree with the recount")
        flags[(axis_name, style)] = program
    for axis_name in AXES:
        pt, nd, ag = (flags[(axis_name, s)] for s in ref.STYLES)
        if np.any(nd & ~pt) or np.any(ag & ~nd):
            errors.append(f"threshold {axis_name}: band nesting PT >= ND >= AG broken window by window")

    # ISO 2631: labels from the reported total vibration values
    iso_rows = read_rows(out / "iso_windows.csv")
    iso_labels = [label for _, _, label in iso_rows]
    if len(iso_rows) != windows:
        errors.append(f"iso: {len(iso_rows)} windows, expected {windows}")
    for s, a_v, label in iso_rows:
        if label not in ref.iso_labels_allowed(float(a_v)):
            errors.append(f"iso window at {s}: a_v {a_v} labelled {label}")
            break
    errors += check_counts(read_rows(out / "iso_report.csv"), iso_labels, windows, "iso")

    # IRI: labels from the reported values and speeds; values against the
    # exact discretisation where the profile is known
    iri_rows = read_rows(out / "iri_windows.csv")
    iri_labels = [label for *_, label in iri_rows]
    if len(iri_rows) != windows:
        errors.append(f"iri: {len(iri_rows)} windows, expected {windows}")
    for s, value, kmh, label in iri_rows:
        allowed = set().union(*(ref.iri_labels_allowed(float(value), float(kmh) + d) for d in (-1e-3, 0.0, 1e-3)))
        if label not in allowed:
            errors.append(f"iri window at {s}: {value} m/km at {kmh} km/h labelled {label}")
            break
    exact = expect.get("iri")
    if exact is not None and len(exact) == len(iri_rows):
        got = np.array([float(row[1]) for row in iri_rows])
        worst = float(np.max(np.abs(got - exact) / (np.abs(exact) + 1e-3)))
        if worst > 2e-3:
            errors.append(f"iri values differ from the exact discretisation by up to {worst:.2e} (relative)")
    errors += check_counts(read_rows(out / "iri_report.csv"), iri_labels, windows, "iri")
    return errors


# --- analyze ---------------------------------------------------------------------


class Workload:
    name: str

    def load(self, run: Path):
        """The run's config, parsed as at set-up, and the expectations."""
        from ridekit import config

        return config.load_config(run / "config.yaml"), json.loads((run / "expect.json").read_text())


class Analyze(Workload):
    """Monte Carlo batch on a synthetic straight class-C road."""

    name = "analyze"

    def __init__(self, toy: bool = False):
        self.length = 100.0 if toy else 1000.0
        self.n = 2 if toy else 50

    def prepare(self, seed: int, run: Path) -> None:
        from ridekit import road

        doc = {
            "seed": seed,
            "road": {"synthetic": {"length": self.length, "step": 0.1, "roughness_class": "C"}},
            "scenario": {"target_speed_kmh": 80.0},
            "batch": {"n": self.n, "dt": 0.001},
            "analysis": {"window_m": WINDOW_M, "ds": DS},
            "iri": {"segment_m": WINDOW_M, "speed_kmh": 80.0},
        }
        write_yaml(run / "config.yaml", doc)
        # the synthetic road is the program's input generator; the index of
        # its centre line is recomputed here by the exact discretisation
        profile = road.synth_profile(self.length, 0.1, "C", seed)
        profile = np.concatenate([profile, profile[:1]])
        exact = ref.iri_exact(profile, 0.1, 80.0 / 3.6, WINDOW_M)
        expect = {"windows": int(self.length / WINDOW_M), "n": self.n, "iri": exact.tolist()}
        (run / "expect.json").write_text(json.dumps(expect), encoding="utf-8")

    def operations(self, run: Path, loaded):
        from ridekit import pipeline

        cfg, expect = loaded
        out = run / "out"

        def op():
            return pipeline.analyze(cfg, out)

        return [Op(op, lambda summary: check_analysis_bundle(out, summary, expect))]


# --- site ------------------------------------------------------------------------


class Site(Analyze):
    """Measured-site-like grid file: curves, crossfall, lateral roughness
    variation, planted outlier cells, a piecewise speed profile and
    along-track smoothing."""

    name = "site"
    S0 = 1200.0
    OFFSETS = np.linspace(-2.5, 2.5, 11)
    PLANTED = 12

    def __init__(self, toy: bool = False):
        self.length = 60.0 if toy else 400.0
        self.n = 1 if toy else 3

    def grid(self, path: Path, rng: np.random.Generator, columns) -> list[list[int]]:
        """Write a site grid with outliers planted in ``columns``; returns the
        planted cells as sorted [station index, column] pairs."""
        step = 0.1
        n_st = int(round(self.length / step)) + 1
        x = step * np.arange(n_st)
        stations = self.S0 + x
        curvature = np.zeros(n_st)
        curvature[(x >= 0.15 * self.length) & (x < 0.4 * self.length)] = 1.0 / 180.0
        curvature[(x >= 0.55 * self.length) & (x < 0.8 * self.length)] = -1.0 / 220.0
        ref_elev = 0.015 * x - 1.5e-5 * x * x
        left, right = (rough_profile(n_st, step, 8e-6, rng) for _ in range(2))
        w = (self.OFFSETS - self.OFFSETS[0]) / (self.OFFSETS[-1] - self.OFFSETS[0])
        z = ref_elev[:, None] - 0.025 * self.OFFSETS[None, :] + np.outer(left, 1 - w) + np.outer(1.6 * right, w)
        # outliers: isolated cells, at least four stations apart
        slots = rng.choice(np.arange(2, (n_st - 2) // 4), size=self.PLANTED, replace=False) * 4
        cols = rng.choice(columns, size=self.PLANTED)
        z[slots, cols] += rng.choice([-1.0, 1.0], size=self.PLANTED) * rng.uniform(0.05, 0.15, size=self.PLANTED)
        write_grid(path, stations, headings_of(stations, curvature), ref_elev, self.OFFSETS, z)
        return sorted([int(i), int(j)] for i, j in zip(slots, cols))

    def prepare(self, seed: int, run: Path) -> None:
        # the analysed grid has its outliers in the interior columns; a second
        # grid, the same for every seed, has them in the edge columns, where
        # the cleaning also replaces genuine neighbours on a crossfall (see
        # CHANGES.md); at full size its cleaning check fails in every round
        # until that is mended
        last = len(self.OFFSETS) - 1
        planted = self.grid(run / "site_grid.txt", np.random.default_rng([seed, 2]), np.arange(1, last))
        edge = self.grid(run / "edge_grid.txt", np.random.default_rng([0, 5]), np.array([0, last]))
        profile = [[self.S0 + f * self.length, kmh] for f, kmh in ((0.0, 60.0), (0.3, 45.0), (0.6, 70.0), (1.0, 70.0))]
        doc = {
            "seed": seed,
            "road": {"file": str((run / "site_grid.txt").resolve()), "smoothing": {"lambda_x": 1e-3}},
            "scenario": {"profile": profile},
            "batch": {"n": self.n, "dt": 0.001},
            "analysis": {"window_m": WINDOW_M, "ds": DS},
            "iri": {"segment_m": WINDOW_M, "speed_kmh": 80.0},
        }
        write_yaml(run / "config.yaml", doc)
        expect = {
            "windows": int(self.length / WINDOW_M),
            "n": self.n,
            "planted": planted,
            "edge_planted": edge,
        }
        (run / "expect.json").write_text(json.dumps(expect), encoding="utf-8")

    def operations(self, run: Path, loaded):
        from ridekit import pipeline, road

        cfg, expect = loaded
        out = run / "out"

        def check_cleaning(path: Path, grid, planted) -> list[str]:
            raw = np.loadtxt(path, skiprows=4)[:, 3:]
            changed = sorted([int(i), int(j)] for i, j in zip(*np.nonzero(grid.elevations != raw)))
            if grid.outliers_replaced != len(planted) or changed != planted:
                return [f"cleaning of {path.name} replaced {grid.outliers_replaced} cells, {len(planted)} were planted"]
            return []

        def check(summary):
            # grid cleaning is not reported in the bundle: load the same file
            # again and compare the replaced cells with the planted ones
            grid = road.load_grid(cfg.road_file)
            return check_analysis_bundle(out, summary, expect) + check_cleaning(
                run / "site_grid.txt", grid, expect["planted"]
            )

        edge = run / "edge_grid.txt"
        return [
            Op(lambda: pipeline.analyze(cfg, out), check),
            Op(lambda: road.load_grid(edge), lambda grid: check_cleaning(edge, grid, expect["edge_planted"]),
               known_fault="road._clean_grid replaces genuine cells next to edge-column outliers on a crossfall"),
        ]


# --- calibrate -----------------------------------------------------------------------


class Calibrate(Workload):
    """Five-stage calibration chain on the bump-event road from the box
    midpoints towards a known truth."""

    name = "calibrate"
    TRUTH_K_TIRE = 300000.0

    def __init__(self, toy: bool = False):
        self.length = 100.0 if toy else 150.0
        self.stages = [["k_tire"]] if toy else None

    def prepare(self, seed: int, run: Path) -> None:
        from ridekit import calibration, pipeline, signals, vehicle
        from ridekit.config import load_config

        # Isolated events (a long hump for the body modes, a short cleat for
        # the wheel modes), full-width or one-sided so heave, pitch and roll
        # are all excited, plus one arc.  The seed scales every event by one
        # factor: the model is linear in elevation and each channel's error
        # is normalised by its range, so every seed poses the same
        # identification problem; only the last, rounding-level LM
        # iterations differ between seeds.
        scale = float(np.random.default_rng([seed, 3]).uniform(0.8, 1.25))
        step = 0.05
        n_st = int(round(self.length / step)) + 1
        s = step * np.arange(n_st)
        curvature = np.where((s >= 0.47 * self.length) & (s <= 0.87 * self.length), 1.0 / 45.0, 0.0)
        offsets = np.linspace(-2.0, 2.0, 9)
        z = np.zeros((n_st, len(offsets)))

        def bump(col, center, width, height):
            mask = np.abs(s - center) < width / 2
            z[mask, col] += 0.5 * height * (1 + np.cos(2 * np.pi * (s[mask] - center) / width))

        for k, center in enumerate(np.arange(20.0, self.length - 12.0, 25.0)):
            cols = [range(len(offsets)), np.flatnonzero(offsets < 0), np.flatnonzero(offsets > 0)][k % 3]
            for j in cols:
                bump(j, center, 8.0, 0.03 * scale)
                bump(j, center + 6.0, 0.6, 0.015 * scale)
        write_grid(run / "bump_grid.txt", s, headings_of(s, curvature), np.zeros(n_st), offsets, z)

        doc = {
            "seed": seed,
            "road": {"file": str((run / "bump_grid.txt").resolve())},
            "scenario": {"profile": [[0.0, 54.0], [40.0, 54.0], [60.0, 72.0], [self.length, 72.0]]},
            "batch": {"dt": 0.001},
        }
        if self.stages:
            doc["calibration"] = {"stages": self.stages}
        write_yaml(run / "config.yaml", doc)

        # the reference trace: the same scenario driven with the true parameters
        cfg = load_config(run / "config.yaml")
        names = cfg.calibration_chain.parameters
        truth = dict(zip(names, calibration.BoxConstraints.vehicle_defaults().midpoint(names)))
        truth["k_tire"] = self.TRUTH_K_TIRE
        front, rear = calibration.apply_parameters(cfg.front, cfg.rear, truth)
        scenario = vehicle.Scenario(
            road=pipeline.build_road(cfg), target_speed=cfg.target_speed,
            lane_half_width=cfg.lane_half_width, smoothing=cfg.smoothing,
        )
        trace = vehicle.simulate(scenario, front, cfg.geometry, dt=cfg.dt, rear_params=rear)
        signals.write_response_csv(run / "reference.csv", trace)
        truth = {k: float(v) for k, v in truth.items()}
        (run / "expect.json").write_text(json.dumps({"truth": truth}), encoding="utf-8")

    def operations(self, run: Path, loaded):
        from ridekit import pipeline

        cfg, expect = loaded
        out = run / "out"

        def check(result):
            errors = check_manifest(out)
            report = json.loads((out / "calibration_report.json").read_text(encoding="utf-8"))
            if not (result.completed and report["completed"]):
                return errors + [f"chain did not complete: {report['failure']}"]
            for name, truth in expect["truth"].items():
                rel = abs(report["final_params"][name] - truth) / truth
                if rel >= 0.02:
                    errors.append(f"{name} = {report['final_params'][name]:.6g}, truth {truth:.6g} ({rel:.2%} off)")
            if not report["objective"] < 1e-6:
                errors.append(f"final objective {report['objective']:.3e} not below 1e-6")
            for stage in report["stages"]:
                trace = stage["objective_trace"]
                if any(b > a for a, b in zip(trace, trace[1:])):
                    errors.append(f"stage {stage['parameters']}: objective trace increases")
            return errors

        return [Op(lambda: pipeline.calibrate(cfg, run / "reference.csv", out), check)]


# --- classify ----------------------------------------------------------------------


class Classify(Workload):
    """The three classification commands on long recorded-style CSV files."""

    name = "classify"
    FS = 200.0  # trace sample rate [Hz]; the k weighting needs >= 200 Hz
    SPEED = 20.0  # trace travel speed [m/s]; one sample per 0.1 m
    SEGMENT = 50.0  # IRI segment [m]

    def __init__(self, toy: bool = False):
        self.profile_m = 300.0 if toy else 5000.0
        self.trace_s = 60.0 if toy else 600.0

    def prepare(self, seed: int, run: Path) -> None:
        rng = np.random.default_rng([seed, 4])
        step = 0.1
        n_pr = int(round(self.profile_m / step)) + 1
        stations = step * np.arange(n_pr)
        rough = rough_profile(n_pr, step, 16e-6, rng)
        # sine: whole wavelengths per segment, long enough that the sampled,
        # linearly interpolated wave is still a sine to 0.1 %
        wavelength = self.SEGMENT / int(rng.integers(2, 11))
        amplitude = float(rng.uniform(1e-3, 4e-3))
        sine = amplitude * np.sin(2 * np.pi * stations / wavelength)
        for name, values in (("rough_profile.csv", rough), ("sine_profile.csv", sine)):
            body = "\n".join(f"{s!r},{v!r}" for s, v in zip(stations.tolist(), values.tolist()))
            (run / name).write_text("station,elevation\n" + body + "\n", encoding="utf-8")

        # trace: per axis one slow tone that holds the signal outside the
        # bands for whole windows, plus three tones in 0.5-8 Hz, all on
        # whole cycles of the record
        n_tr = int(round(self.trace_s * self.FS))
        t = np.arange(n_tr) / self.FS
        low = {"x": (1.0, 3.5), "y": (1.0, 5.0), "z": (0.15, 0.5)}
        tones, channels = {}, {}
        for axis, (lo, hi) in low.items():
            a_low = float(rng.uniform(lo, hi))
            bins = rng.choice(np.arange(int(0.5 * self.trace_s), int(8 * self.trace_s) + 1), size=3, replace=False)
            axis_tones = [(0.25, a_low)] + [(float(b) / self.trace_s, float(a_low * rng.uniform(0.05, 0.3))) for b in bins]
            phases = rng.uniform(0, 2 * np.pi, size=len(axis_tones))
            channels[axis] = sum(a * np.sin(2 * np.pi * f * t + p) for (f, a), p in zip(axis_tones, phases))
            tones[axis] = axis_tones
        rates = [0.5 * np.sin(2 * np.pi * 0.7 * t + k) for k in range(3)]
        cols = [t, np.full(n_tr, self.SPEED), channels["x"], channels["y"], channels["z"], *rates, self.SPEED * t]
        body = "\n".join(",".join(map(repr, row)) for row in zip(*(c.tolist() for c in cols)))
        (run / "trace.csv").write_text("t,vx,ax,ay,az,phi_rate,theta_rate,psi_rate,s\n" + body + "\n", encoding="utf-8")

        per = int(round(WINDOW_M / (self.SPEED / self.FS)))
        counts = {}
        for axis in AXES:
            for style in ref.STYLES:
                surely, maybe = ref.critical_windows(channels[axis], ref.BANDS[(axis, style)], per)
                counts[f"{axis},{style}"] = [int(surely.sum()), int(maybe.sum())]
        expect = {
            "rough_iri": ref.iri_exact(rough, step, 80.0 / 3.6, self.SEGMENT).tolist(),
            "sine_iri": ref.iri_exact(sine, step, 80.0 / 3.6, self.SEGMENT).tolist(),
            "sine_steady": ref.iri_of_sine(amplitude, wavelength, 80.0 / 3.6),
            "rms": {axis: ref.weighted_rms(tones[axis], w) for axis, w in (("x", "d"), ("y", "d"), ("z", "k"))},
            "threshold_counts": counts,
            "windows": n_tr // per,
        }
        (run / "expect.json").write_text(json.dumps(expect), encoding="utf-8")

    def load(self, run: Path):
        return None, json.loads((run / "expect.json").read_text())

    def operations(self, run: Path, loaded):
        from ridekit import cli

        _, expect = loaded
        out = run / "out"

        def command(*argv):
            def op():
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(list(argv))
                if code != 0:
                    raise RuntimeError(f"ridekit {argv[0]} exited with {code}")

            return op

        def check_iri(name, steady=None):
            def check(_):
                rows = read_rows(out / f"{name}.csv")
                exact = np.array(expect[f"{name}_iri"])
                got = np.array([float(r[1]) for r in rows])
                if len(got) != len(exact):
                    return [f"{name}: {len(got)} segments, expected {len(exact)}"]
                errors = []
                worst = float(np.max(np.abs(got - exact) / (np.abs(exact) + 1e-3)))
                if worst > 2e-3:
                    errors.append(f"{name}: values differ from the exact discretisation by up to {worst:.2e}")
                if steady is not None:
                    # segments after the start-up transient against the frequency response
                    off = float(np.max(np.abs(got[2:] / steady - 1)))
                    if off > 5e-3:
                        errors.append(f"{name}: steady segments off the frequency response by {off:.2%}")
                for _, value, label in rows:
                    if label not in ref.iri_labels_allowed(float(value), 80.0):
                        errors.append(f"{name}: {value} m/km labelled {label}")
                        break
                return errors

            return check

        def check_iso(_):
            rows = read_rows(out / "iso.csv")
            ax, ay, az, a_v, label, perception = rows[0]
            got = dict(zip(AXES, map(float, (ax, ay, az))))
            errors = []
            for axis, value in got.items():
                want = expect["rms"][axis]
                if abs(value / want - 1) > 0.015:
                    errors.append(f"iso: a_{axis} weighted RMS {value:.5g}, analog weighting gives {want:.5g}")
            a_v = float(a_v)
            if abs(a_v - math.sqrt(sum(v * v for v in got.values()))) > 1e-5 * a_v:
                errors.append("iso: a_v is not the root-sum-square of the axis values")
            if label not in ref.iso_labels_allowed(a_v) or perception != ref.perception(a_v):
                errors.append(f"iso: a_v {a_v} labelled {label}/{perception}")
            return errors

        def check_thresholds(_):
            rows = read_rows(out / "thresholds.csv")
            errors = []
            for axis, style, c, _, n, _ in rows:
                lo, hi = expect["threshold_counts"][f"{axis},{style}"]
                if not lo <= int(c) <= hi:
                    errors.append(f"thresholds {axis}/{style}: C = {c}, direct count {lo}..{hi}")
                if int(c) + int(n) != expect["windows"]:
                    errors.append(f"thresholds {axis}/{style}: C + N = {int(c) + int(n)}, expected {expect['windows']}")
            return errors

        iri_args = ("--segment", str(self.SEGMENT), "--speed-kmh", "80")
        trace = str(run / "trace.csv")
        return [
            Op(command("iri", "--profile", str(run / "rough_profile.csv"), *iri_args, "--out", str(out / "rough.csv")),
              check_iri("rough")),
            Op(command("iri", "--profile", str(run / "sine_profile.csv"), *iri_args, "--out", str(out / "sine.csv")),
              check_iri("sine", expect["sine_steady"])),
            Op(command("iso", "--trace", trace, "--weightings", "x=d,y=d,z=k", "--out", str(out / "iso.csv")),
              check_iso),
            Op(command("thresholds", "--trace", trace, "--ds", str(DS), "--window", str(WINDOW_M),
                      "--out", str(out / "thresholds.csv")),
              check_thresholds),
        ]


WORKLOADS = {w.name: w for w in (Analyze, Site, Calibrate, Classify)}
