"""Traced runs: spans around the program's public functions, from outside it.

Each wrapped function is replaced at the module attribute its callers look
it up by (``pipeline`` calls ``road.load_grid``, ``vehicle`` calls its own
``wheel_track_profile`` and ``rk4_lti``, and so on), so the package itself is
never edited.  Spans are kept in memory as (name, start, end, parent, info)
and written out when the run ends; per-layer self times and counts are
derived from them.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name, info taken from (args, result)).
# A function reached under two names is wrapped at both, with one span name.
WRAPPED = [
    ("ridekit.pipeline", "analyze", "pipeline.analyze", None),
    ("ridekit.pipeline", "calibrate", "pipeline.calibrate", None),
    ("ridekit.pipeline", "build_road", "pipeline.build_road", None),
    ("ridekit.cli", "main", "cli.main", None),
    ("ridekit.road", "load_grid", "road.load_grid", None),
    ("ridekit.road", "wheel_track_profile", "road.wheel_track_profile", None),
    ("ridekit.vehicle", "wheel_track_profile", "road.wheel_track_profile", None),
    ("ridekit.sampling", "run_batch", "sampling.run_batch", lambda a, r: {"runs_failed": len(r.failures)}),
    ("ridekit.sampling", "simulate", "vehicle.simulate", lambda a, r: {"steps": len(r.s) - 1}),
    ("ridekit.calibration", "simulate", "vehicle.simulate", lambda a, r: {"steps": len(r.s) - 1}),
    ("ridekit.vehicle", "rk4_lti", "integrators.rk4_lti", None),
    ("ridekit.iri", "rk4_lti", "integrators.rk4_lti", None),
    ("ridekit.integrators", "rk4_lti_loop", "integrators.rk4_lti_loop", None),
    ("ridekit.signals", "to_space", "signals.to_space", None),
    ("ridekit.signals", "aggregate", "signals.aggregate", None),
    ("ridekit.signals", "read_reference_csv", "signals.read_csv", lambda a, r: {"rows": len(next(iter(r.values())))}),
    ("ridekit.iso2631", "weight_signal", "iso2631.weight_signal", None),
    ("ridekit.thresholds", "exceedance", "thresholds.exceedance", None),
    ("ridekit.sections", "find_critical", "sections.find_critical", lambda a, r: {"windows": r.total_windows}),
    ("ridekit.sections", "classify_windows_iso", "sections.classify_windows_iso", lambda a, r: {"windows": r.report.total_windows}),
    ("ridekit.sections", "classify_windows_iri", "sections.classify_windows_iri", lambda a, r: {"windows": r.report.total_windows}),
    ("ridekit.iri", "compute_iri", "iri.compute_iri", lambda a, r: {"samples": len(a[0])}),
    ("ridekit.calibration", "evaluate_residual", "calibration.evaluate_residual", None),
    ("ridekit.calibration", "levenberg_marquardt", "calibration.lm", lambda a, r: {"accepted": len(r.objective_trace) - 1}),
]

#: Per-layer metrics: name -> unit.  Times are per round, in seconds.
LAYER_METRICS = {
    "road.surface_builds": "count",
    "road.surface_build_s": "s",
    "road.track_profile_s": "s",
    "road.load_grid_s": "s",
    "pipeline.build_road_s": "s",
    "vehicle.simulate_calls": "count",
    "vehicle.steps": "count",
    "vehicle.simulate_s": "s",
    "vehicle.self_s": "s",
    "integrators.rk4_calls": "count",
    "integrators.rk4_s": "s",
    "integrators.loop_fallbacks": "count",
    "sampling.batch_s": "s",
    "sampling.runs_failed": "count",
    "signals.to_space_s": "s",
    "signals.aggregate_s": "s",
    "signals.read_csv_s": "s",
    "signals.csv_rows": "count",
    "iso2631.weight_calls": "count",
    "iso2631.weight_s": "s",
    "thresholds.exceedance_s": "s",
    "sections.iso_windows_self_s": "s",
    "sections.iri_windows_s": "s",
    "sections.find_critical_s": "s",
    "sections.windows": "count",
    "iri.compute_s": "s",
    "iri.samples": "count",
    "calibration.evals": "count",
    "calibration.eval_s": "s",
    "calibration.lm_self_s": "s",
    "calibration.accepted_steps": "count",
    "calibration.evals_per_step": "ratio",
    "pipeline.self_s": "s",
    "cli.self_s": "s",
    "process.import_s": "s",
    "config.load_s": "s",
    "trace.wall_s": "s",
    "trace.spans": "count",
}


class Tracer:
    """In-memory span recorder; spans nest by call."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, info]
        self._stack: list[int] = []  # indices of the open spans
        self.active = True

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    @contextmanager
    def paused(self):
        """Record nothing inside the block (the benchmark's own checks)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def _wrap_function(self, fn, name, info):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if info is not None:
                    record[4] = info(args, result)
            return result

        return traced

    def _wrap_class(self, cls, name):
        tracer = self

        class Traced(cls):
            def __init__(self, *args, **kwargs):
                if not tracer.active:
                    return super().__init__(*args, **kwargs)
                with tracer.span(name):
                    super().__init__(*args, **kwargs)

        Traced.__name__ = cls.__name__
        Traced.__qualname__ = cls.__qualname__
        return Traced

    @contextmanager
    def installed(self):
        """Replace every wrapped attribute for the duration of the block."""
        saved = []
        targets = WRAPPED + [("ridekit.road", "SurfaceInterpolator", "road.surface_build", None)]
        try:
            for module_name, attr, name, info in targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                if isinstance(original, type):
                    setattr(module, attr, self._wrap_class(original, name))
                else:
                    setattr(module, attr, self._wrap_function(original, name, info))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, info) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end, "parent": parent, "info": info}) + "\n")


def round_layers(spans: list[list], first: int, last: int) -> dict[str, float]:
    """Per-layer metrics of the spans with indices in [first, last), one round."""
    total, self_time, info = defaultdict(float), defaultdict(float), defaultdict(float)
    count = defaultdict(int)
    child_time = [0.0] * (last - first)
    evals_in_lm = 0
    for i in range(first, last):
        name, start, end, parent, extra = spans[i]
        if parent is not None and parent >= first:
            child_time[parent - first] += end - start
            if name == "calibration.evaluate_residual" and spans[parent][0] == "calibration.lm":
                evals_in_lm += 1
    for i in range(first, last):
        name, start, end, parent, extra = spans[i]
        total[name] += end - start
        self_time[name] += end - start - child_time[i - first]
        count[name] += 1
        for key, value in (extra or {}).items():
            info[key] += value

    accepted = info["accepted"]
    return {
        "road.surface_builds": count["road.surface_build"],
        "road.surface_build_s": total["road.surface_build"],
        "road.track_profile_s": self_time["road.wheel_track_profile"],
        "road.load_grid_s": total["road.load_grid"],
        "pipeline.build_road_s": total["pipeline.build_road"],
        "vehicle.simulate_calls": count["vehicle.simulate"],
        "vehicle.steps": info["steps"],
        "vehicle.simulate_s": total["vehicle.simulate"],
        "vehicle.self_s": self_time["vehicle.simulate"],
        "integrators.rk4_calls": count["integrators.rk4_lti"],
        "integrators.rk4_s": total["integrators.rk4_lti"],
        "integrators.loop_fallbacks": count["integrators.rk4_lti_loop"],
        "sampling.batch_s": total["sampling.run_batch"],
        "sampling.runs_failed": info["runs_failed"],
        "signals.to_space_s": total["signals.to_space"],
        "signals.aggregate_s": total["signals.aggregate"],
        "signals.read_csv_s": total["signals.read_csv"],
        "signals.csv_rows": info["rows"],
        "iso2631.weight_calls": count["iso2631.weight_signal"],
        "iso2631.weight_s": total["iso2631.weight_signal"],
        "thresholds.exceedance_s": total["thresholds.exceedance"],
        "sections.iso_windows_self_s": self_time["sections.classify_windows_iso"],
        "sections.iri_windows_s": total["sections.classify_windows_iri"],
        "sections.find_critical_s": total["sections.find_critical"],
        "sections.windows": info["windows"],
        "iri.compute_s": total["iri.compute_iri"],
        "iri.samples": info["samples"],
        "calibration.evals": count["calibration.evaluate_residual"],
        "calibration.eval_s": total["calibration.evaluate_residual"],
        "calibration.lm_self_s": self_time["calibration.lm"],
        "calibration.accepted_steps": accepted,
        "calibration.evals_per_step": evals_in_lm / accepted if accepted else 0.0,
        "pipeline.self_s": self_time["pipeline.analyze"] + self_time["pipeline.calibrate"],
        "cli.self_s": self_time["cli.main"],
        "trace.spans": last - first,
    }
