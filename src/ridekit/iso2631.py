"""Whole-body vibration comfort: frequency weighting, RMS, and comfort bands.

The weighting is a cascade of four second-order analog stages (high pass, low
pass, acceleration-velocity transition, upward step) discretized stage by
stage with the bilinear transform ``p = (2/Ts) (1 - z^-1) / (1 + z^-1)``.
Numeric stage parameters ship in ``data/iso_weightings_v1.csv``; ``k`` weights
vertical and ``d`` horizontal seated comfort.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from importlib import resources
from typing import NamedTuple

import numpy as np
from scipy.signal import bilinear, sosfilt

from .errors import FilterDesignError, InvalidInput
from .signals import TimeSeries, VehicleResponse

__all__ = [
    "FilterSpec",
    "WeightedResult",
    "CombinedVibration",
    "IsoClassification",
    "COMFORT_LABELS",
    "COMFORT_LOWER_BOUNDS",
    "DEFAULT_WEIGHTINGS",
    "available_weightings",
    "load_weighting",
    "design_filter",
    "weight_signal",
    "weight_axes",
    "combine",
    "classify_iso",
    "severity",
]

_SQRT2 = math.sqrt(2.0)

#: Comfort labels in increasing severity.
COMFORT_LABELS = ("NU", "LU", "FU", "U", "VU", "EU")

#: Lower bound of total vibration [m/s^2] at which each label starts.  The
#: bands overlap and leave gaps in their published form; classification picks
#: the most severe label whose lower bound is met, which makes it total and
#: monotone.  The "U" band comes from the same source table as the others but
#: is absent from some abridged reproductions.
COMFORT_LOWER_BOUNDS = {
    "NU": 0.0,
    "LU": 0.315,
    "FU": 0.50,
    "U": 0.80,
    "VU": 1.25,
    "EU": 2.0,
}

#: Weighting id per acceleration axis for seated comfort: ``d`` horizontal,
#: ``k`` vertical.
DEFAULT_WEIGHTINGS = {"x": "d", "y": "d", "z": "k"}

#: Probability-of-perception transition range [m/s^2].
PERCEPTION_RANGE = (0.01, 0.02)

_STAGES = "hlts"


@dataclass(frozen=True)
class FilterSpec:
    """Stage parameters of one weighting.

    Corner frequencies are in Hz; ``None`` marks an absent corner (the term
    drops out of the stage).  ``stage_enabled`` maps each of ``h``, ``l``,
    ``t``, ``s`` to whether that stage participates; disabled stages are unity.
    """

    weighting_id: str
    f1: float | None = None
    f2: float | None = None
    f3: float | None = None
    f4: float | None = None
    q4: float | None = None
    f5: float | None = None
    q5: float | None = None
    f6: float | None = None
    q6: float | None = None
    stage_enabled: dict[str, bool] | None = None

    def __post_init__(self):
        enabled = dict.fromkeys(_STAGES, False) | (self.stage_enabled or {})
        unknown = set(enabled) - set(_STAGES)
        if unknown:
            raise InvalidInput(f"unknown stages {sorted(unknown)}")
        object.__setattr__(self, "stage_enabled", enabled)
        required = {"h": ("f1",), "l": ("f2",), "t": ("f4", "q4"), "s": ("f5", "q5", "f6", "q6")}
        for stage, names in required.items():
            if not enabled[stage]:
                continue
            for name in names:
                value = getattr(self, name)
                if value is None or not (value > 0):
                    raise InvalidInput(f"stage {stage!r} needs {name} > 0")

    def enabled_corners(self) -> dict[str, float]:
        """Largest finite corner frequency per enabled stage."""
        out = {}
        if self.stage_enabled["h"]:
            out["h"] = self.f1
        if self.stage_enabled["l"]:
            out["l"] = self.f2
        if self.stage_enabled["t"]:
            out["t"] = max(f for f in (self.f3, self.f4) if f is not None)
        if self.stage_enabled["s"]:
            out["s"] = max(self.f5, self.f6)
        return out


_STAGE_NAMES = {"h": "high-pass", "l": "low-pass", "t": "transition", "s": "step"}


def _parse_weighting_table() -> dict[str, FilterSpec]:
    specs = {}
    text = resources.files("ridekit.data").joinpath("iso_weightings_v1.csv").read_text(encoding="utf-8")
    rows = [line for line in text.splitlines() if line and not line.startswith("#")]
    for record in csv.DictReader(rows):
        def num(key: str) -> float | None:
            raw = record[key].strip()
            return None if raw == "inf" else float(raw)

        specs[record["id"]] = FilterSpec(
            weighting_id=record["id"],
            f1=num("f1"),
            f2=num("f2"),
            f3=num("f3"),
            f4=num("f4"),
            q4=num("q4"),
            f5=num("f5"),
            q5=num("q5"),
            f6=num("f6"),
            q6=num("q6"),
            stage_enabled={stage: stage in record["stages"] for stage in _STAGES},
        )
    return specs


_WEIGHTING_TABLE: dict[str, FilterSpec] | None = None


def available_weightings() -> tuple[str, ...]:
    return tuple(sorted(_table()))


def _table() -> dict[str, FilterSpec]:
    global _WEIGHTING_TABLE
    if _WEIGHTING_TABLE is None:
        _WEIGHTING_TABLE = _parse_weighting_table()
    return _WEIGHTING_TABLE


def load_weighting(weighting_id: str) -> FilterSpec:
    """Look up a weighting (e.g. ``"k"`` or ``"d"``) from the shipped table."""
    try:
        return _table()[weighting_id.lower()]
    except KeyError:
        raise InvalidInput(
            f"unknown weighting {weighting_id!r}; shipped: {available_weightings()}"
        ) from None


def _analog_stages(spec: FilterSpec) -> list[tuple[str, list[float], list[float]]]:
    """Quadratic (b, a) polynomials in p for each enabled stage."""
    stages = []
    if spec.stage_enabled["h"]:
        w1 = 2 * math.pi * spec.f1
        stages.append(("h", [1.0, 0.0, 0.0], [1.0, _SQRT2 * w1, w1 * w1]))
    if spec.stage_enabled["l"]:
        w2 = 2 * math.pi * spec.f2
        stages.append(("l", [0.0, 0.0, w2 * w2], [1.0, _SQRT2 * w2, w2 * w2]))
    if spec.stage_enabled["t"]:
        w4 = 2 * math.pi * spec.f4
        if spec.f3 is None:
            num = [0.0, 0.0, w4 * w4]
        else:
            num = [0.0, w4 * w4 / (2 * math.pi * spec.f3), w4 * w4]
        stages.append(("t", num, [1.0, w4 / spec.q4, w4 * w4]))
    if spec.stage_enabled["s"]:
        w5 = 2 * math.pi * spec.f5
        w6 = 2 * math.pi * spec.f6
        stages.append(("s", [1.0, w5 / spec.q5, w5 * w5], [1.0, w6 / spec.q6, w6 * w6]))
    return stages


#: Designed cascades by (spec values, sample rate); see :func:`design_filter`.
_DESIGNS: dict[tuple, np.ndarray] = {}


def design_filter(spec: FilterSpec, sample_rate: float) -> np.ndarray:
    """Second-order sections of the discrete weighting cascade.

    Every enabled stage is bilinear-transformed independently; disabled stages
    contribute unity.  Each enabled corner must stay at or below the Nyquist
    frequency.  Frequency warping keeps the magnitude within about 1% of the
    analog cascade for frequencies up to ``sample_rate / 20``.

    Memoised by value: specs with equal fields at an equal sample rate share
    one design, returned as a read-only array.
    """
    key = tuple(
        tuple(value.items()) if isinstance(value, dict) else value
        for value in (getattr(spec, f.name) for f in fields(spec))
    ) + (sample_rate,)
    sos = _DESIGNS.get(key)
    if sos is None:
        sos = _DESIGNS[key] = _design(spec, sample_rate)
        sos.setflags(write=False)
    return sos


def _design(spec: FilterSpec, sample_rate: float) -> np.ndarray:
    if sample_rate <= 0:
        raise FilterDesignError("sample_rate must be > 0")
    for stage, corner in spec.enabled_corners().items():
        if sample_rate < 2.0 * corner:
            raise FilterDesignError(
                f"{_STAGE_NAMES[stage]} stage corner {corner} Hz needs sample rate >= {2 * corner} Hz"
            )
    stages = _analog_stages(spec)
    if not stages:
        return np.array([[1.0, 0.0, 0.0, 1.0, 0.0, 0.0]])
    sos = np.empty((len(stages), 6))
    for i, (_, b, a) in enumerate(stages):
        bz, az = bilinear(b, a, fs=sample_rate)
        sos[i, :3] = np.pad(bz, (3 - len(bz), 0))
        sos[i, 3:] = np.pad(az, (3 - len(az), 0))
    return sos


@dataclass(frozen=True)
class WeightedResult:
    """Frequency-weighted signal and its RMS."""

    a_w: TimeSeries
    a_w_rms: float

    def __post_init__(self):
        if self.a_w_rms < 0:
            raise InvalidInput("a_w_rms must be >= 0")


def weight_signal(a: TimeSeries, spec: FilterSpec) -> WeightedResult:
    """Apply the weighting cascade to an acceleration signal and take the RMS.

    The filter starts from zero state; at least one second of signal is
    required for the RMS to be meaningful.
    """
    if a.duration < 1.0:
        raise InvalidInput("signal must cover at least 1 s")
    # sosfilt takes only writable coefficients; the shared design is read-only
    sos = design_filter(spec, 1.0 / a.dt).copy()
    weighted = sosfilt(sos, a.values)
    rms = float(np.sqrt(np.mean(weighted * weighted)))
    return WeightedResult(a_w=TimeSeries(a.t0, a.dt, weighted, a.unit), a_w_rms=rms)


def weight_axes(run: VehicleResponse, weightings: dict[str, FilterSpec]) -> dict[str, WeightedResult]:
    """Weight the acceleration channel ``a<axis>`` of a run for each axis given."""
    return {axis: weight_signal(run.channel(f"a{axis}"), spec) for axis, spec in weightings.items()}


@dataclass(frozen=True)
class CombinedVibration:
    """Total vibration value."""

    a_v: float

    def __post_init__(self):
        if self.a_v < 0:
            raise InvalidInput("a_v must be >= 0")


def combine(ax_rms: float, ay_rms: float, az_rms: float) -> CombinedVibration:
    """Root-sum-square of the axis RMS values (direction factors of one)."""
    if min(ax_rms, ay_rms, az_rms) < 0:
        raise InvalidInput("axis RMS values must be >= 0")
    a_v = math.sqrt(ax_rms**2 + ay_rms**2 + az_rms**2)
    return CombinedVibration(a_v=a_v)


class IsoClassification(NamedTuple):
    label: str
    perception: str


def severity(label: str) -> int:
    """Index of a label in severity order (NU lowest)."""
    return COMFORT_LABELS.index(label)


def classify_iso(a_v: float) -> IsoClassification:
    """Comfort label for a total vibration value, plus the perception flag.

    The label is the most severe band whose lower bound does not exceed
    ``a_v``; perception is ``below`` / ``transition`` / ``above`` relative to
    the 0.01 - 0.02 m/s^2 perception-probability range.
    """
    if a_v < 0:
        raise InvalidInput("a_v must be >= 0")
    label = "NU"
    for candidate in COMFORT_LABELS:
        if a_v >= COMFORT_LOWER_BOUNDS[candidate]:
            label = candidate
    if a_v < PERCEPTION_RANGE[0]:
        perception = "below"
    elif a_v <= PERCEPTION_RANGE[1]:
        perception = "transition"
    else:
        perception = "above"
    return IsoClassification(label=label, perception=perception)
