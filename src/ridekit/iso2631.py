"""Whole-body vibration comfort: frequency weighting, RMS, and comfort bands.

The weighting is a cascade of up to four second-order analog stages (high
pass, low pass, acceleration-velocity transition, upward step) discretized
stage by stage with the bilinear transform ``p = (2/Ts) (1 - z^-1) / (1 + z^-1)``.
Numeric stage parameters ship in ``data/iso_weightings_v1.csv``; a weighting
has the stages whose parameters its row gives.  ``k`` weights vertical and
``d`` horizontal seated comfort.
"""

from __future__ import annotations

import csv
import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from importlib import resources
from typing import NamedTuple

import numpy as np
from scipy.signal import bilinear, sosfilt

from .errors import FilterDesignError, InvalidInput
from .signals import TimeSeries, VehicleResponse

__all__ = [
    "FilterSpec",
    "WeightedResult",
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


@dataclass(frozen=True)
class FilterSpec:
    """Stage parameters of one weighting.

    Corner frequencies ``f*`` are in Hz and ``q*`` are quality factors;
    ``None`` marks an absent parameter.  A cascade stage is present when its
    parameters are given and unity when none is; see :data:`_STAGES`.
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

    def __post_init__(self):
        for stage, (params, _) in _STAGES.items():
            given = [name for name in params if getattr(self, name) is not None]
            missing = [name for name in params if name not in given and name not in _OPTIONAL]
            if given and missing:
                raise InvalidInput(f"{stage} stage of {self.weighting_id!r} needs {', '.join(missing)}")
            for name in given:
                if not (getattr(self, name) > 0):
                    raise InvalidInput(f"{stage} stage of {self.weighting_id!r} needs {name} > 0")


def _high_pass(spec: FilterSpec) -> tuple[list[float], list[float]]:
    w1 = 2 * math.pi * spec.f1
    return [1.0, 0.0, 0.0], [1.0, _SQRT2 * w1, w1 * w1]


def _low_pass(spec: FilterSpec) -> tuple[list[float], list[float]]:
    w2 = 2 * math.pi * spec.f2
    return [0.0, 0.0, w2 * w2], [1.0, _SQRT2 * w2, w2 * w2]


def _transition(spec: FilterSpec) -> tuple[list[float], list[float]]:
    w4 = 2 * math.pi * spec.f4
    if spec.f3 is None:
        num = [0.0, 0.0, w4 * w4]
    else:
        num = [0.0, w4 * w4 / (2 * math.pi * spec.f3), w4 * w4]
    return num, [1.0, w4 / spec.q4, w4 * w4]


def _step(spec: FilterSpec) -> tuple[list[float], list[float]]:
    w5 = 2 * math.pi * spec.f5
    w6 = 2 * math.pi * spec.f6
    return [1.0, w5 / spec.q5, w5 * w5], [1.0, w6 / spec.q6, w6 * w6]


#: Cascade stages in order: the parameters of each and its quadratic analog
#: (b, a) polynomials in p.
_STAGES = {
    "high-pass": (("f1",), _high_pass),
    "low-pass": (("f2",), _low_pass),
    "transition": (("f3", "f4", "q4"), _transition),
    "step": (("f5", "q5", "f6", "q6"), _step),
}

#: Parameters a present stage may leave out (the term drops out).
_OPTIONAL = {"f3"}


@functools.cache
def _table() -> dict[str, FilterSpec]:
    text = resources.files("ridekit.data").joinpath("iso_weightings_v1.csv").read_text(encoding="utf-8")
    rows = [line for line in text.splitlines() if line and not line.startswith("#")]
    params = [name for names, _ in _STAGES.values() for name in names]
    specs = {}
    for record in csv.DictReader(rows):
        values = {name: None if record[name].strip() == "inf" else float(record[name]) for name in params}
        specs[record["id"]] = FilterSpec(weighting_id=record["id"], **values)
    return specs


def available_weightings() -> tuple[str, ...]:
    return tuple(sorted(_table()))


def load_weighting(weighting_id: str) -> FilterSpec:
    """Look up a weighting (e.g. ``"k"`` or ``"d"``) from the shipped table."""
    try:
        return _table()[weighting_id.lower()]
    except KeyError:
        raise InvalidInput(
            f"unknown weighting {weighting_id!r}; shipped: {available_weightings()}"
        ) from None


#: Designed cascades by (spec, sample rate); see :func:`design_filter`.
_DESIGNS: dict[tuple[FilterSpec, float], np.ndarray] = {}


def design_filter(spec: FilterSpec, sample_rate: float) -> np.ndarray:
    """Second-order sections of the discrete weighting cascade.

    Every present stage is bilinear-transformed independently; absent stages
    contribute unity.  The largest corner frequency of each present stage must
    stay at or below the Nyquist frequency.  Frequency warping keeps the
    magnitude within about 1% of the analog cascade for frequencies up to
    ``sample_rate / 20``.

    Memoised by value: equal specs at an equal sample rate share one design,
    returned as a read-only array.
    """
    key = (spec, sample_rate)
    sos = _DESIGNS.get(key)
    if sos is None:
        sos = _DESIGNS[key] = _design(spec, sample_rate)
        sos.setflags(write=False)
    return sos


def _analog_stages(spec: FilterSpec) -> list[tuple[str, float, list[float], list[float]]]:
    """Name, largest corner frequency and (b, a) of each present stage, in cascade order."""
    stages = []
    for stage, (params, polynomials) in _STAGES.items():
        if any(getattr(spec, name) is not None for name in params):
            corner = max(getattr(spec, name) or 0.0 for name in params if name.startswith("f"))
            stages.append((stage, corner, *polynomials(spec)))
    return stages


def _design(spec: FilterSpec, sample_rate: float) -> np.ndarray:
    if sample_rate <= 0:
        raise FilterDesignError("sample_rate must be > 0")
    stages = _analog_stages(spec)
    for stage, corner, _, _ in stages:
        if sample_rate < 2.0 * corner:
            raise FilterDesignError(f"{stage} stage corner {corner} Hz needs sample rate >= {2 * corner} Hz")
    if not stages:
        return np.array([[1.0, 0.0, 0.0, 1.0, 0.0, 0.0]])
    sos = np.empty((len(stages), 6))
    for i, (_, _, b, a) in enumerate(stages):
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
    return WeightedResult(a_w=TimeSeries(a.t0, a.dt, weighted), a_w_rms=rms)


def weight_axes(run: VehicleResponse, weightings: dict[str, FilterSpec]) -> dict[str, WeightedResult]:
    """Weight the acceleration channel ``a<axis>`` of a run for each axis given."""
    return {axis: weight_signal(run.channel(f"a{axis}"), spec) for axis, spec in weightings.items()}


def combine(
    mean_squares: Mapping[str, float | np.ndarray], k_factors: tuple[float, float, float] | None = None
) -> float | np.ndarray:
    """Total vibration value ``a_v = sqrt(sum k^2 * a_w^2)`` over the axes given.

    ``mean_squares`` maps ``x``, ``y`` and ``z`` to the mean square of the
    weighted acceleration: per-axis floats or per-window arrays.
    ``k_factors`` holds the (x, y, z) direction factors (default: one each).
    The sum runs in the mapping's order.
    """
    factors = dict(zip("xyz", k_factors or (1.0, 1.0, 1.0)))
    total = 0.0
    for axis, mean_square in mean_squares.items():
        if not np.all(np.greater_equal(mean_square, 0.0)):
            raise InvalidInput("axis mean squares must be >= 0")
        total = total + factors[axis] ** 2 * mean_square
    return np.sqrt(total)


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
    if not (a_v >= 0):
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
