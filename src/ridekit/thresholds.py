"""Acceleration-band comfort classification.

A :class:`ThresholdBand` marks the comfortable corridor of one axis under one
driving style; :func:`exceedance` turns a space-domain acceleration signal
into a boolean criticality signal.  The band values live in
``data/comfort_bands_v1.csv`` and can be overridden from a user file so the
table can track the literature without code changes.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import InvalidInput
from .signals import SpaceSeries

__all__ = [
    "AXES",
    "STYLES",
    "ThresholdBand",
    "ExceedanceSignal",
    "load_bands",
    "exceedance",
]

AXES = ("x", "y", "z")
STYLES = ("PT", "ND", "AG")


@dataclass(frozen=True)
class ThresholdBand:
    """Comfort corridor (lower, upper) of one axis and driving style [m/s^2]."""

    axis: str
    style: str
    lower: float
    upper: float

    def __post_init__(self):
        if self.axis not in AXES:
            raise InvalidInput(f"axis must be one of {AXES}")
        if self.style not in STYLES:
            raise InvalidInput(f"style must be one of {STYLES}")
        if not (self.lower < 0 < self.upper):
            raise InvalidInput("band must satisfy lower < 0 < upper")

    @property
    def label(self) -> str:
        return f"C_{self.style},{self.axis}"


@dataclass(frozen=True)
class ExceedanceSignal:
    """Boolean per-position criticality signal for one band."""

    series: SpaceSeries
    band: ThresholdBand

    @property
    def label(self) -> str:
        return self.band.label


def load_bands(path=None) -> dict[tuple[str, str], ThresholdBand]:
    """Band table keyed by (axis, style); reads the shipped table by default."""
    if path is None:
        text = resources.files("ridekit.data").joinpath("comfort_bands_v1.csv").read_text(encoding="utf-8")
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    rows = [line for line in text.splitlines() if line.strip() and not line.startswith("#")]
    bands = {}
    for record in csv.DictReader(rows):
        band = ThresholdBand(
            axis=record["axis"].strip(),
            style=record["style"].strip(),
            lower=float(record["lower"]),
            upper=float(record["upper"]),
        )
        bands[(band.axis, band.style)] = band
    missing = [(a, s) for a in AXES for s in STYLES if (a, s) not in bands]
    if missing:
        raise InvalidInput(f"band table incomplete; missing {missing}")
    return bands


def exceedance(signal: SpaceSeries, band: ThresholdBand) -> ExceedanceSignal:
    """True wherever the signal leaves the comfortable corridor.

    Boundary semantics are strict: a sample exactly at a bound is comfortable.
    """
    values = np.asarray(signal.values, dtype=float)
    flags = (values > band.upper) | (values < band.lower)
    return ExceedanceSignal(series=SpaceSeries(s0=signal.s0, ds=signal.ds, values=flags), band=band)
