"""International Roughness Index: reference quarter car and ride-quality bands.

The index accumulates the absolute suspension rate ``|z_s' - z_u'|`` of a
fixed, mass-normalized quarter car driven over an elevation profile at a
reference speed, divided by the traversed length, reported in m/km.  Speed
dependent ride-quality thresholds map index values onto the classes VG (very
good) through P (poor).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .integrators import half_grid_input, rk4_lti
from .vehicle import QuarterCarParams, corner_system

__all__ = [
    "GOLDEN_CAR",
    "IriResult",
    "RIDE_QUALITY_LABELS",
    "IRI_THRESHOLD_SPEEDS_KMH",
    "IRI_THRESHOLDS",
    "STANDARD_SPEED_MS",
    "compute_iri",
    "classify_iri",
    "iri_severity",
]

#: Standard measurement speed: 80 km/h.
STANDARD_SPEED_MS = 80.0 / 3.6

#: Length over which the initial state is matched to the mean profile slope [m].
INIT_RAMP_M = 11.0

#: Longest RK4 time step of the index integration [s].
MAX_IRI_DT = 0.005

#: Ride quality labels in decreasing quality (increasing severity).
RIDE_QUALITY_LABELS = ("VG", "G", "F", "M", "P")

#: Threshold table columns: speed [km/h] -> upper bounds of VG, G, F, M [m/km]
#: (P is everything above).  Magnitudes grow as speed drops.
IRI_THRESHOLD_SPEEDS_KMH = (120, 100, 80, 70, 60, 50, 40, 30, 20, 10)
IRI_THRESHOLDS = {
    120: (0.95, 1.49, 1.89, 2.70),
    100: (1.14, 1.79, 2.27, 3.24),
    80: (1.43, 2.24, 2.84, 4.05),
    70: (1.63, 2.57, 3.25, 4.63),
    60: (1.90, 2.99, 3.79, 5.40),
    50: (2.28, 3.59, 4.54, 6.25),
    40: (2.86, 4.49, 5.69, 8.08),
    30: (3.80, 5.99, 7.59, 10.80),
    20: (5.72, 8.99, 11.39, 16.16),
    10: (11.44, 17.99, 22.79, 32.32),
}


#: The reference car of the index, mass-normalized (sprung mass 1) and without
#: tire damping.  In the index's usual notation c, k1, k2 and mu are c_s, k_t,
#: k_s and m_u.
GOLDEN_CAR = QuarterCarParams(m_s=1.0, m_u=0.15, k_s=63.3, c_s=6.0, k_t=653.0, d_t=0.0)


@dataclass(frozen=True)
class IriResult:
    """Roughness of one segment."""

    iri: float
    segment_length: float
    s_start: float

    def __post_init__(self):
        if self.iri < 0 or self.segment_length <= 0:
            raise InvalidInput("iri must be >= 0 and segment_length > 0")


def compute_iri(
    profile: np.ndarray,
    step: float,
    speed: float = STANDARD_SPEED_MS,
    segment_length: float = 100.0,
) -> list[IriResult]:
    """Per-segment roughness index of an elevation profile.

    The golden car's state equation is integrated once over the whole
    profile, taken as piecewise linear between samples, with RK4 steps of at
    most ``MAX_IRI_DT``: each profile step of ``step / speed`` seconds is
    split into equal substeps.  The absolute suspension rate at the profile
    samples is accumulated per contiguous segment of ``segment_length``
    meters (a trailing partial segment is dropped).  The initial state sits
    on the initial elevation and moves with the mean slope of the first
    ``INIT_RAMP_M`` meters, which keeps the index exactly invariant under a
    constant profile offset.

    ``speed`` is in m/s; the standard index is defined at 80 km/h.
    """
    profile = np.asarray(profile, dtype=float)
    if profile.ndim != 1 or len(profile) < 2:
        raise InvalidInput("profile must hold at least two samples")
    if not np.all(np.isfinite(profile)):
        raise InvalidInput("profile contains non-finite samples")
    if step <= 0 or step > 0.25:
        raise InvalidInput(f"profile step {step:g} m outside (0, 0.25] m")
    if not (0 < speed < np.inf and 0 < segment_length < np.inf):
        raise InvalidInput(f"speed {speed:g} m/s and segment length {segment_length:g} m must be finite and > 0")
    per_segment = int(round(segment_length / step))
    if per_segment < 1:
        raise InvalidInput(f"a {segment_length:g} m segment covers no {step:g} m profile step")
    length = (len(profile) - 1) * step
    if length < segment_length:
        raise InvalidInput(f"profile covers {length:.1f} m, shorter than one {segment_length:.1f} m segment")

    dt = step / speed
    i_ramp = min(int(round(INIT_RAMP_M / step)), len(profile) - 1)
    if i_ramp < 1:
        i_ramp = 1
    slope = (profile[i_ramp] - profile[0]) / (i_ramp * step)
    x0 = np.array([profile[0], slope * speed, profile[0], slope * speed])
    n_sub = int(np.ceil(dt / MAX_IRI_DT))
    fine = np.interp(np.arange((len(profile) - 1) * n_sub + 1) / n_sub, np.arange(len(profile)), profile)
    a, b = corner_system(GOLDEN_CAR)
    states = rk4_lti(a, b[:, :1], half_grid_input(fine)[:, None], dt / n_sub, x0)[::n_sub]
    rate = np.abs(states[:, 1] - states[:, 3])

    n_segments = int(np.floor((len(profile) - 1) / per_segment + 1e-9))
    results = []
    for k in range(n_segments):
        i0 = k * per_segment
        i1 = i0 + per_segment
        accumulated = float(np.trapezoid(rate[i0 : i1 + 1], dx=dt))
        seg_len = per_segment * step
        results.append(
            IriResult(
                iri=1000.0 * accumulated / seg_len,
                segment_length=seg_len,
                s_start=i0 * step,
            )
        )
    return results


def classify_iri(iri: float, speed_kmh: float) -> str:
    """Ride-quality label for an index value at a given travel speed [km/h].

    Thresholds come from the column whose tabulated speed is nearest to the
    query (ties resolve to the lower speed); a value sitting exactly on a band
    boundary belongs to the less severe band.
    """
    if iri < 0:
        raise InvalidInput("iri must be >= 0")
    if not (0 < speed_kmh <= 130):
        raise InvalidInput("speed must be in (0, 130] km/h")
    best = min(IRI_THRESHOLD_SPEEDS_KMH, key=lambda col: (abs(col - speed_kmh), col))
    bounds = IRI_THRESHOLDS[best]
    for label, upper in zip(RIDE_QUALITY_LABELS, bounds):
        if iri <= upper:
            return label
    return "P"


def iri_severity(label: str) -> int:
    """Index of a ride-quality label in severity order (VG lowest)."""
    return RIDE_QUALITY_LABELS.index(label)

