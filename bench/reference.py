"""Reference computations the benchmark checks the program's outputs against.

Nothing here calls into ``ridekit``: the golden car is discretised exactly
(matrix exponential with a first-order hold on the input) instead of by the
program's RK4 recursion, the ISO 2631-1 weightings are evaluated from their
analog transfer functions, and the band tables are transcribed from their
published sources.  A check that only re-ran the program's own code would
pass on any regression it shares.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

# --- published tables -------------------------------------------------------

#: Speed-dependent ride-quality bounds [m/km]: upper bounds of VG, G, F, M per
#: travel speed [km/h]; P is everything above the M bound.
IRI_BOUNDS = {
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
IRI_LABELS = ("VG", "G", "F", "M", "P")

#: ISO 2631-1 Annex C comfort reactions: lower bound of total vibration [m/s^2].
ISO_LOWER = {"NU": 0.0, "LU": 0.315, "FU": 0.50, "U": 0.80, "VU": 1.25, "EU": 2.0}
PERCEPTION = (0.01, 0.02)

#: Acceleration comfort corridors (lower, upper) [m/s^2] per axis and style.
BANDS = {
    ("x", "PT"): (-0.90, 0.90),
    ("x", "ND"): (-2.00, 1.47),
    ("x", "AG"): (-5.08, 3.07),
    ("y", "PT"): (-0.90, 0.90),
    ("y", "ND"): (-4.00, 4.00),
    ("y", "AG"): (-5.60, 5.60),
    ("z", "PT"): (-0.10, 0.10),
    ("z", "ND"): (-0.10, 0.10),
    ("z", "AG"): (-0.30, 0.30),
}
STYLES = ("PT", "ND", "AG")

#: ISO 2631-1 weighting parameters [Hz]; None marks an absent term.
WEIGHTINGS = {
    "d": dict(f1=0.4, f2=100.0, f3=2.0, f4=2.0, q4=0.63, step=None),
    "k": dict(f1=0.4, f2=100.0, f3=12.5, f4=12.5, q4=0.63, step=(2.37, 0.91, 3.35, 0.91)),
}


def _labels_near(value: float, rel: float, label_of) -> set[str]:
    """Labels of every value within ``rel`` of ``value``: a printed number
    sitting on a bound may belong to either side."""
    return {label_of(value * (1 - rel)), label_of(value), label_of(value * (1 + rel))}


def iri_label(value: float, speed_kmh: float) -> str:
    """Nearest tabulated speed column (ties to the lower speed); a value on a
    bound belongs to the better band."""
    column = min(IRI_BOUNDS, key=lambda col: (abs(col - speed_kmh), col))
    for label, upper in zip(IRI_LABELS, IRI_BOUNDS[column]):
        if value <= upper:
            return label
    return "P"


def iri_labels_allowed(value: float, speed_kmh: float, rel: float = 1e-6) -> set[str]:
    return _labels_near(value, rel, lambda v: iri_label(v, speed_kmh))


def iso_label(a_v: float) -> str:
    """Most severe reaction whose lower bound ``a_v`` reaches."""
    return max((bound, label) for label, bound in ISO_LOWER.items() if a_v >= bound)[1]


def iso_labels_allowed(a_v: float, rel: float = 1e-6) -> set[str]:
    return _labels_near(a_v, rel, iso_label)


def perception(a_v: float) -> str:
    if a_v < PERCEPTION[0]:
        return "below"
    return "transition" if a_v <= PERCEPTION[1] else "above"


# --- golden car --------------------------------------------------------------


def golden_car() -> tuple[np.ndarray, np.ndarray]:
    """Reference quarter car (Sayers 1995), state [z_s, z_s', z_u, z_u']."""
    c, k1, k2, mu = 6.0, 653.0, 63.3, 0.15
    a = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [-k2, -c, k2, c],
            [0.0, 0.0, 0.0, 1.0],
            [k2 / mu, c / mu, -(k1 + k2) / mu, -c / mu],
        ]
    )
    b = np.array([0.0, 0.0, 0.0, k1 / mu])
    return a, b


def iri_exact(profile: np.ndarray, step: float, speed: float, segment_length: float) -> np.ndarray:
    """Per-segment IRI [m/km] by exact first-order-hold discretisation.

    The elevation is taken as piecewise linear between samples, for which
    ``x[k+1] = Phi x[k] + E1 u[k] + E2 (u[k+1] - u[k]) / dt`` holds exactly
    with the blocks of one matrix exponential.  The car starts on the first
    elevation moving with the mean slope of the first 11 m; each segment
    integrates |z_s' - z_u'| over time (trapezoid) and divides by its length.
    """
    a, b = golden_car()
    dt = step / speed
    block = np.zeros((6, 6))
    block[:4, :4] = a
    block[:4, 4] = b
    block[4, 5] = 1.0
    e = expm(block * dt)
    phi, e1, e2 = e[:4, :4], e[:4, 4], e[:4, 5]
    u = np.asarray(profile, dtype=float)
    drive = np.outer(u[:-1], e1) + np.outer((u[1:] - u[:-1]) / dt, e2)
    i_ramp = min(max(int(round(11.0 / step)), 1), len(u) - 1)
    slope = (u[i_ramp] - u[0]) / (i_ramp * step)
    x = np.array([u[0], slope * speed, u[0], slope * speed])
    rate = np.empty(len(u))
    rate[0] = abs(x[1] - x[3])
    phi_t = phi.T
    for k in range(len(u) - 1):
        x = x @ phi_t + drive[k]
        rate[k + 1] = abs(x[1] - x[3])
    per = int(round(segment_length / step))
    n_seg = (len(u) - 1) // per
    out = np.empty(n_seg)
    for k in range(n_seg):
        seg = rate[k * per : (k + 1) * per + 1]
        out[k] = 1000.0 * float(np.sum(seg[1:] + seg[:-1]) * 0.5 * dt) / (per * step)
    return out


def iri_of_sine(amplitude: float, wavelength: float, speed: float) -> float:
    """Steady-state IRI [m/km] of a sinusoidal profile from the golden car's
    frequency response: mean |rate| = (2/pi) * A * |H(j w)|."""
    a, b = golden_car()
    w = 2.0 * math.pi * speed / wavelength
    h = np.array([0.0, 1.0, 0.0, -1.0]) @ np.linalg.solve(1j * w * np.eye(4) - a, b)
    return 1000.0 * (2.0 / math.pi) * amplitude * abs(h) / speed


# --- ISO 2631-1 weighting ------------------------------------------------------


def weighting_magnitude(weighting: str, f: float) -> float:
    """|W(j 2 pi f)| of the analog band-limiting, transition and step stages."""
    prm = WEIGHTINGS[weighting]
    p = 2j * math.pi * f
    w1, w2 = 2 * math.pi * prm["f1"], 2 * math.pi * prm["f2"]
    w3, w4 = 2 * math.pi * prm["f3"], 2 * math.pi * prm["f4"]
    q = 1 / math.sqrt(2)
    h = p * p / (p * p + p * w1 / q + w1 * w1)
    h *= w2 * w2 / (p * p + p * w2 / q + w2 * w2)
    h *= (1 + p / w3) / (1 + p / (prm["q4"] * w4) + (p / w4) ** 2)
    if prm["step"] is not None:
        f5, q5, f6, q6 = prm["step"]
        w5, w6 = 2 * math.pi * f5, 2 * math.pi * f6
        h *= (p * p + p * w5 / q5 + w5 * w5) / (p * p + p * w6 / q6 + w6 * w6)
    return abs(h)


def weighted_rms(tones: list[tuple[float, float]], weighting: str) -> float:
    """Weighted RMS of a stationary sum of sines given as (frequency, amplitude)."""
    return math.sqrt(sum((amp * weighting_magnitude(weighting, f)) ** 2 / 2 for f, amp in tones))


# --- acceleration bands ----------------------------------------------------------


def critical_windows(values: np.ndarray, band: tuple[float, float], per_window: int, rel: float = 1e-9):
    """Per-window (surely critical, possibly critical) flags of a sampled signal.

    A window is critical when every sample lies strictly outside the band.
    Samples within ``rel`` of a bound count as undecided, so a value that was
    printed or interpolated with rounding is not held against the program.
    """
    lo, hi = band
    margin = rel * max(abs(lo), abs(hi))
    surely = (values > hi + margin) | (values < lo - margin)
    maybe = (values > hi - margin) | (values < lo + margin)
    n = len(values) // per_window
    shape = (n, per_window)
    return (
        surely[: n * per_window].reshape(shape).all(axis=1),
        maybe[: n * per_window].reshape(shape).all(axis=1),
    )
