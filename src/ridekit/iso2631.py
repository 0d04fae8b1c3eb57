"""Whole-body vibration comfort: frequency weighting, RMS, and comfort bands.

The weighting is a cascade of up to four second-order analog stages (high
pass, low pass, acceleration-velocity transition, upward step) discretized
stage by stage with the bilinear transform ``p = (2/Ts) (1 - z^-1) / (1 + z^-1)``.
Numeric stage parameters ship in ``data/iso_weightings_v1.csv``; a weighting
has the stages whose parameters its row gives.  ``k`` weights vertical and
``d`` horizontal seated comfort.

The discrete cascade runs as one state-space filter over blocks of
``_BLOCK`` samples.  Within a block, the outputs are ``T u + H z``: ``T`` is
the lower-triangular Toeplitz matrix of the cascade's impulse response,
``H`` maps the block's starting state ``z`` to its outputs.  From block to
block the state follows ``z[k+1] = A^L z[k] + F u[k]``, which runs in the
real Schur basis of ``A^L`` through the banded solve of
:func:`ridekit.integrators.solve_recursion`.  So the whole filter is a few
matrix products and one banded solve per chunk of ``_CHUNK_BLOCKS`` blocks,
on numpy and ``scipy.linalg`` alone.
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

from .errors import FilterDesignError, InvalidInput
from .integrators import recursion_band, solve_recursion
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


#: The bilinear map of a quadratic in ``p``, times ``(1 + z^-1)^2``: its
#: coefficients (highest power first), scaled by ``[c^2, c, 1]`` with
#: ``c = 2 fs``, weight the rows of this matrix, the coefficients in ``z^-1``
#: of ``(1 - z^-1)^2``, ``(1 - z^-1)(1 + z^-1)`` and ``(1 + z^-1)^2``.
_BILINEAR = np.array([[1.0, -2.0, 1.0], [1.0, 0.0, -1.0], [1.0, 2.0, 1.0]])


def _design(spec: FilterSpec, sample_rate: float) -> np.ndarray:
    if sample_rate <= 0:
        raise FilterDesignError("sample_rate must be > 0")
    stages = _analog_stages(spec)
    for stage, corner, _, _ in stages:
        if sample_rate < 2.0 * corner:
            raise FilterDesignError(f"{stage} stage corner {corner} Hz needs sample rate >= {2 * corner} Hz")
    if not stages:
        return np.array([[1.0, 0.0, 0.0, 1.0, 0.0, 0.0]])
    c = 2.0 * sample_rate
    scale = np.array([c * c, c, 1.0])
    sos = np.empty((len(stages), 6))
    for i, (_, _, b, a) in enumerate(stages):
        sos[i, :3] = (scale * b) @ _BILINEAR
        sos[i, 3:] = (scale * a) @ _BILINEAR
        sos[i] /= sos[i, 3]
    return sos


#: Samples per block of the weighting filter.  The products within a block
#: cost ``_BLOCK`` multiply-adds a sample, the solve from block to block
#: about ``n^2 / _BLOCK`` for ``n`` states.
_BLOCK = 32

#: Blocks per chunk of the weighting filter, as in ``solve_recursion``.  A
#: chunk's largest product, (257, 32) @ (32, 32), stays on one thread:
#: OpenBLAS 0.3.31 first split these products over two threads between 512
#: and 1024 rows (see ``integrators._BLOCK_ROWS`` for what that costs).
_CHUNK_BLOCKS = 256


def _state_space(sos: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """``(A, B, C, D)`` of the cascade, two states per section.

    A section's input ``v`` (the output of the cascade before it) drives its
    first state, and its output is ``b0 v`` plus its states weighted by ``c``.
    Its own 2x2 block of ``A`` is a rotation and scaling for a complex pole
    pair, and lower bidiagonal for real poles, so that the powers of ``A``
    stay near its poles' magnitudes.  With the direct-form companion blocks
    instead, the powers for ``d`` at 1 kHz reach a norm of about 400, and
    the blocked filter's error, against a loop in extended precision, is ten
    times the direct-form loop's; with these blocks it is below the loop's.
    """
    n = 2 * len(sos)
    A = np.zeros((n, n))
    B = np.zeros(n)
    C = np.zeros(n)
    D = 1.0
    for i, (b0, b1, b2, _, a1, a2) in enumerate(sos):
        # poles mid +- sqrt(disc), the roots of z^2 + a1 z + a2
        mid = -0.5 * a1
        disc = mid * mid - a2
        if disc < 0:
            w = math.sqrt(-disc)
            block = np.array([[mid, -w], [w, mid]])
        else:
            root = math.sqrt(disc)
            block = np.array([[mid + root, 0.0], [1.0, mid - root]])
        # (zI - block)^-1 e1 = [z - block[1, 1], block[1, 0]] / (z^2 + a1 z + a2),
        # so c matches the section's numerator less b0 times its denominator
        beta1, beta2 = b1 - a1 * b0, b2 - a2 * b0
        own = slice(2 * i, 2 * i + 2)
        A[own, own] = block
        A[2 * i, : 2 * i] = C[: 2 * i]
        B[2 * i] = D
        C[: 2 * i] *= b0
        C[own] = beta1, (beta2 + beta1 * block[1, 1]) / block[1, 0]
        D *= b0
    return A, B, C, D


@functools.lru_cache(maxsize=8)
def _blocked_filter(sos_bytes: bytes) -> tuple[np.ndarray, ...]:
    """The parts of :func:`weight_signal`'s filter that depend only on the design, read-only.

    The design arrives as the bytes of its sections, so that the memo, of the
    last 8 designs, compares them byte for byte.  Returns ``T^T``,
    ``(Q^T F)^T``, ``(H Q)^T`` (each to multiply block rows) and the band of
    the longest chunk's solve, where ``A^L = Q R Q^T`` is the real Schur form
    of the block-to-block state map.
    """
    from scipy.linalg import schur, toeplitz

    A, B, C, D = _state_space(np.frombuffer(sos_bytes).reshape(-1, 6))
    n = len(A)
    H = np.empty((_BLOCK, n))  # H[j] = C A^j
    F = np.empty((n, _BLOCK))  # F[:, j] = A^(L-1-j) B
    row, column = C, B
    for j in range(_BLOCK):
        H[j], F[:, _BLOCK - 1 - j] = row, column
        row, column = row @ A, A @ column
    impulse = np.concatenate([[D], H[:-1] @ B])  # D, C B, C A B, ...
    T = toeplitz(impulse, np.zeros(_BLOCK))
    R, Q = schur(np.linalg.matrix_power(A, _BLOCK))
    parts = (T.T.copy(), (Q.T @ F).T.copy(), (H @ Q).T.copy(), recursion_band(R, _CHUNK_BLOCKS))
    for part in parts:
        part.flags.writeable = False
    return parts


def _filter(x: np.ndarray, sos: np.ndarray) -> np.ndarray:
    """The cascade ``sos`` applied to ``x`` from zero state, block by block."""
    tt, ft, ht, band = _blocked_filter(sos.tobytes())
    count = len(x)
    blocks = -(-count // _BLOCK)
    longest = min(blocks, _CHUNK_BLOCKS + 1)
    # Work arrays for the longest chunk, reused by every chunk: its input
    # blocks (the last one padded with zeros), the modal states at the block
    # starts, and one output product.
    u = np.empty((longest, _BLOCK))
    z = np.zeros((longest + 1, ht.shape[0]))
    product = np.empty((longest, _BLOCK))
    out = np.empty(blocks * _BLOCK)
    y = out.reshape(blocks, _BLOCK)

    def drive(start, stop, w):
        samples = x[start * _BLOCK : stop * _BLOCK]
        flat = u[: stop - start].reshape(-1)
        flat[: len(samples)] = samples
        flat[len(samples) :] = 0.0
        np.matmul(u[: stop - start], ft, out=w)

    def emit(start, stop, modal):
        rows = stop - start
        np.matmul(u[:rows], tt, out=y[start:stop])
        y[start:stop] += np.matmul(modal[:rows], ht, out=product[:rows])

    solve_recursion(band, z, blocks, drive, emit)
    return out[:count]


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
    sos = design_filter(spec, 1.0 / a.dt)
    if a.values.any():
        weighted = _filter(a.values, sos)
    else:  # zero in gives exactly zero out
        weighted = np.zeros(len(a.values))
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
