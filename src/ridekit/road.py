"""Road surface model: reference line, regular elevation grid, smoothed
wheel tracks, and a synthetic roughness generator.

The grid format is a deliberately small text format (see :func:`load_grid`)
carrying the same semantics as curved-regular-grid road files: a reference line
sampled at uniform stations plus elevation columns at fixed lateral offsets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
import io
import threading

import numpy as np

from .errors import DomainBoundsError, GridParseError, InvalidInput
from .signals import is_data_line, parse_rows

__all__ = [
    "ReferenceLine",
    "RoadGrid",
    "SmoothingParams",
    "SurfaceInterpolator",
    "ROUGHNESS_PSD_SCALE",
    "REFERENCE_WAVENUMBER",
    "load_grid",
    "save_grid",
    "synth_profile",
    "wheel_track_profile",
    "straight_grid",
]

#: Fewest nodes ``make_smoothing_spline`` accepts; a shorter axis stays unsmoothed.
_MIN_SMOOTHING_NODES = 5

#: One-sided displacement PSD magnitude at the reference wavenumber, per
#: roughness class [m^3].  Each class doubles the profile amplitude of the
#: previous one.
ROUGHNESS_PSD_SCALE = {"A": 1e-6, "B": 4e-6, "C": 16e-6, "D": 64e-6, "E": 256e-6}

#: Reference spatial frequency n0 [cycles/m] of the PSD ladder.
REFERENCE_WAVENUMBER = 0.1

#: Hard bound on plausible elevations relative to the reference line [m].
_ELEVATION_BOUND = 10.0

#: Serialises first builds of a grid's surfaces: callers may share one grid
#: across their own threads, and each surface must be built once.
_SURFACE_LOCK = threading.Lock()


@dataclass(frozen=True)
class ReferenceLine:
    """Track reference line sampled at strictly increasing stations.

    ``headings`` are in radians, ``curvature`` in 1/m.
    """

    stations: np.ndarray
    headings: np.ndarray
    elevation: np.ndarray
    curvature: np.ndarray

    def __post_init__(self):
        stations = np.asarray(self.stations, dtype=float)
        if stations.ndim != 1 or len(stations) < 2:
            raise InvalidInput("need at least two stations")
        if np.any(np.diff(stations) <= 0):
            raise InvalidInput("stations must be strictly increasing")
        object.__setattr__(self, "stations", stations)
        for name in ("headings", "elevation", "curvature"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != stations.shape:
                raise InvalidInput(f"{name} must match stations in length")
            object.__setattr__(self, name, arr)

    @classmethod
    def from_geometry(cls, stations, headings, elevation) -> "ReferenceLine":
        """Build a reference line from stations, headings and elevations.

        The curvature is the central-difference derivative of the headings.
        """
        stations = np.asarray(stations, dtype=float)
        headings = np.asarray(headings, dtype=float)
        curvature = np.gradient(headings, stations)
        return cls(stations=stations, headings=headings, elevation=elevation, curvature=curvature)

    def curvature_at(self, s) -> np.ndarray:
        return np.interp(s, self.stations, self.curvature)


@dataclass(frozen=True)
class SmoothingParams:
    """Smoothing penalties on second-derivative energy; 0 = pure interpolation.

    ``lambda_x`` smooths along stations, ``lambda_y`` across lateral offsets,
    ``lambda_z`` is applied to extracted elevation profiles (the 1-D signal fed
    to the roughness and vehicle models).
    """

    lambda_x: float = 0.0
    lambda_y: float = 0.0
    lambda_z: float = 0.0

    def __post_init__(self):
        if not all(np.isfinite(lam) and lam >= 0 for lam in (self.lambda_x, self.lambda_y, self.lambda_z)):
            raise InvalidInput("smoothing penalties must be finite and >= 0")


@dataclass(frozen=True)
class RoadGrid:
    """Dense elevation grid attached to a reference line.

    ``elevations`` has one row per station and one column per lateral offset;
    a grid has at least two offsets, so both wheels of a vehicle can sit
    inside it.  Its stations are ``grid_step`` apart (to 1e-6 of the step),
    so its rows, its IRI step and the vehicle positions share one spacing.
    ``outliers_replaced`` reports how many cells the load-time cleaning step
    replaced with the local median.  The grid is immutable, so the smoothed
    surface of each :class:`SmoothingParams` is built once and kept on it
    (see :meth:`surface`), and :attr:`laterally_uniform` is computed once.
    """

    ref_line: ReferenceLine
    lateral_offsets: np.ndarray
    elevations: np.ndarray
    grid_step: float
    outliers_replaced: int = 0
    _surfaces: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.grid_step > 0):
            raise InvalidInput("grid_step must be > 0")
        if np.max(np.abs(np.diff(self.ref_line.stations) - self.grid_step)) > 1e-6 * self.grid_step:
            raise InvalidInput(f"station spacing disagrees with grid_step={self.grid_step}")
        offsets = np.asarray(self.lateral_offsets, dtype=float)
        if offsets.ndim != 1 or offsets.size < 2:
            raise InvalidInput("lateral_offsets must be a 1-D array of at least two offsets")
        if np.any(np.diff(offsets) <= 0):
            raise InvalidInput("lateral_offsets must be strictly increasing")
        elev = np.asarray(self.elevations, dtype=float)
        if elev.shape != (len(self.ref_line.stations), len(offsets)):
            raise InvalidInput("elevations must have shape (n_stations, n_offsets)")
        if not np.all(np.isfinite(elev)):
            raise InvalidInput("elevation grid has missing or non-finite cells")
        if np.any(np.abs(elev - self.ref_line.elevation[:, None]) > _ELEVATION_BOUND):
            raise InvalidInput(f"elevations deviate more than {_ELEVATION_BOUND} m from the reference line")
        object.__setattr__(self, "lateral_offsets", offsets)
        object.__setattr__(self, "elevations", elev)

    @property
    def stations(self) -> np.ndarray:
        return self.ref_line.stations

    @property
    def length(self) -> float:
        return float(self.stations[-1] - self.stations[0])

    @cached_property
    def laterally_uniform(self) -> bool:
        """Whether every offset column equals the first (as on :func:`straight_grid`)."""
        return bool(np.all(self.elevations == self.elevations[:, :1]))

    def check_offset(self, v) -> None:
        """Raise :class:`DomainBoundsError` for lateral offsets outside the columns."""
        _check_range(v, self.lateral_offsets[0], self.lateral_offsets[-1], "lateral offset")

    def surface(self, params: SmoothingParams | None = None) -> SurfaceInterpolator:
        """The smoothed surface of this grid under ``params``, built on first use."""
        params = params or SmoothingParams()
        with _SURFACE_LOCK:
            built = self._surfaces.get(params)
            if built is None:
                built = self._surfaces[params] = SurfaceInterpolator(self, params)
        return built


# ---------------------------------------------------------------------------
# Grid file format
# ---------------------------------------------------------------------------

_HEADER_KEYS = ("station_step", "offset_start", "offset_step", "n_offsets")


def save_grid(path, grid: RoadGrid) -> None:
    """Write a grid in the plain-text format understood by :func:`load_grid`.

    Floats are written with ``repr`` so a save/load round trip is exact.
    """
    step = float(grid.stations[1] - grid.stations[0])
    offsets = grid.lateral_offsets
    buf = io.StringIO()
    buf.write(f"station_step={step!r}\n")
    buf.write(f"offset_start={float(offsets[0])!r}\n")
    buf.write(f"offset_step={float(offsets[1] - offsets[0])!r}\n")
    buf.write(f"n_offsets={len(offsets)}\n")
    for i, s in enumerate(grid.stations):
        row = [repr(float(s)), repr(float(grid.ref_line.headings[i])), repr(float(grid.ref_line.elevation[i]))]
        row += [repr(float(z)) for z in grid.elevations[i]]
        buf.write(" ".join(row) + "\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())


def load_grid(path) -> RoadGrid:
    """Parse a grid file and replace outlier cells by the local median.

    The header gives ``station_step``, ``offset_start``, ``offset_step`` and
    ``n_offsets`` (at least two); each data row holds the station, heading,
    reference elevation and one elevation per lateral offset.
    A cell is an outlier when its deviation from the 3x3 neighborhood median
    exceeds five robust standard deviations (and one micrometer absolutely),
    or when it violates the +-10 m plausibility bound around the reference
    elevation.  The replacement count is reported on the returned grid.
    """
    header: dict[str, float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    n_offsets = None
    for lineno, raw in enumerate(lines, start=1):
        if not is_data_line(raw):
            continue
        line = raw.strip()
        if "=" not in line:
            raise GridParseError("data before complete header", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _HEADER_KEYS:
            raise GridParseError(f"unknown header {key!r}", line=lineno)
        try:
            header[key] = float(value)
        except ValueError:
            raise GridParseError(f"non-numeric header value for {key!r}", line=lineno) from None
        if len(header) == len(_HEADER_KEYS):
            n_offsets = int(header["n_offsets"])
            if n_offsets < 2:
                raise GridParseError("n_offsets must be >= 2", line=lineno)
            break
    if n_offsets is None:
        raise GridParseError("missing header", line=len(lines) or 1)
    body = lines[lineno:]
    data = parse_rows(body, lineno + 1, 3 + n_offsets, None, GridParseError)
    if len(data) < 2:
        raise GridParseError("need at least two stations", line=len(lines))
    stations = data[:, 0]
    if np.any(np.diff(stations) <= 0):
        bad = int(np.flatnonzero(np.diff(stations) <= 0)[0])
        row_lines = [n for n, text in enumerate(body, start=lineno + 1) if is_data_line(text)]
        raise GridParseError("stations not strictly increasing", line=row_lines[bad + 1])
    offsets = header["offset_start"] + header["offset_step"] * np.arange(n_offsets)
    elevations, replaced = _clean_grid(data[:, 3:], data[:, 2])
    ref = ReferenceLine.from_geometry(stations, data[:, 1], data[:, 2])
    try:
        return RoadGrid(
            ref_line=ref,
            lateral_offsets=offsets,
            elevations=elevations,
            grid_step=header["station_step"],
            outliers_replaced=replaced,
        )
    except InvalidInput as exc:
        raise GridParseError(str(exc)) from None


def _clean_grid(elevations: np.ndarray, ref_elevation: np.ndarray) -> tuple[np.ndarray, int]:
    # Rows are levelled by their robust crossfall before the median: edge
    # padding counts an edge cell twice in its neighbours' windows, so on a
    # tilted row an edge outlier would drag their medians to the next column.
    crossfall = np.median(np.diff(elevations, axis=1), axis=1)
    tilt = crossfall[:, None] * np.arange(elevations.shape[1])
    med = _local_median(elevations - tilt) + tilt
    resid = elevations - med
    # Scale estimated from the local-mean deviation field, which is not
    # zero-censored the way median residuals are (on laterally uniform grids
    # more than half of them vanish exactly, deflating a naive std and turning
    # ordinary roughness extrema into false outliers).
    sigma = float(np.std(elevations - _local_mean(elevations)))
    mask = (np.abs(resid) > 5.0 * sigma) & (np.abs(resid) > 1e-6)
    mask |= np.abs(elevations - ref_elevation[:, None]) > _ELEVATION_BOUND
    if not mask.any():
        return elevations, 0
    cleaned = elevations.copy()
    cleaned[mask] = med[mask]
    return cleaned, int(mask.sum())


def _local_median(z: np.ndarray) -> np.ndarray:
    """Median of each cell's 3x3 neighbourhood, the edges padded with their nearest cells.

    The median is one of the nine values, so the selection is exact.
    """
    rows, cols = z.shape
    padded = np.pad(z, 1, mode="edge")
    near = np.stack([padded[i : i + rows, j : j + cols] for i in range(3) for j in range(3)], axis=-1)
    near.partition(4, axis=-1)
    return near[..., 4]


def _local_mean(z: np.ndarray) -> np.ndarray:
    """Mean of each cell's 3x3 neighbourhood, the edges padded with their nearest cells."""
    padded = np.pad(z, 1, mode="edge")
    down = (padded[:-2] + padded[1:-1] + padded[2:]) / 3.0
    return (down[:, :-2] + down[:, 1:-1] + down[:, 2:]) / 3.0


# ---------------------------------------------------------------------------
# Surface queries
# ---------------------------------------------------------------------------


def _check_range(values, lo, hi, what: str) -> None:
    """Raise :class:`DomainBoundsError` for ``values`` outside ``[lo, hi]`` (1e-9 slack)."""
    values = np.asarray(values, dtype=float)
    if np.any(values < lo - 1e-9) or np.any(values > hi + 1e-9):
        raise DomainBoundsError(f"{what} query outside [{lo}, {hi}]")


def _interval_coefficients(offsets: np.ndarray) -> np.ndarray:
    """The interpolating spline through values at ``offsets``, as a linear map.

    Returns ``c`` of shape ``(n - 1, 4, n)``: on the interval from
    ``offsets[i]``, the spline through node values ``y`` is
    ``sum(c[i, k] @ y * t**k)`` with ``t`` the distance from ``offsets[i]``.
    The spline is the one ``make_interp_spline`` builds with
    ``k=min(3, n - 1)``: cubic with not-a-knot ends on four or more offsets,
    else the one polynomial of degree ``n - 1`` through the nodes.  The node
    slopes come from one solve; each interval is then the cubic with its
    ends' values and slopes.
    """
    n = len(offsets)
    h = np.diff(offsets)
    nodes = np.eye(n)
    secants = (nodes[1:] - nodes[:-1]) / h[:, None]
    lhs = np.zeros((n, n))  # slopes -> equations
    rhs = np.zeros((n, n - 1))  # secants -> equations
    for i in range(1, n - 1):
        lhs[i, i - 1 : i + 2] = h[i], 2.0 * (h[i - 1] + h[i]), h[i - 1]
        rhs[i, i - 1 : i + 1] = 3.0 * h[i], 3.0 * h[i - 1]
    if n >= 4:  # not-a-knot: a third derivative continuous at the second and the last but one node
        d = h[0] + h[1]
        lhs[0, :2] = h[1], d
        rhs[0, :2] = (h[0] + 2.0 * d) * h[1] / d, h[0] ** 2 / d
        d = h[-2] + h[-1]
        lhs[-1, -2:] = d, h[-2]
        rhs[-1, -2:] = h[-1] ** 2 / d, (2.0 * d + h[-1]) * h[-2] / d
    elif n == 3:  # a parabola: no cubic term on either interval
        lhs[0, :2] = lhs[-1, -2:] = 1.0
        rhs[0, 0] = rhs[-1, -1] = 2.0
    else:  # a line
        lhs[0, 0] = lhs[1, 1] = 1.0
        rhs[:, 0] = 1.0
    slopes = np.linalg.solve(lhs, rhs @ secants)
    quadratic = (3.0 * secants - 2.0 * slopes[:-1] - slopes[1:]) / h[:, None]
    cubic = (slopes[:-1] + slopes[1:] - 2.0 * secants) / (h * h)[:, None]
    return np.stack([nodes[:-1], slopes[:-1], quadratic, cubic], axis=1)


class SurfaceInterpolator:
    """The (smoothed) elevation rows of one grid, read across at any lateral offset.

    Build once and read many tracks; the smoothing runs at construction.
    Every query falls on the grid's stations, so a track is each row's
    interpolating spline across the offsets (cubic, lower on fewer than four
    offsets) at one offset: the rows times one weight vector
    (:meth:`weights`).  The spline's coefficient map is solved once per
    surface, on the first track that needs it.  With ``lambda_y == 0`` on a
    laterally uniform grid every track is the first offset column itself,
    bit for bit, and no weights are computed.  With all penalties zero a
    track at an offset node is that column of the grid.
    """

    def __init__(self, grid: RoadGrid, params: SmoothingParams | None = None):
        self.params = params or SmoothingParams()
        z = grid.elevations
        stations = grid.stations
        # The grid keeps its surfaces, so a surface keeping the grid would
        # make a reference cycle that only the cyclic collector frees.
        self.lateral_offsets = offsets = grid.lateral_offsets
        if self.params.lambda_x > 0 and len(stations) >= _MIN_SMOOTHING_NODES:
            from scipy.interpolate import make_smoothing_spline

            z = make_smoothing_spline(stations, z, lam=self.params.lambda_x, axis=0)(stations)
        if self.params.lambda_y > 0 and len(offsets) >= _MIN_SMOOTHING_NODES:
            from scipy.interpolate import make_smoothing_spline

            z = make_smoothing_spline(offsets, z, lam=self.params.lambda_y, axis=1)(offsets)
        self.elevations = z
        self._uniform = self.params.lambda_y == 0 and grid.laterally_uniform

    @cached_property
    def _coefficients(self) -> np.ndarray:
        return _interval_coefficients(self.lateral_offsets)

    def weights(self, v: float) -> np.ndarray:
        """The weight of each offset column in the track at lateral offset ``v``."""
        offsets = self.lateral_offsets
        i = min(max(int(np.searchsorted(offsets, v, side="right")) - 1, 0), len(offsets) - 2)
        t = float(v) - offsets[i]
        c = self._coefficients[i]
        return c[0] + t * (c[1] + t * (c[2] + t * c[3]))

    def track(self, v: float) -> np.ndarray:
        """Elevations at every station along one lateral offset ``v``."""
        offsets = self.lateral_offsets
        _check_range(v, offsets[0], offsets[-1], "lateral offset")
        if self._uniform:
            return self.elevations[:, 0].copy()
        return self.elevations @ self.weights(v)


def wheel_track_profile(grid: RoadGrid, lateral_offset: float, params: SmoothingParams | None = None) -> np.ndarray:
    """Elevation profile along the reference line at a fixed lateral offset.

    One sample per station; this is the smoothed elevation input consumed by
    the roughness index and the vehicle corners.  ``lambda_z`` applies a
    final 1-D smoothing pass to the extracted profile.  Every call on one
    grid with equal ``params`` reads the same surface (:meth:`RoadGrid.surface`).
    """
    params = params or SmoothingParams()
    profile = grid.surface(params).track(lateral_offset)
    if params.lambda_z > 0 and len(profile) >= _MIN_SMOOTHING_NODES:
        from scipy.interpolate import make_smoothing_spline

        profile = make_smoothing_spline(grid.stations, profile, lam=params.lambda_z)(grid.stations)
    return profile


# ---------------------------------------------------------------------------
# Synthetic roughness
# ---------------------------------------------------------------------------


def synth_profile(length: float, step: float, roughness_class: str, seed: int) -> np.ndarray:
    """Zero-mean synthetic elevation profile of a given roughness class.

    The profile realizes the one-sided displacement PSD
    ``Phi(n) = Phi0 * (n / n0)**-2`` by random-phase spectral shaping: spectral
    amplitudes are fixed by the target PSD, phases drawn uniformly from a
    seeded generator, the DC bin zeroed.  Identical seeds give identical
    phases, so profiles of different classes scale into each other exactly.
    """
    klass = roughness_class.upper()
    if klass not in ROUGHNESS_PSD_SCALE:
        raise InvalidInput(f"unknown roughness class {roughness_class!r}; expected A..E")
    if step <= 0:
        raise InvalidInput("step must be > 0")
    if length < 10 * step:
        raise InvalidInput("length must be at least 10 * step")
    n = int(round(length / step))
    phi0 = ROUGHNESS_PSD_SCALE[klass]
    freqs = np.fft.rfftfreq(n, d=step)
    amplitude = np.zeros_like(freqs)
    amplitude[1:] = np.sqrt(phi0 * (freqs[1:] / REFERENCE_WAVENUMBER) ** -2 * n / (2.0 * step))
    if n % 2 == 0:
        amplitude[-1] = 0.0
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, len(freqs))
    spectrum = amplitude * np.exp(1j * phases)
    spectrum[0] = 0.0
    return np.fft.irfft(spectrum, n=n)


def straight_grid(profile: np.ndarray, step: float, lateral_span: float = 2.0, offset_step: float = 0.5) -> RoadGrid:
    """Wrap an elevation profile into a straight, flat-reference grid.

    Every lateral column carries the same profile; the columns run from
    ``-lateral_span`` to ``+lateral_span`` in steps of ``offset_step``.
    """
    profile = np.asarray(profile, dtype=float)
    stations = step * np.arange(len(profile))
    n_offsets = int(round(2 * lateral_span / offset_step)) + 1
    offsets = -lateral_span + offset_step * np.arange(n_offsets)
    elevations = np.tile(profile[:, None], (1, n_offsets))
    ref = ReferenceLine.from_geometry(stations, np.zeros_like(stations), np.zeros_like(stations))
    return RoadGrid(ref_line=ref, lateral_offsets=offsets, elevations=elevations, grid_step=step)
