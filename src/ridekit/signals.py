"""Uniformly sampled trace containers and the time-to-space transform.

Everything downstream (classification, calibration, reporting) consumes the three
containers defined here: :class:`TimeSeries` for a single channel, a
:class:`VehicleResponse` bundling the body-dynamics channels of one run, and
:class:`SpaceSeries` for signals re-indexed by arc-length position.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionMismatch, InvalidInput

__all__ = [
    "TimeSeries",
    "VehicleResponse",
    "SpaceSeries",
    "CHANNEL_NAMES",
    "AGGREGATORS",
    "to_space",
    "aggregate",
    "uniform_grid",
    "uniform_step",
    "is_data_line",
    "parse_rows",
    "read_response_csv",
    "read_reference_csv",
    "write_response_csv",
]

#: Channel column names used in trace CSV files, in file order (after the time column).
CHANNEL_NAMES = ("vx", "ax", "ay", "az", "phi_rate", "theta_rate", "psi_rate", "s")

#: Supported cross-run aggregation modes.
AGGREGATORS = ("mean", "max-abs-envelope")


def _as_float_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidInput(f"{name} must be a non-empty 1-D array")
    if not np.all(np.isfinite(arr)):
        raise InvalidInput(f"{name} contains non-finite samples")
    return arr


@dataclass(frozen=True)
class TimeSeries:
    """One uniformly sampled channel.

    Attributes
    ----------
    t0 : float
        Time of the first sample [s].
    dt : float
        Sample step [s], strictly positive.
    values : np.ndarray
        Finite samples in SI units (body rates in deg/s).
    """

    t0: float
    dt: float
    values: np.ndarray

    def __post_init__(self):
        if not (self.dt > 0):
            raise InvalidInput("dt must be > 0")
        object.__setattr__(self, "values", _as_float_array(self.values, "values"))

    def __len__(self) -> int:
        return len(self.values)

    @property
    def t(self) -> np.ndarray:
        """Sample times t0 + k*dt."""
        return self.t0 + self.dt * np.arange(len(self.values))

    @property
    def duration(self) -> float:
        """Span covered by the samples: len * dt."""
        return len(self.values) * self.dt

    def with_values(self, values: np.ndarray) -> "TimeSeries":
        return replace(self, values=values)


@dataclass(frozen=True)
class VehicleResponse:
    """Multichannel body-dynamics trace of one simulated or measured run.

    All channels share ``t0``, ``dt`` and length; ``s`` (arc-length position along
    the track) is non-decreasing.  ``warnings`` carries run-level quality flags
    such as ``"off-road risk"`` attached by the simulator.
    """

    v_x: TimeSeries
    a_x: TimeSeries
    a_y: TimeSeries
    a_z: TimeSeries
    phi_rate: TimeSeries
    theta_rate: TimeSeries
    psi_rate: TimeSeries
    s: TimeSeries
    warnings: tuple[str, ...] = field(default=())

    def __post_init__(self):
        ref = self.v_x
        for name in CHANNEL_NAMES:
            ch = self.channel(name)
            if abs(ch.t0 - ref.t0) > 1e-12 or abs(ch.dt - ref.dt) > 1e-15:
                raise DimensionMismatch(f"channel {name} disagrees in t0/dt")
            if len(ch) != len(ref):
                raise DimensionMismatch(f"channel {name} disagrees in length")
        if np.any(np.diff(self.s.values) < 0):
            raise InvalidInput("position channel s must be non-decreasing")

    def channel(self, name: str) -> TimeSeries:
        try:
            return getattr(self, {"vx": "v_x", "ax": "a_x", "ay": "a_y", "az": "a_z"}.get(name, name))
        except AttributeError:
            raise KeyError(f"unknown channel {name!r}") from None

    @property
    def dt(self) -> float:
        return self.v_x.dt

    def channels(self) -> dict[str, TimeSeries]:
        """All channels keyed by CSV column name."""
        return {name: self.channel(name) for name in CHANNEL_NAMES}


@dataclass(frozen=True)
class SpaceSeries:
    """A signal indexed by arc-length position at uniform step ``ds``.

    Values are finite floats, or booleans for criticality flags.
    """

    s0: float
    ds: float
    values: np.ndarray

    def __post_init__(self):
        if not (self.ds > 0):
            raise InvalidInput("ds must be > 0")
        arr = np.asarray(self.values)
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidInput("values must be a non-empty 1-D array")
        if arr.dtype != bool:
            arr = arr.astype(float)
            if not np.all(np.isfinite(arr)):
                raise InvalidInput("values contain non-finite samples")
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def positions(self) -> np.ndarray:
        return self.s0 + self.ds * np.arange(len(self.values))

    @property
    def extent(self) -> float:
        """Track length covered by the samples: len * ds."""
        return len(self.values) * self.ds


def uniform_grid(start: float, span: float, step: float) -> np.ndarray:
    """Positions ``start + k * step`` covering ``span``: floor(span / step) + 1 of them.

    The floor forgives rounding of up to 1e-9 steps, so a span that is a
    whole number of steps keeps its last position.
    """
    return start + step * np.arange(int(np.floor(span / step + 1e-9)) + 1)


def uniform_step(x: np.ndarray, message: str) -> float:
    """Step of a uniformly increasing axis, to 1e-6 of the step.

    Any other axis raises :class:`InvalidInput` with ``message``.
    """
    step = float(x[1] - x[0])
    if step <= 0 or np.max(np.abs(np.diff(x) - step)) > 1e-6 * step:
        raise InvalidInput(message)
    return step


def to_space(run: VehicleResponse, channels: tuple[str, ...], ds: float) -> dict[str, SpaceSeries]:
    """Re-sample channels onto a uniform arc-length grid, one :class:`SpaceSeries` each.

    Channel values are interpolated linearly in time at the instants the run's
    s(t) mapping crosses each grid position; all channels share one s -> t
    inversion.  Requires strictly increasing s (a reversing or stationary
    vehicle has no unique s -> t inverse).
    """
    if not (0 < ds < np.inf):
        raise InvalidInput(f"ds must be finite and > 0, got {ds:g}")
    s = run.s.values
    if np.any(np.diff(s) <= 0):
        raise InvalidInput("to_space requires strictly increasing s (vehicle reversing or stopped)")
    span = s[-1] - s[0]
    if span < 2 * ds:
        raise InvalidInput(f"run spans {span:.3g} m, need at least 2*ds = {2 * ds:.3g} m")
    positions = uniform_grid(s[0], span, ds)
    t = run.s.t
    t_at = np.interp(positions, s, t)
    out = {}
    for name in channels:
        ch = run.channel(name)
        ch_t = t if (ch.t0, ch.dt) == (run.s.t0, run.s.dt) else ch.t
        out[name] = SpaceSeries(s0=float(s[0]), ds=ds, values=np.interp(t_at, ch_t, ch.values))
    return out


class aggregate:  # noqa: N801 - lowercase: bench/tracing.py wraps it by this name
    """Running sample-by-sample merge of per-run space series, fed one run at a time.

    ``"mean"`` keeps the smooth across-run average, ``"max-abs-envelope"``
    the worst-case sample with its sign (the positive one when a positive and
    a negative sample tie in magnitude, so the order of the runs does not
    matter).  :meth:`add` trims what it holds and the new run to their common
    overlap; the grids must share ``ds`` and be offset by whole multiples of
    it.  A run that does not fit raises and leaves the held runs as they were.

    The result equals stacking the runs in the order they were added, trimmed
    to the overlap of all of them, and merging along the stack, bit for bit:
    an axis-0 sum adds the rows one after another, as :meth:`add` does, and
    the envelope's extremes are exact.  Only one row's worth of sums or
    extremes is held, however many runs are added.
    """

    def __init__(self, aggregator: str = "mean"):
        if aggregator not in AGGREGATORS:
            raise InvalidInput(f"aggregator must be one of {AGGREGATORS}")
        self.aggregator = aggregator
        self.count = 0
        self._held: list[np.ndarray] = []  # the sum, or the maximum and the minimum

    def add(self, run: SpaceSeries) -> None:
        """Merge one more run into the held overlap."""
        if not self.count:
            self._first, self._ds = run.s0, run.ds
            self._start, self._end = run.s0, run.s0 + (len(run) - 1) * run.ds
            values = np.array(run.values, dtype=float)
            self._held = [values] if self.aggregator == "mean" else [values, values.copy()]
            self.count = 1
            return
        ds = self._ds
        if abs(run.ds - ds) > 1e-12 * ds:
            raise DimensionMismatch("runs disagree in ds")
        offset = (run.s0 - self._first) / ds
        if abs(offset - round(offset)) > 1e-6:
            raise DimensionMismatch("run grids are not aligned (s0 offsets not multiples of ds)")
        start = max(self._start, run.s0)
        end = min(self._end, run.s0 + (len(run) - 1) * run.ds)
        if end < start:
            raise InvalidInput("runs share no overlapping extent")
        width = int(round((end - start) / ds)) + 1
        k0 = int(round((start - self._start) / ds))
        i0 = int(round((start - run.s0) / ds))
        row = run.values[i0 : i0 + width]
        held = [h[k0 : k0 + width] for h in self._held]
        if self.aggregator == "mean":
            held[0] += row
        else:
            np.maximum(held[0], row, out=held[0])
            np.minimum(held[1], row, out=held[1])
        self._held, self._start, self._end = held, start, end
        self.count += 1

    def result(self) -> SpaceSeries:
        """The merged series over the overlap of every run added."""
        if not self.count:
            raise InvalidInput("no runs to aggregate")
        if self.aggregator == "mean":
            merged = self._held[0] / self.count
        else:
            top, bottom = self._held
            merged = np.where(top >= -bottom, top, bottom)
        return SpaceSeries(s0=float(self._start), ds=self._ds, values=merged)


# ---------------------------------------------------------------------------
# Text input.  The numeric rows of trace CSVs, profile CSVs and grid files all
# go through parse_rows.  Trace CSV header
# "t,vx,ax,ay,az,phi_rate,theta_rate,psi_rate,s", SI units, decimal point.
# ---------------------------------------------------------------------------


def is_data_line(line: str) -> bool:
    """Whether :func:`parse_rows` reads ``line``: it is neither blank nor a ``#`` comment."""
    return line.lstrip()[:1] not in ("", "#")


def parse_rows(lines: list[str], first_line: int, width: int, delimiter: str | None, error) -> np.ndarray:
    """The data lines among ``lines`` as an ``(n, width)`` array, from one ``np.loadtxt`` call.

    ``lines[0]`` is line ``first_line`` of the file.  Fields are split at
    ``delimiter`` (None: runs of whitespace).  The first line with other than
    ``width`` fields or a non-number raises ``error(message, line_number)``.
    """
    rows = [line for line in lines if is_data_line(line)]
    if not rows:
        return np.empty((0, width))
    try:
        data = np.loadtxt(rows, delimiter=delimiter, comments=None, ndmin=2)
        if data.shape[1] == width:
            return data
    except ValueError:
        pass
    # numpy's error text counts rows inconsistently: find the bad line here
    for lineno, line in enumerate(lines, start=first_line):
        if not is_data_line(line):
            continue
        fields = line.split(delimiter)
        if len(fields) != width:
            raise error(f"expected {width} fields, got {len(fields)}", lineno)
        try:
            np.loadtxt([line], delimiter=delimiter, comments=None)
        except ValueError:
            raise error("non-numeric value", lineno) from None


def _parse_trace_csv(path) -> dict[str, np.ndarray]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    if not lines:
        raise InvalidInput(f"{path}: empty trace file")
    header = [h.strip() for h in lines[0].split(",")]
    if header[0] != "t":
        raise InvalidInput(f"{path}: first column must be 't', got {header[0]!r}")
    unknown = [h for h in header[1:] if h not in CHANNEL_NAMES]
    if unknown:
        raise InvalidInput(f"{path}: unknown channel column(s) {unknown}")
    data = parse_rows(lines[1:], 2, len(header), ",", lambda msg, line: InvalidInput(f"{path}: line {line}: {msg}"))
    if len(data) < 2:
        raise InvalidInput(f"{path}: need at least 2 samples")
    return {name: data[:, i] for i, name in enumerate(header)}


def read_reference_csv(path) -> dict[str, TimeSeries]:
    """Read a trace CSV that may carry only a subset of the channels.

    Returns the available channels keyed by column name; used for calibration
    references where e.g. Euler-rate columns may be missing.
    """
    cols = _parse_trace_csv(path)
    t = cols.pop("t")
    dt = uniform_step(t, f"{path}: time column is not uniformly increasing")
    return {name: TimeSeries(t0=float(t[0]), dt=dt, values=values) for name, values in cols.items()}


def read_response_csv(path) -> VehicleResponse:
    """Read a full trace CSV (all channels required) into a VehicleResponse."""
    channels = read_reference_csv(path)
    missing = [name for name in CHANNEL_NAMES if name not in channels]
    if missing:
        raise InvalidInput(f"{path}: missing channel column(s) {missing}")
    return VehicleResponse(
        v_x=channels["vx"],
        a_x=channels["ax"],
        a_y=channels["ay"],
        a_z=channels["az"],
        phi_rate=channels["phi_rate"],
        theta_rate=channels["theta_rate"],
        psi_rate=channels["psi_rate"],
        s=channels["s"],
    )


def write_response_csv(path, run: VehicleResponse) -> None:
    """Write a VehicleResponse using the canonical trace CSV schema."""
    t = run.v_x.t
    channels = run.channels()
    buf = io.StringIO()
    buf.write("t," + ",".join(CHANNEL_NAMES) + "\n")
    cols = [t] + [channels[name].values for name in CHANNEL_NAMES]
    for row in zip(*cols):
        buf.write(",".join(repr(float(x)) for x in row) + "\n")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(buf.getvalue())
