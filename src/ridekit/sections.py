"""Critical-section derivation: fixed-length window partition and reports.

The track is split once, by :func:`window_edges`, into contiguous,
non-overlapping windows of the critical length (one car length by default).
Every method takes those edges, so window k is the same stretch of road for
all of them.  A window is critical under the band method when every sample
inside exceeds the band; under the comfort and roughness methods windows
carry categorical labels and are counted per category.  Counts C/N and
ratios R_c/R_n per category mirror the tabular report layout used for
test-site comparisons.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from . import iri as iri_mod
from . import iso2631, thresholds
from .errors import InvalidInput
from .signals import SpaceSeries, VehicleResponse, uniform_grid

__all__ = [
    "SectionRow",
    "SectionReport",
    "IsoWindows",
    "IriWindows",
    "ISO_REDUCTIONS",
    "window_edges",
    "find_critical",
    "find_critical_bands",
    "threshold_table",
    "iso_window_av",
    "classify_windows_iso",
    "classify_windows_iri",
]

#: Reductions of per-run total vibration values across a batch.
ISO_REDUCTIONS = ("mean", "max")


def window_edges(s0: float, extent: float, l_cr: float) -> np.ndarray:
    """Window boundary positions: floor(extent / l_cr) complete windows."""
    if not (0 < l_cr < np.inf):
        raise InvalidInput(f"l_cr must be finite and > 0, got {l_cr:g}")
    edges = uniform_grid(s0, extent, l_cr)
    if len(edges) < 2:
        raise InvalidInput(f"track extent {extent:.3g} m shorter than one {l_cr:.3g} m window")
    return edges


def _window_starts(positions: np.ndarray, edges: np.ndarray, tol: float) -> np.ndarray:
    """For each window edge, the index of the first position at or past ``edge - tol``.

    Window k holds the samples ``starts[k]:starts[k + 1]``; an empty window
    is an error.
    """
    starts = np.searchsorted(positions, edges - tol, side="left")
    if np.any(np.diff(starts) < 1):
        raise InvalidInput("a window holds no samples; shrink the sample step or grow the window")
    return starts


@dataclass(frozen=True)
class SectionRow:
    """Counts of one report category: C critical and N non-critical windows."""

    category: str
    c: int
    n: int
    critical_windows: np.ndarray = field(repr=False, default=None)

    @property
    def total(self) -> int:
        return self.c + self.n

    @property
    def r_c(self) -> float:
        return 100.0 * self.c / self.total if self.total else 0.0

    @property
    def r_n(self) -> float:
        return 100.0 * self.n / self.total if self.total else 0.0


@dataclass(frozen=True)
class SectionReport:
    """Window accounting of one method over one track."""

    method: str
    window_length: float
    total_windows: int
    rows: list[SectionRow]

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        buf.write("category,C,R_c,N,R_n\n")
        for row in self.rows:
            buf.write(f"{row.category},{row.c},{row.r_c:.2f},{row.n},{row.r_n:.2f}\n")
        return buf.getvalue()

    def format_table(self) -> str:
        header = f"{self.method} method, window {self.window_length:g} m, {self.total_windows} windows"
        lines = [header, f"{'category':<12}{'C':>6}{'R_c [%]':>9}{'N':>7}{'R_n [%]':>9}"]
        for row in self.rows:
            lines.append(f"{row.category:<12}{row.c:>6}{row.r_c:>9.2f}{row.n:>7}{row.r_n:>9.2f}")
        return "\n".join(lines)


def _label_rows(labels: list[str], categories) -> list[SectionRow]:
    """One row per reported category; windows under any other label count in N."""
    rows = []
    for category in categories:
        critical = np.array([lab == category for lab in labels])
        c = int(critical.sum())
        rows.append(SectionRow(category=category, c=c, n=len(labels) - c, critical_windows=critical))
    return rows


def find_critical(flag: thresholds.ExceedanceSignal, edges: np.ndarray) -> SectionReport:
    """Count the windows between ``edges`` whose samples violate a band.

    A window is critical when every one of its samples exceeds the band.
    """
    series = flag.series
    starts = _window_starts(series.positions, edges, 1e-9 * series.ds)
    values = np.asarray(series.values, dtype=bool)
    critical = np.logical_and.reduceat(values[: starts[-1]], starts[:-1])
    c = int(critical.sum())
    row = SectionRow(category=flag.label, c=c, n=len(critical) - c, critical_windows=critical)
    return SectionReport(
        method="threshold", window_length=float(edges[1] - edges[0]), total_windows=len(critical), rows=[row]
    )


def find_critical_bands(
    space: dict[str, SpaceSeries], bands: dict[tuple[str, str], thresholds.ThresholdBand], edges: np.ndarray
) -> tuple[dict[tuple[str, str], SectionReport], str]:
    """Band method over every axis and driving style.

    ``space`` maps the channels ``ax``, ``ay`` and ``az`` to space-domain
    signals, all cut at the same ``edges``.  Returns one report per (axis,
    style) and their ``axis,style,C,R_c,N,R_n`` CSV text.
    """
    reports = {}
    lines = ["axis,style,C,R_c,N,R_n\n"]
    for axis in thresholds.AXES:
        for style in thresholds.STYLES:
            flag = thresholds.exceedance(space[f"a{axis}"], bands[(axis, style)])
            report = reports[(axis, style)] = find_critical(flag, edges)
            row = report.rows[0]
            lines.append(f"{axis},{style},{row.c},{row.r_c:.2f},{row.n},{row.r_n:.2f}\n")
    return reports, "".join(lines)


def threshold_table(reports: dict[tuple[str, str], SectionReport]) -> str:
    """Aligned-text table of :func:`find_critical_bands` reports."""
    lines = ["threshold method", f"{'axis':<6}{'style':<7}{'C':>6}{'R_c [%]':>9}{'N':>7}{'R_n [%]':>9}"]
    for (axis, style), report in reports.items():
        row = report.rows[0]
        lines.append(f"{axis:<6}{style:<7}{row.c:>6}{row.r_c:>9.2f}{row.n:>7}{row.r_n:>9.2f}")
    return "\n".join(lines)


@dataclass(frozen=True)
class IsoWindows:
    """Per-window comfort labels with the backing total vibration values."""

    edges: np.ndarray
    a_v: np.ndarray
    labels: list[str]
    report: SectionReport


def iso_window_av(
    run: VehicleResponse,
    edges: np.ndarray,
    weightings: dict[str, iso2631.FilterSpec],
    k_factors: tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> np.ndarray:
    """One run's total vibration value in each window between ``edges``.

    Each axis is weighted over the full trace and takes, per window, the RMS
    of its samples from the window's start to the next's; ``combine`` joins them.
    """
    idx = _window_starts(run.s.values, edges, 0.0)
    counts = np.diff(idx)
    mean_squares = {}
    for axis, result in iso2631.weight_axes(run, weightings).items():
        weighted = result.a_w.values
        cs = np.concatenate([[0.0], np.cumsum(weighted * weighted)])
        mean_squares[axis] = (cs[idx[1:]] - cs[idx[:-1]]) / counts
    return iso2631.combine(mean_squares, k_factors)


def classify_windows_iso(per_run_av, edges: np.ndarray, reduction: str = "mean") -> IsoWindows:
    """Window-resolved comfort classification across a batch of runs.

    ``per_run_av`` holds each run's :func:`iso_window_av` on ``edges``; the
    runs are reduced window by window (mean by default, max for worst case).
    A window counts under exactly one label.
    """
    if len(per_run_av) == 0:
        raise InvalidInput("no runs to classify")
    if reduction not in ISO_REDUCTIONS:
        raise InvalidInput("reduction must be 'mean' or 'max'")
    per_run_av = np.asarray(per_run_av, dtype=float)
    a_v = per_run_av.mean(axis=0) if reduction == "mean" else per_run_av.max(axis=0)

    labels = [iso2631.classify_iso(value).label for value in a_v]
    rows = _label_rows(labels, iso2631.COMFORT_LABELS[1:])  # NU windows are the non-critical rest
    report = SectionReport(
        method="iso2631", window_length=float(edges[1] - edges[0]), total_windows=len(a_v), rows=rows
    )
    return IsoWindows(edges=edges, a_v=a_v, labels=labels, report=report)


@dataclass(frozen=True)
class IriWindows:
    """Per-window ride-quality labels with the backing index and speed values."""

    edges: np.ndarray
    iri: np.ndarray
    speed_kmh: np.ndarray
    labels: list[str]
    report: SectionReport


def classify_windows_iri(
    iri_series: SpaceSeries,
    speed,
    edges: np.ndarray,
) -> IriWindows:
    """Ride-quality classification of a roughness-index signal in the windows between ``edges``.

    ``speed`` supplies the travel speed [m/s] used for the speed-dependent
    thresholds: a :class:`SpaceSeries` or a scalar.
    Every window uses its mean index and mean speed.  The VG category is not
    reported (windows below the G band are the non-critical remainder) but
    still appears in the returned labels.
    """
    starts = _window_starts(iri_series.positions, edges, 1e-9 * iri_series.ds)
    spans = list(zip(starts[:-1], starts[1:]))
    values = np.asarray(iri_series.values, dtype=float)
    if isinstance(speed, SpaceSeries):
        speeds = np.interp(iri_series.positions, speed.positions, speed.values)
    else:
        speeds = np.full(len(values), float(speed))
    iri_win = np.array([values[j0:j1].mean() for j0, j1 in spans])
    speed_kmh = 3.6 * np.array([speeds[j0:j1].mean() for j0, j1 in spans])
    labels = [iri_mod.classify_iri(value, kmh) for value, kmh in zip(iri_win, speed_kmh)]

    rows = _label_rows(labels, iri_mod.RIDE_QUALITY_LABELS[1:])  # VG is the unreported remainder
    report = SectionReport(
        method="iri", window_length=float(edges[1] - edges[0]), total_windows=len(spans), rows=rows
    )
    return IriWindows(edges=edges, iri=iri_win, speed_kmh=speed_kmh, labels=labels, report=report)
