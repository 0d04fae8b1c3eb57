"""Critical-section derivation: fixed-length window partition and reports.

The track is split into contiguous, non-overlapping windows of the critical
length (one car length by default).  A window is critical under the band
method when every sample inside exceeds the band; under the comfort and
roughness methods windows carry categorical labels and are counted per
category.  Counts C/N and ratios R_c/R_n per category mirror the tabular
report layout used for test-site comparisons.
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
    "classify_windows_iso",
    "classify_windows_iri",
]

DEFAULT_WINDOW_M = 5.0

#: Reductions of per-run total vibration values across a batch.
ISO_REDUCTIONS = ("mean", "max")


def window_edges(s0: float, extent: float, l_cr: float) -> np.ndarray:
    """Window boundary positions: floor(extent / l_cr) complete windows."""
    if l_cr <= 0:
        raise InvalidInput("l_cr must be > 0")
    edges = uniform_grid(s0, extent, l_cr)
    if len(edges) < 2:
        raise InvalidInput(f"track extent {extent:.3g} m shorter than one {l_cr:.3g} m window")
    return edges


def _window_index_spans(series: SpaceSeries, l_cr: float) -> list[tuple[int, int]]:
    """Half-open sample index spans of the complete windows of a space series."""
    edges = window_edges(series.s0, series.extent, l_cr)
    positions = series.positions
    idx = np.searchsorted(positions, edges - 1e-9 * series.ds, side="left")
    spans = [(int(idx[k]), int(idx[k + 1])) for k in range(len(edges) - 1)]
    if any(j1 <= j0 for j0, j1 in spans):
        raise InvalidInput("window contains no samples; l_cr too small for the grid")
    return spans


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

    def row(self, category: str) -> SectionRow:
        for row in self.rows:
            if row.category == category:
                return row
        raise KeyError(f"no category {category!r} in {self.method} report")

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


def find_critical(flag: thresholds.ExceedanceSignal, l_cr: float = DEFAULT_WINDOW_M) -> SectionReport:
    """Count windows whose samples violate a band.

    A window is critical when every one of its samples exceeds the band.
    """
    spans = _window_index_spans(flag.series, l_cr)
    values = np.asarray(flag.series.values, dtype=bool)
    critical = np.array([bool(np.all(values[j0:j1])) for j0, j1 in spans])
    c = int(critical.sum())
    row = SectionRow(category=flag.label, c=c, n=len(spans) - c, critical_windows=critical)
    return SectionReport(
        method="threshold", window_length=l_cr, total_windows=len(spans), rows=[row]
    )


def find_critical_bands(
    space: dict[str, SpaceSeries], bands: dict[tuple[str, str], thresholds.ThresholdBand], l_cr: float
) -> tuple[dict[tuple[str, str], SectionReport], str]:
    """Band method over every axis and driving style.

    ``space`` maps the channels ``ax``, ``ay`` and ``az`` to space-domain
    signals.  Returns one report per (axis, style) and their
    ``axis,style,C,R_c,N,R_n`` CSV text.
    """
    reports = {}
    lines = ["axis,style,C,R_c,N,R_n\n"]
    for axis in thresholds.AXES:
        for style in thresholds.STYLES:
            flag = thresholds.exceedance(space[f"a{axis}"], bands[(axis, style)])
            report = reports[(axis, style)] = find_critical(flag, l_cr)
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


def classify_windows_iso(
    runs: list[VehicleResponse],
    l_cr: float = DEFAULT_WINDOW_M,
    weightings: dict[str, iso2631.FilterSpec] | None = None,
    k_factors: tuple[float, float, float] = (1.0, 1.0, 1.0),
    reduction: str = "mean",
) -> IsoWindows:
    """Window-resolved comfort classification across a batch of runs.

    Each run's axis accelerations are frequency weighted over the full trace;
    the RMS of the weighted signal restricted to a window's time span gives the
    per-axis value, combined into the total vibration per run and reduced
    across runs (mean by default, max for worst case).  A window counts under
    exactly one label.
    """
    if not runs:
        raise InvalidInput("no runs to classify")
    if reduction not in ISO_REDUCTIONS:
        raise InvalidInput("reduction must be 'mean' or 'max'")
    if weightings is None:
        weightings = {axis: iso2631.load_weighting(w) for axis, w in iso2631.DEFAULT_WEIGHTINGS.items()}
    start = max(float(r.s.values[0]) for r in runs)
    end = min(float(r.s.values[-1]) for r in runs)
    edges = window_edges(start, end - start, l_cr)
    n_windows = len(edges) - 1

    per_run_av = np.empty((len(runs), n_windows))
    for i, run in enumerate(runs):
        s = run.s.values
        idx = np.searchsorted(s, edges, side="left")
        counts = np.diff(idx)
        if np.any(counts < 1):
            raise InvalidInput("a window holds no samples of a run; shrink the step or grow l_cr")
        mean_squares = {}
        for axis, result in iso2631.weight_axes(run, weightings).items():
            weighted = result.a_w.values
            cs = np.concatenate([[0.0], np.cumsum(weighted * weighted)])
            mean_squares[axis] = (cs[idx[1:]] - cs[idx[:-1]]) / counts
        per_run_av[i] = iso2631.combine(mean_squares, k_factors)
    a_v = per_run_av.mean(axis=0) if reduction == "mean" else per_run_av.max(axis=0)

    labels = [iso2631.classify_iso(value).label for value in a_v]
    rows = _label_rows(labels, iso2631.COMFORT_LABELS[1:])  # NU windows are the non-critical rest
    report = SectionReport(method="iso2631", window_length=l_cr, total_windows=n_windows, rows=rows)
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
    l_cr: float = DEFAULT_WINDOW_M,
) -> IriWindows:
    """Window-resolved ride-quality classification of a roughness-index signal.

    ``speed`` supplies the travel speed [m/s] used for the speed-dependent
    thresholds: a :class:`SpaceSeries` or a scalar.
    Every window uses its mean index and mean speed.  The VG category is not
    reported (windows below the G band are the non-critical remainder) but
    still appears in the returned labels.
    """
    spans = _window_index_spans(iri_series, l_cr)
    edges = window_edges(iri_series.s0, iri_series.extent, l_cr)
    values = np.asarray(iri_series.values, dtype=float)
    if isinstance(speed, SpaceSeries):
        speeds = np.interp(iri_series.positions, speed.positions, speed.values)
    else:
        speeds = np.full(len(values), float(speed))
    iri_win = np.array([values[j0:j1].mean() for j0, j1 in spans])
    speed_kmh = 3.6 * np.array([speeds[j0:j1].mean() for j0, j1 in spans])
    labels = [iri_mod.classify_iri(value, kmh) for value, kmh in zip(iri_win, speed_kmh)]

    rows = _label_rows(labels, iri_mod.RIDE_QUALITY_LABELS[1:])  # VG is the unreported remainder
    report = SectionReport(method="iri", window_length=l_cr, total_windows=len(spans), rows=rows)
    return IriWindows(edges=edges, iri=iri_win, speed_kmh=speed_kmh, labels=labels, report=report)
