"""Property tests of the method layer shared by the pipeline and the CLI.

Grid steps and window lengths are powers of two, so ``floor(extent /
window)`` is exact and the expected window count needs no tolerance.  ISO
windows cover the span of positions all runs share.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ridekit import iso2631, sections, thresholds
from ridekit.signals import SpaceSeries, TimeSeries, VehicleResponse, aggregate

DS = 0.125
seeds = st.integers(0, 2**32 - 1)
window_lengths = st.sampled_from([0.5, 1.0, 2.0, 4.0])


def _walk(rng, n, scale):
    """Random walk: runs of neighbouring samples share a side of a band."""
    return np.cumsum(rng.normal(0.0, scale, n))


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n=st.integers(40, 600), l_cr=window_lengths, scale=st.floats(0.005, 1.0))
def test_band_method_counts_every_window_and_nests_styles(seed, n, l_cr, scale):
    rng = np.random.default_rng(seed)
    space = {f"a{axis}": SpaceSeries(0.0, DS, _walk(rng, n, scale)) for axis in thresholds.AXES}
    reports, text = sections.find_critical_bands(space, thresholds.load_bands(), l_cr)
    windows = int(n * DS // l_cr)  # a space series extends len * ds
    for report in reports.values():
        row = report.rows[0]
        assert row.c + row.n == windows == len(row.critical_windows)
    assert len(text.splitlines()) == 1 + len(thresholds.AXES) * len(thresholds.STYLES)
    for axis in thresholds.AXES:
        pt, nd, ag = (reports[(axis, style)].rows[0].critical_windows for style in thresholds.STYLES)
        assert np.all(pt | ~nd) and np.all(nd | ~ag)  # PT >= ND >= AG, window by window


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n=st.integers(40, 600), l_cr=window_lengths, speed_kmh=st.floats(20.0, 130.0))
def test_iri_windows_count_every_window(seed, n, l_cr, speed_kmh):
    rng = np.random.default_rng(seed)
    values = np.abs(_walk(rng, n, 0.3)) + rng.uniform(0.0, 6.0)
    out = sections.classify_windows_iri(SpaceSeries(0.0, DS, values), speed_kmh / 3.6, l_cr)
    windows = int(n * DS // l_cr)  # a space series extends len * ds
    assert len(out.labels) == out.report.total_windows == windows
    for row in out.report.rows:
        assert row.c + row.n == windows


def _response(rng, n, dt, step, start, scale):
    t = TimeSeries(0.0, dt, np.zeros(n))
    accel = {name: t.with_values(scale * rng.standard_normal(n)) for name in ("ax", "ay", "az")}
    return VehicleResponse(
        v_x=t.with_values(np.full(n, step / dt)),
        a_x=accel["ax"],
        a_y=accel["ay"],
        a_z=accel["az"],
        phi_rate=t.with_values(np.zeros(n)),
        theta_rate=t.with_values(np.zeros(n)),
        psi_rate=t.with_values(np.zeros(n)),
        s=t.with_values(start + step * np.arange(n)),
    )


@settings(max_examples=25, deadline=None)
@given(
    seed=seeds,
    n_runs=st.integers(1, 3),
    n=st.integers(400, 1200),
    step=st.sampled_from([0.0625, 0.125, 0.25]),
    l_cr=window_lengths,
    scale=st.floats(0.01, 4.0),
    reduction=st.sampled_from(sections.ISO_REDUCTIONS),
)
def test_iso_windows_count_every_window_and_labels_follow_a_v(seed, n_runs, n, step, l_cr, scale, reduction):
    rng = np.random.default_rng(seed)
    starts = step * rng.integers(0, 40, n_runs)
    runs = [_response(rng, n, 0.005, step, start, scale) for start in starts]
    out = sections.classify_windows_iso(runs, l_cr, reduction=reduction)
    windows = int((starts.min() + step * (n - 1) - starts.max()) // l_cr)
    assert len(out.labels) == out.report.total_windows == windows
    for row in out.report.rows:
        assert row.c + row.n == windows
    severities = [iso2631.severity(out.labels[k]) for k in np.argsort(out.a_v, kind="stable")]
    assert severities == sorted(severities)


near_band_bounds = st.builds(
    lambda bound, offset: max(bound + offset, 0.0),
    st.sampled_from(sorted(iso2631.COMFORT_LOWER_BOUNDS.values())),
    st.floats(-0.25, 0.25),
)
total_vibration = st.one_of(st.floats(0.0, 10.0), near_band_bounds)


@given(st.lists(total_vibration, min_size=2, max_size=50))
def test_iso_label_is_monotone_in_a_v(values):
    severities = [iso2631.severity(iso2631.classify_iso(v).label) for v in sorted(values)]
    assert severities == sorted(severities)


@settings(max_examples=80, deadline=None)
@given(seed=seeds, n_runs=st.integers(1, 6), n=st.integers(1, 200), data=st.data())
def test_aggregate_commutes_with_run_order(seed, n_runs, n, data):
    # values from a few magnitudes with random signs, so ties in |value| are common
    rng = np.random.default_rng(seed)
    magnitudes = rng.uniform(0.0, 5.0, 4)
    runs = []
    for start in DS * rng.integers(0, 20, n_runs):
        values = rng.choice(magnitudes, n + 20) * rng.choice([-1.0, 1.0], n + 20)
        runs.append(SpaceSeries(float(start), DS, values))
    order = data.draw(st.permutations(range(n_runs)))
    shuffled = [runs[k] for k in order]
    envelope = aggregate(runs, "max-abs-envelope")
    assert np.array_equal(aggregate(shuffled, "max-abs-envelope").values, envelope.values)
    mean, mean_shuffled = aggregate(runs, "mean"), aggregate(shuffled, "mean")
    assert (mean.s0, len(mean)) == (mean_shuffled.s0, len(mean_shuffled))
    scale = max(np.max(np.abs(r.values)) for r in runs)
    assert np.max(np.abs(mean.values - mean_shuffled.values)) <= 1e-15 * scale
