"""Property tests of the method layer and the trace reader shared by the pipeline
and the CLI, of the cross-run aggregate, and of the simulation's physics.

Grid steps and window lengths are powers of two, so ``floor(extent /
window)`` is exact and the expected window count needs no tolerance.  Band
and IRI windows cover a series' extent, and ISO windows the span of
positions all runs share.
"""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ridekit import iso2631, road, sections, thresholds, vehicle
from ridekit.signals import (
    CHANNEL_NAMES,
    SpaceSeries,
    TimeSeries,
    VehicleResponse,
    aggregate,
    read_response_csv,
    write_response_csv,
)

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
    bands = thresholds.load_bands()
    reports, text = sections.find_critical_bands(space, bands, sections.window_edges(0.0, n * DS, l_cr))
    windows = int(n * DS // l_cr)  # windows over the series' extent, len * ds
    per = int(l_cr / DS)
    for (axis, style), report in reports.items():
        row = report.rows[0]
        assert row.c + row.n == windows == len(row.critical_windows)
        # critical: every sample of the window exceeds; samples past the last window do not count
        flag = thresholds.exceedance(space[f"a{axis}"], bands[(axis, style)]).series.values
        assert np.array_equal(row.critical_windows, flag[: windows * per].reshape(windows, per).all(axis=1))
    assert len(text.splitlines()) == 1 + len(thresholds.AXES) * len(thresholds.STYLES)
    for axis in thresholds.AXES:
        pt, nd, ag = (reports[(axis, style)].rows[0].critical_windows for style in thresholds.STYLES)
        assert np.all(pt | ~nd) and np.all(nd | ~ag)  # PT >= ND >= AG, window by window


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n=st.integers(40, 600), l_cr=window_lengths, speed_kmh=st.floats(20.0, 130.0))
def test_iri_windows_count_every_window(seed, n, l_cr, speed_kmh):
    rng = np.random.default_rng(seed)
    values = np.abs(_walk(rng, n, 0.3)) + rng.uniform(0.0, 6.0)
    edges = sections.window_edges(0.0, n * DS, l_cr)
    out = sections.classify_windows_iri(SpaceSeries(0.0, DS, values), speed_kmh / 3.6, edges)
    windows = int(n * DS // l_cr)  # windows over the series' extent, len * ds
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
    edges = sections.window_edges(starts.max(), starts.min() + step * (n - 1) - starts.max(), l_cr)
    weightings = {axis: iso2631.load_weighting(w) for axis, w in iso2631.DEFAULT_WEIGHTINGS.items()}
    per_run_av = [sections.iso_window_av(run, edges, weightings) for run in runs]
    out = sections.classify_windows_iso(per_run_av, edges, reduction)
    windows = int((starts.min() + step * (n - 1) - starts.max()) // l_cr)
    assert len(out.labels) == out.report.total_windows == windows
    for row in out.report.rows:
        assert row.c + row.n == windows
    severities = [iso2631.severity(out.labels[k]) for k in np.argsort(out.a_v, kind="stable")]
    assert severities == sorted(severities)


@settings(max_examples=30, deadline=None)
@given(
    seed=seeds,
    n=st.integers(200, 3 * 8192 + 40),
    wid=st.sampled_from(["k", "d"]),
    scale=st.floats(1e-3, 1e3),
)
def test_iso_weighting_of_minus_two_a_is_minus_two_times_exactly(seed, n, wid, scale):
    """Scaling by a power of two is exact through a linear kernel, so the
    weighting commutes with it bit for bit, across block and chunk edges."""
    a = TimeSeries(0.0, 0.005, scale * np.random.default_rng(seed).standard_normal(n))
    spec = iso2631.load_weighting(wid)
    base = iso2631.weight_signal(a, spec)
    doubled = iso2631.weight_signal(a.with_values(-2.0 * a.values), spec)
    assert doubled.a_w.values.tobytes() == (-2.0 * base.a_w.values).tobytes()
    assert doubled.a_w_rms == 2.0 * base.a_w_rms


@settings(max_examples=25, deadline=None)
@given(
    seed=seeds,
    n=st.integers(400, 1200),
    l_cr=window_lengths,
    scale=st.floats(0.01, 4.0),
    c=st.floats(1.0, 8.0),
)
def test_scaling_a_run_up_never_lowers_an_iso_window_label(seed, n, l_cr, scale, c):
    """A run's accelerations times c >= 1 give each window a total vibration
    value c times as large, up to rounding, and the labels are monotone in
    it, so no window's label drops."""
    run = _response(np.random.default_rng(seed), n, 0.005, 0.125, 0.0, scale)
    accel = {name: getattr(run, name) for name in ("a_x", "a_y", "a_z")}
    scaled = replace(run, **{name: series.with_values(c * series.values) for name, series in accel.items()})
    edges = sections.window_edges(0.0, 0.125 * (n - 1), l_cr)
    weightings = {axis: iso2631.load_weighting(w) for axis, w in iso2631.DEFAULT_WEIGHTINGS.items()}
    before, after = (sections.iso_window_av(r, edges, weightings) for r in (run, scaled))
    for low, high in zip(before, after):
        assert iso2631.severity(iso2631.classify_iso(high).label) >= iso2631.severity(iso2631.classify_iso(low).label)


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


def _merge(runs, aggregator):
    acc = aggregate(aggregator)
    for run in runs:
        acc.add(run)
    return acc.result()


def _random_runs(rng, n_runs, n, ds):
    """Runs of unequal length, offset by whole multiples of ``ds``, sharing at
    least one position; values from a few magnitudes with random signs, so
    ties in |value| are common."""
    magnitudes = rng.uniform(0.0, 5.0, 4)
    runs = []
    for k in rng.integers(0, 20, n_runs):
        size = n + 20 - k + int(rng.integers(0, 30))
        values = rng.choice(magnitudes, size) * rng.choice([-1.0, 1.0], size)
        runs.append(SpaceSeries(float(ds * k), ds, values))
    return runs


@settings(max_examples=80, deadline=None)
@given(seed=seeds, n_runs=st.integers(1, 6), n=st.integers(1, 200), data=st.data())
def test_aggregate_commutes_with_run_order(seed, n_runs, n, data):
    runs = _random_runs(np.random.default_rng(seed), n_runs, n, DS)
    order = data.draw(st.permutations(range(n_runs)))
    shuffled = [runs[k] for k in order]
    envelope = _merge(runs, "max-abs-envelope")
    assert np.array_equal(_merge(shuffled, "max-abs-envelope").values, envelope.values)
    mean, mean_shuffled = _merge(runs, "mean"), _merge(shuffled, "mean")
    assert (mean.s0, len(mean)) == (mean_shuffled.s0, len(mean_shuffled))
    scale = max(np.max(np.abs(r.values)) for r in runs)
    assert np.max(np.abs(mean.values - mean_shuffled.values)) <= 1e-15 * scale


@settings(max_examples=80, deadline=None)
@given(seed=seeds, n_runs=st.integers(1, 8), n=st.integers(1, 200), ds=st.sampled_from([DS, 0.1, 0.3]))
def test_running_aggregate_equals_the_stacked_runs_bit_for_bit(seed, n_runs, n, ds):
    # the reference trims every run to the overlap of all of them, stacks
    # the rows in order and merges along the stack
    runs = _random_runs(np.random.default_rng(seed), n_runs, n, ds)
    start = max(r.s0 for r in runs)
    end = min(r.s0 + (len(r) - 1) * r.ds for r in runs)
    width = int(round((end - start) / ds)) + 1
    stack = np.vstack([r.values[int(round((start - r.s0) / ds)) :][:width] for r in runs])
    top, bottom = stack.max(axis=0), stack.min(axis=0)
    expected = {"mean": stack.mean(axis=0), "max-abs-envelope": np.where(top >= -bottom, top, bottom)}
    for how, values in expected.items():
        out = _merge(runs, how)
        assert (out.s0, out.ds) == (start, ds)
        assert out.values.tobytes() == values.tobytes(), how


# any finite float64, with the edge values drawn often: signed zeros,
# subnormals and magnitudes near the largest float
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.225073858507201e-308, 1e308, -1.7976931348623157e308]
finite_floats = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_FLOATS))


@settings(max_examples=60, deadline=None)
@given(columns=arrays(np.float64, st.tuples(st.integers(2, 40), st.just(len(CHANNEL_NAMES))), elements=finite_floats))
def test_trace_reader_returns_written_floats_bit_for_bit(columns):
    # The trace is written with repr, which float() reads back exactly.
    columns[:, -1] = np.sort(np.abs(columns[:, -1]))  # s must not decrease
    t = TimeSeries(0.0, 0.125, np.zeros(len(columns)))
    run = VehicleResponse(*(t.with_values(columns[:, k]) for k in range(len(CHANNEL_NAMES))))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        write_response_csv(path, run)
        back = read_response_csv(path)
    for k, name in enumerate(CHANNEL_NAMES):
        assert back.channel(name).values.tobytes() == columns[:, k].tobytes(), name


# --- the simulation's physics: null inputs and linearity in the road ---------------

ROAD_STEP = 0.1
ROAD_STATIONS = 2001  # 200 m
speeds = st.floats(12.0, 30.0)
lane_offsets = st.floats(-0.4, 0.4)


def _simulate(grid, speed, l_p):
    scenario = vehicle.Scenario(road=grid, target_speed=speed, l_p=l_p)
    return vehicle.simulate(scenario, vehicle.default_car(), vehicle.default_geometry(), dt=1e-3)


def _varied_grid(seed, scale=1.0):
    """A straight grid whose five offset columns are independent class-C profiles."""
    columns = [road.synth_profile(200.0, ROAD_STEP, "C", seed + k) for k in range(5)]
    z = scale * np.column_stack([np.append(c, c[0]) for c in columns])
    stations = ROAD_STEP * np.arange(len(z))
    ref = road.ReferenceLine.from_geometry(stations, np.zeros(len(z)), np.zeros(len(z)))
    return road.RoadGrid(ref_line=ref, lateral_offsets=np.linspace(-2.0, 2.0, 5), elevations=z, grid_step=ROAD_STEP)


@settings(max_examples=10, deadline=None)
@given(speed=speeds, l_p=lane_offsets)
def test_flat_road_gives_no_heave(speed, l_p):
    run = _simulate(road.straight_grid(np.zeros(ROAD_STATIONS), ROAD_STEP), speed, l_p)
    assert not np.any(run.a_z.values)


@settings(max_examples=10, deadline=None)
@given(seed=seeds, speed=speeds, l_p=lane_offsets)
def test_laterally_uniform_road_gives_no_roll(seed, speed, l_p):
    profile = road.synth_profile(200.0, ROAD_STEP, "C", seed)
    run = _simulate(road.straight_grid(np.append(profile, profile[0]), ROAD_STEP), speed, l_p)
    assert np.max(np.abs(run.a_z.values)) > 0
    assert not np.any(run.phi_rate.values)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16), speed=speeds, l_p=lane_offsets)
def test_vertical_response_scales_with_the_road(seed, speed, l_p):
    base = _simulate(_varied_grid(seed), speed, l_p)
    scaled = _simulate(_varied_grid(seed, 2.5), speed, l_p)
    for name in ("az", "phi_rate", "theta_rate"):
        expected = 2.5 * base.channel(name).values
        peak = np.max(np.abs(expected))
        assert peak > 0
        assert np.max(np.abs(scaled.channel(name).values - expected)) <= 1e-12 * peak, name
