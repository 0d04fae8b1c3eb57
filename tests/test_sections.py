import numpy as np
import pytest

from ridekit import iso2631
from ridekit.errors import InvalidInput
from ridekit.road import straight_grid, synth_profile
from ridekit.sections import (
    classify_windows_iri,
    classify_windows_iso,
    find_critical,
    iso_window_av,
    window_edges,
)
from ridekit.signals import SpaceSeries
from ridekit.thresholds import ThresholdBand, exceedance
from ridekit.vehicle import Scenario, SpeedProfile, simulate

from conftest import constant_speed_response

Z_PT = ThresholdBand(axis="z", style="PT", lower=-0.10, upper=0.10)


def flag_from(values, ds=0.1):
    return exceedance(SpaceSeries(0.0, ds, np.asarray(values, dtype=float)), Z_PT)


def series_edges(series, l_cr=5.0):
    """Windows over a space series' extent, len * ds."""
    return window_edges(series.s0, series.extent, l_cr)


def critical(flag, l_cr=5.0):
    return find_critical(flag, series_edges(flag.series, l_cr))


WEIGHTINGS = {axis: iso2631.load_weighting(w) for axis, w in iso2631.DEFAULT_WEIGHTINGS.items()}


def iso_windows(runs, edges, k_factors=(1.0, 1.0, 1.0)):
    """Per-run a_v on ``edges`` under the default weightings, reduced across the runs by their mean."""
    per_run_av = [iso_window_av(run, edges, WEIGHTINGS, k_factors) for run in runs]
    return classify_windows_iso(per_run_av, edges)


def run_edges(runs, l_cr=5.0):
    """Windows over the span of positions all runs share."""
    start = max(float(r.s.values[0]) for r in runs)
    end = min(float(r.s.values[-1]) for r in runs)
    return window_edges(start, end - start, l_cr)


class TestFindCritical:
    def test_all_true_track(self):
        flag = flag_from(np.full(1000, 1.0))  # 100 m at ds=0.1, all exceeding
        report = critical(flag)
        row = report.rows[0]
        assert report.total_windows == 20
        assert row.c == 20
        assert row.r_c == pytest.approx(100.0)
        assert row.n == 0

    def test_isolated_sample_never_critical(self):
        values = np.zeros(1000)
        values[500] = 1.0
        report = critical(flag_from(values))
        assert report.rows[0].c == 0

    @pytest.mark.parametrize("length_m,expected", [(3025, 605), (1595, 319), (2135, 427)])
    def test_track_window_totals(self, length_m, expected):
        flag = flag_from(np.zeros(length_m * 10))  # ds = 0.1 m
        report = critical(flag)
        assert report.total_windows == expected
        assert report.rows[0].c + report.rows[0].n == expected

    def test_ratios_sum_to_hundred(self):
        rng = np.random.default_rng(2)
        report = critical(flag_from(rng.uniform(-0.3, 0.3, 2000)))
        row = report.rows[0]
        assert row.r_c + row.r_n == pytest.approx(100.0, abs=0.01)

    def test_short_track_rejected(self):
        with pytest.raises(InvalidInput):
            window_edges(0.0, 10 * 0.1, 5.0)

    def test_csv_and_table_render(self):
        report = critical(flag_from(np.zeros(1000)))
        assert "category,C,R_c,N,R_n" in report.to_csv_text()
        assert "C_PT,z" in report.format_table()


@pytest.mark.parametrize(
    "classify",
    [
        lambda: critical(flag_from(np.zeros(100), ds=1.0), 0.5),
        lambda: iso_windows([constant_speed_response(v=10.0, dt=0.005, n=2001)], window_edges(0.0, 100.0, 0.025)),
        lambda: classify_windows_iri(SpaceSeries(0.0, 1.0, np.ones(100)), 15.0, window_edges(0.0, 100.0, 0.5)),
    ],
    ids=["find_critical", "classify_windows_iso", "classify_windows_iri"],
)
def test_window_shorter_than_sample_step_rejected(classify):
    # samples 1 m (0.05 m for the trace) apart, windows half a step long
    with pytest.raises(InvalidInput, match="a window holds no samples"):
        classify()


class TestIsoWindows:
    def test_zero_traces_all_not_uncomfortable(self):
        runs = [constant_speed_response(v=10.0, dt=0.005, n=6001) for _ in range(3)]
        out = iso_windows(runs, run_edges(runs))
        assert set(out.labels) == {"NU"}
        assert np.all(out.a_v < 1e-12)
        assert all(iso2631.classify_iso(v).perception == "below" for v in out.a_v)
        for row in out.report.rows:
            assert row.c == 0

    def test_smooth_road_stays_not_uncomfortable(self, car, geometry):
        grid = straight_grid(synth_profile(400.0, 0.1, "A", 17), 0.1)
        run = simulate(Scenario(road=grid, target_speed=SpeedProfile.constant(80.0 / 3.6)), car, geometry)
        out = iso_windows([run], run_edges([run]))
        assert np.max(out.a_v) < 0.315
        assert set(out.labels) == {"NU"}

    def test_rough_patch_flagged_only_at_patch(self, car, geometry):
        step = 0.1
        smooth = synth_profile(500.0, step, "A", 23)
        rough = synth_profile(500.0, step, "E", 23)
        profile = smooth.copy()
        patch = slice(int(480.0 / step), len(profile))  # last 20 m
        profile[patch] = rough[patch]
        grid = straight_grid(profile, step)
        run = simulate(Scenario(road=grid, target_speed=SpeedProfile.constant(80.0 / 3.6)), car, geometry)
        out = iso_windows([run], run_edges([run]))
        flagged = [k for k, lab in enumerate(out.labels) if lab != "NU"]
        assert flagged, "patch must trip at least one window"
        assert all(out.edges[k + 1] > 480.0 - 1e-6 for k in flagged), "no flags away from the patch"

    def test_vertical_factor_scales_a_v(self):
        rng = np.random.default_rng(8)
        runs = [constant_speed_response(v=10.0, dt=0.005, n=6001, channel_values=rng.normal(0.0, 0.5, 6001))
                for _ in range(2)]
        base = iso_windows(runs, run_edges(runs), k_factors=(1.0, 1.0, 1.0))
        doubled = iso_windows(runs, run_edges(runs), k_factors=(1.0, 1.0, 2.0))
        assert np.all(base.a_v > 0)
        assert np.array_equal(doubled.a_v, 2.0 * base.a_v)

    def test_report_counts_are_exclusive(self):
        runs = [constant_speed_response(v=10.0, dt=0.005, n=6001)]
        out = iso_windows(runs, run_edges(runs))
        for row in out.report.rows:
            assert row.c + row.n == out.report.total_windows


class TestIriWindows:
    def test_constant_good_index(self):
        series = SpaceSeries(0.0, 0.1, np.full(1000, 1.0))
        out = classify_windows_iri(series, 80.0 / 3.6, series_edges(series))
        assert set(out.labels) == {"VG"}
        for row in out.report.rows:
            assert row.c == 0

    def test_constant_mediocre_index(self):
        series = SpaceSeries(0.0, 0.1, np.full(1000, 3.0))
        out = classify_windows_iri(series, 80.0 / 3.6, series_edges(series))
        assert set(out.labels) == {"M"}
        assert {row.category: row.c for row in out.report.rows}["M"] == out.report.total_windows

    def test_step_profile_counts_high_half(self):
        values = np.concatenate([np.full(500, 1.0), np.full(500, 3.0)])
        series = SpaceSeries(0.0, 0.1, values)
        out = classify_windows_iri(series, 80.0 / 3.6, series_edges(series))
        assert {row.category: row.c for row in out.report.rows}["M"] == 10  # windows fully inside the rough half

    def test_speed_profile_changes_labels(self):
        series = SpaceSeries(0.0, 0.1, np.full(1000, 3.0))
        slow = classify_windows_iri(series, 30.0 / 3.6, series_edges(series))
        assert set(slow.labels) == {"VG"}  # 3.0 < 3.80 at 30 km/h

    def test_partition_is_exhaustive(self):
        series = SpaceSeries(0.0, 0.1, np.full(777, 2.0))
        out = classify_windows_iri(series, 80.0 / 3.6, series_edges(series))
        labelled = sum(row.c for row in out.report.rows if row.category in ("G", "F", "M", "P"))
        vg = sum(1 for lab in out.labels if lab == "VG")
        assert labelled + vg == out.report.total_windows


class TestWindowEdges:
    def test_edges(self):
        edges = window_edges(0.0, 100.0, 5.0)
        assert len(edges) == 21
        assert edges[-1] == pytest.approx(100.0)

    def test_monotone_signal_monotone_counts(self):
        rng = np.random.default_rng(5)
        base = np.abs(rng.normal(0.2, 0.1, 4000))
        f1 = critical(flag_from(base)).rows[0].c
        f2 = critical(flag_from(base * 2.0)).rows[0].c
        assert f2 >= f1
