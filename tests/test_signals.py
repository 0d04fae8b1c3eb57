from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ridekit.calibration import channel_error
from ridekit.errors import DimensionMismatch, InvalidInput
from ridekit.signals import (
    SpaceSeries,
    TimeSeries,
    aggregate,
    read_reference_csv,
    read_response_csv,
    to_space,
    write_response_csv,
)

from conftest import constant_speed_response


def ts(values, dt=1.0, t0=0.0):
    return TimeSeries(t0, dt, np.asarray(values, dtype=float))


class TestContainers:
    def test_timeseries_rejects_bad_step(self):
        with pytest.raises(InvalidInput):
            TimeSeries(0.0, 0.0, [1.0])

    def test_timeseries_rejects_nan(self):
        with pytest.raises(InvalidInput):
            TimeSeries(0.0, 0.1, [1.0, np.nan])

    def test_timeseries_time_axis(self):
        series = ts([1, 2, 3], dt=0.5, t0=1.0)
        assert np.allclose(series.t, [1.0, 1.5, 2.0])
        assert series.duration == pytest.approx(1.5)

    def test_space_series_checks(self):
        with pytest.raises(InvalidInput):
            SpaceSeries(0.0, -1.0, [1.0])

    def test_response_rejects_reversing_s(self):
        run = constant_speed_response()
        bad_s = run.s.values.copy()
        bad_s[10] = bad_s[9] - 1.0
        with pytest.raises(InvalidInput):
            constant_speed_response().__class__(
                v_x=run.v_x, a_x=run.a_x, a_y=run.a_y, a_z=run.a_z,
                phi_rate=run.phi_rate, theta_rate=run.theta_rate, psi_rate=run.psi_rate,
                s=run.s.with_values(bad_s),
            )


class TestRmse:
    """The numerator of the channel error: against a unit-range reference it is the plain RMS error."""

    def test_identity(self):
        a = ts([1.0, 0.0, 0.5])
        assert channel_error(a, a) == 0.0

    def test_constant_offset(self):
        ref = ts([0.0, 1.0, 0.25])
        pred = ts([2.0, 3.0, 2.25])
        assert channel_error(pred, ref) == pytest.approx(2.0)

    def test_hand_arithmetic(self):
        # sqrt(((1-1)^2 + (1.5-1)^2 + (3-2)^2) / 3) = sqrt(1.25/3); range 1
        assert channel_error(ts([1, 1.5, 3]), ts([1, 1, 2])) == pytest.approx(0.6454972243679028)

    def test_symmetry(self):
        # references of equal range: swapping the roles leaves the error unchanged
        a, b = ts([0.0, 1.0, 0.5]), ts([1.0, 0.0, 0.75])
        assert channel_error(a, b) == channel_error(b, a)

    def test_longer_reference_is_cut(self):
        # the reference's samples past the simulation are not compared
        ref = ts([0.0, 1.0, 0.0, 50.0, -50.0])
        assert channel_error(ts([0.0, 1.0, 0.5]), ref) == pytest.approx(np.sqrt(0.25 / 3))

    def test_different_step_is_resampled(self):
        # a ramp at half the reference step, interpolated onto the reference grid, is exact
        ref = ts(np.linspace(0.0, 1.0, 11), dt=0.1)
        sim = ts(np.linspace(0.0, 1.0, 21) + 0.2, dt=0.05)
        assert channel_error(sim, ref) == pytest.approx(0.2, rel=1e-12)
        assert channel_error(ts(np.linspace(0.0, 1.0, 21), dt=0.05), ref) == pytest.approx(0.0, abs=1e-15)


class TestNrmse:
    def test_identity(self):
        a = ts([0.0, 5.0, 10.0])
        assert channel_error(a, a) == 0.0

    def test_definition(self):
        ref = ts([0.0, 10.0])
        pred = ts([1.0, 11.0])  # rmse 1, range 10
        assert channel_error(pred, ref) == pytest.approx(0.1)

    def test_hand_arithmetic(self):
        # rmse = sqrt((0 + 4)/2) = sqrt(2); range 2 -> sqrt(2)/2
        assert channel_error(ts([0.0, 0.0]), ts([0.0, 2.0])) == pytest.approx(0.7071067811865476)

    def test_zero_range_rejected(self):
        with pytest.raises(InvalidInput):
            channel_error(ts([1.0, 2.0]), ts([3.0, 3.0]))

    def test_reference_constant_over_the_shared_samples_rejected(self):
        # the reference varies only after the simulation ends: its compared range is zero
        with pytest.raises(InvalidInput):
            channel_error(ts([1.0, 2.0, 3.0]), ts([3.0, 3.0, 3.0, 4.0, 5.0]))

    def test_invariant_under_common_constant(self):
        rng = np.random.default_rng(1)
        ref = ts(rng.normal(size=64))
        pred = ts(rng.normal(size=64))
        shifted = channel_error(ts(pred.values + 3.7), ts(ref.values + 3.7))
        assert shifted == pytest.approx(channel_error(pred, ref), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.lists(
            st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)), min_size=2, max_size=40
        ),
        offset=st.floats(-100.0, 100.0),
        scale=st.floats(1e-3, 1e3),
    )
    def test_invariant_under_common_offset_and_scale(self, data, offset, scale):
        # Tolerance: 1e-9, relative or absolute.  The reference spans at least
        # 1 (its first two samples are pinned to 0 and 1).  The worst case is
        # the smallest scale: moved samples near the offset (|offset| <= 100)
        # round by about 1e-14, over a moved range of at least 1e-3, so the
        # error moves by about 1e-11.
        sim = np.array([a for a, _ in data])
        ref = np.array([b for _, b in data])
        ref[:2] = (0.0, 1.0)
        plain = channel_error(ts(sim), ts(ref))
        moved = channel_error(ts(scale * sim + offset), ts(scale * ref + offset))
        assert moved == pytest.approx(plain, rel=1e-9, abs=1e-9)


class TestToSpace:
    def test_constant_channel_stays_constant(self):
        run = constant_speed_response(channel_values=np.full(51, 4.2))
        out = to_space(run, ("az",), 0.5)["az"]
        assert np.allclose(out.values, 4.2)

    def test_one_sample_per_input_when_ds_matches(self):
        # v = 10 m/s, dt = 0.1 s -> 1 m per sample; ds = 1 m reproduces the sampling
        run = constant_speed_response(v=10.0, dt=0.1, n=51, channel_values=np.arange(51.0))
        out = to_space(run, ("az",), 1.0)["az"]
        assert len(out) == 51
        assert np.allclose(out.values, np.arange(51.0))

    def test_accelerating_ramp_matches_analytic_inversion(self):
        # s(t) = 0.5 a t^2, channel = t: output at position s must be sqrt(2 s / a)
        a = 2.0
        dt = 5e-5
        t = dt * np.arange(40001)
        s = 0.5 * a * t * t
        run = constant_speed_response(n=len(t), dt=dt)
        run = run.__class__(
            v_x=run.v_x.with_values(a * t), a_x=run.a_x, a_y=run.a_y,
            a_z=run.a_z.with_values(t), phi_rate=run.phi_rate, theta_rate=run.theta_rate,
            psi_rate=run.psi_rate, s=run.s.with_values(s),
        )
        out = to_space(run, ("az",), 0.1)["az"]
        keep = out.positions >= 0.5  # inversion error scales with 1/v; skip the crawl
        expected = np.sqrt(2.0 * out.positions[keep] / a)
        assert np.max(np.abs(out.values[keep] - expected)) < 1e-9

    def test_constant_speed_exact_reindexing(self):
        # piecewise-linear channel: interpolation at t = (s0 + k ds)/v is exact
        v, dt = 8.0, 0.05
        values = np.cumsum(np.random.default_rng(3).uniform(-1, 1, 101))
        run = constant_speed_response(v=v, dt=dt, n=101, channel_values=values)
        out = to_space(run, ("az",), 0.13)["az"]
        t_expected = out.positions / v
        direct = np.interp(t_expected, dt * np.arange(101), values)
        assert np.max(np.abs(out.values - direct)) < 1e-12

    def test_rejects_reversing(self):
        run = constant_speed_response()
        s = run.s.values.copy()
        s[5:] = s[5:][::-1]  # forward then backward
        sneaky = sorted(s)  # strictly increasing is fine
        assert len(sneaky) == len(s)
        flat = run.s.values.copy()
        flat[10] = flat[9]  # stationary sample
        bad = run.__class__(
            v_x=run.v_x, a_x=run.a_x, a_y=run.a_y, a_z=run.a_z,
            phi_rate=run.phi_rate, theta_rate=run.theta_rate, psi_rate=run.psi_rate,
            s=run.s.with_values(flat),
        )
        with pytest.raises(InvalidInput):
            to_space(bad, ("az",), 1.0)

    def test_span_precondition(self):
        run = constant_speed_response(v=0.1, dt=0.1, n=3)
        with pytest.raises(InvalidInput):
            to_space(run, ("az",), 1.0)

    @pytest.mark.parametrize("az_t0", [0.0, 1e-13], ids=["shared_time_axis", "az_offset_in_time"])
    def test_shared_inversion_equals_single_channels_bit_for_bit(self, class_c_run, az_t0):
        run = class_c_run
        if az_t0:  # within the response's t0 tolerance, so az keeps its own time axis
            run = replace(run, a_z=replace(run.a_z, t0=az_t0))
        names = ("ax", "ay", "az", "vx")
        shared = to_space(run, names, ds=0.1)
        assert list(shared) == list(names)
        t_at = np.interp(shared["ax"].positions, run.s.values, run.s.t)
        for name in names:
            single = to_space(run, (name,), 0.1)[name]
            assert (shared[name].s0, shared[name].ds) == (single.s0, single.ds)
            assert np.array_equal(shared[name].values, single.values)
            ch = run.channel(name)
            assert np.array_equal(single.values, np.interp(t_at, ch.t, ch.values))


class TestAggregate:
    def test_single_run_identity(self):
        one = SpaceSeries(0.0, 1.0, [1.0, 2.0, 3.0])
        out = aggregate([one], "mean")
        assert np.allclose(out.values, one.values)

    def test_mean(self):
        runs = [SpaceSeries(0.0, 1.0, [1.0, 1.0]), SpaceSeries(0.0, 1.0, [3.0, 3.0])]
        out = aggregate(runs, "mean")
        assert np.allclose(out.values, [2.0, 2.0])

    def test_max_abs_envelope_keeps_sign(self):
        runs = [SpaceSeries(0.0, 1.0, [1.0, -5.0]), SpaceSeries(0.0, 1.0, [2.0, 1.0])]
        out = aggregate(runs, "max-abs-envelope")
        assert np.allclose(out.values, [2.0, -5.0])

    def test_max_abs_envelope_tie_takes_the_positive_sample(self):
        a = SpaceSeries(0.0, 1.0, [0.5, -1.0, 0.2])
        b = SpaceSeries(0.0, 1.0, [-0.5, 1.0, 0.1])
        for runs in ([a, b], [b, a]):
            assert np.array_equal(aggregate(runs, "max-abs-envelope").values, [0.5, 1.0, 0.2])

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            aggregate([], "mean")

    def test_trims_to_common_overlap(self):
        runs = [
            SpaceSeries(0.0, 1.0, [0.0, 1.0, 2.0, 3.0, 4.0]),
            SpaceSeries(2.0, 1.0, [12.0, 13.0, 14.0, 15.0]),
        ]
        out = aggregate(runs, "mean")
        assert out.s0 == 2.0
        assert len(out) == 3
        assert np.allclose(out.values, [7.0, 8.0, 9.0])

    def test_misaligned_grids_rejected(self):
        runs = [SpaceSeries(0.0, 1.0, [1.0, 2.0]), SpaceSeries(0.5, 1.0, [1.0, 2.0])]
        with pytest.raises(DimensionMismatch):
            aggregate(runs)


class TestTraceCsv:
    def test_round_trip(self, tmp_path, class_c_run):
        path = tmp_path / "trace.csv"
        write_response_csv(path, class_c_run)
        back = read_response_csv(path)
        for name, channel in class_c_run.channels().items():
            assert np.array_equal(back.channel(name).values, channel.values), name
        assert back.dt == class_c_run.dt
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        for name, channel in read_response_csv(crlf).channels().items():
            assert channel.values.tobytes() == back.channel(name).values.tobytes(), name

    def test_reference_subset(self, tmp_path):
        path = tmp_path / "ref.csv"
        path.write_text("t,vx,az\n0.0,10.0,0.1\n0.1,10.0,0.2\n0.2,10.0,0.3\n")
        channels = read_reference_csv(path)
        assert set(channels) == {"vx", "az"}
        assert channels["az"].dt == pytest.approx(0.1)

    @pytest.mark.parametrize(
        "times", [(0.0, 0.1, 0.3), (0.0, 0.1, 0.1), (0.2, 0.1, 0.0)], ids=["gap", "repeat", "decreasing"]
    )
    def test_non_uniform_time_rejected(self, tmp_path, times):
        path = tmp_path / "ref.csv"
        path.write_text("t,vx\n" + "".join(f"{t},10.0\n" for t in times))
        with pytest.raises(InvalidInput, match="time column is not uniformly increasing"):
            read_reference_csv(path)

    def test_missing_channel_rejected(self, tmp_path):
        path = tmp_path / "ref.csv"
        path.write_text("t,vx\n0.0,10.0\n0.1,10.0\n")
        with pytest.raises(InvalidInput, match="missing channel"):
            read_response_csv(path)

    def test_header_must_be_the_first_line(self, tmp_path):
        path = tmp_path / "ref.csv"
        path.write_text("\nt,vx\n0.0,10.0\n0.1,10.0\n")
        with pytest.raises(InvalidInput, match="first column must be 't', got ''"):
            read_reference_csv(path)

    def test_non_numeric_line_reported(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,vx,ax,ay,az,phi_rate,theta_rate,psi_rate,s\n0,1,2,3,4,5,6,7,8\n0.1,oops,2,3,4,5,6,7,8\n")
        with pytest.raises(InvalidInput, match="line 3: non-numeric value"):
            read_response_csv(path)
        path.write_text("t,vx,ax,ay,az,phi_rate,theta_rate,psi_rate,s\n0,1,2,3,4,5,6,7,8\n\n0.1,1,2,3,4,5,6,7\n")
        with pytest.raises(InvalidInput, match="line 4: expected 9 fields, got 8"):
            read_response_csv(path)
