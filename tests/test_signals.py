import numpy as np
import pytest

from ridekit.errors import DimensionMismatch, InvalidInput
from ridekit.signals import (
    SpaceSeries,
    TimeSeries,
    aggregate,
    nrmse,
    read_reference_csv,
    read_response_csv,
    rmse,
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
    def test_identity(self):
        a = ts([1.0, -2.0, 3.0])
        assert rmse(a, a) == 0.0

    def test_constant_offset(self):
        ref = ts([0.0, 1.0, 4.0])
        pred = ts([2.0, 3.0, 6.0])
        assert rmse(pred, ref) == pytest.approx(2.0)

    def test_hand_arithmetic(self):
        # sqrt(((1-1)^2 + (2-2)^2 + (3-5)^2) / 3) = sqrt(4/3)
        assert rmse(ts([1, 2, 3]), ts([1, 2, 5])) == pytest.approx(1.1547005383792515)

    def test_symmetry(self):
        a, b = ts([0.0, 2.0, 5.0]), ts([1.0, -1.0, 0.5])
        assert rmse(a, b) == rmse(b, a)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            rmse(ts([1, 2]), ts([1, 2, 3]))

    def test_step_mismatch(self):
        with pytest.raises(DimensionMismatch):
            rmse(ts([1, 2], dt=0.1), ts([1, 2], dt=0.2))


class TestNrmse:
    def test_identity(self):
        a = ts([0.0, 5.0, 10.0])
        assert nrmse(a, a) == 0.0

    def test_definition(self):
        ref = ts([0.0, 10.0])
        pred = ts([1.0, 11.0])  # rmse 1, range 10
        assert nrmse(pred, ref) == pytest.approx(0.1)

    def test_hand_arithmetic(self):
        # rmse = sqrt((0 + 4)/2) = sqrt(2); range 2 -> sqrt(2)/2
        assert nrmse(ts([0.0, 0.0]), ts([0.0, 2.0])) == pytest.approx(0.7071067811865476)

    def test_zero_range_rejected(self):
        with pytest.raises(InvalidInput):
            nrmse(ts([1.0, 2.0]), ts([3.0, 3.0]))

    def test_invariant_under_common_constant(self):
        rng = np.random.default_rng(1)
        ref = ts(rng.normal(size=64))
        pred = ts(rng.normal(size=64))
        shifted = nrmse(ts(pred.values + 3.7), ts(ref.values + 3.7))
        assert shifted == pytest.approx(nrmse(pred, ref), rel=1e-12)


class TestToSpace:
    def test_constant_channel_stays_constant(self):
        run = constant_speed_response(channel_values=np.full(51, 4.2))
        out = to_space(run, "az", ds=0.5)
        assert np.allclose(out.values, 4.2)

    def test_one_sample_per_input_when_ds_matches(self):
        # v = 10 m/s, dt = 0.1 s -> 1 m per sample; ds = 1 m reproduces the sampling
        run = constant_speed_response(v=10.0, dt=0.1, n=51, channel_values=np.arange(51.0))
        out = to_space(run, "az", ds=1.0)
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
        out = to_space(run, "az", ds=0.1)
        keep = out.positions >= 0.5  # inversion error scales with 1/v; skip the crawl
        expected = np.sqrt(2.0 * out.positions[keep] / a)
        assert np.max(np.abs(out.values[keep] - expected)) < 1e-9

    def test_constant_speed_exact_reindexing(self):
        # piecewise-linear channel: interpolation at t = (s0 + k ds)/v is exact
        v, dt = 8.0, 0.05
        values = np.cumsum(np.random.default_rng(3).uniform(-1, 1, 101))
        run = constant_speed_response(v=v, dt=dt, n=101, channel_values=values)
        out = to_space(run, "az", ds=0.13)
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
            to_space(bad, "az", ds=1.0)

    def test_span_precondition(self):
        run = constant_speed_response(v=0.1, dt=0.1, n=3)
        with pytest.raises(InvalidInput):
            to_space(run, "az", ds=1.0)


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
