import gc
import weakref

import numpy as np
import pytest
from scipy.interpolate import RectBivariateSpline, make_interp_spline, make_smoothing_spline
from scipy.ndimage import median_filter, uniform_filter
from scipy.signal import welch

from ridekit import road
from ridekit.errors import DomainBoundsError, GridParseError, InvalidInput
from ridekit.road import (
    ROUGHNESS_PSD_SCALE,
    REFERENCE_WAVENUMBER,
    ReferenceLine,
    RoadGrid,
    SmoothingParams,
    SurfaceInterpolator,
    load_grid,
    save_grid,
    straight_grid,
    synth_profile,
    wheel_track_profile,
)
from ridekit.vehicle import Scenario, default_car, default_geometry, simulate

from conftest import curved_crossfall_grid


def write_grid_text(path, stations, headings, ref_elev, z, step, offset_start=-1.0, offset_step=1.0):
    n_off = z.shape[1]
    lines = [
        f"station_step={step}",
        f"offset_start={offset_start}",
        f"offset_step={offset_step}",
        f"n_offsets={n_off}",
    ]
    for i, s in enumerate(stations):
        row = [str(s), str(headings[i]), str(ref_elev[i])] + [str(v) for v in z[i]]
        lines.append(" ".join(row))
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def flat_grid_file(tmp_path):
    path = tmp_path / "flat.txt"
    stations = [0.0, 1.0]
    write_grid_text(path, stations, [0.0, 0.0], [0.0, 0.0], np.zeros((2, 2)), 1.0, offset_start=-1.0, offset_step=2.0)
    return path


class TestLoadGrid:
    def test_flat_grid(self, flat_grid_file):
        grid = load_grid(flat_grid_file)
        assert grid.elevations.shape == (2, 2)
        assert np.all(grid.elevations == 0.0)
        assert grid.outliers_replaced == 0

    def test_spike_replaced_by_local_median(self, tmp_path):
        path = tmp_path / "spike.txt"
        z = np.zeros((10, 5))
        z[4, 2] = 9999.0
        write_grid_text(path, np.arange(10.0), np.zeros(10), np.zeros(10), z, 1.0)
        grid = load_grid(path)
        assert grid.outliers_replaced == 1
        assert grid.elevations[4, 2] == 0.0

    def test_edge_column_outliers_on_crossfall_replace_only_themselves(self, tmp_path):
        # 2.5 % crossfall; outliers of both signs in the first and last column
        rng = np.random.default_rng(11)
        n, offsets = 1000, np.linspace(-2.5, 2.5, 11)
        profile = np.cumsum(rng.normal(0.0, 5e-4, n))
        z = profile[:, None] - 0.025 * offsets[None, :] + 2e-4 * rng.normal(size=(n, len(offsets)))
        planted = [(40 + 30 * k + k % 2, (0, len(offsets) - 1)[k // 2 % 2]) for k in range(12)]
        for i, j in planted:
            z[i, j] += 0.05 * (-1) ** i
        path = tmp_path / "crossfall.txt"
        write_grid_text(path, 0.1 * np.arange(n), np.zeros(n), profile, z, 0.1, offset_start=-2.5, offset_step=0.5)
        raw = np.loadtxt(path, skiprows=4)[:, 3:]
        grid = load_grid(path)
        changed = sorted(zip(*np.nonzero(grid.elevations != raw)))
        assert grid.outliers_replaced == len(planted)
        assert changed == sorted(planted)

    @pytest.mark.parametrize("shape", [(1, 2), (2, 2), (3, 5), (40, 7), (401, 11)])
    def test_local_median_and_mean_equal_the_scipy_filters(self, shape):
        z = 1.5 + 0.01 * np.random.default_rng(shape[0]).standard_normal(shape)
        z[::3, 1] = z[::3, 0]  # ties
        assert np.array_equal(road._local_median(z), median_filter(z, size=3, mode="nearest"))
        # uniform_filter keeps a running sum along each line, so it drifts from
        # the shifted sums at the rounding level of the values
        assert np.max(np.abs(road._local_mean(z) - uniform_filter(z, size=3, mode="nearest"))) <= 1e-14

    def test_local_median_with_ties_at_the_edges_equals_the_scipy_filter(self):
        # few distinct values, and edge rows and columns that repeat their
        # neighbours, so the edge padding makes ties of three and more
        z = np.random.default_rng(4).choice([-1.0, 0.0, 0.5, 2.0], size=(37, 6))
        z[0], z[-1], z[:, 0], z[:, -1] = z[1], z[-2], z[:, 1], z[:, -2]
        assert np.array_equal(road._local_median(z), median_filter(z, size=3, mode="nearest"))

    def test_median_network_selects_the_median_of_every_zero_one_input(self):
        # a compare-exchange network selects the median of any nine values if
        # it does so for all 512 inputs of zeros and ones
        bits = (np.arange(512)[:, None] >> np.arange(9)) & 1
        near = [column.astype(float) for column in bits.T]
        for a, b in road._MEDIAN_OF_9:
            near[a], near[b] = np.minimum(near[a], near[b]), np.maximum(near[a], near[b])
        assert np.array_equal(near[4], np.median(bits, axis=1))

    def test_non_finite_cell_rejected(self, tmp_path):
        path = tmp_path / "nan.txt"
        z = np.zeros((6, 3))
        z[3, 1] = np.nan
        z[4, 2] = 20.0  # an implausible cell is replaced; the missing one cannot be
        write_grid_text(path, np.arange(6.0), np.zeros(6), np.zeros(6), z, 1.0)
        with pytest.raises(GridParseError, match="missing or non-finite cells"):
            load_grid(path)

    @pytest.mark.parametrize("seed", range(6))
    def test_cleaning_replaces_the_cells_of_the_scipy_filters(self, seed):
        # planted outliers of both signs, in the interior and the edge
        # columns, on a crossfall; the reference is the cleaning step on
        # scipy.ndimage's filters
        rng = np.random.default_rng(seed)
        n, offsets = 600, np.linspace(-2.5, 2.5, 5 + seed)
        ref_elevation = 0.01 * np.arange(n)
        z = ref_elevation[:, None] - 0.025 * offsets + np.cumsum(rng.normal(0.0, 5e-4, (n, len(offsets))), axis=0)
        z += 3e-4 * rng.standard_normal(z.shape)
        cells = rng.choice(z.size, size=15, replace=False)
        z.flat[cells] += rng.choice([-1.0, 1.0], 15) * rng.uniform(0.02, 0.2, 15)

        crossfall = np.median(np.diff(z, axis=1), axis=1)
        tilt = crossfall[:, None] * np.arange(z.shape[1])
        med = median_filter(z - tilt, size=3, mode="nearest") + tilt
        sigma = float(np.std(z - uniform_filter(z, size=3, mode="nearest")))
        resid = z - med
        mask = (np.abs(resid) > 5.0 * sigma) & (np.abs(resid) > 1e-6)
        mask |= np.abs(z - ref_elevation[:, None]) > 10.0
        expected = z.copy()
        expected[mask] = med[mask]

        cleaned, replaced = road._clean_grid(z, ref_elevation)
        assert replaced == int(mask.sum()) > 0
        assert np.array_equal(cleaned, expected)

    def test_round_trip_random_grid(self, tmp_path):
        rng = np.random.default_rng(7)
        stations = 0.5 * np.arange(30)
        ref = ReferenceLine.from_geometry(stations, 0.01 * rng.normal(size=30), rng.normal(size=30) * 0.2)
        grid = RoadGrid(
            ref_line=ref,
            lateral_offsets=np.array([-1.0, 0.0, 1.0]),
            elevations=0.05 * rng.normal(size=(30, 3)),
            grid_step=0.5,
        )
        path = tmp_path / "grid.txt"
        save_grid(path, grid)
        back = load_grid(path)
        assert np.array_equal(back.elevations, grid.elevations)
        assert np.array_equal(back.stations, grid.stations)
        assert np.array_equal(back.lateral_offsets, grid.lateral_offsets)
        assert np.array_equal(back.ref_line.headings, grid.ref_line.headings)
        assert np.array_equal(back.ref_line.elevation, grid.ref_line.elevation)

    def test_uneven_offsets_are_not_saved(self, tmp_path):
        # the format stores one offset step, so uneven columns would come back moved
        path = tmp_path / "uneven.txt"
        with pytest.raises(InvalidInput, match="evenly spaced lateral offsets"):
            save_grid(path, curved_crossfall_grid())
        assert not path.exists()

    def test_non_monotone_stations(self, tmp_path):
        path = tmp_path / "bad.txt"
        write_grid_text(path, [0.0, 2.0], [0.0, 0.0], [0.0, 0.0], np.zeros((2, 2)), 1.0)
        with pytest.raises(GridParseError, match="spacing"):
            load_grid(path)
        write_grid_text(path, [1.0, 0.0], [0.0, 0.0], [0.0, 0.0], np.zeros((2, 2)), 1.0)
        with pytest.raises(GridParseError, match="increasing") as err:
            load_grid(path)
        assert err.value.line == 6

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.txt"
        text = "station_step=1.0\noffset_start=0.0\noffset_step=1.0\nn_offsets=2\n0 0 0 1 2\n1 0 0 1\n"
        path.write_text(text)
        with pytest.raises(GridParseError, match="line 6") as err:
            load_grid(path)
        assert err.value.line == 6

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "nan.txt"
        text = "station_step=1.0\noffset_start=0.0\noffset_step=1.0\nn_offsets=2\n0 0 0 1 1\n1 0 0 x 1\n"
        path.write_text(text)
        with pytest.raises(GridParseError, match="line 6") as err:
            load_grid(path)
        assert err.value.line == 6

    def test_single_offset_rejected(self, tmp_path):
        # both wheels of a vehicle would fall outside a one-column grid
        path = tmp_path / "one.txt"
        path.write_text("station_step=1.0\noffset_start=0.0\noffset_step=1.0\nn_offsets=1\n0 0 0 1\n1 0 0 1\n")
        with pytest.raises(GridParseError, match="n_offsets must be >= 2") as err:
            load_grid(path)
        assert err.value.line == 4

    def test_unknown_header_rejected(self, tmp_path):
        path = tmp_path / "hdr.txt"
        path.write_text("station_step=1.0\nwavelength=3\n")
        with pytest.raises(GridParseError, match="unknown header"):
            load_grid(path)


class TestRoadGrid:
    @pytest.mark.parametrize("offsets", [[0.0], []], ids=["one", "none"])
    def test_needs_two_offsets(self, offsets):
        ref = ReferenceLine.from_geometry([0.0, 1.0], [0.0, 0.0], [0.0, 0.0])
        with pytest.raises(InvalidInput, match="at least two offsets"):
            RoadGrid(ref_line=ref, lateral_offsets=np.array(offsets), elevations=np.zeros((2, len(offsets))), grid_step=1.0)

    def test_straight_grid_without_lateral_span_rejected(self):
        with pytest.raises(InvalidInput, match="at least two offsets"):
            straight_grid(np.zeros(20), 0.1, lateral_span=0.0)

    def test_grid_step_must_match_the_stations(self):
        # the rows, the IRI step and the vehicle positions share one spacing
        ref = ReferenceLine.from_geometry(0.1 * np.arange(6), np.zeros(6), np.zeros(6))

        def grid(step, stations=ref):
            return RoadGrid(ref_line=stations, lateral_offsets=np.array([-1.0, 1.0]), elevations=np.zeros((6, 2)), grid_step=step)

        for step in (0.1, 0.1 * (1 + 9e-7), 0.1 * (1 - 9e-7)):
            assert grid(step).grid_step == step
        for step in (0.2, 0.05, 0.1 * (1 + 2e-6)):
            with pytest.raises(InvalidInput, match="spacing"):
                grid(step)
        uneven = ReferenceLine.from_geometry([0.0, 0.1, 0.2, 0.3, 0.45, 0.55], np.zeros(6), np.zeros(6))
        with pytest.raises(InvalidInput, match="spacing"):
            grid(0.1, uneven)

    def test_grid_with_a_built_surface_freed_at_del(self):
        # no reference cycle: reference counting alone frees the grid
        grid = _bumpy_grid(np.random.default_rng(0))
        grid.surface(SmoothingParams(lambda_x=0.1))
        assert grid.laterally_uniform is False
        freed = weakref.ref(grid)
        gc.disable()
        try:
            del grid
            assert freed() is None
        finally:
            gc.enable()


class TestElevationAt:
    def test_flat_zero_everywhere(self, flat_grid_file):
        grid = load_grid(flat_grid_file)
        assert np.array_equal(SurfaceInterpolator(grid, SmoothingParams()).track(-0.3), np.zeros(2))

    def test_interpolation_reproduces_nodes(self):
        rng = np.random.default_rng(3)
        grid = _bumpy_grid(rng)
        interp = SurfaceInterpolator(grid, SmoothingParams())
        for j in range(len(grid.lateral_offsets)):
            got = interp.track(grid.lateral_offsets[j])
            assert np.max(np.abs(got - grid.elevations[:, j])) < 1e-12

    def test_plane_reproduced_at_midpoints(self):
        # elevations sample z = 0.01 s + 0.02 v: cubic splines reproduce
        # linear fields between the offset nodes
        stations = np.arange(12.0)
        offsets = np.array([-1.0, 0.0, 1.0, 2.0])
        z = 0.01 * stations[:, None] + 0.02 * offsets[None, :]
        grid = RoadGrid(
            ref_line=ReferenceLine.from_geometry(stations, np.zeros(12), np.zeros(12)),
            lateral_offsets=offsets,
            elevations=z,
            grid_step=1.0,
        )
        for v in (-0.5, 0.5, 1.5):
            got = SurfaceInterpolator(grid, SmoothingParams()).track(v)
            assert np.max(np.abs(got - (0.01 * stations + 0.02 * v))) < 1e-12

    def test_weights_solved_once_per_surface_and_never_on_equal_columns(self, monkeypatch):
        solves = []
        solve = road._interval_coefficients

        def counting_solve(offsets):
            solves.append(1)
            return solve(offsets)

        monkeypatch.setattr(road, "_interval_coefficients", counting_solve)
        uneven = curved_crossfall_grid()
        for params in (SmoothingParams(), SmoothingParams(lambda_x=1e-3)):
            for offset in (-2.0, 0.3, 1.1):
                wheel_track_profile(uneven, offset, params)
        assert len(solves) == 2
        uniform = straight_grid(synth_profile(50.0, 0.1, "C", seed=4), 0.1)
        for offset in (-2.0, 0.3, 1.1):
            wheel_track_profile(uniform, offset, SmoothingParams(lambda_x=1e-3))
        assert len(solves) == 2

    def test_out_of_hull(self):
        grid = _bumpy_grid(np.random.default_rng(0))
        interp = SurfaceInterpolator(grid)
        for v in (-2.1, 99.0):
            with pytest.raises(DomainBoundsError, match="lateral offset"):
                interp.track(v)
        interp.track(2.0 + 1e-10)  # within the 1e-9 slack

    def test_continuity(self):
        # across the offsets: a track moves little when its offset does
        rng = np.random.default_rng(11)
        grid = _bumpy_grid(rng)
        interp = SurfaceInterpolator(grid, SmoothingParams(lambda_x=0.1, lambda_y=0.0))
        for v in rng.uniform(grid.lateral_offsets[0], grid.lateral_offsets[-1] - 1e-5, 20):
            assert np.max(np.abs(interp.track(v + 1e-6) - interp.track(v))) < 1e-3


def _bumpy_grid(rng) -> RoadGrid:
    stations = np.arange(10.0)
    offsets = np.linspace(-2.0, 2.0, 5)
    z = 0.02 * rng.normal(size=(10, 5))
    ref = ReferenceLine.from_geometry(stations, np.zeros(10), np.zeros(10))
    return RoadGrid(ref_line=ref, lateral_offsets=offsets, elevations=z, grid_step=1.0)


class TestSynthProfile:
    def test_class_scaling_same_seed(self):
        a = synth_profile(500.0, 0.1, "A", seed=5)
        b = synth_profile(500.0, 0.1, "B", seed=5)
        assert np.allclose(b, 2.0 * a, rtol=0, atol=1e-15)

    def test_zero_mean(self):
        profile = synth_profile(1000.0, 0.1, "C", seed=9)
        assert abs(profile.mean()) < 1e-12

    def test_deterministic(self):
        assert np.array_equal(synth_profile(200.0, 0.1, "D", 3), synth_profile(200.0, 0.1, "D", 3))

    def test_psd_matches_target_within_factor_two(self):
        step = 0.05
        profile = synth_profile(10_000.0, step, "C", seed=13)
        freqs, psd = welch(profile, fs=1.0 / step, nperseg=8192)
        band = (freqs >= 0.02) & (freqs <= 1.0)
        target = ROUGHNESS_PSD_SCALE["C"] * (freqs[band] / REFERENCE_WAVENUMBER) ** -2
        ratio = psd[band] / target
        assert ratio.min() > 0.5 and ratio.max() < 2.0

    def test_length_precondition(self):
        with pytest.raises(InvalidInput):
            synth_profile(5.0, 1.0, "A", 1)

    def test_unknown_class(self):
        with pytest.raises(InvalidInput):
            synth_profile(100.0, 0.1, "Q", 1)


class TestWheelTrack:
    def test_flat_grid_zero_profile(self, flat_grid_file):
        grid = load_grid(flat_grid_file)
        profile = wheel_track_profile(grid, 0.3)
        assert len(profile) == len(grid.stations)
        assert np.allclose(profile, 0.0, atol=1e-12)

    def test_transverse_tilt_gives_constant(self):
        stations = np.arange(8.0)
        offsets = np.linspace(-2.0, 2.0, 5)
        tilt = 0.01  # m per m of lateral offset
        z = np.tile(tilt * offsets[None, :], (8, 1))
        grid = RoadGrid(
            ref_line=ReferenceLine.from_geometry(stations, np.zeros(8), np.zeros(8)),
            lateral_offsets=offsets,
            elevations=z,
            grid_step=1.0,
        )
        profile = wheel_track_profile(grid, 1.5)
        assert np.allclose(profile, tilt * 1.5, atol=1e-9)

    def test_centerline_matches_reference_samples(self):
        stations = np.arange(20.0) * 0.5
        wave = 0.05 * np.sin(0.7 * stations)
        offsets = np.array([-1.0, 0.0, 1.0])
        z = np.tile(wave[:, None], (1, 3))
        ref = ReferenceLine.from_geometry(stations, np.zeros(20), wave)
        grid = RoadGrid(ref_line=ref, lateral_offsets=offsets, elevations=z, grid_step=0.5)
        profile = wheel_track_profile(grid, 0.0)
        assert np.max(np.abs(profile - wave)) < 1e-9

    def test_lambda_z_smooths_extracted_profile(self):
        rough = synth_profile(100.0, 0.1, "D", 21)
        grid = straight_grid(rough, 0.1)
        raw = wheel_track_profile(grid, 0.0, SmoothingParams())
        smooth = wheel_track_profile(grid, 0.0, SmoothingParams(lambda_z=1.0))
        assert np.std(np.diff(smooth)) < np.std(np.diff(raw))

    @pytest.mark.parametrize(
        "params",
        [SmoothingParams(), SmoothingParams(lambda_x=1e-3), SmoothingParams(lambda_x=1e-3, lambda_z=1e-3)],
        ids=["raw", "lambda_x", "lambda_x_z"],
    )
    def test_equal_columns_give_the_column_bit_for_bit(self, params):
        # a laterally uniform grid with lambda_y == 0: every track is the
        # (smoothed) first column itself, whatever the offset
        grid = straight_grid(synth_profile(100.0, 0.1, "C", seed=8), 0.1)
        s = grid.stations
        expected = grid.elevations[:, 0]
        if params.lambda_x:
            expected = make_smoothing_spline(s, grid.elevations, lam=params.lambda_x, axis=0)(s)[:, 0]
        if params.lambda_z:
            expected = make_smoothing_spline(s, expected, lam=params.lambda_z)(s)
        for offset in (-2.0, -1.3, 0.0, 0.25, 1.999, 2.0):
            assert np.array_equal(wheel_track_profile(grid, offset, params), expected), offset

    def test_lateral_position_moves_no_bit_on_equal_columns(self):
        grid = straight_grid(synth_profile(200.0, 0.1, "C", seed=12), 0.1)
        scenario = Scenario(road=grid, target_speed=20.0)
        runs = [
            simulate(scenario.with_inputs(0.0, l_p, 1.0), default_car(), default_geometry()) for l_p in (0.0, 0.7)
        ]
        assert np.array_equal(runs[0].a_z.values, runs[1].a_z.values)

    def test_offset_outside_grid(self, flat_grid_file):
        grid = load_grid(flat_grid_file)
        with pytest.raises(DomainBoundsError):
            wheel_track_profile(grid, 5.0)

    def test_equals_a_fresh_surface(self):
        # the track reads a surface kept on the grid; it must equal a fresh
        # surface read at the same offset
        grid = curved_crossfall_grid()
        params = SmoothingParams(lambda_x=1e-3)
        reference = SurfaceInterpolator(grid, params)
        for offset in (-2.5, -0.8, 0.0, 0.35, 2.6):
            assert np.array_equal(wheel_track_profile(grid, offset, params), reference.track(offset))
        with pytest.raises(DomainBoundsError):
            wheel_track_profile(grid, 2.7, params)

    @pytest.mark.parametrize("make_grid", [2, 3, 4, 11, curved_crossfall_grid], ids=["2", "3", "4", "11", "uneven"])
    def test_equals_the_bicubic_surface_at_every_station(self, make_grid):
        # the rows' spline across the offsets, read at one offset, is the
        # interpolating surface through the grid (cubic along the stations;
        # cubic across the offsets, lower below four) read at the stations;
        # its weights are make_interp_spline's
        rng = np.random.default_rng(17)
        if callable(make_grid):
            grid = make_grid()
        else:
            stations = 0.1 * np.arange(40)
            z = 0.02 * rng.standard_normal((40, make_grid))
            ref = ReferenceLine.from_geometry(stations, np.zeros(40), np.zeros(40))
            offsets = np.linspace(-2.0, 2.0, make_grid)
            grid = RoadGrid(ref_line=ref, lateral_offsets=offsets, elevations=z, grid_step=0.1)
        s, v, z = grid.stations, grid.lateral_offsets, grid.elevations
        bicubic = RectBivariateSpline(s, v, z, kx=3, ky=min(3, len(v) - 1), s=0)
        weights = make_interp_spline(v, np.eye(len(v)), k=min(3, len(v) - 1))
        surface = SurfaceInterpolator(grid)
        tol = 1e-13 * (z.max() - z.min())
        for offset in np.concatenate([v, rng.uniform(v[0], v[-1], 40)]):
            assert np.max(np.abs(surface.weights(offset) - weights(offset))) <= 1e-13, offset
            assert np.max(np.abs(surface.track(offset) - bicubic(s, [offset])[:, 0])) <= tol, offset


class TestSmoothedSurface:
    @pytest.mark.parametrize("lam_x, lam_y", [(1e-3, 0.0), (0.0, 1e-2), (1e-3, 1e-2)], ids=["columns", "rows", "both"])
    def test_one_call_per_axis_equals_per_line_loop(self, lam_x, lam_y):
        # reference: one 1-D smoothing spline per offset column, then one per
        # station row
        grid = curved_crossfall_grid()
        s, v = grid.stations, grid.lateral_offsets
        z = grid.elevations
        if lam_x > 0:
            z = np.column_stack([make_smoothing_spline(s, z[:, j], lam=lam_x)(s) for j in range(z.shape[1])])
        if lam_y > 0:
            z = np.vstack([make_smoothing_spline(v, z[i, :], lam=lam_y)(v) for i in range(z.shape[0])])
        assert not np.allclose(z, grid.elevations, rtol=0, atol=1e-6)
        surface = SurfaceInterpolator(grid, SmoothingParams(lambda_x=lam_x, lambda_y=lam_y))
        assert np.array_equal(surface.elevations, z)

    @pytest.mark.parametrize("penalty", ["lambda_x", "lambda_y", "lambda_z"])
    def test_axis_below_five_nodes_left_unsmoothed(self, penalty):
        # make_smoothing_spline needs 5 nodes: 4 stations and 4 offsets are
        # skipped, 5 of each are smoothed
        for n, smoothed in ((4, False), (5, True)):
            stations = 0.1 * np.arange(n)
            ref = ReferenceLine.from_geometry(stations, np.zeros(n), np.zeros(n))
            z = 0.01 * np.random.default_rng(n).standard_normal((n, n))
            grid = RoadGrid(ref_line=ref, lateral_offsets=0.5 * np.arange(n) - 0.25 * (n - 1), elevations=z, grid_step=0.1)
            raw = wheel_track_profile(grid, 0.25)
            profile = wheel_track_profile(grid, 0.25, SmoothingParams(**{penalty: 1e-3}))
            assert len(profile) == n
            assert np.array_equal(profile, raw) != smoothed


class TestInvariants:
    def test_smoothing_identity_at_zero_lambda(self):
        rng = np.random.default_rng(2)
        grid = _bumpy_grid(rng)
        interp = SurfaceInterpolator(grid, SmoothingParams(0.0, 0.0, 0.0))
        assert interp.elevations is grid.elevations
        got = interp.track(grid.lateral_offsets[1])
        assert np.max(np.abs(got - grid.elevations[:, 1])) < 1e-9

    def test_amplitude_scales_with_sqrt_psd(self):
        a = synth_profile(300.0, 0.1, "A", seed=8)
        e = synth_profile(300.0, 0.1, "E", seed=8)
        assert np.allclose(e, 16.0 * a, rtol=0, atol=1e-12)

    def test_negative_lambda_rejected(self):
        with pytest.raises(InvalidInput):
            SmoothingParams(lambda_x=-1.0)

    @pytest.mark.parametrize("penalty", ["lambda_x", "lambda_y", "lambda_z"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_lambda_rejected(self, penalty, value):
        with pytest.raises(InvalidInput, match="finite"):
            SmoothingParams(**{penalty: value})
