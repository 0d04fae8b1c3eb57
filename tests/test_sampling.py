import sys
import threading

import numpy as np
import pytest

from ridekit import road
from ridekit.errors import ConfigError, InvalidInput
from ridekit.road import SmoothingParams, straight_grid, synth_profile
from ridekit.sampling import (
    InputDistribution,
    SamplePlan,
    default_input_distributions,
    lhs,
    run_batch,
)
from ridekit.vehicle import Scenario, SpeedProfile, simulate

from conftest import curved_crossfall_grid


class TestDistributions:
    def test_validation(self):
        with pytest.raises(ConfigError):
            InputDistribution("v_dev", "gaussian", (0.0, 0.0))
        with pytest.raises(ConfigError):
            InputDistribution("mu_rs", "uniform", (1.0, 0.5))
        with pytest.raises(ConfigError):
            InputDistribution("x", "poisson", (1.0, 2.0))

    @pytest.mark.parametrize(
        "kind, params",
        [("gaussian", (np.nan, 0.2)), ("gaussian", (0.0, np.inf)), ("uniform", (0.0, np.inf)), ("uniform", (-np.inf, 1.0))],
    )
    def test_non_finite_parameters_rejected(self, kind, params):
        with pytest.raises(ConfigError, match="finite"):
            InputDistribution("l_p", kind, params)

    def test_defaults_match_standard_scenario(self):
        dists = {d.name: d for d in default_input_distributions()}
        assert dists["v_dev"].kind == "gaussian" and dists["v_dev"].params == (0.0, 0.2)
        assert dists["l_p"].kind == "gaussian" and dists["l_p"].params == (0.0, 0.2)
        assert dists["mu_rs"].kind == "uniform" and dists["mu_rs"].params == (0.6, 1.0)

    def test_shifted_speed_mean(self):
        dists = {d.name: d for d in default_input_distributions(v_dev_mean=-5.0)}
        assert dists["v_dev"].params == (-5.0, 0.2)

    def test_gaussian_inverse_cdf_accuracy(self):
        # round trip through the CDF must be far tighter than 1e-9
        dist = InputDistribution("v_dev", "gaussian", (0.0, 1.0))
        u = np.linspace(1e-6, 1 - 1e-6, 1001)
        assert np.max(np.abs(dist.cdf(dist.inv_cdf(u)) - u)) < 1e-12


class TestLhs:
    def test_single_sample_uniform(self):
        plan = lhs([InputDistribution("mu_rs", "uniform", (0.0, 1.0))], n=1, seed=0)
        assert plan.matrix.shape == (1, 1)
        assert 0.0 < plan.matrix[0, 0] < 1.0

    def test_four_strata_uniform(self):
        plan = lhs([InputDistribution("mu_rs", "uniform", (0.0, 1.0))], n=4, seed=3)
        values = np.sort(plan.matrix[:, 0])
        for k, v in enumerate(values):
            assert k / 4 <= v < (k + 1) / 4

    def test_gaussian_moments(self):
        plan = lhs([InputDistribution("v_dev", "gaussian", (0.0, 0.2))], n=1000, seed=1)
        column = plan.matrix[:, 0]
        assert abs(column.mean()) < 0.02
        assert abs(column.std() - 0.2) < 0.02

    def test_stratification_exact_every_column(self):
        dists = default_input_distributions()
        n = 128
        plan = lhs(dists, n=n, seed=9)
        for j, dist in enumerate(dists):
            strata = np.floor(dist.cdf(plan.matrix[:, j]) * n).astype(int)
            assert sorted(strata) == list(range(n)), dist.name

    def test_deterministic_per_seed(self):
        dists = default_input_distributions()
        assert np.array_equal(lhs(dists, 64, seed=5).matrix, lhs(dists, 64, seed=5).matrix)
        assert not np.array_equal(lhs(dists, 64, seed=5).matrix, lhs(dists, 64, seed=6).matrix)

    def test_columns_use_independent_streams(self):
        # two variables with identical distributions must not sample identically
        dists = [
            InputDistribution("v_dev", "gaussian", (0.0, 1.0)),
            InputDistribution("l_p", "gaussian", (0.0, 1.0)),
        ]
        plan = lhs(dists, 32, seed=4)
        assert not np.allclose(plan.matrix[:, 0], plan.matrix[:, 1])

    def test_shifted_site_yields_negative_deviations(self):
        plan = lhs(default_input_distributions(v_dev_mean=-5.0), n=1000, seed=11)
        v_dev = plan.matrix[:, plan.names.index("v_dev")]
        assert np.all(v_dev < -3.8)  # mu + 6 sigma

    def test_invalid_n(self):
        with pytest.raises(InvalidInput):
            lhs(default_input_distributions(), 0, seed=0)

    def test_plan_csv_round_trip(self, tmp_path):
        plan = lhs(default_input_distributions(), 16, seed=2)
        path = tmp_path / "plan.csv"
        path.write_text(plan.to_csv_text())
        assert path.read_text().splitlines()[0] == ",".join(plan.names)
        assert np.array_equal(np.loadtxt(path, delimiter=",", skiprows=1), plan.matrix)


@pytest.fixture(scope="module")
def batch_setup():
    grid = straight_grid(synth_profile(120.0, 0.1, "B", 31), 0.1)
    scenario = Scenario(road=grid, target_speed=SpeedProfile.constant(15.0))
    return grid, scenario


class TestRunBatch:
    def test_zero_deviation_row_equals_direct_call(self, batch_setup, car, geometry):
        _, scenario = batch_setup
        plan = SamplePlan(names=("v_dev", "l_p", "mu_rs"), matrix=np.array([[0.0, 0.0, 1.0]]), seed=0)
        batch = run_batch(plan, scenario, car, geometry, reduce=lambda r: r, dt=1e-3)
        direct = simulate(scenario.with_inputs(0.0, 0.0, 1.0), car, geometry, dt=1e-3)
        assert batch.failures == []
        assert np.array_equal(batch.reduced[0].a_z.values, direct.a_z.values)

    def test_same_seed_bit_identical(self, batch_setup, car, geometry):
        _, scenario = batch_setup
        dists = default_input_distributions()
        plans = [lhs(dists, 4, seed=8), lhs(dists, 4, seed=8)]
        batches = [run_batch(p, scenario, car, geometry, reduce=lambda r: r, dt=2e-3) for p in plans]
        for a, b in zip(batches[0].reduced, batches[1].reduced, strict=True):
            assert np.array_equal(a.v_x.values, b.v_x.values)
            assert np.array_equal(a.a_z.values, b.a_z.values)

    def test_failures_collected_batch_continues(self, batch_setup, car, geometry):
        _, scenario = batch_setup
        plan = SamplePlan(
            names=("v_dev", "l_p", "mu_rs"),
            matrix=np.array([[0.0, 0.0, 1.0], [-15.0, 0.0, 1.0], [0.0, 0.0, 0.9]]),
            seed=0,
        )  # second row commands negative speed -> failure
        batch = run_batch(plan, scenario, car, geometry, reduce=lambda r: r, dt=2e-3)
        assert [i for i, _ in batch.failures] == [1]
        assert len(batch.reduced) == 2

    def test_reduce_error_fails_its_row_alone(self, batch_setup, car, geometry):
        _, scenario = batch_setup
        plan = lhs(default_input_distributions(), 3, seed=21)
        seen = []

        def reduce(run):
            seen.append(run)
            if len(seen) == 2:
                raise InvalidInput("run too short")
            return len(seen)

        batch = run_batch(plan, scenario, car, geometry, reduce=reduce, dt=2e-3)
        assert batch.failures == [(1, "run too short")]
        assert batch.reduced == [1, 3]

    @pytest.mark.parametrize("row", [[0.0, 2.0, 1.0], [0.0, 0.0, 1.6]], ids=["l_p", "mu_rs"])
    def test_out_of_bounds_row_fails_alone(self, batch_setup, car, geometry, row):
        _, scenario = batch_setup
        matrix = np.array([[0.1, 0.2, 0.9], row, [-0.1, -0.3, 0.7]])
        plan = SamplePlan(names=("v_dev", "l_p", "mu_rs"), matrix=matrix, seed=0)
        batch = run_batch(plan, scenario, car, geometry, reduce=lambda r: r, dt=2e-3)
        assert [i for i, _ in batch.failures] == [1]
        message = "lane half width" if row[1] else "mu_rs"
        assert message in batch.failures[0][1]
        for i, run in zip((0, 2), batch.reduced, strict=True):
            direct = simulate(scenario.with_inputs(*matrix[i]), car, geometry, dt=2e-3)
            assert np.array_equal(run.a_z.values, direct.a_z.values)
            assert np.array_equal(run.s.values, direct.s.values)

    def test_unknown_plan_column_rejected(self, batch_setup, car, geometry):
        _, scenario = batch_setup
        plan = SamplePlan(names=("v_dev", "wind"), matrix=np.zeros((1, 2)), seed=0)
        with pytest.raises(ConfigError):
            run_batch(plan, scenario, car, geometry, reduce=lambda r: r)

    def test_row_permutation_permutes_outputs(self, batch_setup, car, geometry):
        _, scenario = batch_setup
        plan = lhs(default_input_distributions(), 3, seed=21)
        permuted = SamplePlan(names=plan.names, matrix=plan.matrix[::-1].copy(), seed=21)
        batch = run_batch(plan, scenario, car, geometry, reduce=lambda r: r, dt=2e-3)
        flipped = run_batch(permuted, scenario, car, geometry, reduce=lambda r: r, dt=2e-3)
        for a, b in zip(batch.reduced, flipped.reduced[::-1], strict=True):
            assert np.array_equal(a.a_z.values, b.a_z.values)

    @pytest.mark.parametrize("threads", [2, 4])
    def test_threads_share_one_surface_and_match_serial(self, monkeypatch, threads):
        """Callers may share one grid across their own threads: the first
        build of a smoothed surface is serialised, so it happens once."""
        builds = []

        class CountingSurface(road.SurfaceInterpolator):
            def __init__(self, *args, **kwargs):
                builds.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(road, "SurfaceInterpolator", CountingSurface)
        smoothing = SmoothingParams(lambda_x=1e-3)
        offsets = np.linspace(-1.0, 1.0, threads)
        grid = curved_crossfall_grid()
        start = threading.Barrier(threads)
        profiles = [None] * threads

        def track(k):
            start.wait()
            profiles[k] = road.wheel_track_profile(grid, offsets[k], smoothing)

        workers = [threading.Thread(target=track, args=(k,)) for k in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so a racing first build would show
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert len(builds) == 1
        serial = curved_crossfall_grid()
        for offset, profile in zip(offsets, profiles, strict=True):
            assert np.array_equal(profile, road.wheel_track_profile(serial, offset, smoothing))
