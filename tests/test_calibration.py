import numpy as np
import pytest

from ridekit import calibration, vehicle
from ridekit.calibration import (
    CALIBRATION_PARAMETERS,
    BoxConstraints,
    OptimizationChain,
    apply_parameters,
    evaluate_residual,
    levenberg_marquardt,
    run_chain,
    simulation_residual,
    _forward_jacobian,
)
from ridekit.errors import ConfigError, InvalidInput, OptimizationFailure
from ridekit.signals import TimeSeries
from ridekit.vehicle import default_car


def quadratic_residual(L, p_star):
    L = np.asarray(L, dtype=float)
    p_star = np.asarray(p_star, dtype=float)

    def fn(p):
        return L @ (np.asarray(p, dtype=float) - p_star)

    return fn


class TestLevenbergMarquardt:
    def test_quadratic_interior_convergence(self):
        L = np.array([[2.0, 0.3], [0.0, 1.0]])
        p_star = np.array([0.4, 0.6])
        fn = quadratic_residual(L, p_star)
        out = levenberg_marquardt(fn, np.array([0.0, 0.0]), np.zeros(2), np.ones(2), tol=1e-16, max_iter=50)
        assert out.n_iter < 50
        assert np.max(np.abs(out.params - p_star)) < 1e-6

    def test_exterior_minimum_projects_onto_box(self):
        # diagonal quadratic: the constrained optimum is the clipped minimizer
        L = np.diag([1.0, 2.0])
        p_star = np.array([1.5, -0.5])
        fn = quadratic_residual(L, p_star)
        out = levenberg_marquardt(fn, np.array([0.5, 0.5]), np.zeros(2), np.ones(2), tol=1e-18, max_iter=200)

        # independent oracle: brute-force search on a 1e-2 grid over the box
        grid = np.arange(0.0, 1.0 + 1e-9, 1e-2)
        best, best_f = None, np.inf
        for a in grid:
            for b in grid:
                r = fn(np.array([a, b]))
                f = float(r @ r)
                if f < best_f:
                    best, best_f = (a, b), f
        assert np.allclose(best, [1.0, 0.0])
        assert np.max(np.abs(out.params - np.array(best))) <= 1e-2 + 1e-9

    def test_trace_monotone_non_increasing(self):
        rng = np.random.default_rng(0)
        L = rng.normal(size=(6, 4))
        fn = quadratic_residual(L, rng.normal(size=4) * 0.2)
        out = levenberg_marquardt(fn, np.zeros(4), -np.ones(4), np.ones(4), tol=1e-20, max_iter=60)
        assert np.all(np.diff(out.objective_trace) <= 0)

    def test_result_stays_in_box(self):
        fn = quadratic_residual(np.eye(3), np.array([5.0, -5.0, 0.5]))
        out = levenberg_marquardt(fn, np.full(3, 0.5), np.zeros(3), np.ones(3))
        assert np.all(out.params >= 0.0) and np.all(out.params <= 1.0)

    def test_initial_guess_outside_box_rejected(self):
        fn = quadratic_residual(np.eye(2), np.zeros(2))
        with pytest.raises(ConfigError):
            levenberg_marquardt(fn, np.array([2.0, 0.0]), np.zeros(2), np.ones(2))

    def test_determinism(self):
        rng = np.random.default_rng(1)
        L = rng.normal(size=(5, 3))
        fn = quadratic_residual(L, np.array([0.2, -0.1, 0.3]))
        a = levenberg_marquardt(fn, np.zeros(3), -np.ones(3), np.ones(3))
        b = levenberg_marquardt(fn, np.zeros(3), -np.ones(3), np.ones(3))
        assert np.array_equal(a.params, b.params)
        assert a.objective_trace == b.objective_trace

    def test_persistent_failure_raises(self):
        def fn(p):
            raise InvalidInput("model exploded")

        with pytest.raises((OptimizationFailure, InvalidInput)):
            levenberg_marquardt(fn, np.zeros(1), -np.ones(1), np.ones(1))

    def test_forward_jacobian_matches_central_differences(self):
        p_star = np.array([0.3, -0.2, 0.1])
        L = np.array([[1.0, 0.2, 0.0], [0.0, 1.5, 0.3], [0.2, 0.0, 0.8]])

        def fn(p):
            d = np.asarray(p) - p_star
            return L @ d + 0.1 * d * d  # mildly nonlinear

        p = np.array([0.25, 0.4, -0.3])
        r = fn(p)
        lower, upper = -np.ones(3), np.ones(3)
        jac = _forward_jacobian(fn, p, r, lower, upper)
        central = np.empty_like(jac)
        h = 1e-6
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            central[:, j] = (fn(p + e) - fn(p - e)) / (2 * h)
        rel = np.abs(jac - central) / np.maximum(np.abs(central), 1e-6)
        assert np.max(rel) < 1e-3


class TestResidual:
    def test_self_consistency_zero(self, calib_setup, geometry):
        scenario, base, truth_values, reference = calib_setup
        front, rear = apply_parameters(base, base, truth_values)
        residual = evaluate_residual(front, scenario, geometry, reference, dt=1e-3, rear_params=rear)
        assert residual.objective == pytest.approx(0.0, abs=1e-24)
        assert set(residual.channel_nrmse) == {"vx", "ax", "ay", "az", "phi_rate", "theta_rate", "psi_rate"}

    def test_noise_injection_recovers_sigma_over_range(self, calib_setup, geometry):
        scenario, base, truth_values, reference = calib_setup
        front, rear = apply_parameters(base, base, truth_values)
        rng = np.random.default_rng(3)
        az = reference.a_z
        spread = float(np.ptp(az.values))
        sigma = spread / 200.0
        noisy = dict(
            (name, reference.channel(name)) for name in ("vx", "ax", "ay", "phi_rate", "theta_rate", "psi_rate")
        )
        noisy["az"] = TimeSeries(az.t0, az.dt, az.values + rng.normal(0.0, sigma, len(az)))
        residual = evaluate_residual(front, scenario, geometry, noisy, dt=1e-3, rear_params=rear)
        assert residual.channel_nrmse["az"] == pytest.approx(sigma / spread, rel=0.10)

    def test_spring_perturbation_monotone_on_az(self, calib_setup, geometry):
        scenario, base, truth_values, reference = calib_setup
        errors = []
        for factor in (1.0, 1.05, 1.10):
            values = dict(truth_values)
            values["k_s_front"] = base.k_s * factor
            values["k_s_rear"] = base.k_s * factor
            front, rear = apply_parameters(base, base, values)
            residual = evaluate_residual(front, scenario, geometry, reference, dt=1e-3, rear_params=rear)
            errors.append(residual.channel_nrmse["az"])
        assert errors[0] < errors[1] < errors[2]

    def test_missing_channels_skipped_and_listed(self, calib_setup, geometry):
        scenario, base, truth_values, reference = calib_setup
        front, rear = apply_parameters(base, base, truth_values)
        subset = {name: reference.channel(name) for name in ("vx", "az")}
        residual = evaluate_residual(front, scenario, geometry, subset, dt=1e-3, rear_params=rear)
        assert set(residual.channel_nrmse) == {"vx", "az"}
        skipped = {name for name, _ in residual.skipped}
        assert skipped == {"ax", "ay", "phi_rate", "theta_rate", "psi_rate"}

    def test_no_overlap_rejected(self, calib_setup, geometry):
        scenario, base, truth_values, _ = calib_setup
        front, rear = apply_parameters(base, base, truth_values)
        with pytest.raises(InvalidInput):
            evaluate_residual(front, scenario, geometry, {}, dt=1e-3, rear_params=rear)

    def test_zero_range_channels_listed_not_compared(self, geometry):
        # straight flat road with a speed step: only vx and ax carry a range
        from ridekit.road import straight_grid
        from ridekit.vehicle import Scenario, SpeedProfile, default_car, simulate

        grid = straight_grid(np.zeros(400), 0.5)
        profile = SpeedProfile(breakpoints=np.array([0.0, 90.0, 110.0]), speeds=np.array([15.0, 15.0, 18.0]))
        scenario = Scenario(road=grid, target_speed=profile)
        car = default_car()
        reference = simulate(scenario, car, geometry, dt=2e-3)
        residual = evaluate_residual(car, scenario, geometry, reference, dt=2e-3)
        reasons = dict(residual.skipped)
        assert reasons.get("ay") == "reference has zero range"
        assert reasons.get("psi_rate") == "reference has zero range"
        assert "ay" not in residual.channel_nrmse
        assert {"vx", "ax"} <= set(residual.channel_nrmse)


class TestHeldPlan:
    def test_residual_never_reuses_a_stale_plan(self, calib_setup, geometry):
        # the second to sixth points share a friction, the others change it;
        # between them only the front springs, then only the rear springs
        # change, and then the front springs go back
        scenario, base, _, reference = calib_setup
        for mus in ((0.9, 1.2), (1.2, 0.9)):
            residual = simulation_residual(scenario, geometry, reference, base, base, dt=1e-3)
            points = (
                {"mu_tire": mus[0]},
                {"mu_tire": mus[1]},
                {"mu_tire": mus[1], "k_tire": 280000.0},
                {"mu_tire": mus[1], "k_tire": 280000.0, "k_s_front": 31000.0},
                {"mu_tire": mus[1], "k_tire": 280000.0, "k_s_front": 31000.0, "k_s_rear": 22000.0},
                {"mu_tire": mus[1], "k_tire": 280000.0, "k_s_rear": 22000.0},
                {"mu_tire": mus[0], "k_tire": 280000.0},
            )
            for values in points:
                front, rear = apply_parameters(base, base, values)
                direct = evaluate_residual(front, scenario, geometry, reference, dt=1e-3, rear_params=rear)
                assert np.array_equal(residual(values).vector, direct.vector), values

    @pytest.mark.parametrize("step", [1, 2], ids=["reference_at_dt", "reference_at_2dt"])
    def test_residual_equals_evaluate_residual_exactly(self, calib_setup, geometry, step):
        # the function works out the skipped channels once and the reference
        # ranges and plan channel errors once per plan; every residual must
        # still equal a fresh evaluation, after a mu_tire change rebuilds the
        # plan and after it changes back, on a reference sampled at dt (the
        # shared samples) or at 2 dt (the simulation interpolated onto it)
        scenario, base, _, response = calib_setup
        reference = {name: response.channel(name) for name in ("vx", "ax", "ay", "az", "phi_rate", "psi_rate")}
        reference = {name: TimeSeries(0.0, step * 1e-3, ch.values[::step]) for name, ch in reference.items()}
        reference["phi_rate"] = TimeSeries(0.0, step * 1e-3, np.full(len(reference["az"]), 0.5))
        residual = simulation_residual(scenario, geometry, reference, base, base, dt=1e-3)
        points = (
            {},
            {"k_tire": 280000.0},
            {"mu_tire": 0.9, "k_tire": 280000.0},
            {"mu_tire": 0.9, "k_tire": 280000.0, "k_s_rear": 22000.0},
            {"k_tire": 280000.0},
        )
        for values in points:
            front, rear = apply_parameters(base, base, values)
            direct = evaluate_residual(front, scenario, geometry, reference, dt=1e-3, rear_params=rear)
            assert residual(values) == direct, values
            assert [name for name, _ in direct.skipped] == ["phi_rate", "theta_rate"]

    def test_chain_runs_speed_loop_only_when_friction_changes(self, calib_setup, geometry, monkeypatch):
        scenario, base, _, reference = calib_setup
        frictions, loops = [], []
        simulate, track_speed = calibration.simulate, vehicle._track_speed

        def recording_simulate(scenario, params, *args, **kwargs):
            frictions.append(scenario.mu_rs * params.mu_tire)
            return simulate(scenario, params, *args, **kwargs)

        def counting_track_speed(*args):
            loops.append(1)
            return track_speed(*args)

        monkeypatch.setattr(calibration, "simulate", recording_simulate)
        monkeypatch.setattr(vehicle, "_track_speed", counting_track_speed)
        chain = OptimizationChain.default()
        constraints = BoxConstraints.vehicle_defaults()
        p0 = dict(zip(chain.parameters, constraints.midpoint(chain.parameters)))
        residual = simulation_residual(scenario, geometry, reference, base, base, dt=1e-3)
        assert run_chain(chain, p0, lambda values: residual(values).vector, constraints).completed
        # one plan is held: a friction seen before is rebuilt only after another
        # friction came in between (once, where the mu_tire stage hands over)
        changes = 1 + sum(a != b for a, b in zip(frictions, frictions[1:]))
        assert len(loops) == changes <= len(set(frictions)) + 1
        assert len(loops) < len(frictions) / 5


class TestRecovery:
    def test_single_parameter_tire_stiffness(self, calib_setup, geometry):
        scenario, base, truth_values, reference = calib_setup
        residual = simulation_residual(scenario, geometry, reference, base, base, dt=1e-3)
        constraints = BoxConstraints.vehicle_defaults()
        lo, hi = constraints.arrays(("k_tire",))
        out = levenberg_marquardt(
            lambda v: residual({"k_tire": float(v[0])}).vector, constraints.midpoint(("k_tire",)), lo, hi,
            tol=1e-14, max_iter=40,
        )
        assert abs(out.params[0] - truth_values["k_tire"]) / truth_values["k_tire"] < 0.02


class TestChain:
    def test_single_stage_equals_plain_lm(self):
        L = np.array([[1.0, 0.4], [0.0, 2.0]])
        p_star = np.array([0.3, 0.7])
        fn_vec = quadratic_residual(L, p_star)
        constraints = BoxConstraints(bounds={"a": (0.0, 1.0), "b": (0.0, 1.0)})

        def fn_named(values):
            return fn_vec(np.array([values["a"], values["b"]]))

        chain = OptimizationChain(stages=(("a", "b"),))
        chained = run_chain(chain, {"a": 0.1, "b": 0.1}, fn_named, constraints, tol=1e-18, max_iter=80)
        plain = levenberg_marquardt(fn_vec, np.array([0.1, 0.1]), np.zeros(2), np.ones(2), tol=1e-18, max_iter=80)
        assert chained.completed
        assert np.allclose([chained.params["a"], chained.params["b"]], plain.params, atol=1e-10)

    def test_stages_do_not_move_when_already_optimal(self):
        fn_vec = quadratic_residual(np.eye(2), np.array([0.25, 0.75]))

        def fn_named(values):
            return fn_vec(np.array([values["a"], values["b"]]))

        constraints = BoxConstraints(bounds={"a": (0.0, 1.0), "b": (0.0, 1.0)})
        chain = OptimizationChain(stages=(("a",), ("b",)))
        out = run_chain(chain, {"a": 0.25, "b": 0.75}, fn_named, constraints, tol=1e-18)
        assert out.completed
        assert out.params == {"a": 0.25, "b": 0.75}
        assert all(r.objective_after <= 1e-18 for r in out.stage_reports)

    def test_two_stage_recovery_bounded_degradation(self):
        # coupled quadratic plus an irreducible residual floor, so the
        # chain-vs-plain comparison is against a meaningful optimum
        L = np.array([[1.0, 0.3], [0.0, 1.0]])
        p_star = np.array([0.6, 0.4])
        core = quadratic_residual(L, p_star)

        def fn_vec(p):
            return np.concatenate([core(p), [0.1]])

        def fn_named(values):
            return fn_vec(np.array([values["a"], values["b"]]))

        constraints = BoxConstraints(bounds={"a": (0.0, 1.0), "b": (0.0, 1.0)})
        chained = run_chain(
            OptimizationChain(stages=(("a",), ("b",))), {"a": 0.5, "b": 0.5}, fn_named, constraints,
            tol=1e-20, max_iter=80,
        )
        plain = levenberg_marquardt(fn_vec, np.array([0.5, 0.5]), np.zeros(2), np.ones(2), tol=1e-20, max_iter=80)
        assert chained.completed
        assert plain.objective > 0
        assert chained.stage_reports[-1].objective_after <= plain.objective * 10.0

    def test_default_chain_covers_all_parameters(self):
        chain = OptimizationChain.default()
        assert chain.parameters == tuple(CALIBRATION_PARAMETERS)
        assert all(len(stage) == 1 for stage in chain.stages)

    def test_chain_aborts_with_partial_report(self):
        calls = {"n": 0}

        def fn_named(values):
            calls["n"] += 1
            if values["b"] != 0.5 or calls["n"] > 3:
                raise InvalidInput("stage two explodes")
            return np.array([values["a"] - 0.2])

        constraints = BoxConstraints(bounds={"a": (0.0, 1.0), "b": (0.0, 1.0)})
        out = run_chain(
            OptimizationChain(stages=(("a",), ("b",))), {"a": 0.5, "b": 0.5}, fn_named, constraints
        )
        assert not out.completed
        assert out.failure is not None


class TestBoxConstraints:
    def test_reference_bounds(self):
        bounds = BoxConstraints.vehicle_defaults().bounds
        assert bounds["k_s_front"] == (15000.0, 40000.0)
        assert bounds["k_s_rear"] == (15000.0, 40000.0)
        assert bounds["mu_tire"] == (0.7, 1.4)
        assert bounds["k_tire"] == (250000.0, 400000.0)
        assert bounds["d_tire"] == (4000.0, 7000.0)

    def test_invalid_interval(self):
        with pytest.raises(ConfigError):
            BoxConstraints(bounds={"a": (1.0, 1.0)})

    def test_apply_parameters_mapping(self):
        base = default_car()
        front, rear = apply_parameters(
            base, base,
            {"k_s_front": 16000.0, "k_s_rear": 17000.0, "mu_tire": 0.8, "k_tire": 260000.0, "d_tire": 4500.0},
        )
        assert front.k_s == 16000.0 and rear.k_s == 17000.0
        assert front.mu_tire == rear.mu_tire == 0.8
        assert front.k_t == rear.k_t == 260000.0
        assert front.d_t == rear.d_t == 4500.0

    def test_unknown_parameter_rejected(self):
        base = default_car()
        with pytest.raises(ConfigError):
            apply_parameters(base, base, {"c_roll": 1.0})
