import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dataclasses import replace

from ridekit import vehicle
from ridekit.errors import DomainBoundsError, InvalidInput, NumericFailure
from ridekit.integrators import half_grid_input, rk4_lti
from ridekit.road import ReferenceLine, RoadGrid, SmoothingParams, straight_grid, synth_profile, wheel_track_profile
from ridekit.vehicle import (
    GRAVITY,
    MAX_DT,
    QuarterCarParams,
    Scenario,
    SpeedProfile,
    VehicleGeometry,
    corner_dynamics,
    corner_system,
    drive_plan,
    simulate,
)

from conftest import curved_crossfall_grid


def curved_grid(length=400.0, radius=200.0, step=0.5, profile=None):
    n = int(length / step) + 1
    stations = step * np.arange(n)
    headings = stations / radius
    ref = ReferenceLine.from_geometry(stations, headings, np.zeros(n))
    z = np.zeros((n, 5)) if profile is None else np.tile(profile[:, None], (1, 5))
    return RoadGrid(ref_line=ref, lateral_offsets=np.linspace(-2, 2, 5), elevations=z, grid_step=step)


class TestParams:
    def test_validation(self):
        with pytest.raises(InvalidInput):
            QuarterCarParams(m_s=-1, m_u=40, k_s=1e4, c_s=100, k_t=1e5, d_t=0)
        with pytest.raises(InvalidInput):
            QuarterCarParams(m_s=350, m_u=40, k_s=1e4, c_s=100, k_t=1e5, d_t=0, mu_tire=3.0)
        with pytest.raises(InvalidInput):
            QuarterCarParams(m_s=1.0, m_u=0.15, k_s=63.3, c_s=-1.0, k_t=653.0, d_t=0.0)  # negative damping
        # zero damping is allowed (undamped checks depend on it)
        QuarterCarParams(m_s=350, m_u=40, k_s=1e4, c_s=0.0, k_t=1e5, d_t=0.0)

    def test_geometry_validation(self):
        with pytest.raises(InvalidInput):
            VehicleGeometry(wheelbase=0.0)

    def test_scenario_bounds(self, car):
        grid = straight_grid(np.zeros(20), 1.0)
        with pytest.raises(InvalidInput):
            Scenario(road=grid, target_speed=SpeedProfile.constant(10.0), l_p=2.0)
        with pytest.raises(InvalidInput):
            Scenario(road=grid, target_speed=SpeedProfile.constant(10.0), mu_rs=1.9)
        with pytest.raises(InvalidInput):
            SpeedProfile.constant(-3.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["m_s", "m_u", "k_s", "c_s", "k_t", "d_t"])
    def test_non_finite_corner_parameter_rejected(self, car, name, value):
        with pytest.raises(InvalidInput, match="finite"):
            replace(car, **{name: value})

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["wheelbase", "track_width"])
    def test_non_finite_geometry_rejected(self, name, value):
        with pytest.raises(InvalidInput, match="finite"):
            VehicleGeometry(**{name: value})

    @pytest.mark.parametrize(
        "breakpoints, speeds",
        [([0.0], [np.inf]), ([0.0], [np.nan]), ([0.0, np.nan], [10.0, 10.0]), ([0.0, np.inf], [10.0, 10.0])],
    )
    def test_non_finite_speed_profile_rejected(self, breakpoints, speeds):
        with pytest.raises(InvalidInput, match="finite"):
            SpeedProfile(breakpoints=np.array(breakpoints), speeds=np.array(speeds))

    @pytest.mark.parametrize("lane", [np.nan, np.inf, -1.0])
    def test_lane_half_width_must_be_finite_and_non_negative(self, lane):
        grid = straight_grid(np.zeros(20), 1.0)
        with pytest.raises(InvalidInput, match="lane half width must be finite"):
            Scenario(road=grid, target_speed=10.0, lane_half_width=lane)


class TestEquilibrium:
    def test_flat_road_stays_quiet(self, car, geometry):
        grid = straight_grid(np.zeros(300), 1.0)
        run = simulate(Scenario(road=grid, target_speed=SpeedProfile.constant(15.0)), car, geometry)
        assert np.max(np.abs(run.a_z.values)) == 0.0
        assert np.max(np.abs(run.phi_rate.values)) == 0.0
        assert np.max(np.abs(run.theta_rate.values)) == 0.0
        assert np.max(np.abs(run.psi_rate.values)) == 0.0
        assert np.max(np.abs(run.a_x.values)) < 1e-12  # starts on profile: no transient

    def test_straight_road_no_lateral(self, class_c_run):
        assert np.max(np.abs(class_c_run.a_y.values)) == 0.0
        assert np.max(np.abs(class_c_run.psi_rate.values)) == 0.0

    def test_position_strictly_increasing(self, class_c_run):
        assert np.all(np.diff(class_c_run.s.values) > 0)

    def test_determinism(self, class_c_grid, car, geometry):
        scenario = Scenario(road=class_c_grid, target_speed=SpeedProfile.constant(20.0))
        a = simulate(scenario, car, geometry)
        b = simulate(scenario, car, geometry)
        for name, channel in a.channels().items():
            assert np.array_equal(channel.values, b.channels()[name].values), name


class TestVerticalDynamics:
    def test_sinusoid_matches_transfer_function(self, car, geometry):
        wavelength = 3.0
        amplitude = 0.01
        v = 10.0
        length = 400.0
        step = 0.05
        s = step * np.arange(int(length / step) + 1)
        grid = straight_grid(amplitude * np.sin(2 * np.pi * s / wavelength), step)
        run = simulate(Scenario(road=grid, target_speed=SpeedProfile.constant(v)), car, geometry, dt=1e-3)

        omega = 2 * np.pi * v / wavelength
        hz = _sprung_transfer(car, omega)
        pair_factor = abs(np.cos(np.pi * geometry.wheelbase / wavelength))
        predicted = omega**2 * abs(hz) * amplitude * pair_factor

        az = run.a_z.values
        tail = az[len(az) // 2 :]
        measured = np.sqrt(2.0) * tail.std()
        assert measured == pytest.approx(predicted, rel=0.02)

    def test_linearity_in_elevation(self, car, geometry):
        profile = synth_profile(150.0, 0.1, "C", 3)
        run1 = simulate(Scenario(road=straight_grid(profile, 0.1), target_speed=SpeedProfile.constant(15.0)), car, geometry)
        run2 = simulate(Scenario(road=straight_grid(2.0 * profile, 0.1), target_speed=SpeedProfile.constant(15.0)), car, geometry)
        scale = np.abs(run2.a_z.values - 2.0 * run1.a_z.values)
        assert np.max(scale) <= 1e-9 * max(1.0, np.max(np.abs(run2.a_z.values)))

    def test_dt_precondition(self, car, geometry, class_c_grid):
        scenario = Scenario(road=class_c_grid, target_speed=SpeedProfile.constant(15.0))
        with pytest.raises(InvalidInput):
            simulate(scenario, car, geometry, dt=0.01)


class TestLateral:
    def test_curve_produces_capped_lateral(self, car, geometry):
        grid = curved_grid(radius=40.0)
        scenario = Scenario(road=grid, target_speed=SpeedProfile.constant(20.0), mu_rs=0.6)
        run = simulate(scenario, car, geometry)
        cap = 0.6 * car.mu_tire * GRAVITY
        assert np.max(run.a_y.values) <= cap + 1e-12
        assert "off-road risk" in run.warnings  # 20 m/s on R=40 demands ~10 m/s^2 > cap

    def test_gentle_curve_unflagged(self, car, geometry):
        grid = curved_grid(radius=500.0)
        run = simulate(Scenario(road=grid, target_speed=SpeedProfile.constant(15.0)), car, geometry)
        assert run.warnings == ()
        # a_y ~ v^2 / R
        mid = np.abs(run.a_y.values[len(run.a_y) // 2])
        assert mid == pytest.approx(15.0**2 / 500.0, rel=1e-3)
        assert np.max(np.abs(run.psi_rate.values - np.degrees(run.v_x.values * (1 / 500.0)))) < 1e-6


class TestSpeedTracking:
    def test_speed_step_saturates_acceleration(self, car, geometry):
        grid = straight_grid(np.zeros(3000), 0.5)
        profile = SpeedProfile(breakpoints=np.array([0.0, 700.0, 720.0]), speeds=np.array([15.0, 15.0, 25.0]))
        scenario = Scenario(road=grid, target_speed=profile, mu_rs=1.0)
        run = simulate(scenario, car, geometry)
        a_lim = 4.0 * 1.0 * car.mu_tire
        assert np.max(run.a_x.values) <= a_lim + 1e-9
        assert np.max(run.a_x.values) == pytest.approx(a_lim, rel=1e-6)  # step engages the limiter
        assert run.v_x.values[-1] == pytest.approx(25.0, rel=1e-3)

    def test_v_dev_shifts_speed(self, car, geometry):
        grid = straight_grid(np.zeros(500), 1.0)
        base = Scenario(road=grid, target_speed=SpeedProfile.constant(20.0))
        run = simulate(base.with_inputs(v_dev=-5.0, l_p=0.0, mu_rs=1.0), car, geometry)
        assert run.v_x.values[-1] == pytest.approx(15.0, rel=1e-6)


class TestCornerResponse:
    def test_step_settles_to_static_equilibrium(self, car, geometry):
        height = 0.05
        step = 0.1
        v = 2.0
        profile = np.full(int(25.0 * v / step), height)
        profile[: int(1.0 / step)] = 0.0  # 1 m run-up then a step
        scenario = Scenario(road=straight_grid(profile, step), target_speed=SpeedProfile.constant(v))
        plan = drive_plan(scenario, geometry, scenario.mu_rs * car.mu_tire, dt=1e-3)
        u, x0 = plan.wheels[0]
        states = rk4_lti(*corner_system(car), u, 1e-3, x0)
        assert abs(states[-1, 0] - height) < 1e-6 * height

    def test_impulse_energy_matches_refined_run(self, car, geometry):
        step = 0.1
        v = 10.0
        profile = np.zeros(600)
        profile[100:103] = 0.02
        scenario = Scenario(road=straight_grid(profile, step), target_speed=SpeedProfile.constant(v))
        coarse = simulate(scenario, car, geometry, dt=2e-3)
        fine = simulate(scenario, car, geometry, dt=2e-4)
        e_coarse = np.sum(coarse.a_z.values**2) * 2e-3
        e_fine = np.sum(fine.a_z.values**2) * 2e-4
        assert e_coarse == pytest.approx(e_fine, rel=5e-3)

    def test_energy_drift_undamped(self):
        params = QuarterCarParams(m_s=350.0, m_u=40.0, k_s=27500.0, c_s=0.0, k_t=325000.0, d_t=0.0)
        a, _ = corner_system(params)
        dt = 1e-3
        # released from a deflected sprung mass over flat ground, h = 0
        x0 = np.array([0.02, 0.0, 0.0, 0.0])
        n = int(10.0 / dt)
        states = rk4_lti(a, np.array([[0.0, 0.0]] * 4).reshape(4, 2), np.zeros((2 * n + 1, 2)), dt, x0)
        energy = (
            0.5 * params.m_s * states[:, 1] ** 2
            + 0.5 * params.m_u * states[:, 3] ** 2
            + 0.5 * params.k_s * (states[:, 0] - states[:, 2]) ** 2
            + 0.5 * params.k_t * states[:, 2] ** 2
        )
        drift = abs(energy[-1] - energy[0]) / energy[0]
        assert drift < 1e-3


def _sprung_transfer(params: QuarterCarParams, omega: float) -> complex:
    """Road displacement -> sprung displacement transfer at one frequency."""
    jw = 1j * omega
    coupling = params.c_s * jw + params.k_s
    a11 = -params.m_s * omega**2 + coupling
    a12 = -coupling
    a21 = -coupling
    a22 = -params.m_u * omega**2 + params.c_s * jw + params.k_s + params.k_t + params.d_t * jw
    rhs = params.k_t + params.d_t * jw
    det = a11 * a22 - a12 * a21
    # solve [a11 a12; a21 a22] [zs; zu] = [0; rhs]
    zs = -a12 * rhs / det
    return zs


class TestDrivePlan:
    CHANNELS = ("vx", "ax", "ay", "az", "phi_rate", "theta_rate", "psi_rate", "s")

    def test_reused_plan_equals_fresh_simulate(self, car, geometry):
        speed = SpeedProfile(breakpoints=np.array([100.0, 150.0, 200.0]), speeds=np.array([12.0, 9.0, 15.0]))
        scenario = Scenario(
            road=curved_crossfall_grid(), target_speed=speed, l_p=0.3, mu_rs=0.8,
            smoothing=SmoothingParams(lambda_x=1e-3),
        )
        plan = drive_plan(scenario, geometry, scenario.mu_rs * car.mu_tire, dt=1e-3)
        assert not plan.same_sides
        stiff = replace(car, k_s=34000.0, k_t=380000.0, d_t=4500.0)
        for front, rear in ((car, None), (stiff, car), (car, stiff)):
            fresh = simulate(scenario, front, geometry, dt=1e-3, rear_params=rear)
            reused = simulate(scenario, front, geometry, dt=1e-3, rear_params=rear, plan=plan)
            for name in self.CHANNELS:
                assert np.array_equal(fresh.channel(name).values, reused.channel(name).values), name
            assert fresh.warnings == reused.warnings

    @settings(max_examples=50, deadline=None)
    @given(
        samples=st.integers(2, 300),
        scale=st.sampled_from([1e-4, 1.0, 1e3]),
        dt=st.floats(1e-5, MAX_DT),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_corner_input_equals_gradient_and_column_stack(self, samples, scale, dt, seed):
        h = np.random.default_rng(seed).normal(0.0, scale, samples)
        u, x0 = vehicle._corner_input(h, dt)
        hdot = np.gradient(h, dt / 2.0)
        assert u.tobytes() == np.column_stack([h, hdot]).tobytes()
        assert x0.tobytes() == np.array([h[0], hdot[0], h[0], hdot[0]]).tobytes()

    def test_plan_of_other_inputs_rejected(self, car, geometry, class_c_grid):
        scenario = Scenario(road=class_c_grid, target_speed=20.0)
        plan = drive_plan(scenario, geometry, car.mu_tire, dt=1e-3)
        for call in (
            lambda: simulate(scenario, replace(car, mu_tire=1.1), geometry, dt=1e-3, plan=plan),
            lambda: simulate(scenario, car, geometry, dt=2e-3, plan=plan),
            lambda: simulate(scenario, car, VehicleGeometry(wheelbase=3.0), dt=1e-3, plan=plan),
            lambda: simulate(scenario.with_inputs(0.5, 0.0, 1.0), car, geometry, dt=1e-3, plan=plan),
        ):
            with pytest.raises(InvalidInput, match="drive plan"):
                call()

    def test_two_corners_only_on_laterally_uniform_grid(self, car, geometry, class_c_grid):
        uniform = Scenario(road=class_c_grid, target_speed=20.0, l_p=0.4)
        assert class_c_grid.laterally_uniform
        assert drive_plan(uniform, geometry, car.mu_tire).same_sides
        smoothed = replace(uniform, smoothing=SmoothingParams(lambda_y=1e-3))
        assert not drive_plan(smoothed, geometry, car.mu_tire).same_sides
        crossfall = Scenario(road=curved_crossfall_grid(), target_speed=20.0)
        assert not crossfall.road.laterally_uniform
        assert not drive_plan(crossfall, geometry, car.mu_tire).same_sides

    def test_two_corners_match_four(self, car, geometry, class_c_grid):
        # the right track extracted and integrated on its own, as a plan
        # without the grid rule would; on a laterally uniform grid both
        # tracks are the grid's column, so the two plans agree bit for bit
        scenario = Scenario(road=class_c_grid, target_speed=20.0, l_p=0.4)
        plan = drive_plan(scenario, geometry, car.mu_tire)
        right = wheel_track_profile(class_c_grid, scenario.l_p - geometry.track_width / 2)
        s_half = half_grid_input(plan.s.values)
        fr = vehicle._corner_input(np.interp(s_half, class_c_grid.stations, right), plan.dt)
        rr = vehicle._corner_input(np.interp(s_half - geometry.wheelbase, class_c_grid.stations, right), plan.dt)
        four = replace(plan, wheels=(plan.wheels[0], fr, plan.wheels[2], rr))
        assert not four.same_sides
        two_run, four_run = corner_dynamics(plan, car), corner_dynamics(four, car)
        for name in self.CHANNELS:
            assert np.array_equal(two_run.channel(name).values, four_run.channel(name).values), name

    def test_two_corners_heave_equals_four_products(self, car, geometry, class_c_grid):
        # the left-side a_z products are reused for the right, in the sum
        # order of the four-corner form
        stiff = replace(car, k_s=34000.0, c_s=2500.0)
        plan = drive_plan(Scenario(road=class_c_grid, target_speed=20.0), geometry, car.mu_tire)
        assert plan.same_sides
        terms = []
        for (u, x0), params in zip(plan.wheels, (car, car, stiff, stiff)):
            a, b = corner_system(params)
            terms.append(rk4_lti(a, b, u, plan.dt, x0) @ a[1])
        a_z = corner_dynamics(plan, car, stiff).channel("az").values
        assert np.array_equal(a_z, (terms[0] + terms[1] + terms[2] + terms[3]) / 4.0)

    @pytest.mark.parametrize("uniform", [False, True], ids=["four_corners", "two_corners"])
    def test_held_plan_runs_equal_fresh_plans(self, car, geometry, class_c_grid, uniform, monkeypatch):
        # front only, rear only, both, an exact repeat, then A -> B -> A; only
        # a wheel whose parameters changed is integrated again
        if uniform:
            scenario = Scenario(road=class_c_grid, target_speed=20.0, l_p=0.4)
        else:
            speed = SpeedProfile(breakpoints=np.array([100.0, 150.0]), speeds=np.array([12.0, 15.0]))
            scenario = Scenario(road=curved_crossfall_grid(), target_speed=speed, l_p=0.3, mu_rs=0.8)
        mu_eff = scenario.mu_rs * car.mu_tire
        stiff = replace(car, k_s=34000.0, k_t=380000.0)
        soft = replace(car, k_s=19000.0, d_t=4500.0)
        sequence = [(car, car), (stiff, car), (stiff, soft), (soft, stiff), (soft, stiff), (car, car), (soft, stiff)]
        fresh = [corner_dynamics(drive_plan(scenario, geometry, mu_eff), f, r) for f, r in sequence]
        calls = []
        integrate = vehicle.rk4_lti

        def counting_rk4_lti(*args):
            calls.append(1)
            return integrate(*args)

        monkeypatch.setattr(vehicle, "rk4_lti", counting_rk4_lti)
        plan = drive_plan(scenario, geometry, mu_eff)
        assert plan.same_sides == uniform
        wheels_per_axle = 1 if uniform else 2
        expected, last = 0, (None, None)
        for (front, rear), reference in zip(sequence, fresh):
            run = corner_dynamics(plan, front, rear)
            for name in self.CHANNELS:
                assert np.array_equal(run.channel(name).values, reference.channel(name).values), name
            expected += wheels_per_axle * ((front != last[0]) + (rear != last[1]))
            last = (front, rear)
            assert len(calls) == expected
        assert expected == wheels_per_axle * 10

    def test_held_plan_returns_no_kept_array(self, car, geometry):
        scenario = Scenario(road=curved_crossfall_grid(), target_speed=15.0)
        plan = drive_plan(scenario, geometry, car.mu_tire)
        stiff = replace(car, k_s=34000.0)
        reference = corner_dynamics(drive_plan(scenario, geometry, car.mu_tire), car, stiff)
        first = corner_dynamics(plan, car, stiff)
        for name in self.CHANNELS:
            values = first.channel(name).values
            if name in ("az", "phi_rate", "theta_rate"):
                values *= -3.0
                values += 1.0
            else:  # the plan's own channels
                with pytest.raises(ValueError, match="read-only"):
                    values += 1.0
        hit = corner_dynamics(plan, car, stiff)
        for name in self.CHANNELS:
            assert np.array_equal(hit.channel(name).values, reference.channel(name).values), name

    def test_runs_over_one_plan_share_its_channels(self, car, geometry, class_c_grid):
        # the plan wraps its channels in TimeSeries once; every run returns them
        plan = drive_plan(Scenario(road=class_c_grid, target_speed=20.0), geometry, car.mu_tire)
        first, second = corner_dynamics(plan, car), corner_dynamics(plan, replace(car, k_s=34000.0))
        for name in ("v_x", "a_x", "a_y", "psi_rate", "s"):
            assert getattr(first, name) is getattr(second, name) is getattr(plan, name), name
        assert first.a_z is not second.a_z

    def test_right_wheel_off_a_uniform_grid_fails(self, car, geometry):
        # only the left track is read, but the right wheel must lie on the road
        grid = straight_grid(np.zeros(200), 0.5, lateral_span=2.0)
        scenario = Scenario(road=grid, target_speed=10.0, l_p=-1.5, lane_half_width=1.5)
        with pytest.raises(DomainBoundsError, match="lateral offset"):
            drive_plan(scenario, geometry, car.mu_tire)


def _track_speed_loop(scenario, a_lim, dt):
    """The speed controller stepped to the track end, one Python step at a time."""
    profile = scenario.target_speed
    bp = profile.breakpoints
    vs = profile.speeds
    n_bp = len(bp)
    s_start = float(scenario.road.stations[0])
    s_end = float(scenario.road.stations[-1])
    tau = vehicle._CONTROLLER_TAU
    v_dev = scenario.v_dev

    j = 0

    def target(s: float) -> float:
        nonlocal j
        if n_bp == 1:
            return vs[0]
        while j < n_bp - 2 and s > bp[j + 1]:
            j += 1
        if s <= bp[0]:
            return vs[0]
        if s >= bp[-1]:
            return vs[-1]
        w = (s - bp[j]) / (bp[j + 1] - bp[j])
        return vs[j] + w * (vs[j + 1] - vs[j])

    v = target(s_start) + v_dev
    if v <= 0.1:
        raise NumericFailure("commanded speed is non-positive at the start of the run")
    s = s_start
    max_steps = int(np.ceil((s_end - s_start) / (0.05 * dt))) + 2
    vv = [v]
    aa = []
    ss = [s]
    for _ in range(max_steps):
        v_cmd = target(s) + v_dev
        if v_cmd <= 0.1:
            raise NumericFailure("commanded speed dropped to non-positive values")
        acc = (v_cmd - v) / tau
        if acc > a_lim:
            acc = a_lim
        elif acc < -a_lim:
            acc = -a_lim
        v_next = v + dt * acc
        s = s + dt * 0.5 * (v + v_next)
        v = v_next
        vv.append(v)
        aa.append(acc)
        ss.append(s)
        if s >= s_end:
            break
    else:
        raise NumericFailure("speed integration stalled before reaching the track end")
    aa.append(aa[-1])
    return np.asarray(vv), np.asarray(aa), np.asarray(ss)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NumericFailure as exc:
        return str(exc)


class TestTrackSpeed:
    @settings(max_examples=80, deadline=None)
    @given(
        length=st.floats(5.0, 150.0),
        start=st.floats(0.0, 500.0),
        speeds=st.lists(st.floats(0.5, 30.0), min_size=1, max_size=4),
        gaps=st.lists(st.floats(1.0, 60.0), min_size=3, max_size=3),
        first_bp=st.floats(-20.0, 40.0),
        v_dev=st.floats(-6.0, 6.0),
        a_lim=st.floats(0.05, 8.0),
        dt=st.floats(5e-4, vehicle.MAX_DT),
    )
    @example(length=100.0, start=0.0, speeds=[20.0], gaps=[1.0, 1.0, 1.0], first_bp=0.0, v_dev=0.0, a_lim=4.2, dt=1e-3)
    @example(length=150.0, start=0.0, speeds=[12.0, 8.0], gaps=[5.0, 1.0, 1.0], first_bp=0.0, v_dev=1.3, a_lim=4.0, dt=1e-3)
    @example(length=100.0, start=0.0, speeds=[10.0, 1.0], gaps=[20.0, 1.0, 1.0], first_bp=10.0, v_dev=-2.0, a_lim=4.0, dt=1e-3)
    # the benchmark's site profile, with a speed deviation
    @example(
        length=400.0, start=1200.0, speeds=[60 / 3.6, 45 / 3.6, 70 / 3.6, 70 / 3.6], gaps=[120.0, 120.0, 160.0],
        first_bp=0.0, v_dev=0.8, a_lim=4.2, dt=1e-3,
    )
    # the calibration profile: a flat first stretch that starts exactly on target
    @example(
        length=150.0, start=0.0, speeds=[54 / 3.6, 54 / 3.6, 72 / 3.6, 72 / 3.6], gaps=[40.0, 20.0, 90.0],
        first_bp=0.0, v_dev=0.0, a_lim=4.2, dt=1e-3,
    )
    # a position exactly on an inner breakpoint, at the start and after step
    # 11916: the segment that closes there still sets the target, and
    # 30 + (0.7 - 30) != 0.7, 3.9 + (1.3 - 3.9) != 1.3
    @example(length=100.0, start=0.0, speeds=[30.0, 0.7, 5.0], gaps=[10.0, 20.0, 1.0], first_bp=-10.0, v_dev=0.0, a_lim=4.0, dt=1e-3)
    @example(
        length=100.0, start=0.0, speeds=[3.9, 1.3, 2.0], gaps=[23.434920007344786, 26.565079992655214, 1.0],
        first_bp=10.0, v_dev=0.0, a_lim=4.0, dt=1e-3,
    )
    # the step budget runs out inside a segment: at 2**51 m a position moves
    # only on increments above 0.25 m, so it stops once the speed falls below
    # 50 m/s
    @example(length=30.0, start=2.0**51, speeds=[52.0, 10.0], gaps=[60.0, 1.0, 1.0], first_bp=1.0, v_dev=0.0, a_lim=8.0, dt=0.005)
    # the command falls through 0.1 inside an inner segment
    @example(length=100.0, start=0.0, speeds=[5.0, 1.0, 3.0], gaps=[40.0, 20.0, 1.0], first_bp=10.0, v_dev=-0.95, a_lim=4.0, dt=1e-3)
    def test_equals_the_step_loop_bit_for_bit(self, length, start, speeds, gaps, first_bp, v_dev, a_lim, dt):
        # constant and piecewise targets, breakpoints before, on and past the
        # road; failing runs must fail with the same message
        bp = start + first_bp + np.concatenate([[0.0], np.cumsum(gaps[: len(speeds) - 1])])
        grid = straight_grid(np.zeros(int(length / 0.5) + 1), 0.5)
        grid = RoadGrid(
            ref_line=ReferenceLine.from_geometry(grid.stations + start, grid.ref_line.headings, grid.ref_line.elevation),
            lateral_offsets=grid.lateral_offsets,
            elevations=grid.elevations,
            grid_step=grid.grid_step,
        )
        scenario = Scenario(road=grid, target_speed=SpeedProfile(bp, np.array(speeds)), v_dev=v_dev)
        new = _outcome(vehicle._track_speed, scenario, a_lim, dt)
        old = _outcome(_track_speed_loop, scenario, a_lim, dt)
        if isinstance(old, str):
            assert new == old
        else:
            assert not isinstance(new, str), new
            for a, b in zip(new, old):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize(
        "speed, holds",
        [
            (SpeedProfile.constant(20.0), 1),
            (SpeedProfile(np.array([0.0, 10.0]), np.array([12.0, 8.0])), 1),
            # on target from the start up to the first inner breakpoint
            (SpeedProfile(np.array([0.0, 40.0, 60.0, 300.0]), np.array([15.0, 15.0, 20.0, 20.0])), 1),
            # and again on a flat segment between two ramps
            (SpeedProfile(np.array([0.0, 40.0, 60.0, 260.0, 280.0]), np.array([12.0, 12.0, 8.0, 8.0, 10.0])), 2),
        ],
        ids=["constant", "settled", "flat_start", "flat_between_ramps"],
    )
    def test_cruise_reached(self, speed, holds, monkeypatch):
        calls = []
        original = vehicle._cruise_positions

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(vehicle, "_cruise_positions", counting)
        scenario = Scenario(road=straight_grid(np.zeros(3001), 0.1), target_speed=speed)
        new = vehicle._track_speed(scenario, 4.0, 1e-3)
        old = _track_speed_loop(scenario, 4.0, 1e-3)
        assert len(calls) == holds
        for a, b in zip(new, old):
            assert a.tobytes() == b.tobytes()

    def test_cruise_stalls_only_past_the_step_budget(self):
        # ten steps of 1 m reach 10 m; nine do not
        assert np.array_equal(vehicle._cruise_positions(0.0, 1.0, 10.0, 10), np.arange(1.0, 11.0))
        assert np.array_equal(vehicle._cruise_positions(0.0, 1.0, 10.0, 11), np.arange(1.0, 11.0))
        for args in ((0.0, 1.0, 10.0, 9), (0.0, 0.0, 10.0, 100), (0.0, -1.0, 10.0, 100)):
            with pytest.raises(NumericFailure, match="stalled"):
                vehicle._cruise_positions(*args)

    @pytest.mark.parametrize(
        "s, ds, s_end",
        [
            (0.0, 0.1, 1.0),  # ten additions of 0.1 fall just short of 1.0
            # an increment of 1.4999 ulp adds one ulp each time: the sum needs
            # half as many steps again as the quotient says
            (2.0**20, 1.4999 * 2.0**-32, 2.0**20 + 1000 * 2.0**-32),
        ],
        ids=["tenths", "rounded_increment"],
    )
    def test_cruise_crosses_where_the_sequential_sum_does(self, s, ds, s_end):
        out = vehicle._cruise_positions(s, ds, s_end, 10**6)
        loop = []
        while s < s_end:
            s = s + ds
            loop.append(s)
        assert np.array_equal(out, loop)
