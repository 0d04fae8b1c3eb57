import numpy as np
import pytest

from dataclasses import replace

from ridekit.errors import InvalidInput
from ridekit.road import ReferenceLine, RoadGrid, SmoothingParams, straight_grid, synth_profile
from ridekit.vehicle import (
    GRAVITY,
    CornerResponse,
    QuarterCarParams,
    Scenario,
    SpeedProfile,
    VehicleGeometry,
    corner_response,
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
    def test_zero_profile_zero_state(self, car):
        out = corner_response(np.zeros(200), 0.1, 10.0, car)
        assert isinstance(out, CornerResponse)
        assert np.max(np.abs(out.displacement.values)) == 0.0
        assert np.max(np.abs(out.acceleration.values)) == 0.0

    def test_step_settles_to_static_equilibrium(self, car):
        height = 0.05
        step = 0.1
        v = 2.0
        profile = np.full(int(25.0 * v / step), height)
        profile[: int(1.0 / step)] = 0.0  # 1 m run-up then a step
        out = corner_response(profile, step, v, car, dt=1e-3)
        assert abs(out.displacement.values[-1] - height) < 1e-6 * height

    def test_impulse_energy_matches_refined_run(self, car):
        step = 0.1
        v = 10.0
        profile = np.zeros(600)
        profile[100:103] = 0.02
        coarse = corner_response(profile, step, v, car, dt=2e-3)
        fine = corner_response(profile, step, v, car, dt=2e-4)
        e_coarse = np.sum(coarse.acceleration.values**2) * 2e-3
        e_fine = np.sum(fine.acceleration.values**2) * 2e-4
        assert e_coarse == pytest.approx(e_fine, rel=5e-3)

    def test_energy_drift_undamped(self):
        params = QuarterCarParams(m_s=350.0, m_u=40.0, k_s=27500.0, c_s=0.0, k_t=325000.0, d_t=0.0)
        a, _ = corner_system(params)
        dt = 1e-3
        # released from a deflected sprung mass over flat ground, h = 0
        from ridekit.integrators import rk4_lti

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
