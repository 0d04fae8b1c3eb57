import numpy as np
import pytest

from ridekit import road, vehicle
from ridekit.signals import TimeSeries, VehicleResponse


@pytest.fixture(scope="session")
def car():
    return vehicle.default_car()

@pytest.fixture(scope="session")
def geometry():
    return vehicle.default_geometry()


@pytest.fixture(scope="session")
def class_c_grid():
    profile = road.synth_profile(400.0, 0.1, "C", seed=42)
    return road.straight_grid(profile, 0.1)


@pytest.fixture(scope="session")
def class_c_run(class_c_grid, car, geometry):
    scenario = vehicle.Scenario(road=class_c_grid, target_speed=vehicle.SpeedProfile.constant(20.0))
    return vehicle.simulate(scenario, car, geometry, dt=1e-3)


def bump_event_road(length=300.0, step=0.05, curve=(120.0, 220.0, 45.0)):
    """Calibration road: isolated bump events on flat ground plus one arc.

    Each event pairs a long hump (body mode) with a short cleat (wheel mode)
    and alternates between full-width and one-sided placement so heave, pitch,
    and roll are all excited.  Events are spaced so the suspension settles in
    between, which keeps the calibration objective smooth over the whole
    parameter box (long coherent roughness would make the trace error
    phase-decorrelate and flatten the basin).  The arc saturates the lateral
    friction cap, making tire friction identifiable.
    """
    n = int(length / step) + 1
    s = step * np.arange(n)
    curvature = np.zeros(n)
    c0, c1, radius = curve
    curvature[(s >= c0) & (s <= c1)] = 1.0 / radius
    headings = np.concatenate([[0.0], np.cumsum(0.5 * (curvature[:-1] + curvature[1:]) * np.diff(s))])
    ref = road.ReferenceLine.from_geometry(s, headings, np.zeros(n))
    offsets = np.linspace(-2.0, 2.0, 9)
    z = np.zeros((n, len(offsets)))

    def add_bump(col, center, width, height):
        mask = np.abs(s - center) < width / 2
        z[mask, col] += 0.5 * height * (1 + np.cos(2 * np.pi * (s[mask] - center) / width))

    for k, center in enumerate(np.arange(20.0, length - 12.0, 25.0)):
        if k % 3 == 0:
            cols = range(len(offsets))
        elif k % 3 == 1:
            cols = np.flatnonzero(offsets < 0)
        else:
            cols = np.flatnonzero(offsets > 0)
        for j in cols:
            add_bump(j, center, 8.0, 0.03)
            add_bump(j, center + 6.0, 0.6, 0.015)
    return road.RoadGrid(ref_line=ref, lateral_offsets=offsets, elevations=z, grid_step=step)


def curved_crossfall_grid(length=100.0, step=0.05, seed=3):
    """Grid with an arc, a 1 % grade, 2.5 % crossfall, random roughness and
    unevenly spaced offset columns, starting at chainage 100 m."""
    n = int(round(length / step)) + 1
    s = 100.0 + step * np.arange(n)
    curvature = np.where((s > 130.0) & (s < 170.0), 1.0 / 60.0, 0.0)
    headings = np.concatenate([[0.0], np.cumsum(0.5 * (curvature[:-1] + curvature[1:]) * step)])
    ref = road.ReferenceLine.from_geometry(s, headings, 0.01 * s)
    offsets = np.array([-2.5, -1.7, -0.6, 0.0, 0.4, 1.5, 2.6])
    noise = 0.003 * np.random.default_rng(seed).standard_normal((n, len(offsets)))
    z = ref.elevation[:, None] + 0.025 * offsets[None, :] + noise
    return road.RoadGrid(ref_line=ref, lateral_offsets=offsets, elevations=z, grid_step=step)


def calibration_scenario(length=300.0):
    """Bump road with an active lateral cap and a saturating speed step."""
    grid = bump_event_road(length=length)
    profile = vehicle.SpeedProfile(
        breakpoints=np.array([0.0, 40.0, 60.0, length]),
        speeds=np.array([15.0, 15.0, 20.0, 20.0]),
    )
    return vehicle.Scenario(road=grid, target_speed=profile, mu_rs=0.6)


@pytest.fixture(scope="session")
def calib_setup(geometry):
    """Scenario + known-truth reference trace for recovery tests."""
    from ridekit.calibration import apply_parameters

    scenario = calibration_scenario()
    base = vehicle.default_car()
    truth_values = {"k_tire": 300000.0}
    front, rear = apply_parameters(base, base, truth_values)
    reference = vehicle.simulate(scenario, front, geometry, dt=1e-3, rear_params=rear)
    return scenario, base, truth_values, reference


def constant_speed_response(v=10.0, dt=0.1, n=51, channel_values=None):
    """Hand-built response moving at constant speed with one payload channel (az)."""
    t = dt * np.arange(n)
    zeros = np.zeros(n)
    az = np.asarray(channel_values if channel_values is not None else zeros, dtype=float)
    mk = lambda vals, unit: TimeSeries(0.0, dt, vals, unit)  # noqa: E731
    return VehicleResponse(
        v_x=mk(np.full(n, v), "m/s"),
        a_x=mk(zeros, "m/s^2"),
        a_y=mk(zeros, "m/s^2"),
        a_z=mk(az, "m/s^2"),
        phi_rate=mk(zeros, "deg/s"),
        theta_rate=mk(zeros, "deg/s"),
        psi_rate=mk(zeros, "deg/s"),
        s=mk(v * t, "m"),
    )
