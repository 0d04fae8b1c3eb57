"""Lumped vehicle simulator: four quarter-car corners on a road grid.

One :func:`simulate` call produces every channel of a
:class:`~ridekit.signals.VehicleResponse`: longitudinal speed tracking through
a rate-limited first-order controller, lateral acceleration from reference-line
curvature under a friction cap, and vertical dynamics from four independently
excited quarter-car corners combined into heave, roll rate and pitch rate by
rigid-body kinematics.  The first two and the wheel inputs do not depend on
the corner parameters: :func:`drive_plan` builds them once and
:func:`corner_dynamics` runs any corner parameters over that plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidInput, NumericFailure
from .integrators import half_grid_input, rk4_lti
from .road import RoadGrid, SmoothingParams, wheel_track_profile
from .signals import TimeSeries, VehicleResponse, uniform_grid

__all__ = [
    "GRAVITY",
    "MAX_DT",
    "QuarterCarParams",
    "VehicleGeometry",
    "SpeedProfile",
    "Scenario",
    "default_car",
    "default_geometry",
    "corner_system",
    "DrivePlan",
    "drive_plan",
    "corner_dynamics",
    "simulate",
]

GRAVITY = 9.80665  # m/s^2

#: Largest simulation step [s] at which the tire spring integrates stably.
MAX_DT = 0.005

#: Speed controller time constant [s] and acceleration authority [m/s^2 per unit friction].
_CONTROLLER_TAU = 0.5
_ACCEL_AUTHORITY = 4.0

#: Contiguous seconds of lateral-friction saturation that flag a run.
_OFF_ROAD_SECONDS = 1.0


@dataclass(frozen=True)
class QuarterCarParams:
    """Dimensional parameters of one vehicle corner.

    ``m_s`` is the sprung mass carried by the corner, ``m_u`` the unsprung
    mass; ``k_s``/``c_s`` the suspension spring and damper, ``k_t``/``d_t``
    the tire radial spring and damper, ``mu_tire`` the tire friction scale.
    Dampers may be zero; masses and springs must be positive.
    """

    m_s: float
    m_u: float
    k_s: float
    c_s: float
    k_t: float
    d_t: float
    mu_tire: float = 1.0

    def __post_init__(self):
        for name in ("m_s", "m_u", "k_s", "k_t"):
            if not (getattr(self, name) > 0):
                raise InvalidInput(f"{name} must be > 0")
        if self.c_s < 0 or self.d_t < 0:
            raise InvalidInput("damping rates must be >= 0")
        if not (0 < self.mu_tire <= 2):
            raise InvalidInput("mu_tire must be in (0, 2]")


def default_car() -> QuarterCarParams:
    """Per-corner parameters of the default passenger car.

    Calibratable quantities sit at the midpoints of their optimization bounds.
    """
    return QuarterCarParams(
        m_s=350.0, m_u=40.0, k_s=27500.0, c_s=3000.0, k_t=325000.0, d_t=5500.0, mu_tire=1.05
    )


@dataclass(frozen=True)
class VehicleGeometry:
    """Planar geometry used to turn corner responses into body rates."""

    wheelbase: float = 2.7
    track_width: float = 1.6

    def __post_init__(self):
        for name in ("wheelbase", "track_width"):
            if not (getattr(self, name) > 0):
                raise InvalidInput(f"{name} must be > 0")


def default_geometry() -> VehicleGeometry:
    return VehicleGeometry()


@dataclass(frozen=True)
class SpeedProfile:
    """Piecewise-linear target speed [m/s] over arc-length position [m]."""

    breakpoints: np.ndarray
    speeds: np.ndarray

    def __post_init__(self):
        bp = np.atleast_1d(np.asarray(self.breakpoints, dtype=float))
        v = np.atleast_1d(np.asarray(self.speeds, dtype=float))
        if bp.shape != v.shape or bp.size == 0:
            raise InvalidInput("breakpoints and speeds must be equal-length 1-D arrays")
        if bp.size > 1 and np.any(np.diff(bp) <= 0):
            raise InvalidInput("breakpoints must be strictly increasing")
        if np.any(v <= 0):
            raise InvalidInput("target speed must be > 0 everywhere")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "speeds", v)

    @classmethod
    def constant(cls, v: float) -> "SpeedProfile":
        return cls(breakpoints=np.array([0.0]), speeds=np.array([float(v)]))

    def at(self, s) -> np.ndarray:
        return np.interp(s, self.breakpoints, self.speeds)


@dataclass(frozen=True)
class Scenario:
    """One simulation setup: road, target speed, and the stochastic inputs.

    ``v_dev`` shifts the whole speed profile, ``l_p`` offsets the vehicle from
    the lane center, ``mu_rs`` scales the available road friction (weather
    proxy).  ``smoothing`` is applied when extracting wheel-track profiles.
    """

    road: RoadGrid
    target_speed: SpeedProfile
    v_dev: float = 0.0
    l_p: float = 0.0
    mu_rs: float = 1.0
    lane_half_width: float = 1.5
    smoothing: SmoothingParams = field(default_factory=SmoothingParams)

    def __post_init__(self):
        if isinstance(self.target_speed, (int, float)):
            object.__setattr__(self, "target_speed", SpeedProfile.constant(self.target_speed))
        if abs(self.l_p) > self.lane_half_width:
            raise InvalidInput(f"|l_p| must be <= lane half width {self.lane_half_width}")
        if not (0 < self.mu_rs <= 1.5):
            raise InvalidInput("mu_rs must be in (0, 1.5]")

    def with_inputs(self, v_dev: float, l_p: float, mu_rs: float) -> "Scenario":
        return replace(self, v_dev=float(v_dev), l_p=float(l_p), mu_rs=float(mu_rs))


def corner_system(params: QuarterCarParams) -> tuple[np.ndarray, np.ndarray]:
    """State-space of one corner for state [z_s, z_s', z_u, z_u'].

    The input vector is [h, h'] (road elevation and its time derivative under
    the wheel); the tire damper couples the elevation rate into the unsprung
    mass.
    """
    a = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [-params.k_s / params.m_s, -params.c_s / params.m_s, params.k_s / params.m_s, params.c_s / params.m_s],
            [0.0, 0.0, 0.0, 1.0],
            [
                params.k_s / params.m_u,
                params.c_s / params.m_u,
                -(params.k_s + params.k_t) / params.m_u,
                -(params.c_s + params.d_t) / params.m_u,
            ],
        ]
    )
    b = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [params.k_t / params.m_u, params.d_t / params.m_u]])
    return a, b


def _corner_input(h_half: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """RK4 input [h, h'] of one corner on the half grid, and its starting state.

    The corner starts in static equilibrium on the initial elevation, rolling
    along the initial slope.
    """
    hdot = np.gradient(h_half, dt / 2.0)
    u = np.column_stack([h_half, hdot])
    x0 = np.array([h_half[0], hdot[0], h_half[0], hdot[0]])
    return u, x0


def _track_speed(
    scenario: Scenario, a_lim: float, dt: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrate the longitudinal controller; returns (v, a_x, s) on the step grid.

    The controller commands ``(target(s) + v_dev - v) / tau`` clipped to the
    acceleration authority; position advances by trapezoidal integration, so s
    is strictly increasing while v stays positive.

    Cruise rule: once a step leaves ``v`` unchanged where the target is
    constant up to the track end (one breakpoint, or ``s`` past the last),
    every later step repeats it.  The remaining positions are then one
    cumulative sum of that step's increment, bit-identical to stepping on.
    """
    profile = scenario.target_speed
    bp = profile.breakpoints
    vs = profile.speeds
    n_bp = len(bp)
    s_start = float(scenario.road.stations[0])
    s_end = float(scenario.road.stations[-1])
    tau = _CONTROLLER_TAU
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
        ds = dt * 0.5 * (v + v_next)
        cruise = v_next == v and (n_bp == 1 or s >= bp[-1])
        s = s + ds
        v = v_next
        vv.append(v)
        aa.append(acc)
        ss.append(s)
        if s >= s_end:
            break
        if cruise:
            tail = _cruise_positions(s, ds, s_end, max_steps - len(aa))
            return (
                np.concatenate([vv, np.full(len(tail), v)]),
                np.concatenate([aa, np.full(len(tail) + 1, acc)]),
                np.concatenate([ss, tail]),
            )
    else:
        raise NumericFailure("speed integration stalled before reaching the track end")
    aa.append(aa[-1])
    return np.asarray(vv), np.asarray(aa), np.asarray(ss)


def _cruise_positions(s: float, ds: float, s_end: float, room: int) -> np.ndarray:
    """Positions ``s + ds``, ``s + 2 ds``, ... up to the first at or past ``s_end``.

    Accumulated in order, as the step loop adds them; ``room`` is the number
    of steps left before the loop would have given up.
    """
    parts = []
    while room > 0 and ds > 0:
        n = int(min(room, (s_end - s) / ds + 3))
        part = np.cumsum(np.concatenate([[s], np.full(n, ds)]))[1:]
        k = int(np.searchsorted(part, s_end))
        if k < n:
            parts.append(part[: k + 1])
            return np.concatenate(parts)
        parts.append(part)
        s, room = part[-1], room - n
    raise NumericFailure("speed integration stalled before reaching the track end")


@dataclass(frozen=True, eq=False)
class DrivePlan:
    """The part of one run that does not depend on the corner parameters.

    Built by :func:`drive_plan` from the scenario, the geometry, ``dt`` and
    the available friction ``mu_eff = mu_rs * mu_tire``: the speed
    trajectory, the lateral channels with the off-road warning, and the
    half-grid input ``(u, x0)`` of each corner in the order front-left,
    front-right, rear-left, rear-right.

    Grid rule: when every offset column of the road equals the first
    (:attr:`~ridekit.road.RoadGrid.laterally_uniform`) and the smoothing has
    ``lambda_y == 0``, both wheel tracks read one profile.  Only the left one
    is extracted, the right-side entries are the left-side ones
    (:attr:`same_sides`) and two corners are integrated instead of four.
    """

    scenario: Scenario
    geometry: VehicleGeometry
    dt: float
    mu_eff: float
    v_x: np.ndarray
    a_x: np.ndarray
    a_y: np.ndarray
    psi_rate: np.ndarray
    s: np.ndarray
    warnings: tuple[str, ...]
    wheels: tuple[tuple[np.ndarray, np.ndarray], ...]

    @property
    def same_sides(self) -> bool:
        return self.wheels[1] is self.wheels[0]


def drive_plan(scenario: Scenario, geometry: VehicleGeometry, mu_eff: float, dt: float = 1e-3) -> DrivePlan:
    """Speed, lateral channels and wheel inputs of a run with friction ``mu_eff``.

    The friction caps both the controller's acceleration authority and the
    lateral acceleration; sustained lateral saturation longer than one second
    flags the run with ``"off-road risk"``.
    """
    if not (0 < dt <= MAX_DT):
        raise InvalidInput(f"dt must be in (0, {MAX_DT}] s (tire spring stability)")
    grid = scenario.road

    v_arr, ax_arr, s_arr = _track_speed(scenario, _ACCEL_AUTHORITY * mu_eff, dt)

    # --- lateral / yaw ----------------------------------------------------------
    kappa = grid.ref_line.curvature_at(s_arr)
    ay_demand = v_arr * v_arr * kappa
    ay_cap = mu_eff * GRAVITY
    a_y = np.clip(ay_demand, -ay_cap, ay_cap)
    warnings: tuple[str, ...] = ()
    saturated = np.abs(ay_demand) > ay_cap
    if saturated.any():
        edges = np.diff(saturated.astype(int))
        starts = np.flatnonzero(edges == 1) + 1
        ends = np.flatnonzero(edges == -1) + 1
        if saturated[0]:
            starts = np.concatenate([[0], starts])
        if saturated[-1]:
            ends = np.concatenate([ends, [len(saturated)]])
        if np.max(ends - starts) * dt > _OFF_ROAD_SECONDS:
            warnings = ("off-road risk",)
    psi_rate = np.degrees(v_arr * kappa)

    # --- wheel inputs -------------------------------------------------------------
    offsets = (scenario.l_p + geometry.track_width / 2.0, scenario.l_p - geometry.track_width / 2.0)
    prof_step = grid.grid_step
    prof_s = uniform_grid(grid.stations[0], grid.length, prof_step)
    left = wheel_track_profile(grid, offsets[0], scenario.smoothing, prof_step)
    if grid.laterally_uniform and scenario.smoothing.lambda_y == 0:
        grid.check_offset(offsets[1])
        right = left
    else:
        right = wheel_track_profile(grid, offsets[1], scenario.smoothing, prof_step)

    s_half = half_grid_input(s_arr)
    s_rear_half = s_half - geometry.wheelbase

    def wheel(profile_values: np.ndarray, s_points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _corner_input(np.interp(s_points, prof_s, profile_values), dt)

    fl, rl = wheel(left, s_half), wheel(left, s_rear_half)
    if right is left:
        fr, rr = fl, rl
    else:
        fr, rr = wheel(right, s_half), wheel(right, s_rear_half)

    return DrivePlan(
        scenario=scenario,
        geometry=geometry,
        dt=dt,
        mu_eff=mu_eff,
        v_x=v_arr,
        a_x=ax_arr,
        a_y=a_y,
        psi_rate=psi_rate,
        s=s_arr,
        warnings=warnings,
        wheels=(fl, fr, rl, rr),
    )


def corner_dynamics(
    plan: DrivePlan,
    params: QuarterCarParams,
    rear_params: QuarterCarParams | None = None,
) -> VehicleResponse:
    """Drive the four corners through a plan and assemble the full response.

    ``params`` parameterizes the front corners; ``rear_params`` (default: same
    as front) the rear corners, assuming left/right symmetry.  The corner
    responses combine into heave acceleration and roll and pitch rates by
    rigid-body kinematics.
    """
    rear = rear_params if rear_params is not None else params
    geometry = plan.geometry
    front_sys = corner_system(params)
    rear_sys = corner_system(rear)

    def corner(wheel: tuple[np.ndarray, np.ndarray], system) -> np.ndarray:
        u, x0 = wheel
        return rk4_lti(system[0], system[1], u, plan.dt, x0)

    fl_in, fr_in, rl_in, rr_in = plan.wheels
    fl = corner(fl_in, front_sys)
    rl = corner(rl_in, rear_sys)
    if plan.same_sides:
        fr, rr = fl, rl
    else:
        fr = corner(fr_in, front_sys)
        rr = corner(rr_in, rear_sys)

    a_front, _ = front_sys
    a_rear, _ = rear_sys
    az_corners = (fl @ a_front[1], fr @ a_front[1], rl @ a_rear[1], rr @ a_rear[1])
    a_z = sum(az_corners) / 4.0

    zdot_front = 0.5 * (fl[:, 1] + fr[:, 1])
    zdot_rear = 0.5 * (rl[:, 1] + rr[:, 1])
    zdot_left = 0.5 * (fl[:, 1] + rl[:, 1])
    zdot_right = 0.5 * (fr[:, 1] + rr[:, 1])
    theta_rate = np.degrees((zdot_front - zdot_rear) / geometry.wheelbase)
    phi_rate = np.degrees((zdot_left - zdot_right) / geometry.track_width)

    def series(values: np.ndarray) -> TimeSeries:
        return TimeSeries(0.0, plan.dt, values)

    return VehicleResponse(
        v_x=series(plan.v_x),
        a_x=series(plan.a_x),
        a_y=series(plan.a_y),
        a_z=series(a_z),
        phi_rate=series(phi_rate),
        theta_rate=series(theta_rate),
        psi_rate=series(plan.psi_rate),
        s=series(plan.s),
        warnings=plan.warnings,
    )


def simulate(
    scenario: Scenario,
    params: QuarterCarParams,
    geometry: VehicleGeometry,
    dt: float = 1e-3,
    rear_params: QuarterCarParams | None = None,
    plan: DrivePlan | None = None,
) -> VehicleResponse:
    """Run the lumped vehicle over the scenario's road.

    ``params`` parameterizes the front corners; ``rear_params`` (default: same
    as front) the rear corners.  The available friction is
    ``mu_rs * mu_tire``.  This is :func:`drive_plan` followed by
    :func:`corner_dynamics`; pass ``plan`` to reuse a plan already built for
    this scenario, geometry, ``dt`` and friction.
    """
    mu_eff = scenario.mu_rs * params.mu_tire
    if plan is None:
        plan = drive_plan(scenario, geometry, mu_eff, dt)
    elif plan.scenario is not scenario or plan.geometry != geometry or plan.dt != dt or plan.mu_eff != mu_eff:
        raise InvalidInput("the drive plan was built for another scenario, geometry, dt or friction")
    return corner_dynamics(plan, params, rear_params)
