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

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidInput, NumericFailure
from .integrators import _blocked_matmul, half_grid_input, rk4_lti
from .road import RoadGrid, SmoothingParams, wheel_track_profile
from .signals import TimeSeries, VehicleResponse

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
            if not (0 < getattr(self, name) < np.inf):
                raise InvalidInput(f"{name} must be finite and > 0, got {getattr(self, name)}")
        for name in ("c_s", "d_t"):
            if not (0 <= getattr(self, name) < np.inf):
                raise InvalidInput(f"damping rate {name} must be finite and >= 0, got {getattr(self, name)}")
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
            if not (0 < getattr(self, name) < np.inf):
                raise InvalidInput(f"{name} must be finite and > 0, got {getattr(self, name)}")


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
        if not np.all(np.isfinite(bp)) or np.any(np.diff(bp) <= 0):
            raise InvalidInput("breakpoints must be finite and strictly increasing")
        if not np.all((v > 0) & (v < np.inf)):
            raise InvalidInput("target speed must be finite and > 0 everywhere")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "speeds", v)

    @classmethod
    def constant(cls, v: float) -> "SpeedProfile":
        return cls(breakpoints=np.array([0.0]), speeds=np.array([float(v)]))


@dataclass(frozen=True)
class Scenario:
    """One simulation setup: road, target speed, and the stochastic inputs.

    ``v_dev`` shifts the whole speed profile, ``l_p`` offsets the vehicle from
    the lane center, ``mu_rs`` scales the available road friction (weather
    proxy).  ``smoothing`` is applied when extracting wheel-track profiles.
    ``|l_p|`` may not exceed ``lane_half_width``; its 1.2 m default keeps the
    wheels of the default 1.6 m track on a road of +-2 m.
    """

    road: RoadGrid
    target_speed: SpeedProfile
    v_dev: float = 0.0
    l_p: float = 0.0
    mu_rs: float = 1.0
    lane_half_width: float = 1.2
    smoothing: SmoothingParams = field(default_factory=SmoothingParams)

    def __post_init__(self):
        if isinstance(self.target_speed, (int, float)):
            object.__setattr__(self, "target_speed", SpeedProfile.constant(self.target_speed))
        if not (0 <= self.lane_half_width < np.inf):
            raise InvalidInput(f"lane half width must be finite and >= 0, got {self.lane_half_width}")
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
    along the initial slope.  ``h'`` is ``np.gradient(h_half, dt / 2.0)``,
    by numpy's own formulas, written in place: central differences inside,
    one-sided ones at the ends.
    """
    step = dt / 2.0
    u = np.empty((len(h_half), 2))
    u[:, 0] = h_half
    hdot = u[:, 1]
    np.subtract(h_half[2:], h_half[:-2], out=hdot[1:-1])
    hdot[1:-1] /= 2.0 * step
    hdot[0] = (h_half[1] - h_half[0]) / step
    hdot[-1] = (h_half[-1] - h_half[-2]) / step
    x0 = np.array([h_half[0], hdot[0], h_half[0], hdot[0]])
    return u, x0


def _stretches(profile: SpeedProfile) -> list[tuple[float, float, float, float, float]]:
    """The target cut at its breakpoints, as ``(end, v0, b0, width, dv)`` in order of position.

    A stretch's target is ``v0 + (s - b0) / width * dv`` and it lasts up to
    the first position at or past ``end``: before the first breakpoint, then
    each linear segment, then past the last.  A segment keeps a position on
    its closing inner breakpoint (the next one takes over only past it), so
    its ``end`` is the float after that breakpoint; the last segment gives way
    on the last breakpoint itself.  A constant stretch has ``dv == 0``, and
    its target is exactly ``v0``; neighbouring constant stretches at one speed
    are joined.
    """
    bp = profile.breakpoints.tolist()
    vs = profile.speeds.tolist()
    last = len(bp) - 2
    pieces = [(math.nextafter(bp[0], math.inf), vs[0], 0.0, 1.0, 0.0)]
    for j in range(last + 1):
        end = bp[j + 1] if j == last else math.nextafter(bp[j + 1], math.inf)
        pieces.append((end, vs[j], bp[j], bp[j + 1] - bp[j], vs[j + 1] - vs[j]))
    pieces.append((math.inf, vs[-1], 0.0, 1.0, 0.0))
    stretches = [pieces[0]]
    for piece in pieces[1:]:
        before = stretches[-1]
        if piece[4] == before[4] == 0.0 and piece[1] == before[1]:
            stretches[-1] = (piece[0], *before[1:])
        else:
            stretches.append(piece)
    return stretches


def _track_speed(
    scenario: Scenario, a_lim: float, dt: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrate the longitudinal controller; returns (v, a_x, s) on the step grid.

    The controller commands ``(target(s) + v_dev - v) / tau`` clipped to the
    acceleration authority; position advances by trapezoidal integration, so s
    is strictly increasing while v stays positive.  Each stretch of the target
    (:func:`_stretches`) runs as its own step loop on its constants, with the
    step budget counted across stretches.  The loops keep only the
    accelerations; :func:`_replay` rebuilds the speeds and positions from them.

    Hold rule: once a step leaves ``v`` unchanged on a constant stretch, every
    later step of the stretch repeats it.  The positions up to the stretch's
    end are then one cumulative sum of that step's increment, bit-identical
    to stepping on.
    """
    stretches = _stretches(scenario.target_speed)
    s_start = float(scenario.road.stations[0])
    s_end = float(scenario.road.stations[-1])
    tau = _CONTROLLER_TAU
    v_dev = float(scenario.v_dev)
    a_lim = float(a_lim)
    half_dt = dt * 0.5

    s = s_start
    k = 0
    while s >= stretches[k][0]:
        k += 1
    _, v0, b0, width, dv = stretches[k]
    v = v_start = v0 + (s - b0) / width * dv + v_dev
    if v <= 0.1:
        raise NumericFailure("commanded speed is non-positive at the start of the run")
    max_steps = int(np.ceil((s_end - s_start) / (0.05 * dt))) + 2
    # Plain floats: the loops run about 3x faster than on np.float64 scalars,
    # with the same bits.  ``aa`` holds the accelerations of the steps since
    # (v_from, s_from); ``pieces`` holds the finished (v, a_x, s) pieces, a
    # held tail as one, and ``done`` counts their steps.
    pieces = []
    done = 0
    v_from, s_from, aa = v, s, []
    while True:
        room = max_steps - done - len(aa)
        if room == 0:
            raise NumericFailure("speed integration stalled before reaching the track end")
        end, v0, b0, width, dv = stretches[k]
        if s_end < end:
            end = s_end
        put_a = aa.append
        if dv == 0.0:
            v_cmd = v0 + v_dev
            if v_cmd <= 0.1:
                raise NumericFailure("commanded speed dropped to non-positive values")
            for _ in range(room):
                acc = (v_cmd - v) / tau
                if acc > a_lim:
                    acc = a_lim
                elif acc < -a_lim:
                    acc = -a_lim
                v_next = v + dt * acc
                ds = half_dt * (v + v_next)
                s = s + ds
                held = v_next == v
                v = v_next
                put_a(acc)
                if s >= end:
                    break
                if held:
                    tail = _cruise_positions(s, ds, end, max_steps - done - len(aa))
                    pieces.append(_replay(v_from, s_from, aa, dt))
                    pieces.append((np.full(len(tail), v), np.full(len(tail), acc), tail))
                    done += len(aa) + len(tail)
                    v_from, s_from, aa = v, float(tail[-1]), []
                    s = s_from
                    break
        else:
            for _ in range(room):
                v_cmd = v0 + (s - b0) / width * dv + v_dev
                if v_cmd <= 0.1:
                    raise NumericFailure("commanded speed dropped to non-positive values")
                acc = (v_cmd - v) / tau
                if acc > a_lim:
                    acc = a_lim
                elif acc < -a_lim:
                    acc = -a_lim
                v_next = v + dt * acc
                s = s + half_dt * (v + v_next)
                v = v_next
                put_a(acc)
                if s >= end:
                    break
        if s >= s_end:
            break
        while s >= stretches[k][0]:
            k += 1
    pieces.append(_replay(v_from, s_from, aa, dt))
    v_arr = np.concatenate([[v_start], *(piece[0] for piece in pieces)])
    a_arr = np.concatenate([*(piece[1] for piece in pieces), [acc]])
    s_arr = np.concatenate([[s_start], *(piece[2] for piece in pieces)])
    return v_arr, a_arr, s_arr


def _replay(v: float, s: float, accs: list, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Speeds, accelerations and positions after each step of ``accs``, starting from ``(v, s)``.

    The step loop's sums ``v + dt * acc`` and ``s + dt * 0.5 * (v + v_next)``,
    taken in the same order: ``np.cumsum`` adds in sequence, so the values
    are bit-identical to the loop's.
    """
    a = np.array(accs, dtype=float)
    v_all = np.cumsum(np.concatenate([[v], dt * a]))
    s_all = np.cumsum(np.concatenate([[s], dt * 0.5 * (v_all[:-1] + v_all[1:])]))
    return v_all[1:], a, s_all[1:]


def _cruise_positions(s: float, ds: float, end: float, room: int) -> np.ndarray:
    """Positions ``s + ds``, ``s + 2 ds``, ... up to the first at or past ``end``.

    Accumulated in order, as the step loop adds them; ``room`` is the number
    of steps left before the loop would have given up.
    """
    parts = []
    while room > 0 and ds > 0:
        n = int(min(room, (end - s) / ds + 3))
        part = np.cumsum(np.concatenate([[s], np.full(n, ds)]))[1:]
        k = int(np.searchsorted(part, end))
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

    Memo rule: each wheel keeps the last corner run on it, as
    ``(params, states, a_z)`` in :attr:`corner_runs`.  :func:`corner_dynamics`
    reuses that run when the wheel's parameters equal the stored ones, so a
    held plan integrates a wheel again only when its parameters change.
    The speed, lateral and position channels are read-only
    :class:`~ridekit.signals.TimeSeries`, checked once: every run over the
    plan returns these same objects.
    """

    scenario: Scenario
    geometry: VehicleGeometry
    dt: float
    mu_eff: float
    v_x: TimeSeries
    a_x: TimeSeries
    a_y: TimeSeries
    psi_rate: TimeSeries
    s: TimeSeries
    warnings: tuple[str, ...]
    wheels: tuple[tuple[np.ndarray, np.ndarray], ...]
    corner_runs: list = field(default_factory=lambda: [None] * 4, init=False, repr=False)

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
    left = wheel_track_profile(grid, offsets[0], scenario.smoothing)
    if grid.laterally_uniform and scenario.smoothing.lambda_y == 0:
        grid.check_offset(offsets[1])
        right = left
    else:
        right = wheel_track_profile(grid, offsets[1], scenario.smoothing)

    s_half = half_grid_input(s_arr)
    s_rear_half = s_half - geometry.wheelbase

    def wheel(profile_values: np.ndarray, s_points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _corner_input(np.interp(s_points, grid.stations, profile_values), dt)

    fl, rl = wheel(left, s_half), wheel(left, s_rear_half)
    if right is left:
        fr, rr = fl, rl
    else:
        fr, rr = wheel(right, s_half), wheel(right, s_rear_half)

    def series(values: np.ndarray) -> TimeSeries:
        values.setflags(write=False)
        return TimeSeries(0.0, dt, values)

    return DrivePlan(
        scenario=scenario,
        geometry=geometry,
        dt=dt,
        mu_eff=mu_eff,
        v_x=series(v_arr),
        a_x=series(ax_arr),
        a_y=series(a_y),
        psi_rate=series(psi_rate),
        s=series(s_arr),
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
    rigid-body kinematics.  A wheel whose parameters equal its last run on
    this plan reuses that run (:class:`DrivePlan`, memo rule).  No array of a
    kept run is returned; the plan's own channels are returned as they are.
    """
    rear = rear_params if rear_params is not None else params
    geometry = plan.geometry

    def corner(i: int, car: QuarterCarParams) -> tuple[np.ndarray, np.ndarray]:
        """States of wheel ``i``'s corner and its sprung-mass acceleration ``A[1] . x``.

        Integrated only when ``car`` differs from the wheel's last run.
        """
        run = plan.corner_runs[i]
        if run is None or run[0] != car:
            a, b = corner_system(car)
            u, x0 = plan.wheels[i]
            states = rk4_lti(a, b, u, plan.dt, x0)
            run = plan.corner_runs[i] = (car, states, _blocked_matmul(states, a[1]))
        return run[1], run[2]

    fl, az_fl = corner(0, params)
    rl, az_rl = corner(2, rear)
    if plan.same_sides:
        fr, az_fr, rr, az_rr = fl, az_fl, rl, az_rl
    else:
        fr, az_fr = corner(1, params)
        rr, az_rr = corner(3, rear)
    a_z = sum((az_fl, az_fr, az_rl, az_rr)) / 4.0

    zdot_front = 0.5 * (fl[:, 1] + fr[:, 1])
    zdot_rear = 0.5 * (rl[:, 1] + rr[:, 1])
    zdot_left = 0.5 * (fl[:, 1] + rl[:, 1])
    zdot_right = 0.5 * (fr[:, 1] + rr[:, 1])
    theta_rate = np.degrees((zdot_front - zdot_rear) / geometry.wheelbase)
    phi_rate = np.degrees((zdot_left - zdot_right) / geometry.track_width)

    def series(values: np.ndarray) -> TimeSeries:
        return TimeSeries(0.0, plan.dt, values)

    return VehicleResponse(
        v_x=plan.v_x,
        a_x=plan.a_x,
        a_y=plan.a_y,
        a_z=series(a_z),
        phi_rate=series(phi_rate),
        theta_rate=series(theta_rate),
        psi_rate=plan.psi_rate,
        s=plan.s,
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
