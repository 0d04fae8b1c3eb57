"""Constrained least-squares calibration of vehicle parameters.

The residual stacks the range-normalized RMS errors of every trace channel
shared by the simulation and a reference run; a damped Gauss-Newton loop with
finite-difference Jacobians and box projection drives it down.  Calibration
usually runs as a chain of stages that each free a subset of the parameters,
carrying the intermediate parameter vector from stage to stage.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Mapping

import numpy as np

from .errors import ConfigError, InvalidInput, OptimizationFailure, ToolkitError
from .signals import TimeSeries, VehicleResponse, nrmse
from .vehicle import DrivePlan, QuarterCarParams, Scenario, VehicleGeometry, drive_plan, simulate

__all__ = [
    "CALIBRATION_PARAMETERS",
    "BoxConstraints",
    "Residual",
    "LMResult",
    "OptimizationChain",
    "StageReport",
    "ChainResult",
    "apply_parameters",
    "evaluate_residual",
    "simulation_residual",
    "levenberg_marquardt",
    "run_chain",
]

#: Calibratable parameters in canonical (chain) order with their box bounds.
CALIBRATION_PARAMETERS: dict[str, tuple[float, float]] = {
    "k_s_front": (15000.0, 40000.0),
    "k_s_rear": (15000.0, 40000.0),
    "mu_tire": (0.7, 1.4),
    "k_tire": (250000.0, 400000.0),
    "d_tire": (4000.0, 7000.0),
}

#: Forward-difference step of the Jacobian: relative, with an absolute floor.
_JACOBIAN_REL_STEP = 1e-4
_JACOBIAN_ABS_STEP = 1e-7

#: Channels compared between simulation and reference.
COMPARISON_CHANNELS = ("vx", "ax", "ay", "az", "phi_rate", "theta_rate", "psi_rate")


@dataclass(frozen=True)
class BoxConstraints:
    """Per-parameter (lower, upper) bounds."""

    bounds: dict[str, tuple[float, float]]

    def __post_init__(self):
        for name, (lo, hi) in self.bounds.items():
            if not (lo < hi):
                raise ConfigError(f"{name}: lower bound must be < upper bound")

    @classmethod
    def vehicle_defaults(cls) -> "BoxConstraints":
        return cls(bounds=dict(CALIBRATION_PARAMETERS))

    def arrays(self, names: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
        missing = [n for n in names if n not in self.bounds]
        if missing:
            raise ConfigError(f"no bounds for parameters {missing}")
        lo = np.array([self.bounds[n][0] for n in names])
        hi = np.array([self.bounds[n][1] for n in names])
        return lo, hi

    def midpoint(self, names: tuple[str, ...]) -> np.ndarray:
        lo, hi = self.arrays(names)
        return 0.5 * (lo + hi)


def apply_parameters(
    front: QuarterCarParams,
    rear: QuarterCarParams,
    values: Mapping[str, float],
) -> tuple[QuarterCarParams, QuarterCarParams]:
    """Return corner parameter sets with the named calibration values applied.

    ``k_s_front``/``k_s_rear`` set the per-axle suspension springs; the tire
    quantities apply to both axles (left/right symmetry is assumed
    throughout).
    """
    unknown = [n for n in values if n not in CALIBRATION_PARAMETERS]
    if unknown:
        raise ConfigError(f"unknown calibration parameters {unknown}")
    front_kw: dict[str, float] = {}
    rear_kw: dict[str, float] = {}
    for name, value in values.items():
        if name == "k_s_front":
            front_kw["k_s"] = value
        elif name == "k_s_rear":
            rear_kw["k_s"] = value
        elif name == "mu_tire":
            front_kw["mu_tire"] = rear_kw["mu_tire"] = value
        elif name == "k_tire":
            front_kw["k_t"] = rear_kw["k_t"] = value
        elif name == "d_tire":
            front_kw["d_t"] = rear_kw["d_t"] = value
    return replace(front, **front_kw), replace(rear, **rear_kw)


@dataclass(frozen=True)
class Residual:
    """Per-channel normalized errors between a simulated and a reference trace."""

    channel_nrmse: dict[str, float]
    skipped: list[tuple[str, str]]

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.channel_nrmse[name] for name in sorted(self.channel_nrmse)])

    @property
    def objective(self) -> float:
        v = self.vector
        return float(v @ v)


def _align(sim: TimeSeries, ref: TimeSeries) -> tuple[TimeSeries, TimeSeries]:
    """Bring a simulated channel onto the reference time grid."""
    if abs(sim.dt - ref.dt) > 1e-12 * max(sim.dt, ref.dt):
        values = np.interp(ref.t, sim.t, sim.values)
        sim = TimeSeries(ref.t0, ref.dt, values)
    n = min(len(sim), len(ref))
    if n < 2:
        raise InvalidInput("traces share fewer than two samples")
    return sim.with_values(sim.values[:n]), ref.with_values(ref.values[:n])


def evaluate_residual(
    params: QuarterCarParams,
    scenario: Scenario,
    geometry: VehicleGeometry,
    reference: Mapping[str, TimeSeries] | VehicleResponse,
    dt: float = 1e-3,
    rear_params: QuarterCarParams | None = None,
    plan_for: Callable[[float], DrivePlan] | None = None,
) -> Residual:
    """Simulate the scenario and stack per-channel NRMSE against a reference.

    Channels absent from the reference are skipped and listed, as are channels
    whose reference has no range (a constant signal cannot normalize an
    error).  ``plan_for`` maps the run's friction ``mu_rs * mu_tire`` to a
    drive plan of this scenario, geometry and ``dt``; without it the plan is
    built afresh.
    """
    if isinstance(reference, VehicleResponse):
        reference = {name: reference.channel(name) for name in COMPARISON_CHANNELS}
    plan = plan_for(scenario.mu_rs * params.mu_tire) if plan_for is not None else None
    sim = simulate(scenario, params, geometry, dt=dt, rear_params=rear_params, plan=plan)
    channel_nrmse: dict[str, float] = {}
    skipped: list[tuple[str, str]] = []
    for name in COMPARISON_CHANNELS:
        ref_ch = reference.get(name)
        if ref_ch is None:
            skipped.append((name, "absent from reference"))
            continue
        if np.ptp(ref_ch.values) <= 0.0:
            skipped.append((name, "reference has zero range"))
            continue
        sim_ch, ref_ch = _align(sim.channel(name), ref_ch)
        channel_nrmse[name] = nrmse(sim_ch, ref_ch)
    if not channel_nrmse:
        raise InvalidInput("no overlapping channels between simulation and reference")
    return Residual(channel_nrmse=channel_nrmse, skipped=skipped)


def simulation_residual(
    scenario: Scenario,
    geometry: VehicleGeometry,
    reference: Mapping[str, TimeSeries] | VehicleResponse,
    base_front: QuarterCarParams,
    base_rear: QuarterCarParams,
    dt: float = 1e-3,
) -> Callable[[Mapping[str, float]], np.ndarray]:
    """Residual-vector function over named calibration parameters.

    Only ``mu_tire`` changes the drive plan, so the function holds one plan
    and rebuilds it when the friction of an evaluation differs from the
    plan's.
    """
    current: DrivePlan | None = None

    def plan_for(mu_eff: float) -> DrivePlan:
        nonlocal current
        if current is None or current.mu_eff != mu_eff:
            current = None  # drop the old plan first, so at most one is held
            current = drive_plan(scenario, geometry, mu_eff, dt)
        return current

    def residual(values: Mapping[str, float]) -> np.ndarray:
        front, rear = apply_parameters(base_front, base_rear, values)
        return evaluate_residual(
            front, scenario, geometry, reference, dt=dt, rear_params=rear, plan_for=plan_for
        ).vector

    return residual


@dataclass(frozen=True)
class LMResult:
    """Outcome of one Levenberg-Marquardt run."""

    params: np.ndarray
    objective: float
    objective_trace: list[float]
    n_iter: int
    converged: bool
    reason: str


def levenberg_marquardt(
    residual_fn: Callable[[np.ndarray], np.ndarray],
    p0: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    tol: float = 1e-12,
    max_iter: int = 100,
) -> LMResult:
    """Damped Gauss-Newton with box projection.

    The Jacobian comes from forward differences (relative step with an
    absolute floor, flipped to backward at the upper bound).  Accepted steps
    never increase the objective; the loop stops when the objective falls
    below ``tol``, the projected step norm drops below 1e-10, or ``max_iter``
    is exhausted.  Residual evaluations that raise are treated as rejected
    steps with increased damping; persistent failure aborts.
    """
    p = np.asarray(p0, dtype=float).copy()
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if np.any(p < lower - 1e-12) or np.any(p > upper + 1e-12):
        raise ConfigError("initial guess violates the box constraints")

    def eval_residual(vec: np.ndarray) -> np.ndarray:
        return np.asarray(residual_fn(vec), dtype=float)

    r = eval_residual(p)
    f = float(r @ r)
    trace = [f]
    lam = 1e-3
    n_iter = 0
    reason = "max_iter"
    converged = False

    while n_iter < max_iter:
        n_iter += 1
        if f < tol:
            reason, converged = "objective below tol", True
            break
        jac = _forward_jacobian(eval_residual, p, r, lower, upper)
        jtj = jac.T @ jac
        g = jac.T @ r
        d = np.maximum(np.diag(jtj), 1e-12)

        outcome = None  # "accepted" | "step_small" | "stalled"
        failures = 0
        while outcome is None:
            try:
                delta = np.linalg.solve(jtj + lam * np.diag(d), -g)
            except np.linalg.LinAlgError:
                delta = None
            if delta is None:
                lam *= 10.0
                failures += 1
                if failures > 20:
                    raise OptimizationFailure("normal equations remained singular")
                continue
            p_new = np.clip(p + delta, lower, upper)
            step_norm = float(np.linalg.norm(p_new - p))
            if step_norm < 1e-10 * (1.0 + float(np.linalg.norm(p))):
                outcome = "step_small"
                break
            try:
                r_new = eval_residual(p_new)
            except ToolkitError:
                lam *= 10.0
                failures += 1
                if failures > 20:
                    raise OptimizationFailure("model evaluation kept failing near the iterate") from None
                continue
            f_new = float(r_new @ r_new)
            if f_new <= f:
                p, r, f = p_new, r_new, f_new
                trace.append(f)
                lam = max(lam / 10.0, 1e-14)
                outcome = "accepted"
            else:
                lam *= 10.0
                if lam > 1e14:
                    outcome = "stalled"

        if outcome == "step_small":
            reason, converged = "step size below 1e-10", True
            break
        if outcome == "stalled":
            reason, converged = "damping exhausted (no descent direction)", True
            break

    if f < tol:
        reason, converged = "objective below tol", True
    return LMResult(
        params=p, objective=f, objective_trace=trace, n_iter=n_iter, converged=converged, reason=reason
    )


def _forward_jacobian(
    eval_residual: Callable[[np.ndarray], np.ndarray],
    p: np.ndarray,
    r: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
) -> np.ndarray:
    jac = np.empty((len(r), len(p)))
    for j in range(len(p)):
        h = max(_JACOBIAN_REL_STEP * abs(p[j]), _JACOBIAN_ABS_STEP)
        for attempt in range(4):
            step = -h if p[j] + h > upper[j] else h
            probe = p.copy()
            probe[j] += step
            try:
                r_probe = eval_residual(probe)
            except ToolkitError:
                h /= 10.0
                if attempt == 3:
                    raise OptimizationFailure(
                        f"Jacobian column {j} kept failing to evaluate"
                    ) from None
                continue
            jac[:, j] = (r_probe - r) / step
            break
    return jac


@dataclass(frozen=True)
class OptimizationChain:
    """Ordered stages; each stage frees a subset of the parameters."""

    stages: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if not self.stages or any(not stage for stage in self.stages):
            raise ConfigError("chain needs at least one non-empty stage")
        object.__setattr__(self, "stages", tuple(tuple(s) for s in self.stages))

    @classmethod
    def default(cls) -> "OptimizationChain":
        """Five single-parameter stages in canonical parameter order."""
        return cls(stages=tuple((name,) for name in CALIBRATION_PARAMETERS))

    @property
    def parameters(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for stage in self.stages:
            for name in stage:
                seen.setdefault(name)
        return tuple(seen)


@dataclass(frozen=True)
class StageReport:
    stage: tuple[str, ...]
    objective_before: float
    objective_after: float
    objective_trace: list[float]
    params_after: dict[str, float]
    reason: str


@dataclass(frozen=True)
class ChainResult:
    params: dict[str, float]
    stage_reports: list[StageReport]
    completed: bool
    failure: str | None = None

    @property
    def objective(self) -> float:
        return self.stage_reports[-1].objective_after if self.stage_reports else float("nan")


def run_chain(
    chain: OptimizationChain,
    p0: Mapping[str, float],
    residual_fn: Callable[[Mapping[str, float]], np.ndarray],
    constraints: BoxConstraints | None = None,
    tol: float = 1e-12,
    max_iter: int = 60,
) -> ChainResult:
    """Execute the staged optimization, passing parameters between stages.

    Every stage runs the damped Gauss-Newton loop over its own subset with all
    other parameters frozen at their current values.  A stage failure aborts
    the chain and returns the partial report.
    """
    constraints = constraints or BoxConstraints.vehicle_defaults()
    missing = [n for n in chain.parameters if n not in p0]
    if missing:
        raise ConfigError(f"initial guess misses parameters {missing}")
    current = {name: float(p0[name]) for name in p0}
    reports: list[StageReport] = []
    for stage in chain.stages:
        lo, hi = constraints.arrays(stage)

        def stage_residual(vec: np.ndarray, _stage=stage) -> np.ndarray:
            values = dict(current)
            values.update(zip(_stage, vec))
            return residual_fn(values)

        start = np.array([current[name] for name in stage])
        try:
            result = levenberg_marquardt(
                stage_residual, start, lo, hi, tol=tol, max_iter=max_iter
            )
        except (OptimizationFailure, ToolkitError) as exc:
            return ChainResult(params=current, stage_reports=reports, completed=False, failure=str(exc))
        current.update(zip(stage, result.params))
        reports.append(
            StageReport(
                stage=stage,
                objective_before=result.objective_trace[0],
                objective_after=result.objective,
                objective_trace=result.objective_trace,
                params_after=dict(current),
                reason=result.reason,
            )
        )
    return ChainResult(params=current, stage_reports=reports, completed=True)
