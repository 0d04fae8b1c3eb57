"""Stratified scenario sampling and the Monte Carlo batch runner.

Each input variable's probability range is split into ``n`` equal-probability
strata; one uniform draw per stratum maps through the inverse CDF, and the
stratum order is shuffled independently per variable from seed-derived
substreams.  A plan row overrides the stochastic scenario inputs of one
simulation run.
"""

from __future__ import annotations

import io
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidInput, ToolkitError
from .signals import VehicleResponse
from .vehicle import QuarterCarParams, Scenario, VehicleGeometry, simulate

__all__ = [
    "InputDistribution",
    "SamplePlan",
    "BatchResult",
    "default_input_distributions",
    "lhs",
    "run_batch",
]

#: Scenario fields a plan may override.
SCENARIO_VARIABLES = ("v_dev", "l_p", "mu_rs")


@dataclass(frozen=True)
class InputDistribution:
    """Sampling distribution of one scenario input.

    ``kind`` is ``"gaussian"`` with params (mu, sigma) or ``"uniform"`` with
    params (a, b).
    """

    name: str
    kind: str
    params: tuple[float, float]

    def __post_init__(self):
        if self.kind not in ("gaussian", "uniform"):
            raise ConfigError(f"unknown distribution kind {self.kind!r}")
        p0, p1 = self.params
        if not (np.isfinite(p0) and np.isfinite(p1)):
            raise ConfigError(f"{self.name}: distribution parameters must be finite, got {self.params}")
        if self.kind == "gaussian" and not (p1 > 0):
            raise ConfigError(f"{self.name}: gaussian sigma must be > 0")
        if self.kind == "uniform" and not (p0 < p1):
            raise ConfigError(f"{self.name}: uniform bounds must satisfy a < b")

    def inv_cdf(self, u: np.ndarray) -> np.ndarray:
        if self.kind == "gaussian":
            from scipy.special import ndtri

            mu, sigma = self.params
            return mu + sigma * ndtri(u)
        a, b = self.params
        return a + (b - a) * np.asarray(u)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "gaussian":
            from scipy.special import ndtr

            mu, sigma = self.params
            return ndtr((np.asarray(x) - mu) / sigma)
        a, b = self.params
        return np.clip((np.asarray(x) - a) / (b - a), 0.0, 1.0)


def default_input_distributions(v_dev_mean: float = 0.0) -> list[InputDistribution]:
    """Stochastic inputs of the standard scenario.

    Speed deviation and lateral offset are zero-mean Gaussians with 0.2
    standard deviation (m/s and m); road friction is uniform on [0.6, 1.0].
    High-curvature sites shift the speed-deviation mean negative (e.g. -5 m/s)
    so sampled speeds stay drivable.
    """
    return [
        InputDistribution("v_dev", "gaussian", (v_dev_mean, 0.2)),
        InputDistribution("l_p", "gaussian", (0.0, 0.2)),
        InputDistribution("mu_rs", "uniform", (0.6, 1.0)),
    ]


@dataclass(frozen=True)
class SamplePlan:
    """A stratified (n x m) sample matrix with its generating seed."""

    names: tuple[str, ...]
    matrix: np.ndarray
    seed: int

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[1] != len(self.names):
            raise InvalidInput("matrix must be (n, m) with one column per variable")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "names", tuple(self.names))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def row_inputs(self, i: int) -> dict[str, float]:
        return {name: float(self.matrix[i, j]) for j, name in enumerate(self.names)}

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        buf.write(",".join(self.names) + "\n")
        for row in self.matrix:
            buf.write(",".join(repr(float(x)) for x in row) + "\n")
        return buf.getvalue()


def lhs(distributions: list[InputDistribution], n: int, seed: int) -> SamplePlan:
    """Stratified sample plan: one draw per equal-probability stratum per variable.

    Every column gets an independent substream of the seed for both its
    stratum permutation and its within-stratum uniforms, so adding or removing
    variables does not perturb the others.
    """
    if n < 1:
        raise InvalidInput("n must be >= 1")
    if not distributions:
        raise InvalidInput("need at least one input distribution")
    streams = np.random.SeedSequence(seed).spawn(len(distributions))
    matrix = np.empty((n, len(distributions)))
    for j, (dist, stream) in enumerate(zip(distributions, streams)):
        rng = np.random.default_rng(stream)
        strata = rng.permutation(n)
        u = (strata + rng.uniform(0.0, 1.0, n)) / n
        matrix[:, j] = dist.inv_cdf(u)
    return SamplePlan(names=tuple(d.name for d in distributions), matrix=matrix, seed=seed)


@dataclass(frozen=True)
class BatchResult:
    """Order-stable outcome of one Monte Carlo batch.

    ``reduced`` holds the successful rows' reductions in row order; ``failures``
    lists (row index, reason) pairs, runs flagged ``"off-road risk"`` included.
    """

    reduced: list
    failures: list[tuple[int, str]]


def run_batch(
    plan: SamplePlan,
    base_scenario: Scenario,
    params: QuarterCarParams,
    geometry: VehicleGeometry,
    reduce: Callable[[VehicleResponse], object],
    dt: float = 1e-3,
    rear_params: QuarterCarParams | None = None,
) -> BatchResult:
    """Simulate one run per plan row, overriding the stochastic scenario inputs.

    Each run goes to ``reduce`` as it finishes and only the reduction is kept.
    A :class:`ToolkitError` from the simulation or from ``reduce`` fails that
    row alone and the batch continues.  A response stays valid after
    ``reduce`` returns; the batch itself lets go of it only once the next
    run's arrays exist.
    """
    unknown = [name for name in plan.names if name not in SCENARIO_VARIABLES]
    if unknown:
        raise ConfigError(f"plan columns {unknown} are not scenario variables {SCENARIO_VARIABLES}")

    reduced = []
    failures: list[tuple[int, str]] = []
    for i in range(plan.n):
        inputs = plan.row_inputs(i)
        try:
            scenario = base_scenario.with_inputs(
                v_dev=inputs.get("v_dev", base_scenario.v_dev),
                l_p=inputs.get("l_p", base_scenario.l_p),
                mu_rs=inputs.get("mu_rs", base_scenario.mu_rs),
            )
            # Rebinding frees the last run's response only now that this
            # run's arrays exist.  While alive, it keeps the heap's top in
            # use, so the allocator keeps the memory of the last run's
            # temporaries and this run reuses it.  Freed before the call, it
            # left the top free to be given back, and every run faulted its
            # arrays in again: about 100k minor faults an analyze round
            # (n = 50) against 0-14k.
            response = simulate(scenario, params, geometry, dt=dt, rear_params=rear_params)
            if response.warnings:
                failures.append((i, "; ".join(response.warnings)))
            else:
                reduced.append(reduce(response))
        except ToolkitError as exc:
            failures.append((i, str(exc)))
    return BatchResult(reduced=reduced, failures=failures)
