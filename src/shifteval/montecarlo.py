"""Replicated-simulation harness for estimator bias, variance, and coverage.

Each replicate simulates a fresh pooled dataset (seed = base seed +
replicate index), runs a menu of estimators, and compares them against the
true policy values computed by large-sample integration over the testing
covariate law. Summaries report the empirical variance on both the
sqrt(n) and sqrt(n0) scales next to the closed-form asymptotic targets, so
a bound check is the ratio of the two on one scale.
The true values and the variance targets are integrals over the one design
that the base :class:`SimulationConfig` describes, streamed in blocks of
draws, so their memory does not grow with ``truth_draws`` or
``variance_draws``.

Within a replicate, estimators that share a (kind, weights, propensity,
outcome, crossfit) recipe share one fit, plain or cross-fitted over the
replicate's bags: its nuisances are fitted and evaluated once, and each
estimator then evaluates only its own estimand's targets, giving the same
estimates, bit for bit, as one fit per estimator. The variance
targets of all the menu's variants come from one integration pass.

Replicates are independent; they run in min(n_jobs, replications, usable
CPUs) worker processes (a pool starts all its workers at once), serially
when that is 1, and are aggregated in replicate order, so results are
identical to the serial run. Per-estimator runtimes are collected for
console reporting but deliberately left out of the serialized summary so that
fixed-seed runs are byte-for-byte reproducible. A shared fit is timed with
the first estimator of its recipe in menu order.
"""

from __future__ import annotations

import csv
import dataclasses
import enum
import os
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .data_model import (
    DatasetKind,
    Policy,
    SimulationConfig,
    simulate_gaussian_shift,
    split_cross_fit_folds,
)
from .errors import InvalidConfig, ShiftEvalError, prefix_message
from .estimators import (
    DEFAULT_LEVEL,
    MIN_MC_DRAWS,
    Estimand,
    EifVariant,
    FitRecipe,
    _Moments,
    _fit,
    _frame,
    _mc_moments,
    _policy_target,
    _report,
    _theoretical_variances,
    check_backends,
    check_level,
)
from .nuisance import gaussian_oracle_nuisances

__all__ = [
    "EstimatorSpec",
    "McConfig",
    "McSummary",
    "true_policy_values",
    "run_replications",
]

_TRUTH_STREAM = 1000003  # fixed sub-stream tag for the truth integration


@dataclass(frozen=True, eq=False)
class EstimatorSpec:
    """One menu entry: estimand, dataset regime, and nuisance backends."""

    name: str
    estimand: Estimand
    kind: DatasetKind
    weights: str = "oracle"
    propensity: str = "oracle"
    outcome: str = "oracle"
    crossfit: bool = False

    def __post_init__(self):
        check_backends(self)

    @property
    def variant(self) -> EifVariant:
        return EifVariant(self.estimand, self.kind)


@dataclass(frozen=True, eq=False)
class McConfig:
    base: SimulationConfig
    replications: int
    policy: Policy
    estimators: tuple
    crossfit_k: int = 5
    level: float = DEFAULT_LEVEL
    n_jobs: int = 1
    truth_draws: int = 1_000_000
    variance_draws: int = 1_000_000

    def __post_init__(self):
        if self.replications < 2:
            raise InvalidConfig(f"replications must be >= 2, got {self.replications}")
        if len(self.estimators) == 0:
            raise InvalidConfig("estimator menu must be non-empty")
        if self.crossfit_k < 2:
            raise InvalidConfig(f"crossfit_k must be >= 2, got {self.crossfit_k}")
        if self.n_jobs < 1:
            raise InvalidConfig(f"n_jobs must be >= 1, got {self.n_jobs}")
        for name in ("truth_draws", "variance_draws"):
            if getattr(self, name) < MIN_MC_DRAWS:
                raise InvalidConfig(f"{name} must be >= {MIN_MC_DRAWS}")
        check_level(self.level)


@dataclass(eq=False)
class EstimatorSummary:
    spec: EstimatorSpec
    mean_estimate: float
    bias: float
    var_sqrt_n: float
    var_sqrt_n0: float
    coverage: float
    nu_eff: float
    zeta_eff: float
    target_sqrt_n: float
    target_sqrt_n0: float
    mean_runtime_s: float

    def to_json_dict(self) -> dict:
        """The spec's fields, each enum as its value, then the statistics."""
        d = dataclasses.asdict(self)
        d.pop("mean_runtime_s")
        spec = {k: v.value if isinstance(v, enum.Enum) else v for k, v in d.pop("spec").items()}
        return spec | d


@dataclass(eq=False)
class McSummary:
    truth: dict  # {"theta": value, "theta1": value}
    replications: int
    n: int
    estimators: list
    estimates: np.ndarray | None = None  # (R, n_estimators), for downstream checks

    def to_json_dict(self) -> dict:
        return {
            "truth": self.truth,
            "replications": self.replications,
            "n": self.n,
            "estimators": [e.to_json_dict() for e in self.estimators],
        }

    def write_csv(self, path) -> None:
        """One row per estimator with the fields of its JSON summary;
        floats carry 17 significant digits."""
        rows = [e.to_json_dict() for e in self.estimators]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(rows[0])
            for row in rows:
                writer.writerow(
                    f"{v:.17g}" if isinstance(v, float) else str(v) for v in row.values()
                )

    def by_name(self, name: str) -> EstimatorSummary:
        for e in self.estimators:
            if e.spec.name == name:
                return e
        raise KeyError(name)


def true_policy_values(
    config: SimulationConfig, policy: Policy, draws: int = 1_000_000
) -> dict:
    """Integrate the true policy value and contrast over the testing law N_p(0, I).

    Each is the mean of the estimators' calibration target under the oracle
    outcome model, over ``draws`` draws (at least ``MIN_MC_DRAWS``) streamed
    in blocks of ``_BLOCK_DRAWS``, so memory does not grow with ``draws``;
    only the means are accumulated.
    Uses a dedicated deterministic stream derived from the config seed.
    """
    if draws < MIN_MC_DRAWS:
        raise InvalidConfig(f"draws must be at least {MIN_MC_DRAWS}")
    rng = np.random.default_rng([config.seed, _TRUTH_STREAM])
    outcome = gaussian_oracle_nuisances(config).outcome

    def targets(x):
        d = policy(x)
        return [_policy_target(outcome, x, d, e) for e in Estimand]

    moments = _mc_moments(rng, draws, config.p, targets, order=1)
    return {e.value: m.mean for e, m in zip(Estimand, moments)}


def _run_replicate(r: int, config: McConfig, truth: dict):
    """One replicate: simulate, run every estimator, record coverage flags.

    One evaluation frame holds what no estimator changes: the policy
    decisions and both strata's rows. Each (kind, weights, propensity,
    outcome, crossfit) recipe is fitted, evaluated and checked once, plain
    or over the replicate's bags; each estimator of that recipe then
    evaluates only its estimand's targets, and the first of them in menu
    order is timed with the shared fit. An error keeps its class and
    attributes, its message led by the replicate index.
    """
    rep_seed = config.base.seed + r
    sim_config = dataclasses.replace(config.base, seed=rep_seed)
    try:
        data, oracle = simulate_gaussian_shift(sim_config)
        frame = _frame(data, config.policy)
        fitted = {}  # (kind, weights, propensity, outcome, crossfit) -> per-row values
        estimates = np.empty(len(config.estimators))
        covered = np.empty(len(config.estimators))
        runtimes = np.empty(len(config.estimators))
        for j, spec in enumerate(config.estimators):
            tic = time.perf_counter()
            key = (spec.kind, spec.weights, spec.propensity, spec.outcome, spec.crossfit)
            if key not in fitted:
                recipe = FitRecipe(
                    weights=spec.weights, propensity=spec.propensity, outcome=spec.outcome,
                    oracle=oracle,
                )
                folds = (
                    split_cross_fit_folds(data, config.crossfit_k, seed=rep_seed)
                    if spec.crossfit else None
                )
                fitted[key] = _fit(frame, spec.kind, recipe, folds)
            report = _report(fitted[key], spec.estimand, config.level)
            runtimes[j] = time.perf_counter() - tic
            estimates[j] = report.estimate
            target = truth[spec.estimand.value]
            covered[j] = float(report.ci[0] <= target <= report.ci[1])
    except ShiftEvalError as e:
        prefix_message(e, f"replicate {r}")
        raise
    return estimates, covered, float(data.n0), runtimes


def run_replications(config: McConfig) -> McSummary:
    """Run the configured replicated study; deterministic given the base seed."""
    truth = true_policy_values(config.base, config.policy, draws=config.truth_draws)

    worker = partial(_run_replicate, config=config, truth=truth)
    reps = range(config.replications)
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    workers = min(config.n_jobs, config.replications, cpus)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(worker, reps, chunksize=max(1, len(reps) // (4 * workers))))
    else:
        results = [worker(r) for r in reps]

    n_est = len(config.estimators)
    est = np.array([res[0] for res in results])  # (R, n_est)
    cov = np.array([res[1] for res in results])
    n0s = np.array([res[2] for res in results])
    rts = np.array([res[3] for res in results])

    variances = _theoretical_variances(
        config.base,
        config.policy,
        tuple(dict.fromkeys(spec.variant for spec in config.estimators)),
        mc_draws=config.variance_draws,
    )
    n = config.base.n
    summaries = []
    for j, spec in enumerate(config.estimators):
        tv = variances[spec.variant]
        target = truth[spec.estimand.value]
        err = est[:, j] - target
        summaries.append(
            EstimatorSummary(
                spec=spec,
                mean_estimate=float(np.mean(est[:, j])),
                bias=float(np.mean(err)),
                var_sqrt_n=_Moments.of(np.sqrt(n) * err, order=2).var,
                var_sqrt_n0=_Moments.of(np.sqrt(n0s) * err, order=2).var,
                coverage=float(np.mean(cov[:, j])),
                nu_eff=tv.nu_eff,
                zeta_eff=tv.zeta_eff,
                target_sqrt_n=tv.sqrt_n_target(config.base.rho_s),
                target_sqrt_n0=tv.zeta_eff,
                mean_runtime_s=float(np.mean(rts[:, j])),
            )
        )
    return McSummary(
        truth=truth,
        replications=config.replications,
        n=n,
        estimators=summaries,
        estimates=est,
    )
