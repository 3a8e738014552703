"""Efficient and plug-in estimators of testing-population policy values.

Two estimands are supported for a fixed deterministic rule d:

* the policy value  theta  = E_test[Y(d)], and
* the contrast      theta1 = E_test[Y(d) - Y(-d)] = E_test[C(X) d(X)].

Each has a Type-1 and a Type-2 efficient estimator depending on whether
calibration rows carry observed treatments and outcomes. The population
sampling rate is always replaced by the realized n1/n (and 1 - rho by n0/n).

Per-row efficient-influence-function contributions drive the reported
standard errors; with the self-consistent point estimate their sample mean
is zero by construction. The plain and cross-fitted efficient estimators
share one aggregation core: cross-fitting only changes which fitted
nuisances are evaluated on which rows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.special import ndtri

from .data_model import (
    DatasetKind,
    FoldAssignment,
    Observation,
    Policy,
    PooledDataset,
    split_cross_fit_folds,
)
from .errors import (
    DegenerateDenominator,
    InvalidConfig,
    InvalidLevel,
    MissingField,
    MissingStratum,
    NonFiniteValue,
    ShiftEvalError,
)
from .nuisance import (
    InstrumentSet,
    KernelSpec,
    NuisanceSet,
    SimulationTruth,
    fit_outcome_regression,
    fit_propensity_logistic,
    fit_weights_aipsw,
    fit_weights_entropy_balancing,
    fit_weights_kulsif,
)

__all__ = [
    "Estimand",
    "EifVariant",
    "EstimateReport",
    "TheoreticalVariance",
    "FitRecipe",
    "assemble_nuisances",
    "eif_contribution",
    "estimate_efficient",
    "estimate_plugin_identification",
    "cross_fit_estimate",
    "fit_and_estimate",
    "theoretical_variance",
    "wald_ci",
]

DEFAULT_LEVEL = 0.95
MIN_MC_DRAWS = 1000  # fewest Monte Carlo draws for a truth or variance integral

# backend names accepted for each nuisance component
BACKENDS = {
    "weights": ("oracle", "aipsw", "kulsif", "eb"),
    "propensity": ("oracle", "logistic"),
    "outcome": ("oracle", "linear", "kernel_ridge"),
}


def check_backends(spec) -> None:
    """Reject a ``spec.weights``/``propensity``/``outcome`` name outside BACKENDS."""
    for component, names in BACKENDS.items():
        name = getattr(spec, component)
        if name not in names:
            raise InvalidConfig(
                f"unknown {component} backend {name!r}, expected one of {', '.join(names)}"
            )


def check_level(level: float) -> None:
    if not 0.0 < level < 1.0:
        raise InvalidLevel(f"confidence level must lie in (0, 1), got {level}")


class Estimand(enum.Enum):
    VALUE = "theta"  # E_test[Y(d)]
    CONTRAST = "theta1"  # E_test[Y(d) - Y(-d)]


@dataclass(frozen=True)
class EifVariant:
    """One of the four estimator variants: estimand x dataset kind."""

    estimand: Estimand
    kind: DatasetKind


@dataclass(frozen=True, eq=False)
class EstimateReport:
    estimate: float
    se: float
    ci: tuple
    level: float
    variant: EifVariant
    method: str
    nuisance: dict
    n: int
    n1: int
    n0: int

    def __post_init__(self):
        if self.se < 0:
            raise InvalidConfig("standard error must be >= 0")

    def to_json_dict(self) -> dict:
        return {
            "estimand": self.variant.estimand.value,
            "kind": self.variant.kind.value,
            "estimate": self.estimate,
            "se": self.se,
            "ci": [self.ci[0], self.ci[1]],
            "level": self.level,
            "method": self.method,
            "nuisance": self.nuisance,
            "n": self.n,
            "n1": self.n1,
            "n0": self.n0,
        }


@dataclass(frozen=True, eq=False)
class TheoreticalVariance:
    """Closed-form asymptotic variance components, integrated by Monte Carlo.

    ``nu_eff`` is the training-stratum component, ``zeta_eff`` the
    calibration-stratum component; the *_se fields are integration errors.
    """

    nu_eff: float
    zeta_eff: float
    variant: EifVariant
    nu_se: float = 0.0
    zeta_se: float = 0.0

    def sqrt_n_target(self, rho: float) -> float:
        """Variance of sqrt(n)(estimate - truth) at sampling rate rho = n1/n."""
        return self.nu_eff / rho + self.zeta_eff / (1.0 - rho)


def wald_ci(estimate: float, se: float, level: float = DEFAULT_LEVEL) -> tuple:
    """Normal-quantile confidence interval estimate +- z_{(1+level)/2} * se."""
    check_level(level)
    if se < 0:
        raise InvalidLevel("standard error must be >= 0")
    # scipy.stats.norm.ppf is ndtri, bit for bit; scipy.stats alone costs ~1 s to import
    z = ndtri(0.5 * (1.0 + level))
    return (float(estimate - z * se), float(estimate + z * se))


# ---------------------------------------------------------------------------
# Per-row nuisance values and the shared aggregation core
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class _Stratum:
    """One stratum's rows, in data order: inputs gathered once, nuisance
    values written in place by :func:`_fill_parts`. The (a, y, pi, resid)
    arrays are None for calibration rows under Type-2 evaluation, which
    never reads calibration (a, y)."""

    s: int
    x: NDArray  # (m, p)
    d: NDArray  # (m,) policy decisions
    a: NDArray | None = None  # (m,)
    y: NDArray | None = None  # (m,)
    pi: NDArray | None = None  # (m,) pi_A(A_i | X_i, s)
    resid: NDArray | None = None  # (m,) Y_i - Q(X_i, A_i)


@dataclass(eq=False)
class _PerRowParts:
    """Row-level quantities entering the estimator sums."""

    train: NDArray  # (n,) s == 1
    tr: _Stratum
    cal: _Stratum
    w_tr: NDArray  # (n1,) weights at the training rows
    target_cal: NDArray  # (n0,) Q(X_i, d) or C(X_i) d(X_i) at the calibration rows


def _coupler(estimand: Estimand, d: NDArray, a: NDArray) -> NDArray:
    if estimand is Estimand.VALUE:
        return (d == a).astype(float)
    return d * a


def _policy_target(outcome, x: NDArray, d: NDArray, estimand: Estimand) -> NDArray:
    """Q(x, d) for the policy value, C(x) d for the contrast."""
    if estimand is Estimand.VALUE:
        return outcome.q(x, d)
    return outcome.cte(x) * d


def _check_positive(name: str, arr: NDArray) -> None:
    if np.any(arr <= 0.0):
        raise DegenerateDenominator(f"{name} contains non-positive values")


def _stratum(data: PooledDataset, rows: NDArray, d: NDArray, s: int, with_ay: bool) -> _Stratum:
    st = _Stratum(s=s, x=data.x[rows], d=d[rows])
    if with_ay:
        st.a, st.y = data.a[rows], data.y[rows]
        st.pi, st.resid = np.empty_like(st.y), np.empty_like(st.y)
    return st


def _empty_parts(data: PooledDataset, policy: Policy, kind: DatasetKind) -> _PerRowParts:
    """Gather the per-stratum inputs and allocate the nuisance-value arrays."""
    train = data.s == 1
    type1 = kind is DatasetKind.TYPE1
    if type1 and not data.observed[~train].all():
        raise MissingField("Type-1 evaluation requires observed (a, y) on calibration rows")
    d = np.asarray(policy(data.x), dtype=float)
    tr = _stratum(data, train, d, 1, with_ay=True)
    cal = _stratum(data, ~train, d, 0, with_ay=type1)
    return _PerRowParts(
        train=train, tr=tr, cal=cal, w_tr=np.empty(data.n1), target_cal=np.empty(data.n0)
    )


def _fill_parts(
    parts: _PerRowParts, tr, cal, nuisances: NuisanceSet, estimand: Estimand
) -> None:
    """Evaluate ``nuisances`` at training positions ``tr`` and calibration
    positions ``cal`` (index arrays or slices into the per-stratum arrays)."""
    parts.w_tr[tr] = nuisances.weight(parts.tr.x[tr])
    parts.target_cal[cal] = _policy_target(
        nuisances.outcome, parts.cal.x[cal], parts.cal.d[cal], estimand
    )
    for st, idx in ((parts.tr, tr), (parts.cal, cal)):
        if st.a is not None:
            x, a = st.x[idx], st.a[idx]
            st.pi[idx] = nuisances.propensity.prob(a, x, st.s)
            st.resid[idx] = st.y[idx] - nuisances.outcome.q(x, a)


def _combine(
    data: PooledDataset, parts: _PerRowParts, estimand: Estimand, kind: DatasetKind
):
    """Point estimate and per-row influence contributions at the estimate."""
    tr, cal = parts.tr, parts.cal
    for name, arr in (
        ("training weights", parts.w_tr),
        ("training propensities", tr.pi),
        ("training outcome residuals", tr.resid),
        ("calibration targets", parts.target_cal),
        ("calibration propensities", cal.pi),
        ("calibration outcome residuals", cal.resid),
    ):
        if arr is not None and not np.isfinite(arr).all():
            raise NonFiniteValue(f"{name} contain NaN or infinite values")
    _check_positive("training propensities", tr.pi)
    if cal.pi is not None:
        _check_positive("calibration propensities", cal.pi)

    n, n1, n0 = data.n, data.n1, data.n0
    train = parts.train
    term_tr = parts.w_tr * _coupler(estimand, tr.d, tr.a) / tr.pi * tr.resid
    eif = np.empty(n)
    if kind is DatasetKind.TYPE2:
        phi = float(np.mean(term_tr))
        estimate = phi + float(np.mean(parts.target_cal))
        eif[train] = (n / n1) * term_tr
        eif[~train] = (n / n0) * (parts.target_cal - estimate)
    else:
        term_cal = _coupler(estimand, cal.d, cal.a) / cal.pi * cal.resid
        estimate = (n1 / n) * float(np.mean(term_tr)) + float(
            np.mean((n0 / n) * term_cal + parts.target_cal)
        )
        eif[train] = term_tr
        eif[~train] = term_cal + (n / n0) * (parts.target_cal - estimate)
    return estimate, eif


def _finish_report(
    data, estimate, terms, variant, method, nuisance, level
) -> EstimateReport:
    """Report with se = sample standard deviation of the per-row ``terms``
    divided by the square root of their count."""
    m = terms.shape[0]
    se = float(np.std(terms, ddof=1) / np.sqrt(m)) if m > 1 else 0.0
    return EstimateReport(
        estimate=estimate,
        se=se,
        ci=wald_ci(estimate, se, level),
        level=level,
        variant=variant,
        method=method,
        nuisance=nuisance,
        n=data.n,
        n1=data.n1,
        n0=data.n0,
    )


# ---------------------------------------------------------------------------
# Public estimators
# ---------------------------------------------------------------------------


def estimate_efficient(
    data: PooledDataset,
    nuisances: NuisanceSet,
    policy: Policy,
    estimand: Estimand,
    kind: DatasetKind | None = None,
    level: float = DEFAULT_LEVEL,
) -> EstimateReport:
    """Semiparametric efficient estimate of the chosen estimand.

    The dataset kind selects the estimator form; a Type-1 dataset may be
    evaluated with ``kind=DatasetKind.TYPE2`` to ignore calibration (a, y).
    The standard error is the sample standard deviation of the per-row
    influence contributions at the self-consistent estimate, divided by
    sqrt(n).
    """
    kind = data.kind if kind is None else kind
    parts = _empty_parts(data, policy, kind)
    _fill_parts(parts, slice(None), slice(None), nuisances, estimand)
    estimate, eif = _combine(data, parts, estimand, kind)
    return _finish_report(
        data,
        estimate,
        eif,
        EifVariant(estimand, kind),
        "efficient",
        nuisances.provenance(),
        level,
    )


def eif_contribution(
    obs: Observation,
    nuisances: NuisanceSet,
    policy: Policy,
    variant: EifVariant,
    theta_ref: float,
) -> float:
    """Influence-function value at one observation.

    A scalar reference written independently of the vectorised aggregation
    core, against which the core's per-row values are checked.

    The sampling rate rho is taken from ``nuisances.rho_hat`` (the n1/n
    plug-in when the set was built for a concrete dataset).
    """
    rho = nuisances.rho_hat
    x = obs.x[None, :]
    d = float(policy(obs.x))
    if obs.s == 1:
        if obs.a is None:
            raise MissingField("training row lacks (a, y)")
        w = float(nuisances.weight(obs.x))
        pi = float(nuisances.propensity.prob(obs.a, x, 1)[0])
        if pi <= 0.0:
            raise DegenerateDenominator("training propensity is non-positive")
        resid = obs.y - float(nuisances.outcome.q(x, obs.a)[0])
        coup = float(d == obs.a) if variant.estimand is Estimand.VALUE else d * obs.a
        scale = 1.0 if variant.kind is DatasetKind.TYPE1 else 1.0 / rho
        return scale * w * coup / pi * resid

    if variant.estimand is Estimand.VALUE:
        target = float(nuisances.outcome.q(x, d)[0])
    else:
        target = float(nuisances.outcome.cte(x)[0]) * d
    value = (target - theta_ref) / (1.0 - rho)
    if variant.kind is DatasetKind.TYPE1:
        if obs.a is None:
            raise MissingField("Type-1 influence function needs calibration (a, y)")
        pi = float(nuisances.propensity.prob(obs.a, x, 0)[0])
        if pi <= 0.0:
            raise DegenerateDenominator("calibration propensity is non-positive")
        resid = obs.y - float(nuisances.outcome.q(x, obs.a)[0])
        coup = float(d == obs.a) if variant.estimand is Estimand.VALUE else d * obs.a
        value += coup / pi * resid
    return value


_PLUGIN_FORMS = ("calibration_mean", "weighted_pooled", "weighted_training")


def estimate_plugin_identification(
    data: PooledDataset,
    nuisances: NuisanceSet,
    policy: Policy,
    estimand: Estimand,
    form: str,
    level: float = DEFAULT_LEVEL,
) -> EstimateReport:
    """Plug-in estimate from one of the three identification expressions.

    ``calibration_mean`` averages Q(X, d) (or C(X) d(X)) over calibration
    rows; ``weighted_pooled`` mixes weighted training rows with calibration
    rows; ``weighted_training`` uses weighted training rows only, normalized
    by the realized sampling rate. Standard errors are delta-method sample
    variances of the per-row terms.
    """
    if form not in _PLUGIN_FORMS:
        raise InvalidConfig(f"unknown identification form {form!r}")
    train = data.s == 1
    if form == "calibration_mean":
        if not (~train).any():
            raise MissingStratum("calibration_mean requires calibration rows")
        x0 = data.x[~train]
        terms = _policy_target(
            nuisances.outcome, x0, np.asarray(policy(x0), dtype=float), estimand
        )
    else:
        d = np.asarray(policy(data.x), dtype=float)
        target = _policy_target(nuisances.outcome, data.x, d, estimand)
        w = np.asarray(nuisances.weight(data.x[train]), dtype=float)
        if form == "weighted_pooled":
            terms = target.copy()
            terms[train] = w * target[train]
        else:  # weighted_training
            terms = np.zeros(data.n)
            terms[train] = (data.n / data.n1) * w * target[train]

    nuis = dict(nuisances.provenance())
    nuis["form"] = form
    return _finish_report(
        data,
        float(np.mean(terms)),
        terms,
        EifVariant(estimand, data.kind),
        f"plugin:{form}",
        nuis,
        level,
    )


# ---------------------------------------------------------------------------
# Cross-fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FitRecipe:
    """Which backend estimates each nuisance function, one of BACKENDS per
    component. ``oracle`` must be supplied when any component is oracle.
    """

    weights: str = "aipsw"
    propensity: str = "logistic"
    outcome: str = "linear"
    oracle: NuisanceSet | None = None
    kernel: KernelSpec | None = None
    instruments: InstrumentSet | None = None

    def __post_init__(self):
        check_backends(self)
        if "oracle" in (self.weights, self.propensity, self.outcome) and self.oracle is None:
            raise InvalidConfig("recipe uses oracle components but no oracle set supplied")

    def describe(self) -> dict:
        return {
            "weights": self.weights,
            "propensity": self.propensity,
            "outcome": self.outcome,
        }


def assemble_nuisances(data: PooledDataset, recipe: FitRecipe) -> NuisanceSet:
    """Fit (or take from the oracle) all three nuisance functions on ``data``.

    A missing ``recipe.kernel`` resolves to ``KernelSpec()`` for both kernel
    backends.
    """
    kernel = recipe.kernel or KernelSpec()
    if recipe.weights == "oracle":
        weight = recipe.oracle.weight
    elif recipe.weights == "aipsw":
        weight = fit_weights_aipsw(data)
    elif recipe.weights == "kulsif":
        weight = fit_weights_kulsif(data, kernel)
    else:
        weight = fit_weights_entropy_balancing(
            data, recipe.instruments or InstrumentSet.default(data.p)
        )

    if recipe.propensity == "oracle":
        propensity = recipe.oracle.propensity
    else:
        propensity = fit_propensity_logistic(data)

    if recipe.outcome == "oracle":
        outcome = recipe.oracle.outcome
    else:
        outcome = fit_outcome_regression(data, method=recipe.outcome, spec=kernel)

    return NuisanceSet(
        weight=weight, propensity=propensity, outcome=outcome, rho_hat=data.n1 / data.n
    )


def cross_fit_estimate(
    data: PooledDataset,
    folds: FoldAssignment,
    recipe: FitRecipe,
    policy: Policy,
    estimand: Estimand,
    kind: DatasetKind | None = None,
    level: float = DEFAULT_LEVEL,
) -> EstimateReport:
    """Cross-fitted efficient estimate with out-of-bag nuisance functions.

    For each bag, nuisances are fitted on all rows outside the bag and
    evaluated on the bag's rows; the pooled per-row values then enter the
    same aggregation as :func:`estimate_efficient`. With a fully oracle
    recipe the result equals the non-cross-fitted estimate exactly.
    """
    kind = data.kind if kind is None else kind
    if folds.bag_of.shape[0] != data.n:
        raise InvalidConfig("fold assignment does not match dataset size")
    parts = _empty_parts(data, policy, kind)
    per_bag = []
    for k in range(1, folds.k + 1):
        in_bag = folds.bag_of == k
        try:
            nus = assemble_nuisances(data.subset(~in_bag), recipe)
        except ShiftEvalError as e:
            raise type(e)(f"bag {k}: {e}") from e
        _fill_parts(
            parts,
            np.flatnonzero(in_bag[parts.train]),
            np.flatnonzero(in_bag[~parts.train]),
            nus,
            estimand,
        )
        diag = {"bag": k, "nuisance": nus.provenance()}
        for key in ("converged", "iterations"):
            if key in nus.weight.info:
                diag[f"weight_{key}"] = nus.weight.info[key]
        per_bag.append(diag)

    estimate, eif = _combine(data, parts, estimand, kind)
    nuis = recipe.describe()
    nuis["crossfit_k"] = folds.k
    nuis["per_bag"] = per_bag
    return _finish_report(
        data, estimate, eif, EifVariant(estimand, kind), "crossfit", nuis, level
    )


def fit_and_estimate(
    data: PooledDataset,
    recipe: FitRecipe,
    policy: Policy,
    estimand: Estimand,
    kind: DatasetKind,
    crossfit_k: int = 0,
    seed: int = 0,
    level: float = DEFAULT_LEVEL,
) -> EstimateReport:
    """Fit ``recipe`` on ``data`` and return the efficient estimate.

    Type-2 evaluation of Type-1 data masks the calibration (a, y) first, so
    no nuisance is fitted on them. With ``crossfit_k >= 2`` the estimate is
    cross-fitted over stratified bags drawn with ``seed``; otherwise the
    nuisances are fitted once on all rows.
    """
    if kind is DatasetKind.TYPE2 and data.kind is DatasetKind.TYPE1:
        data = data.as_type2()
    if crossfit_k >= 2:
        folds = split_cross_fit_folds(data, crossfit_k, seed=seed)
        return cross_fit_estimate(data, folds, recipe, policy, estimand, kind=kind, level=level)
    return estimate_efficient(
        data, assemble_nuisances(data, recipe), policy, estimand, kind=kind, level=level
    )


# ---------------------------------------------------------------------------
# Closed-form asymptotic variances by Monte Carlo integration
# ---------------------------------------------------------------------------


def theoretical_variance(
    truth: SimulationTruth,
    policy: Policy,
    variant: EifVariant,
    rho_s: float | None = None,
    mc_draws: int = 1_000_000,
    seed: int = 0,
) -> TheoreticalVariance:
    """Evaluate the asymptotic variance components of one estimator variant.

    Expectations over the stratum-specific covariate laws are integrated by
    Monte Carlo with ``mc_draws`` draws per stratum; the *_se fields report
    the integration error.
    """
    if mc_draws < MIN_MC_DRAWS:
        raise InvalidConfig(f"mc_draws must be at least {MIN_MC_DRAWS}")
    rho = truth.rho_s if rho_s is None else rho_s
    rng = np.random.default_rng(seed)
    nus = truth.nuisances

    x1 = truth.sample_training(rng, mc_draws)
    d1 = np.asarray(policy(x1), dtype=float)
    w = np.asarray(nus.weight(x1), dtype=float)
    if variant.estimand is Estimand.VALUE:
        pi_d = np.asarray(nus.propensity.prob(d1, x1, 1), dtype=float)
        integrand = w**2 * truth.sigma2(x1, 1, d1) / pi_d
    else:
        pi_p = np.asarray(nus.propensity.prob(1, x1, 1), dtype=float)
        pi_m = np.asarray(nus.propensity.prob(-1, x1, 1), dtype=float)
        integrand = w**2 * (
            truth.sigma2(x1, 1, 1) / pi_p + truth.sigma2(x1, 1, -1) / pi_m
        )
    nu = float(np.mean(integrand))
    nu_se = float(np.std(integrand, ddof=1) / np.sqrt(mc_draws))
    if variant.kind is DatasetKind.TYPE1:
        nu, nu_se = rho**2 * nu, rho**2 * nu_se

    x0 = truth.sample_calibration(rng, mc_draws)
    d0 = np.asarray(policy(x0), dtype=float)
    target = _policy_target(nus.outcome, x0, d0, variant.estimand)
    centered = target - np.mean(target)
    var_target = float(np.mean(centered**2))
    var_target_se = float(
        np.sqrt(max(np.mean(centered**4) - var_target**2, 0.0) / mc_draws)
    )
    zeta, zeta_se = var_target, var_target_se
    if variant.kind is DatasetKind.TYPE1:
        if variant.estimand is Estimand.VALUE:
            pi_d0 = np.asarray(nus.propensity.prob(d0, x0, 0), dtype=float)
            extra = truth.sigma2(x0, 0, d0) / pi_d0
        else:
            pi_p0 = np.asarray(nus.propensity.prob(1, x0, 0), dtype=float)
            pi_m0 = np.asarray(nus.propensity.prob(-1, x0, 0), dtype=float)
            extra = truth.sigma2(x0, 0, 1) / pi_p0 + truth.sigma2(x0, 0, -1) / pi_m0
        zeta = (1.0 - rho) ** 2 * float(np.mean(extra)) + var_target
        zeta_se = float(
            np.hypot((1.0 - rho) ** 2 * np.std(extra, ddof=1) / np.sqrt(mc_draws), var_target_se)
        )
    return TheoreticalVariance(
        nu_eff=nu, zeta_eff=zeta, variant=variant, nu_se=nu_se, zeta_se=zeta_se
    )
