"""Efficient and plug-in estimators of testing-population policy values.

Two estimands are supported for a fixed deterministic rule d:

* the policy value  theta  = E_test[Y(d)], and
* the contrast      theta1 = E_test[Y(d) - Y(-d)] = E_test[C(X) d(X)].

Each has a Type-1 and a Type-2 efficient estimator depending on whether
calibration rows carry observed treatments and outcomes. The population
sampling rate is always replaced by the realized n1/n (and 1 - rho by n0/n).

Per-row efficient-influence-function contributions drive the reported
standard errors; with the self-consistent point estimate their sample mean
is zero by construction. :func:`estimate_efficient` is the one public entry
point: it takes a fitted :class:`NuisanceSet`, or a :class:`FitRecipe` fitted
on the data, plainly or, given folds, cross-fitted. Both share one
fit-and-evaluate path: a plain fit is the one-bag case of cross-fitting, its
nuisances fitted on all rows and evaluated at all rows.
The fit alone produces and checks the estimand-free per-row values, the
weights, propensities and residuals; each estimand's report builds and
checks only its calibration targets.

The closed-form asymptotic variances are integrals over the Gaussian-shift
design that a :class:`SimulationConfig` describes; the integrands use the
design's oracle nuisances and the same calibration-target formula as the
estimators.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .data_model import (
    DatasetKind,
    FoldAssignment,
    Observation,
    Policy,
    PooledDataset,
    SimulationConfig,
)
from .errors import (
    DegenerateDenominator,
    InvalidConfig,
    InvalidLevel,
    MissingField,
    MissingStratum,
    NonFiniteValue,
    ShiftEvalError,
    prefix_message,
)
from .nuisance import (
    KernelSpec,
    NuisanceSet,
    fit_outcome_regression,
    fit_propensity_logistic,
    fit_weights_aipsw,
    fit_weights_entropy_balancing,
    fit_weights_kulsif,
    gaussian_oracle_nuisances,
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
    from scipy.special import ndtri

    z = ndtri(0.5 * (1.0 + level))
    return (float(estimate - z * se), float(estimate + z * se))


# ---------------------------------------------------------------------------
# Evaluation frames, per-row nuisance values and the shared aggregation core
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class _Stratum:
    """One stratum's rows, in data order; (a, y) are NaN where unobserved."""

    s: int
    x: NDArray  # (m, p)
    d: NDArray  # (m,) policy decisions
    a: NDArray  # (m,)
    y: NDArray  # (m,)


@dataclass(eq=False)
class _Frame:
    """One dataset under one policy: the decisions and both strata, gathered
    once and shared by every estimate on the dataset whatever its kind,
    nuisances or estimand."""

    data: PooledDataset
    train: NDArray  # (n,) s == 1
    tr: _Stratum
    cal: _Stratum


@dataclass(eq=False)
class _PerRowParts:
    """Estimand-free nuisance values at one frame's rows for one kind of
    evaluation, all finite and the propensities positive. Each fit
    (nuisances, training positions, calibration positions) is evaluated at
    its positions: a plain fit, the only one, at every row, a bag's fit at
    the bag's rows. The calibration propensities and residuals are None
    under Type-2 evaluation, which never reads calibration (a, y)."""

    frame: _Frame
    kind: DatasetKind
    fits: list
    w_tr: NDArray  # (n1,) weights at the training rows
    pi_tr: NDArray  # (n1,) pi_A(A_i | X_i, 1)
    resid_tr: NDArray  # (n1,) Y_i - Q(X_i, A_i)
    pi_cal: NDArray | None  # (n0,) pi_A(A_i | X_i, 0)
    resid_cal: NDArray | None  # (n0,)


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


def _decisions(policy: Policy, x: NDArray) -> NDArray:
    return np.asarray(policy(x), dtype=float)


def _stratum(data: PooledDataset, rows: NDArray, d: NDArray, s: int) -> _Stratum:
    return _Stratum(s=s, x=data.x[rows], d=d[rows], a=data.a[rows], y=data.y[rows])


def _frame(data: PooledDataset, policy: Policy) -> _Frame:
    """Decide ``policy`` on every row of ``data`` and gather both strata."""
    d = _decisions(policy, data.x)
    train = data.s == 1
    return _Frame(
        data=data, train=train, tr=_stratum(data, train, d, 1), cal=_stratum(data, ~train, d, 0)
    )


def _fit(
    frame: _Frame,
    kind: DatasetKind,
    recipe: FitRecipe | NuisanceSet,
    folds: FoldAssignment | None = None,
) -> _PerRowParts:
    """Fit ``recipe`` on ``frame``'s data as ``kind`` evaluation sees it, then
    evaluate and check the estimand-free values: weights, propensities and
    residuals.

    A plain fit is the one-bag case of cross-fitting: the recipe is fitted
    once on all rows and evaluated at all rows, or, given ``folds``, fitted
    once per bag on the rows outside it and evaluated at the bag's rows. A
    ``NuisanceSet`` is a recipe already fitted, evaluated as it is, and
    refuses ``folds``. Type-2 evaluation of Type-1 data fits with the
    calibration (a, y) masked, so no nuisance is fitted on them.
    """
    data, train = frame.data, frame.train
    if folds is not None:
        if isinstance(recipe, NuisanceSet):
            raise InvalidConfig("cross-fitting folds need a FitRecipe, not a fitted NuisanceSet")
        if folds.bag_of.shape[0] != data.n:
            raise InvalidConfig("fold assignment does not match dataset size")
    if kind is DatasetKind.TYPE1 and not data.observed[~train].all():
        raise MissingField("Type-1 evaluation requires observed (a, y) on calibration rows")
    every = slice(None)
    if isinstance(recipe, NuisanceSet):
        fits = [(recipe, every, every)]
    else:
        if kind is DatasetKind.TYPE2 and data.kind is DatasetKind.TYPE1:
            data = data.as_type2()
        if folds is None:
            fits = [(assemble_nuisances(data, recipe), every, every)]
        else:
            fits = []
            for k in range(1, folds.k + 1):
                in_bag = folds.bag_of == k
                try:
                    nus = assemble_nuisances(data.subset(~in_bag), recipe)
                except ShiftEvalError as e:
                    prefix_message(e, f"bag {k}")
                    raise
                fits.append((nus, np.flatnonzero(in_bag[train]), np.flatnonzero(in_bag[~train])))

    n1, n0 = frame.data.n1, frame.data.n0
    type1 = kind is DatasetKind.TYPE1
    parts = _PerRowParts(
        frame=frame,
        kind=kind,
        fits=fits,
        w_tr=np.empty(n1),
        pi_tr=np.empty(n1),
        resid_tr=np.empty(n1),
        pi_cal=np.empty(n0) if type1 else None,
        resid_cal=np.empty(n0) if type1 else None,
    )
    for nus, tr, cal in fits:
        parts.w_tr[tr] = nus.weight(frame.tr.x[tr])
        for st, idx, pi, resid in (
            (frame.tr, tr, parts.pi_tr, parts.resid_tr),
            (frame.cal, cal, parts.pi_cal, parts.resid_cal),
        ):
            if pi is not None:
                x, a = st.x[idx], st.a[idx]
                pi[idx] = nus.propensity.prob(a, x, st.s)
                resid[idx] = st.y[idx] - nus.outcome.q(x, a)

    for name, arr in (
        ("training weights", parts.w_tr),
        ("training propensities", parts.pi_tr),
        ("training outcome residuals", parts.resid_tr),
        ("calibration propensities", parts.pi_cal),
        ("calibration outcome residuals", parts.resid_cal),
    ):
        if arr is not None and not np.isfinite(arr).all():
            raise NonFiniteValue(f"{name} contain NaN or infinite values")
    _check_positive("training propensities", parts.pi_tr)
    if type1:
        _check_positive("calibration propensities", parts.pi_cal)
    return parts


def _combine(parts: _PerRowParts, estimand: Estimand, target_cal: NDArray):
    """Point estimate and per-row influence contributions at the estimate,
    given the calibration targets ``target_cal`` of ``estimand``."""
    frame = parts.frame
    tr, cal, train = frame.tr, frame.cal, frame.train
    n, n1, n0 = frame.data.n, frame.data.n1, frame.data.n0
    term_tr = parts.w_tr * _coupler(estimand, tr.d, tr.a) / parts.pi_tr * parts.resid_tr
    eif = np.empty(n)
    if parts.kind is DatasetKind.TYPE2:
        phi = float(np.mean(term_tr))
        estimate = phi + float(np.mean(target_cal))
        eif[train] = (n / n1) * term_tr
        eif[~train] = (n / n0) * (target_cal - estimate)
    else:
        term_cal = _coupler(estimand, cal.d, cal.a) / parts.pi_cal * parts.resid_cal
        estimate = (n1 / n) * float(np.mean(term_tr)) + float(
            np.mean((n0 / n) * term_cal + target_cal)
        )
        eif[train] = term_tr
        eif[~train] = term_cal + (n / n0) * (target_cal - estimate)
    return estimate, eif


def _finish_report(
    data, estimate, terms, variant, method, nuisance, level
) -> EstimateReport:
    """Report with se = sample standard deviation of the per-row ``terms``
    divided by the square root of their count."""
    m = terms.shape[0]
    with np.errstate(over="ignore"):  # an overflow is refused below
        se = float(np.std(terms, ddof=1) / np.sqrt(m)) if m > 1 else 0.0
    if not np.isfinite(se):
        raise NonFiniteValue("standard error is not finite: the per-row terms overflow")
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


def _report(parts: _PerRowParts, estimand: Estimand, level: float) -> EstimateReport:
    """Efficient estimate of ``estimand`` from ``parts``; only the calibration
    targets are evaluated and checked here, each at its own fit's rows, so
    one ``parts`` serves every estimand in turn."""
    cal = parts.frame.cal
    target_cal = np.empty(parts.frame.data.n0)
    for nus, _, rows in parts.fits:
        target_cal[rows] = _policy_target(nus.outcome, cal.x[rows], cal.d[rows], estimand)
    if not np.isfinite(target_cal).all():
        raise NonFiniteValue("calibration targets contain NaN or infinite values")
    estimate, eif = _combine(parts, estimand, target_cal)
    nuisance = parts.fits[0][0].provenance()
    method = "efficient" if len(parts.fits) == 1 else "crossfit"
    if method == "crossfit":
        del nuisance["rho_hat"]  # leaves the backend names, the same in every bag
        nuisance["crossfit_k"] = len(parts.fits)
        nuisance["per_bag"] = []
        for k, (nus, _, _) in enumerate(parts.fits, start=1):
            diag = {"bag": k, "nuisance": nus.provenance()}
            for key in ("converged", "iterations"):
                if key in nus.weight.info:
                    diag[f"weight_{key}"] = nus.weight.info[key]
            nuisance["per_bag"].append(diag)
    return _finish_report(
        parts.frame.data, estimate, eif, EifVariant(estimand, parts.kind), method, nuisance, level
    )


# ---------------------------------------------------------------------------
# Public estimators
# ---------------------------------------------------------------------------


def estimate_efficient(
    data: PooledDataset,
    nuisances: FitRecipe | NuisanceSet,
    policy: Policy,
    estimand: Estimand,
    kind: DatasetKind | None = None,
    level: float = DEFAULT_LEVEL,
    folds: FoldAssignment | None = None,
) -> EstimateReport:
    """Semiparametric efficient estimate of the chosen estimand.

    ``nuisances`` is a fitted set, evaluated as it is, or a recipe fitted on
    ``data``: once on all rows, or, given ``folds``, once per bag on the rows
    outside it and evaluated at the bag's rows (cross-fitting). Folds with a
    fitted set are refused. With a fully oracle recipe the cross-fitted
    estimate equals the plain one exactly.

    The dataset kind selects the estimator form; a Type-1 dataset may be
    evaluated with ``kind=DatasetKind.TYPE2`` to ignore calibration (a, y),
    and a recipe is then fitted with them masked. The standard error is the
    sample standard deviation of the per-row influence contributions at the
    self-consistent estimate, divided by sqrt(n).
    """
    kind = data.kind if kind is None else kind
    return _report(_fit(_frame(data, policy), kind, nuisances, folds), estimand, level)


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
        terms = _policy_target(nuisances.outcome, x0, _decisions(policy, x0), estimand)
    else:
        d = _decisions(policy, data.x)
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
# Fit recipes
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

    def __post_init__(self):
        check_backends(self)
        if "oracle" in (self.weights, self.propensity, self.outcome) and self.oracle is None:
            raise InvalidConfig("recipe uses oracle components but no oracle set supplied")


def _fit_nuisance(data: PooledDataset, recipe: FitRecipe, component: str):
    """The ``component`` (``weights``, ``propensity`` or ``outcome``) of
    ``recipe``: the oracle's, or fitted on ``data`` by the named backend.

    A missing ``recipe.kernel`` resolves to ``KernelSpec()`` for both kernel
    backends.
    """
    backend = getattr(recipe, component)
    if backend == "oracle":
        return getattr(recipe.oracle, "weight" if component == "weights" else component)
    if backend == "aipsw":
        return fit_weights_aipsw(data)
    if backend == "kulsif":
        return fit_weights_kulsif(data, recipe.kernel or KernelSpec())
    if backend == "eb":
        return fit_weights_entropy_balancing(data)
    if backend == "logistic":
        return fit_propensity_logistic(data)
    return fit_outcome_regression(data, method=backend, spec=recipe.kernel or KernelSpec())


def assemble_nuisances(data: PooledDataset, recipe: FitRecipe) -> NuisanceSet:
    """Fit (or take from the oracle) all three nuisance functions on ``data``."""
    return NuisanceSet(
        weight=_fit_nuisance(data, recipe, "weights"),
        propensity=_fit_nuisance(data, recipe, "propensity"),
        outcome=_fit_nuisance(data, recipe, "outcome"),
        rho_hat=data.n1 / data.n,
    )


# not public: kept only because perfbench/tracing.py TARGETS and
# test_traced_function_resolves name it, and deleted once the benchmark stops
# tracing it (ROADMAP item 2(b))
def cross_fit_estimate(data, folds, recipe, policy, estimand, kind=None, level=DEFAULT_LEVEL):
    return estimate_efficient(data, recipe, policy, estimand, kind, level, folds=folds)


# ---------------------------------------------------------------------------
# Closed-form asymptotic variances by Monte Carlo integration
# ---------------------------------------------------------------------------


def theoretical_variance(
    config: SimulationConfig,
    policy: Policy,
    variant: EifVariant,
    mc_draws: int = 1_000_000,
    seed: int = 0,
) -> TheoreticalVariance:
    """Evaluate the asymptotic variance components of one estimator variant
    under the Gaussian-shift design ``config``, at sampling rate rho_s.

    Expectations over the stratum-specific covariate laws, N_p(mu, I) for
    training and N_p(0, I) for calibration, are integrated by Monte Carlo
    with ``mc_draws`` draws per stratum; the *_se fields report the
    integration error.
    """
    return _theoretical_variances(config, policy, (variant,), mc_draws, seed)[variant]


def _sigma2_over_pi(
    sigma2: float, prob, x: NDArray, s: int, d: NDArray, estimand: Estimand,
    w2: NDArray | None = None,
) -> NDArray:
    """sigma^2 / pi_A(a | x, s) at a = d(x) for the value, summed over a = +1,
    -1 for the contrast; times the squared weights ``w2`` when given. The
    outcome noise variance ``sigma2`` is the same at every (x, s, a)."""
    if estimand is Estimand.VALUE:
        pi_d = np.asarray(prob(d, x, s), dtype=float)
        return (sigma2 if w2 is None else w2 * sigma2) / pi_d
    pi_p = np.asarray(prob(1, x, s), dtype=float)
    pi_m = np.asarray(prob(-1, x, s), dtype=float)
    total = sigma2 / pi_p + sigma2 / pi_m
    return total if w2 is None else w2 * total


def _moments(values: NDArray) -> tuple:
    """Sample mean and standard deviation (ddof=1)."""
    return float(np.mean(values)), float(np.std(values, ddof=1))


def _target_variance(target: NDArray, draws: int) -> tuple:
    """Var(target) and its integration error."""
    centered = target - np.mean(target)
    var = float(np.mean(centered**2))
    return var, float(np.sqrt(max(np.mean(centered**4) - var**2, 0.0) / draws))


def _theoretical_variances(
    config: SimulationConfig,
    policy: Policy,
    variants,
    mc_draws: int = 1_000_000,
    seed: int = 0,
) -> dict:
    """:func:`theoretical_variance` of every variant in ``variants``, keyed by
    variant, from one pass over the draws a single call makes: x1 and then x0
    from one ``default_rng(seed)``.

    Each estimand's training integrand and calibration target are evaluated
    once: the Type-1 nu is rho^2 times the Type-2 nu, and both kinds share
    Var(target). Each stratum's arrays are released before the next stratum
    is drawn, and each estimand's before the next estimand's.
    """
    if mc_draws < MIN_MC_DRAWS:
        raise InvalidConfig(f"mc_draws must be at least {MIN_MC_DRAWS}")
    rho = config.rho_s
    oracle = gaussian_oracle_nuisances(config, rho_hat=rho)
    sigma2, prob = config.noise_sd**2, oracle.propensity.prob
    rng = np.random.default_rng(seed)
    estimands = tuple(dict.fromkeys(v.estimand for v in variants))
    type1 = {v.estimand for v in variants if v.kind is DatasetKind.TYPE1}

    x1 = rng.standard_normal((mc_draws, config.p)) + config.mu
    d1 = _decisions(policy, x1)
    w2 = np.asarray(oracle.weight(x1), dtype=float) ** 2
    nu = {}  # estimand -> Type-2 (nu, nu_se)
    for estimand in estimands:
        mean, std = _moments(_sigma2_over_pi(sigma2, prob, x1, 1, d1, estimand, w2))
        nu[estimand] = mean, float(std / np.sqrt(mc_draws))
    del x1, d1, w2

    x0 = rng.standard_normal((mc_draws, config.p))
    d0 = _decisions(policy, x0)
    zeta = {}  # (estimand, kind) -> (zeta, zeta_se)
    for estimand in estimands:
        var_target, var_target_se = _target_variance(
            _policy_target(oracle.outcome, x0, d0, estimand), mc_draws
        )
        zeta[estimand, DatasetKind.TYPE2] = var_target, var_target_se
        if estimand in type1:
            mean, std = _moments(_sigma2_over_pi(sigma2, prob, x0, 0, d0, estimand))
            zeta[estimand, DatasetKind.TYPE1] = (
                (1.0 - rho) ** 2 * mean + var_target,
                float(np.hypot((1.0 - rho) ** 2 * std / np.sqrt(mc_draws), var_target_se)),
            )

    out = {}
    for v in variants:
        nu_eff, nu_se = nu[v.estimand]
        if v.kind is DatasetKind.TYPE1:
            nu_eff, nu_se = rho**2 * nu_eff, rho**2 * nu_se
        zeta_eff, zeta_se = zeta[v.estimand, v.kind]
        out[v] = TheoreticalVariance(
            nu_eff=nu_eff, zeta_eff=zeta_eff, variant=v, nu_se=nu_se, zeta_se=zeta_se
        )
    return out
