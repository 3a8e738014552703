"""Efficient and plug-in estimators of testing-population policy values.

Two estimands are supported for a fixed deterministic rule d:

* the policy value  theta  = E_test[Y(d)], and
* the contrast      theta1 = E_test[Y(d) - Y(-d)] = E_test[C(X) d(X)].

Each has a Type-1 and a Type-2 efficient estimator depending on whether
calibration rows carry observed treatments and outcomes. The population
sampling rate is always replaced by the realized n1/n of the data evaluated
(and 1 - rho by n0/n), which a report records as ``rho_hat``; a
:class:`NuisanceSet` carries no rate.
Every formula reads d(x) as the float +-1.0 array ``policy(x)`` returns.

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
estimators. They and the Monte Carlo truth stream their draws in fixed
blocks and merge each block's moments, in memory bounded by one block.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .data_model import (
    DatasetKind,
    FoldAssignment,
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
_BLOCK_DRAWS = 1 << 16  # draws held at once by a streamed Monte Carlo integral

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
    # the standard library's quantile (Wichura's AS241), within 6 ulps of
    # scipy's ndtri at no scipy import
    from statistics import NormalDist

    z = NormalDist().inv_cdf(0.5 * (1.0 + level))
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


def _stratum(data: PooledDataset, rows: NDArray, d: NDArray, s: int) -> _Stratum:
    return _Stratum(s=s, x=data.x[rows], d=d[rows], a=data.a[rows], y=data.y[rows])


def _frame(data: PooledDataset, policy: Policy) -> _Frame:
    """Decide ``policy`` on every row of ``data`` and gather both strata."""
    d = policy(data.x)
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
        # an all-oracle "fit" reads nothing from the data, so needs no mask
        fitted = any(getattr(recipe, component) != "oracle" for component in BACKENDS)
        if fitted and kind is DatasetKind.TYPE2 and data.kind is DatasetKind.TYPE1:
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
    given the calibration targets ``target_cal`` of ``estimand``. Type-2,
    without calibration (a, y), is Type-1 without the augmentation term."""
    frame = parts.frame
    tr, cal, train = frame.tr, frame.cal, frame.train
    n, n1, n0 = frame.data.n, frame.data.n1, frame.data.n0
    term_tr = parts.w_tr * _coupler(estimand, tr.d, tr.a) / parts.pi_tr * parts.resid_tr
    if parts.kind is DatasetKind.TYPE2:
        term_cal, rate, scale = 0.0, 1.0, n / n1
    else:
        term_cal = _coupler(estimand, cal.d, cal.a) / parts.pi_cal * parts.resid_cal
        rate, scale = n1 / n, 1.0
    estimate = rate * float(np.mean(term_tr)) + float(np.mean((n0 / n) * term_cal + target_cal))
    eif = np.empty(n)
    eif[train] = scale * term_tr
    eif[~train] = term_cal + (n / n0) * (target_cal - estimate)
    return estimate, eif


def _finish_report(
    data, estimate, terms, variant, method, nuisance, level
) -> EstimateReport:
    """Report with se = sample standard deviation of the per-row ``terms``
    divided by the square root of their count."""
    m = terms.shape[0]
    with np.errstate(over="ignore"):  # an overflow is refused below
        se = float(_Moments.of(terms, order=2).std / np.sqrt(m)) if m > 1 else 0.0
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
    data = parts.frame.data
    nuisance = parts.fits[0][0].provenance()  # the backend names, the same in every bag
    method = "efficient" if len(parts.fits) == 1 else "crossfit"
    if method == "efficient":
        nuisance["rho_hat"] = data.n1 / data.n
    else:
        nuisance["crossfit_k"] = len(parts.fits)
        nuisance["per_bag"] = []
        for k, (nus, tr, cal) in enumerate(parts.fits, start=1):
            # n1/n of the rows outside the bag, which its nuisances were fitted on
            rho_hat = (data.n1 - tr.size) / (data.n - tr.size - cal.size)
            diag = {"bag": k, "nuisance": {**nus.provenance(), "rho_hat": rho_hat}}
            for key in ("converged", "iterations"):
                if key in nus.weight.info:
                    diag[f"weight_{key}"] = nus.weight.info[key]
            nuisance["per_bag"].append(diag)
    return _finish_report(
        data, estimate, eif, EifVariant(estimand, parts.kind), method, nuisance, level
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
    data: PooledDataset,
    i: int,
    nuisances: NuisanceSet,
    policy: Policy,
    variant: EifVariant,
    theta_ref: float,
) -> float:
    """Influence-function value at row ``i`` of ``data``.

    A scalar reference written independently of the vectorised aggregation
    core, against which the core's per-row values are checked. As in the
    core, the sampling rate rho is the realized n1/n of ``data``.
    """
    rho = data.n1 / data.n
    x = data.x[i][None, :]
    d = float(policy(data.x[i]))
    a, y = float(data.a[i]), float(data.y[i])  # NaN where unobserved
    if data.s[i] == 1:  # a validated dataset's training rows carry (a, y)
        w = float(nuisances.weight(data.x[i]))
        pi = float(nuisances.propensity.prob(a, x, 1)[0])
        if pi <= 0.0:
            raise DegenerateDenominator("training propensity is non-positive")
        resid = y - float(nuisances.outcome.q(x, a)[0])
        coup = float(d == a) if variant.estimand is Estimand.VALUE else d * a
        scale = 1.0 if variant.kind is DatasetKind.TYPE1 else 1.0 / rho
        return scale * w * coup / pi * resid

    if variant.estimand is Estimand.VALUE:
        target = float(nuisances.outcome.q(x, d)[0])
    else:
        target = float(nuisances.outcome.cte(x)[0]) * d
    value = (target - theta_ref) / (1.0 - rho)
    if variant.kind is DatasetKind.TYPE1:
        if not data.observed[i]:
            raise MissingField("Type-1 influence function needs calibration (a, y)")
        pi = float(nuisances.propensity.prob(a, x, 0)[0])
        if pi <= 0.0:
            raise DegenerateDenominator("calibration propensity is non-positive")
        resid = y - float(nuisances.outcome.q(x, a)[0])
        coup = float(d == a) if variant.estimand is Estimand.VALUE else d * a
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
        terms = _policy_target(nuisances.outcome, x0, policy(x0), estimand)
    else:
        target = _policy_target(nuisances.outcome, data.x, policy(data.x), estimand)
        w = nuisances.weight(data.x[train])
        if form == "weighted_pooled":
            terms = target.copy()
            terms[train] = w * target[train]
        else:  # weighted_training
            terms = np.zeros(data.n)
            terms[train] = (data.n / data.n1) * w * target[train]

    nuis = {**nuisances.provenance(), "rho_hat": data.n1 / data.n, "form": form}
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
    with ``mc_draws`` draws per stratum (at least ``MIN_MC_DRAWS``), streamed
    in blocks of ``_BLOCK_DRAWS`` whose moments are merged, so memory does
    not grow with ``mc_draws``; the *_se fields report the integration error.
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
        return (sigma2 if w2 is None else w2 * sigma2) / prob(d, x, s)
    total = sigma2 / prob(1, x, s) + sigma2 / prob(-1, x, s)
    return total if w2 is None else w2 * total


@dataclass(frozen=True)
class _Moments:
    """Count, mean and central sums of powers 2 to 4 of one integrand's draws;
    NaN sums where only the mean was accumulated."""

    n: int
    mean: float
    m2: float = np.nan
    m3: float = np.nan
    m4: float = np.nan

    @classmethod
    def of(cls, values: NDArray, order: int = 4) -> _Moments:
        """Two-pass moments of one block of draws; the mean alone at
        ``order=1``, and the mean and m2 at ``order=2``. A merged mean reads
        only counts and means, so it is the same bits at any order."""
        mean = np.mean(values)
        if order == 1:
            return cls(n=values.shape[0], mean=float(mean))
        c = values - mean
        c2 = c * c
        m2 = float(np.sum(c2))
        if order == 2:
            return cls(n=values.shape[0], mean=float(mean), m2=m2)
        c *= c2
        m3 = float(np.sum(c))
        c2 *= c2
        return cls(n=values.shape[0], mean=float(mean), m2=m2, m3=m3, m4=float(np.sum(c2)))

    def merge(self, other: _Moments) -> _Moments:
        """The moments of both sets of draws together (Chan, Golub & LeVeque
        1979; Pebay 2008)."""
        na, nb = self.n, other.n
        n = na + nb
        delta = other.mean - self.mean
        d_n = delta / n
        d_n2 = d_n * d_n
        cross = delta * d_n * na * nb
        return _Moments(
            n=n,
            mean=self.mean + d_n * nb,
            m2=self.m2 + other.m2 + cross,
            m3=self.m3 + other.m3 + cross * d_n * (na - nb)
            + 3.0 * d_n * (na * other.m2 - nb * self.m2),
            m4=self.m4 + other.m4 + cross * d_n2 * (na * na - na * nb + nb * nb)
            + 6.0 * d_n2 * (na * na * other.m2 + nb * nb * self.m2)
            + 4.0 * d_n * (na * other.m3 - nb * self.m3),
        )

    @property
    def var(self) -> float:
        """Sample variance (ddof=1), ``np.var(values, ddof=1)`` bit for bit
        for the moments of one block."""
        return self.m2 / (self.n - 1)

    @property
    def std(self) -> float:
        """Sample standard deviation (ddof=1)."""
        return float(np.sqrt(self.var))

    def variance(self) -> tuple:
        """The variance (ddof=0) and its integration error."""
        var = self.m2 / self.n
        return var, float(np.sqrt(max(self.m4 / self.n - var**2, 0.0) / self.n))


def _mc_moments(
    rng, draws: int, p: int, integrands, shift: NDArray | None = None, order: int = 4
) -> list:
    """Moments up to ``order`` (1 or 4) of each per-draw integrand over
    ``draws`` draws of x ~ N_p(shift, I) (N_p(0, I) without ``shift``) from
    ``rng``, streamed in blocks of ``_BLOCK_DRAWS`` rows.

    ``integrands(x)`` returns one array of per-draw values for each integrand
    at a block's rows. The blocks hold, in order, the rows that one draw of
    all ``draws`` rows would give, and the first block's two-pass moments
    start the merge, so up to ``_BLOCK_DRAWS`` draws the moments are those of
    the whole arrays bit for bit. Memory is bounded by one block, whatever
    ``draws`` is.
    """
    acc = None
    for start in range(0, draws, _BLOCK_DRAWS):
        x = rng.standard_normal((min(_BLOCK_DRAWS, draws - start), p))
        if shift is not None:
            x += shift
        block = [_Moments.of(values, order) for values in integrands(x)]
        acc = block if acc is None else [a.merge(b) for a, b in zip(acc, block)]
    return acc


def _theoretical_variances(
    config: SimulationConfig,
    policy: Policy,
    variants,
    mc_draws: int = 1_000_000,
    seed: int = 0,
) -> dict:
    """:func:`theoretical_variance` of every variant in ``variants``, keyed by
    variant, from one pass over the draws a single call makes: x1 and then x0
    from one ``default_rng(seed)``, each stratum streamed in blocks of
    ``_BLOCK_DRAWS`` draws, so memory does not grow with ``mc_draws``.

    Each estimand's training integrand and calibration target are evaluated
    once per block: the Type-1 nu is rho^2 times the Type-2 nu, and both
    kinds share Var(target).
    """
    if mc_draws < MIN_MC_DRAWS:
        raise InvalidConfig(f"mc_draws must be at least {MIN_MC_DRAWS}")
    rho = config.rho_s
    oracle = gaussian_oracle_nuisances(config)
    sigma2, prob = config.noise_sd**2, oracle.propensity.prob
    rng = np.random.default_rng(seed)
    estimands = tuple(dict.fromkeys(v.estimand for v in variants))
    type1 = tuple(e for e in estimands if EifVariant(e, DatasetKind.TYPE1) in variants)

    def training(x):
        d, w2 = policy(x), oracle.weight(x) ** 2
        return [_sigma2_over_pi(sigma2, prob, x, 1, d, e, w2) for e in estimands]

    def calibration(x):
        d = policy(x)
        return [_policy_target(oracle.outcome, x, d, e) for e in estimands] + [
            _sigma2_over_pi(sigma2, prob, x, 0, d, e) for e in type1
        ]

    root_n = np.sqrt(mc_draws)
    nu = {  # estimand -> Type-2 (nu, nu_se)
        e: (m.mean, float(m.std / root_n))
        for e, m in zip(estimands, _mc_moments(rng, mc_draws, config.p, training, config.mu))
    }
    cal = _mc_moments(rng, mc_draws, config.p, calibration)
    zeta = {}  # (estimand, kind) -> (zeta, zeta_se)
    for e, target in zip(estimands, cal):
        zeta[e, DatasetKind.TYPE2] = target.variance()
    for e, extra in zip(type1, cal[len(estimands):]):
        var_target, var_target_se = zeta[e, DatasetKind.TYPE2]
        zeta[e, DatasetKind.TYPE1] = (
            (1.0 - rho) ** 2 * extra.mean + var_target,
            float(np.hypot((1.0 - rho) ** 2 * extra.std / root_n, var_target_se)),
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
