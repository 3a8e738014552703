"""Nuisance functions: covariate weights, treatment propensity, outcome regression.

Three interchangeable weight backends are provided, all returning a
:class:`WeightModel` that evaluates the estimated density ratio of
calibration-to-training covariates at arbitrary points:

* ``aipsw``  -- logistic regression of the selection indicator on covariates,
  converted to weights via the selection odds;
* ``kulsif`` -- kernel-based unconstrained least-squares importance fitting,
  solved in closed form through its ridge-regularized dual;
* ``eb``     -- entropy balancing: minimum Kullback-Leibler weights subject to
  exact moment constraints, solved by damped Newton on the dual.

A weight model holds only its function; training-row weights are that
function evaluated at the training rows. The logistic propensity is one
model with a per-stratum fit for every stratum that has observed (a, y).
Dense kernel systems are solved by Cholesky, and every solve warns when the
1-norm condition estimate from the Cholesky factor exceeds 1e12, at any size.
The dense-kernel and entropy-balancing solvers load ``scipy.linalg`` and
``scipy.spatial`` on first use, so a process that fits neither never does.

Fitted models are immutable and safe to share across threads.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.typing import NDArray
# scipy.special only: scipy.linalg and scipy.spatial are imported inside the
# kernel and entropy-balancing solvers, as loading them slows every start
from scipy.special import expit, logsumexp

from .data_model import PooledDataset, SimulationConfig, _as_matrix, true_weight_gaussian
from .errors import (
    InfeasibleBalance,
    InvalidConfig,
    MissingStratum,
    NoObservedOutcomes,
    RankDeficient,
    Separation,
    SolveFailure,
)

__all__ = [
    "TAU_CLIP",
    "DELTA_CLIP",
    "KernelSpec",
    "InstrumentSet",
    "ConstantInstrument",
    "CoordinateInstrument",
    "FunctionInstrument",
    "PropensityModel",
    "OutcomeModel",
    "WeightModel",
    "NuisanceSet",
    "SimulationTruth",
    "fit_propensity_logistic",
    "fit_outcome_regression",
    "fit_weights_aipsw",
    "fit_weights_kulsif",
    "fit_weights_entropy_balancing",
    "check_balance",
    "check_positivity",
    "PositivityReport",
    "gaussian_oracle_nuisances",
    "gaussian_shift_truth",
]

TAU_CLIP = 1e-3  # default clip for treatment propensities
DELTA_CLIP = 1e-3  # default clip for selection probabilities

_COND_WARN = 1e12


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """Kernel family and ridge penalty for KuLSIF / kernel ridge regression.

    ``bandwidth=None`` resolves to the median pairwise distance heuristic at
    fit time; ``ridge=None`` resolves to 1 / min(n1, n0).
    """

    family: str = "rbf"  # "rbf" or "linear"
    bandwidth: float | None = None
    ridge: float | None = None

    def __post_init__(self):
        if self.family not in ("rbf", "linear"):
            raise InvalidConfig(f"unknown kernel family {self.family!r}")
        if self.bandwidth is not None and not self.bandwidth > 0:
            raise InvalidConfig("kernel bandwidth must be > 0")
        if self.ridge is not None and not self.ridge > 0:
            raise InvalidConfig("ridge penalty must be > 0")


def _kernel_matrix(family: str, bandwidth: float | None, xa: NDArray, xb: NDArray) -> NDArray:
    if family == "linear":
        return xa @ xb.T
    from scipy.spatial.distance import cdist

    d2 = cdist(xa, xb, metric="sqeuclidean")
    return np.exp(-d2 / (2.0 * bandwidth**2))


def median_bandwidth(x: NDArray, cap: int = 2000) -> float:
    """Median pairwise Euclidean distance (first ``cap`` rows), 1.0 if degenerate."""
    x = np.asarray(x, dtype=float)[:cap]
    if x.shape[0] < 2:
        return 1.0
    from scipy.spatial.distance import pdist

    med = float(np.median(pdist(x)))
    return med if med > 0 else 1.0


def _solve_spd(matrix: NDArray, rhs: NDArray, context: str) -> NDArray:
    """Dense Cholesky solve with a condition-number warning above 1e12.

    The condition number is LAPACK's O(m^2) 1-norm estimate from the
    Cholesky factor (?pocon; Hager 1984, Higham 1988), checked at every size.
    """
    from scipy.linalg import cho_factor, cho_solve
    from scipy.linalg.lapack import dpocon

    try:
        factor = cho_factor(matrix, lower=True)
    except np.linalg.LinAlgError as e:
        raise SolveFailure(f"{context}: {e}") from e
    rcond, _ = dpocon(factor[0], np.linalg.norm(matrix, 1), uplo="L")
    cond = 1.0 / rcond if rcond > 0 else np.inf
    if cond > _COND_WARN:
        warnings.warn(f"{context}: condition number {cond:.2e}", stacklevel=3)
    return cho_solve(factor, rhs)


# ---------------------------------------------------------------------------
# Model containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ConstantPropensityFn:
    p1: float

    def prob1(self, x: NDArray, s) -> NDArray:
        return np.full(x.shape[0], self.p1)


@dataclass(frozen=True, eq=False)
class LogisticPropensityFn:
    """Per-stratum logistic models: P(A=1 | x, s) = expit([1, x] @ coef[s])."""

    coef: dict

    def prob1(self, x: NDArray, s) -> NDArray:
        s_arr = np.broadcast_to(np.asarray(s), (x.shape[0],))
        out = np.empty(x.shape[0])
        for stratum in np.unique(s_arr):
            key = int(stratum)
            if key not in self.coef:
                raise MissingStratum(f"no propensity model fitted for stratum s={key}")
            beta = self.coef[key]
            mask = s_arr == stratum
            out[mask] = expit(beta[0] + x[mask] @ beta[1:])
        return out


@dataclass(frozen=True, eq=False)
class PropensityModel:
    """Treatment-assignment model pi_A(a | x, s) with probabilities in (0, 1).

    ``prob(1, x, s) + prob(-1, x, s) = 1`` holds exactly for every query.
    """

    evaluator: object
    clip: float = TAU_CLIP
    info: dict = field(default_factory=dict)

    def prob(self, a, x: NDArray, s) -> NDArray:
        x = _as_matrix(x)
        p1 = np.asarray(self.evaluator.prob1(x, s), dtype=float)
        if self.clip > 0:
            p1 = np.clip(p1, self.clip, 1.0 - self.clip)
        a = np.asarray(a)
        return np.where(a == 1, p1, 1.0 - p1)


@dataclass(frozen=True, eq=False)
class LinearQModel:
    """Q(x, a) = b0 + bx.x + a * (g0 + gx.x) with coefficient layout
    [b0, bx_1..bx_p, g0, gx_1..gx_p]."""

    beta: NDArray
    p: int

    def __call__(self, x: NDArray, a) -> NDArray:
        b = self.beta
        main = b[0] + x @ b[1 : self.p + 1]
        effect = b[self.p + 1] + x @ b[self.p + 2 :]
        return main + np.asarray(a, dtype=float) * effect


@dataclass(frozen=True, eq=False)
class KernelRidgeQModel:
    """Per-arm kernel ridge fits; evaluation is the representer expansion."""

    anchors: dict  # a -> (x_arm, alpha_arm)
    family: str
    bandwidth: float | None

    def __call__(self, x: NDArray, a) -> NDArray:
        a_arr = np.broadcast_to(np.asarray(a), (x.shape[0],))
        out = np.empty(x.shape[0])
        for arm in (-1, 1):
            mask = a_arr == arm
            if not mask.any():
                continue
            xa, alpha = self.anchors[arm]
            out[mask] = _kernel_matrix(self.family, self.bandwidth, x[mask], xa) @ alpha
        return out


@dataclass(frozen=True, eq=False)
class OutcomeModel:
    """Outcome regression Q(x, a) with the derived treatment-effect contrast."""

    evaluator: Callable[[NDArray, object], NDArray]
    info: dict = field(default_factory=dict)

    def q(self, x: NDArray, a) -> NDArray:
        return np.asarray(self.evaluator(_as_matrix(x), a), dtype=float)

    def cte(self, x: NDArray) -> NDArray:
        """C(x) = Q(x, +1) - Q(x, -1)."""
        x = _as_matrix(x)
        return self.q(x, 1) - self.q(x, -1)


@dataclass(frozen=True, eq=False)
class WeightModel:
    """Estimated covariate weight function, nonnegative everywhere.

    Training-row weights are the function evaluated at the training rows;
    for entropy balancing, ``w(x_train) / n1`` are the fitted balancing
    weights.
    """

    backend: str  # "oracle" | "aipsw" | "kulsif" | "eb"
    evaluator: Callable[[NDArray], NDArray]
    info: dict = field(default_factory=dict)

    def __call__(self, x: NDArray) -> NDArray:
        single = np.asarray(x).ndim == 1
        w = np.asarray(self.evaluator(_as_matrix(x)), dtype=float)
        return float(w[0]) if single else w


@dataclass(frozen=True, eq=False)
class NuisanceSet:
    """The weight / propensity / outcome triple plus the sampling-rate plug-in."""

    weight: WeightModel
    propensity: PropensityModel
    outcome: OutcomeModel
    rho_hat: float

    def __post_init__(self):
        if not 0.0 < self.rho_hat < 1.0:
            raise InvalidConfig(f"rho_hat must lie in (0, 1), got {self.rho_hat}")

    def provenance(self) -> dict:
        return {
            "weights": self.weight.backend,
            "propensity": self.propensity.info.get("model", "oracle"),
            "outcome": self.outcome.info.get("model", "oracle"),
            "rho_hat": self.rho_hat,
        }


# ---------------------------------------------------------------------------
# Logistic regression by Newton / IRLS
# ---------------------------------------------------------------------------


def _log_likelihood(design: NDArray, b: NDArray, beta: NDArray) -> float:
    eta = design @ beta
    return float(np.sum(b * eta - np.logaddexp(0.0, eta)))


def _newton_logistic(design: NDArray, b: NDArray, max_iter: int = 50, tol: float = 1e-10):
    """Maximize the Bernoulli log-likelihood; returns (beta, info).

    Raises ``Separation`` when the data are (quasi-)separated and the
    likelihood has no finite maximizer, ``RankDeficient`` when the design
    matrix does not have full column rank.
    """
    n, q = design.shape
    if np.linalg.matrix_rank(design) < q:
        raise RankDeficient("design matrix is rank deficient")
    beta = np.zeros(q)
    ll = _log_likelihood(design, b, beta)
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        eta = design @ beta
        pr = expit(eta)
        grad = design.T @ (b - pr)
        if np.max(np.abs(grad)) / n <= tol:
            converged = True
            break
        wvar = pr * (1.0 - pr)
        aligned = np.all((2.0 * b - 1.0) * eta >= 0.0)
        if aligned and (np.min(wvar) < 1e-12 or np.linalg.norm(beta) > 1e4):
            raise Separation("perfect separation: likelihood has no finite maximizer")
        hess = design.T @ (design * wvar[:, None])
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            raise Separation("singular Hessian during Newton iteration") from None
        t = 1.0
        for _ in range(40):
            cand = beta + t * step
            ll_new = _log_likelihood(design, b, cand)
            if ll_new >= ll - 1e-12:
                break
            t *= 0.5
        beta = beta + t * step
        ll = _log_likelihood(design, b, beta)
    if not converged:
        eta = design @ beta
        if np.all((2.0 * b - 1.0) * eta >= 0.0) and np.linalg.norm(beta) > 1e2:
            raise Separation("Newton iterations diverged (separated data)")
    return beta, {"iterations": it, "converged": converged}


def fit_propensity_logistic(data: PooledDataset, clip: float = TAU_CLIP) -> PropensityModel:
    """Logistic regression of 1[A = 1] on (1, x), fitted separately in every
    stratum with observed (a, y): s = 1, then s = 0 on Type-1 data.

    Predictions are clipped to [clip, 1 - clip]. ``info["strata"]`` holds
    each stratum's Newton iterations and convergence.
    """
    coef, strata = {}, {}
    for stratum in (1, 0):
        mask = (data.s == stratum) & data.observed
        if not mask.any():
            continue
        x = data.x[mask]
        design = np.column_stack([np.ones(x.shape[0]), x])
        coef[stratum], strata[str(stratum)] = _newton_logistic(
            design, (data.a[mask] == 1).astype(float)
        )
    return PropensityModel(
        evaluator=LogisticPropensityFn(coef),
        clip=clip,
        info={"model": "logistic", "strata": strata},
    )


# ---------------------------------------------------------------------------
# Outcome regression
# ---------------------------------------------------------------------------


def fit_outcome_regression(
    data: PooledDataset, method: str = "linear", spec: KernelSpec | None = None
) -> OutcomeModel:
    """Fit E[Y | X = x, A = a] on the rows with observed (a, y).

    ``linear`` regresses y on (1, x, a, x*a); ``kernel_ridge`` fits one
    kernel ridge regression per treatment arm using a dense Cholesky solve
    of (K + n*lambda*I) alpha = y.
    """
    obs = data.observed
    if not obs.any():
        raise NoObservedOutcomes("no rows with observed (a, y)")
    x, a, y = data.x[obs], data.a[obs], data.y[obs]

    if method == "linear":
        design = np.column_stack([np.ones(x.shape[0]), x, a, x * a[:, None]])
        beta, residuals, rank, _ = np.linalg.lstsq(design, y, rcond=None)
        if rank < design.shape[1]:
            raise RankDeficient("outcome design matrix is rank deficient")
        return OutcomeModel(
            evaluator=LinearQModel(beta=beta, p=data.p),
            info={"model": "linear", "coef": beta.tolist()},
        )

    if method == "kernel_ridge":
        if spec is None:
            raise InvalidConfig("kernel_ridge requires a KernelSpec")
        bandwidth = spec.bandwidth
        if spec.family == "rbf" and bandwidth is None:
            bandwidth = median_bandwidth(x)
        anchors = {}
        for arm in (-1, 1):
            mask = a == arm
            if not mask.any():
                raise NoObservedOutcomes(f"no observed outcomes for arm a={arm}")
            xa, ya = x[mask], y[mask]
            n_arm = xa.shape[0]
            lam = spec.ridge if spec.ridge is not None else 1.0 / n_arm
            kmat = _kernel_matrix(spec.family, bandwidth, xa, xa)
            alpha = _solve_spd(
                kmat + n_arm * lam * np.eye(n_arm), ya, f"kernel ridge (arm {arm})"
            )
            anchors[arm] = (xa, alpha)
        return OutcomeModel(
            evaluator=KernelRidgeQModel(anchors=anchors, family=spec.family, bandwidth=bandwidth),
            info={"model": "kernel_ridge", "family": spec.family, "bandwidth": bandwidth},
        )

    raise InvalidConfig(f"unknown outcome regression method {method!r}")


# ---------------------------------------------------------------------------
# Weight backends
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GaussianShiftWeightFn:
    mu: NDArray

    def __call__(self, x: NDArray) -> NDArray:
        return true_weight_gaussian(x, self.mu)


@dataclass(frozen=True, eq=False)
class AipswWeightFn:
    """w(x) = n1 * pi_S(0|x) / (n0 * pi_S(1|x)) from a logistic selection fit."""

    coef: NDArray
    n1: int
    n0: int
    clip: float

    def __call__(self, x: NDArray) -> NDArray:
        p1 = expit(self.coef[0] + x @ self.coef[1:])
        p1 = np.clip(p1, self.clip, 1.0 - self.clip)
        return self.n1 * (1.0 - p1) / (self.n0 * p1)


def fit_weights_aipsw(data: PooledDataset, clip: float = DELTA_CLIP) -> WeightModel:
    """Covariate weights from logistic regression of S on (1, x) over all rows."""
    design = np.column_stack([np.ones(data.n), data.x])
    beta, fit_info = _newton_logistic(design, data.s.astype(float))
    return WeightModel(
        backend="aipsw",
        evaluator=AipswWeightFn(coef=beta, n1=data.n1, n0=data.n0, clip=clip),
        info={"coef": beta.tolist(), "clip": clip, **fit_info},
    )


@dataclass(frozen=True, eq=False)
class KulsifWeightFn:
    """Representer-form KuLSIF weight; negative predictions truncate to 0."""

    train_x: NDArray
    calib_x: NDArray
    alpha: NDArray
    lam: float
    family: str
    bandwidth: float | None

    def raw(self, x: NDArray) -> NDArray:
        k1 = _kernel_matrix(self.family, self.bandwidth, x, self.train_x)
        k0 = _kernel_matrix(self.family, self.bandwidth, x, self.calib_x)
        return k1 @ self.alpha + k0.sum(axis=1) / (self.lam * self.calib_x.shape[0])

    def __call__(self, x: NDArray) -> NDArray:
        return np.maximum(self.raw(x), 0.0)


def fit_weights_kulsif(data: PooledDataset, spec: KernelSpec) -> WeightModel:
    """Kernel unconstrained least-squares importance fitting.

    The penalized least-squares fit of the covariate density ratio has the
    representer form w(.) = sum_train alpha_i K(X_i, .) +
    (1/(lambda n0)) sum_calib K(X_i, .), where the dual coefficients solve

        (K11 / n1 + lambda I) alpha = -K01^T 1 / (lambda n0 n1)

    (the stationarity condition of the primal objective); the system is
    solved by dense Cholesky.
    """
    x1 = data.x[data.s == 1]
    x0 = data.x[data.s == 0]
    n1, n0 = x1.shape[0], x0.shape[0]
    bandwidth = spec.bandwidth
    if spec.family == "rbf" and bandwidth is None:
        bandwidth = median_bandwidth(data.x)
    lam = spec.ridge if spec.ridge is not None else 1.0 / min(n1, n0)

    k11 = _kernel_matrix(spec.family, bandwidth, x1, x1)
    k01 = _kernel_matrix(spec.family, bandwidth, x0, x1)
    lhs = k11 / n1 + lam * np.eye(n1)
    rhs = -k01.sum(axis=0) / (lam * n0 * n1)
    alpha = _solve_spd(lhs, rhs, "KuLSIF dual")
    residual = float(np.max(np.abs(lhs @ alpha - rhs)))
    if residual > 1e-8:
        raise SolveFailure(f"KuLSIF dual residual {residual:.2e} exceeds 1e-8")

    # the representer form at the training rows: K11 alpha + K01^T 1 / (lambda n0)
    n_truncated = int(np.sum(k11 @ alpha - n1 * rhs < 0.0))
    return WeightModel(
        backend="kulsif",
        evaluator=KulsifWeightFn(
            train_x=x1, calib_x=x0, alpha=alpha, lam=lam, family=spec.family, bandwidth=bandwidth
        ),
        info={
            "lambda": lam,
            "family": spec.family,
            "bandwidth": bandwidth,
            "dual_residual": residual,
            "train_negative_truncated": n_truncated,
        },
    )


# ---------------------------------------------------------------------------
# Instruments and entropy balancing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantInstrument:
    name: str = "const"

    def __call__(self, x: NDArray) -> NDArray:
        return np.ones(x.shape[0])


@dataclass(frozen=True)
class CoordinateInstrument:
    index: int

    @property
    def name(self) -> str:
        return f"x_{self.index + 1}"

    def __call__(self, x: NDArray) -> NDArray:
        return x[:, self.index]


@dataclass(frozen=True, eq=False)
class FunctionInstrument:
    fn: Callable[[NDArray], NDArray]
    name: str

    def __call__(self, x: NDArray) -> NDArray:
        return np.asarray(self.fn(x), dtype=float)


@dataclass(frozen=True, eq=False)
class InstrumentSet:
    """Deterministic covariate functions used as balancing conditions.

    When ``includes_constant`` is true the first function must be the
    constant 1 (its balance condition is enforced by weight normalization).
    """

    functions: tuple
    includes_constant: bool

    def __post_init__(self):
        if len(self.functions) < 1:
            raise InvalidConfig("instrument set must contain at least one function")

    @property
    def names(self) -> list[str]:
        return [getattr(f, "name", f"g_{j}") for j, f in enumerate(self.functions)]

    def evaluate(self, x: NDArray) -> NDArray:
        x = _as_matrix(x)
        return np.column_stack([f(x) for f in self.functions])

    @staticmethod
    def default(p: int) -> "InstrumentSet":
        """Constant plus the raw coordinates."""
        fns = (ConstantInstrument(),) + tuple(CoordinateInstrument(j) for j in range(p))
        return InstrumentSet(functions=fns, includes_constant=True)


@dataclass(frozen=True, eq=False)
class EntropyBalanceWeightFn:
    """w(x) = n1 * exp(lambda . g(x)) / sum_train exp(lambda . g(X_j))."""

    instruments: InstrumentSet
    lam: NDArray  # coefficients for the non-constant instruments
    log_denom: float
    n1: int

    def __call__(self, x: NDArray) -> NDArray:
        g = self.instruments.evaluate(x)
        if self.instruments.includes_constant:
            g = g[:, 1:]
        return self.n1 * np.exp(g @ self.lam - self.log_denom)


def fit_weights_entropy_balancing(
    data: PooledDataset,
    instruments: InstrumentSet,
    max_iter: int = 100,
    grad_tol: float = 1e-10,
) -> WeightModel:
    """Entropy-balancing weights via damped Newton on the strictly convex dual.

    The returned training-row weights W_i are strictly positive, sum to one,
    and satisfy every balancing condition to within 1e-8. The weight model
    evaluates the n1-rescaled exponential-tilt form at arbitrary covariates.
    """
    x1 = data.x[data.s == 1]
    x0 = data.x[data.s == 0]
    n1 = x1.shape[0]
    g1_full = instruments.evaluate(x1)
    g0bar_full = instruments.evaluate(x0).mean(axis=0)
    names = instruments.names

    if instruments.includes_constant:
        if not np.allclose(g1_full[:, 0], 1.0) or not np.isclose(g0bar_full[0], 1.0):
            raise InvalidConfig(
                "includes_constant requires the first instrument to be identically 1"
            )
        g1, g0bar = g1_full[:, 1:], g0bar_full[1:]
        free_names = names[1:]
    else:
        g1, g0bar = g1_full, g0bar_full
        free_names = names

    # the calibration moment must lie inside the per-coordinate training range
    lo, hi = g1.min(axis=0), g1.max(axis=0)
    outside = (g0bar < lo) | (g0bar > hi)
    if outside.any():
        j = int(np.argmax(outside))
        raise InfeasibleBalance(
            f"calibration moment for instrument {free_names[j]!r} "
            f"({g0bar[j]:.6g}) lies outside the training range [{lo[j]:.6g}, {hi[j]:.6g}]",
            coordinate=free_names[j],
        )

    from scipy.linalg import cho_factor, cho_solve

    m = g1.shape[1]
    lam = np.zeros(m)
    converged = False
    it = 0

    def dual(lam_vec: NDArray) -> float:
        return float(logsumexp(g1 @ lam_vec) - lam_vec @ g0bar)

    f_val = dual(lam)
    grad_norm = np.inf
    for it in range(1, max_iter + 1):
        z = g1 @ lam
        z -= z.max()
        wts = np.exp(z)
        wts /= wts.sum()
        mean_g = g1.T @ wts
        grad = mean_g - g0bar
        grad_norm = float(np.max(np.abs(grad)))
        if grad_norm <= grad_tol:
            converged = True
            break
        centered = g1 - mean_g
        hess = centered.T @ (centered * wts[:, None])
        try:
            step = cho_solve(cho_factor(hess, lower=True), grad)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(hess, grad, rcond=None)
        if grad_norm <= 1e-6:
            # quadratic-convergence region: the Armijo decrease is below
            # float resolution, take the full Newton step
            lam = lam - step
        else:
            t = 1.0
            slack = 4e-16 * max(1.0, abs(f_val))
            for _ in range(50):
                f_new = dual(lam - t * step)
                if f_new <= f_val - 1e-4 * t * float(grad @ step) + slack:
                    break
                t *= 0.5
            lam = lam - t * step
        f_val = dual(lam)
        if np.linalg.norm(lam) > 1e6:
            break

    z = g1 @ lam
    log_denom = float(logsumexp(z))
    wts = np.exp(z - log_denom)
    residual_full = g1_full.T @ wts - g0bar_full
    if np.max(np.abs(residual_full)) > 1e-8:
        j = int(np.argmax(np.abs(residual_full)))
        raise InfeasibleBalance(
            f"entropy balancing failed to satisfy the moment constraints; worst "
            f"residual {residual_full[j]:.3e} on instrument {names[j]!r} "
            f"(calibration moment at or outside the convex hull)",
            coordinate=names[j],
        )

    if instruments.includes_constant:
        tilt = np.concatenate([[np.log(n1) - log_denom], lam])
    else:
        tilt = lam.copy()
    return WeightModel(
        backend="eb",
        evaluator=EntropyBalanceWeightFn(
            instruments=instruments, lam=lam, log_denom=log_denom, n1=n1
        ),
        info={
            "lambda": lam.tolist(),
            "tilt": tilt.tolist(),
            "iterations": it,
            "converged": converged,
            "max_balance_residual": float(np.max(np.abs(residual_full))),
            "instrument_names": names,
        },
    )


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------


def check_balance(
    weights: WeightModel, data: PooledDataset, instruments: InstrumentSet
) -> NDArray:
    """Balancing residuals r_j = sum_train W_i g_j(X_i) - mean_calib g_j(X_i).

    Uses W_i = w(X_i) / n1; for entropy balancing this reproduces the fitted
    normalized weights.
    """
    x1 = data.x[data.s == 1]
    x0 = data.x[data.s == 0]
    w = np.asarray(weights(x1), dtype=float) / x1.shape[0]
    g1 = instruments.evaluate(x1)
    g0bar = instruments.evaluate(x0).mean(axis=0)
    return g1.T @ w - g0bar


@dataclass(frozen=True, eq=False)
class PositivityReport:
    tau: float
    delta: float
    n_rows: int
    n_flagged_propensity: int
    n_flagged_selection: int
    worst_propensity: list  # (row index, min arm probability)
    worst_selection: list  # (row index, min stratum probability)

    def to_json_dict(self) -> dict:
        return {
            "tau": self.tau,
            "delta": self.delta,
            "n_rows": self.n_rows,
            "n_flagged_propensity": self.n_flagged_propensity,
            "n_flagged_selection": self.n_flagged_selection,
            "worst_propensity": [[int(i), float(v)] for i, v in self.worst_propensity],
            "worst_selection": [[int(i), float(v)] for i, v in self.worst_selection],
        }


def check_positivity(
    nuisances: NuisanceSet,
    data: PooledDataset,
    tau: float = 0.05,
    delta: float = 0.05,
    n_worst: int = 5,
) -> PositivityReport:
    """Flag rows whose fitted propensities or implied selection probabilities
    fall below the positivity thresholds. Diagnostic only; never raises.

    Propensities are scored only on rows with observed (a, y), since a
    Type-2 fit has no calibration-stratum model; reported row indices are
    positions in ``data``.
    """
    obs_rows = np.flatnonzero(data.observed)
    p1 = nuisances.propensity.prob(1, data.x[obs_rows], data.s[obs_rows])
    min_arm = np.minimum(p1, 1.0 - p1)
    flagged_prop = min_arm < tau

    w = np.asarray(nuisances.weight(data.x), dtype=float)
    rho = nuisances.rho_hat
    odds0 = w * (1.0 - rho) / rho  # pi_S(0|x) / pi_S(1|x)
    pi_s1 = 1.0 / (1.0 + odds0)
    min_stratum = np.minimum(pi_s1, 1.0 - pi_s1)
    flagged_sel = min_stratum < delta

    order_prop = np.argsort(min_arm)[:n_worst]
    order_sel = np.argsort(min_stratum)[:n_worst]
    return PositivityReport(
        tau=tau,
        delta=delta,
        n_rows=data.n,
        n_flagged_propensity=int(flagged_prop.sum()),
        n_flagged_selection=int(flagged_sel.sum()),
        worst_propensity=[(int(obs_rows[i]), float(min_arm[i])) for i in order_prop],
        worst_selection=[(int(i), float(min_stratum[i])) for i in order_sel],
    )


# ---------------------------------------------------------------------------
# Oracle nuisances and simulation truth
# ---------------------------------------------------------------------------


def gaussian_oracle_nuisances(config: SimulationConfig, rho_hat: float) -> NuisanceSet:
    """Oracle nuisance set for the Gaussian-shift design: the true weight,
    the constant randomization propensity, and the true linear outcome."""
    weight = WeightModel(
        backend="oracle",
        evaluator=GaussianShiftWeightFn(mu=config.mu),
        info={"mu": config.mu.tolist()},
    )
    propensity = PropensityModel(
        evaluator=ConstantPropensityFn(p1=config.propensity),
        clip=0.0,
        info={"model": "oracle", "p1": config.propensity},
    )
    outcome = OutcomeModel(
        evaluator=LinearQModel(beta=config.outcome_coeffs, p=config.p),
        info={"model": "oracle", "coef": config.outcome_coeffs.tolist()},
    )
    return NuisanceSet(weight=weight, propensity=propensity, outcome=outcome, rho_hat=rho_hat)


@dataclass(frozen=True, eq=False)
class GaussianSampler:
    mean: NDArray

    def __call__(self, rng: np.random.Generator, size: int) -> NDArray:
        return rng.standard_normal((size, self.mean.shape[0])) + self.mean


@dataclass(frozen=True, eq=False)
class ConstantSigma2:
    value: float

    def __call__(self, x: NDArray, s, a) -> NDArray:
        return np.full(_as_matrix(x).shape[0], self.value)


@dataclass(frozen=True, eq=False)
class SimulationTruth:
    """Everything the closed-form variance integrals need: oracle nuisances,
    the conditional outcome variance, and per-stratum covariate samplers."""

    nuisances: NuisanceSet
    sigma2: Callable  # (x, s, a) -> conditional Var[Y(a) | X=x, S=s]
    sample_training: Callable  # (rng, size) -> covariate draws given S=1
    sample_calibration: Callable  # (rng, size) -> covariate draws given S=0
    rho_s: float


def gaussian_shift_truth(config: SimulationConfig) -> SimulationTruth:
    return SimulationTruth(
        nuisances=gaussian_oracle_nuisances(config, rho_hat=config.rho_s),
        sigma2=ConstantSigma2(value=config.noise_sd**2),
        sample_training=GaussianSampler(mean=config.mu),
        sample_calibration=GaussianSampler(mean=np.zeros(config.p)),
        rho_s=config.rho_s,
    )
