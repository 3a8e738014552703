"""Nuisance functions: covariate weights, treatment propensity, outcome regression.

Three interchangeable weight backends are provided, all returning a
:class:`WeightModel` that evaluates the estimated density ratio of
calibration-to-training covariates at arbitrary points:

* ``aipsw``  -- logistic regression of the selection indicator on covariates,
  converted to weights via the selection odds;
* ``kulsif`` -- kernel-based unconstrained least-squares importance fitting,
  solved in closed form through its ridge-regularized dual;
* ``eb``     -- entropy balancing: minimum Kullback-Leibler weights that
  balance the moments [1, x] exactly, solved by damped Newton on the dual.

Training-row weights are the weight function evaluated at the training
rows. The dense-kernel fits (KuLSIF weights, kernel ridge outcome) share
one ridge solve, ``_fit_expansion``, and one representer expansion,
``_KernelExpansion``, which keeps K alpha at its own fit rows from the
kernel matrix the fit already built; with the rbf kernel it uses it, bit
for bit equal to a fresh kernel evaluation, when evaluated at exactly
those rows. The aipsw selection model and the treatment propensity
(fitted in every stratum with observed (a, y)) are one logistic model on
[1, x]: one Newton fit, ``_fit_logistic``, and one evaluator,
``_logistic``. The fit reads the rank of [1, x] from the diagonal of its QR
R factor, and its log-likelihood, written with the softplus
max(eta, 0) + log1p(e^-|eta|), only steers the halving line search: it is
never reported. Dense kernel systems are solved by Cholesky, and every
solve warns when the 1-norm condition estimate from the Cholesky factor
exceeds 1e12, at any size; a system whose 1-norm or right-hand side is
not finite raises ``SolveFailure``, and that 1-norm is the only
finiteness scan of the matrix. The dense-kernel linear algebra runs on
scipy's BLAS: numpy and scipy each bundle an OpenBLAS whose idle workers
spin, so K alpha products on numpy's between scipy's Cholesky solves
would leave the two pools fighting over the cores. ``_kernel_matvec``
keeps them on scipy's, bit for bit equal to numpy's product; only the
linear kernel's Gram matrix, which scipy's products round otherwise,
stays on numpy's. The median-distance bandwidth selects its
order statistics in one partition. A dense-kernel fit whose matrices
would exceed the least of physical memory, the cgroup memory limit less
its working set and ``RLIMIT_AS`` less the mapped address space raises
``KernelTooLarge`` before it allocates any of them. Only the dense-kernel
backends load scipy, on first use: ``scipy.linalg`` for their solves and
products, ``scipy.spatial`` (which loads ``scipy.special``) for their
distances. The logistic, linear and entropy-balancing fits run on numpy
alone; the logistic ones use a numpy form of scipy's ``expit`` and round as
numpy's SIMD ``exp`` does on the machine. Both Newton line searches, the
logistic and the entropy-balancing one, keep the last candidate they
evaluate.

Fitted models are immutable and safe to share across threads.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .data_model import (
    DatasetKind,
    LinearQModel,
    PooledDataset,
    SimulationConfig,
    _as_matrix,
    true_weight_gaussian,
)
from .errors import (
    DimensionMismatch,
    InfeasibleBalance,
    InvalidConfig,
    KernelTooLarge,
    MissingStratum,
    NonFiniteValue,
    NoObservedOutcomes,
    RankDeficient,
    Separation,
    SolveFailure,
)

__all__ = [
    "KernelSpec",
    "PropensityModel",
    "OutcomeModel",
    "WeightModel",
    "NuisanceSet",
    "fit_propensity_logistic",
    "fit_outcome_regression",
    "fit_weights_aipsw",
    "fit_weights_kulsif",
    "fit_weights_entropy_balancing",
    "gaussian_oracle_nuisances",
]

TAU_CLIP = 1e-3  # clip for fitted treatment propensities
DELTA_CLIP = 1e-3  # clip for the aipsw selection probabilities

_COND_WARN = 1e12
_BANDWIDTH_ROWS = 2000  # rows the median-distance bandwidth is taken over
_NEWTON_MAX_ITER = 50  # logistic Newton iterations
_NEWTON_TOL = 1e-10  # logistic stop: max |gradient| / n
_EB_MAX_ITER = 100  # entropy-balancing Newton iterations
_EB_GRAD_TOL = 1e-10  # entropy-balancing stop: max |dual gradient|


def _physical_memory() -> float:
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf: no cap
        return float("inf")


def _read_int(path: str, key: str | None = None) -> int | None:
    """The first field of a file, or the field after ``key`` (a cgroup
    ``memory.stat`` line), as an integer; None when the file is unreadable,
    the key is absent or the field is not an integer (a cgroup's ``max``)."""
    try:
        with open(path) as f:
            fields = f.read().split()
        return int(fields[fields.index(key) + 1] if key else fields[0])
    except (OSError, ValueError, IndexError):
        return None


def _cgroup_headroom(proc: str = "/proc/self/cgroup", root: str = "/sys/fs/cgroup") -> float:
    """The least limit less working set over this process's cgroup and its
    ancestors. The limit is v2 ``memory.max`` or v1 ``memory.limit_in_bytes``
    (``max`` or unreadable: none). The working set, as the kubelet counts it,
    is the usage (``memory.current``, ``memory.usage_in_bytes``) less the file
    cache the kernel reclaims under pressure (``memory.stat`` ``inactive_file``,
    v1 ``total_inactive_file``), and 0 when either is unreadable."""
    headroom = [float("inf")]
    try:
        with open(proc) as f:
            lines = f.read().splitlines()
    except OSError:
        lines = []
    for line in lines:
        controllers, _, path = line.partition(":")[2].partition(":")
        if controllers == "":
            base, names = root, ("memory.max", "memory.current", "inactive_file")
        elif "memory" in controllers.split(","):
            base = os.path.join(root, "memory")
            names = ("memory.limit_in_bytes", "memory.usage_in_bytes", "total_inactive_file")
        else:
            continue
        limit_name, usage_name, cache_key = names
        parts = [part for part in path.split("/") if part]
        for depth in range(len(parts) + 1):
            level = os.path.join(base, *parts[:depth])
            limit = _read_int(os.path.join(level, limit_name))
            usage = _read_int(os.path.join(level, usage_name))
            cache = _read_int(os.path.join(level, "memory.stat"), cache_key)
            if limit is not None:
                working_set = 0 if usage is None or cache is None else max(usage - cache, 0)
                headroom.append(limit - working_set)
    return min(headroom)


def _address_space_headroom(statm: str = "/proc/self/statm") -> float:
    """The soft ``RLIMIT_AS`` less the address space already mapped (the first
    field of ``statm``, in pages), inf when unlimited or not available; an
    unreadable size counts as 0."""
    try:
        import resource
    except ImportError:
        return float("inf")
    soft = resource.getrlimit(resource.RLIMIT_AS)[0]
    if soft == resource.RLIM_INFINITY:
        return float("inf")
    return soft - (_read_int(statm) or 0) * resource.getpagesize()


def _memory_cap() -> float:
    """Bytes the dense kernel matrices may take: the least of physical memory
    and the cgroup and RLIMIT_AS headroom, read (never set) at each call."""
    return min(_physical_memory(), _cgroup_headroom(), _address_space_headroom())


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
        if self.bandwidth is not None:
            _check_bandwidth(self.bandwidth, "kernel bandwidth")
        if self.ridge is not None:
            if not -np.inf < self.ridge < np.inf:
                raise NonFiniteValue(f"ridge penalty {self.ridge!r} is not finite")
            if not self.ridge > 0:
                raise InvalidConfig("ridge penalty must be > 0")


def _check_bandwidth(bandwidth: float, what: str) -> float:
    """Return ``bandwidth``, given or derived from the data, if it is finite,
    positive and its rbf divisor 2 * bandwidth**2 neither underflows to 0 nor
    overflows; raise otherwise, naming it ``what``."""
    if not -np.inf < bandwidth < np.inf:  # also exact for an int beyond float range
        raise NonFiniteValue(f"{what} {bandwidth!r} is not finite")
    if not bandwidth > 0:
        raise InvalidConfig(f"{what} must be > 0")
    try:  # the rbf kernel's divisor, as _kernel_matrix computes it
        in_range = 0 < 2.0 * bandwidth**2 < np.inf
    except OverflowError:  # a Python float's ** raises where numpy's gives inf
        in_range = False
    if not in_range:
        raise InvalidConfig(
            f"{what} {bandwidth!r} is out of range: 2 * bandwidth**2 underflows to 0 or overflows"
        )
    return bandwidth


def _kernel_matrix(family: str, bandwidth: float | None, xa: NDArray, xb: NDArray) -> NDArray:
    if family == "linear":
        return xa @ xb.T
    from scipy.spatial.distance import cdist

    # in place, and exact: (-a) / c == a / (-c)
    k = cdist(xa, xb, metric="sqeuclidean")
    np.divide(k, -2.0 * bandwidth**2, out=k)
    return np.exp(k, out=k)


def _kernel_matvec(k: NDArray, v: NDArray) -> NDArray:
    """``k @ v`` for a C-order kernel matrix ``k``, on scipy's BLAS, which
    factors and solves the dense-kernel systems (see the module docstring).

    From 2 rows on, ?gemv on the Fortran-order view ``k.T`` equals numpy's
    ``k @ v`` bit for bit; numpy computes a 1-row product as a dot product,
    which rounds otherwise, so fewer rows keep numpy's.
    """
    if k.shape[0] < 2:
        return k @ v
    from scipy.linalg.blas import dgemv

    return dgemv(1.0, k.T, v, trans=1)


def _check_kernel_memory(n_floats: int, context: str) -> None:
    """Raise KernelTooLarge when ``n_floats`` float64 values, the most a
    dense-kernel fit holds at once, exceed ``_memory_cap()``."""
    need, cap = 8 * n_floats, _memory_cap()
    if need > cap:
        raise KernelTooLarge(
            f"{context} needs {need / 2**20:.1f} MiB of dense kernel matrices, more than the "
            f"{cap / 2**20:.1f} MiB headroom (least of physical memory, cgroup and RLIMIT_AS)"
        )


def median_bandwidth(x: NDArray) -> float:
    """Median pairwise Euclidean distance, 1.0 if degenerate.

    Above 2000 rows the distances are those among 2000 evenly spaced
    rows of the lexicographically sorted matrix, so the bandwidth does not
    depend on the row order. The median is found by one in-place selection
    at k = m // 2 of the m distances: ``d[k]`` for odd m, and for even m
    ``(d[:k].max() + d[k]) / 2.0``, the two order statistics and the sum and
    divide that ``np.median`` (which selects both) returns, bit for bit.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[0] > _BANDWIDTH_ROWS:
        picks = np.arange(_BANDWIDTH_ROWS) * x.shape[0] // _BANDWIDTH_ROWS
        x = x[np.lexsort(x.T[::-1])[picks]]
    if x.shape[0] < 2:
        return 1.0
    from scipy.spatial.distance import pdist

    d = pdist(x)
    k = d.size // 2
    d.partition(k)
    med = float(d[k] if d.size % 2 else (d[:k].max() + d[k]) / 2.0)
    return med if med > 0 else 1.0


def _solve_spd(matrix: NDArray, rhs: NDArray, context: str) -> NDArray:
    """Dense Cholesky solve with a condition-number warning above 1e12.

    A Fortran-order ``matrix`` is overwritten by its Cholesky factor; any
    other is copied first. A system whose 1-norm or right-hand side is not
    finite raises ``SolveFailure``: LAPACK's ?lange propagates NaN and inf
    into the 1-norm, so that one O(m^2) pass, which the condition estimate
    needs anyway, stands in for scipy's finiteness scans of the matrix and
    of its factor. The condition number is LAPACK's O(m^2) 1-norm estimate
    from the Cholesky factor (?pocon; Hager 1984, Higham 1988), checked at
    every size.
    """
    from scipy.linalg import cho_factor, cho_solve
    from scipy.linalg.lapack import dlange, dpocon

    norm1 = dlange("1", matrix)  # before the factor overwrites it; no n^2 temporary
    if not np.isfinite(norm1):
        raise SolveFailure(f"{context}: matrix not finite (1-norm {norm1:.2e})")
    if not np.isfinite(rhs).all():
        raise SolveFailure(f"{context}: right-hand side not finite")
    try:
        factor = cho_factor(matrix, lower=True, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError as e:
        raise SolveFailure(f"{context}: {e}") from e
    rcond, _ = dpocon(factor[0], norm1, uplo="L")
    cond = 1.0 / rcond if rcond > 0 else np.inf
    if cond > _COND_WARN:
        warnings.warn(f"{context}: condition number {cond:.2e}", stacklevel=4)
    return cho_solve(factor, rhs, check_finite=False)


# ---------------------------------------------------------------------------
# Model containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ConstantPropensityFn:
    p1: float

    def prob1(self, x: NDArray, s: int) -> NDArray:
        return np.full(x.shape[0], self.p1)


@dataclass(frozen=True, eq=False)
class LogisticPropensityFn:
    """Per-stratum logistic models: P(A=1 | x, s) = expit([1, x] @ coef[s]),
    clipped to [TAU_CLIP, 1 - TAU_CLIP]."""

    coef: dict

    def prob1(self, x: NDArray, s: int) -> NDArray:
        if s not in self.coef:
            raise MissingStratum(f"no propensity model fitted for stratum s={s}")
        return np.clip(_logistic(self.coef[s], x), TAU_CLIP, 1.0 - TAU_CLIP)


@dataclass(frozen=True, eq=False)
class PropensityModel:
    """Treatment-assignment model pi_A(a | x, s) of one stratum s, in (0, 1).

    ``prob(1, x, s) + prob(-1, x, s) = 1`` holds exactly for every query.
    """

    evaluator: object
    info: dict = field(default_factory=dict)

    def prob(self, a, x: NDArray, s: int) -> NDArray:
        if np.ndim(s) != 0:
            raise DimensionMismatch(f"prob takes one stratum, not strata of shape {np.shape(s)}")
        x = _as_matrix(x)
        p1 = np.asarray(self.evaluator.prob1(x, s), dtype=float)
        a = np.asarray(a)
        return np.where(a == 1, p1, 1.0 - p1)


@dataclass(frozen=True, eq=False)
class _KernelExpansion:
    """The representer expansion x -> K(x, anchors) @ alpha of a dense-kernel
    fit, with ``fitted`` = K(anchors, anchors) @ alpha as the fit computed it.

    Evaluated at exactly its anchors with the rbf kernel, it returns
    ``fitted``, which a fresh evaluation equals bit for bit: rbf's cdist is
    the same for any copy of x. The linear kernel always builds: numpy
    computes x @ x.T as a symmetric rank-k update, which rounds otherwise
    than the general product of a copy with x.T.
    """

    family: str
    bandwidth: float | None
    anchors: NDArray
    alpha: NDArray
    fitted: NDArray

    def __call__(self, x: NDArray) -> NDArray:
        if self.family == "rbf" and np.array_equal(x, self.anchors):
            return self.fitted
        kmat = _kernel_matrix(self.family, self.bandwidth, x, self.anchors)
        return _kernel_matvec(kmat, self.alpha)


def _fit_expansion(
    family: str, bandwidth: float | None, x: NDArray, divisor: float, diagonal: float,
    rhs: NDArray, context: str,
) -> _KernelExpansion:
    """Solve (K / divisor + diagonal I) alpha = rhs with K = K(x, x) by
    ``_solve_spd``; K is freed on return.

    The system is one new array, ``K / divisor`` plus ``diagonal`` on its
    diagonal, whose Fortran-order view the Cholesky factor overwrites in
    place. It equals ``K / divisor + diagonal * np.eye(m)`` bit for bit:
    adding 0.0 off the diagonal is exact. K is symmetric bit for bit (each
    entry is a symmetric function of its two rows, and numpy computes
    x @ x.T as a symmetric rank-k update), so its transpose is the same
    matrix and LAPACK reads the values a Fortran-order copy would hold.
    """
    kmat = _kernel_matrix(family, bandwidth, x, x)
    lhs = kmat / divisor
    lhs.flat[:: lhs.shape[0] + 1] += diagonal
    alpha = _solve_spd(lhs.T, rhs, context)
    return _KernelExpansion(family, bandwidth, x, alpha, _kernel_matvec(kmat, alpha))


@dataclass(frozen=True, eq=False)
class KernelRidgeQModel:
    """Per-arm kernel ridge fits, each the representer expansion over its
    arm's fit rows; a treatment other than -1 or +1 is refused."""

    arms: dict  # a -> _KernelExpansion

    def __call__(self, x: NDArray, a) -> NDArray:
        a_arr = np.broadcast_to(np.asarray(a), (x.shape[0],))
        masks = {arm: a_arr == arm for arm in (-1, 1)}
        if not (masks[-1] | masks[1]).all():
            raise InvalidConfig("kernel ridge Q(x, a) needs treatments a of +1 or -1")
        out = np.empty(x.shape[0])
        for arm, mask in masks.items():
            if mask.any():
                out[mask] = self.arms[arm](x[mask])
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
    weights. With the rbf kernel, the KuLSIF evaluator uses the K11 alpha of
    its fit when evaluated at exactly the training rows.
    """

    backend: str  # "oracle" | "aipsw" | "kulsif" | "eb"
    evaluator: Callable[[NDArray], NDArray]
    info: dict = field(default_factory=dict)

    def __call__(self, x: NDArray) -> NDArray:
        return np.asarray(self.evaluator(_as_matrix(x)), dtype=float)


@dataclass(frozen=True, eq=False)
class NuisanceSet:
    """The weight / propensity / outcome triple."""

    weight: WeightModel
    propensity: PropensityModel
    outcome: OutcomeModel

    def provenance(self) -> dict:
        return {
            "weights": self.weight.backend,
            "propensity": self.propensity.info.get("model", "oracle"),
            "outcome": self.outcome.info.get("model", "oracle"),
        }


# ---------------------------------------------------------------------------
# Logistic regression by Newton / IRLS
# ---------------------------------------------------------------------------


def _expit(z: NDArray) -> NDArray:
    """1 / (1 + exp(-z)), scipy's ``expit`` formula on numpy's ``exp``: exactly
    0 and 1 far in the tails, where ``exp(-z)`` overflows silently."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def _logistic(coef: NDArray, x: NDArray) -> NDArray:
    """expit([1, x] @ coef), the one evaluator of a fitted logistic model."""
    return _expit(coef[0] + x @ coef[1:])


def _softplus(eta: NDArray) -> NDArray:
    """log(1 + e^eta) as max(eta, 0) + log1p(e^-|eta|): within 2 ulps of
    ``np.logaddexp(0, eta)``, on numpy's SIMD ``exp`` and ``log1p`` loops
    where ``logaddexp`` runs a scalar one, and silent in both tails, where
    e^-|eta| <= 1 cannot overflow."""
    return np.maximum(eta, 0.0) + np.log1p(np.exp(-np.abs(eta)))


def _log_likelihood(design: NDArray, b: NDArray, beta: NDArray) -> tuple:
    """The Bernoulli log-likelihood at ``beta`` and the linear predictor it read."""
    eta = design @ beta
    return float(np.sum(b * eta - _softplus(eta))), eta


def _fit_logistic(x: NDArray, b: NDArray):
    """Maximize the Bernoulli log-likelihood of ``b`` on [1, x] by Newton with
    a halving line search over the steps 0.5**k, k < 40; returns (coef, info).

    The likelihood only steers the line search (a step is taken once it does
    not fall by more than 1e-12), so the iterates, their count and the
    coefficients move with its rounding only where a comparison lands within
    rounding of that margin.

    Raises ``RankDeficient`` when the n x q design [1, x] does not have full
    column rank: n < q, or, on the diagonal of the R factor of its QR
    decomposition, min |R_ii| <= max |R_jj| * max(n, q) * eps. Raises
    ``Separation`` when the data are (quasi-)separated and the likelihood has
    no finite maximizer.
    """
    n, q = x.shape[0], x.shape[1] + 1
    design = np.empty((n, q))
    design[:, 0], design[:, 1:] = 1.0, x
    r_ii = np.abs(np.linalg.qr(design, mode="r").diagonal())
    if n < q or r_ii.min() <= r_ii.max() * max(n, q) * np.finfo(float).eps:
        raise RankDeficient("design matrix is rank deficient")
    sign = 2.0 * b - 1.0
    beta = np.zeros(q)
    ll, eta = _log_likelihood(design, b, beta)
    converged = False
    it = 0
    for it in range(1, _NEWTON_MAX_ITER + 1):
        pr = _expit(eta)
        grad = design.T @ (b - pr)
        if np.abs(grad).max() / n <= _NEWTON_TOL:
            converged = True
            break
        wvar = pr * (1.0 - pr)
        aligned = (sign * eta >= 0.0).all()
        if aligned and (wvar.min() < 1e-12 or np.linalg.norm(beta) > 1e4):
            raise Separation("perfect separation: likelihood has no finite maximizer")
        hess = design.T @ (design * wvar[:, None])
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            raise Separation("singular Hessian during Newton iteration") from None
        # if no candidate passes, beta takes the last one evaluated
        for k in range(40):
            cand = beta + 0.5**k * step
            ll_new, eta_new = _log_likelihood(design, b, cand)
            if ll_new >= ll - 1e-12:
                break
        beta, ll, eta = cand, ll_new, eta_new
    if not converged and (sign * eta >= 0.0).all() and np.linalg.norm(beta) > 1e2:
        raise Separation("Newton iterations diverged (separated data)")
    return beta, {"iterations": it, "converged": converged}


def fit_propensity_logistic(data: PooledDataset) -> PropensityModel:
    """Logistic regression of 1[A = 1] on (1, x), fitted separately in every
    stratum with observed (a, y): s = 1, then s = 0 on Type-1 data.

    Predictions are clipped to [TAU_CLIP, 1 - TAU_CLIP]. ``info["strata"]``
    holds each stratum's Newton iterations and convergence.
    """
    coef, strata = {}, {}
    observed_strata = (1, 0) if data.kind is DatasetKind.TYPE1 else (1,)
    for stratum, rows in zip(observed_strata, (data.train, data.calib)):
        coef[stratum], strata[str(stratum)] = _fit_logistic(
            data.x[rows], (data.a[rows] == 1).astype(float)
        )
    return PropensityModel(
        evaluator=LogisticPropensityFn(coef),
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
    x, a, y = data.x[obs], data.a[obs], data.y[obs]

    if method == "linear":
        design = np.column_stack([np.ones(x.shape[0]), x, a, x * a[:, None]])
        beta, residuals, rank, _ = np.linalg.lstsq(design, y, rcond=None)
        if rank < design.shape[1]:
            raise RankDeficient("outcome design matrix is rank deficient")
        return OutcomeModel(
            evaluator=LinearQModel(beta=beta),
            info={"model": "linear", "coef": beta.tolist()},
        )

    if method == "kernel_ridge":
        if spec is None:
            raise InvalidConfig("kernel_ridge requires a KernelSpec")
        # each arm holds its kernel matrix and the system's copy at once
        largest = max(int(np.sum(a == -1)), int(np.sum(a == 1)))
        _check_kernel_memory(2 * largest**2, "kernel ridge")
        bandwidth = spec.bandwidth
        if spec.family == "rbf" and bandwidth is None:
            bandwidth = _check_bandwidth(median_bandwidth(x), "median-distance bandwidth")
        arms = {}
        for arm in (-1, 1):
            mask = a == arm
            if not mask.any():
                raise NoObservedOutcomes(f"no observed outcomes for arm a={arm}")
            xa = x[mask]
            n_arm = xa.shape[0]
            lam = spec.ridge if spec.ridge is not None else 1.0 / n_arm
            arms[arm] = _fit_expansion(
                spec.family, bandwidth, xa, 1.0, n_arm * lam, y[mask], f"kernel ridge (arm {arm})"
            )
        return OutcomeModel(
            evaluator=KernelRidgeQModel(arms),
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

    def __call__(self, x: NDArray) -> NDArray:
        p1 = np.clip(_logistic(self.coef, x), DELTA_CLIP, 1.0 - DELTA_CLIP)
        return self.n1 * (1.0 - p1) / (self.n0 * p1)


def fit_weights_aipsw(data: PooledDataset) -> WeightModel:
    """Covariate weights from logistic regression of S on (1, x) over all rows."""
    beta, fit_info = _fit_logistic(data.x, data.s.astype(float))
    return WeightModel(
        backend="aipsw",
        evaluator=AipswWeightFn(coef=beta, n1=data.n1, n0=data.n0),
        info={"coef": beta.tolist(), "clip": DELTA_CLIP, **fit_info},
    )


@dataclass(frozen=True, eq=False)
class KulsifWeightFn:
    """Representer-form KuLSIF weight, the training-kernel expansion ``train``
    plus the calibration term K(x, calib_x) 1 / (lambda n0); negative
    predictions truncate to 0."""

    train: _KernelExpansion
    calib_x: NDArray
    lam: float

    def raw(self, x: NDArray) -> NDArray:
        k1_alpha = self.train(x)  # before K(x, x0): the two are never held at once
        k0 = _kernel_matrix(self.train.family, self.train.bandwidth, x, self.calib_x)
        return k1_alpha + k0.sum(axis=1) / (self.lam * self.calib_x.shape[0])

    def __call__(self, x: NDArray) -> NDArray:
        return np.maximum(self.raw(x), 0.0)


def fit_weights_kulsif(data: PooledDataset, spec: KernelSpec) -> WeightModel:
    """Kernel unconstrained least-squares importance fitting.

    The penalized least-squares fit of the covariate density ratio has the
    representer form w(.) = sum_train alpha_i K(X_i, .) +
    (1/(lambda n0)) sum_calib K(X_i, .), where the dual coefficients solve

        (K11 / n1 + lambda I) alpha = -K01^T 1 / (lambda n0 n1)

    (the stationarity condition of the primal objective); the system is
    solved by dense Cholesky. The fit keeps K11 alpha, the training-kernel
    term of the representer values at the training rows, and evaluation uses
    it with the rbf kernel (see ``_KernelExpansion``). It does not keep
    their calibration term: summed as an evaluation sums it, along rows of
    K(x1, x0) rather than down the columns of K01, it would cost every fit
    an n1 n0 kernel build that a cross-fit bag, evaluated out of bag, never
    reads. A ridge so small that lambda n0 n1 is subnormal overflows the
    right-hand side, which raises ``SolveFailure`` and no numpy warning.
    """
    x1 = data.x[data.train]
    x0 = data.x[data.calib]
    n1, n0 = x1.shape[0], x0.shape[0]
    # K(x0, x1), freed before K11 and the system's copy
    _check_kernel_memory(max(n0 * n1, 2 * n1**2), "KuLSIF")
    bandwidth = spec.bandwidth
    if spec.family == "rbf" and bandwidth is None:
        bandwidth = _check_bandwidth(median_bandwidth(data.x), "median-distance bandwidth")
    lam = spec.ridge if spec.ridge is not None else 1.0 / min(n1, n0)

    with np.errstate(over="ignore"):  # an inf rhs is refused by _solve_spd
        rhs = -_kernel_matrix(spec.family, bandwidth, x0, x1).sum(axis=0) / (lam * n0 * n1)
    train = _fit_expansion(spec.family, bandwidth, x1, n1, lam, rhs, "KuLSIF dual")
    residual = float(np.max(np.abs(train.fitted / n1 + lam * train.alpha - rhs)))
    if residual > 1e-8:
        raise SolveFailure(f"KuLSIF dual residual {residual:.2e} exceeds 1e-8")

    # the representer form at the training rows: K11 alpha + K01^T 1 / (lambda n0)
    n_truncated = int(np.sum(train.fitted - n1 * rhs < 0.0))
    return WeightModel(
        backend="kulsif",
        evaluator=KulsifWeightFn(train, x0, lam),
        info={
            "lambda": lam,
            "family": spec.family,
            "bandwidth": bandwidth,
            "dual_residual": residual,
            "train_negative_truncated": n_truncated,
        },
    )


# ---------------------------------------------------------------------------
# Entropy balancing
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EntropyBalanceWeightFn:
    """w(x) = n1 * exp(lambda . x) / sum_train exp(lambda . X_j)."""

    lam: NDArray  # coefficients of the coordinates
    log_denom: float
    n1: int

    def __call__(self, x: NDArray) -> NDArray:
        return self.n1 * np.exp(x @ self.lam - self.log_denom)


def fit_weights_entropy_balancing(data: PooledDataset) -> WeightModel:
    """Entropy-balancing weights on [1, x] (Hainmueller 2012) by damped Newton
    on the strictly convex dual, evaluating each iterate once.

    The training-row weights W_i are strictly positive, sum to one, and
    balance x to within 1e-8. The weight model evaluates the n1-rescaled
    exponential-tilt form at arbitrary covariates.
    """
    x1 = data.x[data.train]
    x0bar = data.x[data.calib].mean(axis=0)
    names = ["const"] + [f"x_{j + 1}" for j in range(data.p)]

    # the calibration moment must lie inside the per-coordinate training range
    lo, hi = x1.min(axis=0), x1.max(axis=0)
    outside = (x0bar < lo) | (x0bar > hi)
    if outside.any():
        j = int(np.argmax(outside))
        raise InfeasibleBalance(
            f"calibration moment for instrument {names[j + 1]!r} "
            f"({x0bar[j]:.6g}) lies outside the training range [{lo[j]:.6g}, {hi[j]:.6g}]",
            coordinate=names[j + 1],
        )

    def dual(lam_vec: NDArray) -> tuple:
        """The dual objective at ``lam_vec``, its log normalizer
        log sum_j exp(lam_vec . X_j) and the weights, which sum to one, from
        one product and one ``exp``; the accepted line-search candidate's
        weights give the next Newton system and the final balance check."""
        z = x1 @ lam_vec
        z_max = z.max()
        shifted = np.exp(z - z_max)
        total = shifted.sum()
        log_denom = float(z_max + np.log(total))
        return log_denom - float(lam_vec @ x0bar), log_denom, shifted / total

    lam = np.zeros(data.p)
    f_val, log_denom, w = dual(lam)
    converged = False
    it = 0
    # a diverging lambda overflows silently: a NaN dual value fails the Armijo
    # test, a non-finite system is refused, and a NaN residual is not balanced
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, _EB_MAX_ITER + 1):
            mean_g = x1.T @ w
            grad = mean_g - x0bar
            if np.max(np.abs(grad)) <= _EB_GRAD_TOL:
                converged = True
                break
            centered = x1 - mean_g
            hess = centered.T @ (centered * w[:, None])
            if not (np.isfinite(hess).all() and np.isfinite(grad).all()):
                raise SolveFailure(
                    f"entropy balancing: Newton system not finite at iteration {it}"
                )
            try:
                step = np.linalg.solve(hess, grad)
            except np.linalg.LinAlgError:  # an exactly singular Hessian
                step, *_ = np.linalg.lstsq(hess, grad, rcond=None)
            # Armijo halving from the full step, whose decrease the slack accepts
            # once it is below float resolution; if no candidate passes, lambda
            # takes the last one evaluated
            slack = 4e-16 * max(1.0, abs(f_val))
            slope = float(grad @ step)
            for k in range(50):
                t = 0.5**k
                candidate = lam - t * step
                evaluated = dual(candidate)
                if evaluated[0] <= f_val - 1e-4 * t * slope + slack:
                    break
            lam, (f_val, log_denom, w) = candidate, evaluated
            if np.linalg.norm(lam) > 1e6:
                break

    residual = np.concatenate([[w.sum() - 1.0], x1.T @ w - x0bar])
    worst = int(np.argmax(np.abs(residual)))
    if not abs(residual[worst]) <= 1e-8:
        raise InfeasibleBalance(
            f"entropy balancing failed to satisfy the moment constraints; worst "
            f"residual {residual[worst]:.3e} on instrument {names[worst]!r} "
            f"(calibration moment at or outside the convex hull)",
            coordinate=names[worst],
        )

    tilt = np.concatenate([[np.log(data.n1) - log_denom], lam])
    return WeightModel(
        backend="eb",
        evaluator=EntropyBalanceWeightFn(lam=lam, log_denom=log_denom, n1=data.n1),
        info={
            "lambda": lam.tolist(),
            "tilt": tilt.tolist(),
            "iterations": it,
            "converged": converged,
            "max_balance_residual": float(abs(residual[worst])),
            "instrument_names": names,
        },
    )


# ---------------------------------------------------------------------------
# Oracle nuisances
# ---------------------------------------------------------------------------


def gaussian_oracle_nuisances(config: SimulationConfig) -> NuisanceSet:
    """Oracle nuisance set for the Gaussian-shift design: the true weight,
    the constant randomization propensity, and the true linear outcome."""
    weight = WeightModel(
        backend="oracle",
        evaluator=GaussianShiftWeightFn(mu=config.mu),
        info={"mu": config.mu.tolist()},
    )
    propensity = PropensityModel(
        evaluator=ConstantPropensityFn(p1=config.propensity),
        info={"model": "oracle", "p1": config.propensity},
    )
    outcome = OutcomeModel(
        evaluator=LinearQModel(beta=config.outcome_coeffs),
        info={"model": "oracle", "coef": config.outcome_coeffs.tolist()},
    )
    return NuisanceSet(weight=weight, propensity=propensity, outcome=outcome)
