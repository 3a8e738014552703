"""Domain types, dataset validation (``PooledDataset.from_arrays``), JSON config
values, fold splitting, CSV interchange and the Gaussian-shift simulator.

A pooled dataset mixes rows from a training population (s = 1) and a
calibration/testing population (s = 0). Treatments a take values in {+1, -1}
and may be missing together with the outcome y on calibration rows, depending
on the dataset kind. ``PooledDataset.from_arrays`` is the one check of a
dataset's values; every estimator, the scalar EIF reference included, reads
the rows of a checked dataset, and its sampling rate n1/n.

All randomness flows through ``numpy.random.Generator`` seeded with PCG64
(``numpy.random.default_rng``), so every simulation is bitwise reproducible
from its seed.
"""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .errors import (
    DimensionMismatch,
    EmptyStratum,
    InvalidConfig,
    MissingnessMismatch,
    NonFiniteValue,
    StratumTooSmall,
)

__all__ = [
    "DatasetKind",
    "PooledDataset",
    "Policy",
    "LinearPolicy",
    "FunctionPolicy",
    "constant_policy",
    "SimulationConfig",
    "FoldAssignment",
    "simulate_gaussian_shift",
    "true_weight_gaussian",
    "split_cross_fit_folds",
    "read_dataset_csv",
    "write_dataset_csv",
]


class DatasetKind(enum.Enum):
    """Whether calibration rows carry observed treatments and outcomes."""

    TYPE1 = "type1"  # (a, y) observed on every row
    TYPE2 = "type2"  # (a, y) observed only where s = 1


def _as_matrix(x: NDArray) -> NDArray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return x[None, :]
    if x.ndim != 2:
        raise DimensionMismatch(f"covariates must be 1- or 2-dimensional, got ndim={x.ndim}")
    return x


@dataclass(frozen=True, eq=False)
class PooledDataset:
    """Immutable array-backed pooled dataset.

    Missing treatments/outcomes are held as NaN in the ``a``/``y`` arrays;
    the ``observed`` mask is the authoritative missingness indicator and all
    estimators consult it before touching ``a`` or ``y``.
    """

    x: NDArray  # (n, p)
    a: NDArray  # (n,)  values in {-1, +1} or NaN
    y: NDArray  # (n,)  float or NaN
    s: NDArray  # (n,)  values in {0, 1}
    kind: DatasetKind
    observed: NDArray = field(init=False)  # (n,) (a, y) observed
    n1: int = field(init=False)
    n0: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "observed", ~np.isnan(self.a))
        object.__setattr__(self, "n1", int(np.sum(self.s == 1)))
        object.__setattr__(self, "n0", self.x.shape[0] - self.n1)

    @classmethod
    def from_arrays(cls, x, a, y, s, kind: DatasetKind) -> "PooledDataset":
        x = np.ascontiguousarray(np.asarray(x, dtype=float))
        a = np.asarray(a, dtype=float).ravel()
        y = np.asarray(y, dtype=float).ravel()
        s = np.asarray(s).ravel()
        if x.ndim != 2:
            raise DimensionMismatch("covariate matrix must be 2-dimensional")
        n = x.shape[0]
        if not (a.shape[0] == y.shape[0] == s.shape[0] == n):
            raise DimensionMismatch("x, a, y, s must have one entry per row")
        if not np.all(np.isfinite(x)):
            raise DimensionMismatch("covariates contain missing coordinates")
        if not np.isin(s, (0, 1)).all():
            raise InvalidConfig("selection indicator must be 0 or 1 on every row")
        data = cls(x=x, a=a, y=y, s=s.astype(np.int64), kind=kind)
        s, observed = data.s, data.observed
        if np.any(observed != ~np.isnan(y)):
            raise MissingnessMismatch("treatment and outcome must be missing together")
        if not np.isin(a[observed], (-1.0, 1.0)).all():
            raise InvalidConfig("observed treatments must be +1 or -1")
        if not np.all(np.isfinite(y[observed])):
            raise MissingnessMismatch("observed outcomes must be finite")
        if np.any(~observed & (s == 1)):
            raise MissingnessMismatch("training rows (s = 1) must carry treatment and outcome")
        if kind is DatasetKind.TYPE1 and not observed.all():
            raise MissingnessMismatch("Type-1 datasets require (a, y) on every row")
        if kind is DatasetKind.TYPE2 and np.any(observed & (s == 0)):
            raise MissingnessMismatch(
                "Type-2 datasets must not carry (a, y) on calibration rows"
            )

        return data._check_strata()

    def _check_strata(self) -> "PooledDataset":
        if self.n1 == 0 or self.n0 == 0:
            raise EmptyStratum(f"both strata must be non-empty, got n1={self.n1}, n0={self.n0}")
        return self

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    def subset(self, mask: NDArray) -> "PooledDataset":
        """The rows where ``mask`` is true. Any subset of a valid dataset has
        valid values, so only the stratum sizes are checked again."""
        mask = np.asarray(mask, dtype=bool)
        return PooledDataset(
            x=self.x[mask], a=self.a[mask], y=self.y[mask], s=self.s[mask], kind=self.kind
        )._check_strata()

    def as_type2(self) -> "PooledDataset":
        """Mask calibration (a, y) and re-label the dataset as Type-2; the
        values were checked when this dataset was built."""
        a = self.a.copy()
        y = self.y.copy()
        calib = self.s == 0
        a[calib] = np.nan
        y[calib] = np.nan
        return PooledDataset(x=self.x, a=a, y=y, s=self.s, kind=DatasetKind.TYPE2)


# ---------------------------------------------------------------------------
# JSON config values
# ---------------------------------------------------------------------------


def _cast(value, cast, what: str):
    """``cast(value)``; a value the cast refuses raises InvalidConfig naming ``what``."""
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as e:
        raise InvalidConfig(f"{what}: {e}") from None


def _field(d: dict, key: str, cast, default=...):
    """``cast(d[key])``, or ``default`` unchanged when ``key`` is absent (required
    when no default is given); the one reader of JSON config values."""
    if key in _cast(d, _of(dict), f"object holding {key!r}"):
        return _cast(d[key], cast, f"config field {key!r}")
    if default is ...:
        raise InvalidConfig(f"config missing required field {key!r}")
    return default


def _fields(d: dict, **casts) -> dict:
    """``{key: cast(d[key])}`` for each ``key=cast`` whose key ``d`` holds, as
    keyword arguments for a class whose own defaults stand for the others."""
    _cast(d, _of(dict), f"object holding {', '.join(map(repr, casts))}")
    return {key: _cast(d[key], cast, f"config field {key!r}")
            for key, cast in casts.items() if key in d}


def _float(value) -> float:
    """A JSON number as a float; ``float`` would take a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _int(value) -> int:
    """A JSON number with no fractional part, which ``int`` would truncate."""
    if not _float(value).is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _floats(value) -> NDArray:
    """A JSON list of numbers as a float vector."""
    return np.array([_float(v) for v in _of(list)(value)], dtype=float)


def _of(*types):
    """The cast that passes a value of one of ``types`` through unchanged."""
    def cast(value):
        if not isinstance(value, types):
            names = " or ".join(t.__name__ for t in types)
            raise ValueError(f"expected {names}, got {type(value).__name__}")
        return value
    return cast


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------


class Policy:
    """Deterministic decision rule x -> {+1, -1} with a descriptive label;
    ``policy(x)`` returns the float +-1.0 decisions every formula reads."""

    label: str = "policy"

    def decide(self, x: NDArray) -> NDArray:
        raise NotImplementedError

    def __call__(self, x: NDArray) -> NDArray:
        """Evaluate the rule: a float +-1.0 array for an (n, p) matrix, an int
        for a single (p,) vector."""
        single = np.asarray(x).ndim == 1
        d = np.asarray(self.decide(_as_matrix(x)), dtype=float)
        return int(d[0]) if single else d


@dataclass(frozen=True, eq=False)
class LinearPolicy(Policy):
    """d(x) = sign(intercept + coeffs . x), with sign(0) = +1, as float +-1.0."""

    intercept: float
    coeffs: NDArray
    label: str = "linear"

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float).ravel())
        # a NaN score compares false, which would make the rule "always -1"
        for name in ("intercept", "coeffs"):
            if not np.isfinite(getattr(self, name)).all():
                raise NonFiniteValue(f"linear policy field {name!r} must be finite")

    @classmethod
    def from_json_dict(cls, d: dict, label: str | None = None) -> "LinearPolicy":
        """Parse {"type": "linear", "intercept", "coeffs"[, "label"]}; a given
        ``label`` replaces the rule's own."""
        kind = _field(d, "type", _of(str))
        if kind != "linear":
            raise InvalidConfig(f"unsupported policy type {kind!r}")
        return cls(
            intercept=_field(d, "intercept", _float),
            coeffs=_field(d, "coeffs", _floats),
            label=_field(d, "label", _of(str), "linear") if label is None else label,
        )

    def decide(self, x: NDArray) -> NDArray:
        score = self.intercept + x @ self.coeffs
        return np.where(score >= 0.0, 1.0, -1.0)


@dataclass(frozen=True, eq=False)
class FunctionPolicy(Policy):
    """Wrap an arbitrary deterministic rule (mainly for tests); ``policy(x)``
    returns ``fn``'s +-1 decisions as a float array. A rule that does not
    return one +1 or -1 per row of ``x`` is refused."""

    fn: Callable[[NDArray], NDArray]
    label: str = "function"

    def decide(self, x: NDArray) -> NDArray:
        d = np.asarray(self.fn(x))
        if d.shape != (x.shape[0],):
            raise DimensionMismatch(
                f"policy {self.label!r} returned shape {d.shape} for {x.shape[0]} rows"
            )
        if not np.isin(d, (-1, 1)).all():  # NaN included
            raise InvalidConfig(f"policy {self.label!r} decisions must be +1 or -1")
        return d


def constant_policy(sign: int, p: int) -> LinearPolicy:
    if sign not in (-1, 1):
        raise InvalidConfig("constant policy sign must be +1 or -1")
    return LinearPolicy(intercept=float(sign), coeffs=np.zeros(p), label=f"always{sign:+d}")


# ---------------------------------------------------------------------------
# Gaussian-shift simulation
# ---------------------------------------------------------------------------


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
class SimulationConfig:
    """Configuration of the Gaussian covariate-shift data-generating process.

    Covariates are N_p(mu, I) in the training stratum and N_p(0, I) in the
    calibration/testing stratum, so the covariate weight function (the
    testing-over-training density ratio) is exp(||mu||^2/2 - mu . x) and the
    selection log-odds are affine with slope mu. Outcomes follow the linear
    model

        y = b0 + bx . x + a * (g0 + gx . x) + eps,   eps ~ N(0, noise_sd^2),

    with ``outcome_coeffs`` laid out as [b0, bx_1..bx_p, g0, gx_1..gx_p].
    Treatment is randomized with a constant probability of a = +1.
    """

    p: int
    mu: NDArray
    rho_s: float
    n: int
    outcome_coeffs: NDArray
    noise_sd: float
    propensity: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "mu", np.asarray(self.mu, dtype=float).ravel())
        object.__setattr__(
            self, "outcome_coeffs", np.asarray(self.outcome_coeffs, dtype=float).ravel()
        )
        for name in ("mu", "outcome_coeffs", "noise_sd"):
            if not np.isfinite(getattr(self, name)).all():
                raise NonFiniteValue(f"simulation config field {name!r} must be finite")
        if self.p < 1:
            raise InvalidConfig("covariate dimension must be >= 1")
        if self.mu.shape[0] != self.p:
            raise InvalidConfig(f"mu must have length p={self.p}")
        if not 0.0 < self.rho_s < 1.0:
            raise InvalidConfig("rho_s must lie in (0, 1)")
        if self.n < 2:
            raise InvalidConfig("n must be at least 2")
        if self.outcome_coeffs.shape[0] != 2 * self.p + 2:
            raise InvalidConfig(
                f"outcome_coeffs must have length 2p+2={2 * self.p + 2}, "
                f"got {self.outcome_coeffs.shape[0]}"
            )
        if self.noise_sd < 0.0:
            raise InvalidConfig("noise_sd must be >= 0")
        if not 0.0 < self.propensity < 1.0:
            raise InvalidConfig("propensity must lie in (0, 1)")
        if self.seed < 0:
            raise InvalidConfig("seed must be a non-negative integer")

    def outcome_mean(self, x: NDArray, a) -> NDArray:
        """True Q(x, a) under the linear outcome model."""
        return LinearQModel(beta=self.outcome_coeffs, p=self.p)(_as_matrix(x), a)

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "mu": self.mu.tolist(),
            "rho_s": self.rho_s,
            "n": self.n,
            "outcome_coeffs": self.outcome_coeffs.tolist(),
            "noise_sd": self.noise_sd,
            "propensity": self.propensity,
            "seed": self.seed,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SimulationConfig":
        return cls(
            p=_field(d, "p", _int),
            mu=_field(d, "mu", _floats),
            rho_s=_field(d, "rho_s", _float),
            n=_field(d, "n", _int),
            outcome_coeffs=_field(d, "outcome_coeffs", _floats),
            noise_sd=_field(d, "noise_sd", _float),
            propensity=_field(d, "propensity", _float),
            seed=_field(d, "seed", _int),
        )


def true_weight_gaussian(x: NDArray, mu: NDArray) -> NDArray:
    """Density ratio of N_p(0, I) over N_p(mu, I): exp(||mu||^2 / 2 - mu . x).

    This is the testing-over-training covariate density ratio when training
    covariates are N_p(mu, I) and testing covariates are N_p(0, I); its mean
    over the training law is 1.
    """
    mu = np.asarray(mu, dtype=float).ravel()
    single = np.asarray(x).ndim == 1
    xm = _as_matrix(x)
    if xm.shape[1] != mu.shape[0]:
        raise DimensionMismatch(
            f"x has dimension {xm.shape[1]} but mu has dimension {mu.shape[0]}"
        )
    w = np.exp(0.5 * float(mu @ mu) - xm @ mu)
    return float(w[0]) if single else w


def simulate_gaussian_shift(config: SimulationConfig):
    """Simulate a pooled dataset under Gaussian covariate shift.

    Draw order (fixed for reproducibility): selection indicators, covariate
    noise, treatment uniforms, outcome noise. Returns the dataset (Type-1:
    every row carries (a, y)) together with the oracle nuisance set whose
    weight, propensity, and outcome functions are the data-generating truth,
    which depends on ``config`` alone.

    Returns
    -------
    (PooledDataset, NuisanceSet)
    """
    from .nuisance import gaussian_oracle_nuisances

    rng = np.random.default_rng(config.seed)
    n, p = config.n, config.p
    s = rng.binomial(1, config.rho_s, size=n).astype(np.int64)
    z = rng.standard_normal((n, p))
    x = z + np.outer(s == 1, config.mu)
    u = rng.random(n)
    a = np.where(u < config.propensity, 1.0, -1.0)
    eps = config.noise_sd * rng.standard_normal(n)
    y = config.outcome_mean(x, a) + eps
    data = PooledDataset.from_arrays(x, a, y, s, DatasetKind.TYPE1)
    return data, gaussian_oracle_nuisances(config)


# ---------------------------------------------------------------------------
# Cross-fitting folds
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FoldAssignment:
    """Stratified assignment of rows to K bags (values 1..k)."""

    k: int
    bag_of: NDArray

    def __post_init__(self):
        object.__setattr__(self, "bag_of", np.asarray(self.bag_of, dtype=np.int64).ravel())
        if self.k < 2:
            raise InvalidConfig(f"number of bags must be >= 2, got {self.k}")
        if not np.isin(self.bag_of, np.arange(1, self.k + 1)).all():
            raise InvalidConfig("bag indices must lie in 1..k")


def split_cross_fit_folds(data: PooledDataset, k: int, seed: int) -> FoldAssignment:
    """Randomly split each stratum into k bags of near-equal size.

    Within each stratum the bag sizes differ by at most one. Deterministic
    given ``seed``.
    """
    if k < 2:
        raise InvalidConfig(f"number of bags must be >= 2, got {k}")
    if min(data.n1, data.n0) < k:
        raise StratumTooSmall(
            f"each stratum needs at least k={k} rows, got n1={data.n1}, n0={data.n0}"
        )
    rng = np.random.default_rng(seed)
    bag_of = np.zeros(data.n, dtype=np.int64)
    for stratum in (1, 0):
        idx = np.flatnonzero(data.s == stratum)
        perm = rng.permutation(idx)
        bag_of[perm] = np.arange(perm.shape[0]) % k + 1
    return FoldAssignment(k=k, bag_of=bag_of)


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def write_dataset_csv(data: PooledDataset, path) -> None:
    """Write the dataset with header x_1..x_p,a,y,s; 17 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x_{j + 1}" for j in range(data.p)] + ["a", "y", "s"])
        observed = data.observed
        for i in range(data.n):
            row = [_fmt(v) for v in data.x[i]]
            if observed[i]:
                row += [str(int(data.a[i])), _fmt(data.y[i])]
            else:
                row += ["", ""]
            row.append(str(int(data.s[i])))
            writer.writerow(row)


def read_dataset_csv(path) -> PooledDataset:
    """Read a dataset CSV, inferring Type-1 vs Type-2 from empty (a, y) cells."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise EmptyStratum("dataset CSV is empty")
        expected_tail = ["a", "y", "s"]
        if len(header) < 4 or header[-3:] != expected_tail:
            raise InvalidConfig("dataset CSV header must be x_1..x_p,a,y,s")
        p = len(header) - 3
        if header[:p] != [f"x_{j + 1}" for j in range(p)]:
            raise InvalidConfig("dataset CSV header must be x_1..x_p,a,y,s")
        xs, as_, ys, ss = [], [], [], []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != p + 3:
                raise DimensionMismatch(f"line {line_no}: expected {p + 3} cells")
            a_cell, y_cell, s_cell = row[p], row[p + 1], row[p + 2]
            if (a_cell == "") != (y_cell == ""):
                raise MissingnessMismatch(f"line {line_no}: a and y must be missing together")
            try:
                xs.append([float(v) for v in row[:p]])
                as_.append(np.nan if a_cell == "" else float(a_cell))
                ys.append(np.nan if y_cell == "" else float(y_cell))
                ss.append(int(s_cell))
            except ValueError as e:
                raise InvalidConfig(f"line {line_no}: {e}") from None
    a = np.asarray(as_)
    kind = DatasetKind.TYPE2 if np.isnan(a).any() else DatasetKind.TYPE1
    return PooledDataset.from_arrays(np.asarray(xs), a, np.asarray(ys), np.asarray(ss), kind)
