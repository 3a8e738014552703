"""Calibration-stage value estimation and candidate-rule selection.

Given a set of externally trained candidate rules indexed by a robustness
constant c, the calibration data pick the final rule by maximizing one of
two value estimates: a covariates-only contrast average, which reads the
outcome model's contrast C(x), or an inverse-propensity-weighted outcome
average, which reads the treatment propensity pi_A and needs observed
treatments and outcomes on the calibration rows. Each reads that one
nuisance and no other.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data_model import LinearPolicy, Policy, PooledDataset, _cast, _field, _float, _of
from .errors import EmptyCalibration, InvalidConfig, MissingTreatmentsOutcomes, NonFiniteValue
from .estimators import Estimand, _coupler
from .nuisance import OutcomeModel, PropensityModel

__all__ = [
    "CandidateSet",
    "SelectionResult",
    "select_policy",
    "candidates_from_json",
]

# each method -> the one nuisance component it reads
METHODS = {"covariates_only": "outcome", "ipw": "propensity"}


def check_method(method: str) -> None:
    """Reject a calibration method name outside METHODS."""
    if method not in METHODS:
        raise InvalidConfig(f"unknown calibration method {method!r}")


def check_propensity_stratum(stratum: int) -> None:
    """Reject an IPW propensity stratum other than 0 (calibration) or 1 (training)."""
    if stratum not in (0, 1):
        raise InvalidConfig(f"ipw_propensity_stratum must be 0 or 1, got {stratum!r}")


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """Candidate rules, each tagged with its distinct robustness constant c."""

    candidates: tuple  # of (c, Policy)

    def __post_init__(self):
        if len(self.candidates) == 0:
            raise InvalidConfig("candidate set must be non-empty")
        cs = [c for c, _ in self.candidates]
        if not np.isfinite(cs).all():
            raise NonFiniteValue("candidate robustness constants c must be finite")
        if len(set(cs)) != len(cs):
            raise InvalidConfig("candidate robustness constants must be distinct")


def candidates_from_json(text: str) -> CandidateSet:
    """Parse a candidate file: a JSON list of {c, rule: {type, intercept, coeffs}}."""
    entries = []
    for item in _cast(json.loads(text), _of(list), "candidate file"):
        c = _field(item, "c", _float)
        rule = _field(item, "rule", _of(dict))
        entries.append((c, LinearPolicy.from_json_dict(rule, label=f"linear(c={c:g})")))
    return CandidateSet(candidates=tuple(entries))


@dataclass(frozen=True, eq=False)
class SelectionResult:
    chosen_c: float
    chosen_policy: Policy
    method: str
    table: list  # of {"c", "label", "value"}

    def to_json_dict(self) -> dict:
        return {
            "chosen_c": self.chosen_c,
            "chosen_label": self.chosen_policy.label,
            "method": self.method,
            "table": self.table,
        }


def select_policy(
    candidates: CandidateSet,
    data: PooledDataset,
    method: str,
    model: OutcomeModel | PropensityModel,
    ipw_propensity_stratum: int = 1,
) -> SelectionResult:
    """Evaluate every candidate with the chosen calibration estimator and
    return the maximizer; ties break toward the smallest robustness constant.

    ``model`` is the one nuisance the method reads, evaluated once on the
    calibration rows: the outcome model's contrast C(x) for ``covariates_only``
    (value: mean of C(X_i) d(X_i)), the treatment propensity at stratum
    s* = ``ipw_propensity_stratum`` (1, training, by default) for ``ipw``
    (value: mean of 1[d(X_i) = A_i] / pi_A(A_i | X_i, s*) * Y_i). Each
    candidate then costs its decisions and one mean.
    """
    check_method(method)
    calib = data.s == 0
    if not calib.any():
        raise EmptyCalibration("no calibration rows (s = 0)")
    x0 = data.x[calib]
    if method == "covariates_only":
        cte = model.cte(x0)

        def value(d):
            return float(np.mean(cte * d))
    else:
        check_propensity_stratum(ipw_propensity_stratum)
        if not data.observed[calib].all():
            raise MissingTreatmentsOutcomes(
                "IPW calibration requires observed (a, y) on calibration rows"
            )
        a0 = data.a[calib]
        y0 = data.y[calib]
        pi = model.prob(a0, x0, ipw_propensity_stratum)

        def value(d):
            return float(np.mean(_coupler(Estimand.VALUE, d, a0) / pi * y0))
    table = []
    best = None
    for c, policy in sorted(candidates.candidates, key=lambda pair: pair[0]):
        v = value(policy(x0))
        table.append({"c": c, "label": policy.label, "value": v})
        if best is None or v > best[2]:
            best = (c, policy, v)
    return SelectionResult(
        chosen_c=best[0], chosen_policy=best[1], method=method, table=table
    )
