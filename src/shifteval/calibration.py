"""Calibration-stage value estimation and candidate-rule selection.

Given a set of externally trained candidate rules indexed by a robustness
constant c, the calibration data pick the final rule by maximizing one of
two value estimates: a covariates-only contrast average, or an
inverse-propensity-weighted outcome average when calibration rows carry
observed treatments and outcomes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data_model import LinearPolicy, Policy, PooledDataset, _cast, _field, _float, _of
from .errors import (
    EmptyCalibration,
    InvalidConfig,
    MissingTreatmentsOutcomes,
)
from .estimators import Estimand, _policy_target
from .nuisance import NuisanceSet, OutcomeModel, PropensityModel

__all__ = [
    "CandidateSet",
    "SelectionResult",
    "calib_value_covariates_only",
    "calib_value_ipw",
    "select_policy",
    "candidates_from_json",
]

METHODS = ("covariates_only", "ipw")


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


def calib_value_covariates_only(
    data: PooledDataset, outcome: OutcomeModel, policy: Policy
) -> float:
    """Average fitted contrast on calibration rows: mean of C(X_i) d(X_i)."""
    calib = data.s == 0
    if not calib.any():
        raise EmptyCalibration("no calibration rows (s = 0)")
    x0 = data.x[calib]
    d0 = np.asarray(policy(x0), dtype=float)
    return float(np.mean(_policy_target(outcome, x0, d0, Estimand.CONTRAST)))


def calib_value_ipw(
    data: PooledDataset,
    propensity: PropensityModel,
    policy: Policy,
    propensity_stratum: int = 1,
) -> float:
    """Inverse-propensity-weighted calibration value.

    Averages 1[d(X_i) = A_i] / pi_A(A_i | X_i, s*) * Y_i over calibration
    rows. By default the propensity is evaluated at the training stratum
    (s* = 1); ``propensity_stratum=0`` switches to the calibration stratum.
    """
    check_propensity_stratum(propensity_stratum)
    calib = data.s == 0
    if not calib.any():
        raise EmptyCalibration("no calibration rows (s = 0)")
    if not data.observed[calib].all():
        raise MissingTreatmentsOutcomes(
            "IPW calibration requires observed (a, y) on calibration rows"
        )
    x0 = data.x[calib]
    a0 = data.a[calib]
    y0 = data.y[calib]
    d0 = np.asarray(policy(x0), dtype=float)
    pi = np.asarray(propensity.prob(a0, x0, propensity_stratum), dtype=float)
    return float(np.mean((d0 == a0).astype(float) / pi * y0))


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
    nuisances: NuisanceSet,
    ipw_propensity_stratum: int = 1,
) -> SelectionResult:
    """Evaluate every candidate with the chosen calibration estimator and
    return the maximizer; ties break toward the smallest robustness constant."""
    check_method(method)
    ordered = sorted(candidates.candidates, key=lambda pair: pair[0])
    table = []
    best = None
    for c, policy in ordered:
        if method == "covariates_only":
            value = calib_value_covariates_only(data, nuisances.outcome, policy)
        else:
            value = calib_value_ipw(
                data, nuisances.propensity, policy, propensity_stratum=ipw_propensity_stratum
            )
        table.append({"c": c, "label": policy.label, "value": value})
        if best is None or value > best[2]:
            best = (c, policy, value)
    return SelectionResult(
        chosen_c=best[0], chosen_policy=best[1], method=method, table=table
    )
