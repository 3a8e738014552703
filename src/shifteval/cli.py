"""Batch command-line front end.

Subcommands:

* ``simulate``   -- SimulationConfig JSON -> dataset CSV + truth JSON
* ``estimate``   -- dataset CSV + estimator config -> estimate report JSON
* ``calibrate``  -- dataset + candidate rules JSON -> selection JSON
* ``montecarlo`` -- replication config -> summary JSON + CSV

Every emitted report embeds the SHA-256 hash of the effective
(flag-overridden) configuration and the package version. Exit codes:
0 on success, 2 on usage errors, 1 on data or validation errors (with a
structured JSON error message on stderr).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import candidates_from_json, select_policy
from .data_model import (
    DatasetKind,
    LinearPolicy,
    SimulationConfig,
    read_dataset_csv,
    simulate_gaussian_shift,
    split_cross_fit_folds,
    write_dataset_csv,
)
from .errors import DimensionMismatch, InvalidConfig, NonFiniteValue, ShiftEvalError
from .estimators import (
    Estimand,
    FitRecipe,
    assemble_nuisances,
    cross_fit_estimate,
    estimate_efficient,
)
from .montecarlo import EstimatorSpec, McConfig, run_replications
from .nuisance import KernelSpec, gaussian_oracle_nuisances

PI_A_NOTE = (
    "The policy-action propensity pi_A(d|x,s) is evaluated as pi_A(d(x)|x,s) "
    "in all variance formulas."
)


def canonical_hash(config: dict) -> str:
    """SHA-256 of the canonicalized (sorted, compact) JSON encoding."""
    text = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _load_json(path) -> dict:
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise InvalidConfig(f"{path}: expected a JSON object, got {type(payload).__name__}")
    return payload


def _write_json(path, payload: dict) -> None:
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as e:
        raise NonFiniteValue(f"{path}: {e}") from None
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _required(config: dict, key: str):
    try:
        return config[key]
    except KeyError:
        raise InvalidConfig(f"config missing required field {key!r}") from None


def _check_policy_dimension(policy: LinearPolicy, p: int) -> LinearPolicy:
    if policy.coeffs.shape[0] != p:
        raise DimensionMismatch(
            f"policy {policy.label!r} has {policy.coeffs.shape[0]} coefficients "
            f"but the data have p={p} covariates"
        )
    return policy


def _policy_from_dict(d: dict, p: int) -> LinearPolicy:
    try:
        if d["type"] != "linear":
            raise InvalidConfig(f"unsupported policy type {d['type']!r}")
        policy = LinearPolicy(
            intercept=float(d["intercept"]),
            coeffs=np.asarray(d["coeffs"], dtype=float),
            label=d.get("label", "linear"),
        )
    except KeyError as e:
        raise InvalidConfig(f"policy specification missing field {e}") from e
    except (TypeError, ValueError) as e:
        raise InvalidConfig(f"malformed policy specification: {e}") from None
    return _check_policy_dimension(policy, p)


def _enum_from_string(enum_cls, text, what: str):
    try:
        return enum_cls(text)
    except ValueError:
        choices = ", ".join(repr(m.value) for m in enum_cls)
        raise InvalidConfig(f"unknown {what} {text!r}, expected one of {choices}") from None


def _kernel_from_config(config: dict) -> KernelSpec | None:
    k = config.get("kernel")
    if k is None:
        return None
    return KernelSpec(
        family=k.get("family", "rbf"),
        bandwidth=k.get("bandwidth"),
        ridge=k.get("ridge"),
    )


def _recipe_from_config(config: dict, data, default_weights: str) -> FitRecipe:
    """Nuisance backends named in ``config``; oracle components come from the
    simulation recorded in the ``truth`` file, with rho_hat = n1/n of ``data``."""
    weights = config.get("weights", default_weights)
    propensity = config.get("propensity", "oracle")
    outcome = config.get("outcome", "oracle")
    oracle = None
    if "oracle" in (weights, propensity, outcome):
        if "truth" not in config:
            raise InvalidConfig("oracle nuisances requested but no 'truth' path configured")
        sim = SimulationConfig.from_json_dict(_load_json(config["truth"]))
        oracle = gaussian_oracle_nuisances(sim, rho_hat=data.n1 / data.n)
    return FitRecipe(
        weights=weights,
        propensity=propensity,
        outcome=outcome,
        oracle=oracle,
        kernel=_kernel_from_config(config),
    )


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    config = _load_json(args.config)
    if args.seed is not None:
        config["seed"] = args.seed
    sim = SimulationConfig.from_json_dict(config)
    effective = sim.to_json_dict()
    effective["kind"] = args.kind
    data, _ = simulate_gaussian_shift(sim)
    if args.kind == "type2":
        data = data.as_type2()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_dataset_csv(data, out / "dataset.csv")
    truth = sim.to_json_dict()
    truth["model"] = "gaussian_shift_linear"
    truth["weight_form"] = {"form": "exponential_tilt_gaussian", "mu": sim.mu.tolist()}
    truth["config_sha256"] = canonical_hash(effective)
    truth["spec_version"] = __version__
    _write_json(out / "truth.json", truth)
    print(f"wrote {out / 'dataset.csv'} ({data.n} rows) and {out / 'truth.json'}")
    return 0


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def cmd_estimate(args) -> int:
    config = _load_json(args.config)
    if args.variant is not None:
        config["estimand"] = args.variant
    if args.kind is not None:
        config["kind"] = args.kind
    if args.weights is not None:
        config["weights"] = args.weights
    if args.crossfit is not None:
        config["crossfit"] = args.crossfit
    if args.seed is not None:
        config["seed"] = args.seed

    data = read_dataset_csv(_required(config, "dataset"))
    estimand = _enum_from_string(Estimand, config.get("estimand", "theta"), "estimand")
    kind = data.kind
    if "kind" in config:
        kind = _enum_from_string(DatasetKind, config["kind"], "dataset kind")
    policy = _policy_from_dict(_required(config, "policy"), data.p)
    level = float(config.get("level", 0.95))
    crossfit = int(config.get("crossfit", 0))
    seed = int(config.get("seed", 0))

    eval_data = data.as_type2() if kind is DatasetKind.TYPE2 and data.kind is DatasetKind.TYPE1 else data
    recipe = _recipe_from_config(config, eval_data, default_weights="oracle")
    if crossfit >= 2:
        folds = split_cross_fit_folds(eval_data, crossfit, seed=seed)
        report = cross_fit_estimate(
            eval_data, folds, recipe, policy, estimand, kind=kind, level=level
        )
    else:
        report = estimate_efficient(
            eval_data, assemble_nuisances(eval_data, recipe), policy, estimand,
            kind=kind, level=level,
        )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    payload = report.to_json_dict()
    payload["config_sha256"] = canonical_hash(config)
    payload["spec_version"] = __version__
    payload["notes"] = [PI_A_NOTE]
    _write_json(out / "estimate_report.json", payload)
    print(f"estimate={report.estimate:.17g} se={report.se:.17g} -> {out / 'estimate_report.json'}")
    return 0


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------


def cmd_calibrate(args) -> int:
    config = _load_json(args.config)
    if args.seed is not None:
        config["seed"] = args.seed
    data = read_dataset_csv(_required(config, "dataset"))
    with open(_required(config, "candidates")) as fh:
        candidates = candidates_from_json(fh.read())
    for _, policy in candidates.candidates:
        _check_policy_dimension(policy, data.p)
    method = config.get("method", "covariates_only")
    stratum = int(config.get("ipw_propensity_stratum", 1))

    recipe = _recipe_from_config(config, data, default_weights="aipsw")
    nuisances = assemble_nuisances(data, recipe)
    result = select_policy(
        candidates, data, method, nuisances, ipw_propensity_stratum=stratum
    )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    payload = result.to_json_dict()
    payload["config_sha256"] = canonical_hash(config)
    payload["spec_version"] = __version__
    _write_json(out / "selection.json", payload)
    print(f"chose c={result.chosen_c:g} ({result.chosen_policy.label}) -> {out / 'selection.json'}")
    return 0


# ---------------------------------------------------------------------------
# montecarlo
# ---------------------------------------------------------------------------


def cmd_montecarlo(args) -> int:
    config = _load_json(args.config)
    if args.seed is not None:
        config.setdefault("base", {})
        config["base"]["seed"] = args.seed
    base = SimulationConfig.from_json_dict(_required(config, "base"))
    policy = _policy_from_dict(_required(config, "policy"), base.p)
    try:
        specs = tuple(
            EstimatorSpec(
                name=e["name"],
                estimand=_enum_from_string(Estimand, e.get("estimand", "theta"), "estimand"),
                kind=_enum_from_string(DatasetKind, e.get("kind", "type2"), "dataset kind"),
                weights=e.get("weights", "oracle"),
                propensity=e.get("propensity", "oracle"),
                outcome=e.get("outcome", "oracle"),
                crossfit=bool(e.get("crossfit", False)),
            )
            for e in _required(config, "estimators")
        )
    except KeyError as e:
        raise InvalidConfig(f"estimator entry missing field {e}") from e
    mc = McConfig(
        base=base,
        replications=int(_required(config, "replications")),
        policy=policy,
        estimators=specs,
        crossfit_k=int(config.get("crossfit_k", 5)),
        level=float(config.get("level", 0.95)),
        n_jobs=int(config.get("n_jobs", 1)),
        truth_draws=int(config.get("truth_draws", 1_000_000)),
        variance_draws=int(config.get("variance_draws", 1_000_000)),
    )
    tic = time.perf_counter()
    summary = run_replications(mc)
    elapsed = time.perf_counter() - tic

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    payload = summary.to_json_dict()
    payload["config_sha256"] = canonical_hash(config)
    payload["spec_version"] = __version__
    payload["notes"] = [PI_A_NOTE]
    _write_json(out / "mc_summary.json", payload)
    summary.write_csv(out / "mc_summary.csv")
    # runtimes go to the console only so the emitted files stay reproducible
    for e in summary.estimators:
        print(f"{e.name}: bias={e.bias:+.5f} coverage={e.coverage:.3f} "
              f"mean_runtime={e.mean_runtime_s * 1e3:.2f}ms")
    print(f"completed {mc.replications} replicates in {elapsed:.1f}s -> {out}")
    return 0


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shifteval",
        description="Policy-value estimation on a shifted testing population.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate a Gaussian-shift pooled dataset")
    sim.add_argument("--config", required=True, help="SimulationConfig JSON path")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    sim.add_argument("--kind", choices=["type1", "type2"], default="type1")
    sim.set_defaults(func=cmd_simulate)

    est = sub.add_parser("estimate", help="estimate a policy value from a dataset")
    est.add_argument("--config", required=True)
    est.add_argument("--out", required=True)
    est.add_argument("--seed", type=int, default=None)
    est.add_argument("--kind", choices=["type1", "type2"], default=None)
    est.add_argument("--variant", choices=["theta", "theta1"], default=None)
    est.add_argument("--weights", choices=["oracle", "aipsw", "kulsif", "eb"], default=None)
    est.add_argument("--crossfit", type=int, default=None, metavar="K")
    est.set_defaults(func=cmd_estimate)

    cal = sub.add_parser("calibrate", help="select a candidate rule on calibration data")
    cal.add_argument("--config", required=True)
    cal.add_argument("--out", required=True)
    cal.add_argument("--seed", type=int, default=None)
    cal.set_defaults(func=cmd_calibrate)

    mc = sub.add_parser("montecarlo", help="run a replicated simulation study")
    mc.add_argument("--config", required=True)
    mc.add_argument("--out", required=True)
    mc.add_argument("--seed", type=int, default=None)
    mc.set_defaults(func=cmd_montecarlo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except ShiftEvalError as e:
        print(json.dumps({"error": e.name, "message": str(e)}), file=sys.stderr)
        return 1
    except (FileNotFoundError, json.JSONDecodeError) as e:
        print(json.dumps({"error": type(e).__name__, "message": str(e)}), file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
