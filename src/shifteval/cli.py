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

from . import __version__
from .calibration import candidates_from_json, check_method, select_policy
from .data_model import (
    DatasetKind,
    LinearPolicy,
    SimulationConfig,
    read_dataset_csv,
    simulate_gaussian_shift,
    write_dataset_csv,
)
from .errors import DimensionMismatch, InvalidConfig, NonFiniteValue, ShiftEvalError
from .estimators import (
    BACKENDS,
    DEFAULT_LEVEL,
    Estimand,
    FitRecipe,
    assemble_nuisances,
    check_level,
    fit_and_estimate,
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
    with open(path, encoding="utf-8") as fh:
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


def _emit(out_dir, name, payload: dict, config: dict, note: str | None = None) -> Path:
    """Stamp ``payload`` with the hash of ``config``, the package version and
    ``note``, and write it to ``out_dir/name`` (creating the directory)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload["config_sha256"] = canonical_hash(config)
    payload["spec_version"] = __version__
    if note is not None:
        payload["notes"] = [note]
    _write_json(out / name, payload)
    return out / name


def _required(config: dict, key: str):
    try:
        return config[key]
    except KeyError:
        raise InvalidConfig(f"config missing required field {key!r}") from None


def _path(config: dict, key: str) -> str:
    """The required file path ``config[key]``; any other JSON type is refused,
    since ``open()`` would take an integer as a file descriptor."""
    value = _required(config, key)
    if not isinstance(value, str):
        raise InvalidConfig(f"config field {key!r} must be a path string, got {value!r}")
    return value


def _int(value) -> int:
    """``int(value)``, refusing a number with a fractional part, which ``int``
    would truncate."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _field(config: dict, key: str, cast, default=None):
    """``cast(config[key])``, or ``cast(default)`` when the key is absent; the
    key is required when ``default`` is None."""
    value = _required(config, key) if default is None else config.get(key, default)
    try:
        return cast(value)
    except (TypeError, ValueError) as e:
        raise InvalidConfig(f"config field {key!r}: {e}") from None


def _check_policy_dimension(policy: LinearPolicy, p: int) -> LinearPolicy:
    if policy.coeffs.shape[0] != p:
        raise DimensionMismatch(
            f"policy {policy.label!r} has {policy.coeffs.shape[0]} coefficients "
            f"but the data have p={p} covariates"
        )
    return policy


def _policy_from_dict(d: dict, p: int) -> LinearPolicy:
    return _check_policy_dimension(LinearPolicy.from_json_dict(d), p)


def _kernel_from_config(config: dict) -> KernelSpec | None:
    k = config.get("kernel")
    if k is None:
        return None
    try:
        return KernelSpec(
            family=k.get("family", "rbf"),
            bandwidth=k.get("bandwidth"),
            ridge=k.get("ridge"),
        )
    except (AttributeError, TypeError) as e:
        raise InvalidConfig(f"malformed kernel block {k!r}: {e}") from None


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
        sim = SimulationConfig.from_json_dict(_load_json(_path(config, "truth")))
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
    truth = sim.to_json_dict()
    truth["model"] = "gaussian_shift_linear"
    truth["weight_form"] = {"form": "exponential_tilt_gaussian", "mu": sim.mu.tolist()}
    _emit(out, "truth.json", truth, effective)
    write_dataset_csv(data, out / "dataset.csv")
    print(f"wrote {out / 'dataset.csv'} ({data.n} rows) and {out / 'truth.json'}")
    return 0


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def cmd_estimate(args) -> int:
    config = _load_json(args.config)
    for key, flag in (("estimand", args.variant), ("kind", args.kind), ("weights", args.weights),
                      ("crossfit", args.crossfit), ("seed", args.seed)):
        if flag is not None:
            config[key] = flag

    data = read_dataset_csv(_path(config, "dataset"))
    estimand = _field(config, "estimand", Estimand, "theta")
    kind = _field(config, "kind", DatasetKind, data.kind)
    policy = _policy_from_dict(_required(config, "policy"), data.p)
    level = _field(config, "level", float, DEFAULT_LEVEL)
    check_level(level)
    crossfit = _field(config, "crossfit", _int, 0)
    if crossfit < 0:
        raise InvalidConfig(f"config field 'crossfit' must be >= 0, got {crossfit}")
    seed = _field(config, "seed", _int, 0)
    recipe = _recipe_from_config(config, data, default_weights="oracle")

    report = fit_and_estimate(
        data, recipe, policy, estimand, kind, crossfit_k=crossfit, seed=seed, level=level
    )
    path = _emit(args.out, "estimate_report.json", report.to_json_dict(), config, PI_A_NOTE)
    print(f"estimate={report.estimate:.17g} se={report.se:.17g} -> {path}")
    return 0


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------


def cmd_calibrate(args) -> int:
    config = _load_json(args.config)
    if args.seed is not None:
        config["seed"] = args.seed
    data = read_dataset_csv(_path(config, "dataset"))
    with open(_path(config, "candidates")) as fh:
        candidates = candidates_from_json(fh.read())
    for _, policy in candidates.candidates:
        _check_policy_dimension(policy, data.p)
    method = config.get("method", "covariates_only")
    check_method(method)
    stratum = _field(config, "ipw_propensity_stratum", _int, 1)

    recipe = _recipe_from_config(config, data, default_weights="aipsw")
    nuisances = assemble_nuisances(data, recipe)
    result = select_policy(
        candidates, data, method, nuisances, ipw_propensity_stratum=stratum
    )

    path = _emit(args.out, "selection.json", result.to_json_dict(), config)
    print(f"chose c={result.chosen_c:g} ({result.chosen_policy.label}) -> {path}")
    return 0


# ---------------------------------------------------------------------------
# montecarlo
# ---------------------------------------------------------------------------


def _estimator_spec(e: dict) -> EstimatorSpec:
    if not isinstance(e, dict):
        raise InvalidConfig(f"estimator entry must be an object, got {e!r}")
    name, crossfit = _required(e, "name"), e.get("crossfit", False)
    if not isinstance(name, str) or not isinstance(crossfit, bool):
        raise InvalidConfig(f"estimator needs a string 'name' and a boolean 'crossfit', got {e!r}")
    return EstimatorSpec(
        name=name,
        estimand=_field(e, "estimand", Estimand, "theta"),
        kind=_field(e, "kind", DatasetKind, "type2"),
        weights=e.get("weights", "oracle"),
        propensity=e.get("propensity", "oracle"),
        outcome=e.get("outcome", "oracle"),
        crossfit=crossfit,
    )


def cmd_montecarlo(args) -> int:
    config = _load_json(args.config)
    if args.seed is not None:
        base = config.setdefault("base", {})
        if not isinstance(base, dict):
            raise InvalidConfig(f"config field 'base' must be an object, got {base!r}")
        base["seed"] = args.seed
    base = SimulationConfig.from_json_dict(_required(config, "base"))
    policy = _policy_from_dict(_required(config, "policy"), base.p)
    entries = _required(config, "estimators")
    if not isinstance(entries, list):
        raise InvalidConfig(f"'estimators' must be a list, got {entries!r}")
    mc = McConfig(
        base=base,
        replications=_field(config, "replications", _int),
        policy=policy,
        estimators=tuple(_estimator_spec(e) for e in entries),
        crossfit_k=_field(config, "crossfit_k", _int, 5),
        level=_field(config, "level", float, DEFAULT_LEVEL),
        n_jobs=_field(config, "n_jobs", _int, 1),
        truth_draws=_field(config, "truth_draws", _int, 1_000_000),
        variance_draws=_field(config, "variance_draws", _int, 1_000_000),
    )
    tic = time.perf_counter()
    summary = run_replications(mc)
    elapsed = time.perf_counter() - tic

    out = Path(args.out)
    _emit(out, "mc_summary.json", summary.to_json_dict(), config, PI_A_NOTE)
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
    est.add_argument("--weights", choices=BACKENDS["weights"], default=None)
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
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
        print(json.dumps({"error": type(e).__name__, "message": str(e)}), file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
