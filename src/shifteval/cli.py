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
from .calibration import METHODS, candidates_from_json, check_method, check_propensity_stratum
from .calibration import select_policy
from .data_model import _cast, _field, _fields, _float, _int, _of  # the one JSON config reader
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
    BACKENDS,
    DEFAULT_LEVEL,
    Estimand,
    FitRecipe,
    _fit_nuisance,
    check_level,
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
    with open(path, encoding="utf-8") as fh:
        return _cast(json.load(fh), _of(dict), str(path))


def _write_json(path, payload: dict) -> None:
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as e:
        raise NonFiniteValue(f"{path}: {e}") from None
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _out_dir(path) -> Path:
    """Create the output directory ``path``; called before any work, so an
    unusable ``--out`` fails before the fits rather than after them."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit(out: Path, name, payload: dict, config: dict, note: str | None = None) -> Path:
    """Stamp ``payload`` with the hash of ``config``, the package version and
    ``note``, and write it to ``out/name``."""
    payload["config_sha256"] = canonical_hash(config)
    payload["spec_version"] = __version__
    if note is not None:
        payload["notes"] = [note]
    _write_json(out / name, payload)
    return out / name


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
    k = _field(config, "kernel", _of(dict), None)
    if k is None:
        return None
    return KernelSpec(**_fields(k, family=_of(str), bandwidth=_float, ridge=_float))


def _recipe_from_config(config: dict, components) -> FitRecipe:
    """Nuisance backends that ``config`` names for ``components``, each
    ``oracle`` by default; oracle components come from the simulation
    recorded in the ``truth`` file. Other components keep the FitRecipe
    defaults, which the caller does not fit."""
    backends = {c: _field(config, c, _of(str), "oracle") for c in components}
    oracle = None
    if "oracle" in backends.values():
        if "truth" not in config:
            raise InvalidConfig("oracle nuisances requested but no 'truth' path configured")
        sim = SimulationConfig.from_json_dict(_load_json(_field(config, "truth", _of(str))))
        oracle = gaussian_oracle_nuisances(sim)
    return FitRecipe(**backends, oracle=oracle, kernel=_kernel_from_config(config))


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    out = _out_dir(args.out)
    config = _load_json(args.config)
    if args.seed is not None:
        config["seed"] = args.seed
    sim = SimulationConfig.from_json_dict(config)
    effective = sim.to_json_dict()
    effective["kind"] = args.kind
    data, _ = simulate_gaussian_shift(sim)
    if args.kind == "type2":
        data = data.as_type2()

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


def _crossfit(value) -> int:
    """0 (the plain fit) or a bag count of at least 2."""
    k = _int(value)
    if k != 0 and k < 2:
        raise ValueError(f"expected 0 or an integer >= 2, got {value!r}")
    return k


def cmd_estimate(args) -> int:
    out = _out_dir(args.out)
    config = _load_json(args.config)
    for key, flag in (("estimand", args.variant), ("kind", args.kind), ("weights", args.weights),
                      ("crossfit", args.crossfit), ("seed", args.seed)):
        if flag is not None:
            config[key] = flag

    data = read_dataset_csv(_field(config, "dataset", _of(str)))
    estimand = _field(config, "estimand", Estimand, Estimand.VALUE)
    kind = _field(config, "kind", DatasetKind, data.kind)
    policy = _policy_from_dict(_field(config, "policy", _of(dict)), data.p)
    level = _field(config, "level", _float, DEFAULT_LEVEL)
    check_level(level)
    crossfit = _field(config, "crossfit", _crossfit, 0)
    seed = _field(config, "seed", _int, 0)
    recipe = _recipe_from_config(config, ("weights", "propensity", "outcome"))

    # split before any fit, so a stratum too small for the bags fails first
    folds = split_cross_fit_folds(data, crossfit, seed=seed) if crossfit else None
    report = estimate_efficient(data, recipe, policy, estimand, kind, level, folds)
    path = _emit(out, "estimate_report.json", report.to_json_dict(), config, PI_A_NOTE)
    print(f"estimate={report.estimate:.17g} se={report.se:.17g} -> {path}")
    return 0


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------


def cmd_calibrate(args) -> int:
    out = _out_dir(args.out)
    config = _load_json(args.config)
    data = read_dataset_csv(_field(config, "dataset", _of(str)))
    with open(_field(config, "candidates", _of(str))) as fh:
        candidates = candidates_from_json(fh.read())
    for _, policy in candidates.candidates:
        _check_policy_dimension(policy, data.p)
    method = _field(config, "method", _of(str), "covariates_only")
    check_method(method)
    stratum = _field(config, "ipw_propensity_stratum", _int, 1)
    check_propensity_stratum(stratum)

    component = METHODS[method]
    # ipw reads the propensity of stratum s* alone: at s* = 1 the calibration
    # stratum's model, whose fit may fail, is not fitted
    fit_data = data.as_type2() if method == "ipw" and stratum == 1 else data
    model = _fit_nuisance(fit_data, _recipe_from_config(config, (component,)), component)
    result = select_policy(candidates, data, method, model, ipw_propensity_stratum=stratum)

    path = _emit(out, "selection.json", result.to_json_dict(), config)
    print(f"chose c={result.chosen_c:g} ({result.chosen_policy.label}) -> {path}")
    return 0


# ---------------------------------------------------------------------------
# montecarlo
# ---------------------------------------------------------------------------


def _estimator_spec(e: dict) -> EstimatorSpec:
    return EstimatorSpec(
        name=_field(e, "name", _of(str)),
        estimand=_field(e, "estimand", Estimand, Estimand.VALUE),
        kind=_field(e, "kind", DatasetKind, DatasetKind.TYPE2),
        **_fields(e, weights=_of(str), propensity=_of(str), outcome=_of(str), crossfit=_of(bool)),
    )


def cmd_montecarlo(args) -> int:
    out = _out_dir(args.out)
    config = _load_json(args.config)
    if args.seed is not None:
        config["base"] = _field(config, "base", _of(dict), {}) | {"seed": args.seed}
    base = SimulationConfig.from_json_dict(_field(config, "base", _of(dict)))
    policy = _policy_from_dict(_field(config, "policy", _of(dict)), base.p)
    mc = McConfig(
        base=base,
        replications=_field(config, "replications", _int),
        policy=policy,
        estimators=tuple(map(_estimator_spec, _field(config, "estimators", _of(list)))),
        **_fields(config, crossfit_k=_int, level=_float, n_jobs=_int, truth_draws=_int,
                  variance_draws=_int),
    )
    tic = time.perf_counter()
    summary = run_replications(mc)
    elapsed = time.perf_counter() - tic

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
    except (ShiftEvalError, OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
        print(json.dumps({"error": type(e).__name__, "message": str(e)}), file=sys.stderr)
        return 1
    except MemoryError as e:  # numpy raises a private subclass
        print(json.dumps({"error": "MemoryError", "message": str(e) or "out of memory"}),
              file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
