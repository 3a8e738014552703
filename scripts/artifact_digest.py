#!/usr/bin/env python3
"""Fixed-seed artifact digests: run every shifteval command on a fixed set of
configs into a temporary directory and print one ``sha256  artifact`` line per
file written, sorted by artifact.

The set is: ``simulate`` (Type-1 and Type-2 data); ``estimate`` with the aipsw,
eb and kulsif + kernel_ridge (rbf and linear kernel) recipes, for theta and
theta1, on both datasets, plain and 3-bag cross-fitted; ``calibrate`` (both
methods with the aipsw recipe, and ``covariates_only`` with the kernel_rbf
recipe's kernel ridge outcome); and ``montecarlo`` on each ``examples/*.json``.
Commands run with the temporary directory as the working directory and
relative paths, so the config hashes the reports embed do not depend on where
it is.

Two source trees that print the same lines emit byte-identical artifacts.
Digests depend on the BLAS build, so compare runs made on one machine only:

    PYTHONPATH=src python scripts/artifact_digest.py > change.txt
    PYTHONPATH=/path/to/other/checkout/src python scripts/artifact_digest.py > parent.txt
    diff parent.txt change.txt

``--size tiny`` shrinks n, the replicate counts and the integration draws, so
the whole set runs in seconds.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from shifteval.cli import main as shifteval_main

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
POLICY = {"type": "linear", "intercept": 0.2, "coeffs": [1.0, -1.0]}
SIMULATION = {
    "p": 2, "mu": [0.5, 0.5], "rho_s": 0.5, "n": 4000,
    "outcome_coeffs": [1.0, 1.0, 0.5, 0.25, 0.5, -0.5],
    "noise_sd": 1.0, "propensity": 0.5, "seed": 7,
}
CANDIDATES = [
    {"c": 0.1, "rule": POLICY},
    {"c": 0.5, "rule": {"type": "linear", "intercept": 1.0, "coeffs": [0.0, 0.0]}},
    {"c": 1.0, "rule": {"type": "linear", "intercept": -1.0, "coeffs": [0.0, 0.0]}},
]
RECIPES = {
    "aipsw": {"weights": "aipsw", "propensity": "logistic", "outcome": "linear"},
    "eb": {"weights": "eb", "propensity": "logistic", "outcome": "linear"},
    "kernel_rbf": {"weights": "kulsif", "propensity": "logistic", "outcome": "kernel_ridge",
                   "kernel": {"family": "rbf"}},
    "kernel_linear": {"weights": "kulsif", "propensity": "logistic", "outcome": "kernel_ridge",
                      "kernel": {"family": "linear"}},
}
# --size tiny: n is divided by this, replicates and integration draws are set
TINY = {"n_divisor": 10, "replications": 20, "draws": 10_000}


def parse_args():
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    p.add_argument("--size", choices=["full", "tiny"], default="full")
    return p.parse_args()


def write_config(name, payload):
    path = Path("configs", name)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


def run(*argv):
    """Run one shifteval command in process; exit with its error line on failure."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = shifteval_main(list(argv))
    if code != 0:
        sys.exit(f"shifteval {' '.join(argv)} exited {code}: {err.getvalue().strip()}")


def produce(tiny: bool):
    """Write the configs under configs/ and every artifact beside it."""
    sim = dict(SIMULATION, n=SIMULATION["n"] // TINY["n_divisor"] if tiny else SIMULATION["n"])
    config = write_config("simulation.json", sim)
    for kind in ("type1", "type2"):
        run("simulate", "--config", config, "--kind", kind, "--out", f"simulate/{kind}")

    for kind in ("type1", "type2"):
        for name, recipe in RECIPES.items():
            config = write_config(f"estimate_{kind}_{name}.json", {
                "dataset": f"simulate/{kind}/dataset.csv", "policy": POLICY, **recipe,
            })
            for estimand in ("theta", "theta1"):
                for crossfit in (0, 3):
                    run("estimate", "--config", config, "--variant", estimand,
                        "--crossfit", str(crossfit),
                        "--out", f"estimate/{kind}/{name}/{estimand}/crossfit{crossfit}")

    candidates = write_config("candidates.json", CANDIDATES)
    for method in ("covariates_only", "ipw"):
        config = write_config(f"calibrate_{method}.json", {
            "dataset": "simulate/type1/dataset.csv", "candidates": candidates,
            "method": method, **RECIPES["aipsw"],
        })
        run("calibrate", "--config", config, "--out", f"calibrate/{method}")
    config = write_config("calibrate_covariates_only_kernel_rbf.json", {
        "dataset": "simulate/type1/dataset.csv", "candidates": candidates,
        "method": "covariates_only", **RECIPES["kernel_rbf"],
    })
    run("calibrate", "--config", config, "--out", "calibrate/covariates_only_kernel_rbf")

    for example in sorted(EXAMPLES.glob("*.json")):
        study = json.loads(example.read_text())
        if tiny:
            study["base"]["n"] //= TINY["n_divisor"]
            study["replications"] = TINY["replications"]
            study["truth_draws"] = study["variance_draws"] = TINY["draws"]
        config = write_config(f"montecarlo_{example.name}", study)
        run("montecarlo", "--config", config, "--out", f"montecarlo/{example.stem}")


def main():
    args = parse_args()
    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="shifteval-digest-") as tmp:
        os.chdir(tmp)
        try:
            produce(args.size == "tiny")
            lines = sorted(
                (path.as_posix(), hashlib.sha256(path.read_bytes()).hexdigest())
                for path in Path(".").rglob("*")
                if path.is_file() and path.parts[0] != "configs"
            )
        finally:
            os.chdir(home)
    for artifact, digest in lines:
        print(f"{digest}  {artifact}")


if __name__ == "__main__":
    main()
