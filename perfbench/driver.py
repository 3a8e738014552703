"""Run one workload once: set up, warm up, time a closed loop, check outputs.

run.py starts this file in a fresh interpreter for every set-up sample and
every measured run, with the checkout's ``src`` on PYTHONPATH. It prints one
JSON object on its last line of standard output.

An op is one unit of work of the workload (one CLI command, one
fit-and-estimate, or one Monte Carlo study). One client keeps one op in
flight. The first op is an untimed warm-up; its end marks the end of set-up.
Every op's outputs are kept in memory and checked after the timed loop, so
checking neither delays ops nor enters their times. An op fails when it
raises, exits non-zero, or fails the check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from tracing import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
Z = 5.0  # an estimate more than Z standard errors from the truth fails the check
COEFFS = [1.0, 1.0, 0.5, 0.25, 0.5, -0.5]  # the README simulation design
POLICY = {"type": "linear", "intercept": 0.2, "coeffs": [1.0, -1.0]}
CANDIDATES = [
    {"c": 0.1, "rule": {"type": "linear", "intercept": 0.2, "coeffs": [1.0, -1.0]}},
    {"c": 0.5, "rule": {"type": "linear", "intercept": 1.0, "coeffs": [0.0, 0.0]}},
    {"c": 1.0, "rule": {"type": "linear", "intercept": 0.0, "coeffs": [1.0, 0.0]}},
]
SUBPROCESS_TIMEOUT_S = 150

SIZES = {
    "full": {
        "cli-batch": {"n": 4000},
        "kernel-estimate": {"n": 4000, "datasets": 3},
        "mc-oracle": {"n": 4000, "replications": 300, "truth_draws": 1_000_000,
                      "variance_draws": 1_000_000},
        "mc-crossfit": {"n": 2000, "replications": 100, "truth_draws": 400_000,
                        "variance_draws": 10_000, "k": 5},
    },
    "tiny": {
        "cli-batch": {"n": 400},
        "kernel-estimate": {"n": 400, "datasets": 3},
        "mc-oracle": {"n": 400, "replications": 20, "truth_draws": 20_000,
                      "variance_draws": 20_000},
        "mc-crossfit": {"n": 400, "replications": 10, "truth_draws": 20_000,
                        "variance_draws": 2_000, "k": 5},
    },
}


class OpFailed(Exception):
    pass


def finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def sim_config(se, n: int, seed: int):
    return se.SimulationConfig(p=2, mu=[0.5, 0.5], rho_s=0.5, n=n, outcome_coeffs=COEFFS,
                               noise_sd=1.0, propensity=0.5, seed=seed)


def policy_from(se, rule: dict):
    return se.LinearPolicy(rule["intercept"], rule["coeffs"])


# ---------------------------------------------------------------------------
# Workloads. Each has ``cycle`` (distinct inputs in its op mix), ``start``
# (the timed op), ``collect`` (outputs as bytes, untimed), ``prepare_checks``
# and ``check`` (problems found in one op's outputs).
# ---------------------------------------------------------------------------


class CliBatch:
    """Round robin of fresh `shifteval` processes on the README configs."""

    cycle = 4
    uses_children = True
    replications = 0

    def __init__(self, se, seed, size, work, env, tracer):
        self.se, self.work, self.env, self.tracer = se, work, env, tracer
        self.sim = sim_config(se, size["n"], seed)
        self.import_s = []
        sim_dir = work / "sim"  # the warm-up op's output, read by every later command
        files = {
            "sim.json": self.sim.to_json_dict(),
            "est.json": {
                "dataset": str(sim_dir / "dataset.csv"), "estimand": "theta",
                "policy": POLICY, "weights": "aipsw", "propensity": "logistic",
                "outcome": "linear", "truth": str(sim_dir / "truth.json"),
                "crossfit": 0, "level": 0.95, "seed": 0,
            },
            "cal.json": {
                "dataset": str(sim_dir / "dataset.csv"), "candidates": str(work / "cand.json"),
                "method": "covariates_only", "truth": str(sim_dir / "truth.json"),
            },
            "cand.json": CANDIDATES,
        }
        (work / "ops").mkdir(parents=True, exist_ok=True)
        for name, payload in files.items():
            (work / name).write_text(json.dumps(payload))
        self.commands = [
            ("simulate", ["simulate", "--config", str(work / "sim.json")],
             ("dataset.csv", "truth.json")),
            ("estimate", ["estimate", "--config", str(work / "est.json")],
             ("estimate_report.json",)),
            ("estimate-eb", ["estimate", "--config", str(work / "est.json"), "--weights", "eb"],
             ("estimate_report.json",)),
            ("calibrate", ["calibrate", "--config", str(work / "cal.json")],
             ("selection.json",)),
        ]

    def _out(self, i):
        return self.work / "sim" if i == 0 else self.work / "ops" / str(i)

    def start(self, i, traced):
        _, args, _ = self.commands[i % self.cycle]
        args = [*args, "--out", str(self._out(i))]
        if traced:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(self._spans(i)), *args]
        else:
            cmd = [sys.executable, "-m", "shifteval.cli", *args]
        return subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S)

    def _spans(self, i):
        return self.work / "ops" / f"{i}.spans.json"

    def collect(self, i, proc, traced):
        if proc.returncode != 0:
            raise OpFailed(f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
        if traced:
            exported = json.loads(self._spans(i).read_text())
            self.import_s.append(exported["import_s"])
            self.tracer.ingest(exported, i)
        _, _, names = self.commands[i % self.cycle]
        return {name: (self._out(i) / name).read_bytes() for name in names}

    def prepare_checks(self):
        import jsonschema

        se = self.se
        schemas = Path(se.__file__).parent / "schemas"
        self.validators = {
            name: jsonschema.Draft7Validator(
                json.loads((schemas / f"{name}.schema.json").read_text()))
            for name in ("truth", "estimate_report", "selection")
        }
        data, _ = se.simulate_gaussian_shift(self.sim)
        se.write_dataset_csv(data, self.work / "reference.csv")
        self.reference_csv = (self.work / "reference.csv").read_bytes()
        self.theta = se.true_policy_values(self.sim, policy_from(se, POLICY))["theta"]
        # covariates-only values average C(x) d(x) over the n0 calibration rows
        x = np.random.default_rng(0).standard_normal((200_000, self.sim.p))
        cte = self.sim.outcome_mean(x, 1.0) - self.sim.outcome_mean(x, -1.0)
        self.calib_truth = {}
        for cand in CANDIDATES:
            pol = policy_from(se, cand["rule"])
            sd = float(np.std(cte * pol(x)))
            truth = se.true_policy_values(self.sim, pol)["theta1"]
            self.calib_truth[cand["c"]] = (truth, sd / math.sqrt(data.n0))

    def _schema(self, name, doc):
        return [f"{name} schema: {e.message}" for e in self.validators[name].iter_errors(doc)]

    def check(self, key, out):
        command = self.commands[key][0]
        if command == "simulate":
            problems = self._schema("truth", json.loads(out["truth.json"]))
            if out["dataset.csv"] != self.reference_csv:
                problems.append("dataset.csv differs from write_dataset_csv of the same config")
            return problems
        if command == "calibrate":
            doc = json.loads(out["selection.json"])
            problems = self._schema("selection", doc)
            values = {row["c"]: row["value"] for row in doc["table"]}
            if not finite(*values.values()) or len(values) != len(CANDIDATES):
                return problems + ["selection table is incomplete or not finite"]
            best = max(values.values())
            if doc["chosen_c"] != min(c for c, v in values.items() if v == best):
                problems.append("chosen_c is not the first maximiser of the table")
            for c, value in values.items():
                truth, se = self.calib_truth[c]
                if abs(value - truth) > Z * se:
                    problems.append(f"value for c={c} is {value} vs truth {truth} (se {se:.3g})")
            return problems
        doc = json.loads(out["estimate_report.json"])
        problems = self._schema("estimate_report", doc)
        if not (finite(doc["estimate"], doc["se"], *doc["ci"]) and doc["se"] > 0):
            return problems + ["estimate, se or ci is not finite"]
        if abs(doc["estimate"] - self.theta) > Z * doc["se"]:
            problems.append(f"estimate {doc['estimate']} is more than {Z} se from {self.theta}")
        return problems


class KernelEstimate:
    """In-process KuLSIF + logistic + kernel-ridge fit and efficient estimate."""

    uses_children = False
    replications = 0

    def __init__(self, se, seed, size, work, env, tracer):
        self.se = se
        self.cycle = size["datasets"]
        self.configs = [sim_config(se, size["n"], 1000 * seed + j) for j in range(self.cycle)]
        self.datasets = [se.simulate_gaussian_shift(c)[0].as_type2() for c in self.configs]
        self.policy = policy_from(se, POLICY)
        self.recipe = se.FitRecipe(weights="kulsif", propensity="logistic",
                                   outcome="kernel_ridge", kernel=se.KernelSpec())

    def start(self, i, traced):
        se = self.se
        data = self.datasets[i % self.cycle]
        nuisances = se.assemble_nuisances(data, self.recipe)
        return se.estimate_efficient(data, nuisances, self.policy, se.Estimand.VALUE,
                                     kind=se.DatasetKind.TYPE2)

    def collect(self, i, report, traced):
        return {"report": json.dumps({"estimate": report.estimate, "se": report.se,
                                      "ci": list(report.ci)}).encode()}

    def prepare_checks(self):
        self.theta = [self.se.true_policy_values(c, self.policy)["theta"] for c in self.configs]

    def check(self, key, out):
        doc = json.loads(out["report"])
        if not (finite(doc["estimate"], doc["se"], *doc["ci"]) and doc["se"] > 0):
            return ["estimate, se or ci is not finite"]
        if abs(doc["estimate"] - self.theta[key]) > Z * doc["se"]:
            return [f"estimate {doc['estimate']} is more than {Z} se from {self.theta[key]}"]
        return []


class McStudy:
    """In-process `run_replications`; one op is one whole study."""

    cycle = 1
    uses_children = False

    def __init__(self, se, seed, size, work, env, tracer, crossfit):
        self.se = se
        self.replications = size["replications"]
        self.policy = policy_from(se, POLICY)
        self.base = sim_config(se, size["n"], 1000 * seed)  # replicate r uses seed + r
        E, K = se.Estimand, se.DatasetKind
        if crossfit:  # the criterion-4 menu
            specs = (
                se.EstimatorSpec(name="oracle", estimand=E.VALUE, kind=K.TYPE2),
                se.EstimatorSpec(name="crossfit", estimand=E.VALUE, kind=K.TYPE2,
                                 weights="aipsw", propensity="logistic", outcome="linear",
                                 crossfit=True),
            )
        else:  # the criterion-2 menu: theta/theta1 x Type-1/Type-2 oracles
            specs = tuple(se.EstimatorSpec(name=f"{e.value}_{k.value}", estimand=e, kind=k)
                          for e in (E.VALUE, E.CONTRAST) for k in (K.TYPE1, K.TYPE2))
        self.config = se.McConfig(
            base=self.base, replications=self.replications, policy=self.policy,
            estimators=specs, crossfit_k=size.get("k", 5), n_jobs=1,
            truth_draws=size["truth_draws"], variance_draws=size["variance_draws"])

    def start(self, i, traced):
        return self.se.run_replications(self.config)

    def collect(self, i, summary, traced):
        return {"summary": json.dumps(summary.to_json_dict(), sort_keys=True).encode(),
                "estimates": summary.estimates.tobytes()}

    def prepare_checks(self):
        self.truth = self.se.true_policy_values(self.base, self.policy,
                                                draws=self.config.truth_draws)

    def check(self, key, out):
        doc = json.loads(out["summary"])
        r, n, level = self.replications, self.base.n, self.config.level
        problems = []
        if doc["truth"] != self.truth:
            problems.append("summary truth differs from true_policy_values")
        if not np.all(np.isfinite(np.frombuffer(out["estimates"]))):
            problems.append("replicate estimates are not finite")
        cov_band = Z * math.sqrt(level * (1 - level) / r)
        ratio_band = Z * math.sqrt(2.0 / (r - 1)) + 0.1  # + integration and finite-n slack
        for e in doc["estimators"]:
            name = e["name"]
            if not finite(e["bias"], e["var_sqrt_n"], e["coverage"], e["target_sqrt_n"]):
                problems.append(f"{name}: summary is not finite")
                continue
            if abs(e["bias"]) > Z * math.sqrt(e["var_sqrt_n"] / n / r):
                problems.append(f"{name}: bias {e['bias']:.4g} exceeds {Z} Monte Carlo se")
            if abs(e["coverage"] - level) > cov_band:
                problems.append(f"{name}: coverage {e['coverage']} outside {level} +- {cov_band:.3f}")
            ratio = e["var_sqrt_n"] / e["target_sqrt_n"]
            if abs(ratio - 1.0) > ratio_band:
                problems.append(f"{name}: variance/target {ratio:.3f} outside 1 +- {ratio_band:.3f}")
        return problems


WORKLOADS = {
    "cli-batch": CliBatch,
    "kernel-estimate": KernelEstimate,
    "mc-oracle": lambda *a: McStudy(*a, crossfit=False),
    "mc-crossfit": lambda *a: McStudy(*a, crossfit=True),
}


# ---------------------------------------------------------------------------
# Machine and runtime record
# ---------------------------------------------------------------------------


def blas_threads() -> dict:
    """Thread count of each loaded OpenBLAS, read through its own API."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def machine() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        l3 = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "driver_threads": threading.active_count(),
        "l3_cache": l3,
    }


def import_probe(env, samples: int = 3) -> float:
    """Median time of `import shifteval.cli` in fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import shifteval.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True, timeout=SUBPROCESS_TIMEOUT_S)
        times.append(float(proc.stdout))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--t0", required=True, type=float,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--corrupt", action="store_true",
                        help="flip one byte in each output of the first timed op that "
                             "repeats the warm-up's input, before checking (smoke test)")
    args = parser.parse_args()

    src = (args.root / "src").resolve()
    import shifteval as se

    if Path(se.__file__).resolve().parent != src / "shifteval":
        raise SystemExit(f"shifteval imported from {se.__file__}, not from {src}")

    work = args.root / ".perfbench_out" / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tracer = Tracer() if args.trace else None
    wl = WORKLOADS[args.workload](se, args.seed, SIZES[args.size][args.workload], work,
                                  dict(os.environ), tracer)
    records = []

    def run_op(i, traced):
        rec = {"op": i, "key": i % wl.cycle, "traced": traced, "error": None, "outputs": None}
        if traced:
            tracer.op_id = i
            tracer.install()
        tic = time.perf_counter()
        try:
            raw = wl.start(i, traced)
        except Exception as e:  # a failing op is counted, not fatal to the run
            raw, rec["error"] = None, f"{type(e).__name__}: {e}"
        rec["seconds"] = time.perf_counter() - tic
        if traced:
            tracer.uninstall()
        if raw is not None:
            try:
                rec["outputs"] = wl.collect(i, raw, traced)
            except Exception as e:
                rec["error"] = f"{type(e).__name__}: {e}"
        records.append(rec)

    run_op(0, traced=False)  # warm-up
    setup_s = time.monotonic() - args.t0
    result = {"workload": args.workload, "setup_s": setup_s}

    if not args.setup_only:
        deadline = time.perf_counter() + args.seconds
        i = 1
        while True:
            # every run covers the op mix at least once; trace runs pair each
            # traced op with an untraced one on the same input and cover
            # whole cycles of the mix
            done = i > wl.cycle and time.perf_counter() >= deadline
            if args.trace:
                done = done and (i - 1) % wl.cycle == 0
            if done:
                break
            if args.trace:
                for traced in ((True, False) if i % 2 else (False, True)):
                    run_op(i, traced)
            else:
                run_op(i, traced=False)
            i += 1

    if args.corrupt:
        out = next(r for r in records if r["op"] == wl.cycle and not r["traced"])["outputs"]
        for name, blob in out.items():
            mid = len(blob) // 2
            out[name] = blob[:mid] + bytes([blob[mid] ^ 1]) + blob[mid + 1:]

    if not args.setup_only:
        wl.prepare_checks()
    first = {}
    for rec in records:
        if rec["error"] is not None or args.setup_only:
            continue
        try:
            problems = wl.check(rec["key"], rec["outputs"])
        except Exception as e:  # unparseable or incomplete output
            problems = [f"check raised {type(e).__name__}: {e}"]
        if rec["outputs"] != first.setdefault(rec["key"], rec["outputs"]):
            problems.append("outputs differ from the first op on the same input")
        if problems:
            rec["error"] = "; ".join(problems)

    errors = [f"op {r['op']}: {r['error']}" for r in records if r["error"] is not None]
    who = resource.RUSAGE_CHILDREN if wl.uses_children else resource.RUSAGE_SELF
    result.update(
        attempted=len(records),
        failed=len(errors),
        errors=errors[:10],
        op_seconds=[r["seconds"] for r in records[1:] if not r["traced"]],
        peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0,
        machine=machine(),
    )
    if args.trace:
        traced = [r for r in records if r["traced"]]
        untraced = {r["op"]: r["seconds"] for r in records[1:] if not r["traced"]}
        layers = layer_metrics(tracer, [r["op"] for r in traced], wl.replications)
        layers["trace.overhead_s"] = statistics.median(
            r["seconds"] - untraced[r["op"]] for r in traced)
        layers["cli.import_s"] = (statistics.median(wl.import_s) if args.workload == "cli-batch"
                                  else import_probe(dict(os.environ)))
        result["layers"] = layers
        traces = args.root / ".perfbench_out" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        with open(traces / f"{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], **tracer.export()}, fh)
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
