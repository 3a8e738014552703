"""shifteval benchmark: four closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --smoke

Workloads (one client, one op in flight):

* ``cli-batch``: fresh ``shifteval`` processes in round robin: simulate,
  estimate (aipsw/logistic/linear), estimate --weights eb, calibrate.
* ``kernel-estimate``: KuLSIF + logistic + kernel-ridge fits and
  ``estimate_efficient`` on Type-2 datasets, in process.
* ``mc-oracle``: one ``run_replications`` study of the four oracle variants.
* ``mc-crossfit``: one study of an oracle and a cross-fitted estimator.

Each run starts the workload driver (driver.py) in fresh interpreters: with
``--trace 0`` it sets up SETUP_SAMPLES times and times ops for ``--seconds``
in the last one, and prints the end-to-end metrics; with ``--trace 1`` it
times traced and untraced ops in pairs and prints the per-layer metrics.
Outputs are checked for correctness; failed ops count in ``failed``. The
last line of standard output is the JSON result; the line before it records
the machine, sample counts and errors, and is also written under
``.perfbench_out/results/``. Spans of traced runs go to
``.perfbench_out/traces/``.

``--smoke`` runs every workload at tiny sizes, traced and untraced, checks
that every metric in BENCHMARK.json is emitted with its unit, and checks
that a corrupted output is counted as a failed op.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-batch", "kernel-estimate", "mc-oracle", "mc-crossfit")
E2E_UNITS = {"setup_s": "s", "op_s.p50": "s", "op_s.tail": "s", "peak_rss_mb": "MiB"}
SETUP_SAMPLES = 3  # set-up is measured this many times per run; the median is reported
TAIL_BEYOND = 10  # op_s.tail is the highest op time with this many slower ops
DRIVER_TIMEOUT_S = 170


def child_env() -> dict:
    """Environment of every driver: the checkout's src first on the path, and
    no more BLAS threads than cores available to this process."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    nproc = len(os.sched_getaffinity(0))
    requested = env.get("OPENBLAS_NUM_THREADS", "")
    if not requested.isdigit() or not 0 < int(requested) <= nproc:
        env["OPENBLAS_NUM_THREADS"] = str(nproc)
    return env


def drive(workload, seed, seconds, trace, size, setup_only=False, corrupt=False) -> dict:
    """Run driver.py once in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, str(HERE / "driver.py"), "--root", str(ROOT),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--size", size]
    cmd += ["--setup-only"] * setup_only + ["--corrupt"] * corrupt
    proc = subprocess.Popen([*cmd, "--t0", repr(time.monotonic())], env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the driver and any CLI process it started
        proc.communicate()
        raise RuntimeError(f"{workload} driver timed out after {DRIVER_TIMEOUT_S}s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} driver exited {proc.returncode}:\n{err[-3000:]}")
    return json.loads(out.strip().splitlines()[-1])


def tail(times) -> tuple:
    """(value, rank, percentile): the highest op time with TAIL_BEYOND slower ops,
    or the fastest op when the run has fewer than TAIL_BEYOND + 1 ops."""
    ordered = sorted(times)
    rank = max(len(ordered) - TAIL_BEYOND, 1)
    return ordered[rank - 1], rank, 100.0 * rank / len(ordered)


def run_workload(workload, seed, seconds, trace, size="full", corrupt=False) -> tuple:
    """One benchmark run of one workload: (result, detail)."""
    if trace:
        main = drive(workload, seed, seconds, 1, size)
        setups = []
        values = main["layers"]
        units = PER_LAYER_UNITS
    else:
        setups = [drive(workload, seed, seconds, 0, size, setup_only=True)
                  for _ in range(SETUP_SAMPLES - 1)]
        main = drive(workload, seed, seconds, 0, size, corrupt=corrupt)
        times = main["op_seconds"]
        tail_value, rank, percentile = tail(times)
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in [*setups, main]),
            "op_s.p50": statistics.median(times),
            "op_s.tail": tail_value,
            "peak_rss_mb": main["peak_rss_mb"],
        }
        units = E2E_UNITS
    attempted = sum(r["attempted"] for r in [*setups, main])
    failed = sum(r["failed"] for r in [*setups, main])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "size": size,
        "error_rate": failed / attempted,
        "errors": [e for r in [*setups, main] for e in r["errors"]],
        "setup_samples_s": [r["setup_s"] for r in [*setups, main]],
        "machine": main["machine"],
    }
    if not trace:
        detail["op_samples"] = len(times)
        detail["op_s.tail"] = {"rank": rank, "count": len(times), "percentile": percentile}
    return result, detail


def report(result, detail) -> None:
    """Print the human-readable summary and the detail line, and save both."""
    name = detail["workload"]
    for metric, m in result["metrics"].items():
        print(f"{name:16s} {metric:42s} {m['value']:.6g} {m['unit']}")
    print(f"{name:16s} {'error_rate':42s} {detail['error_rate']:.6g} "
          f"({result['failed']}/{result['attempted']} ops failed)")
    print(json.dumps(detail))
    out = ROOT / ".perfbench_out" / "results"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{name}-seed{detail['seed']}-trace{detail['trace']}.json"
    path.write_text(json.dumps({"result": result, "detail": detail}, indent=1))


def smoke() -> int:
    """Every workload once at tiny sizes; exit 0 only if every check holds."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    mapped = json.loads((HERE / "layer_map.json").read_text())["moves"]
    if set(mapped) != set(wanted[1]):
        problems.append(f"layer_map.json maps {sorted(mapped)}, not the per-layer metrics")
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, detail = run_workload(workload, 1, 1, trace, size="tiny")
            report(result, detail)
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            if emitted != wanted[trace]:
                problems.append(f"{workload} trace={trace}: emitted {emitted}, "
                                f"BENCHMARK.json lists {wanted[trace]}")
            if not result["correct"]:
                problems.append(f"{workload} trace={trace}: {detail['errors']}")
        result, detail = run_workload(workload, 1, 1, 0, size="tiny", corrupt=True)
        if result["failed"] != 1:
            problems.append(f"{workload}: a corrupted output gave {result['failed']} failed "
                            f"ops, expected 1")
    for p in problems:
        print(f"SMOKE FAIL: {p}")
    print("smoke: " + ("FAIL" if problems else "OK"))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=json.loads(
        (ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "shifteval" / "__init__.py").is_file():
        print(f"error: no shifteval sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result, detail = run_workload(name, args.seed, args.seconds, args.trace)
        report(result, detail)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(result if len(names) == 1 else combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
