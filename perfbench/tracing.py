"""Span tracing of shifteval's layers from outside the package.

The tracer replaces each traced public function with a wrapper that records
a span (name, start, end, parent span, op id). Because modules bind imported
names at import time (``from .estimators import estimate_efficient``), the
wrapper is installed under every name in every loaded ``shifteval`` module
that refers to the original object, not only in the defining module.
Methods are wrapped on their class. ``uninstall`` restores the originals, so
untraced ops run the package exactly as shipped.

Spans stay in memory until the run ends; ``layer_metrics`` turns them into
the per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import sys
import time

LAYERS = ("cli", "data_model", "nuisance", "estimators", "montecarlo", "calibration")

# (module, attribute path) of every traced public function; the span name is
# "<module>.<attribute path>".
TARGETS = (
    ("cli", "main"),
    ("calibration", "select_policy"),
    ("data_model", "read_dataset_csv"),
    ("data_model", "write_dataset_csv"),
    ("data_model", "simulate_gaussian_shift"),
    ("data_model", "split_cross_fit_folds"),
    ("data_model", "PooledDataset.from_arrays"),
    ("nuisance", "fit_weights_aipsw"),
    ("nuisance", "fit_weights_kulsif"),
    ("nuisance", "fit_weights_entropy_balancing"),
    ("nuisance", "fit_propensity_logistic"),
    ("nuisance", "fit_outcome_regression"),
    ("nuisance", "WeightModel.__call__"),
    ("estimators", "assemble_nuisances"),
    ("estimators", "estimate_efficient"),
    ("estimators", "cross_fit_estimate"),
    ("estimators", "theoretical_variance"),
    ("montecarlo", "run_replications"),
    ("montecarlo", "true_policy_values"),
)


def _iterations(result) -> int:
    """Newton / entropy-balancing iterations reported in a fit's info dict."""
    info = result.info
    if "strata" in info:  # fit_propensity_logistic: one Newton fit per stratum
        return sum(int(v["iterations"]) for v in info["strata"].values())
    return int(info["iterations"])


# counters read from return values: span name -> (counter name, reader)
COUNTERS = {
    "nuisance.fit_weights_aipsw": ("solver_iterations", _iterations),
    "nuisance.fit_weights_entropy_balancing": ("solver_iterations", _iterations),
    "nuisance.fit_propensity_logistic": ("solver_iterations", _iterations),
}

# per-layer metric -> (unit, kind, span name); kind is "incl" (inclusive
# seconds per op), "self" (self seconds per op), "calls" (spans per op) or
# "counter" (counter total per op).
SPAN_METRICS = {
    "cli.main_self_s": ("s", "self", "cli.main"),
    "calibration.select_policy_s": ("s", "incl", "calibration.select_policy"),
    "data_model.read_dataset_csv_s": ("s", "incl", "data_model.read_dataset_csv"),
    "data_model.write_dataset_csv_s": ("s", "incl", "data_model.write_dataset_csv"),
    "data_model.simulate_gaussian_shift_s": ("s", "incl", "data_model.simulate_gaussian_shift"),
    "data_model.from_arrays_s": ("s", "incl", "data_model.PooledDataset.from_arrays"),
    "data_model.validations_per_op": ("count", "calls", "data_model.PooledDataset.from_arrays"),
    "data_model.split_cross_fit_folds_s": ("s", "incl", "data_model.split_cross_fit_folds"),
    "nuisance.fit_weights_aipsw_s": ("s", "incl", "nuisance.fit_weights_aipsw"),
    "nuisance.fit_weights_kulsif_s": ("s", "incl", "nuisance.fit_weights_kulsif"),
    "nuisance.fit_weights_entropy_balancing_s": (
        "s", "incl", "nuisance.fit_weights_entropy_balancing"),
    "nuisance.fit_propensity_logistic_s": ("s", "incl", "nuisance.fit_propensity_logistic"),
    "nuisance.fit_outcome_regression_s": ("s", "incl", "nuisance.fit_outcome_regression"),
    "nuisance.weight_eval_s": ("s", "incl", "nuisance.WeightModel.__call__"),
    "nuisance.solver_iterations": ("count", "counter", "solver_iterations"),
    "estimators.estimate_efficient_self_s": ("s", "self", "estimators.estimate_efficient"),
    "estimators.cross_fit_estimate_self_s": ("s", "self", "estimators.cross_fit_estimate"),
    "estimators.theoretical_variance_s": ("s", "incl", "estimators.theoretical_variance"),
    "estimators.theoretical_variance_calls": ("count", "calls", "estimators.theoretical_variance"),
    "montecarlo.true_policy_values_s": ("s", "incl", "montecarlo.true_policy_values"),
    "montecarlo.run_replications_self_s": ("s", "self", "montecarlo.run_replications"),
}

# metrics computed from more than one span, or measured outside the spans
DERIVED_METRICS = {
    "cli.import_s": "s",  # median `import shifteval.cli` time in a fresh interpreter
    "montecarlo.replicate_s": "s",  # (study - fixed integration) / R
    "trace.overhead_s": "s",  # median traced-minus-untraced op time
}
LAYER_SELF_METRICS = {f"{layer}.self_s": "s" for layer in LAYERS}

PER_LAYER_UNITS = {
    **{name: spec[0] for name, spec in SPAN_METRICS.items()},
    **DERIVED_METRICS,
    **LAYER_SELF_METRICS,
}


class Tracer:
    """Records spans and counters in memory while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.counts = []  # (counter name, value, op id)
        self.op_id = None
        self._stack = []
        self._restore = []  # (namespace, attribute, original)

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent, self.op_id]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                self.counts.append((counter[0], counter[1](result), self.op_id))
            return result

        return traced

    def install(self) -> None:
        """Wrap every target whose module is loaded."""
        loaded = [m for n, m in list(sys.modules.items())
                  if (n == "shifteval" or n.startswith("shifteval.")) and m is not None]
        for module_name, path in TARGETS:
            module = sys.modules.get(f"shifteval.{module_name}")
            if module is None:
                continue
            name = f"{module_name}.{path}"
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                self._restore.append((cls, attr, raw))
                setattr(cls, attr, wrapped)
                continue
            original = getattr(module, path)
            wrapped = self._wrap(name, original)
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._restore):
            setattr(namespace, attr, original)
        self._restore = []

    def export(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}

    def ingest(self, exported: dict, op_id) -> None:
        """Add spans recorded by another process, re-tagged with ``op_id``."""
        offset = len(self.spans)
        for name, start, end, parent, _ in exported["spans"]:
            self.spans.append([name, start, end, None if parent is None else parent + offset,
                               op_id])
        for counter, value, _ in exported["counts"]:
            self.counts.append((counter, value, op_id))


def self_times(spans) -> list:
    """Each span's duration minus the time covered by its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def layer_metrics(tracer: Tracer, op_ids, replications: int = 0) -> dict:
    """Per-op means over the traced ops ``op_ids`` of every span metric."""
    ops = set(op_ids)
    n_ops = max(len(ops), 1)
    selfs = self_times(tracer.spans)
    incl, own, calls, counts = {}, {}, {}, {}
    for i, (name, start, end, _, op) in enumerate(tracer.spans):
        if op not in ops:
            continue
        incl[name] = incl.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + selfs[i]
        calls[name] = calls.get(name, 0) + 1
        layer = name.split(".")[0]
        own[layer] = own.get(layer, 0.0) + selfs[i]
    for counter, value, op in tracer.counts:
        if op in ops:
            counts[counter] = counts.get(counter, 0) + value
    table = {"incl": incl, "self": own, "calls": calls, "counter": counts}
    out = {metric: table[kind].get(span, 0) / n_ops
           for metric, (_, kind, span) in SPAN_METRICS.items()}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = own.get(layer, 0.0) / n_ops
    fixed = incl.get("montecarlo.true_policy_values", 0.0) + incl.get(
        "estimators.theoretical_variance", 0.0)
    study = incl.get("montecarlo.run_replications", 0.0)
    out["montecarlo.replicate_s"] = (study - fixed) / n_ops / replications if replications else 0.0
    return out
