import concurrent.futures
import importlib.util
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

from shifteval import (
    DatasetKind,
    Estimand,
    EifVariant,
    FitRecipe,
    TheoreticalVariance,
    constant_policy,
    estimate_efficient,
    simulate_gaussian_shift,
    split_cross_fit_folds,
    true_policy_values,
)
from shifteval import estimators, montecarlo
from shifteval.errors import InfeasibleBalance, InvalidConfig, ShiftEvalError
from shifteval.montecarlo import EstimatorSpec, McConfig, run_replications

from conftest import make_config

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"


def closed_form_values(config, policy):
    """Independent oracle: E[Q(X, d)] and E[C(X) d(X)] over N_p(0, I) in
    closed form for the linear outcome model and a linear decision rule."""
    c = config.outcome_coeffs
    p = config.p
    b0, bx = c[0], c[1 : p + 1]
    g0, gx = c[p + 1], c[p + 2 :]
    c0, cv = policy.intercept, policy.coeffs
    sigma_t = float(np.linalg.norm(cv))
    m = c0 / sigma_t
    mean_sign = 2 * norm.cdf(m) - 1
    # E[sign(T) G] for jointly normal (T, G), T = c0 + cv.X, G = g0 + gx.X
    cov_tg = float(cv @ gx)
    e_sign_g = g0 * mean_sign + (cov_tg / sigma_t) * 2 * norm.pdf(m)
    theta = b0 + e_sign_g  # E[bx.X] = 0 under the testing law
    theta1 = 2 * e_sign_g
    return theta, theta1


def oracle_menu():
    return tuple(
        EstimatorSpec(name=f"{e.value}_{k.value}", estimand=e, kind=k)
        for e in (Estimand.VALUE, Estimand.CONTRAST)
        for k in (DatasetKind.TYPE1, DatasetKind.TYPE2)
    )


def mixed_menu():
    """The four oracle variants, aipsw/logistic/linear for both estimands on
    both kinds, eb on Type-1 data, and cross-fitted aipsw for both estimands
    on Type-2 data and for the value on Type-1 data."""
    fitted = {"weights": "aipsw", "propensity": "logistic", "outcome": "linear"}
    eb = fitted | {"weights": "eb"}
    return (
        oracle_menu()
        + tuple(
            EstimatorSpec(name=f"aipsw_{e.value}_{k.value}", estimand=e, kind=k, **fitted)
            for e in (Estimand.VALUE, Estimand.CONTRAST)
            for k in (DatasetKind.TYPE1, DatasetKind.TYPE2)
        )
        + (
            EstimatorSpec(name="eb_theta_type1", estimand=Estimand.VALUE,
                          kind=DatasetKind.TYPE1, **eb),
            EstimatorSpec(name="eb_theta1_type1", estimand=Estimand.CONTRAST,
                          kind=DatasetKind.TYPE1, **eb),
            EstimatorSpec(name="crossfit", estimand=Estimand.VALUE, kind=DatasetKind.TYPE2,
                          crossfit=True, **fitted),
            EstimatorSpec(name="crossfit_theta1_type2", estimand=Estimand.CONTRAST,
                          kind=DatasetKind.TYPE2, crossfit=True, **fitted),
            EstimatorSpec(name="crossfit_theta_type1", estimand=Estimand.VALUE,
                          kind=DatasetKind.TYPE1, crossfit=True, **fitted),
        )
    )


class TestTruth:
    def test_matches_closed_form(self, policy):
        cfg = make_config(seed=1)
        truth = true_policy_values(cfg, policy, draws=400_000)
        theta, theta1 = closed_form_values(cfg, policy)
        assert truth["theta"] == pytest.approx(theta, abs=0.01)
        assert truth["theta1"] == pytest.approx(theta1, abs=0.01)

    def test_no_shift_constant_policy_closed_form(self):
        cfg = make_config(mu=(0.0, 0.0), seed=2)
        truth = true_policy_values(cfg, constant_policy(1, 2), draws=200_000)
        # theta = b0 + g0 exactly
        assert truth["theta"] == pytest.approx(1.25, abs=0.01)
        assert truth["theta1"] == pytest.approx(0.5, abs=0.01)


class TestRunReplications:
    def test_noiseless_oracle_unbiased(self, policy):
        cfg = make_config(n=500, noise_sd=0.0, seed=3)
        mc = McConfig(
            base=cfg, replications=2, policy=policy, estimators=oracle_menu()[:2],
            truth_draws=400_000, variance_draws=10_000,
        )
        s = run_replications(mc)
        for e in s.estimators:
            # only simulation noise in the covariate draw; generous bound
            assert abs(e.bias) < 0.2

    def test_deterministic_summary(self, policy):
        cfg = make_config(n=300, seed=4)
        mc = McConfig(base=cfg, replications=4, policy=policy, estimators=oracle_menu(),
                      truth_draws=50_000, variance_draws=10_000)
        s1 = run_replications(mc)
        s2 = run_replications(mc)
        assert json.dumps(s1.to_json_dict(), sort_keys=True) == json.dumps(
            s2.to_json_dict(), sort_keys=True
        )

    def test_parallel_equals_serial(self, policy):
        cfg = make_config(n=300, seed=5)
        serial = McConfig(base=cfg, replications=6, policy=policy, estimators=oracle_menu(),
                          truth_draws=50_000, variance_draws=10_000, n_jobs=1)
        parallel = McConfig(base=cfg, replications=6, policy=policy, estimators=oracle_menu(),
                            truth_draws=50_000, variance_draws=10_000, n_jobs=2)
        s1 = run_replications(serial)
        s2 = run_replications(parallel)
        assert json.dumps(s1.to_json_dict(), sort_keys=True) == json.dumps(
            s2.to_json_dict(), sort_keys=True
        )

    @pytest.mark.parametrize("n_jobs", [0, -1, -5])
    def test_n_jobs_below_one_refused(self, policy, n_jobs):
        with pytest.raises(InvalidConfig, match=rf"^n_jobs must be >= 1, got {n_jobs}$"):
            McConfig(base=make_config(n=200, seed=6), replications=3, policy=policy,
                     estimators=oracle_menu()[:1], n_jobs=n_jobs)

    @pytest.mark.parametrize("field, value", [
        ("replications", 1), ("replications", -3), ("crossfit_k", 1), ("crossfit_k", 0),
    ])
    def test_size_below_minimum_names_the_value(self, policy, field, value):
        with pytest.raises(InvalidConfig, match=rf"^{field} must be >= 2, got {value}$"):
            McConfig(**{"base": make_config(n=200, seed=6), "replications": 3, "policy": policy,
                        "estimators": oracle_menu()[:1], field: value})

    def test_empty_menu_refused(self, policy):
        with pytest.raises(InvalidConfig, match="^estimator menu must be non-empty$"):
            McConfig(base=make_config(n=200, seed=6), replications=3, policy=policy,
                     estimators=())

    @pytest.mark.parametrize("n_jobs, cpus, expected", [
        (64, 8, 3),  # capped by the replicate count
        (64, 2, 2),  # capped by the usable CPUs
        (64, 1, None),  # one worker: serial, no pool
        (2, 8, 2),
    ])
    def test_worker_count_is_capped(self, policy, monkeypatch, n_jobs, cpus, expected):
        started = []

        class SerialPool:
            """Records ``max_workers`` and maps in this process, starting none."""

            def __init__(self, max_workers):
                self.max_workers = max_workers
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                assert chunksize == max(1, 3 // (4 * self.max_workers))
                return map(fn, iterable)

        # run_replications imports the pool class from here when it starts one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        mc = McConfig(base=make_config(n=200, seed=6), replications=3, policy=policy,
                      estimators=oracle_menu()[:1], truth_draws=10_000, variance_draws=10_000)
        serial = run_replications(mc)
        capped = run_replications(replace(mc, n_jobs=n_jobs))
        assert started == ([] if expected is None else [expected])
        assert capped.to_json_dict() == serial.to_json_dict()

    def test_shared_replicate_work_equals_one_fit_per_estimator(self, policy, monkeypatch):
        # estimators sharing a (kind, recipe, crossfit) share one fit per
        # replicate, cross-fitted ones all K bag fits; every estimate must
        # equal a separate estimate_efficient call
        base = make_config(n=400, seed=9)
        menu = mixed_menu()
        mc = McConfig(base=base, replications=3, policy=policy, estimators=menu, crossfit_k=3,
                      level=0.9, truth_draws=10_000, variance_draws=2_000)
        fit_sizes = []
        real = estimators.assemble_nuisances
        with monkeypatch.context() as m:
            m.setattr(estimators, "assemble_nuisances",
                      lambda data, recipe: fit_sizes.append(data.n) or real(data, recipe))
            summary = run_replications(mc)
        recipes = {(s.kind, s.weights, s.propensity, s.outcome, s.crossfit) for s in menu}
        n_crossfit = sum(key[-1] for key in recipes)
        assert n_crossfit == 2 < sum(s.crossfit for s in menu)
        bag_fits = sum(size < base.n for size in fit_sizes)
        assert bag_fits == mc.replications * mc.crossfit_k * n_crossfit
        assert len(fit_sizes) - bag_fits == mc.replications * (len(recipes) - n_crossfit)
        for r in range(mc.replications):
            rep_seed = base.seed + r
            data, oracle = simulate_gaussian_shift(replace(base, seed=rep_seed))
            row = []
            for spec in menu:
                recipe = FitRecipe(weights=spec.weights, propensity=spec.propensity,
                                   outcome=spec.outcome, oracle=oracle)
                folds = (split_cross_fit_folds(data, mc.crossfit_k, seed=rep_seed)
                         if spec.crossfit else None)
                row.append(estimate_efficient(
                    data, recipe, policy, spec.estimand, spec.kind, mc.level, folds
                ).estimate)
            assert summary.estimates[r].tolist() == row

        parallel = run_replications(replace(mc, n_jobs=2))
        assert np.array_equal(parallel.estimates, summary.estimates)
        assert json.dumps(parallel.to_json_dict(), sort_keys=True) == json.dumps(
            summary.to_json_dict(), sort_keys=True
        )

    def test_replicate_failure_is_annotated_and_aborts(self, policy):
        cfg = make_config(n=12, seed=6)
        spec = EstimatorSpec(
            name="cf", estimand=Estimand.VALUE, kind=DatasetKind.TYPE2,
            weights="aipsw", propensity="logistic", outcome="linear", crossfit=True,
        )
        mc = McConfig(base=cfg, replications=20, policy=policy, estimators=(spec,),
                      crossfit_k=5, truth_draws=10_000, variance_draws=10_000)
        with pytest.raises(ShiftEvalError, match="replicate"):
            run_replications(mc)

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_replicate_failure_keeps_the_error_object(self, policy, n_jobs):
        # training x ~ N(8, 1) never reaches the calibration mean near 0, so
        # entropy balancing on x_1 is infeasible; a worker's error is pickled
        cfg = make_config(p=1, mu=(8.0,), n=40, seed=6)
        spec = EstimatorSpec(name="eb", estimand=Estimand.VALUE, kind=DatasetKind.TYPE2,
                             weights="eb")
        mc = McConfig(base=cfg, replications=2, policy=constant_policy(1, 1),
                      estimators=(spec,), n_jobs=n_jobs, truth_draws=10_000,
                      variance_draws=10_000)
        with pytest.raises(InfeasibleBalance, match="^replicate 0: ") as err:
            run_replications(mc)
        assert err.value.coordinate == "x_1"

    def test_benchmark_tracer_sees_one_variance_pass(self, policy):
        # the benchmark's per-layer variance metrics read the spans of the
        # public theoretical_variance, which the study must call once
        spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        mc = McConfig(base=make_config(n=300, seed=7), replications=2, policy=policy,
                      estimators=oracle_menu(), truth_draws=10_000, variance_draws=2_000)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            montecarlo.run_replications(mc)
        finally:
            tracer.uninstall()
        names = [span[0] for span in tracer.spans]
        passes = [span for span in tracer.spans if span[0] == "estimators.theoretical_variance"]
        assert len(passes) == 1
        assert names[passes[0][3]] == "montecarlo.run_replications"

    def test_runtime_not_serialized(self, policy):
        cfg = make_config(n=300, seed=7)
        mc = McConfig(base=cfg, replications=2, policy=policy, estimators=oracle_menu()[:1],
                      truth_draws=10_000, variance_draws=10_000)
        s = run_replications(mc)
        d = s.to_json_dict()
        assert "mean_runtime_s" not in d["estimators"][0]
        assert s.estimators[0].mean_runtime_s > 0.0

    def test_csv_columns(self, policy, tmp_path):
        cfg = make_config(n=300, seed=8)
        mc = McConfig(base=cfg, replications=2, policy=policy, estimators=oracle_menu()[:2],
                      truth_draws=10_000, variance_draws=10_000)
        s = run_replications(mc)
        path = tmp_path / "mc.csv"
        s.write_csv(path)
        header = path.read_text().splitlines()[0].split(",")
        assert header[:4] == ["name", "estimand", "kind", "weights"]
        assert "mean_runtime_s" not in header
        assert len(path.read_text().splitlines()) == 3


def test_equal_strata_sqrt_n_target():
    # n1 = n0 -> gamma1^2 = gamma0^2 = 2 -> target = 2 (nu + zeta)
    target = TheoreticalVariance(
        nu_eff=1.5, zeta_eff=0.5, variant=EifVariant(Estimand.VALUE, DatasetKind.TYPE2)
    )
    assert target.sqrt_n_target(0.5) == pytest.approx(2 * (1.5 + 0.5))
