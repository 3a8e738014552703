"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the heavy replicated studies are shared via session fixtures.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from shifteval import (
    CandidateSet,
    DatasetKind,
    Estimand,
    EifVariant,
    FunctionPolicy,
    KernelSpec,
    LinearPolicy,
    PooledDataset,
    eif_contribution,
    estimate_efficient,
    estimate_plugin_identification,
    fit_weights_aipsw,
    fit_weights_entropy_balancing,
    fit_weights_kulsif,
    select_policy,
    simulate_gaussian_shift,
)
from shifteval.cli import main
from shifteval.montecarlo import EstimatorSpec, McConfig, run_replications

from conftest import make_config

FIXTURES = Path(__file__).parent / "fixtures"
POLICY = LinearPolicy(0.2, np.array([1.0, -1.0]))
ALL_VARIANTS = tuple(
    (e, k)
    for e in (Estimand.VALUE, Estimand.CONTRAST)
    for k in (DatasetKind.TYPE1, DatasetKind.TYPE2)
)


def report(criterion, passed, detail, elapsed):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} ({detail}; {elapsed:.1f}s)")


@pytest.fixture(scope="session")
def theorem2_run():
    base = make_config(n=4000, seed=20260809)
    specs = tuple(
        EstimatorSpec(name=f"{e.value}_{k.value}", estimand=e, kind=k)
        for e, k in ALL_VARIANTS
    )
    tic = time.perf_counter()
    summary = run_replications(
        McConfig(base=base, replications=2000, policy=POLICY, estimators=specs)
    )
    return base, summary, time.perf_counter() - tic


@pytest.fixture(scope="session")
def corollary1_run():
    n1, n0 = 5000, 50
    base = make_config(n=n1 + n0, rho_s=n1 / (n1 + n0), noise_sd=0.5, seed=31)
    specs = (
        EstimatorSpec(name="theta_type2", estimand=Estimand.VALUE, kind=DatasetKind.TYPE2),
        EstimatorSpec(name="theta1_type1", estimand=Estimand.CONTRAST, kind=DatasetKind.TYPE1),
        EstimatorSpec(name="theta1_type2", estimand=Estimand.CONTRAST, kind=DatasetKind.TYPE2),
    )
    tic = time.perf_counter()
    summary = run_replications(
        McConfig(base=base, replications=2000, policy=POLICY, estimators=specs)
    )
    return summary, time.perf_counter() - tic


@pytest.fixture(scope="session")
def crossfit_runs():
    specs = (
        EstimatorSpec(name="oracle", estimand=Estimand.VALUE, kind=DatasetKind.TYPE2),
        EstimatorSpec(
            name="crossfit", estimand=Estimand.VALUE, kind=DatasetKind.TYPE2,
            weights="aipsw", propensity="logistic", outcome="linear", crossfit=True,
        ),
    )
    tic = time.perf_counter()
    runs = {}
    for n in (500, 2000, 8000):
        base = make_config(n=n, seed=41)
        runs[n] = run_replications(
            McConfig(
                base=base, replications=200, policy=POLICY, estimators=specs,
                crossfit_k=5, truth_draws=400_000, variance_draws=10_000,
            )
        )
    return runs, time.perf_counter() - tic


def test_criterion_1_influence_function_algebra(tmp_path):
    tic = time.perf_counter()
    config = tmp_path / "est.json"
    config.write_text(
        json.dumps(
            {
                "dataset": str(FIXTURES / "type2_toy.csv"),
                "estimand": "theta",
                "policy": {"type": "linear", "intercept": 1.0, "coeffs": [0.0]},
                "weights": "oracle",
                "propensity": "oracle",
                "outcome": "oracle",
                "truth": str(FIXTURES / "type2_toy_truth.json"),
            }
        )
    )
    out = tmp_path / "out"
    assert main(["estimate", "--config", str(config), "--out", str(out)]) == 0
    estimate = json.loads((out / "estimate_report.json").read_text())["estimate"]

    worst = 0.0
    for i in range(100):
        data, oracle = simulate_gaussian_shift(make_config(n=40, seed=10_000 + i))
        estimand, kind = ALL_VARIANTS[i % 4]
        rep = estimate_efficient(data, oracle, POLICY, estimand, kind=kind)
        variant = EifVariant(estimand, kind)
        mean_eif = float(
            np.mean(
                [eif_contribution(data, i, oracle, POLICY, variant, rep.estimate)
                 for i in range(data.n)]
            )
        )
        worst = max(worst, abs(mean_eif))
    elapsed = time.perf_counter() - tic
    passed = estimate == 2.0 and worst <= 1e-10 and elapsed < 1.0
    report(
        "1 [influence-function algebra]",
        passed,
        f"fixture estimate {estimate}, worst |mean EIF| {worst:.2e} over 100 datasets",
        elapsed,
    )
    assert estimate == 2.0
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_criterion_2_variance_attainment(theorem2_run):
    base, summary, elapsed = theorem2_run
    worst_dev = 0.0
    coverages = []
    targets = {}
    bias_ok = True
    for e, k in ALL_VARIANTS:
        entry = summary.by_name(f"{e.value}_{k.value}")
        ratio = entry.var_sqrt_n / entry.target_sqrt_n
        assert abs(ratio - 1.0) <= 0.10, (entry.name, ratio)
        worst_dev = max(worst_dev, abs(ratio - 1.0))
        targets[(e, k)] = entry.target_sqrt_n
        coverages.append(entry.coverage)
        bias_se = np.sqrt(entry.var_sqrt_n / base.n / summary.replications)
        bias_ok = bias_ok and abs(entry.bias) <= 3 * bias_se
    cov_ok = all(0.93 <= c <= 0.97 for c in coverages)

    # the closed forms order the Type-1 and Type-2 value estimators; the
    # empirical variances must agree with the computed order
    t1 = targets[(Estimand.VALUE, DatasetKind.TYPE1)]
    t2 = targets[(Estimand.VALUE, DatasetKind.TYPE2)]
    v1 = summary.by_name("theta_type1").var_sqrt_n
    v2 = summary.by_name("theta_type2").var_sqrt_n
    order_ok = (t1 < t2) == (v1 < v2)

    passed = worst_dev <= 0.10 and cov_ok and order_ok and bias_ok and elapsed <= 600
    report(
        "2 [variance bound attainment]",
        passed,
        f"worst |ratio-1| {worst_dev:.3f}, coverage {min(coverages):.3f}-{max(coverages):.3f}, "
        f"bias within 3se {'yes' if bias_ok else 'NO'}, "
        f"type1<type2 order {'consistent' if order_ok else 'violated'}",
        elapsed,
    )
    assert worst_dev <= 0.10
    assert cov_ok
    assert order_ok
    assert bias_ok
    assert elapsed <= 600


def test_criterion_3_small_calibration_limit(corollary1_run):
    summary, elapsed = corollary1_run
    worst = 0.0
    for name in ("theta_type2", "theta1_type1", "theta1_type2"):
        entry = summary.by_name(name)
        ratio = entry.var_sqrt_n0 / entry.target_sqrt_n0
        assert abs(ratio - 1.0) <= 0.15, (name, ratio)
        worst = max(worst, abs(ratio - 1.0))
    passed = worst <= 0.15 and elapsed <= 600
    report(
        "3 [small-calibration limit]",
        passed,
        f"worst |ratio-1| {worst:.3f} vs calibration-only variance",
        elapsed,
    )
    assert worst <= 0.15
    assert elapsed <= 600


def test_criterion_4_cross_fitting_equivalence(crossfit_runs):
    runs, elapsed = crossfit_runs
    gaps, ratios = {}, {}
    for n, summary in runs.items():
        est = summary.estimates
        gaps[n] = float(np.mean(np.sqrt(n) * np.abs(est[:, 1] - est[:, 0])))
        err_or = np.sqrt(n) * (est[:, 0] - summary.truth["theta"])
        err_cf = np.sqrt(n) * (est[:, 1] - summary.truth["theta"])
        ratios[n] = float(np.var(err_cf, ddof=1) / np.var(err_or, ddof=1))
    trend_ok = gaps[500] > gaps[2000] > gaps[8000]
    var_ok = abs(ratios[8000] - 1.0) <= 0.15

    passed = trend_ok and var_ok and elapsed <= 900
    report(
        "4 [cross-fitting equivalence]",
        passed,
        f"mean sqrt(n)|crossfit-oracle| {gaps[500]:.3f} > {gaps[2000]:.3f} > {gaps[8000]:.3f}, "
        f"var(crossfit)/var(oracle) {ratios[500]:.3f} / {ratios[2000]:.3f} / {ratios[8000]:.3f} "
        "at n = 500 / 2000 / 8000",
        elapsed,
    )
    assert trend_ok
    assert var_ok
    assert elapsed <= 900


def test_criterion_5_weight_backends():
    tic = time.perf_counter()
    mu = np.array([0.5, 0.5])

    # (a) AIPSW recovers the selection log-odds
    target = np.array([np.log(1.0) - 0.5 * float(mu @ mu), *mu])
    coefs = []
    for r in range(25):
        data, _ = simulate_gaussian_shift(make_config(n=20_000, seed=100 + r))
        coefs.append(fit_weights_aipsw(data).info["coef"])
    coefs = np.array(coefs)
    dev = np.abs(coefs.mean(axis=0) - target)
    se = coefs.std(axis=0, ddof=1) / np.sqrt(coefs.shape[0])
    aipsw_ok = bool(np.all(dev <= 3 * se))

    # (b) KuLSIF: corrected hand-solved 1x1 dual cases and dual residuals
    toy = PooledDataset.from_arrays(
        np.array([[1.0], [1.0]]), [1, np.nan], [0.5, np.nan], [1, 0], DatasetKind.TYPE2
    )
    wm1 = fit_weights_kulsif(toy, KernelSpec(family="rbf", bandwidth=1.0, ridge=1.0))
    wm2 = fit_weights_kulsif(toy, KernelSpec(family="rbf", bandwidth=1.0, ridge=2.0))
    hand_ok = (
        abs(wm1.evaluator.train.alpha[0] + 0.5) <= 1e-12
        and abs(wm1(toy.x[:1])[0] - 0.5) <= 1e-12
        and abs(wm2.evaluator.train.alpha[0] + 1.0 / 6.0) <= 1e-12
        and abs(wm2(toy.x[:1])[0] - 1.0 / 3.0) <= 1e-12
    )
    worst_residual = 0.0
    rng = np.random.default_rng(5)
    for n_side in (10, 50, 200):
        for _ in range(3):
            x = np.vstack(
                [rng.standard_normal((n_side, 2)) + 0.3, rng.standard_normal((n_side, 2))]
            )
            ds = PooledDataset.from_arrays(
                x,
                [1] * n_side + [np.nan] * n_side,
                [0.0] * n_side + [np.nan] * n_side,
                [1] * n_side + [0] * n_side,
                DatasetKind.TYPE2,
            )
            worst_residual = max(
                worst_residual, fit_weights_kulsif(ds, KernelSpec()).info["dual_residual"]
            )
    kulsif_ok = hand_ok and worst_residual <= 1e-8

    # (c) entropy balancing: exact balance and exponential-tilt recovery
    eta = np.array([0.5 * float(mu @ mu), *(-mu)])
    tilts = []
    worst_balance = 0.0
    for r in range(20):
        data, _ = simulate_gaussian_shift(make_config(n=20_000, seed=300 + r))
        wm = fit_weights_entropy_balancing(data)
        worst_balance = max(worst_balance, wm.info["max_balance_residual"])
        tilts.append(wm.info["tilt"])
    tilts = np.array(tilts)
    dev_eb = np.abs(tilts.mean(axis=0) - eta)
    se_eb = tilts.std(axis=0, ddof=1) / np.sqrt(tilts.shape[0])
    eb_ok = bool(np.all(dev_eb <= 3 * se_eb)) and worst_balance <= 1e-8

    elapsed = time.perf_counter() - tic
    passed = aipsw_ok and kulsif_ok and eb_ok and elapsed <= 300
    report(
        "5 [weight backends]",
        passed,
        f"AIPSW max dev/se {float(np.max(dev / se)):.2f}, KuLSIF residual {worst_residual:.1e}, "
        f"EB balance {worst_balance:.1e} and max dev/se {float(np.max(dev_eb / se_eb)):.2f}",
        elapsed,
    )
    assert aipsw_ok
    assert kulsif_ok
    assert eb_ok
    assert elapsed <= 300


def test_criterion_6_identification_consistency():
    tic = time.perf_counter()
    cfg = make_config(n=20_000, noise_sd=0.0, seed=61)
    data, oracle = simulate_gaussian_shift(cfg)

    estimates = {}
    for form in ("calibration_mean", "weighted_pooled", "weighted_training"):
        r = estimate_plugin_identification(data, oracle, POLICY, Estimand.VALUE, form)
        estimates[f"theta:{form}"] = (r.estimate, r.se)
    for kind in (DatasetKind.TYPE1, DatasetKind.TYPE2):
        r = estimate_efficient(data, oracle, POLICY, Estimand.VALUE, kind=kind)
        estimates[f"theta:eff_{kind.value}"] = (r.estimate, r.se)

    theta1_estimates = {}
    for form in ("calibration_mean", "weighted_pooled", "weighted_training"):
        r = estimate_plugin_identification(data, oracle, POLICY, Estimand.CONTRAST, form)
        theta1_estimates[f"theta1:{form}"] = (r.estimate, r.se)
    for kind in (DatasetKind.TYPE1, DatasetKind.TYPE2):
        r = estimate_efficient(data, oracle, POLICY, Estimand.CONTRAST, kind=kind)
        theta1_estimates[f"theta1:eff_{kind.value}"] = (r.estimate, r.se)
    single = CandidateSet(candidates=((1.0, POLICY),))
    calib_value = select_policy(single, data, "covariates_only", oracle.outcome).table[0]["value"]
    plugin_theta1 = theta1_estimates["theta1:calibration_mean"][0]
    calib_ok = calib_value == plugin_theta1

    def pairwise_ok(group):
        names = list(group)
        worst = 0.0
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                (a, sa), (b, sb) = group[names[i]], group[names[j]]
                z = abs(a - b) / max(float(np.hypot(sa, sb)), 1e-300)
                worst = max(worst, z)
        return worst

    worst_theta = pairwise_ok(estimates)
    worst_theta1 = pairwise_ok(theta1_estimates)

    neg = FunctionPolicy(lambda x: -np.asarray(POLICY(x)), label="negated")
    anti_ok = all(
        estimate_efficient(data, oracle, POLICY, Estimand.CONTRAST, kind=k).estimate
        == -estimate_efficient(data, oracle, neg, Estimand.CONTRAST, kind=k).estimate
        for k in (DatasetKind.TYPE1, DatasetKind.TYPE2)
    )
    corrupted = PooledDataset.from_arrays(
        data.x,
        np.where(data.s == 0, -data.a, data.a),
        np.where(data.s == 0, 5.5 * data.y + 3.0, data.y),
        data.s,
        DatasetKind.TYPE1,
    )
    blind_ok = (
        estimate_efficient(data, oracle, POLICY, Estimand.VALUE, kind=DatasetKind.TYPE2).estimate
        == estimate_efficient(corrupted, oracle, POLICY, Estimand.VALUE, kind=DatasetKind.TYPE2).estimate
    )

    elapsed = time.perf_counter() - tic
    passed = (
        worst_theta <= 3.0 and worst_theta1 <= 3.0 and calib_ok and anti_ok and blind_ok
        and elapsed <= 120
    )
    report(
        "6 [identification consistency]",
        passed,
        f"worst pairwise z theta {worst_theta:.2f} / theta1 {worst_theta1:.2f}, "
        f"calibration equality {'exact' if calib_ok else 'BROKEN'}, "
        f"antisymmetry {'exact' if anti_ok else 'BROKEN'}, "
        f"type2 blindness {'exact' if blind_ok else 'BROKEN'}",
        elapsed,
    )
    assert worst_theta <= 3.0
    assert worst_theta1 <= 3.0
    assert calib_ok and anti_ok and blind_ok
    assert elapsed <= 120


def test_criterion_7_reproducibility(tmp_path):
    tic = time.perf_counter()
    sim = tmp_path / "sim.json"
    sim.write_text(json.dumps(make_config(n=200, seed=77).to_json_dict()))
    for run in ("a", "b"):
        main(["simulate", "--config", str(sim), "--out", str(tmp_path / f"sim_{run}")])
    sim_ok = (tmp_path / "sim_a" / "dataset.csv").read_bytes() == (
        tmp_path / "sim_b" / "dataset.csv"
    ).read_bytes()

    est = tmp_path / "est.json"
    est.write_text(
        json.dumps(
            {
                "dataset": str(tmp_path / "sim_a" / "dataset.csv"),
                "estimand": "theta1",
                "policy": {"type": "linear", "intercept": 0.2, "coeffs": [1.0, -1.0]},
                "weights": "eb",
                "propensity": "logistic",
                "outcome": "linear",
                "seed": 5,
                "crossfit": 2,
            }
        )
    )
    for run in ("a", "b"):
        main(["estimate", "--config", str(est), "--out", str(tmp_path / f"est_{run}")])
    est_ok = (tmp_path / "est_a" / "estimate_report.json").read_bytes() == (
        tmp_path / "est_b" / "estimate_report.json"
    ).read_bytes()

    mc = tmp_path / "mc.json"
    mc.write_text(
        json.dumps(
            {
                "base": make_config(n=300, seed=13).to_json_dict(),
                "replications": 8,
                "policy": {"type": "linear", "intercept": 0.2, "coeffs": [1.0, -1.0]},
                "estimators": [
                    {"name": "theta_t2", "estimand": "theta", "kind": "type2"},
                    {"name": "cf", "estimand": "theta", "kind": "type2",
                     "weights": "aipsw", "propensity": "logistic", "outcome": "linear",
                     "crossfit": True},
                ],
                "crossfit_k": 2,
                "n_jobs": 2,
                "truth_draws": 50_000,
                "variance_draws": 10_000,
            }
        )
    )
    for run in ("a", "b"):
        main(["montecarlo", "--config", str(mc), "--out", str(tmp_path / f"mc_{run}")])
    mc_ok = (tmp_path / "mc_a" / "mc_summary.json").read_bytes() == (
        tmp_path / "mc_b" / "mc_summary.json"
    ).read_bytes() and (tmp_path / "mc_a" / "mc_summary.csv").read_bytes() == (
        tmp_path / "mc_b" / "mc_summary.csv"
    ).read_bytes()

    elapsed = time.perf_counter() - tic
    passed = sim_ok and est_ok and mc_ok
    report(
        "7 [bitwise reproducibility]",
        passed,
        f"simulate {'ok' if sim_ok else 'DIFFERS'}, estimate {'ok' if est_ok else 'DIFFERS'}, "
        f"parallel montecarlo {'ok' if mc_ok else 'DIFFERS'}",
        elapsed,
    )
    assert sim_ok and est_ok and mc_ok
