import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from shifteval import (
    DatasetKind,
    Estimand,
    EifVariant,
    FitRecipe,
    FunctionPolicy,
    LinearPolicy,
    Observation,
    PooledDataset,
    assemble_nuisances,
    constant_policy,
    eif_contribution,
    estimate_efficient,
    estimate_plugin_identification,
    gaussian_oracle_nuisances,
    simulate_gaussian_shift,
    split_cross_fit_folds,
    theoretical_variance,
    true_policy_values,
    wald_ci,
    write_dataset_csv,
)
from shifteval import estimators, montecarlo
from shifteval.errors import (
    InfeasibleBalance,
    InvalidConfig,
    InvalidLevel,
    MissingField,
    MissingStratum,
)

from conftest import make_config

ALL_VARIANTS = tuple(
    EifVariant(e, k)
    for e in (Estimand.VALUE, Estimand.CONTRAST)
    for k in (DatasetKind.TYPE1, DatasetKind.TYPE2)
)


def toy_type2_dataset():
    """n1=2 training rows (A, Y) = (+1, 2), (-1, 0); n0=2 calibration rows."""
    x = np.array([[0.1], [-0.3], [0.5], [0.9]])
    return PooledDataset.from_arrays(
        x, [1, -1, np.nan, np.nan], [2.0, 0.0, np.nan, np.nan], [1, 1, 0, 0], DatasetKind.TYPE2
    )


def core_influence(data, nuisances, policy, estimand, kind):
    """Point estimate and per-row influence vector from the aggregation core."""
    parts = estimators._fit(estimators._frame(data, policy), kind, nuisances)
    cal = parts.frame.cal
    target = estimators._policy_target(nuisances.outcome, cal.x, cal.d, estimand)
    return estimators._combine(parts, estimand, target)


def toy_oracle(q_plus=0.0):
    """Oracle set with w = 1, pi_A = 0.5, Q(x, +1) = q_plus, Q(x, -1) = 0."""
    cfg = make_config(
        p=1, mu=(0.0,), n=4, outcome_coeffs=[q_plus / 2, 0.0, q_plus / 2, 0.0], seed=0
    )
    return gaussian_oracle_nuisances(cfg, rho_hat=0.5)


class TestEifContribution:
    def test_training_row_zero_residual(self):
        nus = toy_oracle()
        ob = Observation(x=np.array([0.1]), a=1, y=0.0, s=1)  # Y equals Q = 0
        v = eif_contribution(ob, nus, constant_policy(1, 1), EifVariant(Estimand.VALUE, DatasetKind.TYPE2), 1.0)
        assert v == 0.0

    def test_calibration_row_centered(self):
        nus = toy_oracle(q_plus=2.0)
        ob = Observation(x=np.array([0.5]), a=None, y=None, s=0)
        v = eif_contribution(ob, nus, constant_policy(1, 1), EifVariant(Estimand.VALUE, DatasetKind.TYPE2), 2.0)
        assert v == 0.0

    def test_calibration_row_hand_value(self):
        # Q(x, +1) = 2, theta_ref = 1, 1 - rho = 1/2 -> contribution 2
        nus = toy_oracle(q_plus=2.0)
        ob = Observation(x=np.array([0.5]), a=None, y=None, s=0)
        v = eif_contribution(ob, nus, constant_policy(1, 1), EifVariant(Estimand.VALUE, DatasetKind.TYPE2), 1.0)
        assert v == pytest.approx(2.0, abs=1e-14)

    def test_type1_needs_calibration_fields(self):
        nus = toy_oracle()
        ob = Observation(x=np.array([0.5]), a=None, y=None, s=0)
        with pytest.raises(MissingField):
            eif_contribution(ob, nus, constant_policy(1, 1), EifVariant(Estimand.VALUE, DatasetKind.TYPE1), 0.0)


class TestEstimateEfficient:
    def test_toy_value_is_two(self):
        data = toy_type2_dataset()
        report = estimate_efficient(data, toy_oracle(), constant_policy(1, 1), Estimand.VALUE)
        assert report.estimate == 2.0

    def test_toy_with_matched_outcome_model(self):
        # Q(x, +1) = 2 makes residuals vanish; calibration mean takes over
        data = toy_type2_dataset()
        report = estimate_efficient(data, toy_oracle(q_plus=2.0), constant_policy(1, 1), Estimand.VALUE)
        assert report.estimate == 2.0

    def test_type1_on_type2_data_raises(self):
        data = toy_type2_dataset()
        with pytest.raises(MissingField):
            estimate_efficient(data, toy_oracle(), constant_policy(1, 1), Estimand.VALUE, kind=DatasetKind.TYPE1)

    def test_degenerate_denominator(self):
        from shifteval.errors import DegenerateDenominator
        from shifteval.nuisance import ConstantPropensityFn, NuisanceSet, PropensityModel

        data = toy_type2_dataset()
        base = toy_oracle()
        # an unclipped p1 = 1 gives pi_A = 0 at the training row with a = -1
        degenerate = PropensityModel(evaluator=ConstantPropensityFn(p1=1.0))
        nus = NuisanceSet(
            weight=base.weight, propensity=degenerate, outcome=base.outcome, rho_hat=0.5
        )
        with pytest.raises(DegenerateDenominator):
            estimate_efficient(data, nus, constant_policy(1, 1), Estimand.VALUE)

    def test_non_finite_weight_raises_named_error(self, policy):
        from shifteval.errors import NonFiniteValue
        from shifteval.nuisance import NuisanceSet, WeightModel

        data, oracle = simulate_gaussian_shift(make_config(n=200, seed=24))
        inf_weight = WeightModel(backend="oracle", evaluator=lambda x: np.full(x.shape[0], np.inf))
        nus = NuisanceSet(
            weight=inf_weight, propensity=oracle.propensity, outcome=oracle.outcome,
            rho_hat=oracle.rho_hat,
        )
        with pytest.raises(NonFiniteValue, match="training weights"):
            estimate_efficient(data, nus, policy, Estimand.VALUE)
        recipe = FitRecipe(weights="oracle", propensity="oracle", outcome="oracle", oracle=nus)
        with pytest.raises(NonFiniteValue, match="training weights"):
            estimate_efficient(data, recipe, policy, Estimand.VALUE,
                               folds=split_cross_fit_folds(data, 2, seed=0))

    def test_fit_checks_the_shared_values(self, policy):
        # w, pi and the residuals are checked once per fit, before any
        # estimand's report reads them
        from shifteval.errors import NonFiniteValue
        from shifteval.nuisance import NuisanceSet, OutcomeModel

        data, oracle = simulate_gaussian_shift(make_config(n=200, seed=24))
        nan_outcome = NuisanceSet(
            weight=oracle.weight, propensity=oracle.propensity,
            outcome=OutcomeModel(evaluator=lambda x, a: np.full(x.shape[0], np.nan)),
            rho_hat=oracle.rho_hat,
        )
        with pytest.raises(NonFiniteValue, match="training outcome residuals"):
            estimators._fit(estimators._frame(data, policy), DatasetKind.TYPE2, nan_outcome)

    def test_non_finite_calibration_targets_raise_named_error(self):
        # Q is finite at the training rows (x < 0.4), where the residuals
        # read it, and infinite at the calibration rows, where the targets do
        from shifteval.errors import NonFiniteValue
        from shifteval.nuisance import NuisanceSet, OutcomeModel

        base = toy_oracle()
        nus = NuisanceSet(
            weight=base.weight, propensity=base.propensity,
            outcome=OutcomeModel(evaluator=lambda x, a: np.where(x[:, 0] > 0.4, np.inf, 0.0)),
            rho_hat=0.5,
        )
        with pytest.raises(NonFiniteValue, match="calibration targets"):
            estimate_efficient(toy_type2_dataset(), nus, constant_policy(1, 1), Estimand.VALUE)

    def test_overflowing_standard_error_raises_named_error(self, policy):
        # finite per-row terms near 1e300 whose squares overflow
        from shifteval.errors import NonFiniteValue

        data, oracle = simulate_gaussian_shift(make_config(n=200, noise_sd=1e300, seed=24))
        with pytest.raises(NonFiniteValue, match="standard error"):
            estimate_efficient(data, oracle, policy, Estimand.VALUE)

    @pytest.mark.parametrize("kind", [DatasetKind.TYPE2, DatasetKind.TYPE1])
    def test_kernel_fits_build_each_kernel_once(self, kind, monkeypatch):
        from shifteval import nuisance

        data, _ = simulate_gaussian_shift(make_config(n=400, seed=31))
        if kind is DatasetKind.TYPE2:
            data = data.as_type2()
        built = []
        kernel_matrix = nuisance._kernel_matrix

        def spy(family, bandwidth, xa, xb):
            built.append((xa, xb))
            return kernel_matrix(family, bandwidth, xa, xb)

        monkeypatch.setattr(nuisance, "_kernel_matrix", spy)
        assemble_nuisances(data, FitRecipe(weights="kulsif", propensity="logistic",
                                           outcome="kernel_ridge"))
        # the KuLSIF right-hand side K(x0, x1) and system K(x1, x1), then one
        # K(xa, xa) per arm over the rows with observed outcomes; the fit-row
        # values K alpha come from those matrices, not from another build
        x1, x0 = data.x[data.s == 1], data.x[data.s == 0]
        obs = data.observed
        expected = [(x0, x1), (x1, x1)] + [
            (data.x[obs][data.a[obs] == arm],) * 2 for arm in (-1, 1)
        ]
        assert len(built) == len(expected)
        for (xa, xb), (ea, eb) in zip(built, expected):
            assert np.array_equal(xa, ea) and np.array_equal(xb, eb)

    def test_kernel_fits_reuse_their_fit_row_values(self, policy, monkeypatch):
        from shifteval import nuisance

        data, _ = simulate_gaussian_shift(make_config(n=400, seed=31))
        data = data.as_type2()
        recipe = FitRecipe(weights="kulsif", propensity="logistic", outcome="kernel_ridge")
        nus = assemble_nuisances(data, recipe)
        expected = estimate_efficient(data, nus, policy, Estimand.VALUE)

        built = []
        kernel_matrix = nuisance._kernel_matrix

        def spy(family, bandwidth, xa, xb):
            built.append((xa, xb))
            return kernel_matrix(family, bandwidth, xa, xb)

        monkeypatch.setattr(nuisance, "_kernel_matrix", spy)
        report = estimate_efficient(data, nus, policy, Estimand.VALUE)
        assert report.to_json_dict() == expected.to_json_dict()
        # no K(x1, x1) for the training-row weights and no kernel for the
        # residuals: only the weights' calibration term K(x1, x0), then
        # Q(x, d(x)) at the calibration rows, one build per arm
        x_tr, x_cal = data.x[data.s == 1], data.x[data.s == 0]
        d_cal = np.asarray(policy(x_cal))
        assert len(built) == 3
        assert np.array_equal(built[0][0], x_tr) and np.array_equal(built[0][1], x_cal)
        for (xa, _), arm in zip(built[1:], (-1, 1)):
            assert np.array_equal(xa, x_cal[d_cal == arm])

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_contrast_antisymmetry_exact(self, seed):
        data, oracle = simulate_gaussian_shift(make_config(n=120, seed=seed))
        pol = LinearPolicy(0.2, np.array([1.0, -1.0]))
        neg = FunctionPolicy(lambda x: -np.asarray(pol(x)), label="negated")
        for kind in (DatasetKind.TYPE1, DatasetKind.TYPE2):
            r = estimate_efficient(data, oracle, pol, Estimand.CONTRAST, kind=kind)
            rn = estimate_efficient(data, oracle, neg, Estimand.CONTRAST, kind=kind)
            assert r.estimate == -rn.estimate

    def test_type2_blind_to_calibration_outcomes(self, policy):
        data, oracle = simulate_gaussian_shift(make_config(n=300, seed=9))
        corrupted = PooledDataset.from_arrays(
            data.x,
            np.where(data.s == 0, -data.a, data.a),
            np.where(data.s == 0, 1e9 * data.y + 7.0, data.y),
            data.s,
            DatasetKind.TYPE1,
        )
        for estimand in (Estimand.VALUE, Estimand.CONTRAST):
            before = estimate_efficient(data, oracle, policy, estimand, kind=DatasetKind.TYPE2)
            after = estimate_efficient(corrupted, oracle, policy, estimand, kind=DatasetKind.TYPE2)
            assert before.estimate == after.estimate
            assert before.se == after.se

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_mean_zero_influence_at_self_consistent_estimate(self, seed):
        data, oracle = simulate_gaussian_shift(make_config(n=80, seed=seed))
        pol = LinearPolicy(0.2, np.array([1.0, -1.0]))
        for estimand in (Estimand.VALUE, Estimand.CONTRAST):
            for kind in (DatasetKind.TYPE1, DatasetKind.TYPE2):
                report = estimate_efficient(data, oracle, pol, estimand, kind=kind)
                variant = EifVariant(estimand, kind)
                vals = [
                    eif_contribution(ob, oracle, pol, variant, report.estimate)
                    for ob in data.rows
                ]
                assert abs(float(np.mean(vals))) <= 1e-10

    @pytest.mark.parametrize("estimand", list(Estimand))
    @pytest.mark.parametrize("kind", list(DatasetKind))
    def test_scalar_reference_matches_core_row_by_row(self, policy, estimand, kind):
        data, oracle = simulate_gaussian_shift(make_config(n=200, seed=23))
        estimate, eif = core_influence(data, oracle, policy, estimand, kind)
        variant = EifVariant(estimand, kind)
        ref = [eif_contribution(ob, oracle, policy, variant, estimate) for ob in data.rows]
        assert eif == pytest.approx(ref, rel=0, abs=1e-12)

    def test_report_json_shape(self, policy):
        data, oracle = simulate_gaussian_shift(make_config(n=100, seed=10))
        report = estimate_efficient(data, oracle, policy, Estimand.VALUE)
        d = report.to_json_dict()
        assert d["estimand"] == "theta" and d["kind"] == "type1"
        assert d["ci"][0] <= d["estimate"] <= d["ci"][1]
        json.dumps(d)


class TestPluginIdentification:
    def test_calibration_mean_constant(self):
        data = toy_type2_dataset()
        nus = toy_oracle(q_plus=5.0)  # Q(x, +1) = 5
        r = estimate_plugin_identification(data, nus, constant_policy(1, 1), Estimand.VALUE, "calibration_mean")
        assert r.estimate == 5.0

    def test_weighted_training_matches_hand_computation(self):
        data, oracle = simulate_gaussian_shift(make_config(mu=(0.0, 0.0), n=60, seed=11))
        pol = LinearPolicy(0.2, np.array([1.0, -1.0]))
        r = estimate_plugin_identification(data, oracle, pol, Estimand.VALUE, "weighted_training")
        train = data.s == 1
        d = np.asarray(pol(data.x), dtype=float)
        q_d = oracle.outcome.q(data.x, d)
        assert r.estimate == pytest.approx(np.sum(q_d[train]) / data.n1, rel=1e-12)

    def test_three_forms_agree_on_large_noiseless_data(self, policy):
        cfg = make_config(n=20_000, noise_sd=0.0, seed=12)
        data, oracle = simulate_gaussian_shift(cfg)
        reports = [
            estimate_plugin_identification(data, oracle, policy, Estimand.VALUE, form)
            for form in ("calibration_mean", "weighted_pooled", "weighted_training")
        ]
        for i in range(len(reports)):
            for j in range(i + 1, len(reports)):
                gap = abs(reports[i].estimate - reports[j].estimate)
                assert gap <= 3 * float(np.hypot(reports[i].se, reports[j].se))

    def test_unknown_form(self, policy):
        data, oracle = simulate_gaussian_shift(make_config(n=60, seed=13))
        with pytest.raises(InvalidConfig):
            estimate_plugin_identification(data, oracle, policy, Estimand.VALUE, "nope")


class TestCrossFit:
    def test_oracle_recipe_equals_plain_estimate(self, policy):
        data, oracle = simulate_gaussian_shift(make_config(n=400, seed=14))
        recipe = FitRecipe(weights="oracle", propensity="oracle", outcome="oracle", oracle=oracle)
        for estimand in Estimand:
            for kind in DatasetKind:
                plain = estimate_efficient(data, oracle, policy, estimand, kind=kind)
                for k, seed in ((2, 0), (5, 99)):
                    folds = split_cross_fit_folds(data, k, seed=seed)
                    cf = estimate_efficient(data, recipe, policy, estimand, kind=kind, folds=folds)
                    assert cf.estimate == plain.estimate
                    assert cf.se == plain.se

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(60, 600),
        k=st.integers(2, 6),
        estimand=st.sampled_from(Estimand),
        kind=st.sampled_from(DatasetKind),
    )
    def test_oracle_recipe_equals_plain_estimate_property(self, seed, n, k, estimand, kind):
        policy = LinearPolicy(0.2, np.array([1.0, -1.0]))
        data, oracle = simulate_gaussian_shift(make_config(n=n, seed=seed))
        recipe = FitRecipe(weights="oracle", propensity="oracle", outcome="oracle", oracle=oracle)
        plain = estimate_efficient(data, oracle, policy, estimand, kind=kind)
        cf = estimate_efficient(data, recipe, policy, estimand, kind=kind,
                                folds=split_cross_fit_folds(data, k, seed=seed))
        assert (cf.estimate, cf.se) == (plain.estimate, plain.se)

    def test_fitted_recipe_close_to_truth(self, policy):
        cfg = make_config(n=4000, seed=15)
        data, oracle = simulate_gaussian_shift(cfg)
        folds = split_cross_fit_folds(data, 5, seed=1)
        recipe = FitRecipe(weights="aipsw", propensity="logistic", outcome="linear")
        cf = estimate_efficient(data, recipe, policy, Estimand.VALUE, kind=DatasetKind.TYPE2,
                                folds=folds)
        ref = estimate_efficient(data, oracle, policy, Estimand.VALUE, kind=DatasetKind.TYPE2)
        assert abs(cf.estimate - ref.estimate) < 6 * ref.se
        assert cf.nuisance["crossfit_k"] == 5
        assert len(cf.nuisance["per_bag"]) == 5

    def test_bag_errors_annotated(self, policy):
        data, oracle = simulate_gaussian_shift(make_config(n=40, seed=16))
        # duplicate-constant covariates make the logistic design rank deficient
        bad = PooledDataset.from_arrays(
            np.column_stack([np.ones(data.n), np.ones(data.n)]),
            data.a, data.y, data.s, data.kind,
        )
        folds = split_cross_fit_folds(bad, 2, seed=0)
        recipe = FitRecipe(weights="aipsw", propensity="logistic", outcome="linear")
        with pytest.raises(Exception, match="bag 1"):
            estimate_efficient(bad, recipe, policy, Estimand.VALUE, kind=DatasetKind.TYPE2,
                               folds=folds)

        # the bag prefix keeps the error object: calibration x = 5 lies outside
        # the training range (0, 1), so entropy balancing on x_1 is infeasible
        # on all rows and in every bag
        rng = np.random.default_rng(0)
        x = np.concatenate([rng.uniform(0, 1, 40), np.full(40, 5.0)])[:, None]
        a = np.concatenate([np.where(rng.random(40) < 0.5, 1.0, -1.0), np.full(40, np.nan)])
        y = np.concatenate([rng.normal(size=40), np.full(40, np.nan)])
        data = PooledDataset.from_arrays(x, a, y, [1] * 40 + [0] * 40, DatasetKind.TYPE2)
        recipe = FitRecipe(weights="eb", propensity="logistic", outcome="linear")
        for crossfit_k, prefix in ((0, "calibration moment"), (2, "bag 1: calibration moment")):
            folds = split_cross_fit_folds(data, crossfit_k, seed=0) if crossfit_k else None
            with pytest.raises(InfeasibleBalance) as err:
                estimate_efficient(data, recipe, constant_policy(1, 1), Estimand.VALUE,
                                   DatasetKind.TYPE2, folds=folds)
            assert err.value.coordinate == "x_1"
            assert str(err.value).startswith(prefix)

    @pytest.mark.parametrize("crossfit_k", [1, -1])
    def test_crossfit_below_two_refused_before_any_fit(self, monkeypatch, tmp_path, capsys,
                                                       crossfit_k):
        # the folds refuse a bag count below 2, and so does the CLI's
        # `crossfit` field, both before any fit
        from shifteval.cli import main

        data, _ = simulate_gaussian_shift(make_config(n=200, seed=17))
        monkeypatch.setattr(estimators, "assemble_nuisances", None)
        with pytest.raises(InvalidConfig, match="number of bags"):
            split_cross_fit_folds(data, crossfit_k, seed=0)
        write_dataset_csv(data, tmp_path / "data.csv")
        config = tmp_path / "est.json"
        config.write_text(json.dumps({
            "dataset": str(tmp_path / "data.csv"), "crossfit": crossfit_k,
            "policy": {"type": "linear", "intercept": 0.2, "coeffs": [1.0, -1.0]},
            "weights": "aipsw", "propensity": "logistic", "outcome": "linear",
        }))
        capsys.readouterr()
        assert main(["estimate", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidConfig"
        assert "expected 0 or an integer >= 2" in err["message"]

    @pytest.mark.parametrize("backends", [("oracle", "oracle", "oracle"),
                                          ("aipsw", "logistic", "linear")])
    def test_cross_fit_report_names_the_recipe_backends(self, policy, backends):
        data, oracle = simulate_gaussian_shift(make_config(n=400, seed=14))
        recipe = FitRecipe(*backends, oracle=oracle)
        report = estimate_efficient(data, recipe, policy, Estimand.VALUE,
                                    folds=split_cross_fit_folds(data, 3, seed=0))
        nuisance = report.nuisance
        assert report.method == "crossfit"
        assert set(nuisance) == {"weights", "propensity", "outcome", "crossfit_k", "per_bag"}
        assert (nuisance["weights"], nuisance["propensity"], nuisance["outcome"]) == backends
        assert nuisance["crossfit_k"] == 3
        for bag in nuisance["per_bag"]:
            named = bag["nuisance"]
            assert (named["weights"], named["propensity"], named["outcome"]) == backends

    def test_folds_with_a_fitted_set_are_refused(self, policy):
        # a fitted set cannot be re-fitted per bag; the folds are not ignored
        data, oracle = simulate_gaussian_shift(make_config(n=400, seed=3))
        folds = split_cross_fit_folds(data, 3, seed=0)
        with pytest.raises(InvalidConfig, match="folds need a FitRecipe"):
            estimate_efficient(data, oracle, policy, Estimand.VALUE, folds=folds)

    def test_folds_of_another_dataset_are_refused(self, policy):
        data, oracle = simulate_gaussian_shift(make_config(n=400, seed=3))
        folds = split_cross_fit_folds(data.subset(np.arange(data.n) < 300), 3, seed=0)
        recipe = FitRecipe(weights="oracle", propensity="oracle", outcome="oracle", oracle=oracle)
        with pytest.raises(InvalidConfig, match="does not match dataset size"):
            estimate_efficient(data, recipe, policy, Estimand.VALUE, folds=folds)

    @pytest.mark.parametrize("crossfit_k", [0, 2, 3, 5])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_type2_evaluation_masks_type1_data(self, policy, crossfit_k, seed):
        # Type-2 evaluation of Type-1 data fits and evaluates exactly as the
        # Type-2 dataset with the calibration (a, y) removed
        data, _ = simulate_gaussian_shift(make_config(n=300, seed=seed))
        masked = data.as_type2()
        recipe = FitRecipe(weights="aipsw", propensity="logistic", outcome="linear")
        for estimand in Estimand:
            reports = [
                estimate_efficient(
                    d, recipe, policy, estimand, DatasetKind.TYPE2,
                    folds=split_cross_fit_folds(d, crossfit_k, seed=seed) if crossfit_k else None,
                )
                for d in (data, masked)
            ]
            if crossfit_k >= 2:
                folds = split_cross_fit_folds(data, crossfit_k, seed=seed)
                reports += [
                    estimate_efficient(d, recipe, policy, estimand, kind=DatasetKind.TYPE2,
                                       folds=folds)
                    for d in (data, masked)
                ]
            first = reports[0]
            for r in reports[1:]:
                assert (r.estimate, r.se) == (first.estimate, first.se)
                assert r.to_json_dict() == first.to_json_dict()

    @pytest.mark.parametrize("crossfit_k", [0, 3])
    def test_all_oracle_type2_evaluation_masks_nothing(self, policy, monkeypatch, crossfit_k):
        # an all-oracle recipe reads only n1/n, which as_type2 keeps, so the
        # Type-1 data go unmasked and the reports stay those of the masked data
        data, oracle = simulate_gaussian_shift(make_config(n=300, seed=5))
        folds = split_cross_fit_folds(data, crossfit_k, seed=5) if crossfit_k else None
        recipe = FitRecipe(weights="oracle", propensity="oracle", outcome="oracle", oracle=oracle)
        masked = [
            estimate_efficient(data.as_type2(), recipe, policy, e, folds=folds).to_json_dict()
            for e in Estimand
        ]
        calls = []
        real = PooledDataset.as_type2
        monkeypatch.setattr(PooledDataset, "as_type2", lambda d: calls.append(d) or real(d))
        direct = [
            estimate_efficient(data, recipe, policy, e, DatasetKind.TYPE2, folds=folds)
            .to_json_dict()
            for e in Estimand
        ]
        assert calls == []
        assert direct == masked
        fitted = FitRecipe(weights="aipsw", propensity="oracle", outcome="oracle", oracle=oracle)
        estimate_efficient(data, fitted, policy, Estimand.VALUE, DatasetKind.TYPE2, folds=folds)
        assert calls == [data]

    def test_type2_cross_fit_of_type1_data_ignores_calibration_outcomes(self, policy):
        # bags fitted on the unmasked calibration (a, y) gave 1.7607146636674742
        data, _ = simulate_gaussian_shift(make_config(n=800, seed=11))
        folds = split_cross_fit_folds(data, 3, seed=4)
        recipe = FitRecipe(weights="aipsw", propensity="logistic", outcome="linear")
        type2 = DatasetKind.TYPE2
        direct = estimate_efficient(data, recipe, policy, Estimand.VALUE, kind=type2, folds=folds)
        masked = estimate_efficient(data.as_type2(), recipe, policy, Estimand.VALUE, folds=folds)
        via_config = estimate_efficient(data, recipe, policy, Estimand.VALUE, type2,
                                        folds=split_cross_fit_folds(data, 3, seed=4))
        assert direct.estimate == masked.estimate == via_config.estimate
        assert direct.se == masked.se == via_config.se
        assert direct.estimate == pytest.approx(1.7709250914900752, rel=1e-9)

    @pytest.mark.parametrize("crossfit_k", [0, 3])
    def test_type1_evaluation_of_type2_data_fails_before_any_fit(
        self, policy, monkeypatch, crossfit_k
    ):
        data, _ = simulate_gaussian_shift(make_config(n=200, seed=17))
        fits = []
        real = estimators.assemble_nuisances
        monkeypatch.setattr(estimators, "assemble_nuisances",
                            lambda *args: fits.append(args) or real(*args))
        recipe = FitRecipe(weights="aipsw", propensity="logistic", outcome="linear")
        type2 = data.as_type2()
        folds = split_cross_fit_folds(type2, crossfit_k, seed=0) if crossfit_k else None
        with pytest.raises(MissingField):
            estimate_efficient(type2, recipe, policy, Estimand.VALUE, DatasetKind.TYPE1,
                               folds=folds)
        assert fits == []


class TestRowPermutation:
    """Plain fits do not depend on the row order; permuting the rows only
    reorders sums, so estimates agree to a relative 1e-10."""

    @staticmethod
    def estimates(data, recipe, estimand, kind, seed):
        policy = LinearPolicy(0.2, np.array([1.0, -1.0]))
        perm = np.random.default_rng(seed).permutation(data.n)
        shuffled = PooledDataset.from_arrays(
            data.x[perm], data.a[perm], data.y[perm], data.s[perm], data.kind
        )
        return tuple(estimate_efficient(d, recipe, policy, estimand, kind).estimate
                     for d in (data, shuffled))

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(200, 600),
        weights=st.sampled_from(["oracle", "aipsw", "eb"]),
        estimand=st.sampled_from(Estimand),
        kind=st.sampled_from(DatasetKind),
    )
    def test_non_kernel_backends(self, seed, n, weights, estimand, kind):
        data, oracle = simulate_gaussian_shift(make_config(n=n, seed=seed))
        fitted = weights != "oracle"
        recipe = FitRecipe(weights=weights, propensity="logistic" if fitted else "oracle",
                           outcome="linear" if fitted else "oracle", oracle=oracle)
        plain, shuffled = self.estimates(data, recipe, estimand, kind, seed)
        assert shuffled == pytest.approx(plain, rel=1e-10)

    def test_kulsif_above_the_bandwidth_sample_size(self):
        # 2500 rows: the median-distance bandwidth is taken on a 2000-row sample
        data, _ = simulate_gaussian_shift(make_config(n=2500, seed=3))
        recipe = FitRecipe(weights="kulsif", propensity="logistic", outcome="linear")
        plain, shuffled = self.estimates(
            data.as_type2(), recipe, Estimand.VALUE, DatasetKind.TYPE2, seed=3
        )
        assert shuffled == pytest.approx(plain, rel=1e-10)


def reference_variance(cfg, policy, variant, draws, seed):
    """The variance integrals of one variant written out on their own from the
    Gaussian-shift design: x1 ~ N(mu, I) then x0 ~ N(0, I) from one generator,
    w(x) = exp(||mu||^2 / 2 - mu . x), pi_A(+1 | x, s) = propensity and
    Var(Y | x, s, a) = noise_sd^2, at sampling rate rho_s."""
    rng = np.random.default_rng(seed)
    rho, s2, mu = cfg.rho_s, cfg.noise_sd**2, cfg.mu

    def pi(a):
        return np.where(np.asarray(a) == 1, cfg.propensity, 1.0 - cfg.propensity)

    x1 = rng.standard_normal((draws, cfg.p)) + mu
    d1 = np.asarray(policy(x1), dtype=float)
    w = np.exp(0.5 * float(mu @ mu) - x1 @ mu)
    if variant.estimand is Estimand.VALUE:
        integrand = w**2 * s2 / pi(d1)
    else:
        integrand = w**2 * (s2 / pi(1) + s2 / pi(-1))
    nu = float(np.mean(integrand))
    nu_se = float(np.std(integrand, ddof=1) / np.sqrt(draws))
    if variant.kind is DatasetKind.TYPE1:
        nu, nu_se = rho**2 * nu, rho**2 * nu_se
    x0 = rng.standard_normal((draws, cfg.p))
    d0 = np.asarray(policy(x0), dtype=float)
    if variant.estimand is Estimand.VALUE:
        target = cfg.outcome_mean(x0, d0)
    else:
        target = (cfg.outcome_mean(x0, 1.0) - cfg.outcome_mean(x0, -1.0)) * d0
    centered = target - np.mean(target)
    zeta = float(np.mean(centered**2))
    zeta_se = float(np.sqrt(max(np.mean(centered**4) - zeta**2, 0.0) / draws))
    if variant.kind is DatasetKind.TYPE1:
        if variant.estimand is Estimand.VALUE:
            extra = s2 / pi(d0)
        else:
            extra = np.full(draws, s2 / pi(1) + s2 / pi(-1))
        zeta_se = float(np.hypot((1.0 - rho) ** 2 * np.std(extra, ddof=1) / np.sqrt(draws),
                                 zeta_se))
        zeta = (1.0 - rho) ** 2 * float(np.mean(extra)) + zeta
    return nu, zeta, nu_se, zeta_se


TV_FIELDS = ("nu_eff", "zeta_eff", "nu_se", "zeta_se")


class TestTheoreticalVariance:
    @pytest.mark.parametrize("rho_s", [0.4, 0.3])
    def test_matches_reference_integrals(self, policy, rho_s):
        cfg = make_config(rho_s=rho_s, seed=23)
        for v in ALL_VARIANTS:
            tv = theoretical_variance(cfg, policy, v, mc_draws=3000, seed=4)
            assert tuple(getattr(tv, f) for f in TV_FIELDS) == reference_variance(
                cfg, policy, v, 3000, 4
            )

    @pytest.mark.parametrize("rho_s", [0.4, 0.3])
    def test_one_pass_equals_one_call_per_variant(self, policy, rho_s):
        cfg = make_config(rho_s=rho_s, seed=24)
        single = {
            v: theoretical_variance(cfg, policy, v, mc_draws=3000, seed=5)
            for v in ALL_VARIANTS
        }
        subsets = [c for r in range(1, 5) for c in itertools.combinations(ALL_VARIANTS, r)]
        subsets.append(tuple(ALL_VARIANTS[i] for i in (3, 0, 2, 1)))
        for subset in subsets:
            joint = estimators._theoretical_variances(cfg, policy, subset, mc_draws=3000, seed=5)
            assert list(joint) == list(subset)
            for v in subset:
                assert joint[v].variant == v
                for f in TV_FIELDS:
                    assert getattr(joint[v], f) == getattr(single[v], f), (subset, v, f)

    def test_constant_target_zero_calibration_variance(self):
        # bx = gx = 0 makes Q(x, a) constant in x, so Var[Q(X, d) | S=0] = 0
        cfg = make_config(outcome_coeffs=[1.0, 0.0, 0.0, 0.5, 0.0, 0.0], seed=17)
        tv = theoretical_variance(
            cfg,
            constant_policy(1, 2),
            EifVariant(Estimand.VALUE, DatasetKind.TYPE2),
            mc_draws=20_000,
        )
        assert tv.zeta_eff == pytest.approx(0.0, abs=1e-12)

    def test_no_shift_unit_noise_training_component(self, policy):
        # w = 1, sigma^2 = 1, pi = 0.5 -> E[w^2 sigma^2 / pi] = 2
        cfg = make_config(mu=(0.0, 0.0), noise_sd=1.0, propensity=0.5, seed=18)
        tv = theoretical_variance(
            cfg, policy, EifVariant(Estimand.VALUE, DatasetKind.TYPE2), mc_draws=50_000,
        )
        assert abs(tv.nu_eff - 2.0) <= max(3 * tv.nu_se, 1e-9)

    def test_type1_training_component_is_rho_squared_scaled(self, policy):
        cfg = make_config(rho_s=0.3, seed=19)
        t1 = theoretical_variance(cfg, policy, EifVariant(Estimand.VALUE, DatasetKind.TYPE1), mc_draws=20_000, seed=5)
        t2 = theoretical_variance(cfg, policy, EifVariant(Estimand.VALUE, DatasetKind.TYPE2), mc_draws=20_000, seed=5)
        assert t1.nu_eff / t2.nu_eff == pytest.approx(0.3**2, rel=1e-12)

    def test_min_draws_enforced(self, policy):
        cfg = make_config(seed=20)
        with pytest.raises(InvalidConfig):
            theoretical_variance(cfg, policy, EifVariant(Estimand.VALUE, DatasetKind.TYPE2), mc_draws=10)

    @pytest.mark.parametrize("draws", [0, 10, estimators.MIN_MC_DRAWS - 1])
    def test_truth_min_draws_enforced(self, policy, draws):
        with pytest.raises(InvalidConfig):
            true_policy_values(make_config(seed=20), policy, draws=draws)


def two_pass_sums(values):
    """Count, mean and the central sums of powers 2 to 4 of one array."""
    mean = np.mean(values)
    c = values - mean
    return (values.shape[0], mean, *(float(np.sum(c**k)) for k in (2, 3, 4)))


def reference_truth(cfg, policy, draws):
    """The true theta and theta1 as one-array means over the truth stream's
    draws of N_p(0, I), written out from the linear outcome model."""
    x = np.random.default_rng([cfg.seed, montecarlo._TRUTH_STREAM]).standard_normal(
        (draws, cfg.p)
    )
    d = np.asarray(policy(x), dtype=float)
    return {
        "theta": float(np.mean(cfg.outcome_mean(x, d))),
        "theta1": float(np.mean((cfg.outcome_mean(x, 1.0) - cfg.outcome_mean(x, -1.0)) * d)),
    }


class TestStreamedIntegrals:
    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=300),
        cut=st.floats(0.0, 1.0, exclude_max=True),
    )
    @example(values=[0.0, 1.1426e-80], cut=0.0)  # m4 is subnormal
    @example(values=[5e-324, 0.0], cut=0.0)  # a mean at the smallest subnormal
    @example(values=[1.7670000000000001e-15] * 4, cut=0.0)  # the 3-row mean rounds
    def test_merge_matches_two_pass(self, values, cut):
        values = np.array(values)
        k = 1 + int(cut * (values.shape[0] - 1))  # both parts non-empty
        merged = estimators._Moments.of(values[:k]).merge(estimators._Moments.of(values[k:]))
        n, mean, *sums = two_pass_sums(values)
        assert merged.n == n
        # relative 1e-12 of the absolute central sums, plus what a rounding
        # of the mean by delta moves the power-k sum: k delta sum |c|^(k-1)
        # to first order and n delta^k at the last, where the central values
        # are below delta; both underflow on subnormal sums, which a floor of
        # a few subnormal units covers
        delta = 1e-14 * np.max(np.abs(values))
        floor = 4 * np.finfo(float).smallest_subnormal
        assert abs(merged.mean - mean) <= delta + floor
        c = np.abs(values - mean)
        for k, got, want in zip((2, 3, 4), (merged.m2, merged.m3, merged.m4), sums):
            tol = 1e-12 * np.sum(c**k) + k * delta * np.sum(c ** (k - 1)) + n * delta**k
            assert abs(got - want) <= tol + floor, k

    def test_mean_only_moments_merge_to_the_same_mean(self):
        # true_policy_values accumulates means alone: a merged mean reads
        # only counts and means, so it is the same bits at either order
        values = np.random.default_rng(3).standard_normal(1000) * 1e3
        for k in (1, 17, 500, 999):
            full = estimators._Moments.of(values[:k]).merge(estimators._Moments.of(values[k:]))
            mean_only = estimators._Moments.of(values[:k], 1).merge(
                estimators._Moments.of(values[k:], 1)
            )
            assert mean_only.mean == full.mean and mean_only.n == full.n
            assert np.isnan([mean_only.m2, mean_only.m3, mean_only.m4]).all()

    @settings(max_examples=50, deadline=None)
    @given(
        value=st.integers(-10**6, 10**6),
        exponent=st.integers(-20, 20),
        n=st.integers(2, 300),
        cut=st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_constant_arrays_merge_to_zero_sums(self, value, exponent, n, cut):
        # a constant whose running sums are exact, so each part's mean is the
        # constant itself
        values = np.full(n, np.ldexp(float(value), exponent))
        k = 1 + int(cut * (n - 1))
        merged = estimators._Moments.of(values[:k]).merge(estimators._Moments.of(values[k:]))
        assert merged.mean == values[0]
        assert (merged.m2, merged.m3, merged.m4) == (0.0, 0.0, 0.0)

    def test_partial_last_block_matches_one_array_integrals(self, policy):
        draws = 2 * estimators._BLOCK_DRAWS + 17
        cfg = make_config(rho_s=0.3, seed=25)
        for v in ALL_VARIANTS:
            tv = theoretical_variance(cfg, policy, v, mc_draws=draws, seed=6)
            ref = reference_variance(cfg, policy, v, draws, 6)
            assert tuple(getattr(tv, f) for f in TV_FIELDS) == pytest.approx(ref, rel=1e-12)
        ref = reference_truth(cfg, policy, draws)
        assert true_policy_values(cfg, policy, draws) == pytest.approx(ref, rel=1e-12)

    def test_one_block_truth_equals_one_array_mean(self, policy):
        cfg = make_config(seed=26)
        assert true_policy_values(cfg, policy, 3000) == reference_truth(cfg, policy, 3000)

    @pytest.mark.parametrize(
        "integral",
        [
            lambda cfg, policy: true_policy_values(cfg, policy, 1_000_000),
            lambda cfg, policy: estimators._theoretical_variances(
                cfg, policy, ALL_VARIANTS, mc_draws=1_000_000
            ),
        ],
        ids=["truth", "variances"],
    )
    def test_memory_does_not_grow_with_draws(self, policy, integral):
        # held at once, 10^6 draws took 54 and 61 MiB of temporaries
        cfg = make_config(seed=27)
        tracemalloc.start()
        try:
            integral(cfg, policy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestWaldCi:
    def test_degenerate(self):
        assert wald_ci(1.5, 0.0, 0.95) == (1.5, 1.5)

    # the standard library's quantile differs from scipy's ndtri by at most
    # 6 ulps, the largest gap over 2e5 levels (at 0.95 it is 2 ulps lower)
    @pytest.mark.parametrize("level", [0.5, 0.8, 0.9, 0.95, 0.99, 0.999])
    def test_standard_normal_quantile(self, level):
        lo, z = wald_ci(0.0, 1.0, level)
        assert lo == -z
        ref = norm.ppf(0.5 * (1.0 + level))
        assert abs(z - ref) <= 6 * np.spacing(ref)

    def test_standard_normal_quantile_on_a_grid(self):
        levels = np.linspace(1e-6, 1.0 - 1e-6, 2001)
        z = np.array([wald_ci(0.0, 1.0, level)[1] for level in levels])
        ref = norm.ppf(0.5 * (1.0 + levels))
        assert np.all(np.abs(z - ref) <= 6 * np.spacing(ref))

    def test_invalid_level(self):
        with pytest.raises(InvalidLevel):
            wald_ci(0.0, 1.0, 1.2)
        with pytest.raises(InvalidLevel):
            wald_ci(0.0, -1.0, 0.9)


class TestAssembleNuisances:
    def test_oracle_required_when_requested(self):
        with pytest.raises(InvalidConfig):
            FitRecipe(weights="oracle", propensity="logistic", outcome="linear", oracle=None)

    def test_fitted_assembly_type2(self, policy):
        data, _ = simulate_gaussian_shift(make_config(n=600, seed=21))
        masked = data.as_type2()
        nus = assemble_nuisances(masked, FitRecipe(weights="aipsw", propensity="logistic", outcome="linear"))
        assert nus.weight.backend == "aipsw"
        # stratum-0 propensity was not fitted (no observed calibration treatments)
        with pytest.raises(MissingStratum):
            nus.propensity.prob(1, masked.x[:3], 0)

    def test_fitted_assembly_type1_fits_both_strata(self):
        data, _ = simulate_gaussian_shift(make_config(n=600, seed=22))
        nus = assemble_nuisances(data, FitRecipe(weights="aipsw", propensity="logistic", outcome="linear"))
        p0 = nus.propensity.prob(1, data.x[:3], 0)
        assert np.all((p0 > 0) & (p0 < 1))
