import json

import numpy as np
import pytest
from hypothesis import given, settings
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
    cross_fit_estimate,
    eif_contribution,
    estimate_efficient,
    estimate_plugin_identification,
    gaussian_oracle_nuisances,
    gaussian_shift_truth,
    simulate_gaussian_shift,
    split_cross_fit_folds,
    theoretical_variance,
    wald_ci,
)
from shifteval import estimators
from shifteval.errors import (
    InvalidConfig,
    InvalidLevel,
    MissingField,
    MissingStratum,
)

from conftest import make_config


def toy_type2_dataset():
    """n1=2 training rows (A, Y) = (+1, 2), (-1, 0); n0=2 calibration rows."""
    x = np.array([[0.1], [-0.3], [0.5], [0.9]])
    return PooledDataset.from_arrays(
        x, [1, -1, np.nan, np.nan], [2.0, 0.0, np.nan, np.nan], [1, 1, 0, 0], DatasetKind.TYPE2
    )


def core_influence(data, nuisances, policy, estimand, kind):
    """Point estimate and per-row influence vector from the aggregation core."""
    parts = estimators._empty_parts(data, policy, kind)
    estimators._fill_parts(parts, slice(None), slice(None), nuisances, estimand)
    return estimators._combine(data, parts, estimand, kind)


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
        from shifteval.nuisance import LogisticPropensityFn, NuisanceSet, PropensityModel

        data = toy_type2_dataset()
        base = toy_oracle()
        # unclipped saturated logistic drives pi_A to exactly 0 on one arm
        degenerate = PropensityModel(
            evaluator=LogisticPropensityFn({1: np.array([-2000.0, 0.0])}), clip=0.0
        )
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
            cross_fit_estimate(data, split_cross_fit_folds(data, 2, seed=0), recipe, policy,
                               Estimand.VALUE)

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
                    cf = cross_fit_estimate(data, folds, recipe, policy, estimand, kind=kind)
                    assert cf.estimate == plain.estimate
                    assert cf.se == plain.se

    def test_fitted_recipe_close_to_truth(self, policy):
        cfg = make_config(n=4000, seed=15)
        data, oracle = simulate_gaussian_shift(cfg)
        folds = split_cross_fit_folds(data, 5, seed=1)
        recipe = FitRecipe(weights="aipsw", propensity="logistic", outcome="linear")
        cf = cross_fit_estimate(data, folds, recipe, policy, Estimand.VALUE, kind=DatasetKind.TYPE2)
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
            cross_fit_estimate(bad, folds, recipe, policy, Estimand.VALUE, kind=DatasetKind.TYPE2)


class TestTheoreticalVariance:
    def test_constant_target_zero_calibration_variance(self):
        # bx = gx = 0 makes Q(x, a) constant in x, so Var[Q(X, d) | S=0] = 0
        cfg = make_config(outcome_coeffs=[1.0, 0.0, 0.0, 0.5, 0.0, 0.0], seed=17)
        tv = theoretical_variance(
            gaussian_shift_truth(cfg),
            constant_policy(1, 2),
            EifVariant(Estimand.VALUE, DatasetKind.TYPE2),
            mc_draws=20_000,
        )
        assert tv.zeta_eff == pytest.approx(0.0, abs=1e-12)

    def test_no_shift_unit_noise_training_component(self, policy):
        # w = 1, sigma^2 = 1, pi = 0.5 -> E[w^2 sigma^2 / pi] = 2
        cfg = make_config(mu=(0.0, 0.0), noise_sd=1.0, propensity=0.5, seed=18)
        tv = theoretical_variance(
            gaussian_shift_truth(cfg), policy, EifVariant(Estimand.VALUE, DatasetKind.TYPE2),
            mc_draws=50_000,
        )
        assert abs(tv.nu_eff - 2.0) <= max(3 * tv.nu_se, 1e-9)

    def test_type1_training_component_is_rho_squared_scaled(self, policy):
        cfg = make_config(rho_s=0.3, seed=19)
        truth = gaussian_shift_truth(cfg)
        t1 = theoretical_variance(truth, policy, EifVariant(Estimand.VALUE, DatasetKind.TYPE1), mc_draws=20_000, seed=5)
        t2 = theoretical_variance(truth, policy, EifVariant(Estimand.VALUE, DatasetKind.TYPE2), mc_draws=20_000, seed=5)
        assert t1.nu_eff / t2.nu_eff == pytest.approx(0.3**2, rel=1e-12)

    def test_min_draws_enforced(self, policy):
        cfg = make_config(seed=20)
        with pytest.raises(InvalidConfig):
            theoretical_variance(gaussian_shift_truth(cfg), policy, EifVariant(Estimand.VALUE, DatasetKind.TYPE2), mc_draws=10)


class TestWaldCi:
    def test_degenerate(self):
        assert wald_ci(1.5, 0.0, 0.95) == (1.5, 1.5)

    @pytest.mark.parametrize("level", [0.5, 0.8, 0.9, 0.95, 0.99, 0.999])
    def test_standard_normal_quantile(self, level):
        z = norm.ppf(0.5 * (1.0 + level))
        assert wald_ci(0.0, 1.0, level) == (-z, z)

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
