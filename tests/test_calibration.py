import json

import numpy as np
import pytest

from shifteval import (
    CandidateSet,
    Estimand,
    LinearPolicy,
    PooledDataset,
    candidates_from_json,
    constant_policy,
    estimate_plugin_identification,
    gaussian_oracle_nuisances,
    select_policy,
    simulate_gaussian_shift,
    true_policy_values,
)
from shifteval.errors import (
    EmptyStratum,
    InvalidConfig,
    MissingField,
    NonFiniteValue,
)
from shifteval.data_model import LinearQModel
from shifteval.nuisance import OutcomeModel, PropensityModel

from conftest import make_config


def outcome_with_cte(base, half_effect):
    """Q(x, a) = base(x) + a * half_effect(x) via explicit linear coefficients."""
    return OutcomeModel(evaluator=LinearQModel(beta=np.asarray(base + half_effect)))


def calib_value(data, method, model, policy, stratum=1):
    """One candidate's calibration value: select_policy on a one-candidate set."""
    single = CandidateSet(candidates=((1.0, policy),))
    return select_policy(single, data, method, model, ipw_propensity_stratum=stratum).table[0]["value"]


def type1_calunited(x, a, y, s):
    return PooledDataset.from_arrays(np.asarray(x, dtype=float), a, y, s)


class TestCovariatesOnly:
    def test_zero_cte(self):
        data, oracle = simulate_gaussian_shift(make_config(outcome_coeffs=[1, 1, 1, 0, 0, 0], n=40, seed=1))
        assert calib_value(data, "covariates_only", oracle.outcome, constant_policy(1, 2)) == 0.0

    def test_constant_cte(self):
        # C(x) = 2 * g0 = 1
        data, oracle = simulate_gaussian_shift(make_config(outcome_coeffs=[0, 0, 0, 0.5, 0, 0], n=40, seed=2))
        assert calib_value(data, "covariates_only", oracle.outcome, constant_policy(1, 2)) == pytest.approx(1.0)
        assert calib_value(data, "covariates_only", oracle.outcome, constant_policy(-1, 2)) == pytest.approx(-1.0)

    def test_three_row_hand_example(self):
        # Chat = (2, -1, 3) on the calibration rows with d = (+1, +1, -1)
        # gives (2 - 1 - 3) / 3 = -2/3
        x = np.array([[0.75], [-0.75], [1.25], [0.0]])
        data = PooledDataset.from_arrays(
            x, [1, np.nan, np.nan, np.nan], [0.0, np.nan, np.nan, np.nan], [1, 0, 0, 0]
        )
        # C(x) = 2 * (g0 + g1 x) with g0 = 0.25, g1 = 1 -> C = 0.5 + 2x
        outcome = outcome_with_cte([0.0, 0.0], [0.25, 1.0])
        np.testing.assert_allclose(outcome.cte(data.x[data.s == 0]), [-1.0, 3.0, 0.5])
        # pick covariates so C = (2, -1, 3): solve 0.5 + 2x = c
        x2 = np.array([[9.9], [0.75], [-0.75], [1.25]])
        data2 = PooledDataset.from_arrays(
            x2, [1, np.nan, np.nan, np.nan], [0.0, np.nan, np.nan, np.nan], [1, 0, 0, 0]
        )
        cte = outcome.cte(data2.x[data2.s == 0])
        np.testing.assert_allclose(cte, [2.0, -1.0, 3.0])
        pol = LinearPolicy(1.0, np.array([-1.0]))  # d = (+1, +1, -1) at those x
        np.testing.assert_array_equal(pol(data2.x[data2.s == 0]), [1, 1, -1])
        assert calib_value(data2, "covariates_only", outcome, pol) == pytest.approx(-2.0 / 3.0, abs=1e-14)

    def test_empty_calibration_error(self):
        data, oracle = simulate_gaussian_shift(make_config(n=40, seed=3))
        with pytest.raises(EmptyStratum, match="no calibration rows"):
            # a directly constructed dataset skips the stratum checks of from_arrays
            calib_value(
                PooledDataset(x=data.x, a=data.a, y=data.y, s=np.ones(data.n, dtype=np.int64)),
                "covariates_only",
                oracle.outcome,
                constant_policy(1, 2),
            )


class TestIpw:
    def toy(self):
        # calibration rows carry (A, Y) = (+1, 4), (-1, 2)
        x = np.array([[0.0], [0.1], [0.2], [0.3]])
        return type1_calunited(x, [1, -1, 1, -1], [0.0, 0.0, 4.0, 2.0], [1, 1, 0, 0])

    def oracle_prop(self):
        cfg = make_config(p=1, mu=(0.0,), n=4, outcome_coeffs=[0, 0, 0, 0], propensity=0.5, seed=0)
        return gaussian_oracle_nuisances(cfg).propensity

    def test_zero_outcomes(self):
        data = self.toy()
        zeroed = PooledDataset.from_arrays(data.x, data.a, np.zeros(4), data.s)
        assert calib_value(zeroed, "ipw", self.oracle_prop(), constant_policy(1, 1)) == 0.0

    def test_hand_example(self):
        # (4 / 0.5 + 0) / 2 = 4
        v = calib_value(self.toy(), "ipw", self.oracle_prop(), constant_policy(1, 1))
        assert v == pytest.approx(4.0, abs=1e-14)

    def test_policy_matching_every_row(self):
        data = self.toy()
        match_policy = LinearPolicy(1.0, np.array([0.0]))  # +1 everywhere
        agree = PooledDataset.from_arrays(data.x, np.ones(4), data.y, data.s)
        v = calib_value(agree, "ipw", self.oracle_prop(), match_policy)
        calib_y = agree.y[agree.s == 0]
        assert v == pytest.approx(2 * calib_y.mean(), abs=1e-14)

    def test_requires_observed_calibration(self):
        data, oracle = simulate_gaussian_shift(make_config(n=40, seed=4))
        with pytest.raises(MissingField):
            calib_value(data.as_type2(), "ipw", oracle.propensity, constant_policy(1, 2))

    def test_propensity_stratum_outside_0_1_is_refused(self):
        # the constant oracle propensity ignores the stratum, so only the check can refuse it
        with pytest.raises(InvalidConfig, match="ipw_propensity_stratum"):
            calib_value(self.toy(), "ipw", self.oracle_prop(), constant_policy(1, 1), 7)

    def test_propensity_stratum_switch(self):
        data, _ = simulate_gaussian_shift(make_config(n=400, seed=5))
        from shifteval import fit_propensity_logistic

        prop = fit_propensity_logistic(data)
        v1 = calib_value(data, "ipw", prop, constant_policy(1, 2), stratum=1)
        v0 = calib_value(data, "ipw", prop, constant_policy(1, 2), stratum=0)
        assert v1 != v0


class TestSelectPolicy:
    def make_candidates(self):
        return CandidateSet(
            candidates=(
                (0.5, constant_policy(1, 2)),
                (1.0, constant_policy(-1, 2)),
            )
        )

    def oracle(self, coeffs=(0, 0, 0, 0.5, 0, 0), seed=6):
        cfg = make_config(outcome_coeffs=list(coeffs), n=60, seed=seed)
        data, nus = simulate_gaussian_shift(cfg)
        return data, nus

    def test_single_candidate_returned(self):
        data, nus = self.oracle()
        single = CandidateSet(candidates=((2.0, constant_policy(-1, 2)),))
        res = select_policy(single, data, "covariates_only", nus.outcome)
        assert res.chosen_c == 2.0

    def test_constant_cte_prefers_plus_one(self):
        data, nus = self.oracle()  # C = 1 everywhere
        res = select_policy(self.make_candidates(), data, "covariates_only", nus.outcome)
        assert res.chosen_c == 0.5
        assert res.table[0]["value"] == pytest.approx(1.0)
        assert res.table[1]["value"] == pytest.approx(-1.0)

    def test_tie_breaks_toward_smaller_c(self):
        data, nus = self.oracle(coeffs=(1, 1, 1, 0, 0, 0))  # C = 0: every value 0
        res = select_policy(self.make_candidates(), data, "covariates_only", nus.outcome)
        assert res.chosen_c == 0.5

    def test_argmax_invariant_to_positive_rescaling(self):
        data, nus = self.oracle(coeffs=(0, 0, 0, 0.25, 0.5, -0.5), seed=7)
        cands = CandidateSet(
            candidates=(
                (0.1, LinearPolicy(0.2, np.array([1.0, -1.0]))),
                (0.2, constant_policy(1, 2)),
                (0.3, constant_policy(-1, 2)),
            )
        )
        res = select_policy(cands, data, "covariates_only", nus.outcome)
        scaled_outcome = OutcomeModel(
            evaluator=LinearQModel(beta=3.0 * np.asarray([0, 0, 0, 0.25, 0.5, -0.5]))
        )
        res_scaled = select_policy(cands, data, "covariates_only", scaled_outcome)
        assert res_scaled.chosen_c == res.chosen_c

    def test_oracle_chooses_true_best_without_noise(self):
        cfg = make_config(n=4000, noise_sd=0.0, seed=8)
        data, nus = simulate_gaussian_shift(cfg)
        cands = CandidateSet(
            candidates=(
                (0.1, LinearPolicy(0.5, np.array([1.0, -1.0]))),
                (0.2, constant_policy(1, 2)),
                (0.3, constant_policy(-1, 2)),
            )
        )
        res = select_policy(cands, data, "covariates_only", nus.outcome)
        truths = {c: true_policy_values(cfg, pol, draws=200_000)["theta1"] for c, pol in cands.candidates}
        best_c = max(sorted(truths), key=lambda c: truths[c])
        assert res.chosen_c == best_c

    def test_cross_module_exact_equality(self, policy):
        data, nus = simulate_gaussian_shift(make_config(n=500, seed=9))
        value = calib_value(data, "covariates_only", nus.outcome, policy)
        plugin = estimate_plugin_identification(data, nus, policy, Estimand.CONTRAST, "calibration_mean")
        assert value == plugin.estimate

    @pytest.mark.parametrize("method, model_class, evaluate", [
        ("covariates_only", OutcomeModel, "cte"),
        ("ipw", PropensityModel, "prob"),
    ])
    def test_nuisance_is_evaluated_once(self, monkeypatch, method, model_class, evaluate):
        data, nus = simulate_gaussian_shift(make_config(n=200, seed=10))
        cands = CandidateSet(
            candidates=(
                (0.1, LinearPolicy(0.2, np.array([1.0, -1.0]))),
                (0.2, constant_policy(1, 2)),
                (0.3, constant_policy(-1, 2)),
            )
        )
        calls = []
        original = getattr(model_class, evaluate)

        def spy(model, *args):
            calls.append(args)
            return original(model, *args)

        monkeypatch.setattr(model_class, evaluate, spy)
        model = nus.outcome if method == "covariates_only" else nus.propensity
        res = select_policy(cands, data, method, model)
        assert len(res.table) == 3
        assert len(calls) == 1

    def test_distinct_constants_enforced(self):
        with pytest.raises(InvalidConfig):
            CandidateSet(candidates=((1.0, constant_policy(1, 2)), (1.0, constant_policy(-1, 2))))

    def test_empty_candidate_set_refused(self):
        with pytest.raises(InvalidConfig, match="candidate set must be non-empty"):
            CandidateSet(candidates=())

    def test_selection_json(self):
        data, nus = self.oracle()
        res = select_policy(self.make_candidates(), data, "covariates_only", nus.outcome)
        payload = res.to_json_dict()
        json.dumps(payload)
        assert payload["chosen_c"] == 0.5
        assert len(payload["table"]) == 2


class TestCandidateParsing:
    def test_round_trip(self):
        text = json.dumps(
            [
                {"c": 0.5, "rule": {"type": "linear", "intercept": 0.2, "coeffs": [1.0, -1.0]}},
                {"c": 1.0, "rule": {"type": "linear", "intercept": -1.0, "coeffs": [0.0, 0.0]}},
            ]
        )
        cands = candidates_from_json(text)
        assert len(cands.candidates) == 2
        c, pol = cands.candidates[0]
        assert c == 0.5
        assert pol(np.array([1.0, 0.0])) == 1

    def test_bad_rule_type(self):
        with pytest.raises(InvalidConfig):
            candidates_from_json(json.dumps([{"c": 1, "rule": {"type": "tree"}}]))

    def test_missing_field(self):
        with pytest.raises(InvalidConfig):
            candidates_from_json(json.dumps([{"rule": {"type": "linear", "intercept": 0, "coeffs": []}}]))

    def test_not_a_list(self):
        with pytest.raises(InvalidConfig):
            candidates_from_json(json.dumps({"c": 1}))

    @pytest.mark.parametrize("entry", [
        {"c": "0.1", "rule": {"type": "linear", "intercept": 0, "coeffs": [0.0]}},
        {"c": True, "rule": {"type": "linear", "intercept": 0, "coeffs": [0.0]}},
        {"c": 0.1, "rule": {"type": "linear", "intercept": 0, "coeffs": ["0.0"]}},
        {"c": 0.1, "rule": {"type": "linear", "intercept": 0, "coeffs": 0.0}},
        {"c": 0.1, "rule": [0.0]},
        "rule",
    ])
    def test_non_numbers_and_non_objects_are_refused(self, entry):
        with pytest.raises(InvalidConfig):
            candidates_from_json(json.dumps([entry]))

    @pytest.mark.parametrize("c", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_c_is_refused(self, c):
        text = f'[{{"c": {c}, "rule": {{"type": "linear", "intercept": 0, "coeffs": [0.0]}}}}]'
        with pytest.raises(NonFiniteValue, match="c must be finite"):
            candidates_from_json(text)

    @pytest.mark.parametrize("spec", [None, 3, [1.0], "linear"])
    def test_non_dict_policy_is_invalid_config(self, spec):
        with pytest.raises(InvalidConfig):
            LinearPolicy.from_json_dict(spec)
