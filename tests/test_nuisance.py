import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from shifteval import (
    DatasetKind,
    FitRecipe,
    InstrumentSet,
    KernelSpec,
    PooledDataset,
    assemble_nuisances,
    check_balance,
    check_positivity,
    fit_outcome_regression,
    fit_propensity_logistic,
    fit_weights_aipsw,
    fit_weights_entropy_balancing,
    fit_weights_kulsif,
    simulate_gaussian_shift,
    true_weight_gaussian,
)
from shifteval.errors import (
    InfeasibleBalance,
    NoObservedOutcomes,
    RankDeficient,
    Separation,
)
from shifteval.nuisance import (
    TAU_CLIP,
    ConstantInstrument,
    ConstantPropensityFn,
    CoordinateInstrument,
    FunctionInstrument,
    LogisticPropensityFn,
    PropensityModel,
    _kernel_matrix,
    _solve_spd,
)

from conftest import make_config


def dataset_from(x, a, y, s, kind=DatasetKind.TYPE1):
    return PooledDataset.from_arrays(np.asarray(x, dtype=float), a, y, s, kind)


def grid_max_loglik(x, b, bounds=(-3.0, 3.0), passes=4, width=81):
    """Coarse-to-fine grid search for the 2-parameter logistic MLE."""
    lo = np.array([bounds[0], bounds[0]])
    hi = np.array([bounds[1], bounds[1]])
    best = None
    for _ in range(passes):
        g0 = np.linspace(lo[0], hi[0], width)
        g1 = np.linspace(lo[1], hi[1], width)
        bb0, bb1 = np.meshgrid(g0, g1, indexing="ij")
        eta = bb0[..., None] + bb1[..., None] * x[None, None, :]
        ll = np.sum(b * eta - np.logaddexp(0.0, eta), axis=-1)
        i, j = np.unravel_index(np.argmax(ll), ll.shape)
        best = (g0[i], g1[j], ll[i, j])
        span0 = (hi[0] - lo[0]) / (width - 1)
        span1 = (hi[1] - lo[1]) / (width - 1)
        lo = np.array([g0[i] - 2 * span0, g1[j] - 2 * span1])
        hi = np.array([g0[i] + 2 * span0, g1[j] + 2 * span1])
    return best


class TestPropensity:
    def test_null_model_near_half(self):
        data, _ = simulate_gaussian_shift(make_config(n=2000, seed=72))
        model = fit_propensity_logistic(data)
        p1 = model.prob(1, data.x[data.s == 1], 1)
        assert np.max(np.abs(p1 - 0.5)) < 0.02

    def test_matches_grid_search_oracle(self):
        x = np.array([-1.0, 0.0, 1.0])
        a = np.array([1.0, -1.0, 1.0])
        # the calibration row is unobserved, so only stratum 1 is fitted
        ds = dataset_from(
            np.r_[x, 0.2][:, None], np.r_[a, np.nan], [0.0] * 3 + [np.nan], [1, 1, 1, 0],
            DatasetKind.TYPE2,
        )
        model = fit_propensity_logistic(ds, clip=0.0)
        beta = model.evaluator.coef[1]
        b0, b1, _ = grid_max_loglik(x, (a == 1).astype(float))
        assert abs(beta[0] - b0) < 1e-3
        assert abs(beta[1] - b1) < 1e-3

    def test_separation_detected(self):
        x = np.array([0.0, 1.0, 2.0, 3.0, 0.5])[:, None]
        a = [-1, -1, 1, 1, 1]
        ds = dataset_from(x, a, [0.0] * 5, [1, 1, 1, 1, 0])
        with pytest.raises(Separation):
            fit_propensity_logistic(ds)

    def test_rank_deficient(self):
        x = np.column_stack([np.ones(5), np.ones(5)])  # duplicate constant columns
        ds = dataset_from(x, [1, -1, 1, -1, 1], [0.0] * 5, [1, 1, 1, 1, 0])
        with pytest.raises(RankDeficient):
            fit_propensity_logistic(ds)

    @given(
        coef=hnp.arrays(float, (2, 3), elements=st.floats(-1e3, 1e3)),
        x=hnp.arrays(float, (10, 2), elements=st.floats(-10.0, 10.0)),
        s=hnp.arrays(np.int64, 10, elements=st.integers(0, 1)),
        clip=st.sampled_from([0.0, TAU_CLIP, 0.25]),
        p1=st.floats(0.0, 1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_arm_probabilities_sum_to_one_exactly(self, coef, x, s, clip, p1):
        # coefficients up to 1e3 on covariates up to 10 push expit to the clip
        # and, unclipped, to exactly 0 or 1
        for evaluator in (LogisticPropensityFn({1: coef[0], 0: coef[1]}),
                          ConstantPropensityFn(p1)):
            model = PropensityModel(evaluator, clip=clip)
            total = model.prob(1, x, s) + model.prob(-1, x, s)
            assert np.all(total == 1.0)

    @pytest.mark.parametrize("p1, seed", [(0.75, 627), (0.6875, 208)])
    def test_separated_small_sample_raises(self, p1, seed):
        # n=60 draws whose treatment is perfectly separated by the covariates
        data, _ = simulate_gaussian_shift(make_config(n=60, propensity=p1, seed=seed))
        with pytest.raises(Separation):
            fit_propensity_logistic(data)


class TestSolveSpd:
    @pytest.mark.parametrize("m", [10, 1600])
    def test_condition_warning_at_every_size(self, m):
        ill = np.eye(m)
        ill[0, 0] = 1e-14
        with pytest.warns(UserWarning, match=r"toy system: condition number 1\.00e\+14"):
            _solve_spd(ill, np.ones(m), "toy system")
        # a KuLSIF-style dual system K / m + lambda I is well conditioned
        x = np.random.default_rng(m).standard_normal((m, 2))
        lhs = _kernel_matrix("rbf", 1.0, x, x) / m + np.eye(m) / m
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alpha = _solve_spd(lhs, np.ones(m), "toy system")
        np.testing.assert_allclose(lhs @ alpha, np.ones(m), atol=1e-8)


class TestOutcome:
    def test_noiseless_exact_recovery(self):
        cfg = make_config(n=400, noise_sd=0.0, seed=31)
        data, oracle = simulate_gaussian_shift(cfg)
        model = fit_outcome_regression(data, method="linear")
        x = data.x[data.s == 1]
        np.testing.assert_allclose(model.q(x, 1), oracle.outcome.q(x, 1), atol=1e-8)
        np.testing.assert_allclose(model.q(x, -1), oracle.outcome.q(x, -1), atol=1e-8)

    def test_constant_outcome(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(12, 2))
        ds = dataset_from(x, [1, -1] * 6, [3.0] * 12, [1] * 10 + [0] * 2)
        model = fit_outcome_regression(ds, method="linear")
        np.testing.assert_allclose(model.q(x, 1), 3.0, atol=1e-10)
        np.testing.assert_allclose(model.q(x, -1), 3.0, atol=1e-10)
        np.testing.assert_allclose(model.cte(x), 0.0, atol=1e-10)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 1))
        a = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        y = rng.normal(size=6)
        ds = dataset_from(x, a, y, [1] * 5 + [0])
        model = fit_outcome_regression(ds, method="linear")
        design = np.column_stack([np.ones(6), x, a, x * a[:, None]])
        beta = np.linalg.solve(design.T @ design, design.T @ y)
        np.testing.assert_allclose(model.evaluator.beta, beta, atol=1e-9)

    def test_cte_is_definitional(self):
        data, _ = simulate_gaussian_shift(make_config(n=200, seed=33))
        model = fit_outcome_regression(data, method="linear")
        x = data.x[:20]
        np.testing.assert_array_equal(model.cte(x), model.q(x, 1) - model.q(x, -1))

    def test_kernel_ridge_fits_smooth_function(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(-2, 2, size=(80, 1))
        a = np.where(rng.random(80) < 0.5, 1.0, -1.0)
        y = np.sin(x[:, 0]) + 0.5 * a
        ds = dataset_from(x, a, y, [1] * 76 + [0] * 4)
        model = fit_outcome_regression(
            ds, method="kernel_ridge", spec=KernelSpec(family="rbf", bandwidth=0.8, ridge=1e-6)
        )
        pred = model.q(x, a)
        assert np.max(np.abs(pred - y)) < 0.05

    def test_kernel_ridge_constant(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(40, 2))
        ds = dataset_from(x, [1, -1] * 20, [3.0] * 40, [1] * 38 + [0] * 2)
        model = fit_outcome_regression(
            ds, method="kernel_ridge", spec=KernelSpec(family="rbf", bandwidth=3.0, ridge=1e-8)
        )
        np.testing.assert_allclose(model.q(x, 1), 3.0, atol=0.02)

    def test_kernel_ridge_missing_arm(self):
        # s=1 rows always carry (a, y), so the reachable failure is a
        # treatment arm with no observations
        x = np.array([[0.0], [1.0], [2.0]])
        ds = PooledDataset.from_arrays(
            x, [1, 1, np.nan], [0.5, 0.7, np.nan], [1, 1, 0], DatasetKind.TYPE2
        )
        with pytest.raises(NoObservedOutcomes):
            fit_outcome_regression(ds, method="kernel_ridge", spec=KernelSpec(bandwidth=1.0, ridge=0.1))


class TestAipsw:
    def test_no_shift_null(self):
        data, _ = simulate_gaussian_shift(make_config(mu=(0.0, 0.0), n=4000, seed=0))
        wm = fit_weights_aipsw(data)
        coef = np.asarray(wm.info["coef"])
        assert np.max(np.abs(coef[1:])) < 0.1
        assert np.max(np.abs(wm(data.x[data.s == 1]) - 1.0)) < 0.1

    def test_matches_grid_search_oracle_on_four_rows(self):
        x = np.array([0.0, 0.5, 1.0, -0.2])
        s = np.array([1, 0, 1, 0])
        ds = dataset_from(
            x[:, None],
            np.where(s == 1, 1.0, np.nan),
            np.where(s == 1, 0.0, np.nan),
            s,
            DatasetKind.TYPE2,
        )
        wm = fit_weights_aipsw(ds, clip=0.0)
        b0, b1, _ = grid_max_loglik(x, s.astype(float))
        from scipy.special import expit

        p1 = expit(b0 + b1 * x[s == 1])
        expected = ds.n1 * (1 - p1) / (ds.n0 * p1)
        np.testing.assert_allclose(wm(ds.x[ds.s == 1]), expected, atol=5e-3)

    def test_recovers_gaussian_log_odds(self):
        cfg = make_config(n=20_000, seed=52)
        data, _ = simulate_gaussian_shift(cfg)
        coef = np.asarray(fit_weights_aipsw(data).info["coef"])
        target = np.array([np.log(1.0) - 0.25, 0.5, 0.5])
        assert np.max(np.abs(coef - target)) < 0.08


class TestKulsif:
    def test_hand_solved_one_by_one(self):
        ds = dataset_from(
            np.array([[1.0], [1.0]]), [1, np.nan], [0.5, np.nan], [1, 0], DatasetKind.TYPE2
        )
        wm1 = fit_weights_kulsif(ds, KernelSpec(family="rbf", bandwidth=1.0, ridge=1.0))
        assert wm1.evaluator.alpha[0] == pytest.approx(-0.5, abs=1e-12)
        assert wm1(ds.x[:1])[0] == pytest.approx(0.5, abs=1e-12)
        wm2 = fit_weights_kulsif(ds, KernelSpec(family="rbf", bandwidth=1.0, ridge=2.0))
        assert wm2.evaluator.alpha[0] == pytest.approx(-1.0 / 6.0, abs=1e-12)
        assert wm2(ds.x[:1])[0] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_no_shift_mean_weight_near_one(self):
        cfg = make_config(mu=(0.0, 0.0), n=100, seed=53)
        data, _ = simulate_gaussian_shift(cfg)
        wm = fit_weights_kulsif(data, KernelSpec())
        assert abs(wm(data.x[data.s == 1]).mean() - 1.0) < 0.25

    def test_matches_primal_minimization_oracle(self):
        rng = np.random.default_rng(3)
        n1 = n0 = 12
        x = np.vstack([rng.standard_normal((n1, 2)) + 0.4, rng.standard_normal((n0, 2))])
        ds = dataset_from(
            x, [1] * n1 + [np.nan] * n0, [0.0] * n1 + [np.nan] * n0, [1] * n1 + [0] * n0,
            DatasetKind.TYPE2,
        )
        lam, h = 0.05, 1.3
        wm = fit_weights_kulsif(ds, KernelSpec(family="rbf", bandwidth=h, ridge=lam))
        # minimize the penalized empirical objective over the full representer
        # span; by the representer property this is the RKHS minimizer
        kmat = _kernel_matrix("rbf", h, x, x)
        ktr, kcal = kmat[:n1, :], kmat[n1:, :]
        gamma = np.linalg.lstsq(ktr.T @ ktr / n1 + lam * kmat, kcal.T @ np.ones(n0) / n0, rcond=None)[0]
        np.testing.assert_allclose(wm.evaluator.raw(x[:n1]), ktr @ gamma, atol=1e-10)

    def test_dual_residual_and_optimality(self):
        rng = np.random.default_rng(13)
        n1 = n0 = 40
        x = np.vstack([rng.standard_normal((n1, 2)) + 0.3, rng.standard_normal((n0, 2))])
        ds = dataset_from(
            x, [1] * n1 + [np.nan] * n0, [0.0] * n1 + [np.nan] * n0, [1] * n1 + [0] * n0,
            DatasetKind.TYPE2,
        )
        wm = fit_weights_kulsif(ds, KernelSpec())
        assert wm.info["dual_residual"] <= 1e-8
        # perturbing any coordinate strictly increases the dual objective
        ev = wm.evaluator
        k11 = _kernel_matrix(ev.family, ev.bandwidth, ev.train_x, ev.train_x)
        k01 = _kernel_matrix(ev.family, ev.bandwidth, ev.calib_x, ev.train_x)
        lhs = k11 / n1 + ev.lam * np.eye(n1)
        lin = k01.sum(axis=0) / (ev.lam * n0 * n1)

        def dual_objective(alpha):
            return 0.5 * alpha @ lhs @ alpha + lin @ alpha

        base = dual_objective(ev.alpha)
        for i in (0, 7, n1 - 1):
            for eps in (1e-3, -1e-3):
                perturbed = ev.alpha.copy()
                perturbed[i] += eps
                assert dual_objective(perturbed) > base

    def test_primal_dual_consistency_matrix_identity(self):
        rng = np.random.default_rng(17)
        n1, n0 = 25, 30
        x = np.vstack([rng.standard_normal((n1, 2)) + 0.2, rng.standard_normal((n0, 2))])
        ds = dataset_from(
            x, [1] * n1 + [np.nan] * n0, [0.0] * n1 + [np.nan] * n0, [1] * n1 + [0] * n0,
            DatasetKind.TYPE2,
        )
        wm = fit_weights_kulsif(ds, KernelSpec())
        ev = wm.evaluator
        k11 = _kernel_matrix(ev.family, ev.bandwidth, ev.train_x, ev.train_x)
        k01 = _kernel_matrix(ev.family, ev.bandwidth, ev.calib_x, ev.train_x)
        expected = k11 @ ev.alpha + k01.sum(axis=0) / (ev.lam * n0)
        np.testing.assert_allclose(ev.raw(x[:n1]), expected, atol=1e-10)

    def test_negative_truncation_flagged(self):
        rng = np.random.default_rng(23)
        n1 = n0 = 30
        # strong shift makes some raw weights negative
        x = np.vstack([rng.standard_normal((n1, 1)) + 3.0, rng.standard_normal((n0, 1))])
        ds = dataset_from(
            x, [1] * n1 + [np.nan] * n0, [0.0] * n1 + [np.nan] * n0, [1] * n1 + [0] * n0,
            DatasetKind.TYPE2,
        )
        wm = fit_weights_kulsif(ds, KernelSpec(family="rbf", bandwidth=0.5, ridge=0.01))
        assert (wm(x[:n1]) >= 0.0).all()
        assert wm.info["train_negative_truncated"] == int(np.sum(wm.evaluator.raw(x[:n1]) < 0))


class TestEntropyBalancing:
    def test_symmetric_two_points(self):
        x = np.array([[-1.0], [1.0], [0.0], [0.0]])
        ds = dataset_from(x, [1, -1, np.nan, np.nan], [0.0, 0.0, np.nan, np.nan], [1, 1, 0, 0], DatasetKind.TYPE2)
        wm = fit_weights_entropy_balancing(ds, InstrumentSet.default(1))
        np.testing.assert_allclose(wm(x[:2]) / ds.n1, [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(wm.info["lambda"], [0.0], atol=1e-10)

    def test_two_point_interior_moment(self):
        x = np.array([[0.0], [1.0], [0.5], [0.5]])
        ds = dataset_from(x, [1, -1, np.nan, np.nan], [0.0, 0.0, np.nan, np.nan], [1, 1, 0, 0], DatasetKind.TYPE2)
        wm = fit_weights_entropy_balancing(ds, InstrumentSet.default(1))
        np.testing.assert_allclose(wm(x[:2]) / ds.n1, [0.5, 0.5], atol=1e-10)

    def test_moment_outside_hull(self):
        x = np.array([[0.0], [1.0], [1.5], [1.5]])
        ds = dataset_from(x, [1, -1, np.nan, np.nan], [0.0, 0.0, np.nan, np.nan], [1, 1, 0, 0], DatasetKind.TYPE2)
        with pytest.raises(InfeasibleBalance) as err:
            fit_weights_entropy_balancing(ds, InstrumentSet.default(1))
        assert err.value.coordinate == "x_1"

    def test_weights_positive_normalized_balanced(self):
        data, _ = simulate_gaussian_shift(make_config(n=500, seed=61))
        instruments = InstrumentSet.default(2)
        wm = fit_weights_entropy_balancing(data, instruments)
        w = wm(data.x[data.s == 1]) / data.n1
        assert (w > 0).all()
        assert np.sum(w) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(check_balance(wm, data, instruments))) <= 1e-8

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(200, 2000),
        mu=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    )
    @settings(max_examples=30, deadline=None)
    def test_balanced_or_infeasible_property(self, seed, n, mu):
        data, _ = simulate_gaussian_shift(make_config(mu=mu, n=n, seed=seed))
        instruments = InstrumentSet.default(2)
        x1 = data.x[data.s == 1]
        calib_mean = data.x[data.s == 0].mean(axis=0)
        if np.any((calib_mean < x1.min(axis=0)) | (calib_mean > x1.max(axis=0))):
            with pytest.raises(InfeasibleBalance):
                fit_weights_entropy_balancing(data, instruments)
            return
        wm = fit_weights_entropy_balancing(data, instruments)
        assert np.sum(wm(x1) / data.n1) == pytest.approx(1.0, abs=1e-12)
        assert wm.info["max_balance_residual"] <= 1e-8
        residual = np.max(np.abs(check_balance(wm, data, instruments)))
        assert residual == pytest.approx(wm.info["max_balance_residual"], abs=1e-8)

    def test_entropy_minimality(self):
        data, _ = simulate_gaussian_shift(make_config(mu=(0.2, 0.2), n=400, seed=0))
        base_instruments = InstrumentSet.default(2)
        wm = fit_weights_entropy_balancing(data, base_instruments)
        w = wm(data.x[data.s == 1]) / data.n1
        achieved = np.sum(w * np.log(w))

        # richer constraint set is feasible for the base constraints
        richer = InstrumentSet(
            functions=base_instruments.functions
            + (FunctionInstrument(lambda x: x[:, 0] ** 2, "x1_sq"),),
            includes_constant=True,
        )
        wr = fit_weights_entropy_balancing(data, richer)(data.x[data.s == 1]) / data.n1
        assert achieved <= np.sum(wr * np.log(wr)) + 1e-12

        # least-squares projection of the uniform vector onto the constraints
        x1 = data.x[data.s == 1]
        g1 = base_instruments.evaluate(x1).T  # (m, n1) incl. constant row
        target = base_instruments.evaluate(data.x[data.s == 0]).mean(axis=0)
        u = np.full(x1.shape[0], 1.0 / x1.shape[0])
        proj = u + g1.T @ np.linalg.solve(g1 @ g1.T, target - g1 @ u)
        assert (proj > 0).all(), "test construction needs interior projection"
        np.testing.assert_allclose(g1 @ proj, target, atol=1e-10)
        assert achieved <= np.sum(proj * np.log(proj)) + 1e-12

    def test_parametric_recovery_exponential_tilt(self):
        # truth w(x) = exp(eta . (1, x)) with eta = (||mu||^2/2, -mu)
        mu = np.array([0.5, 0.5])
        eta = np.array([0.25, -0.5, -0.5])
        tilts = []
        for r in range(10):
            data, _ = simulate_gaussian_shift(make_config(n=20_000, seed=700 + r))
            wm = fit_weights_entropy_balancing(data, InstrumentSet.default(2))
            tilts.append(wm.info["tilt"])
            x1 = data.x[data.s == 1]
            dev = np.abs(wm(x1) - true_weight_gaussian(x1, mu))
            assert dev.mean() < 0.05
        tilts = np.array(tilts)
        se = tilts.std(axis=0, ddof=1) / np.sqrt(len(tilts))
        assert np.all(np.abs(tilts.mean(axis=0) - eta) <= 3 * se)


class TestDiagnostics:
    def test_balance_oracle_no_shift(self):
        data, oracle = simulate_gaussian_shift(make_config(mu=(0.0, 0.0), n=10_000, seed=71))
        instruments = InstrumentSet.default(2)
        r = check_balance(oracle.weight, data, instruments)
        se = np.sqrt(2.0 / min(data.n1, data.n0))
        assert np.max(np.abs(r)) <= 3 * se

    def test_balance_uniform_weights_show_shift(self):
        mu = np.array([1.5, -1.0])
        data, _ = simulate_gaussian_shift(make_config(mu=mu, n=10_000, seed=72))
        from shifteval.nuisance import WeightModel

        uniform = WeightModel(backend="oracle", evaluator=lambda x: np.ones(x.shape[0]))
        r = check_balance(uniform, data, InstrumentSet.default(2))
        # training mean is mu, calibration mean is 0
        se = np.sqrt(2.0 / min(data.n1, data.n0))
        assert np.max(np.abs(r[1:] - mu)) <= 4 * se

    def test_positivity_no_flags(self):
        data, oracle = simulate_gaussian_shift(make_config(n=400, seed=73))
        rep = check_positivity(oracle, data, tau=0.05, delta=0.001)
        assert rep.n_flagged_propensity == 0

    def test_positivity_threshold_above_truth_flags_all(self):
        data, oracle = simulate_gaussian_shift(make_config(n=100, seed=74))
        rep = check_positivity(oracle, data, tau=0.6, delta=0.001)
        assert rep.n_flagged_propensity == data.n

    def test_positivity_extreme_shift_reports_without_abort(self):
        data, oracle = simulate_gaussian_shift(make_config(mu=(3.0, 3.0), n=400, seed=75))
        rep = check_positivity(oracle, data, tau=0.05, delta=0.2)
        assert rep.n_flagged_selection > 0
        assert len(rep.worst_selection) == 5
        json.dumps(rep.to_json_dict())

    def test_positivity_type2_fitted_propensity_does_not_raise(self):
        data, _ = simulate_gaussian_shift(make_config(n=400, seed=77))
        masked = data.as_type2()
        nus = assemble_nuisances(
            masked, FitRecipe(weights="aipsw", propensity="logistic", outcome="linear")
        )
        rep = check_positivity(nus, masked, tau=0.6, delta=0.05)
        # only training rows carry (a, y); each is flagged at tau = 0.6
        assert rep.n_rows == masked.n
        assert rep.n_flagged_propensity == masked.n1
        for i, v in rep.worst_propensity:
            assert masked.s[i] == 1
            p1 = nus.propensity.prob(1, masked.x[i : i + 1], 1)[0]
            assert v == pytest.approx(min(p1, 1.0 - p1), rel=1e-12)

    def test_instrument_names(self):
        ins = InstrumentSet.default(2)
        assert ins.names == ["const", "x_1", "x_2"]
        assert isinstance(ins.functions[0], ConstantInstrument)
        assert isinstance(ins.functions[1], CoordinateInstrument)
