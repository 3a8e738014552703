import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from shifteval import (
    DatasetKind,
    KernelSpec,
    PooledDataset,
    fit_outcome_regression,
    fit_propensity_logistic,
    fit_weights_aipsw,
    fit_weights_entropy_balancing,
    fit_weights_kulsif,
    simulate_gaussian_shift,
    true_weight_gaussian,
)
from shifteval import nuisance
from shifteval.errors import (
    DimensionMismatch,
    InfeasibleBalance,
    InvalidConfig,
    KernelTooLarge,
    NoObservedOutcomes,
    NonFiniteValue,
    RankDeficient,
    Separation,
    SolveFailure,
)
from shifteval.nuisance import (
    TAU_CLIP,
    ConstantPropensityFn,
    LogisticPropensityFn,
    PropensityModel,
    _kernel_matrix,
    _solve_spd,
    median_bandwidth,
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
        model = fit_propensity_logistic(ds)
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
        p1=st.floats(0.0, 1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_arm_probabilities_sum_to_one_exactly(self, coef, x, p1):
        # coefficients up to 1e3 on covariates up to 10 push expit to the
        # logistic clip, and p1 may be exactly 0 or 1
        for evaluator in (LogisticPropensityFn({1: coef[0], 0: coef[1]}),
                          ConstantPropensityFn(p1)):
            model = PropensityModel(evaluator)
            for s in (0, 1):
                total = model.prob(1, x, s) + model.prob(-1, x, s)
                assert np.all(total == 1.0)

    def test_only_the_logistic_evaluator_clips(self):
        x = np.array([[0.0]])
        saturated = LogisticPropensityFn({1: np.array([-2000.0, 0.0]), 0: np.array([2000.0, 0.0])})
        assert saturated.prob1(x, 1)[0] == TAU_CLIP
        assert saturated.prob1(x, 0)[0] == 1.0 - TAU_CLIP
        assert ConstantPropensityFn(1.0).prob1(x, 1)[0] == 1.0

    @pytest.mark.parametrize("s", [np.array([0, 1]), [1], np.array([[1]])])
    def test_per_row_strata_are_refused_alike(self, s):
        x = np.zeros((2, 2))
        for evaluator in (LogisticPropensityFn({1: np.zeros(3), 0: np.zeros(3)}),
                          ConstantPropensityFn(0.5)):
            with pytest.raises(DimensionMismatch, match="one stratum"):
                PropensityModel(evaluator).prob(1, x, s)

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

    def test_indefinite_matrix_raises_solve_failure(self):
        indefinite = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(SolveFailure, match=r"^toy system: "):
            _solve_spd(indefinite, np.ones(3), "toy system")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 3), (3, 0), (2, 2), "rhs"],
                             ids=["upper", "lower", "diagonal", "rhs"])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_non_finite_system_raises_solve_failure(self, value, where, order):
        # the lower Cholesky factor never reads (0, 3); the 1-norm does
        matrix, rhs = np.array(np.eye(5) * 2.0, order=order), np.ones(5)
        if where == "rhs":
            rhs[3] = value
        else:
            matrix[where] = value
        with pytest.raises(SolveFailure, match=r"^toy system: .*not finite"):
            _solve_spd(matrix, rhs, "toy system")


def reference_median_bandwidth(x):
    """``median_bandwidth`` by ``np.median``, the reference the one-index
    selection must equal bit for bit; the subsample's rows keep their own
    order, which changes the order of the distances but not their median."""
    from scipy.spatial.distance import pdist

    x = np.asarray(x, dtype=float)
    if x.shape[0] > 2000:
        picks = np.arange(2000) * x.shape[0] // 2000
        x = x[np.sort(np.lexsort(x.T[::-1])[picks])]
    if x.shape[0] < 2:
        return 1.0
    med = float(np.median(pdist(x)))
    return med if med > 0 else 1.0


class TestMedianBandwidth:
    @given(
        n=st.integers(2, 2600),
        p=st.sampled_from([1, 2, 5]),
        seed=st.integers(0, 2**32 - 1),
        rows=st.sampled_from(["distinct", "duplicated", "grid", "all_equal"]),
    )
    # one and three distances (odd), six (even), and the 2000-row subsample
    @example(n=2, p=1, seed=0, rows="distinct")
    @example(n=3, p=2, seed=1, rows="distinct")
    @example(n=4, p=5, seed=2, rows="distinct")
    @example(n=2001, p=2, seed=3, rows="duplicated")
    @example(n=2600, p=1, seed=4, rows="all_equal")
    @settings(max_examples=25, deadline=None)
    def test_equals_the_np_median_formula_bit_for_bit(self, n, p, seed, rows):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, p))
        if rows == "duplicated":  # few distinct rows: many zero and tied distances
            x = x[rng.integers(0, max(2, n // 10), size=n)]
        elif rows == "grid":  # coarse values: tied nonzero distances
            x = np.round(x * 2.0) / 2.0
        elif rows == "all_equal":  # every distance 0: the 1.0 fallback
            x = np.full((n, p), 0.3)
        got, want = median_bandwidth(x), reference_median_bandwidth(x)
        assert type(got) is float
        assert got.hex() == want.hex()
        if rows == "all_equal":
            assert got == 1.0


class TestKernelSpec:
    # 1e154**2 is finite, and only the doubling overflows
    @pytest.mark.parametrize("bandwidth", [1e-170, 1e154, 1e200, 10**200],
                             ids=["1e-170", "1e154", "1e200", "int-10**200"])
    def test_bandwidth_whose_divisor_underflows_or_overflows_refused(self, bandwidth):
        with pytest.raises(InvalidConfig, match=r"2 \* bandwidth\*\*2 underflows to 0 or overflows"):
            KernelSpec(bandwidth=bandwidth)

    @pytest.mark.parametrize("bandwidth", [1e-150, 1e150])
    def test_extreme_bandwidth_in_range_accepted(self, bandwidth):
        assert KernelSpec(bandwidth=bandwidth).bandwidth == bandwidth

    @pytest.mark.parametrize("field", ["bandwidth", "ridge"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_bandwidth_or_ridge_refused(self, field, value):
        with pytest.raises(NonFiniteValue, match="is not finite"):
            KernelSpec(**{field: value})

    @pytest.mark.parametrize("fit", [
        lambda data: fit_weights_kulsif(data, KernelSpec()),
        lambda data: fit_outcome_regression(data, method="kernel_ridge", spec=KernelSpec()),
    ], ids=["kulsif", "kernel_ridge"])
    def test_median_distance_bandwidth_is_checked(self, fit):
        # distances near 1e200 overflow to inf, and so does their median
        rng = np.random.default_rng(0)
        ds = dataset_from(rng.normal(size=(20, 2)) * 1e200, [1, -1] * 10, rng.normal(size=20), [1, 0] * 10)
        with pytest.raises(NonFiniteValue, match="median-distance bandwidth inf is not finite"):
            fit(ds)
        # the median distance 1.1e154 is finite, and so is its square, but not twice that
        x = np.tile([0.0, 0.0, 1.1e154, 1.1e154], 5)[:, None]
        ds = dataset_from(x, [1, -1] * 10, rng.normal(size=20), [1, 0] * 10)
        with pytest.raises(InvalidConfig, match="median-distance bandwidth .* is out of range"):
            fit(ds)


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

    def test_kernel_ridge_refuses_other_treatments(self):
        # only the -1 and +1 arms have a fit; any other treatment is refused
        data, _ = simulate_gaussian_shift(make_config(n=400, seed=7))
        model = fit_outcome_regression(data, method="kernel_ridge", spec=KernelSpec())
        x = data.x[:5]
        for a in (0, 0.5, np.nan, np.array([1, -1, 0, 1, -1])):
            with pytest.raises(InvalidConfig, match="treatments"):
                model.q(x, a)
        mixed = np.array([1, -1, 1, 1, -1])
        np.testing.assert_allclose(model.q(x, mixed), np.where(mixed == 1, model.q(x, 1),
                                                               model.q(x, -1)))
        # the linear model's a = 0 is its main effect, halfway between the arms
        linear = fit_outcome_regression(data, method="linear")
        np.testing.assert_allclose(linear.q(x, 0), 0.5 * (linear.q(x, 1) + linear.q(x, -1)))

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
        wm = fit_weights_aipsw(ds)
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


@pytest.mark.parametrize("cap", [1, None])
def test_newton_cap_is_reported_not_raised(monkeypatch, cap):
    """A logistic fit stopped by the iteration cap reports it in its info;
    uncapped, the same fits converge."""
    if cap is not None:
        monkeypatch.setattr(nuisance, "_NEWTON_MAX_ITER", cap)
    data, _ = simulate_gaussian_shift(make_config(n=400, seed=7))
    infos = [fit_weights_aipsw(data).info, *fit_propensity_logistic(data).info["strata"].values()]
    assert len(infos) == 3  # aipsw, then the propensity in s = 1 and s = 0
    for info in infos:
        assert info["converged"] is (cap is None)
        if cap is not None:
            assert info["iterations"] == cap


class TestKulsif:
    def test_hand_solved_one_by_one(self):
        ds = dataset_from(
            np.array([[1.0], [1.0]]), [1, np.nan], [0.5, np.nan], [1, 0], DatasetKind.TYPE2
        )
        wm1 = fit_weights_kulsif(ds, KernelSpec(family="rbf", bandwidth=1.0, ridge=1.0))
        assert wm1.evaluator.train.alpha[0] == pytest.approx(-0.5, abs=1e-12)
        assert wm1(ds.x[:1])[0] == pytest.approx(0.5, abs=1e-12)
        wm2 = fit_weights_kulsif(ds, KernelSpec(family="rbf", bandwidth=1.0, ridge=2.0))
        assert wm2.evaluator.train.alpha[0] == pytest.approx(-1.0 / 6.0, abs=1e-12)
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
        # off the training matrix the weight is a fresh kernel evaluation
        x_new = np.vstack([rng.standard_normal((7, 2)), x[n1:], x[:n1][::-1]])
        expected = _kernel_matrix("rbf", h, x_new, x) @ gamma
        np.testing.assert_allclose(wm.evaluator.raw(x_new), expected, atol=1e-10)

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
        k11 = _kernel_matrix(ev.train.family, ev.train.bandwidth, ev.train.anchors, ev.train.anchors)
        k01 = _kernel_matrix(ev.train.family, ev.train.bandwidth, ev.calib_x, ev.train.anchors)
        lhs = k11 / n1 + ev.lam * np.eye(n1)
        lin = k01.sum(axis=0) / (ev.lam * n0 * n1)

        def dual_objective(alpha):
            return 0.5 * alpha @ lhs @ alpha + lin @ alpha

        base = dual_objective(ev.train.alpha)
        for i in (0, 7, n1 - 1):
            for eps in (1e-3, -1e-3):
                perturbed = ev.train.alpha.copy()
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
        k11 = _kernel_matrix(ev.train.family, ev.train.bandwidth, ev.train.anchors, ev.train.anchors)
        k01 = _kernel_matrix(ev.train.family, ev.train.bandwidth, ev.calib_x, ev.train.anchors)
        expected = k11 @ ev.train.alpha + k01.sum(axis=0) / (ev.lam * n0)
        np.testing.assert_allclose(ev.raw(x[:n1]), expected, atol=1e-10)
        # the same identity through the kernel path, on rows that are not the
        # training matrix: its rows reversed, and one row moved by 1e-3
        np.testing.assert_allclose(ev.raw(x[:n1][::-1]), expected[::-1], atol=1e-10)
        moved = x[:n1].copy()
        moved[0, 0] += 1e-3
        k1 = _kernel_matrix(ev.train.family, ev.train.bandwidth, moved, ev.train.anchors)
        k0 = _kernel_matrix(ev.train.family, ev.train.bandwidth, moved, ev.calib_x)
        np.testing.assert_allclose(
            ev.raw(moved), k1 @ ev.train.alpha + k0.sum(axis=1) / (ev.lam * n0), atol=1e-10
        )

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
        assert wm.info["train_negative_truncated"] > 0
        # the truncation also holds on the kernel path, off the training matrix
        shuffled = x[:n1][::-1]
        assert (wm(shuffled) >= 0.0).all()
        assert int(np.sum(wm.evaluator.raw(shuffled) < 0)) == wm.info["train_negative_truncated"]

    def test_subnormal_ridge_raises_solve_failure(self):
        # lambda n0 n1 is subnormal, so the right-hand side overflows to inf:
        # refused by the solve, with no numpy overflow warning
        data, _ = simulate_gaussian_shift(make_config(n=200, seed=3))
        with pytest.raises(SolveFailure, match="right-hand side not finite"):
            fit_weights_kulsif(data, KernelSpec(ridge=5e-324))


def _fresh_kernel(family, bandwidth, x, rows):
    """K(x, rows) at a copy of x: the general product an evaluation at a
    dataset's own rows takes, never numpy's symmetric x @ x.T update."""
    return _kernel_matrix(family, bandwidth, x.copy(), rows)


class TestFitRowValues:
    """The dense-kernel fits keep K alpha at their own rows, from the fit's
    kernel matrix; with the rbf kernel, which uses it, it must equal a fresh
    kernel evaluation bit for bit."""

    @given(
        n=st.integers(50, 600),
        p=st.sampled_from([2, 5]),
        seed=st.integers(0, 2**32 - 1),
        family=st.sampled_from(["rbf", "linear"]),
        kind=st.sampled_from([DatasetKind.TYPE1, DatasetKind.TYPE2]),
    )
    @settings(max_examples=20, deadline=None)
    def test_stored_values_equal_fresh_evaluation(self, n, p, seed, family, kind):
        data, _ = simulate_gaussian_shift(make_config(p=p, mu=[0.5] * p, n=n, seed=seed))
        if kind is DatasetKind.TYPE2:
            data = data.as_type2()
        spec = KernelSpec(family=family)
        ev = fit_weights_kulsif(data, spec).evaluator
        x1 = data.x[data.s == 1]
        # the ridge systems factor the transpose of K(x, x), so it must be
        # symmetric bit for bit
        k11 = _kernel_matrix(family, ev.train.bandwidth, ev.train.anchors, ev.train.anchors)
        assert np.array_equal(k11, k11.T)
        k1_alpha = _fresh_kernel(family, ev.train.bandwidth, x1, ev.train.anchors) @ ev.train.alpha
        k0 = _fresh_kernel(family, ev.train.bandwidth, x1, ev.calib_x)
        fresh = k1_alpha + k0.sum(axis=1) / (ev.lam * ev.calib_x.shape[0])
        if family == "rbf":
            assert np.array_equal(ev.train.fitted, k1_alpha)
        assert np.array_equal(ev.raw(x1), fresh)

        q = fit_outcome_regression(data, method="kernel_ridge", spec=spec).evaluator
        obs = data.observed
        x, a = data.x[obs], data.a[obs]
        expected = np.empty(x.shape[0])
        for arm in (-1, 1):
            expansion = q.arms[arm]
            xa, alpha, fitted = expansion.anchors, expansion.alpha, expansion.fitted
            at_rows = _fresh_kernel(family, expansion.bandwidth, xa, xa) @ alpha
            if family == "rbf":
                assert np.array_equal(fitted, at_rows)
            expected[a == arm] = at_rows
        assert np.array_equal(q(x, a), expected)


class TestKernelExpansion:
    """Evaluated at exactly its anchors, an rbf expansion returns the fit's
    K alpha without a kernel build; anything else is a fresh evaluation."""

    @staticmethod
    def fit(family, monkeypatch):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((40, 3))
        expansion = nuisance._fit_expansion(
            family, 1.3, x, 1.0, 0.5, rng.standard_normal(40), "toy system"
        )
        built = []
        kernel_matrix = nuisance._kernel_matrix

        def spy(*args):
            built.append(args)
            return kernel_matrix(*args)

        monkeypatch.setattr(nuisance, "_kernel_matrix", spy)
        return expansion, built

    @pytest.mark.parametrize("family", ["rbf", "linear"])
    def test_copy_of_the_anchors(self, monkeypatch, family):
        expansion, built = self.fit(family, monkeypatch)
        values = expansion(expansion.anchors.copy())
        if family == "rbf":
            assert values is expansion.fitted
            assert built == []
        else:
            assert len(built) == 1
            np.testing.assert_allclose(values, expansion.fitted, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("family", ["rbf", "linear"])
    def test_permuted_anchors_build_a_fresh_kernel(self, monkeypatch, family):
        expansion, built = self.fit(family, monkeypatch)
        perm = np.random.default_rng(6).permutation(expansion.anchors.shape[0])
        values = expansion(expansion.anchors[perm])
        assert len(built) == 1
        np.testing.assert_allclose(values, expansion.fitted[perm], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("family", ["rbf", "linear"])
    def test_products_equal_numpy_bit_for_bit(self, family):
        """K alpha runs on scipy's BLAS and equals numpy's k @ v bit for bit,
        1-row products (a dot product in numpy) included."""
        rng = np.random.default_rng(7)
        for rows in (1, 2, 3, 7, 256, 2000):
            for cols in (1, 5, 973, 2022):
                k = _kernel_matrix(family, 1.3, rng.standard_normal((rows, 3)),
                                   rng.standard_normal((cols, 3)))
                v = rng.standard_normal(cols)
                assert np.array_equal(nuisance._kernel_matvec(k, v), k @ v), (rows, cols)
        for m in (1, 2, 40, 973):
            x = rng.standard_normal((m, 3))
            expansion = nuisance._fit_expansion(
                family, 1.3, x, 1.0, 0.5, rng.standard_normal(m), "toy system"
            )
            kmat = _kernel_matrix(family, 1.3, x, x)
            assert np.array_equal(expansion.fitted, kmat @ expansion.alpha), m


class TestKernelMemoryGuard:
    """A dense-kernel fit whose matrices would exceed the memory cap raises
    KernelTooLarge before it builds any kernel matrix."""

    @pytest.fixture
    def no_kernels(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a kernel matrix was built")

        monkeypatch.setattr(nuisance, "_kernel_matrix", refuse)

    def test_kulsif_refused_before_any_kernel(self, monkeypatch, no_kernels):
        data, _ = simulate_gaussian_shift(make_config(n=200, seed=3))
        n1, n0 = data.n1, data.n0
        # K(x0, x1), freed before K11 and the system's copy
        monkeypatch.setattr(nuisance, "_memory_cap", lambda: 8 * max(n0 * n1, 2 * n1**2) - 1)
        with pytest.raises(KernelTooLarge, match="KuLSIF"):
            fit_weights_kulsif(data, KernelSpec())

    def test_kernel_ridge_refused_before_any_kernel(self, monkeypatch, no_kernels):
        data, _ = simulate_gaussian_shift(make_config(n=200, seed=3))
        largest = max(np.sum(data.a == -1), np.sum(data.a == 1))
        monkeypatch.setattr(nuisance, "_memory_cap", lambda: 8 * 2 * int(largest) ** 2 - 1)
        with pytest.raises(KernelTooLarge, match="kernel ridge"):
            fit_outcome_regression(data, method="kernel_ridge", spec=KernelSpec())

    def test_fits_at_the_predicted_peak(self, monkeypatch):
        data, _ = simulate_gaussian_shift(make_config(n=200, seed=3))
        n1, n0 = data.n1, data.n0
        largest = int(max(np.sum(data.a == -1), np.sum(data.a == 1)))
        monkeypatch.setattr(nuisance, "_memory_cap", lambda: 8 * max(n0 * n1, 2 * n1**2, 2 * largest**2))
        fit_weights_kulsif(data, KernelSpec())
        fit_outcome_regression(data, method="kernel_ridge", spec=KernelSpec())


class TestMemoryCap:
    """The cap is the least headroom that can be read: physical memory, the
    cgroup memory limit less its usage and the soft RLIMIT_AS less the mapped
    address space. Readers are replaced or pointed at files written here;
    nothing is allocated or limited."""

    @pytest.mark.parametrize(
        "physical, cgroup, address_space, cap",
        [
            (8e9, np.inf, np.inf, 8e9),
            (8e9, 2e9, np.inf, 2e9),
            (8e9, np.inf, 3e9, 3e9),
            (8e9, 4e9, 1e9, 1e9),
            (8e9, 2**63 - 4096, np.inf, 8e9),
            (np.inf, np.inf, np.inf, np.inf),
        ],
    )
    def test_cap_is_the_least_limit(self, monkeypatch, physical, cgroup, address_space, cap):
        monkeypatch.setattr(nuisance, "_physical_memory", lambda: physical)
        monkeypatch.setattr(nuisance, "_cgroup_headroom", lambda: cgroup)
        monkeypatch.setattr(nuisance, "_address_space_headroom", lambda: address_space)
        assert nuisance._memory_cap() == cap

    @staticmethod
    def cgroup_tree(tmp_path, membership, files):
        (tmp_path / "cgroup").write_text(membership)
        for path, value in files.items():
            target = tmp_path / "fs" / path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(value + "\n")
        return str(tmp_path / "cgroup"), str(tmp_path / "fs")

    @pytest.mark.parametrize(
        "membership, files, limit",
        [
            # v2: the least limit on the path, "max" sets none
            ("0::/a/b\n", {"a/b/memory.max": "max", "a/memory.max": "1073741824"}, 2**30),
            ("0::/a/b\n", {"a/b/memory.max": "4096", "a/memory.max": "8192"}, 4096),
            # v2 in a cgroup namespace whose own path is not visible: the root file
            ("0::/not/mounted\n", {"memory.max": "2048"}, 2048),
            ("0::/\n", {"memory.max": "max"}, np.inf),
            # v1 memory controller beside others; an unlimited v1 group reads huge
            (
                "4:memory:/x\n3:cpu,cpuacct:/\n0::/\n",
                {"memory/x/memory.limit_in_bytes": "9223372036854771712"},
                9223372036854771712,
            ),
            (
                "4:memory:/x\n",
                {"memory/x/memory.limit_in_bytes": "9223372036854771712",
                 "memory/memory.limit_in_bytes": "5000"},
                5000,
            ),
            ("3:cpu:/\n", {"memory.max": "10"}, np.inf),
            ("", {}, np.inf),
            # each level's working set (usage less inactive file cache) is
            # taken from its limit; it is 0 when either value is unreadable
            ("0::/a/b\n", {"a/b/memory.max": "4096", "a/b/memory.current": "1000",
                           "a/b/memory.stat": "anon 900\ninactive_file 0\n",
                           "a/memory.max": "8192", "a/memory.current": "7000",
                           "a/memory.stat": "active_file 5000\ninactive_file 1000\n"}, 2192),
            ("0::/a\n", {"a/memory.max": "4096", "a/memory.current": "x",
                         "a/memory.stat": "inactive_file 0",
                         "memory.current": "4000", "memory.stat": "inactive_file 0"}, 4096),
            ("0::/a\n", {"a/memory.max": "4096", "a/memory.current": "4000"}, 4096),
            ("0::/a\n", {"a/memory.max": "4096", "a/memory.current": "4000",
                         "a/memory.stat": "inactive_file x\n"}, 4096),
            # cache above usage leaves the whole limit, never more
            ("0::/a\n", {"a/memory.max": "4096", "a/memory.current": "100",
                         "a/memory.stat": "inactive_file 300\n"}, 4096),
            # v1 reads the hierarchical total_inactive_file, not inactive_file
            ("4:memory:/x\n", {"memory/x/memory.limit_in_bytes": "5000",
                               "memory/x/memory.usage_in_bytes": "3000",
                               "memory/x/memory.stat": "inactive_file 2500\n"
                                                       "total_inactive_file 500\n"}, 2500),
        ],
    )
    def test_cgroup_reader(self, tmp_path, membership, files, limit):
        proc, root = self.cgroup_tree(tmp_path, membership, files)
        assert nuisance._cgroup_headroom(proc, root) == limit

    def test_cgroup_reader_without_files(self, tmp_path):
        missing = str(tmp_path / "absent")
        assert nuisance._cgroup_headroom(missing, missing) == np.inf

    @pytest.mark.parametrize(
        "soft, statm, headroom",
        [
            (10**9, "1000 200 30 4 0 50 0\n", 10**9 - 1000 * 4096),
            (10**9, "", 10**9),  # an unreadable size counts as 0
            (None, "1000 200 30 4 0 50 0\n", np.inf),  # unlimited
        ],
    )
    def test_address_space_reader(self, tmp_path, monkeypatch, soft, statm, headroom):
        import resource

        soft = resource.RLIM_INFINITY if soft is None else soft
        monkeypatch.setattr(resource, "getrlimit", lambda which: (soft, resource.RLIM_INFINITY))
        monkeypatch.setattr(resource, "getpagesize", lambda: 4096)
        (tmp_path / "statm").write_text(statm)
        assert nuisance._address_space_headroom(str(tmp_path / "statm")) == headroom

    def test_cgroup_limit_refuses_a_kernel(self, tmp_path, monkeypatch):
        proc, root = self.cgroup_tree(
            tmp_path,
            "0::/job\n",
            {"job/memory.max": "3000000", "job/memory.current": "2000000",
             "job/memory.stat": "anon 1900000\ninactive_file 0\n"},
        )
        real = nuisance._cgroup_headroom
        monkeypatch.setattr(nuisance, "_cgroup_headroom", lambda: real(proc, root))
        data, _ = simulate_gaussian_shift(make_config(n=1000, seed=3))
        with pytest.raises(KernelTooLarge, match=r"MiB of dense kernel matrices, more than the 1\.0 MiB headroom"):
            fit_weights_kulsif(data, KernelSpec())

    def test_cgroup_file_cache_leaves_room_for_a_kernel(self, tmp_path, monkeypatch):
        # usage at the limit, nearly all of it inactive file cache the kernel
        # reclaims under pressure: a small kernel fit still runs
        proc, root = self.cgroup_tree(
            tmp_path,
            "0::/job\n",
            {"job/memory.max": "1073741824", "job/memory.current": "1073741824",
             "job/memory.stat": "anon 52428800\nactive_file 1048576\ninactive_file 1020264448\n"},
        )
        real = nuisance._cgroup_headroom
        monkeypatch.setattr(nuisance, "_cgroup_headroom", lambda: real(proc, root))
        assert nuisance._cgroup_headroom() == 1020264448
        data, _ = simulate_gaussian_shift(make_config(n=400, seed=3))
        fit_weights_kulsif(data, KernelSpec())


class TestEntropyBalancing:
    def test_symmetric_two_points(self):
        x = np.array([[-1.0], [1.0], [0.0], [0.0]])
        ds = dataset_from(x, [1, -1, np.nan, np.nan], [0.0, 0.0, np.nan, np.nan], [1, 1, 0, 0], DatasetKind.TYPE2)
        wm = fit_weights_entropy_balancing(ds)
        np.testing.assert_allclose(wm(x[:2]) / ds.n1, [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(wm.info["lambda"], [0.0], atol=1e-10)

    def test_two_point_interior_moment(self):
        x = np.array([[0.0], [1.0], [0.5], [0.5]])
        ds = dataset_from(x, [1, -1, np.nan, np.nan], [0.0, 0.0, np.nan, np.nan], [1, 1, 0, 0], DatasetKind.TYPE2)
        wm = fit_weights_entropy_balancing(ds)
        np.testing.assert_allclose(wm(x[:2]) / ds.n1, [0.5, 0.5], atol=1e-10)

    def test_moment_outside_hull(self):
        x = np.array([[0.0], [1.0], [1.5], [1.5]])
        ds = dataset_from(x, [1, -1, np.nan, np.nan], [0.0, 0.0, np.nan, np.nan], [1, 1, 0, 0], DatasetKind.TYPE2)
        with pytest.raises(InfeasibleBalance) as err:
            fit_weights_entropy_balancing(ds)
        assert err.value.coordinate == "x_1"

    def test_diverging_dual_is_infeasible_without_warning(self):
        # the calibration mean lies inside each coordinate's training range
        # but outside the convex hull of the three training rows: lambda
        # diverges until its norm overflows
        x = np.array([[1.3087, -1.5063], [-1.5437, 0.4960], [0.3750, -0.8111],
                      [-0.1877, -0.3653]])
        ds = dataset_from(x, [1, -1, 1, np.nan], [0.5, 1.0, -0.5, np.nan], [1, 1, 1, 0],
                          DatasetKind.TYPE2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InfeasibleBalance, match="convex hull") as err:
                fit_weights_entropy_balancing(ds)
        assert err.value.coordinate == "x_1"

    def test_weights_positive_normalized_balanced(self):
        data, _ = simulate_gaussian_shift(make_config(n=500, seed=61))
        wm = fit_weights_entropy_balancing(data)
        x1, x0 = data.x[data.s == 1], data.x[data.s == 0]
        w = wm(x1) / data.n1
        assert (w > 0).all()
        assert np.sum(w) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(x1.T @ w - x0.mean(0))) <= 1e-8
        assert wm.info["instrument_names"] == ["const", "x_1", "x_2"]

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(200, 2000),
        mu=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    )
    @settings(max_examples=30, deadline=None)
    def test_balanced_or_infeasible_property(self, seed, n, mu):
        data, _ = simulate_gaussian_shift(make_config(mu=mu, n=n, seed=seed))
        x1 = data.x[data.s == 1]
        calib_mean = data.x[data.s == 0].mean(axis=0)
        if np.any((calib_mean < x1.min(axis=0)) | (calib_mean > x1.max(axis=0))):
            with pytest.raises(InfeasibleBalance):
                fit_weights_entropy_balancing(data)
            return
        wm = fit_weights_entropy_balancing(data)
        w = wm(x1) / data.n1
        assert np.sum(w) == pytest.approx(1.0, abs=1e-12)
        assert wm.info["max_balance_residual"] <= 1e-8
        residual = np.max(np.abs([*(x1.T @ w - calib_mean), w.sum() - 1]))
        assert residual == pytest.approx(wm.info["max_balance_residual"], abs=1e-8)

    def test_entropy_minimality(self):
        data, _ = simulate_gaussian_shift(make_config(mu=(0.2, 0.2), n=400, seed=0))
        wm = fit_weights_entropy_balancing(data)
        x1 = data.x[data.s == 1]
        w = wm(x1) / data.n1
        achieved = np.sum(w * np.log(w))

        # richer constraint set [1, x, x1^2] is feasible for the base constraints
        augmented = PooledDataset.from_arrays(
            np.column_stack([data.x, data.x[:, 0] ** 2]), data.a, data.y, data.s, data.kind
        )
        wr_model = fit_weights_entropy_balancing(augmented)
        wr = wr_model(augmented.x[augmented.s == 1]) / data.n1
        assert wr_model.info["instrument_names"] == ["const", "x_1", "x_2", "x_3"]
        assert achieved <= np.sum(wr * np.log(wr)) + 1e-12

        # least-squares projection of the uniform vector onto the constraints
        g1 = np.column_stack([np.ones(x1.shape[0]), x1]).T  # (m, n1) incl. constant row
        target = np.array([1.0, *data.x[data.s == 0].mean(axis=0)])
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
            wm = fit_weights_entropy_balancing(data)
            tilts.append(wm.info["tilt"])
            x1 = data.x[data.s == 1]
            dev = np.abs(wm(x1) - true_weight_gaussian(x1, mu))
            assert dev.mean() < 0.05
        tilts = np.array(tilts)
        se = tilts.std(axis=0, ddof=1) / np.sqrt(len(tilts))
        assert np.all(np.abs(tilts.mean(axis=0) - eta) <= 3 * se)
