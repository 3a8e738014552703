import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shifteval import (
    DatasetKind,
    Estimand,
    FitRecipe,
    FoldAssignment,
    FunctionPolicy,
    PooledDataset,
    constant_policy,
    estimate_efficient,
    LinearPolicy,
    SimulationConfig,
    read_dataset_csv,
    simulate_gaussian_shift,
    split_cross_fit_folds,
    true_weight_gaussian,
    write_dataset_csv,
)
from shifteval.errors import (
    DimensionMismatch,
    EmptyStratum,
    InvalidConfig,
    MissingnessMismatch,
    NonFiniteValue,
    StratumTooSmall,
)

from conftest import make_config


def from_rows(x, a, y, s, kind):
    """A dataset from per-row values; None marks a missing (a, y)."""
    a, y = ([np.nan if v is None else v for v in column] for column in (a, y))
    return PooledDataset.from_arrays(np.reshape(x, (len(s), -1)), a, y, s, kind)


class TestFromArrays:
    def test_minimal_type1(self):
        ds = from_rows([0.0, 1.0, 2.0, 3.0], [1, -1, 1, -1], [1.0, 0.0, 2.0, 1.0], [1, 1, 0, 0], DatasetKind.TYPE1)
        assert (ds.n1, ds.n0) == (2, 2)
        assert ds.kind is DatasetKind.TYPE1

    def test_minimal_type2(self):
        ds = from_rows([0.0, 1.0], [1, None], [1.0, None], [1, 0], DatasetKind.TYPE2)
        assert (ds.n1, ds.n0) == (1, 1)

    def test_empty_stratum(self):
        with pytest.raises(EmptyStratum):
            from_rows([0.0, 1.0], [1, -1], [1.0, 0.0], [1, 1], DatasetKind.TYPE1)

    def test_type2_with_observed_calibration_rejected(self):
        with pytest.raises(MissingnessMismatch):
            from_rows([0.0, 1.0], [1, 1], [1.0, 1.0], [1, 0], DatasetKind.TYPE2)

    def test_type1_with_missing_calibration_rejected(self):
        with pytest.raises(MissingnessMismatch):
            from_rows([0.0, 1.0], [1, None], [1.0, None], [1, 0], DatasetKind.TYPE1)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            PooledDataset.from_arrays(np.zeros((2, 1)), [1.0], [1.0, np.nan], [1, 0], DatasetKind.TYPE2)

    @pytest.mark.parametrize("x, a, y, s, kind, error, message", [
        (np.zeros((2, 1, 1)), [1, 1], [1.0, 1.0], [1, 0], DatasetKind.TYPE1,
         DimensionMismatch, "must be 2-dimensional"),
        ([[0.0], [np.inf]], [1, 1], [1.0, 1.0], [1, 0], DatasetKind.TYPE1,
         DimensionMismatch, "missing coordinates"),
        ([[0.0], [1.0]], [1, 1], [1.0, 1.0], [1, 2], DatasetKind.TYPE1,
         InvalidConfig, "selection indicator"),
        ([[0.0], [1.0]], [1, 1], [1.0, np.nan], [1, 0], DatasetKind.TYPE1,
         MissingnessMismatch, "missing together"),
        ([[0.0], [1.0]], [1, 0], [1.0, 1.0], [1, 0], DatasetKind.TYPE1,
         InvalidConfig, "observed treatments"),
        ([[0.0], [1.0]], [1, 1], [1.0, np.inf], [1, 0], DatasetKind.TYPE1,
         MissingnessMismatch, "observed outcomes must be finite"),
        ([[0.0], [1.0]], [np.nan, np.nan], [np.nan, np.nan], [1, 0], DatasetKind.TYPE2,
         MissingnessMismatch, "training rows"),
    ], ids=["3-d-x", "non-finite-x", "s-not-binary", "a-without-y", "a-not-pm1",
            "non-finite-y", "training-row-unobserved"])
    def test_bad_arrays_refused(self, x, a, y, s, kind, error, message):
        with pytest.raises(error, match=message):
            PooledDataset.from_arrays(x, a, y, s, kind)


class TestDerivedDatasets:
    """``as_type2`` and ``subset`` build on values checked when the source
    dataset was built, and check only the stratum sizes again."""

    def test_no_revalidation_in_type2_view_or_cross_fit(self, monkeypatch, policy):
        data, _ = simulate_gaussian_shift(make_config(n=300, seed=41))
        folds = split_cross_fit_folds(data, 5, seed=41)
        calls = []
        real = PooledDataset.from_arrays
        monkeypatch.setattr(PooledDataset, "from_arrays",
                            classmethod(lambda cls, *args: calls.append(args) or real(*args)))
        type2 = data.as_type2()
        recipe = FitRecipe(weights="aipsw", propensity="logistic", outcome="linear")
        for kind in DatasetKind:
            estimate_efficient(data, recipe, policy, Estimand.VALUE, kind=kind, folds=folds)
        assert calls == []
        monkeypatch.undo()
        mask = folds.bag_of != 1
        for derived, (x, a, y, s, kind) in (
            (type2, (data.x, type2.a, type2.y, data.s, DatasetKind.TYPE2)),
            (data.subset(mask), (data.x[mask], data.a[mask], data.y[mask], data.s[mask], data.kind)),
        ):
            checked = PooledDataset.from_arrays(x, a, y, s, kind)
            for name in ("x", "a", "y", "s", "observed"):
                got, want = getattr(derived, name), getattr(checked, name)
                assert got.dtype == want.dtype and np.array_equal(got, want, equal_nan=True)
            assert (derived.kind, derived.n1, derived.n0) == (kind, checked.n1, checked.n0)

    def test_subset_emptying_a_stratum_raises(self):
        data, _ = simulate_gaussian_shift(make_config(n=60, seed=42))
        with pytest.raises(EmptyStratum, match="both strata must be non-empty"):
            data.subset(data.s == 1)


class TestTrueWeight:
    def test_zero_shift(self):
        assert true_weight_gaussian(np.array([3.0, -1.0]), np.zeros(2)) == 1.0

    def test_cancelling_exponent(self):
        assert true_weight_gaussian(np.array([0.5, 7.0]), np.array([1.0, 0.0])) == pytest.approx(1.0, abs=1e-15)

    def test_closed_form_at_origin(self):
        w = true_weight_gaussian(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
        assert w == pytest.approx(np.exp(0.5), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            true_weight_gaussian(np.zeros(3), np.zeros(2))


class TestSimulate:
    def test_no_shift_oracle_weight_is_one(self):
        data, oracle = simulate_gaussian_shift(make_config(mu=(0.0, 0.0), n=50, seed=1))
        np.testing.assert_array_equal(oracle.weight(data.x), np.ones(data.n))

    def test_zero_model_gives_zero_outcomes(self):
        cfg = make_config(outcome_coeffs=np.zeros(6), noise_sd=0.0, n=40, seed=2)
        data, _ = simulate_gaussian_shift(cfg)
        np.testing.assert_array_equal(data.y, np.zeros(data.n))

    def test_deterministic(self):
        cfg = make_config(n=200, seed=99)
        d1, _ = simulate_gaussian_shift(cfg)
        d2, _ = simulate_gaussian_shift(cfg)
        assert np.array_equal(d1.x, d2.x)
        assert np.array_equal(d1.a, d2.a)
        assert np.array_equal(d1.y, d2.y)
        assert np.array_equal(d1.s, d2.s)

    def test_selection_fraction_matches_rho(self):
        cfg = make_config(n=10_000, rho_s=0.4, seed=3)
        data, _ = simulate_gaussian_shift(cfg)
        se = np.sqrt(0.4 * 0.6 / 10_000)
        assert abs(data.n1 / data.n - 0.4) <= 3 * se

    def test_training_mean_weight_near_one(self):
        cfg = make_config(n=20_000, seed=5)
        data, oracle = simulate_gaussian_shift(cfg)
        w = oracle.weight(data.x[data.s == 1])
        assert abs(w.mean() - 1.0) <= 3 * w.std(ddof=1) / np.sqrt(w.shape[0])

    def test_invalid_configs(self):
        with pytest.raises(InvalidConfig):
            make_config(rho_s=1.2)
        with pytest.raises(InvalidConfig):
            make_config(noise_sd=-1.0)
        with pytest.raises(InvalidConfig):
            make_config(propensity=0.0)
        with pytest.raises(InvalidConfig):
            make_config(outcome_coeffs=np.zeros(5))
        with pytest.raises(InvalidConfig):
            make_config(mu=(0.5,))
        with pytest.raises(InvalidConfig, match="n must be at least 2"):
            make_config(n=1)
        with pytest.raises(InvalidConfig, match="seed must be a non-negative integer"):
            make_config(seed=-1)

    def test_config_json_round_trip(self):
        cfg = make_config(seed=17)
        again = SimulationConfig.from_json_dict(cfg.to_json_dict())
        assert again.to_json_dict() == cfg.to_json_dict()

    def test_integral_float_reads_as_int(self):
        d = make_config(seed=17).to_json_dict() | {"n": 300.0, "seed": 5.0}
        cfg = SimulationConfig.from_json_dict(d)
        assert (cfg.n, cfg.seed) == (300, 5) and type(cfg.n) is int

    @pytest.mark.parametrize("key, value", [
        ("seed", True), ("n", False), ("p", "2"), ("rho_s", "0.5"), ("noise_sd", None),
        ("mu", ["0.5", "0.5"]), ("mu", [True, 0.5]), ("mu", 0.5), ("outcome_coeffs", "1"),
        ("seed", 10**400),
    ])
    def test_json_booleans_and_strings_are_not_numbers(self, key, value):
        d = make_config(seed=17).to_json_dict() | {key: value}
        with pytest.raises(InvalidConfig, match=key):
            SimulationConfig.from_json_dict(d)

    @pytest.mark.parametrize("d", [None, 3, [1, 2], {"p": 2}])
    def test_non_object_or_incomplete_config_is_invalid(self, d):
        with pytest.raises(InvalidConfig):
            SimulationConfig.from_json_dict(d)


class TestFolds:
    def test_even_split(self):
        data, _ = simulate_gaussian_shift(make_config(n=60, seed=11))
        folds = split_cross_fit_folds(data, 2, seed=0)
        for stratum in (1, 0):
            sizes = [np.sum((folds.bag_of == k) & (data.s == stratum)) for k in (1, 2)]
            assert max(sizes) - min(sizes) <= 1

    def test_exact_divisibility_and_remainders(self):
        x = np.arange(8.0)[:, None]
        ds = PooledDataset.from_arrays(x, [1] * 8, [0.0] * 8, [1, 1, 1, 1, 0, 0, 0, 0], DatasetKind.TYPE1)
        folds = split_cross_fit_folds(ds, 2, seed=1)
        for stratum in (1, 0):
            sizes = sorted(int(np.sum((folds.bag_of == k) & (ds.s == stratum))) for k in (1, 2))
            assert sizes == [2, 2]
        ds2 = PooledDataset.from_arrays(x, [1] * 8, [0.0] * 8, [1, 1, 1, 1, 1, 0, 0, 0], DatasetKind.TYPE1)
        folds2 = split_cross_fit_folds(ds2, 2, seed=1)
        train_sizes = sorted(int(np.sum((folds2.bag_of == k) & (ds2.s == 1))) for k in (1, 2))
        calib_sizes = sorted(int(np.sum((folds2.bag_of == k) & (ds2.s == 0))) for k in (1, 2))
        assert train_sizes == [2, 3]
        assert calib_sizes == [1, 2]

    @pytest.mark.parametrize("k, bag_of, message", [
        (1, [1, 1], "number of bags must be >= 2"),
        (2, [1, 3], "bag indices must lie in 1..k"),
        (2, [0, 1], "bag indices must lie in 1..k"),
    ])
    def test_bad_assignment_refused(self, k, bag_of, message):
        with pytest.raises(InvalidConfig, match=message):
            FoldAssignment(k=k, bag_of=bag_of)

    def test_stratum_too_small(self):
        data, _ = simulate_gaussian_shift(make_config(n=20, seed=12))
        with pytest.raises(StratumTooSmall):
            split_cross_fit_folds(data, min(data.n1, data.n0) + 1, seed=0)

    def test_deterministic(self):
        data, _ = simulate_gaussian_shift(make_config(n=100, seed=13))
        f1 = split_cross_fit_folds(data, 5, seed=42)
        f2 = split_cross_fit_folds(data, 5, seed=42)
        assert np.array_equal(f1.bag_of, f2.bag_of)

    @given(st.integers(2, 6), st.integers(0, 5000))
    @settings(max_examples=30, deadline=None)
    def test_partition_property(self, k, seed):
        data, _ = simulate_gaussian_shift(make_config(n=25 + 7 * k, seed=seed % 97))
        if min(data.n1, data.n0) < k:
            return
        folds = split_cross_fit_folds(data, k, seed=seed)
        assert folds.bag_of.shape == (data.n,)
        assert set(np.unique(folds.bag_of)) <= set(range(1, k + 1))
        for stratum in (1, 0):
            sizes = [np.sum((folds.bag_of == b) & (data.s == stratum)) for b in range(1, k + 1)]
            assert max(sizes) - min(sizes) <= 1


class TestCsv:
    def test_round_trip_type1_bitwise(self, tmp_path):
        data, _ = simulate_gaussian_shift(make_config(n=80, seed=21))
        path = tmp_path / "d.csv"
        write_dataset_csv(data, path)
        again = read_dataset_csv(path)
        assert again.kind is DatasetKind.TYPE1
        assert np.array_equal(again.x, data.x)
        assert np.array_equal(again.a, data.a)
        assert np.array_equal(again.y, data.y)
        assert np.array_equal(again.s, data.s)

    def test_round_trip_type2(self, tmp_path):
        data, _ = simulate_gaussian_shift(make_config(n=80, seed=22))
        masked = data.as_type2()
        path = tmp_path / "d.csv"
        write_dataset_csv(masked, path)
        again = read_dataset_csv(path)
        assert again.kind is DatasetKind.TYPE2
        assert np.array_equal(again.x, masked.x)
        calib = again.s == 0
        assert np.isnan(again.a[calib]).all() and np.isnan(again.y[calib]).all()

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("u,v,w\n1,2,3\n")
        with pytest.raises(InvalidConfig):
            read_dataset_csv(path)

    def test_half_missing_cell_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x_1,a,y,s\n0.0,1,1.0,1\n1.0,,2.0,0\n")
        with pytest.raises(MissingnessMismatch):
            read_dataset_csv(path)


class TestPolicy:
    def test_sign_zero_is_plus_one(self):
        pol = LinearPolicy(0.0, np.array([1.0]))
        assert pol(np.zeros(1)) == 1

    @pytest.mark.parametrize(
        "intercept, coeffs, field",
        [(np.nan, [1.0, 1.0], "intercept"), (0.0, [1.0, np.inf], "coeffs"),
         (-np.inf, [1.0, 1.0], "intercept")],
    )
    def test_non_finite_rule_refused(self, intercept, coeffs, field):
        with pytest.raises(NonFiniteValue, match=field):
            LinearPolicy(intercept, coeffs)

    def test_constant_policy(self):
        pol = constant_policy(-1, 2)
        assert np.array_equal(pol(np.random.default_rng(0).normal(size=(5, 2))), -np.ones(5))
        with pytest.raises(InvalidConfig, match="sign must be"):
            constant_policy(0, 2)

    @pytest.mark.parametrize("pol", [
        LinearPolicy(0.2, np.array([1.0, -1.0])),
        FunctionPolicy(lambda x: np.where(x[:, 0] >= 0.2 - x[:, 1], 1, -1)),
    ], ids=["linear", "function"])
    def test_decisions_are_float_and_a_single_row_an_int(self, pol):
        x = np.random.default_rng(2).normal(size=(20, 2))
        d = pol(x)
        assert d.dtype == np.float64
        assert set(d.tolist()) == {1.0, -1.0}
        assert [pol(row) for row in x] == d.astype(int).tolist()
        assert all(type(pol(row)) is int for row in x)

    def test_deterministic(self):
        pol = LinearPolicy(0.3, np.array([1.0, -2.0]))
        x = np.random.default_rng(1).normal(size=(10, 2))
        assert np.array_equal(pol(x), pol(x))
