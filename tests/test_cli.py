import contextlib
import copy
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shifteval import (
    Estimand,
    LinearPolicy,
    PooledDataset,
    estimate_efficient,
    read_dataset_csv,
    simulate_gaussian_shift,
    write_dataset_csv,
)
from shifteval import cli, estimators, montecarlo
from shifteval.cli import main
from shifteval.errors import InvalidConfig, NonFiniteValue
from shifteval.data_model import true_weight_gaussian

from conftest import make_config

FIXTURES = Path(__file__).parent / "fixtures"
EXAMPLES = Path(__file__).parent.parent / "examples"
# estimator names of each example Monte Carlo config
EXAMPLE_ESTIMATORS = {
    "small_calibration.json": ["theta_type2", "theta1_type1", "theta1_type2"],
    "variance_study.json": ["theta_type1", "theta_type2", "theta1_type1", "theta1_type2"],
}
SCHEMAS = Path(__file__).parent.parent / "src" / "shifteval" / "schemas"


def load_schema(name):
    return json.loads((SCHEMAS / f"{name}.schema.json").read_text())


def sim_config_dict(**kw):
    cfg = make_config(**kw)
    return cfg.to_json_dict()


def write_json(path, payload):
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


POLICY = {"type": "linear", "intercept": 0.2, "coeffs": [1.0, -1.0]}


def no_work_before_out(*args, **kwargs):
    raise AssertionError("work started before --out was checked")


class TestSimulate:
    def test_outputs_and_truth_weight(self, tmp_path):
        config = write_json(tmp_path / "sim.json", sim_config_dict(mu=(0.0, 0.0), n=60, seed=5))
        out = tmp_path / "out"
        assert main(["simulate", "--config", config, "--out", str(out)]) == 0
        data = read_dataset_csv(out / "dataset.csv")
        assert data.n == 60
        truth = json.loads((out / "truth.json").read_text())
        jsonschema.validate(truth, load_schema("truth"))
        # truth records the weight function; with mu = 0 it is identically 1
        mu = np.asarray(truth["weight_form"]["mu"])
        assert np.all(true_weight_gaussian(np.random.default_rng(0).normal(size=(8, 2)), mu) == 1.0)

    def test_type2_masking(self, tmp_path):
        config = write_json(tmp_path / "sim.json", sim_config_dict(n=40, seed=6))
        out = tmp_path / "out"
        assert main(["simulate", "--config", config, "--out", str(out), "--kind", "type2"]) == 0
        data = read_dataset_csv(out / "dataset.csv")
        assert np.isnan(data.a[data.s == 0]).all()

    def test_seed_override(self, tmp_path):
        config = write_json(tmp_path / "sim.json", sim_config_dict(n=40, seed=7))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", config, "--out", str(out1)])
        main(["simulate", "--config", config, "--out", str(out2), "--seed", "123"])
        d1 = read_dataset_csv(out1 / "dataset.csv")
        d2 = read_dataset_csv(out2 / "dataset.csv")
        assert not np.array_equal(d1.x, d2.x)


class TestEstimate:
    def test_toy_fixture_estimate_is_exactly_two(self, tmp_path):
        config = write_json(
            tmp_path / "est.json",
            {
                "dataset": str(FIXTURES / "type2_toy.csv"),
                "estimand": "theta",
                "policy": {"type": "linear", "intercept": 1.0, "coeffs": [0.0]},
                "weights": "oracle",
                "propensity": "oracle",
                "outcome": "oracle",
                "truth": str(FIXTURES / "type2_toy_truth.json"),
            },
        )
        out = tmp_path / "out"
        assert main(["estimate", "--config", config, "--out", str(out)]) == 0
        report = json.loads((out / "estimate_report.json").read_text())
        jsonschema.validate(report, load_schema("estimate_report"))
        assert report["estimate"] == 2.0
        assert report["kind"] == "type2"
        assert any("pi_A" in note for note in report["notes"])

    def test_round_trip_matches_in_process(self, tmp_path):
        sim_cfg = write_json(tmp_path / "sim.json", sim_config_dict(n=400, seed=8))
        sim_out = tmp_path / "sim"
        main(["simulate", "--config", sim_cfg, "--out", str(sim_out)])
        est_cfg = write_json(
            tmp_path / "est.json",
            {
                "dataset": str(sim_out / "dataset.csv"),
                "estimand": "theta",
                "policy": POLICY,
                "weights": "oracle",
                "propensity": "oracle",
                "outcome": "oracle",
                "truth": str(sim_out / "truth.json"),
            },
        )
        est_out = tmp_path / "est"
        assert main(["estimate", "--config", est_cfg, "--out", str(est_out)]) == 0
        report = json.loads((est_out / "estimate_report.json").read_text())

        cfg = make_config(n=400, seed=8)
        data, oracle = simulate_gaussian_shift(cfg)
        ref = estimate_efficient(
            data, oracle, LinearPolicy(0.2, np.array([1.0, -1.0])), Estimand.VALUE
        )
        assert report["estimate"] == ref.estimate
        assert report["se"] == ref.se

    def test_fitted_weights_and_crossfit_flags(self, tmp_path):
        sim_cfg = write_json(tmp_path / "sim.json", sim_config_dict(n=600, seed=9))
        sim_out = tmp_path / "sim"
        main(["simulate", "--config", sim_cfg, "--out", str(sim_out)])
        est_cfg = write_json(
            tmp_path / "est.json",
            {
                "dataset": str(sim_out / "dataset.csv"),
                "estimand": "theta",
                "policy": POLICY,
                "weights": "oracle",
                "propensity": "logistic",
                "outcome": "linear",
                "truth": str(sim_out / "truth.json"),
                "seed": 3,
            },
        )
        out = tmp_path / "est"
        code = main(
            ["estimate", "--config", est_cfg, "--out", str(out),
             "--weights", "aipsw", "--variant", "theta1", "--kind", "type2", "--crossfit", "3"]
        )
        assert code == 0
        report = json.loads((out / "estimate_report.json").read_text())
        jsonschema.validate(report, load_schema("estimate_report"))
        assert report["estimand"] == "theta1"
        assert report["kind"] == "type2"
        assert report["method"] == "crossfit"
        assert report["nuisance"]["weights"] == "aipsw"

    def test_bitwise_reproducible(self, tmp_path):
        sim_cfg = write_json(tmp_path / "sim.json", sim_config_dict(n=200, seed=10))
        sim_out = tmp_path / "sim"
        main(["simulate", "--config", sim_cfg, "--out", str(sim_out)])
        est_cfg = write_json(
            tmp_path / "est.json",
            {
                "dataset": str(sim_out / "dataset.csv"),
                "estimand": "theta",
                "policy": POLICY,
                "weights": "aipsw",
                "propensity": "logistic",
                "outcome": "linear",
            },
        )
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["estimate", "--config", est_cfg, "--out", str(out1)])
        main(["estimate", "--config", est_cfg, "--out", str(out2)])
        assert (out1 / "estimate_report.json").read_bytes() == (out2 / "estimate_report.json").read_bytes()


    def test_kernel_ridge_without_kernel_block(self, tmp_path):
        sim_out = simulate_to(tmp_path)
        est_cfg = write_json(
            tmp_path / "est.json",
            {
                "dataset": str(sim_out / "dataset.csv"),
                "policy": POLICY,
                "weights": "kulsif",
                "propensity": "logistic",
                "outcome": "kernel_ridge",
            },
        )
        assert main(["estimate", "--config", est_cfg, "--out", str(tmp_path / "est")]) == 0
        report = json.loads((tmp_path / "est" / "estimate_report.json").read_text())
        assert report["nuisance"]["outcome"] == "kernel_ridge"


class TestReportSchema:
    """The ``nuisance`` block of ``estimate_report.schema.json``."""

    @pytest.fixture(scope="class")
    def reports(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("schema")
        sim_out = simulate_to(tmp_path)
        out = {}
        for crossfit in (0, 2):
            config = write_json(tmp_path / f"est{crossfit}.json", {
                "dataset": str(sim_out / "dataset.csv"), "policy": POLICY, "crossfit": crossfit,
                "weights": "eb", "propensity": "logistic", "outcome": "linear",
            })
            assert main(["estimate", "--config", config, "--out", str(tmp_path / str(crossfit))]) == 0
            report = json.loads((tmp_path / str(crossfit) / "estimate_report.json").read_text())
            out["crossfit" if crossfit else "efficient"] = report
        return out

    def test_backend_names_are_those_of_the_estimators(self):
        definitions = load_schema("estimate_report")["definitions"]
        assert {c: tuple(definitions[c]["enum"]) for c in estimators.BACKENDS} == estimators.BACKENDS

    def test_reports_validate(self, reports):
        for report in reports.values():
            jsonschema.validate(report, load_schema("estimate_report"))
        assert "weight_converged" in reports["crossfit"]["nuisance"]["per_bag"][0]

    @pytest.mark.parametrize("method, edit", [
        ("efficient", lambda nu: nu.pop("rho_hat")),
        ("efficient", lambda nu: nu.update(rho_hat=1.0)),
        ("efficient", lambda nu: nu.update(weights="logistic")),
        ("efficient", lambda nu: nu.pop("outcome")),
        ("efficient", lambda nu: nu.update(extra=0)),
        ("crossfit", lambda nu: nu.update(crossfit_k=1)),
        ("crossfit", lambda nu: nu.pop("per_bag")),
        ("crossfit", lambda nu: nu["per_bag"][0]["nuisance"].pop("rho_hat")),
        ("crossfit", lambda nu: nu["per_bag"][0]["nuisance"].update(rho_hat=0.0)),
        ("crossfit", lambda nu: nu["per_bag"][1].update(extra=0)),
    ], ids=["no-rho", "rho-1", "bad-backend", "no-outcome", "extra-key", "k-1", "no-per-bag",
            "bag-no-rho", "bag-rho-0", "bag-extra-key"])
    def test_malformed_nuisance_refused(self, reports, method, edit):
        report = copy.deepcopy(reports[method])
        edit(report["nuisance"])
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(report, load_schema("estimate_report"))


class TestCalibrate:
    def test_selection_output(self, tmp_path):
        sim_cfg = write_json(tmp_path / "sim.json", sim_config_dict(n=300, seed=11))
        sim_out = tmp_path / "sim"
        main(["simulate", "--config", sim_cfg, "--out", str(sim_out)])
        cal_cfg = write_json(
            tmp_path / "cal.json",
            {
                "dataset": str(sim_out / "dataset.csv"),
                "candidates": str(FIXTURES / "candidates.json"),
                "method": "covariates_only",
                "weights": "oracle",
                "propensity": "oracle",
                "outcome": "oracle",
                "truth": str(sim_out / "truth.json"),
            },
        )
        out = tmp_path / "cal"
        assert main(["calibrate", "--config", cal_cfg, "--out", str(out)]) == 0
        selection = json.loads((out / "selection.json").read_text())
        jsonschema.validate(selection, load_schema("selection"))
        assert len(selection["table"]) == 3

    def test_ipw_method(self, tmp_path):
        sim_cfg = write_json(tmp_path / "sim.json", sim_config_dict(n=300, seed=12))
        sim_out = tmp_path / "sim"
        main(["simulate", "--config", sim_cfg, "--out", str(sim_out)])
        cal_cfg = write_json(
            tmp_path / "cal.json",
            {
                "dataset": str(sim_out / "dataset.csv"),
                "candidates": str(FIXTURES / "candidates.json"),
                "method": "ipw",
                "weights": "aipsw",
                "propensity": "logistic",
                "outcome": "linear",
            },
        )
        out = tmp_path / "cal"
        assert main(["calibrate", "--config", cal_cfg, "--out", str(out)]) == 0

    @pytest.mark.parametrize("method, keys", [
        ("covariates_only", ("truth",)),
        ("ipw", ("truth", "propensity")),
        ("ipw", ("propensity",)),
    ])
    def test_unread_nuisances_are_not_fitted(self, tmp_path, method, keys):
        # training covariates near (8, 8) separate the strata: an aipsw weight
        # fit, which neither method reads, raises Separation
        sim_cfg = write_json(tmp_path / "sim.json", sim_config_dict(mu=(8.0, 8.0), n=400, seed=7))
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--config", sim_cfg, "--out", str(sim_out)]) == 0
        optional = {"truth": str(sim_out / "truth.json"), "propensity": "logistic"}
        cal_cfg = write_json(tmp_path / "cal.json", {
            "dataset": str(sim_out / "dataset.csv"),
            "candidates": str(FIXTURES / "candidates.json"),
            "method": method,
        } | {k: optional[k] for k in keys})
        out = tmp_path / "cal"
        assert main(["calibrate", "--config", cal_cfg, "--out", str(out)]) == 0
        assert json.loads((out / "selection.json").read_text())["chosen_c"] == 0.1

    @pytest.mark.parametrize("stratum, code", [(1, 0), (0, 1)])
    def test_ipw_fits_only_the_stratum_it_reads(self, tmp_path, capsys, stratum, code):
        # calibration treatments sign(x_1) separate the calibration stratum's
        # propensity fit, which ipw reads at s* = 0 and not at s* = 1
        data, _ = simulate_gaussian_shift(make_config(n=300, seed=12))
        a = np.where(data.s == 0, np.where(data.x[:, 0] >= 0.0, 1.0, -1.0), data.a)
        path = tmp_path / "data.csv"
        write_dataset_csv(
            PooledDataset.from_arrays(data.x, a, data.y, data.s), path
        )
        cal_cfg = write_json(tmp_path / "cal.json", {
            "dataset": str(path), "candidates": str(FIXTURES / "candidates.json"),
            "method": "ipw", "propensity": "logistic", "ipw_propensity_stratum": stratum,
        })
        capsys.readouterr()
        assert main(["calibrate", "--config", cal_cfg, "--out", str(tmp_path / "cal")]) == code
        if code:
            assert json.loads(capsys.readouterr().err)["error"] == "Separation"

    def test_ipw_runs_no_outcome_kernel_fit(self, tmp_path, monkeypatch):
        from shifteval import nuisance

        sim_out = simulate_to(tmp_path)
        cal_cfg = write_json(tmp_path / "cal.json", {
            "dataset": str(sim_out / "dataset.csv"), "candidates": str(FIXTURES / "candidates.json"),
            "method": "ipw", "propensity": "logistic", "outcome": "kernel_ridge",
        })
        monkeypatch.setattr(nuisance, "_memory_cap", lambda: 10**5)
        assert main(["calibrate", "--config", cal_cfg, "--out", str(tmp_path / "cal")]) == 0

    @pytest.mark.parametrize("method, fitter", [
        ("covariates_only", "fit_outcome_regression"),
        ("ipw", "fit_propensity_logistic"),
    ])
    def test_each_method_calls_one_fitter(self, tmp_path, monkeypatch, method, fitter):
        calls = []
        for name in ("fit_weights_aipsw", "fit_weights_kulsif", "fit_weights_entropy_balancing",
                     "fit_propensity_logistic", "fit_outcome_regression"):
            def spy(*args, _name=name, _fit=getattr(estimators, name), **kwargs):
                calls.append(_name)
                return _fit(*args, **kwargs)

            monkeypatch.setattr(estimators, name, spy)
        sim_out = simulate_to(tmp_path)
        cal_cfg = write_json(tmp_path / "cal.json", {
            "dataset": str(sim_out / "dataset.csv"), "candidates": str(FIXTURES / "candidates.json"),
            "method": method, "weights": "aipsw", "propensity": "logistic", "outcome": "linear",
        })
        assert main(["calibrate", "--config", cal_cfg, "--out", str(tmp_path / "cal")]) == 0
        assert calls == [fitter]


class TestMonteCarloCommand:
    def mc_config(self, tmp_path, n_jobs=1, seed=13):
        return write_json(
            tmp_path / "mc.json",
            {
                "base": sim_config_dict(n=300, seed=seed),
                "replications": 6,
                "policy": POLICY,
                "estimators": [
                    {"name": "theta_t2", "estimand": "theta", "kind": "type2"},
                    {"name": "theta1_t1", "estimand": "theta1", "kind": "type1"},
                ],
                "n_jobs": n_jobs,
                "truth_draws": 50_000,
                "variance_draws": 10_000,
            },
        )

    def test_outputs_validate(self, tmp_path):
        out = tmp_path / "mc"
        assert main(["montecarlo", "--config", self.mc_config(tmp_path), "--out", str(out)]) == 0
        summary = json.loads((out / "mc_summary.json").read_text())
        jsonschema.validate(summary, load_schema("mc_summary"))
        csv_lines = (out / "mc_summary.csv").read_text().splitlines()
        assert len(csv_lines) == 3

    def test_bitwise_reproducible_including_parallel(self, tmp_path):
        cfg_serial = self.mc_config(tmp_path, n_jobs=1)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["montecarlo", "--config", cfg_serial, "--out", str(out1)])
        main(["montecarlo", "--config", cfg_serial, "--out", str(out2)])
        assert (out1 / "mc_summary.json").read_bytes() == (out2 / "mc_summary.json").read_bytes()
        assert (out1 / "mc_summary.csv").read_bytes() == (out2 / "mc_summary.csv").read_bytes()

        cfg_par = write_json(tmp_path / "mc_par.json", json.loads(Path(cfg_serial).read_text()) | {"n_jobs": 2})
        out3 = tmp_path / "c"
        main(["montecarlo", "--config", cfg_par, "--out", str(out3)])
        # parallel run must produce byte-identical statistical output; the
        # config hash differs (different effective config), so compare fields
        s1 = json.loads((out1 / "mc_summary.json").read_text())
        s3 = json.loads((out3 / "mc_summary.json").read_text())
        for key in ("truth", "replications", "n", "estimators"):
            assert s1[key] == s3[key]

    def test_minimal_config_takes_the_class_defaults(self, tmp_path, monkeypatch):
        built = []

        def capture(mc):
            built.append(mc)
            raise InvalidConfig("stopped before the study")

        monkeypatch.setattr(cli, "run_replications", capture)
        config = write_json(tmp_path / "mc.json", {
            "base": sim_config_dict(n=300, seed=13), "replications": 2, "policy": POLICY,
            "estimators": [{"name": "theta_t2"}],
        })
        assert main(["montecarlo", "--config", config, "--out", str(tmp_path / "out")]) == 1
        (mc,) = built
        for obj in (mc, mc.estimators[0]):
            for f in dataclasses.fields(obj):
                if f.default is not dataclasses.MISSING:
                    assert getattr(obj, f.name) == f.default, f.name

    @pytest.mark.parametrize("example", sorted(EXAMPLE_ESTIMATORS))
    def test_example_configs_run(self, tmp_path, example):
        assert sorted(p.name for p in EXAMPLES.glob("*.json")) == sorted(EXAMPLE_ESTIMATORS)
        # fewer replications and draws; variance_draws stays at the 1000-draw floor
        config = json.loads((EXAMPLES / example).read_text()) | {
            "replications": 3, "truth_draws": 10_000, "variance_draws": 1000
        }
        out = tmp_path / "out"
        assert main(["montecarlo", "--config", write_json(tmp_path / example, config),
                     "--out", str(out)]) == 0
        summary = json.loads((out / "mc_summary.json").read_text())
        assert [e["name"] for e in summary["estimators"]] == EXAMPLE_ESTIMATORS[example]


# (subcommand, key path into its config, ill-typed or out-of-range value, error
#  class or "class: whole message", extra command-line flags)
BAD_VALUES = [
    ("simulate", ("p",), "two", "InvalidConfig", ()),
    ("simulate", ("mu",), [0.5, "a"], "InvalidConfig", ()),
    ("simulate", ("n",), 100.9, "InvalidConfig", ()),
    ("simulate", ("seed",), 7.8, "InvalidConfig", ()),
    ("simulate", ("noise_sd",), float("nan"), "NonFiniteValue", ()),
    ("estimate", ("crossfit",), "abc", "InvalidConfig", ()),
    ("estimate", ("crossfit",), 2.7, "InvalidConfig", ()),
    ("estimate", ("crossfit",), -3, "InvalidConfig", ()),
    # one bag is no cross-fit: refused, not run as the plain fit, with the
    # field and the value named
    ("estimate", ("crossfit",), 1,
     "InvalidConfig: config field 'crossfit': expected 0 or an integer >= 2, got 1", ()),
    ("estimate", ("crossfit",), -1,
     "InvalidConfig: config field 'crossfit': expected 0 or an integer >= 2, got -1", ()),
    ("estimate", ("level",), "x", "InvalidConfig", ()),
    ("estimate", ("level",), 1.5, "InvalidLevel", ()),
    ("estimate", ("seed",), "s", "InvalidConfig", ()),
    # the fold seed, refused by name and not by numpy's default_rng
    ("estimate", ("seed",), -1, "InvalidConfig: seed must be a non-negative integer", ()),
    ("estimate", ("kernel",), 3, "InvalidConfig", ()),
    ("estimate", ("kernel",), {"bandwidth": 1e200}, "InvalidConfig", ()),
    ("estimate", ("dataset",), 0, "InvalidConfig", ()),
    ("estimate", ("truth",), 0, "InvalidConfig", ()),
    ("calibrate", ("candidates", 0, "rule", "intercept"), "x", "InvalidConfig", ()),
    ("calibrate", ("candidates", 1), "rule", "InvalidConfig", ()),
    ("calibrate", ("candidates",), 0, "InvalidConfig", ()),
    ("calibrate", ("method",), "foo", "InvalidConfig", ()),
    ("montecarlo", ("replications",), "x", "InvalidConfig", ()),
    ("montecarlo", ("replications",), 2.5, "InvalidConfig", ()),
    ("montecarlo", ("variance_draws",), 10, "InvalidConfig", ()),
    ("montecarlo", ("truth_draws",), 0, "InvalidConfig", ()),
    ("montecarlo", ("n_jobs",), "two", "InvalidConfig", ()),
    ("montecarlo", ("n_jobs",), -5, "InvalidConfig", ()),
    ("montecarlo", ("level",), 1.5, "InvalidLevel", ()),
    ("montecarlo", ("estimators", 0), "theta_t2", "InvalidConfig", ()),
    ("montecarlo", ("estimators", 0, "name"), 5, "InvalidConfig", ()),
    ("montecarlo", ("estimators", 1, "crossfit"), "false", "InvalidConfig", ()),
    ("montecarlo", ("estimators", 1, "weights"), "foo", "InvalidConfig", ()),
    # by_name could only ever return the first of two entries named alike
    ("montecarlo", ("estimators", 1, "name"), "theta_t2",
     "InvalidConfig: estimator name 'theta_t2' is used more than once", ()),
    ("montecarlo", ("base",), [1], "InvalidConfig", ("--seed", "7")),
    ("montecarlo", ("base", "n"), 300.5, "InvalidConfig", ()),
    ("montecarlo", ("base", "noise_sd"), float("inf"), "NonFiniteValue", ()),
    # a JSON boolean or string is not a number, nor a boolean an integer
    ("simulate", ("seed",), True, "InvalidConfig", ()),
    ("simulate", ("rho_s",), "0.5", "InvalidConfig", ()),
    ("simulate", ("mu",), ["0.5", "0.5"], "InvalidConfig", ()),
    ("estimate", ("crossfit",), True, "InvalidConfig", ()),
    ("estimate", ("kernel",), {"ridge": True}, "InvalidConfig", ()),
    ("estimate", ("policy", "intercept"), True, "InvalidConfig", ()),
    ("calibrate", ("candidates", 0, "c"), "0.1", "InvalidConfig", ()),
    ("calibrate", ("ipw_propensity_stratum",), 7, "InvalidConfig", ()),
    ("montecarlo", ("n_jobs",), True, "InvalidConfig", ()),
    ("montecarlo", ("base", "p"), "2", "InvalidConfig", ()),
    # a NaN rule would decide -1 everywhere; a NaN c would fail only on writing
    ("estimate", ("policy", "intercept"), float("nan"), "NonFiniteValue", ()),
    ("estimate", ("policy", "coeffs"), [1.0, float("inf")], "NonFiniteValue", ()),
    ("calibrate", ("candidates", 0, "rule", "intercept"), float("nan"), "NonFiniteValue", ()),
    ("calibrate", ("candidates", 0, "c"), float("nan"), "NonFiniteValue", ()),
    ("montecarlo", ("policy", "intercept"), float("nan"), "NonFiniteValue", ()),
]


BAD_CSV = {
    "empty_csv": "",
    "csv_header_names": "x_1,x_3,a,y,s\n0,0,1,1,1\n",
    "csv_cell_count": "x_1,x_2,a,y,s\n0,0,1,1,1\n0,0,1,1\n",
}


def simulate_to(tmp_path, n=200, seed=30):
    sim_cfg = write_json(tmp_path / "sim.json", sim_config_dict(n=n, seed=seed))
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--config", sim_cfg, "--out", str(sim_out)]) == 0
    return sim_out


class TestErrorsAndExitCodes:
    @pytest.mark.parametrize(
        "case, error",
        [
            ("missing_dataset", "InvalidConfig"),
            ("unknown_estimand", "InvalidConfig"),
            ("coeffs_length", "DimensionMismatch"),
            ("non_numeric_cell", "InvalidConfig"),
            ("top_level_list", "InvalidConfig"),
            ("dataset_is_directory", "IsADirectoryError"),
            ("config_is_directory", "IsADirectoryError"),
            ("config_not_utf8", "UnicodeDecodeError"),
            ("empty_csv", "EmptyStratum"),
            ("csv_header_names", "InvalidConfig"),
            ("csv_cell_count", "DimensionMismatch"),
            ("oracle_without_truth", "InvalidConfig"),
        ],
    )
    def test_bad_estimate_input_is_structured_before_fitting(
        self, tmp_path, capsys, monkeypatch, case, error
    ):
        def no_fitting(*args, **kwargs):
            raise AssertionError("nuisances fitted before the input was checked")

        monkeypatch.setattr(estimators, "assemble_nuisances", no_fitting)
        sim_out = simulate_to(tmp_path)
        config = {
            "dataset": str(sim_out / "dataset.csv"),
            "policy": POLICY,
            "weights": "aipsw",
            "propensity": "logistic",
            "outcome": "linear",
        }
        if case == "missing_dataset":
            del config["dataset"]
        elif case == "unknown_estimand":
            config["estimand"] = "thetaX"
        elif case == "coeffs_length":
            config["policy"] = POLICY | {"coeffs": [1.0, -1.0, 0.5]}
        elif case == "non_numeric_cell":
            bad = tmp_path / "bad.csv"
            lines = (sim_out / "dataset.csv").read_text().splitlines()
            lines[3] = "abc," + lines[3].split(",", 1)[1]
            bad.write_text("\n".join(lines) + "\n")
            config["dataset"] = str(bad)
        elif case in BAD_CSV:
            (tmp_path / "bad.csv").write_text(BAD_CSV[case])
            config["dataset"] = str(tmp_path / "bad.csv")
        elif case == "oracle_without_truth":
            config["weights"] = "oracle"
        elif case == "dataset_is_directory":
            config["dataset"] = str(tmp_path)
        elif case == "top_level_list":
            config = [config]
        config_path = write_json(tmp_path / "est.json", config)
        if case == "config_is_directory":
            config_path = str(tmp_path)
        elif case == "config_not_utf8":
            Path(config_path).write_bytes(b'{"dataset": "\xff"}')
        capsys.readouterr()
        code = main(["estimate", "--config", config_path, "--out", str(tmp_path / "out")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == error
        assert err["message"]

    @pytest.mark.parametrize(
        "command, path, value, error, flags",
        BAD_VALUES,
        ids=[f"{c}-{'.'.join(map(str, p))}={v}" for c, p, v, *_ in BAD_VALUES],
    )
    def test_bad_config_value_is_structured_before_any_work(
        self, tmp_path, capsys, monkeypatch, command, path, value, error, flags
    ):
        sim_out = simulate_to(tmp_path)
        configs = {
            "simulate": sim_config_dict(n=40, seed=1),
            "estimate": {
                "dataset": str(sim_out / "dataset.csv"), "truth": str(sim_out / "truth.json"),
                "policy": dict(POLICY), "weights": "aipsw", "propensity": "logistic",
                "outcome": "oracle", "crossfit": 3,
            },
            "calibrate": {
                "dataset": str(sim_out / "dataset.csv"),
                "candidates": json.loads((FIXTURES / "candidates.json").read_text()),
                "weights": "aipsw", "propensity": "logistic", "outcome": "linear",
            },
            "montecarlo": {
                "base": sim_config_dict(n=300, seed=13), "replications": 3,
                "policy": dict(POLICY),
                "estimators": [
                    {"name": "theta_t2", "estimand": "theta", "kind": "type2"},
                    {"name": "cf", "weights": "aipsw", "propensity": "logistic",
                     "outcome": "linear", "crossfit": True},
                ],
            },
        }
        config = configs[command]
        target = config
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        if command == "calibrate" and isinstance(config["candidates"], list):
            config["candidates"] = write_json(tmp_path / "cand.json", config["candidates"])

        def no_work(*args, **kwargs):
            raise AssertionError(f"{command} started work before the config was checked")

        work = {
            "simulate": (cli, "simulate_gaussian_shift"),
            "estimate": (estimators, "assemble_nuisances"),
            "calibrate": (cli, "_fit_nuisance"),
            "montecarlo": (montecarlo, "true_policy_values"),
        }
        monkeypatch.setattr(*work[command], no_work)
        capsys.readouterr()
        code = main([command, *flags, "--config", write_json(tmp_path / "config.json", config),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        name, _, message = error.partition(": ")
        assert err["error"] == name
        assert (err["message"] == message) if message else err["message"]

    @pytest.mark.parametrize("weights, outcome", [("kulsif", "linear"), ("aipsw", "kernel_ridge")])
    def test_kernel_beyond_memory_is_structured(
        self, tmp_path, capsys, monkeypatch, weights, outcome
    ):
        from shifteval import nuisance

        sim_out = simulate_to(tmp_path)
        config = write_json(tmp_path / "est.json", {
            "dataset": str(sim_out / "dataset.csv"), "policy": POLICY,
            "weights": weights, "propensity": "logistic", "outcome": outcome,
        })
        monkeypatch.setattr(nuisance, "_memory_cap", lambda: 10**5)
        capsys.readouterr()
        code = main(["estimate", "--config", config, "--out", str(tmp_path / "out")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "KernelTooLarge"
        assert "physical memory" in err["message"]
        assert not (tmp_path / "out" / "estimate_report.json").exists()

    @pytest.mark.parametrize("kernel, error", [
        ({"ridge": 1e308}, "SolveFailure"),  # n * ridge overflows in kernel ridge
        ({"bandwidth": 1e-170}, "InvalidConfig"),  # 2 * bandwidth**2 underflows to 0
        ({"ridge": 5e-324}, "SolveFailure"),  # lambda n0 n1 is subnormal: the KuLSIF rhs overflows
        ({"bandwidth": float("inf")}, "NonFiniteValue"),  # an all-ones kernel
        ({"ridge": float("inf")}, "NonFiniteValue"),
    ])
    def test_non_finite_kernel_system_is_structured(self, tmp_path, capsys, kernel, error):
        sim_out = simulate_to(tmp_path)
        config = write_json(tmp_path / "est.json", {
            "dataset": str(sim_out / "dataset.csv"), "policy": POLICY,
            "weights": "kulsif", "propensity": "logistic", "outcome": "kernel_ridge",
            "kernel": kernel,
        })
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["estimate", "--config", config, "--out", str(tmp_path / "out")])
        assert code == 1
        assert caught == []
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert set(err) == {"error", "message"}
        assert err["error"] == error

    def test_warning_raised_as_error_is_one_structured_line(self, tmp_path, capsys):
        # a near-zero ridge leaves the KuLSIF dual ill-conditioned; under a
        # filter that raises its warning, the run ends like any other error
        sim_out = simulate_to(tmp_path, n=300, seed=7)
        config = write_json(tmp_path / "est.json", {
            "dataset": str(sim_out / "dataset.csv"), "policy": POLICY,
            "weights": "kulsif", "propensity": "logistic", "outcome": "linear",
            "kernel": {"family": "rbf", "ridge": 1e-12},
        })
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            code = main(["estimate", "--config", config, "--out", str(tmp_path / "out")])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert set(err) == {"error", "message"}
        assert err["error"] == "UserWarning"
        assert err["message"].startswith("KuLSIF dual: condition number")

    def test_diverging_entropy_balancing_is_one_structured_line(self, tmp_path, capsys):
        # the calibration mean lies outside the convex hull of the training
        # rows but inside each coordinate's range: lambda diverges
        (tmp_path / "eb.csv").write_text(
            "x_1,x_2,a,y,s\n1.3087,-1.5063,1,0.5,1\n-1.5437,0.4960,-1,1.0,1\n"
            "0.3750,-0.8111,1,-0.5,1\n-0.1877,-0.3653,,,0\n"
        )
        config = write_json(tmp_path / "est.json", {
            "dataset": str(tmp_path / "eb.csv"), "policy": POLICY,
            "weights": "eb", "propensity": "logistic", "outcome": "linear",
        })
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["estimate", "--config", config, "--out", str(tmp_path / "out")])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert set(err) == {"error", "message"}
        assert err["error"] == "InfeasibleBalance"

    def test_overflowing_entropy_balancing_is_one_line_under_warnings_as_errors(self, tmp_path):
        # the calibration mean lies outside the training hull on a scale at
        # which line-search candidates overflow; a fresh interpreter, so the
        # warnings filter applies as it does for a user's command
        data, _ = simulate_gaussian_shift(make_config(p=4, mu=(-1.0,) * 4, n=200, seed=62))
        scaled = PooledDataset.from_arrays(data.x * 100.0, data.a, data.y, data.s)
        write_dataset_csv(scaled, tmp_path / "eb.csv")
        config = write_json(tmp_path / "est.json", {
            "dataset": str(tmp_path / "eb.csv"),
            "policy": {"type": "linear", "intercept": 0.2, "coeffs": [1.0, -1.0, 0.0, 0.0]},
            "weights": "eb", "propensity": "logistic", "outcome": "linear",
        })
        proc = subprocess.run(
            [sys.executable, "-m", "shifteval.cli", "estimate", "--config", config,
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
            env=os.environ | {"PYTHONWARNINGS": "error::RuntimeWarning,error::UserWarning"},
        )
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        err = json.loads(lines[0])
        assert set(err) == {"error", "message"}
        assert err["error"] == "InfeasibleBalance"

    @pytest.mark.parametrize("weights, outcome, error", [
        ("eb", "linear", "SolveFailure: entropy balancing: Newton system not finite at iteration 1"),
        ("kulsif", "linear", "NonFiniteValue: median-distance bandwidth inf is not finite"),
    ])
    def test_covariates_near_float_max_are_structured(self, tmp_path, capsys, weights, outcome, error):
        # every pairwise distance and the entropy-balancing Hessian overflow to inf
        rng = np.random.default_rng(0)
        x = rng.normal(size=(40, 2)) * 1e200
        a = np.where(rng.random(40) < 0.5, 1, -1)
        data = PooledDataset.from_arrays(x, a, rng.normal(size=40), np.arange(40) % 2)
        write_dataset_csv(data, tmp_path / "big.csv")
        config = write_json(tmp_path / "est.json", {
            "dataset": str(tmp_path / "big.csv"), "policy": POLICY,
            "weights": weights, "propensity": "logistic", "outcome": outcome,
        })
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["estimate", "--config", config, "--out", str(tmp_path / "out")])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        name, _, message = error.partition(": ")
        assert json.loads(lines[0]) == {"error": name, "message": message}

    @pytest.mark.parametrize("message", ["Unable to allocate 7.45 GiB for an array", ""])
    def test_memory_error_is_structured(self, tmp_path, capsys, monkeypatch, message):
        def out_of_memory(*args, **kwargs):
            raise MemoryError(message)

        sim_out = simulate_to(tmp_path)
        config = write_json(tmp_path / "cal.json", {
            "dataset": str(sim_out / "dataset.csv"), "candidates": str(FIXTURES / "candidates.json"),
            "weights": "aipsw", "propensity": "logistic", "outcome": "linear",
        })
        monkeypatch.setattr(cli, "_fit_nuisance", out_of_memory)
        capsys.readouterr()
        code = main(["calibrate", "--config", config, "--out", str(tmp_path / "out")])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "MemoryError", "message": message or "out of memory"}

    def test_out_naming_a_file_is_structured(self, tmp_path, capsys, monkeypatch):
        sim_out = simulate_to(tmp_path)
        config = write_json(tmp_path / "est.json", {
            "dataset": str(sim_out / "dataset.csv"), "policy": POLICY,
            "weights": "aipsw", "propensity": "logistic", "outcome": "linear",
        })
        monkeypatch.setattr(estimators, "assemble_nuisances", no_work_before_out)
        capsys.readouterr()
        code = main(["estimate", "--config", config, "--out", str(sim_out / "dataset.csv")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FileExistsError"
        assert err["message"]

    @pytest.mark.parametrize("command", ["simulate", "calibrate", "montecarlo"])
    def test_out_naming_a_file_fails_before_any_work(self, tmp_path, capsys, monkeypatch, command):
        sim_out = simulate_to(tmp_path)
        configs = {
            "simulate": sim_config_dict(n=40, seed=1),
            "calibrate": {
                "dataset": str(sim_out / "dataset.csv"),
                "candidates": str(FIXTURES / "candidates.json"),
                "weights": "aipsw", "propensity": "logistic", "outcome": "linear",
            },
            "montecarlo": {
                "base": sim_config_dict(n=300, seed=13), "replications": 3, "policy": POLICY,
                "estimators": [{"name": "theta_t2", "estimand": "theta", "kind": "type2"}],
            },
        }
        work = {
            "simulate": (cli, "simulate_gaussian_shift"),
            "calibrate": (cli, "_fit_nuisance"),
            "montecarlo": (montecarlo, "true_policy_values"),
        }
        monkeypatch.setattr(*work[command], no_work_before_out)
        capsys.readouterr()
        code = main([command, "--config", write_json(tmp_path / "config.json", configs[command]),
                     "--out", str(sim_out / "dataset.csv")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FileExistsError"

    def test_non_finite_payload_is_not_written(self, tmp_path):
        with pytest.raises(NonFiniteValue):
            cli._write_json(tmp_path / "r.json", {"estimate": float("nan")})
        assert not (tmp_path / "r.json").exists()


    def test_unknown_subcommand_exit_2(self):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag_exit_2(self):
        assert main(["simulate"]) == 2

    def test_calibrate_has_no_seed_flag(self, tmp_path):
        assert main(["calibrate", "--config", str(tmp_path / "cal.json"),
                     "--out", str(tmp_path / "out"), "--seed", "1"]) == 2

    def test_missing_file_exit_1(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FileNotFoundError"

    def test_validation_error_named(self, tmp_path, capsys):
        bad = write_json(tmp_path / "sim.json", sim_config_dict(n=40, seed=1) | {"rho_s": 1.5})
        code = main(["simulate", "--config", bad, "--out", str(tmp_path / "out")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidConfig"

    def test_import_loads_only_the_scipy_it_runs(self):
        # a fresh interpreter: the CLI import and a logistic fit load no
        # scipy and no process pool; a KuLSIF fit loads scipy.linalg and
        # scipy.spatial, and scipy.spatial loads scipy.special
        script = (
            "import json, sys\n"
            "import shifteval.cli\n"
            "at_import = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
            "                   or m == 'concurrent.futures.process')\n"
            "watched = ('scipy.special', 'scipy.stats', 'scipy.linalg', 'scipy.spatial')\n"
            "from shifteval import KernelSpec, SimulationConfig, fit_propensity_logistic\n"
            "from shifteval import fit_weights_kulsif, simulate_gaussian_shift\n"
            "sim = SimulationConfig(p=2, mu=[0.5, 0.5], rho_s=0.5, n=200,\n"
            "                       outcome_coeffs=[1, 1, 0.5, 0.25, 0.5, -0.5],\n"
            "                       noise_sd=1.0, propensity=0.5, seed=1)\n"
            "data = simulate_gaussian_shift(sim)[0]\n"
            "fit_propensity_logistic(data)\n"
            "after_logistic = [m for m in watched if m in sys.modules]\n"
            "fit_weights_kulsif(data, KernelSpec())\n"
            "print(json.dumps([at_import, after_logistic,\n"
            "                  [m for m in watched if m in sys.modules]]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        at_import, after_logistic, after_kulsif = json.loads(proc.stdout)
        assert at_import == []
        assert after_logistic == []
        assert after_kulsif == ["scipy.special", "scipy.linalg", "scipy.spatial"]

    def test_commands_load_only_the_scipy_they_run(self, tmp_path):
        # each command in a fresh interpreter: simulate, a covariates-only
        # or ipw calibrate, an aipsw or eb estimate and a cross-fitted aipsw
        # montecarlo in process call no scipy function
        script = (
            "import json, sys\n"
            "from shifteval.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "packages = [m for m in loaded if m.count('.') == 1\n"
            "            and not m.split('.')[1].startswith('_')\n"
            "            and hasattr(sys.modules[m], '__path__')]\n"
            "print(json.dumps([code, loaded, packages]))\n"
        )

        def run(*args):
            proc = subprocess.run([sys.executable, "-c", script, *args],
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            return json.loads(proc.stdout.splitlines()[-1])

        sim_cfg = write_json(tmp_path / "sim.json", sim_config_dict(n=300, seed=14))
        sim_out = tmp_path / "sim"
        est_cfg = write_json(tmp_path / "est.json", {
            "dataset": str(sim_out / "dataset.csv"), "estimand": "theta", "policy": POLICY,
            "weights": "aipsw", "propensity": "logistic", "outcome": "linear",
        })
        cal_cfg = write_json(tmp_path / "cal.json", {
            "dataset": str(sim_out / "dataset.csv"),
            "candidates": str(FIXTURES / "candidates.json"), "method": "covariates_only",
            "truth": str(sim_out / "truth.json"),
        })
        ipw_cfg = write_json(tmp_path / "ipw.json", {
            "dataset": str(sim_out / "dataset.csv"),
            "candidates": str(FIXTURES / "candidates.json"), "method": "ipw",
            "propensity": "logistic",
        })
        mc_cfg = write_json(tmp_path / "mc.json", {
            "base": sim_config_dict(n=300, seed=15), "replications": 2, "policy": POLICY,
            "estimators": [{"name": "theta_t1", "estimand": "theta", "kind": "type1",
                            "weights": "aipsw", "propensity": "logistic",
                            "outcome": "linear", "crossfit": True}],
            "n_jobs": 1, "truth_draws": 10_000, "variance_draws": 10_000,
        })
        assert run("simulate", "--config", sim_cfg, "--out", str(sim_out)) == [0, [], []]
        assert run("calibrate", "--config", cal_cfg, "--out", str(tmp_path / "cal")) == [0, [], []]
        assert run("calibrate", "--config", ipw_cfg, "--out", str(tmp_path / "ipw")) == [0, [], []]
        assert run("estimate", "--config", est_cfg, "--out", str(tmp_path / "est")) == [0, [], []]
        assert run("estimate", "--config", est_cfg, "--weights", "eb",
                   "--out", str(tmp_path / "est_eb")) == [0, [], []]
        assert run("montecarlo", "--config", mc_cfg, "--out", str(tmp_path / "mc")) == [0, [], []]

    def test_console_script_subprocess(self, tmp_path):
        config = tmp_path / "sim.json"
        config.write_text(json.dumps(sim_config_dict(n=40, seed=2)))
        proc = subprocess.run(
            [sys.executable, "-m", "shifteval.cli", "simulate", "--config", str(config),
             "--out", str(tmp_path / "out")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        proc2 = subprocess.run(
            [sys.executable, "-m", "shifteval.cli", "nope"], capture_output=True, text=True
        )
        assert proc2.returncode == 2


# values put in place of a config field; size fields draw from SIZE_VALUES
# instead, so that no mutated run is large or starts worker processes
FUZZ_VALUES = [
    0, 1, -1, 2, 3, 1.5, 1e-300, -1e-300, 1e300, -50, 50, 800, 2**70,
    float("nan"), float("inf"), "x", True, None, [], {},
    "eb", "kulsif", "oracle", "kernel_ridge", "linear", "theta1", "type1", "ipw",
]
SIZE_VALUES = {
    "n": [-1, 0, 1, 2, 10, 60, 300, 300.5, True, "x", None],
    "replications": [-1, 0, 1, 2, 3, 2.5, True, "x", None],
    "n_jobs": [1, 0, -1, 1.5, True, "x", None],
    "truth_draws": [-1, 0, 999, 1000, 5000, 20_000, 1.5, True, "x", None],
    "crossfit_k": [-1, 0, 1, 2, 3, 5, 2.5, True, "x", None],
}
SIZE_VALUES["variance_draws"] = SIZE_VALUES["truth_draws"]
SIZE_VALUES["crossfit"] = SIZE_VALUES["crossfit_k"]
# key paths mutated in each subcommand's config
FUZZ_PATHS = {
    "simulate": [("p",), ("mu",), ("rho_s",), ("n",), ("outcome_coeffs",), ("noise_sd",),
                 ("propensity",), ("seed",)],
    "estimate": [("dataset",), ("estimand",), ("kind",), ("policy",), ("policy", "intercept"),
                 ("policy", "coeffs"), ("weights",), ("propensity",), ("outcome",), ("truth",),
                 ("crossfit",), ("level",), ("seed",), ("kernel",)],
    "calibrate": [("dataset",), ("candidates",), ("method",), ("weights",), ("propensity",),
                  ("outcome",), ("truth",), ("ipw_propensity_stratum",), ("kernel",)],
    "montecarlo": [("base",), ("base", "p"), ("base", "mu"), ("base", "rho_s"), ("base", "n"),
                   ("base", "noise_sd"), ("base", "propensity"), ("base", "seed"),
                   ("replications",), ("policy",), ("policy", "intercept"), ("estimators",),
                   ("estimators", 0, "weights"), ("estimators", 1, "kind"),
                   ("estimators", 1, "crossfit"), ("crossfit_k",), ("n_jobs",),
                   ("truth_draws",), ("variance_draws",), ("level",)],
}


@st.composite
def mutated_configs(draw):
    command = draw(st.sampled_from(sorted(FUZZ_PATHS)))
    paths = draw(st.lists(st.sampled_from(FUZZ_PATHS[command]), min_size=1, max_size=2, unique=True))
    return command, [(path, draw(st.sampled_from(SIZE_VALUES.get(path[-1], FUZZ_VALUES))))
                     for path in paths]


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    sim_out = simulate_to(root)
    return {
        "simulate": sim_config_dict(n=200, seed=1),
        "estimate": {
            "dataset": str(sim_out / "dataset.csv"), "truth": str(sim_out / "truth.json"),
            "policy": POLICY, "weights": "aipsw", "propensity": "logistic",
            "outcome": "linear", "crossfit": 0,
        },
        "calibrate": {
            "dataset": str(sim_out / "dataset.csv"), "truth": str(sim_out / "truth.json"),
            "candidates": str(FIXTURES / "candidates.json"), "method": "ipw",
            "weights": "aipsw", "propensity": "logistic", "outcome": "linear",
        },
        "montecarlo": {
            "base": sim_config_dict(n=200, seed=13), "replications": 2, "policy": POLICY,
            "estimators": [
                {"name": "theta_t2", "estimand": "theta", "kind": "type2"},
                {"name": "cf", "weights": "aipsw", "propensity": "logistic",
                 "outcome": "linear", "crossfit": True},
            ],
            "crossfit_k": 2, "n_jobs": 1, "truth_draws": 1000, "variance_draws": 1000,
        },
    }


@given(case=mutated_configs())
@settings(max_examples=40, deadline=None)
def test_mutated_config_exits_cleanly(fuzz_inputs, case):
    """A config with one or two fields replaced exits 0, or 1 with the
    structured error line; no mutation raises a traceback."""
    command, mutations = case
    config = copy.deepcopy(fuzz_inputs[command])
    for path, value in mutations:
        # a path through a value the other mutation replaced is skipped
        with contextlib.suppress(KeyError, IndexError, TypeError):
            target = config
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = copy.deepcopy(value)
    with tempfile.TemporaryDirectory() as tmp:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--config", write_json(Path(tmp) / "config.json", config),
                         "--out", str(Path(tmp) / "out")])
    assert code in (0, 1)
    if code == 1:
        assert set(json.loads(err.getvalue().splitlines()[-1])) == {"error", "message"}



@st.composite
def fuzzed_datasets(draw):
    """A tiny Type-1 dataset: each column scaled near 1 or up to 1e+-300,
    some columns constant or duplicated, and the strata and the treatments
    either drawn at random or split by a covariate."""
    n = draw(st.integers(6, 40))
    p = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    exponents = st.one_of(st.floats(-1.0, 1.0), st.integers(-300, 300).map(float))
    x = rng.normal(size=(n, p)) * 10.0 ** np.array(draw(st.lists(exponents, min_size=p, max_size=p)))
    for j in range(1, p):
        column = draw(st.sampled_from(["drawn", "constant", "duplicate"]))
        if column == "constant":
            x[:, j] = x[0, j]
        elif column == "duplicate":
            x[:, j] = x[:, 0]
    split = x[:, draw(st.integers(0, p - 1))]
    s = split > np.median(split) if draw(st.booleans()) else rng.random(n) < 0.5
    s[:2], s[-2:] = True, False  # both strata non-empty
    a = np.where(x[:, p - 1] > 0 if draw(st.booleans()) else rng.random(n) < 0.5, 1, -1)
    y = rng.normal(size=n) * 10.0 ** draw(exponents)
    return PooledDataset.from_arrays(x, a, y, s.astype(int))


def run_cli(command, config, data, tmp):
    """Run ``command`` on ``data`` with ``config``, warnings as errors, and
    check the artifact of a success; return the exit code and stderr lines."""
    write_dataset_csv(data, Path(tmp) / "data.csv")
    config = {"dataset": str(Path(tmp) / "data.csv"), **config}
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        warnings.simplefilter("error", UserWarning)
        code = main([command, "--config", write_json(Path(tmp) / f"{command}.json", config),
                     "--out", str(Path(tmp) / command)])
    if code == 0:
        artifact = {"estimate": "estimate_report", "calibrate": "selection"}[command]
        doc = json.loads((Path(tmp) / command / f"{artifact}.json").read_text())
        jsonschema.validate(doc, load_schema(artifact))
        json.dumps(doc, allow_nan=False)
    return code, err.getvalue().splitlines()


@given(
    data=fuzzed_datasets(),
    weights=st.sampled_from(["aipsw", "kulsif", "eb"]),
    outcome=st.sampled_from(["linear", "kernel_ridge"]),
    crossfit=st.sampled_from([0, 2, 3]),
    kind=st.sampled_from(["type1", "type2"]),
    estimand=st.sampled_from(["theta", "theta1"]),
    method=st.sampled_from(["covariates_only", "ipw"]),
)
@settings(max_examples=60, deadline=None)
def test_fuzzed_data_exits_cleanly(data, weights, outcome, crossfit, kind, estimand, method):
    """Adversarial numbers through every fit: each run exits 0 with a finite,
    schema-valid artifact, or 1 with exactly one stderr line, the structured
    error; no warning or traceback reaches the user."""
    rule = {"type": "linear", "intercept": 0.2, "coeffs": [1.0] + [-1.0] * (data.p - 1)}
    recipe = {"weights": weights, "propensity": "logistic", "outcome": outcome}
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "candidates.json").write_text(json.dumps(
            [{"c": 0.1, "rule": rule}, {"c": 1.0, "rule": {**rule, "intercept": -1.0}}]
        ))
        runs = [
            run_cli("estimate", {**recipe, "policy": rule, "crossfit": crossfit, "kind": kind,
                                 "estimand": estimand}, data, tmp),
            run_cli("calibrate", {**recipe, "candidates": str(Path(tmp) / "candidates.json"),
                                  "method": method}, data, tmp),
        ]
    for code, lines in runs:
        assert code in (0, 1)
        if code == 1:
            assert len(lines) == 1
            assert set(json.loads(lines[0])) == {"error", "message"}
