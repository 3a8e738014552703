import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from shifteval import (
    Estimand,
    LinearPolicy,
    estimate_efficient,
    read_dataset_csv,
    simulate_gaussian_shift,
)
from shifteval import cli, estimators, montecarlo
from shifteval.cli import main
from shifteval.errors import NonFiniteValue
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


# (subcommand, key path into its config, ill-typed or out-of-range value, error,
#  extra command-line flags)
BAD_VALUES = [
    ("simulate", ("p",), "two", "InvalidConfig", ()),
    ("simulate", ("mu",), [0.5, "a"], "InvalidConfig", ()),
    ("simulate", ("n",), 100.9, "InvalidConfig", ()),
    ("simulate", ("seed",), 7.8, "InvalidConfig", ()),
    ("simulate", ("noise_sd",), float("nan"), "NonFiniteValue", ()),
    ("estimate", ("crossfit",), "abc", "InvalidConfig", ()),
    ("estimate", ("crossfit",), 2.7, "InvalidConfig", ()),
    ("estimate", ("crossfit",), -3, "InvalidConfig", ()),
    ("estimate", ("level",), "x", "InvalidConfig", ()),
    ("estimate", ("level",), 1.5, "InvalidLevel", ()),
    ("estimate", ("seed",), "s", "InvalidConfig", ()),
    ("estimate", ("kernel",), 3, "InvalidConfig", ()),
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
    ("montecarlo", ("level",), 1.5, "InvalidLevel", ()),
    ("montecarlo", ("estimators", 0), "theta_t2", "InvalidConfig", ()),
    ("montecarlo", ("estimators", 0, "name"), 5, "InvalidConfig", ()),
    ("montecarlo", ("estimators", 1, "crossfit"), "false", "InvalidConfig", ()),
    ("montecarlo", ("estimators", 1, "weights"), "foo", "InvalidConfig", ()),
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
]


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
                "base": sim_config_dict(n=300, seed=13), "replications": 3, "policy": POLICY,
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
            "calibrate": (cli, "assemble_nuisances"),
            "montecarlo": (montecarlo, "true_policy_values"),
        }
        monkeypatch.setattr(*work[command], no_work)
        capsys.readouterr()
        code = main([command, *flags, "--config", write_json(tmp_path / "config.json", config),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == error
        assert err["message"]

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
            "calibrate": (cli, "assemble_nuisances"),
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
        # a fresh interpreter: the CLI import leaves out scipy.stats and the
        # kernel-only scipy.linalg and scipy.spatial, which a KuLSIF fit loads
        script = (
            "import json, sys\n"
            "import shifteval.cli\n"
            "heavy = ('scipy.stats', 'scipy.linalg', 'scipy.spatial')\n"
            "at_import = [m for m in heavy if m in sys.modules]\n"
            "from shifteval import KernelSpec, SimulationConfig, fit_weights_kulsif\n"
            "from shifteval import simulate_gaussian_shift\n"
            "sim = SimulationConfig(p=2, mu=[0.5, 0.5], rho_s=0.5, n=200,\n"
            "                       outcome_coeffs=[1, 1, 0.5, 0.25, 0.5, -0.5],\n"
            "                       noise_sd=1.0, propensity=0.5, seed=1)\n"
            "fit_weights_kulsif(simulate_gaussian_shift(sim)[0], KernelSpec())\n"
            "print(json.dumps([at_import, [m for m in heavy if m in sys.modules]]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        at_import, after_fit = json.loads(proc.stdout)
        assert at_import == []
        assert after_fit == ["scipy.linalg", "scipy.spatial"]

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
