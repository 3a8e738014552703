"""Every exported name resolves, and so does every function the benchmark's
tracer wraps: removing one of them breaks ``perfbench/run.py --trace``."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import shifteval

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"
MODULES = ("calibration", "data_model", "estimators", "montecarlo", "nuisance")  # each has __all__


def tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_package_exports_resolve():
    missing = [name for name in shifteval.__all__ if not hasattr(shifteval, name)]
    assert missing == []


def test_package_exports_each_module_all_once():
    names = shifteval.__all__
    assert len(names) == len(set(names)) == 45
    for name in MODULES:
        module = importlib.import_module(f"shifteval.{name}")
        for attr in module.__all__:
            assert attr in names, (name, attr)
            assert getattr(shifteval, attr) is getattr(module, attr), (name, attr)


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"shifteval.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("module, path", tracer_targets())
def test_traced_function_resolves(module, path):
    target = importlib.import_module(f"shifteval.{module}")
    for attr in path.split("."):
        target = getattr(target, attr)
    assert callable(target)
