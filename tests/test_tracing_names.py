"""Every name the benchmark's tracer wraps must exist, or `--trace 1` breaks."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _wrapped_names():
    tracing = _tracing()
    for module_name, attrs in tracing.LAYERS.values():
        for attr in attrs:
            yield module_name, attr
    for module_name, attr in tracing.COUNTED.values():
        yield module_name, attr


@pytest.mark.parametrize("module_name, attr", list(_wrapped_names()))
def test_traced_name_resolves(module_name, attr):
    target = importlib.import_module(module_name)
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)
