"""Every name the benchmark in perfbench/ looks up in extopt resolves.

`perfbench/tracing.py` wraps functions at the module attributes listed in its
``WRAPPED`` table, and `perfbench/run.py` imports `SubgradientConfig`; a
missing name fails a traced benchmark run with AttributeError.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = [target for target, _ in load_tracing().WRAPPED] + ["extopt.oracle.SubgradientConfig"]


@pytest.mark.parametrize("target", TARGETS)
def test_target_resolves(target):
    module_name, attr = target.rsplit(".", 1)
    assert callable(getattr(importlib.import_module(module_name), attr))

