"""Every span target of the benchmark tracer names an attribute that exists.

``perfbench/tracer.py`` wraps collisim callables by module and attribute
name; a renamed or removed one makes every traced benchmark run fail on a
missing attribute. This test only reads the tracer's target table.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the defining module up by name while it executes
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("target", _targets(),
                         ids=lambda t: f"{t.owner}.{t.method_of + '.' if t.method_of else ''}{t.attr}")
def test_tracer_target_resolves(target):
    owner = importlib.import_module(target.owner)
    if target.method_of:
        assert callable(getattr(owner, target.method_of).__dict__[target.attr])
    else:
        assert callable(getattr(owner, target.attr))
