"""The benchmark's tracer wraps swgfem functions by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "swgbench" / "tracing.py"


def traced_targets():
    spec = importlib.util.spec_from_file_location("swgbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, name) for module, name, _ in tracing.TARGETS]


TARGETS = traced_targets()


@pytest.mark.parametrize("module, name", TARGETS, ids=[f"{m}.{n}" for m, n in TARGETS])
def test_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name))
