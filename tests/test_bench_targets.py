"""The benchmark calls swgfem by name: its tracer wraps functions by module
and name, and its workloads call ``sw.<name>`` and read result fields.
Each of these must exist, so pruning the package cannot break the
benchmark silently."""

import ast
import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

import swgfem

BENCH = Path(__file__).resolve().parent.parent / "swgbench"


def traced_targets():
    spec = importlib.util.spec_from_file_location("swgbench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, name) for module, name, _ in tracing.TARGETS]


def workload_names():
    """Every ``sw.<name>`` in the workloads, in order of first use."""
    tree = ast.parse((BENCH / "workloads.py").read_text())
    names = [node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "sw"]
    return list(dict.fromkeys(names))


TARGETS = traced_targets()
WORKLOAD_NAMES = workload_names()

#: The fields the workloads and their checks read from swgfem's results.
READ_FIELDS = (
    ("ProblemSpec", "c_is_zero"),
    ("Solution", "values"),
    ("Solution", "iterations"),
    ("SparseSystem", "matrix"),
    ("SparseSystem", "rhs"),
    ("KappaConditionReport", "all_ok"),
    ("DmpReport", "satisfied"),
)


@pytest.mark.parametrize("module, name", TARGETS, ids=[f"{m}.{n}" for m, n in TARGETS])
def test_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name))


def test_workloads_call_swgfem():
    assert "element_geometry" in WORKLOAD_NAMES and "kappa_condition" in WORKLOAD_NAMES


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_name_resolves(name):
    assert hasattr(swgfem, name)


@pytest.mark.parametrize("cls, field", READ_FIELDS, ids=[f"{c}.{f}" for c, f in READ_FIELDS])
def test_read_field_exists(cls, field):
    owner = getattr(swgfem, cls)
    assert field in {f.name for f in dataclasses.fields(owner)} or hasattr(owner, field)
