"""The benchmark calls swgfem by name: its tracer wraps functions by module
and name, and its workloads call ``sw.<name>(...)`` and read result fields.
Each of these must exist, and each call must bind to its function's
signature, so pruning the package cannot break the benchmark silently."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import swgfem

BENCH = Path(__file__).resolve().parent.parent / "swgbench"


def traced_targets():
    spec = importlib.util.spec_from_file_location("swgbench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, name) for module, name, _ in tracing.TARGETS]


def is_sw(node):
    """True for an ``sw.<name>`` attribute."""
    return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "sw")


def workload_names(tree):
    """Every ``sw.<name>`` in the workloads, in order of first use."""
    names = [node.attr for node in ast.walk(tree) if is_sw(node)]
    return list(dict.fromkeys(names))


def workload_calls(tree):
    """(name, positional count, keyword names) of each distinct
    ``sw.<name>(...)`` call; ``*args`` and ``**mapping`` are not counted."""
    calls = {(node.func.attr,
              sum(not isinstance(a, ast.Starred) for a in node.args),
              tuple(k.arg for k in node.keywords if k.arg is not None))
             for node in ast.walk(tree) if isinstance(node, ast.Call) and is_sw(node.func)}
    return sorted(calls)


WORKLOADS = ast.parse((BENCH / "workloads.py").read_text())
TARGETS = traced_targets()
WORKLOAD_NAMES = workload_names(WORKLOADS)
WORKLOAD_CALLS = workload_calls(WORKLOADS)

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
    assert {("solve_problem", 3, ("solve_config",)), ("SolveConfig", 0, ("method",)),
            ("AssemblyConfig", 0, ("kappa",))} <= set(WORKLOAD_CALLS)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_name_resolves(name):
    assert hasattr(swgfem, name)


@pytest.mark.parametrize("name, positional, keywords", WORKLOAD_CALLS,
                         ids=["-".join((n, str(p), *k)) for n, p, k in WORKLOAD_CALLS])
def test_workload_call_binds(name, positional, keywords):
    signature = inspect.signature(getattr(swgfem, name))
    signature.bind(*[None] * positional, **dict.fromkeys(keywords))


@pytest.mark.parametrize("cls, field", READ_FIELDS, ids=[f"{c}.{f}" for c, f in READ_FIELDS])
def test_read_field_exists(cls, field):
    owner = getattr(swgfem, cls)
    assert field in {f.name for f in dataclasses.fields(owner)} or hasattr(owner, field)
