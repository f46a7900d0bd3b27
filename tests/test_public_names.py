"""Every module-level public name of the package is read outside the tests,
and the package's top level exports exactly its pinned names.

The twin of ``test_private_names.py``.  A public name counts as read when
code of ``src/swgfem`` outside its own definition loads it, reads it as an
attribute or imports it, the re-exports of ``__init__.py`` aside; when the
benchmark's workloads call it as ``sw.<name>``; or when the benchmark's
tracer wraps it.  A function that only tests call, or a kernel re-exported
at the top level, fails here."""

import ast
import inspect
from pathlib import Path

import pytest

import swgfem
from test_private_names import TREES, top_level

BENCH = Path(__file__).resolve().parent.parent / "swgbench"

#: The names ``swgfem`` exports; adding or removing one changes this set.
EXPORTS = {
    "AssemblyConfig", "ConvergenceRow", "DmpReport", "DofMap", "ElementGeom",
    "EquivalenceReport", "FdStencil", "KappaConditionReport", "PROBLEM_IDS", "ProblemSpec",
    "Solution", "SolveConfig", "SparseSystem", "TensorMesh", "assemble", "assemble_fd5",
    "assemble_fd7", "build_tensor_mesh", "check_equivalence", "convergence_table",
    "discrete_h1_error", "discrete_l2_error", "dmp_check", "dump_matrix", "element_geometry",
    "enumerate_dofs", "get_problem", "kappa_condition", "make_custom", "mesh_for",
    "sign_inequality_value", "solve", "solve_problem", "split_pos_neg", "stencil_weights",
    "uniform_mesh",
}


def public_definitions():
    """(module, name, node) of each module-level public function, class or
    assignment target outside ``__init__.py``."""
    found = []
    for module, tree in TREES.items():
        if module == "__init__.py":
            continue
        for node in top_level(tree.body):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            found += [(module, name, node) for name in names if not name.startswith("_")]
    return found


def read_in_package(name, skip):
    """Whether the package, ``__init__.py`` aside, loads, reads as an
    attribute or imports ``name`` outside the subtree ``skip``."""
    for module, tree in TREES.items():
        if module == "__init__.py":
            continue
        stack = [tree]
        while stack:
            node = stack.pop()
            if node is skip:
                continue
            if ((isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load))
                    or (isinstance(node, ast.Attribute) and node.attr == name)
                    or (isinstance(node, ast.alias) and node.name == name)):
                return True
            stack.extend(ast.iter_child_nodes(node))
    return False


def bench_reads():
    """(module, name) of every traced function, and (None, name) of every
    ``sw.<name>`` in the workloads."""
    [targets] = [node.value for node in ast.parse((BENCH / "tracing.py").read_text()).body
                 if isinstance(node, ast.Assign) and node.targets[0].id == "TARGETS"]
    reads = {(module, name) for module, name, _ in ast.literal_eval(targets)}
    workloads = ast.parse((BENCH / "workloads.py").read_text())
    return reads | {(None, node.attr) for node in ast.walk(workloads)
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "sw"}


DEFINITIONS = public_definitions()
BENCH_READS = bench_reads()


def test_definitions_found():
    assert {("kernels.py", "local_operator"), ("cli.py", "main")} <= {
        (module, name) for module, name, _ in DEFINITIONS}
    assert {("swgfem.kernels", "weak_gradient"), (None, "SolveConfig")} <= BENCH_READS


@pytest.mark.parametrize("module, name, node", DEFINITIONS,
                         ids=[f"{module[:-3]}.{name}" for module, name, _ in DEFINITIONS])
def test_public_name_is_read(module, name, node):
    assert (read_in_package(name, skip=node)
            or {(f"swgfem.{module[:-3]}", name), (None, name)} & BENCH_READS), (
        f"{module}: {name} is read by nothing outside the tests")


def test_package_exports_exactly_its_names():
    assert {name for name, value in vars(swgfem).items()
            if not name.startswith("_") and not inspect.ismodule(value)} == EXPORTS
