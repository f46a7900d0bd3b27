"""Every module-level private name of the package is used somewhere in it.

A helper or constant whose last caller was deleted (a pattern a check no
longer reads, a cache nothing fills) lingers unnoticed, since nothing fails
without it.  This walks the package's syntax trees: a module-level
``_name`` counts as used when some code of ``src/swgfem`` outside its own
definition loads it, reads it as an attribute or imports it."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "swgfem"
TREES = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def top_level(body):
    """The statements run at module level, inside ``try`` and ``if`` included."""
    for node in body:
        yield node
        if isinstance(node, (ast.Try, ast.If)):
            for block in (node.body, node.orelse, getattr(node, "finalbody", []),
                          *(handler.body for handler in getattr(node, "handlers", []))):
                yield from top_level(block)


def private_definitions():
    """(module, name, node) of each module-level private function, class or
    assignment target."""
    found = []
    for module, tree in TREES.items():
        for node in top_level(tree.body):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            found += [(module, name, node) for name in names
                      if name.startswith("_") and not name.startswith("__")]
    return found


def uses(name, skip):
    """How often the package loads, reads as an attribute or imports
    ``name``, outside the subtree ``skip``."""
    count = 0
    for tree in TREES.values():
        stack = [tree]
        while stack:
            node = stack.pop()
            if node is skip:
                continue
            if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load):
                count += 1
            elif isinstance(node, ast.Attribute) and node.attr == name:
                count += 1
            elif isinstance(node, ast.alias) and node.name == name:
                count += 1
            stack.extend(ast.iter_child_nodes(node))
    return count


DEFINITIONS = private_definitions()


def test_definitions_found():
    assert {("assembly.py", "_edge_rows"), ("solver.py", "_malloc_trim")} <= {
        (module, name) for module, name, _ in DEFINITIONS}


@pytest.mark.parametrize("module, name, node", DEFINITIONS,
                         ids=[f"{module[:-3]}.{name}" for module, name, _ in DEFINITIONS])
def test_private_name_is_used(module, name, node):
    assert uses(name, skip=node), f"{module}: {name} is defined but never used"
