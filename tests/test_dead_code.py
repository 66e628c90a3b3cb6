"""Every function, method, class and module-level constant defined in the
package is named somewhere else in the package. A definition that nothing
names is dead code, or is kept alive only by tests. In the same way, every
definition in `tests/oracles.py` is named in some test file, so a reference
implementation cannot outlive its last test.

A name counts as used only where the syntax tree reads it: as a variable,
as an attribute (other than a numpy function such as `np.exp`), or in an
import. Assigning to a name does not use it. Docstrings and comments do
not count. A constant is a module-level assignment to an upper-case name.
"""

import ast
from pathlib import Path

import anofuse

PACKAGE = Path(anofuse.__file__).parent
TESTS = Path(__file__).parent


def _used_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if not isinstance(node.ctx, ast.Store):
                yield node.id
        elif isinstance(node, ast.Attribute):
            if not (isinstance(node.value, ast.Name) and node.value.id == "np"):
                yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.rsplit(".", 1)[-1]


def _constants(tree):
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and name.id.isupper():
                    yield name.id


def _unnamed(trees, users):
    """The names defined in `trees` that no tree in `users` names."""
    defined = {node.name for tree in trees for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    defined |= {name for tree in trees for name in _constants(tree)}
    used = {name for tree in users for name in _used_names(tree)}
    return sorted(name for name in defined
                  if not (name.startswith("__") and name.endswith("__")) and name not in used)


def test_every_definition_is_named_elsewhere_in_the_package():
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    assert _unnamed(trees, trees) == []


def test_every_reference_in_the_oracles_is_named_by_a_test():
    tests = [ast.parse(path.read_text()) for path in sorted(TESTS.glob("*.py"))]
    assert _unnamed([ast.parse((TESTS / "oracles.py").read_text())], tests) == []
