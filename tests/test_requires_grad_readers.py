"""`tensor.grad` alone decides which gradients are kept: every VJP returns a
gradient for each of its parents, and the reverse sweep drops those handed
to a parent that requires none. So `requires_grad` is read only where a
Tensor is made or a graph recorded (`Tensor`, `_node`), by `grad`, where
the trainables are listed (`GroupedModel.trainable_params`,
`checkpoint.frozen_digest`), and in the one skip left to a VJP: the
adapters' input gradient, which the group-0 adapters do not need because
their input is a cached prefix.

This guard reads the syntax tree of every module in the package and fails
on an access to a `requires_grad` attribute anywhere else, so a per-parent
switch cannot come back into a VJP or a backward kernel.
"""

import ast
from pathlib import Path

import anofuse

PACKAGE = Path(anofuse.__file__).parent
READERS = ("tensor.Tensor", "tensor._node", "tensor.grad", "model.GroupedModel.trainable_params",
           "checkpoint.frozen_digest", "adapter.ConvLoraAdapter.forward",
           "adapter.LowRankAdapter.forward")


def _accesses(node, scope):
    """(dotted scope, line) of every `requires_grad` attribute under node;
    the scope is the chain of enclosing classes and functions."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}"
        elif isinstance(child, ast.Attribute) and child.attr == "requires_grad":
            yield scope, child.lineno
        yield from _accesses(child, inner)


def _reader(scope):
    """The entry of READERS that holds `scope`, or None."""
    return next((r for r in READERS if scope == r or scope.startswith(r + ".")), None)


def test_requires_grad_is_read_only_where_grad_decides():
    accesses = [(scope, line) for path in sorted(PACKAGE.glob("*.py"))
                for scope, line in _accesses(ast.parse(path.read_text()), path.stem)]
    assert [f"{scope}:{line}" for scope, line in accesses if _reader(scope) is None] == []
    # and the list names no reader that has gone
    assert {_reader(scope) for scope, _ in accesses} == set(READERS)
