"""`tensor.py` and `model.py` run on every node of every training step, and
at batch 1 a step costs more in Python calls than in arithmetic. So both
call numpy's C entry points: `np.add.reduce(x, axis) / n` for
`x.mean(axis)`, `np.maximum.reduce` for `x.max`, ndarray methods for
`np.swapaxes` and `np.take`, slices for `np.split`, and so on (see the
`tensor` module docstring). Each gives the same bits.

This guard reads the syntax tree and fails on a call to one of numpy's
Python-level wrappers, or to the `.mean`/`.sum`/`.max` array methods, in
either module, so the saving cannot come back one call at a time.
"""

import ast
from pathlib import Path

import pytest

import anofuse

PACKAGE = Path(anofuse.__file__).parent
HOT_MODULES = ("tensor.py", "model.py")
NUMPY_WRAPPERS = frozenset({"argsort", "broadcast_to", "cumsum", "max", "mean", "split", "stack",
                            "sum", "swapaxes", "take", "zeros_like"})
ARRAY_METHODS = frozenset({"max", "mean", "sum"})


def wrapper_calls(tree):
    """(line, call) of each call to a forbidden wrapper or array method."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        func = node.func
        if isinstance(func.value, ast.Name) and func.value.id == "np":
            if func.attr in NUMPY_WRAPPERS:
                yield node.lineno, f"np.{func.attr}"
        elif func.attr in ARRAY_METHODS:
            yield node.lineno, f".{func.attr}("


@pytest.mark.parametrize("module", HOT_MODULES)
def test_hot_path_calls_no_numpy_python_wrapper(module):
    assert list(wrapper_calls(ast.parse((PACKAGE / module).read_text()))) == []


def test_the_guard_sees_each_kind_of_forbidden_call():
    source = "\n".join([
        "np.split(g, 2)", "np.swapaxes(a, -1, -2)", "x.mean(axis=-1)", "(g * y).sum()",
        "a.data.max(axis=1)",
        # allowed: the C entry points, builtins, and other names
        "np.add.reduce(x, -1)", "np.maximum.reduce(x)", "a.swapaxes(-1, -2)", "max(a, b)",
        "sum(xs)", "tt.tsum(x)", "np.concatenate(xs)",
    ])
    assert list(wrapper_calls(ast.parse(source))) == [
        (1, "np.split"), (2, "np.swapaxes"), (3, ".mean("), (4, ".sum("), (5, ".max(")]
