"""`tensor.py`, `model.py`, `adapter.py`, `gateway.py` and `losses.py` run
on every node of every training step, and at batch 1 a step costs more in
Python calls than in arithmetic. So all five call numpy's C entry points:
`np.add.reduce(x, axis) / n` for `x.mean(axis)`, `np.maximum.reduce` for
`x.max`, ndarray methods for `np.swapaxes` and `np.take`, slices for
`np.split`, and so on (see the `tensor` module docstring). Each gives the
same bits.

The same holds for the other functions that run once per step (the batch
gather in `train.train_steps`, `Adam.step`, `FusionGateway.forward`,
`data.batch_arrays`) and in the corpus generator. There the RNG draws are
made once per generated image (`data._draw_chunk`, `data._defect_mask`)
and the arithmetic runs once per chunk of images (`data._textures`,
`data._mean_std`, `data._render_chunk`, `data.gen_synthetic`); each noise
field is still upsampled by one matrix-vector product per image. Cold paths
elsewhere in those modules, such as `read_pgm`'s error message or
`Adam.__init__`, are not checked.

This guard reads the syntax tree and fails on a call to one of numpy's
Python-level wrappers, to the `.mean`/`.sum`/`.max`/`.std` array methods,
or on `np.mgrid` (a subscript, not a call), so the saving cannot come back
one call at a time.
"""

import ast
from pathlib import Path

import pytest

import anofuse

PACKAGE = Path(anofuse.__file__).parent
HOT_MODULES = ("tensor.py", "model.py", "adapter.py", "gateway.py", "losses.py")
HOT_FUNCTIONS = (("data.py", "_draw_chunk"), ("data.py", "_textures"), ("data.py", "_mean_std"),
                 ("data.py", "_render_chunk"), ("data.py", "_defect_mask"),
                 ("data.py", "gen_synthetic"), ("data.py", "batch_arrays"),
                 ("train.py", "train_steps"), ("train.py", "Adam.step"),
                 ("gateway.py", "FusionGateway.forward"))
NUMPY_WRAPPERS = frozenset({"argsort", "broadcast_to", "clip", "cumsum", "expand_dims", "max",
                            "mean", "split", "stack", "std", "sum", "swapaxes", "take",
                            "zeros_like"})
NUMPY_SUBSCRIPTS = frozenset({"mgrid"})
ARRAY_METHODS = frozenset({"max", "mean", "std", "sum"})


def _is_np(node):
    return isinstance(node, ast.Name) and node.id == "np"


def wrapper_calls(tree):
    """(line, call) of each call to a forbidden wrapper or array method, and
    of each use of a forbidden numpy subscript object."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _is_np(node.value) and node.attr in NUMPY_SUBSCRIPTS:
            yield node.lineno, f"np.{node.attr}"
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        func = node.func
        if _is_np(func.value):
            if func.attr in NUMPY_WRAPPERS:
                yield node.lineno, f"np.{func.attr}"
        elif func.attr in ARRAY_METHODS:
            yield node.lineno, f".{func.attr}("


def function_node(tree, qualname):
    """The definition of `qualname` ("name" or "Class.method") in `tree`."""
    node = tree
    for part in qualname.split("."):
        node = next(n for n in node.body
                    if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == part)
    return node


@pytest.mark.parametrize("module", HOT_MODULES)
def test_hot_path_calls_no_numpy_python_wrapper(module):
    assert list(wrapper_calls(ast.parse((PACKAGE / module).read_text()))) == []


@pytest.mark.parametrize("module,qualname", HOT_FUNCTIONS)
def test_hot_function_calls_no_numpy_python_wrapper(module, qualname):
    tree = function_node(ast.parse((PACKAGE / module).read_text()), qualname)
    assert list(wrapper_calls(tree)) == []


def test_the_guard_sees_each_kind_of_forbidden_call():
    source = "\n".join([
        "np.split(g, 2)", "np.swapaxes(a, -1, -2)", "x.mean(axis=-1)", "(g * y).sum()",
        "a.data.max(axis=1)",
        "np.expand_dims(g, 0)",
        "np.clip(x, 0.0, 1.0)",
        "np.std(x)",
        "img.std()",
        "yy, xx = np.mgrid[0:4, 0:4]",
        # allowed: the C entry points, builtins, and other names
        "np.add.reduce(x, -1)", "np.maximum.reduce(x)", "a.swapaxes(-1, -2)", "max(a, b)",
        "sum(xs)", "tt.tsum(x)", "np.concatenate(xs)", "np.minimum(np.maximum(x, 0.0), 1.0)",
        "np.arange(4).reshape(4, 1)",
    ])
    assert list(wrapper_calls(ast.parse(source))) == [
        (1, "np.split"), (2, "np.swapaxes"), (3, ".mean("), (4, ".sum("), (5, ".max("),
        (6, "np.expand_dims"), (7, "np.clip"), (8, "np.std"), (9, ".std("), (10, "np.mgrid")]


def test_the_guard_finds_methods_and_leaves_cold_paths_out():
    tree = ast.parse("\n".join([
        "class Adam:",
        "    def __init__(self):",
        "        self.ends = np.cumsum(sizes)",
        "    def step(self):",
        "        g = np.stack(gs)",
        "def read_pgm(path):",
        "    raise ValueError(data.max())",
    ]))
    assert list(wrapper_calls(function_node(tree, "Adam.step"))) == [(5, "np.stack")]
