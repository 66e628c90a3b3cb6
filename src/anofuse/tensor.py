"""Dense float64 tensor kernels with reverse-mode automatic differentiation.

Everything downstream is built from the kernels here. Each layer is one
graph node over the array-level kernels: a frozen encoder block, an
adapter call, the fusion gateway, the cosine-softmax image head, and each
of the two losses. The four Tensor primitives here (`add`, `mul`, `stack`,
`slice_tensor`) record the rest: the slices between layers, the text stack
and the sum of the losses. The reference graphs that the one-node layers
must match, and the primitives only they use, live in `tests/oracles.py`.
All arrays are double precision and all kernels are pure functions of
their inputs, so results are deterministic for a fixed seed.
Gradients are produced by `grad()` and are validated against central
finite differences in the test suite.

Layout convention: token sequences are (B, L, C) rows of a row-major
(H, W) patch grid; convolutions run on those rows.

Hot-path code calls numpy's C entry points in place of its Python-level
wrappers (`np.add.reduce(x, axis) / n` for `x.mean(axis)`,
`np.maximum.reduce` for `x.max`, ndarray methods for `np.swapaxes` and
`np.take`, slices for `np.split`): each gives the same bits, and at batch 1
the wrappers cost more than the arithmetic.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, ShapeError

_GRAD_ENABLED = [True]


class no_grad:
    """Context manager that disables graph recording (pure forward eval)."""

    def __enter__(self):
        _GRAD_ENABLED.append(False)
        return self

    def __exit__(self, *exc):
        _GRAD_ENABLED.pop()
        return False


class Tensor:
    """A float64 array plus optional autodiff bookkeeping.

    A leaf created with ``trainable=True`` requires a gradient; `grad()`
    returns one for it. Interior nodes keep parent links and a
    vector-Jacobian-product closure.
    """

    __slots__ = ("data", "requires_grad", "name", "_parents", "_vjp")

    def __init__(self, data, trainable=False, name=""):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(trainable)
        self.name = name
        self._parents = ()
        self._vjp = None

    def __repr__(self):
        flag = " requires_grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag} name={self.name!r})"

    # operator sugar; scalars and ndarrays are promoted to constant tensors
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __getitem__(self, idx):
        return slice_tensor(self, idx)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else _node(np.asarray(x, dtype=np.float64), (), None)


def _node(data, parents, vjp):
    # fast constructor: interior results are always float64 ndarrays already
    out = Tensor.__new__(Tensor)
    out.data = data
    out.name = ""
    if _GRAD_ENABLED[-1]:
        for p in parents:
            if p.requires_grad:
                out.requires_grad = True
                out._parents = tuple(parents)
                out._vjp = vjp
                return out
    out.requires_grad = False
    out._parents = ()
    out._vjp = None
    return out


def _unbroadcast(g, shape):
    """Reduce gradient g back to `shape` after numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = np.add.reduce(g, tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = np.add.reduce(g, axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# graph primitives


# A VJP returns a gradient for each of its parents, and `grad` drops the one
# handed to a parent that needs none (a frozen weight or a constant). The
# backbone's weights never reach these primitives: a frozen block is one node
# whose only parent is its input. The other Tensor primitives, which only the
# reference graphs use, are in `tests/oracles.py`.


def add(a, b):
    return _node(a.data + b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)))


def mul(a, b):
    return _node(a.data * b.data, (a, b), lambda g: (_unbroadcast(g * b.data, a.data.shape),
                                                     _unbroadcast(g * a.data, b.data.shape)))


def stack(tensors):
    """Equal-shape tensors stacked along a new leading axis."""
    tensors = list(tensors)
    return _node(np.concatenate([t.data[None] for t in tensors]), tensors, lambda g: tuple(g))


def slice_tensor(a, idx):
    """Basic slicing only (no fancy indexing), so the VJP is a plain scatter."""
    def vjp(g):
        buf = np.zeros(a.data.shape)
        buf[idx] = g
        return (buf,)
    return _node(a.data[idx], (a,), vjp)


# ---------------------------------------------------------------------------
# neural primitives
#
# Each formula is written once, as an array-level forward and backward pair
# (`conv_rows_fwd`/`conv_rows_bwd` and `cosine_softmax_fwd`/
# `cosine_softmax_bwd` below too). The one-node layers call these: a frozen
# TransformerBlock (model.py), an adapter call (adapter.py), which returns
# the updated tokens, and the fusion gateway and the image head
# (gateway.py). Each of those is one graph node with a hand-written VJP. The
# Tensor-primitive versions that the reference graphs record are in
# `tests/oracles.py`.


def softmax_fwd(x, axis=-1):
    """Numerically stable softmax (max-subtraction) along `axis`."""
    e = np.exp(x - np.maximum.reduce(x, axis, keepdims=True))
    return e / np.add.reduce(e, axis, keepdims=True)


def softmax_bwd(g, out, axis=-1):
    """Input gradient of softmax from its output `out`."""
    return out * (g - np.add.reduce(g * out, axis, keepdims=True))


def layer_norm_fwd(x, eps=1e-5):
    """LayerNorm over the last axis, no affine parameters: the output y and
    the reciprocal standard deviation r that the backward reads."""
    n = x.shape[-1]
    xc = x - np.add.reduce(x, -1, keepdims=True) / n
    r = 1.0 / np.sqrt(np.add.reduce(xc * xc, -1, keepdims=True) / n + eps)
    return xc * r, r


def layer_norm_bwd(g, y, r):
    """Input gradient of LayerNorm from its output y and r."""
    n = g.shape[-1]
    gm = np.add.reduce(g, -1, keepdims=True) / n
    gym = np.add.reduce(g * y, -1, keepdims=True) / n
    return r * (g - gm - y * gym)


_GELU_C = float(np.sqrt(2.0 / np.pi))


def gelu_fwd(x):
    """tanh-form GELU: the output and the tanh term t that the backward reads."""
    t = np.tanh(_GELU_C * (x + 0.044715 * ((x * x) * x)))
    return 0.5 * x * (1.0 + t), t


def gelu_bwd(g, x, t):
    """Input gradient of GELU at x, with t from `gelu_fwd`:
    g * (0.5 * (1 + t) + 0.5 * x * (1 - t * t) * du), du = C * (1 + 3 * 0.044715 * x * x).

    Computed in place in two buffers: at batch 32 the MLP activations are
    large enough that every further temporary costs a trip to memory."""
    du = x * x
    du *= 3 * 0.044715
    du += 1.0
    du *= _GELU_C
    s = t * t
    np.subtract(1.0, s, out=s)
    s *= x
    s *= 0.5
    s *= du
    np.add(t, 1.0, out=du)
    du *= 0.5
    du += s
    du *= g
    return du


# ---------------------------------------------------------------------------
# convolution on token rows


@lru_cache(maxsize=None)
def _neighbours(grid, k):
    """(L, k*k) row index of each token's k x k neighbourhood on an (H, W)
    grid, L = H*W: entry (l, i*k + j) is the token at (h + i - p, w + j - p)
    for l = h*W + w, p = (k - 1) // 2, or L (a zero row) off the grid."""
    h, w = grid
    rows, cols = np.divmod(np.arange(h * w), w)
    d = np.arange(k) - (k - 1) // 2
    r = rows[:, None, None] + d[None, :, None]
    c = cols[:, None, None] + d[None, None, :]
    inside = (r >= 0) & (r < h) & (c >= 0) & (c < w)
    return np.where(inside, r * w + c, h * w).reshape(h * w, k * k)


def _columns(a, idx):
    """The (B*L, k*k*C) neighbourhood columns of (B, L, C) rows `a`."""
    b, l, c = a.shape
    padded = np.zeros((b, l + 1, c))
    padded[:, :l] = a
    return padded.take(idx, axis=1).reshape(b * l, -1)


def conv_rows_fwd(x, w, grid):
    """k x k convolution with zero 'same' padding, no bias, odd k only, on
    (B, L, Cin) token rows of a row-major (H, W) grid; w is (Cout, Cin, k, k).
    Gathers each token's neighbourhood and runs one GEMM: the output and the
    (B*L, k*k*Cin) columns that the backward reads."""
    cout, cin, k, _ = w.shape
    if k % 2 == 0:
        raise ConfigurationError(f"kernel size must be odd, got {k}")
    b, l, c = x.shape
    if cin != c:
        raise ShapeError(f"channel mismatch: input {c}, kernel {cin}")
    if l != grid[0] * grid[1]:
        raise ShapeError(f"sequence length {l} != grid {grid[0]}x{grid[1]}")
    cols = _columns(x, _neighbours(grid, k))
    return (cols @ w.transpose(2, 3, 1, 0).reshape(k * k * cin, cout)).reshape(b, l, cout), cols


def conv_rows_bwd(g, cols, w, grid):
    """Input and weight gradients of `conv_rows_fwd` from the output gradient
    g and the forward's columns. The input gradient is the same gather on g
    with w flipped in space and its channel axes swapped, which for odd k and
    'same' padding is the transposed convolution."""
    cout, cin, k, _ = w.shape
    b, l, _ = g.shape
    dw = (cols.T @ g.reshape(b * l, cout)).reshape(k, k, cin, cout).transpose(3, 2, 0, 1)
    wt = w[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(k * k * cout, cin)
    dx = (_columns(g, _neighbours(grid, k)) @ wt).reshape(b, l, cin)
    return dx, dw


# ---------------------------------------------------------------------------
# cosine-softmax head, upsampling


# floor applied to squared norms in `cosine_softmax_fwd`; far below any
# realistic feature norm, so it never perturbs gradients
NORM_FLOOR = 1e-30


def cosine_softmax_fwd(x, t, temperature):
    """Softmax over S, at `temperature`, of the cosine similarities of the
    rows of x (..., L, C) to the rows of t (..., S, C): one (..., L, S)
    matmul over C; leading axes broadcast. The (..., L, S) probabilities and
    the arrays that `cosine_softmax_bwd` reads."""
    tt = t.swapaxes(-1, -2)
    sx = np.add.reduce(x * x, -1, keepdims=True)
    st = np.add.reduce(tt * tt, -2, keepdims=True)
    nx, nt = np.sqrt(np.maximum(sx, NORM_FLOOR)), np.sqrt(np.maximum(st, NORM_FLOOR))
    m = np.matmul(x, tt)
    d = nx * nt
    probs = softmax_fwd(m / d * (1.0 / temperature))
    return probs, (x, tt, sx, st, nx, nt, m, d, probs)


def cosine_softmax_bwd(g, saved, temperature):
    """Gradients of `cosine_softmax_fwd` for x and t from the gradient g of
    its probabilities. A squared norm's gradient passes its square root and
    its floor (zero where the floor binds) and reaches the rows twice, as the
    two factors of x * x."""
    x, tt, sx, st, nx, nt, m, d, probs = saved
    gc = softmax_bwd(g, probs) * (1.0 / temperature)
    dm = gc / d
    dd = -gc * m / (d * d)
    gx = (_unbroadcast(dd * nt, nx.shape) / (2.0 * nx)
          * ((sx > NORM_FLOOR) & (sx < np.inf)) * x)
    dx = _unbroadcast(np.matmul(dm, tt.swapaxes(-1, -2)), x.shape)
    dx += gx
    dx += gx
    gt = (_unbroadcast(dd * nx, nt.shape) / (2.0 * nt)
          * ((st > NORM_FLOOR) & (st < np.inf)) * tt)
    dt = _unbroadcast(np.matmul(x.swapaxes(-1, -2), dm), tt.shape)
    dt += gt
    dt += gt
    return dx, dt.swapaxes(-1, -2)


@lru_cache(maxsize=None)
def bilinear_matrix(src_hw, dst_hw):
    """Interpolation matrix A with vec(out) = A @ vec(src), corner-aligned."""
    sh, sw = src_hw
    dh, dw = dst_hw
    if dh < sh or dw < sw:
        raise ShapeError(f"upsample target {dst_hw} smaller than source {src_hw}")

    def axis_weights(n_src, n_dst):
        w = np.zeros((n_dst, n_src))
        if n_src == 1:
            w[:, 0] = 1.0
            return w
        scale = (n_src - 1) / (n_dst - 1)
        for i in range(n_dst):
            pos = i * scale
            lo = min(int(np.floor(pos)), n_src - 2)
            frac = pos - lo
            w[i, lo] = 1.0 - frac
            w[i, lo + 1] = frac
        return w

    return np.kron(axis_weights(sh, dh), axis_weights(sw, dw))


# ---------------------------------------------------------------------------
# gradients


def grad(loss, params):
    """Gradients of a scalar loss for every tensor in `params` (a name ->
    Tensor map) that requires one; a frozen entry gets no entry.

    One reverse sweep from `loss` in topological order. This is the one
    place that decides which gradients are kept: a VJP returns one for each
    parent, and the sweep drops those of parents that require none. A
    non-finite loss gives non-finite gradients, and `train` checks the loss
    first.
    """
    if not isinstance(loss, Tensor) or loss.data.size != 1:
        raise ShapeError("grad() wants a scalar loss Tensor")
    # a Tensor hashes and compares by identity, so it keys the sets and dicts
    order = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and p not in seen:
                stack.append((p, False))
    # every consumer of a node comes before it in the reverse walk and hands it
    # an array, so its gradient is complete when its turn comes; a leaf's stays
    grads = {loss: np.ones_like(loss.data)}
    for node in reversed(order):
        if node._vjp is None:
            continue
        for parent, pg in zip(node._parents, node._vjp(grads.pop(node))):
            if not parent.requires_grad:
                continue
            # out of place: a VJP may hand one array (or views of it)
            # to several parents, and a leaf may already hold it
            prev = grads.get(parent)
            grads[parent] = pg if prev is None else prev + pg
    out = {}
    for name, p in params.items():
        if p.requires_grad:
            g = grads.get(p)
            out[name] = g if g is not None else np.zeros(p.data.shape)
    return out
