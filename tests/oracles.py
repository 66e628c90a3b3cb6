"""Reference implementations that the tests compare the program against.

The program computes each layer as one graph node with a hand-written VJP
(a frozen block, an adapter call, the fusion gateway, the cosine-softmax
head and each loss). This module holds the second implementation of each,
and nothing in `anofuse` imports it:

- the Tensor primitives that only a reference graph records, built on the
  same `_node` and `_unbroadcast` as the four that the program records;
- the layers as graphs of those primitives. A node runs the numpy
  operations of its graph in the same order, so it must reproduce the
  graph's value and gradients bit for bit (the frozen block's input
  gradient to 1e-12 relative);
- the layers as straight-line numpy recomputations (`*_composition`), which
  hold the values to 1e-12.

The straight-line checks that `anofuse selftest` runs on a fresh checkout
(`conv2d_loops`, `auroc_pairs`, `ap_sweep`, `half_bce`) stay in
`anofuse.verify`. `tests/test_dead_code.py` fails on a definition here that
no test names.
"""

import math

import numpy as np

from anofuse.adapter import LowRankAdapter
from anofuse.errors import ShapeError
from anofuse.gateway import STATES, aligned_weights
from anofuse.losses import CLAMP_EPS
from anofuse.tensor import (NORM_FLOOR, Tensor, _node, _unbroadcast, bilinear_matrix,
                            conv_rows_bwd, conv_rows_fwd, gelu_bwd, gelu_fwd, grad,
                            layer_norm_bwd, layer_norm_fwd, softmax_bwd, softmax_fwd, stack)
from anofuse.verify import conv2d_loops, maps_to_rows, rows_to_maps

# ---------------------------------------------------------------------------
# Tensor primitives


def sub(a, b):
    return _node(a.data - b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)))


def div(a, b):
    return _node(a.data / b.data, (a, b),
                 lambda g: (_unbroadcast(g / b.data, a.data.shape),
                            _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)))


def pow_const(a, c):
    c = float(c)
    return _node(a.data ** c, (a,),
                 lambda g: (g * c * a.data ** (c - 1.0),))


def log(a):
    return _node(np.log(a.data), (a,), lambda g: (g / a.data,))


def tanh(a):
    out_data = np.tanh(a.data)
    return _node(out_data, (a,), lambda g: (g * (1.0 - out_data * out_data),))


def sqrt(a):
    out_data = np.sqrt(a.data)
    return _node(out_data, (a,), lambda g: (g / (2.0 * out_data),))


def clip(a, lo, hi):
    """Clamp into [lo, hi]; gradient is zero where the clamp binds."""
    lo, hi = float(lo), float(hi)

    def vjp(g):
        return (g * ((a.data > lo) & (a.data < hi)),)
    return _node(np.minimum(np.maximum(a.data, lo), hi), (a,), vjp)


def _spread(g, shape, axis, keepdims):
    """A new array of `shape` holding g broadcast back over the reduced axes."""
    out = np.empty(shape)
    if not (axis is None or keepdims):
        axes = {i % len(shape) for i in (axis if isinstance(axis, tuple) else (axis,))}
        g = g.reshape([1 if i in axes else d for i, d in enumerate(shape)])
    out[...] = g
    return out


def tsum(a, axis=None, keepdims=False):
    return _node(np.add.reduce(a.data, axis, keepdims=keepdims), (a,),
                 lambda g: (_spread(g, a.data.shape, axis, keepdims),))


def tmean(a, axis=None, keepdims=False):
    if axis is None:
        n = a.data.size
    else:
        n = math.prod(a.data.shape[i] for i in (axis if isinstance(axis, tuple) else (axis,)))
    return _node(np.add.reduce(a.data, axis, keepdims=keepdims) / n, (a,),
                 lambda g: (_spread(g / n, a.data.shape, axis, keepdims),))


def reshape(a, shape):
    return _node(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.data.shape),))


def transpose(a, axes):
    inv = sorted(range(len(axes)), key=axes.__getitem__)  # the inverse permutation
    return _node(a.data.transpose(axes), (a,), lambda g: (g.transpose(inv),))


def concat(tensors, axis):
    tensors = list(tensors)

    def vjp(g):
        # each member's gradient is the view of g at its running offset
        lead = (slice(None),) * (axis % g.ndim)
        grads, lo = [], 0
        for t in tensors:
            hi = lo + t.data.shape[axis]
            grads.append(g[lead + (slice(lo, hi),)])
            lo = hi
        return grads
    return _node(np.concatenate([t.data for t in tensors], axis=axis), tensors, vjp)


def matmul(a, b):
    """np.matmul for operands of rank >= 2, with batch broadcasting."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError("matmul operands must have rank >= 2")

    def vjp(g):
        return (_unbroadcast(np.matmul(g, b.data.swapaxes(-1, -2)), a.data.shape),
                _unbroadcast(np.matmul(a.data.swapaxes(-1, -2), g), b.data.shape))
    return _node(np.matmul(a.data, b.data), (a, b), vjp)


def softmax(a, axis=-1):
    out_data = softmax_fwd(a.data, axis)
    return _node(out_data, (a,), lambda g: (softmax_bwd(g, out_data, axis),))


def layer_norm(a, eps=1e-5):
    y, r = layer_norm_fwd(a.data, eps)
    return _node(y, (a,), lambda g: (layer_norm_bwd(g, y, r),))


def gelu(a):
    out_data, t = gelu_fwd(a.data)
    return _node(out_data, (a,), lambda g: (gelu_bwd(g, a.data, t),))


def conv_rows(x, w, grid):
    """`conv_rows_fwd` as a graph node."""
    y, cols = conv_rows_fwd(x.data, w.data, grid)
    return _node(y, (x, w), lambda g: conv_rows_bwd(g, cols, w.data, grid))


# ---------------------------------------------------------------------------
# straight-line compositions of the layers


def adapter_branch_composition(x, adapter, k, grid):
    """One Conv-LoRA branch on (B, L, C) array tokens: bottleneck, two
    1/k-scaled k x k loop convolutions on the (B, r, H, W) map,
    up-projection."""
    z = rows_to_maps(x @ adapter.w_down.data, grid)
    z = conv2d_loops(z, adapter.conv_down[k].data) / k
    z = conv2d_loops(z, adapter.conv_up[k].data) / k
    return maps_to_rows(z) @ adapter.w_up.data


def adapter_composition(x, adapter, grid):
    """Conv-LoRA on (B, L, C) array tokens: the tokens with the residual
    update added to their last H*W rows. The update is every branch,
    concatenated along channels, fused by the 1x1 loop convolution."""
    s = x.shape[1] - grid[0] * grid[1]
    maps = [rows_to_maps(adapter_branch_composition(x[:, s:], adapter, k, grid), grid)
            for k in adapter.branch_kernels]
    update = maps_to_rows(conv2d_loops(np.concatenate(maps, axis=1), adapter.fuse_1x1.data))
    return np.concatenate([x[:, :s], x[:, s:] + update], axis=1)


def gateway_composition(gateway, v_list, t_feats, grid):
    """Per-level maps of a dynamic gateway on (N, S, C) text features: pool,
    gate, normalise, fuse, cosine, two-way softmax at its temperature."""
    n = len(v_list)
    maps = []
    for i in range(n):
        v = v_list[i].data
        vg = v.mean(axis=1)
        nv = np.sqrt((v * v).sum(axis=2))
        sims = []
        for s, state in enumerate(STATES):
            logits = np.tanh(vg @ gateway.w1[state].data) @ gateway.w2[state].data
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            t = (e / e.sum(axis=1, keepdims=True)) @ t_feats.data[:, s, :]
            nt = np.sqrt((t * t).sum(axis=1))
            sims.append((v * t[:, None, :]).sum(axis=2) / (nv * nt[:, None]))
        z = np.stack(sims, axis=-1) / gateway.temperature
        ez = np.exp(z - z.max(axis=-1, keepdims=True))
        maps.append((ez[..., 1] / ez.sum(axis=-1)).reshape(v.shape[0], *grid))
    return maps


# ---------------------------------------------------------------------------
# Tensor-primitive graphs of the one-node layers: the references for the
# frozen block, the adapters, the gateway, the cosine-softmax head and the
# two losses. Each node must reproduce its graph's values and gradients bit
# for bit, but for the block's input gradient, held to 1e-12 relative.


def block_composition(block, x):
    """A frozen TransformerBlock composed from Tensor primitives, one graph
    node per op: the reference for the fused block's forward values and
    input gradient."""
    b, l, c = x.data.shape
    h = layer_norm(x)
    q, k, v = (transpose(reshape(matmul(h, w), (b, l, block.heads, block.head_dim)), (0, 2, 1, 3))
               for w in (block.wq, block.wk, block.wv))
    attn = softmax(matmul(q, transpose(k, (0, 1, 3, 2))) * block.scale, axis=-1)
    x = x + matmul(reshape(transpose(matmul(attn, v), (0, 2, 1, 3)), (b, l, c)), block.wo)
    return x + matmul(gelu(matmul(layer_norm(x), block.w1)), block.w2)


def adapter_graph(ad, x, grid):
    """The adapter as the graph of Tensor primitives that its one node
    replaces: slice the grid rows, bottleneck, convs, concat, fold, residual
    add, and the concat that puts the rows in front back."""
    s = 0 if grid is None else x.data.shape[1] - grid[0] * grid[1]
    rows = x[:, s:, :]
    if isinstance(ad, LowRankAdapter):
        delta = matmul(matmul(rows, ad.w_down), ad.w_up)
    else:
        c = ad.w_up.data.shape[1]
        scale = np.array([[[1.0 / k ** 2]] for k in ad.branch_kernels])
        fuse = transpose(reshape(ad.fuse_1x1, (c, len(scale), c)), (1, 2, 0))
        u = reshape(matmul(ad.w_up, fuse) * scale, (-1, c))
        z = matmul(rows, ad.w_down)
        delta = matmul(concat([conv_rows(conv_rows(z, ad.conv_down[k], grid), ad.conv_up[k], grid)
                               for k in ad.branch_kernels], axis=-1), u)
    rows = rows + delta
    return concat([x[:, :s, :], rows], axis=1) if s else rows


def cosine(u, v):
    """Cosine similarity of every row of u (..., L, C) with every row of v
    (..., S, C): one (..., L, S) matmul over C; leading axes broadcast."""
    nd = v.data.ndim
    vt = transpose(v, tuple(range(nd - 2)) + (nd - 1, nd - 2))
    nu = sqrt(clip(tsum(u * u, axis=-1, keepdims=True), NORM_FLOOR, np.inf))
    nv = sqrt(clip(tsum(vt * vt, axis=-2, keepdims=True), NORM_FLOOR, np.inf))
    return div(matmul(u, vt), nu * nv)


def bilinear_upsample(m, target):
    """Upsample a (B, H, W) batch of single-channel maps to `target`."""
    b, sh, sw = m.data.shape
    a = bilinear_matrix((sh, sw), target)
    out = matmul(Tensor(a), reshape(m, (b, sh * sw, 1)))  # (b, dh*dw, 1) via broadcast
    return reshape(out, (b, target[0], target[1]))


def state_probs_graph(x, t, temperature):
    """`gateway.state_probs` as a graph of Tensor primitives."""
    return softmax(cosine(x, t) * (1.0 / temperature), axis=-1)


def gateway_graph(gateway, v_list, t_feats, grid, pixel_hw):
    """`FusionGateway.forward` as a graph of Tensor primitives: the
    (N, B, H, W) level maps and the upsampled mean."""
    n = gateway.n_groups
    v = stack(v_list)  # (N, B, L, C)
    _, b, _, c = v.data.shape
    if gateway.dynamic:
        v_glob = tmean(v, axis=2)
        w = [softmax(matmul(tanh(matmul(v_glob, gateway.w1[state])), gateway.w2[state]), axis=-1)
             for state in STATES]
    else:
        w = [Tensor(aligned_weights(n, b))] * len(STATES)
    t = concat([reshape(matmul(w[s], t_feats[:, s, :]), (n, b, 1, c))
                for s in range(len(STATES))], axis=2)  # (N, B, S, C)
    maps = reshape(state_probs_graph(v, t, gateway.temperature)[..., 1],
                   (n, b) + tuple(grid))
    return maps, bilinear_upsample(tsum(maps, axis=0) * (1.0 / n), pixel_hw)


def focal_loss(pred, target, gamma, alpha):
    """Mean focal term of a pred Tensor against a float64 target array of its
    shape; predictions are clamped away from exact 0/1."""
    p = clip(pred, CLAMP_EPS, 1.0 - CLAMP_EPS)
    pos = pow_const(sub(Tensor(1.0), p), gamma) * log(p) * (-alpha)
    neg = pow_const(p, gamma) * log(sub(Tensor(1.0), p)) * (alpha - 1.0)
    return tmean(pos * target + neg * (1.0 - target))


def dice_loss(pred, target, smooth):
    """1 - (2*overlap + smooth) / (mass_pred + mass_target + smooth), for a
    pred Tensor and a float64 target array of its shape."""
    inter = tsum(pred * target)
    denom = tsum(pred) + float(target.sum())
    return sub(Tensor(1.0), div(inter * 2.0 + smooth, denom + smooth))


def seg_loss_graph(pred, target, cfg):
    """`losses.seg_loss` as a graph of Tensor primitives."""
    target = np.asarray(target, dtype=np.float64)
    return (focal_loss(pred, target, cfg.focal_gamma, cfg.focal_alpha) * cfg.lambda_focal
            + dice_loss(pred, target, cfg.dice_smooth) * cfg.lambda_dice)


def cls_loss_graph(probs, labels):
    """`losses.cls_loss` as a graph of Tensor primitives."""
    labels = np.asarray(labels)
    onehot = np.zeros((labels.shape[0], 2))
    onehot[np.arange(labels.shape[0]), labels.astype(int)] = 1.0
    picked = tsum(probs * onehot, axis=1)
    return tmean(log(clip(picked, CLAMP_EPS * CLAMP_EPS, 1.0))) * -1.0


def node_and_graph(node, graph, params, probe=None):
    """The value and the gradients of a one-node layer, `node()`, and of its
    Tensor-primitive graph, `graph()`, both functions of the tensors in
    `params`: a (value, {name: gradient}) pair each. The objective is the
    output itself when `probe` is None, else sum(probe * output)."""
    pairs = []
    for f in (node, graph):
        y = f()
        pairs.append((y.data, grad(y if probe is None else tsum(y * probe), params)))
    return pairs


def same_bits(pairs):
    """Whether the two (value, gradients) pairs of `node_and_graph` are equal
    element for element."""
    (a, ga), (b, gb) = pairs
    return (np.array_equal(a, b) and ga.keys() == gb.keys()
            and all(np.array_equal(ga[k], gb[k]) for k in ga))
