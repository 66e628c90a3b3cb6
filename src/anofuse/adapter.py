"""Multi-branch convolutional low-rank adapters.

The ConvLoraAdapter compresses tokens through a shared low-rank bottleneck
and runs parallel k x k convolution pairs (one pair per kernel size, each
conv scaled by 1/k) on the token rows of the patch grid. The paper then
projects each branch back up and fuses the branches with a 1x1 conv. Those
stages are linear, so a call folds the up-projection, the scales and the
fuse into one (n*r, C) weight matrix that acts on the concatenated rank-r
branches. The update is exactly zero while the up-projection is at its zero
init, so a freshly built adapter leaves the network function untouched.

LowRankAdapter is the plain variant (down/up projection only) used for the
text groups and for the ablation baseline on vision groups.

Each adapter call returns the updated tokens as one graph node with a
hand-written VJP, as a frozen TransformerBlock does. The update applies to
the last H*W rows when a grid is given, so a class row in front of the patch
rows passes through, and to every row without one. The node runs the numpy
operations of the graph that the Tensor primitives would record
(its reference graph in `tests/oracles.py`), in the same order, so its
values and gradients carry the same bits. Its weights always
train; it skips the input gradient when the input needs none (the group-0
adapters read the model's constant prefixes).
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, _node, _unbroadcast, conv_rows_bwd, conv_rows_fwd


def _start(x, grid):
    """First row the update applies to: the rows before the last H*W."""
    return 0 if grid is None else x.shape[1] - grid[0] * grid[1]


def _updated(x, s, delta):
    """A copy of tokens x with delta added to rows s onward."""
    out = x.copy()
    out[:, s:] += delta
    return out


class ConvLoraAdapter:
    def __init__(self, channels, rank, branch_kernels, rng, name="conv_lora"):
        self.branch_kernels = tuple(branch_kernels)
        self.name = name
        c, r = channels, rank
        self.w_down = Tensor(rng.normal(0.0, c ** -0.5, (c, r)), trainable=True,
                             name=f"{name}.w_down")
        self.w_up = Tensor(np.zeros((r, c)), trainable=True, name=f"{name}.w_up")
        self.conv_down, self.conv_up = {}, {}
        for k in self.branch_kernels:
            std = (r * k * k) ** -0.5
            self.conv_down[k] = Tensor(rng.normal(0.0, std, (r, r, k, k)), trainable=True,
                                       name=f"{name}.conv_down_{k}")
            self.conv_up[k] = Tensor(rng.normal(0.0, std, (r, r, k, k)), trainable=True,
                                     name=f"{name}.conv_up_{k}")
        n_in = len(self.branch_kernels) * c
        self.fuse_1x1 = Tensor(rng.normal(0.0, n_in ** -0.5, (c, n_in, 1, 1)), trainable=True,
                               name=f"{name}.fuse_1x1")
        self.params = (self.w_down, self.w_up, *self.conv_down.values(), *self.conv_up.values(),
                       self.fuse_1x1)

    def forward(self, x, grid):
        """(B, L, C) tokens with the update added to their last H*W rows. Row
        block i of the fold u is w_up @ fuse_i.T / k_i**2, fuse_i the fuse's
        branch-i block; each branch's two convs stay rank r."""
        kernels = self.branch_kernels
        s = _start(x.data, grid)
        w_down, w_up = self.w_down.data, self.w_up.data
        r, c = w_up.shape
        scale = np.array([[[1.0 / k ** 2]] for k in kernels])
        fuse = self.fuse_1x1.data.reshape(c, len(kernels), c).transpose(1, 2, 0)
        u = (np.matmul(w_up, fuse) * scale).reshape(-1, c)
        z = np.matmul(x.data[:, s:], w_down)
        cols, branches = [], []
        for k in kernels:
            a, cols_z = conv_rows_fwd(z, self.conv_down[k].data, grid)
            y, cols_a = conv_rows_fwd(a, self.conv_up[k].data, grid)
            cols.append((cols_z, cols_a))
            branches.append(y)
        cat = np.concatenate(branches, axis=-1)

        def vjp(g):
            rows, gp = x.data[:, s:], g[:, s:]
            dcat = np.matmul(gp, u.T)
            du = _unbroadcast(np.matmul(cat.swapaxes(-1, -2), gp), u.shape)
            dm = du.reshape(len(kernels), r, c) * scale
            dw_up = _unbroadcast(np.matmul(dm, fuse.swapaxes(-1, -2)), w_up.shape)
            dfuse = np.matmul(w_up.T, dm).transpose(2, 0, 1).reshape(self.fuse_1x1.data.shape)
            dz, dconv_down, dconv_up = None, [], []
            for i, (k, (cols_z, cols_a)) in enumerate(zip(kernels, cols)):
                da, dw = conv_rows_bwd(dcat[..., i * r:(i + 1) * r], cols_a,
                                       self.conv_up[k].data, grid)
                dconv_up.append(dw)
                dzk, dw = conv_rows_bwd(da, cols_z, self.conv_down[k].data, grid)
                dconv_down.append(dw)
                dz = dzk if dz is None else dz + dzk
            dw_down = _unbroadcast(np.matmul(rows.swapaxes(-1, -2), dz), w_down.shape)
            # the one skip left to a VJP (`grad` drops every other unwanted
            # gradient): at group 0, x is the cached vision prefix, and its
            # gradient is a matmul and a copy of the whole token tensor
            # (278 KB at batch 32, above glibc's mmap threshold)
            dx = _updated(g, s, np.matmul(dz, w_down.T)) if x.requires_grad else None
            return (dx, dw_down, dw_up, *dconv_down, *dconv_up, dfuse)
        return _node(_updated(x.data, s, np.matmul(cat, u)), (x, *self.params), vjp)

    __call__ = forward


class LowRankAdapter:
    """Plain rank-r residual adapter: x @ w_down @ w_up, up starts at zero."""

    def __init__(self, channels, rank, rng, name="lora"):
        self.name = name
        self.w_down = Tensor(rng.normal(0.0, channels ** -0.5, (channels, rank)), trainable=True,
                             name=f"{name}.w_down")
        self.w_up = Tensor(np.zeros((rank, channels)), trainable=True, name=f"{name}.w_up")
        self.params = (self.w_down, self.w_up)

    def forward(self, x, grid=None):
        """(B, L, C) tokens with the update added to their last H*W rows, or
        to every row without a grid."""
        s = _start(x.data, grid)
        w_down, w_up = self.w_down.data, self.w_up.data
        z = np.matmul(x.data[:, s:], w_down)

        def vjp(g):
            gp = g[:, s:]
            dz = np.matmul(gp, w_up.T)
            dw_up = _unbroadcast(np.matmul(z.swapaxes(-1, -2), gp), w_up.shape)
            dw_down = _unbroadcast(np.matmul(x.data[:, s:].swapaxes(-1, -2), dz), w_down.shape)
            # skipped as in ConvLoraAdapter: at group 0, x is a cached prefix
            # (the vision prefix in the low-rank ablation, or the text prefix)
            dx = _updated(g, s, np.matmul(dz, w_down.T)) if x.requires_grad else None
            return (dx, dw_down, dw_up)
        return _node(_updated(x.data, s, np.matmul(z, w_up)), (x, self.w_down, self.w_up), vjp)

    __call__ = forward
