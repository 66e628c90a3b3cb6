"""Multi-branch convolutional low-rank adapters.

The ConvLoraAdapter compresses tokens through a shared low-rank bottleneck
and runs parallel k x k convolution pairs (one pair per kernel size, each
conv scaled by 1/k) on the token rows of the patch grid. The paper then
projects each branch back up and fuses the branches with a 1x1 conv. Those
stages are linear, so `forward` folds the up-projection, the scales and the
fuse into one (n*r, C) weight matrix that acts on the concatenated rank-r
branches. The update is exactly zero while the up-projection is at its zero
init, so a freshly built adapter leaves the network function untouched.

LowRankAdapter is the plain variant (down/up projection only) used for the
text groups and for the ablation baseline on vision groups.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, concat, conv_rows, matmul, reshape, transpose


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

    def branch_forward(self, z, k, grid):
        """One branch's two k x k convs on bottleneck rows z, unscaled and rank r."""
        return conv_rows(conv_rows(z, self.conv_down[k], grid), self.conv_up[k], grid)

    def forward(self, x, grid):
        """Residual update for (B, L, C) tokens; caller adds it to x. Row block i
        of the fold u is w_up @ fuse_i.T / k_i**2, fuse_i the fuse's branch-i block."""
        c = self.w_up.data.shape[1]
        scale = np.array([[[1.0 / k ** 2]] for k in self.branch_kernels])
        fuse = transpose(reshape(self.fuse_1x1, (c, len(scale), c)), (1, 2, 0))
        u = reshape(matmul(self.w_up, fuse) * scale, (-1, c))
        z = matmul(x, self.w_down)
        return matmul(concat([self.branch_forward(z, k, grid) for k in self.branch_kernels],
                             axis=-1), u)

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
        return matmul(matmul(x, self.w_down), self.w_up)

    __call__ = forward
