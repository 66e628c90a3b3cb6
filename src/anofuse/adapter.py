"""Multi-branch convolutional low-rank adapters.

The ConvLoraAdapter compresses tokens through a shared low-rank bottleneck,
runs parallel k x k convolution pairs (one pair per kernel size, each conv
scaled by 1/k) on the token rows of the patch grid, projects each branch
back up, and fuses the branch outputs, concatenated along channels, with
the same row convolution at k = 1. The result is a residual update the
caller adds to its tokens. With the up-projection at
its zero init the update is exactly zero, so a freshly built adapter leaves
the network function untouched.

LowRankAdapter is the plain variant (down/up projection only) used for the
text groups and for the ablation baseline on vision groups.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, concat, conv_rows, matmul


class ConvLoraAdapter:
    def __init__(self, channels, rank, branch_kernels, rng, name="conv_lora"):
        self.branch_kernels = tuple(branch_kernels)
        self.name = name
        c, r = channels, rank
        self.w_down = Tensor(rng.normal(0.0, c ** -0.5, (c, r)), trainable=True,
                             name=f"{name}.w_down")
        self.w_up = Tensor(np.zeros((r, c)), trainable=True, name=f"{name}.w_up")
        self.conv_down = {}
        self.conv_up = {}
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
        """One branch from the bottleneck rows z: two 1/k-scaled k x k convs, up-projection."""
        z = conv_rows(z, self.conv_down[k], grid) * (1.0 / k)
        z = conv_rows(z, self.conv_up[k], grid) * (1.0 / k)
        return matmul(z, self.w_up)

    def forward(self, x, grid):
        """Residual update for (B, L, C) tokens; caller adds it to x."""
        z = matmul(x, self.w_down)
        branches = [self.branch_forward(z, k, grid) for k in self.branch_kernels]
        return conv_rows(concat(branches, axis=-1), self.fuse_1x1, grid)

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
