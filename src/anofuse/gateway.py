"""Vision-conditioned fusion of multi-level text features into per-level
anomaly maps.

For each vision level, a per-state gating MLP turns the level's global
context vector into softmax weights over the N text levels; the weighted
text features give that level its normal/abnormal descriptors, and a
temperature softmax over patchwise cosine similarities yields the level
map. The aggregated map is the plain mean across levels. A gateway built
with `dynamic=False` has no gate and aligns vision level i one-hot to text
level i.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .tensor import (Tensor, bilinear_upsample, concat, cosine, matmul, reshape, softmax, tanh,
                     tmean)

STATES = ("normal", "abnormal")


class AnomalyMap:
    """Per-level maps, their mean, and the pixel-resolution upsampling.

    All map values lie strictly inside (0, 1). `fusion_weights[(i, s)]`
    keeps the (B, N) weight rows used at level i for state index s, for
    diagnostics and tests.
    """

    def __init__(self, per_level, aggregated, upsampled, fusion_weights):
        self.per_level = per_level
        self.aggregated = aggregated
        self.upsampled = upsampled
        self.fusion_weights = fusion_weights


class FusionGateway:
    def __init__(self, channels, n_groups, hidden, temperature, dynamic=True, rng=None):
        self.channels = channels
        self.n_groups = n_groups
        self.temperature = temperature
        self.dynamic = dynamic
        self.w1 = {}
        self.w2 = {}
        if dynamic:
            for state in STATES:
                self.w1[state] = Tensor(rng.normal(0.0, channels ** -0.5, (channels, hidden)),
                                        trainable=True, name=f"gateway.{state}.w1")
                # zero init makes the initial fusion weights uniform
                self.w2[state] = Tensor(np.zeros((hidden, n_groups)), trainable=True,
                                        name=f"gateway.{state}.w2")

    def gate_logits(self, v_global, state):
        """Two-layer gating MLP: (B, C) context -> (B, N) logits."""
        h = tanh(matmul(v_global, self.w1[state]))
        return matmul(h, self.w2[state])

    def fusion_weights(self, v_global, state):
        """Softmax-normalized weights over the N text levels, per image."""
        return softmax(self.gate_logits(v_global, state), axis=-1)

    def text_matrix(self, feats):
        """N per-level text features of shape (C,) as one (N, C) tensor."""
        return concat([reshape(f, (1, self.channels)) for f in feats], axis=0)

    def fuse_text(self, weights, t_mat):
        """Convex combination of per-level text features.

        weights: (B, N) Tensor rows summing to 1; t_mat: the (N, C) `text_matrix`.
        """
        return matmul(weights, t_mat)

    def level_map(self, v_i, t_normal, t_abnormal, grid):
        """Patchwise two-way softmax over cosine similarities at temperature;
        the descriptors are per-image (B, C) rows."""
        b, l, c = v_i.data.shape
        if grid[0] * grid[1] != l:
            raise ShapeError(f"grid {grid} does not match {l} patches")
        t = concat([reshape(d, (d.data.shape[0], 1, 1, c)) for d in (t_normal, t_abnormal)],
                   axis=2)
        sims = cosine(reshape(v_i, (b, l, 1, c)), t)  # (B, L, 2)
        probs = softmax(sims * (1.0 / self.temperature), axis=-1)
        return reshape(probs[:, :, 1], (b, grid[0], grid[1]))

    def forward(self, v_list, t_feats, grid, pixel_hw):
        """Per-level maps, their mean, and the upsampled mean."""
        if len(v_list) != self.n_groups or len(t_feats) != self.n_groups:
            raise ShapeError(f"expected {self.n_groups} levels")
        b = v_list[0].data.shape[0]
        n = self.n_groups
        # each state's (N, C) text matrix, shared by every level
        t_mats = [self.text_matrix([t_feats[j][s] for j in range(n)]) for s in range(len(STATES))]
        per_level = []
        weights_used = {}
        for i in range(n):
            v_glob = tmean(v_list[i], axis=1)
            fused = []
            for s in range(len(STATES)):
                if self.dynamic:
                    w = self.fusion_weights(v_glob, STATES[s])
                else:
                    row = np.zeros(n)
                    row[i] = 1.0
                    w = Tensor(np.broadcast_to(row, (b, n)).copy())
                weights_used[(i, s)] = w.data.copy()
                fused.append(self.fuse_text(w, t_mats[s]))
            per_level.append(self.level_map(v_list[i], fused[0], fused[1], grid))
        agg = per_level[0]
        for m in per_level[1:]:
            agg = agg + m
        agg = agg * (1.0 / n)
        upsampled = bilinear_upsample(agg, pixel_hw)
        return AnomalyMap(per_level, agg, upsampled, weights_used)

    def named_params(self):
        out = {}
        for state in STATES:
            if state in self.w1:
                out[self.w1[state].name] = self.w1[state]
                out[self.w2[state].name] = self.w2[state]
        return out
