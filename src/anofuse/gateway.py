"""Vision-conditioned fusion of multi-level text features into per-level
anomaly maps.

All N vision levels are gated at once, as one (level, image) grid: a
per-state gating MLP turns each level's global context vector into softmax
weights over the N text levels; the weighted text features give that level
its (S, C) normal/abnormal descriptors, and `state_probs` (the one head,
which also scores the class token) yields the level map. The aggregated
map is the plain mean across levels. A gateway built with `dynamic=False`
has no gate and aligns vision level i one-hot to text level i.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .tensor import (Tensor, bilinear_upsample, concat, cosine, matmul, reshape, softmax, stack,
                     tanh, tmean, tsum)

STATES = ("normal", "abnormal")


def state_probs(x, t, temperature):
    """(..., L, S) softmax at `temperature` over the cosine similarities of
    the (..., L, C) rows x to the (..., S, C) state descriptors t."""
    return softmax(cosine(x, t) * (1.0 / temperature), axis=-1)


class AnomalyMap:
    """Per-level maps, their mean, and the pixel-resolution upsampling.

    All map values lie strictly inside (0, 1). `per_level` is the (N, B, H, W)
    Tensor of level maps. `fusion_weights` is the (S, N, B, N) array whose
    [s, i] rows are the weights over the text levels used at level i for
    state index s, kept for diagnostics and tests.
    """

    def __init__(self, per_level, aggregated, upsampled, fusion_weights):
        self.per_level = per_level
        self.aggregated = aggregated
        self.upsampled = upsampled
        self.fusion_weights = fusion_weights


class FusionGateway:
    def __init__(self, channels, n_groups, hidden, temperature, dynamic=True, rng=None):
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
        self.params = (*self.w1.values(), *self.w2.values())

    def fusion_weights(self, v_global, state):
        """Two-layer gating MLP and a softmax: (..., C) context -> (..., N)
        weights over the text levels, per image."""
        h = tanh(matmul(v_global, self.w1[state]))
        return softmax(matmul(h, self.w2[state]), axis=-1)

    def level_map(self, v, t, grid):
        """The abnormal column of `state_probs` for (..., L, C) tokens against
        (..., S, C) descriptors, as (..., H, W) maps."""
        return reshape(state_probs(v, t, self.temperature)[..., 1],
                       v.data.shape[:-2] + tuple(grid))

    def forward(self, v_list, t_feats, grid, pixel_hw):
        """Per-level maps, their mean, and the upsampled mean from the N
        (B, L, C) vision levels and the (N, S, C) text features; every stage
        runs once on the (N, B, ...) stack of the levels."""
        n = self.n_groups
        if len(v_list) != n or len(t_feats.data) != n:
            raise ShapeError(f"expected {n} levels")
        v = stack(v_list)  # (N, B, L, C)
        _, b, _, c = v.data.shape
        if t_feats.data.shape != (n, len(STATES), c):
            raise ShapeError(f"expected {(n, len(STATES), c)} text features, "
                             f"got {t_feats.data.shape}")
        v_glob = tmean(v, axis=2)
        if self.dynamic:
            w = [self.fusion_weights(v_glob, state) for state in STATES]
        else:
            one_hot = np.zeros((n, b, n))
            one_hot[np.arange(n), :, np.arange(n)] = 1.0
            w = [Tensor(one_hot)] * len(STATES)
        t = concat([reshape(matmul(w[s], t_feats[:, s, :]), (n, b, 1, c))
                    for s in range(len(STATES))], axis=2)  # (N, B, S, C)
        maps = self.level_map(v, t, grid)  # (N, B, H, W)
        agg = tsum(maps, axis=0) * (1.0 / n)
        upsampled = bilinear_upsample(agg, pixel_hw)
        return AnomalyMap(maps, agg, upsampled, np.concatenate([ws.data[None] for ws in w]))
