"""Vision-conditioned fusion of multi-level text features into per-level
anomaly maps.

All N vision levels are gated at once, as one (level, image) grid: a
per-state gating MLP turns each level's global context vector into softmax
weights over the N text levels; the weighted text features give that level
its (S, C) normal/abnormal descriptors, and the cosine-softmax head (the
one head, which also scores the class token as `state_probs`) yields the
level map. The aggregated map is the plain mean across levels. A gateway
built with `dynamic=False` has no gate and aligns vision level i one-hot to
text level i.

A gateway call is one graph node with a hand-written VJP, as a frozen
TransformerBlock and an adapter call are: its parents are the N levels, the
text features and the gate weights, and it covers the gates, the fused
descriptors, the level maps, their mean and the upsampling. `state_probs`
is one node too. Each VJP returns a gradient for every parent, and
`tensor.grad` drops those of constant parents. Both nodes run the numpy
operations of the graph that the Tensor primitives would record
(their reference graphs in `tests/oracles.py`), in the same order, so
their values and gradients carry the same bits.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .tensor import (Tensor, _node, _unbroadcast, bilinear_matrix, cosine_softmax_bwd,
                     cosine_softmax_fwd, softmax_bwd, softmax_fwd)

STATES = ("normal", "abnormal")


def state_probs(x, t, temperature):
    """(..., L, S) softmax at `temperature` over the cosine similarities of
    the (..., L, C) rows of Tensor x to the (..., S, C) state descriptors t,
    as one graph node."""
    probs, saved = cosine_softmax_fwd(x.data, t.data, temperature)
    return _node(probs, (x, t), lambda g: cosine_softmax_bwd(g, saved, temperature))


def aligned_weights(n, b):
    """(N, B, N) one-hot weights: vision level i takes text level i."""
    w = np.zeros((n, b, n))
    w[np.arange(n), :, np.arange(n)] = 1.0
    return w


class AnomalyMap:
    """Per-level maps and the pixel-resolution upsampling of their mean.

    All map values lie strictly inside (0, 1). `per_level` is the (N, B, H, W)
    array of level maps; `upsampled`, the (B, H', W') Tensor of their mean at
    pixel resolution, is the one that carries the graph. `fusion_weights` is
    the (S, N, B, N) array whose [s, i] rows are the weights over the text
    levels used at level i for state index s, kept for diagnostics and tests.
    """

    def __init__(self, per_level, upsampled, fusion_weights):
        self.per_level = per_level
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
        """Two-layer gating MLP and a softmax on arrays: (..., C) context ->
        (..., N) weights over the text levels, per image, and the (..., H)
        tanh layer that the backward reads."""
        h = np.tanh(np.matmul(v_global, self.w1[state].data))
        return softmax_fwd(np.matmul(h, self.w2[state].data)), h

    def forward(self, v_list, t_feats, grid, pixel_hw):
        """The `AnomalyMap` of the N (B, L, C) vision level Tensors and the
        (N, S, C) text features; every stage runs once on the (N, B, ...)
        stack of the levels."""
        n = self.n_groups
        if len(v_list) != n or len(t_feats.data) != n:
            raise ShapeError(f"expected {n} levels")
        v = np.concatenate([x.data[None] for x in v_list])  # (N, B, L, C)
        _, b, l, c = v.shape
        tf = t_feats.data
        if tf.shape != (n, len(STATES), c):
            raise ShapeError(f"expected {(n, len(STATES), c)} text features, got {tf.shape}")
        if self.dynamic:
            v_glob = np.add.reduce(v, 2) / l
            gates = [self.fusion_weights(v_glob, state) for state in STATES]
        else:
            gates = [(aligned_weights(n, b), None)] * len(STATES)
        t = np.concatenate([np.matmul(w, tf[:, s, :]).reshape(n, b, 1, c)
                            for s, (w, _) in enumerate(gates)], axis=2)  # (N, B, S, C)
        probs, saved = cosine_softmax_fwd(v, t, self.temperature)
        maps = probs[..., 1].reshape((n, b) + tuple(grid))
        agg = np.add.reduce(maps, 0) * (1.0 / n)
        up_matrix = bilinear_matrix(agg.shape[1:], pixel_hw)
        up = np.matmul(up_matrix, agg.reshape(b, l, 1)).reshape(b, pixel_hw[0], pixel_hw[1])

        def vjp(g):
            # the upsampling and the mean, back onto the abnormal column
            gm = np.matmul(up_matrix.swapaxes(-1, -2), g.reshape(b, -1, 1)).reshape(agg.shape)
            gp = np.zeros(probs.shape)
            gp[..., 1] = (gm * (1.0 / n)).reshape(1, b, l)
            dv, dt = cosine_softmax_bwd(gp, saved, self.temperature)
            dtf = np.zeros(tf.shape)
            dvg, dw1, dw2 = None, [], []
            for s, (w, h) in enumerate(gates):
                gs = dt[:, :, s:s + 1].reshape(n, b, c)
                tfs = tf[:, s, :]
                dtf[:, s, :] += _unbroadcast(np.matmul(w.swapaxes(-1, -2), gs), tfs.shape)
                if h is None:  # aligned weights, no gate
                    continue
                w1, w2 = self.w1[STATES[s]].data, self.w2[STATES[s]].data
                dl = softmax_bwd(_unbroadcast(np.matmul(gs, tfs.swapaxes(-1, -2)), w.shape), w)
                dw2.append(_unbroadcast(np.matmul(h.swapaxes(-1, -2), dl), w2.shape))
                dpre = np.matmul(dl, w2.swapaxes(-1, -2)) * (1.0 - h * h)
                dw1.append(_unbroadcast(np.matmul(v_glob.swapaxes(-1, -2), dpre), w1.shape))
                dg = np.matmul(dpre, w1.swapaxes(-1, -2))
                dvg = dg if dvg is None else dvg + dg
            if dvg is not None:
                dv += (dvg / l)[:, :, None, :]  # the pooled context's share, added last
            return (*dv, dtf, *dw1, *dw2)

        upsampled = _node(up, (*v_list, t_feats, *self.params), vjp)
        return AnomalyMap(maps, upsampled, np.concatenate([w[None] for w, _ in gates]))
