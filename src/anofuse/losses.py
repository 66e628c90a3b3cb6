"""Composite objective: focal + dice segmentation loss on the aggregated
map plus the cross-entropy of the image head, the (B, S) state
probabilities that `GroupedModel.forward` returns; and the image score.

`seg_loss` and `cls_loss` are each one graph node with a hand-written VJP;
the sum in `model_loss` is two Tensor primitives. Each formula is written
once, as an array-level forward and backward pair. A node runs the numpy
operations of the graph that the Tensor primitives would record for its
formula (its reference graph in `tests/oracles.py`), in the same order,
so its values and gradients carry the same bits. It
writes into its own temporaries where that gives the same bits, so it
allocates fewer whole-map arrays than that graph.
"""

from __future__ import annotations

import numpy as np

from .config import RunConfig
from .errors import ConfigurationError
from .tensor import _node

CLAMP_EPS = 1e-7


def focal_fwd(pred, target, gamma, alpha):
    """Mean focal term of pred against a target array of its shape, with
    predictions clamped away from exact 0/1: the value and the arrays that
    `focal_bwd` reads."""
    gamma, alpha = float(gamma), float(alpha)
    p = np.minimum(np.maximum(pred, CLAMP_EPS), 1.0 - CLAMP_EPS)
    q = 1.0 - p
    qg, logp = q ** gamma, np.log(p)
    pg, logq = p ** gamma, np.log(q)
    pos = qg * logp
    pos *= -alpha
    pos *= target
    neg = pg * logq
    neg *= alpha - 1.0
    not_target = 1.0 - target
    neg *= not_target
    pos += neg
    return np.add.reduce(pos, None) / pos.size, (pred, target, not_target, p, q, qg, logp, pg, logq)


def focal_bwd(g, saved, gamma, alpha):
    """Gradient of `focal_fwd` for pred from the gradient g of its value. The
    clamped prediction's four terms are summed in the order the composed
    graph sums them: (1 - p) in the positive term, log p, p ** gamma, and
    (1 - p) in the negative term."""
    gamma, alpha = float(gamma), float(alpha)
    pred, target, not_target, p, q, qg, logp, pg, logq = saved
    gm = g / p.size
    # the positive term, -alpha * (1 - p) ** gamma * log(p) where the target is 1
    d = target * gm
    d *= -alpha
    gp = d * logp  # of (1 - p) ** gamma
    d *= qg  # of log(p)
    gp *= gamma
    gp *= q ** (gamma - 1.0)
    np.negative(gp, out=gp)
    d /= p
    gp += d
    # the negative term, (alpha - 1) * p ** gamma * log(1 - p) where it is 0
    d = not_target * gm
    d *= alpha - 1.0
    dp = d * logq  # of p ** gamma
    d *= pg  # of log(1 - p)
    dp *= gamma
    dp *= p ** (gamma - 1.0)
    gp += dp
    d /= q
    gp -= d
    gp *= (pred > CLAMP_EPS) & (pred < 1.0 - CLAMP_EPS)
    return gp


def dice_fwd(pred, target, smooth):
    """1 - (2*overlap + smooth) / (mass_pred + mass_target + smooth) for pred
    and a target array of its shape: the value and the numerator and
    denominator that `dice_bwd` reads."""
    num = 2.0 * np.add.reduce(pred * target, None) + smooth
    den = np.add.reduce(pred, None) + float(np.add.reduce(target, None)) + smooth
    return 1.0 - num / den, (num, den)


def dice_bwd(g, saved):
    """Gradients of `dice_fwd` for the overlap and for the predicted mass
    from the gradient g of its value; pred's gradient is target times the
    first plus the second."""
    num, den = saved
    gq = -g
    return gq / den * 2.0, -gq * num / (den * den)


def seg_loss(pred, target, cfg: RunConfig):
    """Weighted focal + dice of the (upsampled) aggregated map `pred`, a
    Tensor, against the masks `target`, as one graph node."""
    target = np.asarray(target, dtype=np.float64)
    if pred.data.shape != target.shape:
        raise ConfigurationError(
            f"pred shape {pred.data.shape} != target shape {target.shape}")
    gamma, alpha = cfg.focal_gamma, cfg.focal_alpha
    focal, focal_saved = focal_fwd(pred.data, target, gamma, alpha)
    dice, dice_saved = dice_fwd(pred.data, target, cfg.dice_smooth)

    def vjp(g):
        gp = focal_bwd(g * cfg.lambda_focal, focal_saved, gamma, alpha)
        g_overlap, g_mass = dice_bwd(g * cfg.lambda_dice, dice_saved)
        gp += target * g_overlap
        gp += g_mass
        return (gp,)
    return _node(focal * cfg.lambda_focal + dice * cfg.lambda_dice, (pred,), vjp)


def cls_loss(probs, labels):
    """Cross-entropy of the (B, S) state probabilities Tensor for the image
    labels, as one graph node."""
    labels = np.asarray(labels)
    onehot = np.zeros((labels.shape[0], 2))
    onehot[np.arange(labels.shape[0]), labels.astype(int)] = 1.0
    lo = CLAMP_EPS * CLAMP_EPS
    picked = np.add.reduce(probs.data * onehot, 1)
    clamped = np.minimum(np.maximum(picked, lo), 1.0)

    def vjp(g):
        gc = g * -1.0 / clamped.size / clamped
        gc *= (picked > lo) & (picked < 1.0)
        return (gc[:, None] * onehot,)
    return _node(np.add.reduce(np.log(clamped), None) / clamped.size * -1.0, (probs,), vjp)


def image_score(p_abnormal, upsampled_map):
    """Mean of the (B,) classification probabilities and the pixel maximum
    of each (B, H, W) map."""
    peak = np.maximum.reduce(upsampled_map.reshape(upsampled_map.shape[0], -1), 1)
    return 0.5 * (p_abnormal + peak)


def model_loss(out, masks, labels, cfg: RunConfig):
    """Total (seg + lambda_cls * cls), segmentation, and classification losses
    of the (amap, probs) pair that `GroupedModel.forward` returns, on one
    batch. `train` stops on a non-finite total (TrainingError)."""
    amap, probs = out
    seg = seg_loss(amap.upsampled, masks, cfg)
    cls = cls_loss(probs, labels)
    return seg + cls * cfg.lambda_cls, seg, cls
