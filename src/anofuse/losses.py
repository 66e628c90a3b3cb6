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

Targets are 0/1 masks, as `data` writes and reads them, so the focal term
takes its p_t form: one term per pixel, for its true class. The reference
graph also evaluates the other class's term, which the mask multiplies by
exactly 0.
"""

from __future__ import annotations

import numpy as np

from .config import RunConfig
from .errors import ShapeError
from .tensor import _node

CLAMP_EPS = 1e-7


def focal_fwd(pred, target, gamma, alpha):
    """Mean focal term of pred against a 0/1 mask of its shape, in its p_t
    form: -alpha_t * (1 - p_t) ** gamma * log(p_t) per pixel, where p_t is
    the clamped prediction of the pixel's true class, and alpha_t is alpha
    where the mask is 1 and 1 - alpha where it is 0. Returns the value and
    the arrays that `focal_bwd` reads; `a_t` holds -alpha_t."""
    gamma, alpha = float(gamma), float(alpha)
    p = np.minimum(np.maximum(pred, CLAMP_EPS), 1.0 - CLAMP_EPS)
    q = 1.0 - p
    on = target == 1
    p_t, p_o = np.where(on, p, q), np.where(on, q, p)
    a_t = np.where(on, -alpha, alpha - 1.0)
    pog, logp_t = p_o ** gamma, np.log(p_t)
    term = pog * logp_t
    term *= a_t
    return np.add.reduce(term, None) / term.size, (pred, on, p_t, p_o, a_t, pog, logp_t)


def focal_bwd(g, saved, gamma):
    """Gradient of `focal_fwd` for pred from the gradient g of its value:
    each pixel's term differentiated in p_o = 1 - p_t, the clamped pred
    where the mask is 0, negated where the mask is 1 (there p_t is the
    clamped pred), and 0 where the clamp binds."""
    gamma = float(gamma)
    pred, on, p_t, p_o, a_t, pog, logp_t = saved
    d = a_t * (g / p_t.size)
    gp = d * logp_t  # of (1 - p_t) ** gamma
    d *= pog  # of log(p_t)
    gp *= gamma
    gp *= p_o ** (gamma - 1.0)
    d /= p_t
    gp -= d
    np.negative(gp, out=gp, where=on)
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
        raise ShapeError(
            f"pred shape {pred.data.shape} != target shape {target.shape}")
    gamma = cfg.focal_gamma
    focal, focal_saved = focal_fwd(pred.data, target, gamma, cfg.focal_alpha)
    dice, dice_saved = dice_fwd(pred.data, target, cfg.dice_smooth)

    def vjp(g):
        gp = focal_bwd(g * cfg.lambda_focal, focal_saved, gamma)
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
