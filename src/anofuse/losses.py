"""Composite objective: focal + dice segmentation loss on the aggregated
map plus the cross-entropy of the image head, the (B, S) state
probabilities that `GroupedModel.forward` returns; and the image score."""

from __future__ import annotations

import numpy as np

from .config import RunConfig
from .errors import ConfigurationError
from .tensor import clip, log, tmean, tsum

CLAMP_EPS = 1e-7


def focal_loss(pred, target, gamma, alpha):
    """Mean focal term of a pred Tensor against a float64 target array of its
    shape; predictions are clamped away from exact 0/1."""
    p = clip(pred, CLAMP_EPS, 1.0 - CLAMP_EPS)
    pos = ((1.0 - p) ** gamma) * log(p) * (-alpha)
    neg = (p ** gamma) * log(1.0 - p) * (alpha - 1.0)
    return tmean(pos * target + neg * (1.0 - target))


def dice_loss(pred, target, smooth):
    """1 - (2*overlap + smooth) / (mass_pred + mass_target + smooth), for a
    pred Tensor and a float64 target array of its shape."""
    inter = tsum(pred * target)
    denom = tsum(pred) + float(target.sum())
    return 1.0 - (2.0 * inter + smooth) / (denom + smooth)


def seg_loss(pred, target, cfg: RunConfig):
    """Weighted focal + dice of the (upsampled) aggregated map `pred`, a
    Tensor, against the masks `target`."""
    target = np.asarray(target, dtype=np.float64)
    if pred.data.shape != target.shape:
        raise ConfigurationError(
            f"pred shape {pred.data.shape} != target shape {target.shape}")
    return (focal_loss(pred, target, cfg.focal_gamma, cfg.focal_alpha) * cfg.lambda_focal
            + dice_loss(pred, target, cfg.dice_smooth) * cfg.lambda_dice)


def cls_loss(probs, labels):
    """Cross-entropy of the (B, S) state probabilities for the image labels."""
    labels = np.asarray(labels)
    onehot = np.zeros((labels.shape[0], 2))
    onehot[np.arange(labels.shape[0]), labels.astype(int)] = 1.0
    picked = tsum(probs * onehot, axis=1)
    return -tmean(log(clip(picked, CLAMP_EPS * CLAMP_EPS, 1.0)))


def image_score(p_abnormal, upsampled_map):
    """Mean of the (B,) classification probabilities and the pixel maximum
    of each (B, H, W) map."""
    peak = upsampled_map.reshape(upsampled_map.shape[0], -1).max(axis=1)
    return 0.5 * (p_abnormal + peak)


def model_loss(out, masks, labels, cfg: RunConfig):
    """Total (seg + lambda_cls * cls), segmentation, and classification losses
    of the (amap, probs) pair that `GroupedModel.forward` returns, on one
    batch. `train` stops on a non-finite total (TrainingError)."""
    amap, probs = out
    seg = seg_loss(amap.upsampled, masks, cfg)
    cls = cls_loss(probs, labels)
    return seg + cls * cfg.lambda_cls, seg, cls
