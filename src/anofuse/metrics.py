"""Exact ranking metrics and the evaluation report container.

Both metrics read the descending sweep over the scores (each run of tied
scores one step) only at the steps that hold a positive, counted by binary
search in the value-sorted scores and positives. auroc sums the
Mann-Whitney statistic, ties half-credited; average_precision adds each
step's recall increment times its precision, in sweep order. Both agree
bit-for-bit with brute-force pair counting and exhaustive sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import UndefinedMetricError


def _checked(scores, labels):
    """float64 scores, 0/1 labels (both 1-D, of one length) and the positive count."""
    scores, labels = np.asarray(scores, dtype=np.float64), np.asarray(labels)
    if scores.ndim != 1 or labels.shape != scores.shape:
        raise UndefinedMetricError(f"scores {scores.shape} and labels {labels.shape} "
                                   "must be 1-D and of one length")
    if labels.size == 0 or not ((labels == 0) | (labels == 1)).all():
        raise UndefinedMetricError("labels must be 0/1 and non-empty")
    if np.isnan(scores).any():
        raise UndefinedMetricError("scores contain NaN, which has no rank")
    return scores, labels, int(labels.sum())


def _positive_steps(scores, labels):
    """(seen, tp, tied) at each distinct positive value v, highest first: the
    items >= v, the positives >= v and the items == v. Only steps without a
    positive are left out. auroc's terms are multiples of 1/2 summing to at
    most n_pos * n_neg < 2**53, so any order of sum is exact. A left-out
    term of average_precision was (0 / n_pos) * precision = +0.0, which
    leaves its running sum unchanged, so its sequential sum is bit-exact."""
    s = np.sort(scores)
    pos = np.sort(scores[labels == 1])
    v = pos[np.append(pos[1:] != pos[:-1], True)][::-1]
    below = np.searchsorted(s, v, side="left")
    tp = pos.size - np.searchsorted(pos, v, side="left")
    return s.size - below, tp, np.searchsorted(s, v, side="right") - below


def auroc(scores, labels):
    """P(score_pos > score_neg) + 0.5 * P(tie), exactly."""
    scores, labels, n_pos = _checked(scores, labels)
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(
            f"auroc needs both classes, got {n_pos} positives / {n_neg} negatives")
    seen, tp, tied = _positive_steps(scores, labels)
    pos = np.diff(tp, prepend=0)
    # each positive at v counts the negatives below v, those tied with it at half
    return float((pos * (n_neg - seen + tp + 0.5 * (tied - pos))).sum()) / (n_pos * n_neg)


def average_precision(scores, labels):
    """Precision-weighted recall increments over a descending-score sweep."""
    scores, labels, n_pos = _checked(scores, labels)
    if n_pos == 0:
        raise UndefinedMetricError("average precision needs at least one positive")
    seen, tp, _ = _positive_steps(scores, labels)
    # cumsum adds in sweep order (np.sum would pair terms)
    return float(np.cumsum((np.diff(tp, prepend=0) / n_pos) * (tp / seen))[-1])


def gate_entropy(weights):
    """Mean entropy of fusion weight rows, in nats."""
    w = np.asarray(weights, dtype=np.float64)
    w = np.clip(w, 1e-300, 1.0)
    return float(-(w * np.log(w)).sum(axis=-1).mean())


@dataclass
class MetricsReport:
    pixel_auroc: float
    pixel_ap: float
    image_auroc: float
    image_ap: float
    n_images: int
    n_pixels: int
    n_anomalous_images: int
    n_anomalous_pixels: int
    level_entropy: dict = field(default_factory=dict)  # (level, state) -> mean nats

    def csv_lines(self):
        """Header + one row; metric values to 4 decimals, counts exact."""
        entropy_cols = [f"entropy_l{i}_{s}" for (i, s) in sorted(self.level_entropy)]
        header = ["pixel_auroc", "pixel_ap", "image_auroc", "image_ap",
                  "n_images", "n_pixels", "n_anomalous_images", "n_anomalous_pixels"]
        row = [f"{self.pixel_auroc:.4f}", f"{self.pixel_ap:.4f}",
               f"{self.image_auroc:.4f}", f"{self.image_ap:.4f}",
               str(self.n_images), str(self.n_pixels),
               str(self.n_anomalous_images), str(self.n_anomalous_pixels)]
        for key in sorted(self.level_entropy):
            row.append(f"{self.level_entropy[key]:.4f}")
        return [",".join(header + entropy_cols), ",".join(row)]
