"""Exact ranking metrics and the evaluation report container.

Both metrics read one descending sweep over the scores, with each run of
tied scores taken as one step. auroc sums the Mann-Whitney statistic (ties
half-credited) over the steps; average_precision adds each step's recall
increment times its precision, in sweep order. The sweep is read only at
step ends, where it counts the items and the positives that score >= the
step's value; the order within a tie never shows, so value sorts serve.
Both are exact: every intermediate is a ratio of small integers (or an
integer multiple of one half), so results agree bit-for-bit with
brute-force pair counting and exhaustive sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import UndefinedMetricError


def _check_binary(labels):
    labels = np.asarray(labels)
    if labels.size == 0 or not ((labels == 0) | (labels == 1)).all():
        raise UndefinedMetricError("labels must be 0/1 and non-empty")
    return labels.astype(np.int64, copy=False)


def _descending_sweep(scores, labels):
    """(seen, tp) at the end of each step: the count of scores >= the step's
    value and the count of positives among them. Counts over a closed
    threshold ignore the order within a tie, so value sorts serve."""
    scores = np.asarray(scores, dtype=np.float64)
    if np.isnan(scores).any():
        raise UndefinedMetricError("scores contain NaN, which has no rank")
    s = np.sort(scores)[::-1]
    seen = np.flatnonzero(np.append(s[1:] != s[:-1], True))
    seen += 1
    pos = np.sort(scores[labels == 1])
    return seen, pos.size - np.searchsorted(pos, s[seen - 1], side="left")


def auroc(scores, labels):
    """P(score_pos > score_neg) + 0.5 * P(tie), exactly."""
    labels = _check_binary(labels)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(
            f"auroc needs both classes, got {n_pos} positives / {n_neg} negatives")
    seen, tp = _descending_sweep(scores, labels)
    neg = np.diff(seen, prepend=0)
    del seen
    pos = np.diff(tp, prepend=0)
    neg -= pos
    # each negative counts the positives up to its step, its own step's at
    # half: neg * (tp - 0.5 * pos), reduced in place
    credit = np.multiply(pos, 0.5)
    del pos
    np.subtract(tp, credit, out=credit)
    del tp
    credit *= neg
    return float(credit.sum()) / (n_pos * n_neg)


def average_precision(scores, labels):
    """Precision-weighted recall increments over a descending-score sweep."""
    labels = _check_binary(labels)
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise UndefinedMetricError("average precision needs at least one positive")
    seen, tp = _descending_sweep(scores, labels)
    # cumsum adds in sweep order (np.sum would pair terms); empty steps add 0.0
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
    config_echo: list = field(default_factory=list)
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
