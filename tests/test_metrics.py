import re

import numpy as np
import pytest

from anofuse.errors import UndefinedMetricError
from anofuse.metrics import MetricsReport, auroc, average_precision, gate_entropy
from anofuse.verify import ap_sweep, auroc_pairs


def test_auroc_perfect_separation():
    assert auroc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
    assert auroc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0


def test_auroc_all_ties_is_half():
    assert auroc([0.3] * 6, [0, 1, 0, 1, 0, 1]) == 0.5


def test_auroc_hand_case():
    assert auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75


def test_auroc_single_class_rejected():
    with pytest.raises(UndefinedMetricError):
        auroc([0.1, 0.2], [1, 1])
    with pytest.raises(UndefinedMetricError):
        auroc([0.1, 0.2], [0, 0])


def test_ap_all_positives_first():
    assert average_precision([0.9, 0.8, 0.1, 0.05], [1, 1, 0, 0]) == 1.0


def test_ap_single_positive_ranked_last():
    for n in (3, 5, 8):
        scores = np.linspace(1.0, 0.1, n)
        labels = np.zeros(n, dtype=int)
        labels[-1] = 1
        assert average_precision(scores, labels) == 1.0 / n


def test_ap_hand_case_matches_sweep():
    scores = [0.1, 0.4, 0.35, 0.8]
    labels = [0, 0, 1, 1]
    assert average_precision(scores, labels) == ap_sweep(scores, labels)


def test_ap_needs_positives():
    with pytest.raises(UndefinedMetricError):
        average_precision([0.5, 0.2], [0, 0])


def test_nan_scores_rejected():
    for metric in (auroc, average_precision):
        with pytest.raises(UndefinedMetricError):
            metric([0.5, np.nan, 0.2], [0, 1, 1])


def test_metrics_match_brute_force_with_ties():
    rng = np.random.default_rng(0)
    cases = []
    for trial in range(300):
        n = int(rng.integers(2, 200))
        # discrete score grids create plenty of ties
        grid = int(rng.integers(2, 12))
        scores = rng.integers(0, grid, n).astype(np.float64) / grid
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        cases.append((scores, labels))
    # evaluation scale: 8-bit pixel scores, rare positives, runs of ~80 tied
    # scores that hold both classes
    cases.append((rng.integers(0, 256, 20_000) / 255, (rng.random(20_000) < 0.05).astype(int)))
    for scores, labels in cases:
        assert auroc(scores, labels) == auroc_pairs(scores, labels)
        assert average_precision(scores, labels) == ap_sweep(scores, labels)


def test_metrics_match_brute_force_continuous():
    rng = np.random.default_rng(1)
    for trial in range(100):
        n = int(rng.integers(2, 120))
        scores = rng.normal(size=n)
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        assert auroc(scores, labels) == auroc_pairs(scores, labels)
        assert average_precision(scores, labels) == ap_sweep(scores, labels)


def _tie_cases():
    rng = np.random.default_rng(3)
    n = 400
    signed_zeros = np.where(rng.random(n) < 0.5, 0.0, -0.0)
    signed_zeros[:40] = rng.normal(size=40)
    infinities = rng.choice([-np.inf, -1.0, 0.0, 2.0, np.inf], n)
    one_level = rng.normal(size=n)
    labels = (rng.random(n) < 0.3).astype(int)
    one_level[labels == 1] = 0.25
    one_level[:20] = 0.25  # negatives in the positives' tie too
    single = rng.integers(0, 8, n) / 8
    single_label = np.zeros(n, dtype=int)
    single_label[123] = 1
    return {
        "signed_zero_tie": (signed_zeros, (rng.random(n) < 0.4).astype(int)),
        "infinite_scores": (infinities, (rng.random(n) < 0.4).astype(int)),
        "positives_in_one_tie": (one_level, labels),
        "single_positive": (single, single_label),
        "256_levels": (rng.integers(0, 256, 5000) / 255, (rng.random(5000) < 0.05).astype(int)),
    }


@pytest.mark.parametrize("case", list(_tie_cases()))
def test_order_within_ties_never_shows(case):
    # the sweep value-sorts the scores, so a tie's items come out in no set
    # order; both metrics must match the oracles and a shuffled copy exactly
    scores, labels = _tie_cases()[case]
    assert ((labels == 0).any() and (labels == 1).any()
            and np.unique(scores).size < scores.size)
    perm = np.random.default_rng(4).permutation(scores.size)
    got = auroc(scores, labels)
    assert got == auroc_pairs(scores, labels) == auroc(scores[perm], labels[perm])
    got = average_precision(scores, labels)
    assert got == ap_sweep(scores, labels) == average_precision(scores[perm], labels[perm])


def _positive_step_cases():
    rng = np.random.default_rng(5)
    n = 400
    continuous = rng.random(20_000)
    at_infinities = rng.normal(size=n)
    inf_labels = (rng.random(n) < 0.2).astype(int)
    at_infinities[inf_labels == 1] = rng.choice([-np.inf, np.inf], int(inf_labels.sum()))
    at_infinities[:10] = np.inf  # negatives tied with the positives at +inf
    at_infinities[10:20] = -np.inf
    inf_labels[:20] = 0
    ends = rng.normal(size=n)
    end_labels = np.zeros(n, dtype=int)
    end_labels[[ends.argmin(), ends.argmax()]] = 1
    levels = rng.integers(0, 4, n) / 4
    top_tie = np.zeros(n, dtype=int)
    top_tie[np.flatnonzero(levels == levels.max())[7]] = 1
    return {
        "continuous_20k": (continuous, (rng.random(continuous.size) < 0.05).astype(int)),
        "positives_only_at_infinities": (at_infinities, inf_labels),
        "positives_at_lowest_and_highest": (ends, end_labels),
        "single_positive_in_top_tie": (levels, top_tie),
        "no_negatives": (rng.integers(0, 16, n) / 16, np.ones(n, dtype=int)),
    }


@pytest.mark.parametrize("case", list(_positive_step_cases()))
def test_steps_without_positives_change_nothing(case):
    # only the steps that hold a positive are read; the result must still be
    # the full sweep's and the full pair count's, bit for bit
    scores, labels = _positive_step_cases()[case]
    if case == "continuous_20k":
        assert np.unique(scores).size == scores.size
    if (labels == 0).any():
        assert auroc(scores, labels) == auroc_pairs(scores, labels)
    assert average_precision(scores, labels) == ap_sweep(scores, labels)


@pytest.mark.parametrize("scores, labels", [
    ([0.1, 0.2, 0.3], [0, 1]),
    ([0.1, 0.2], [0, 1, 1]),
    (np.zeros((2, 3)), np.eye(2, 3, dtype=int)),
    (np.zeros(6), np.eye(2, 3, dtype=int)),
    (np.zeros((2, 3)), [0, 1, 0, 1, 0, 1]),
    (0.5, 1),
], ids=["labels_short", "scores_short", "both_2d", "labels_2d", "scores_2d", "scalars"])
def test_scores_and_labels_of_other_shapes_rejected(scores, labels):
    named = re.escape(f"scores {np.shape(scores)} and labels {np.shape(labels)}")
    for metric in (auroc, average_precision):
        with pytest.raises(UndefinedMetricError, match=named):
            metric(scores, labels)


@pytest.mark.parametrize("labels", [[], [0, 2, 1], [0, 0.5, 1], ["0", "1", "1"]],
                         ids=["empty", "two", "half", "strings"])
def test_labels_other_than_zero_and_one_rejected(labels):
    for metric in (auroc, average_precision):
        with pytest.raises(UndefinedMetricError, match="labels must be 0/1"):
            metric(np.linspace(0.0, 1.0, len(labels)), labels)


def test_near_oracle_scores_hit_ceiling():
    rng = np.random.default_rng(2)
    labels = rng.integers(0, 2, 400)
    labels[0], labels[1] = 0, 1
    scores = labels + rng.normal(0, 1e-3, 400)
    assert auroc(scores, labels) > 0.99
    assert average_precision(scores, labels) > 0.99


def test_gate_entropy_uniform_is_log_n():
    w = np.full((10, 4), 0.25)
    assert abs(gate_entropy(w) - np.log(4)) < 1e-12
    one_hot = np.zeros((5, 4))
    one_hot[:, 2] = 1.0
    assert gate_entropy(one_hot) < 1e-9


def test_report_csv_shape():
    rep = MetricsReport(0.91234, 0.5, 0.75, 0.8, 10, 10240, 5, 600,
                        level_entropy={(0, "normal"): 1.0986})
    lines = rep.csv_lines()
    assert len(lines) == 2
    header = lines[0].split(",")
    row = lines[1].split(",")
    assert len(header) == len(row) == 9
    assert row[0] == "0.9123"
