"""Component study: train and evaluate the four adapter/fusion switch
combinations on shared seeds, plus the multi-seed directional comparison
with a paired sign test."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .config import RunConfig
from .data import get_corpora
from .train import evaluate, train

ABLATION_ROWS = (
    ("baseline", False, False),
    ("conv_lora", True, False),
    ("dfg", False, True),
    ("full", True, True),
)

METRIC_KEYS = ("pixel_auroc", "pixel_ap", "image_auroc", "image_ap")


@dataclass
class AblationRow:
    label: str
    conv_lora_on: bool
    dfg_on: bool
    trainable_params: int
    metrics: dict


@dataclass
class AblationResult:
    rows: list = field(default_factory=list)

    def row(self, label):
        return next(r for r in self.rows if r.label == label)

    def csv_lines(self):
        header = "config,conv_lora_on,dfg_on,trainable_params," + ",".join(METRIC_KEYS)
        lines = [header]
        for r in self.rows:
            vals = ",".join(f"{r.metrics[k]:.4f}" for k in METRIC_KEYS)
            lines.append(f"{r.label},{int(r.conv_lora_on)},{int(r.dfg_on)},"
                         f"{r.trainable_params},{vals}")
        return lines


def ablate(config: RunConfig) -> AblationResult:
    """Train/evaluate all four switch combinations on one shared seed pair."""
    corpora = get_corpora(config)
    result = AblationResult()
    for label, conv_on, dfg_on in ABLATION_ROWS:
        cfg = replace(config, conv_lora_on=conv_on, dfg_on=dfg_on)
        run = train(cfg, corpora=corpora)
        report = evaluate(run.model, run.test_samples)
        result.rows.append(AblationRow(
            label=label, conv_lora_on=conv_on, dfg_on=dfg_on,
            trainable_params=run.model.trainable_count(),
            metrics=report.metric_values()))
    return result


def sign_test_p(wins, n):
    """One-sided paired sign test: P(X >= wins) for X ~ Binomial(n, 1/2)."""
    if n == 0:
        return 1.0
    total = sum(math.comb(n, k) for k in range(wins, n + 1))
    return total / 2.0 ** n


@dataclass
class DirectionalStudy:
    seed_pairs: list
    per_seed: list          # one AblationResult per seed pair
    means: dict             # label -> {metric: mean}
    comparisons: dict       # (metric, hi, lo) -> dict(wins, n, p, mean_hi, mean_lo)

    def ordering_holds(self, metric, chain, alpha=0.05):
        """Strict ordering of seed means plus per-link sign tests."""
        for hi, lo in zip(chain, chain[1:]):
            cmp = self.comparisons[(metric, hi, lo)]
            if not (cmp["mean_hi"] > cmp["mean_lo"] and cmp["p"] < alpha):
                return False
        return True


def directional_study(config: RunConfig, n_seeds=8) -> DirectionalStudy:
    """Repeat the 4-row study over several seed pairs and compare chains."""
    seed_pairs = [(config.model_seed + k, config.data_seed + 101 * k)
                  for k in range(n_seeds)]
    per_seed = []
    for ms, ds in seed_pairs:
        cfg = replace(config, model_seed=ms, data_seed=ds)
        per_seed.append(ablate(cfg))
    means = {}
    for label, _, _ in ABLATION_ROWS:
        means[label] = {k: sum(r.row(label).metrics[k] for r in per_seed) / len(per_seed)
                        for k in METRIC_KEYS}
    comparisons = {}
    chains = [("pixel_auroc", ("full", "conv_lora", "baseline")),
              ("image_auroc", ("full", "dfg", "baseline"))]
    for metric, chain in chains:
        for hi, lo in zip(chain, chain[1:]):
            diffs = [r.row(hi).metrics[metric] - r.row(lo).metrics[metric]
                     for r in per_seed]
            wins = sum(d > 0 for d in diffs)
            n = sum(d != 0 for d in diffs)
            comparisons[(metric, hi, lo)] = {
                "wins": wins, "n": n, "p": sign_test_p(wins, n),
                "mean_hi": means[hi][metric], "mean_lo": means[lo][metric]}
    return DirectionalStudy(seed_pairs=seed_pairs, per_seed=per_seed,
                            means=means, comparisons=comparisons)
