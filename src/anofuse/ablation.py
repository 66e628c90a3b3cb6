"""Component study: train and evaluate the four adapter/fusion switch
combinations on shared seeds."""

from __future__ import annotations

from dataclasses import replace

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


def ablate(config: RunConfig) -> list:
    """Train/evaluate all four switch combinations on one shared seed pair;
    the lines of ablation.csv, header first."""
    corpora = get_corpora(config)
    lines = ["config,conv_lora_on,dfg_on,trainable_params," + ",".join(METRIC_KEYS)]
    for label, conv_on, dfg_on in ABLATION_ROWS:
        model = train(replace(config, conv_lora_on=conv_on, dfg_on=dfg_on), corpora=corpora).model
        report = evaluate(model, corpora[1])
        vals = ",".join(f"{getattr(report, k):.4f}" for k in METRIC_KEYS)
        lines.append(f"{label},{int(conv_on)},{int(dfg_on)},{model.trainable_count()},{vals}")
    return lines
