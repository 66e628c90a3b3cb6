"""Component study: train and evaluate the four adapter/fusion switch
combinations on shared seeds."""

from __future__ import annotations

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
            metrics={k: getattr(report, k) for k in METRIC_KEYS}))
    return result
