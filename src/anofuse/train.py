"""Training loop (Adam on one flat buffer of the trainables, stopped by a
non-finite loss, a numpy FPE or an all-zero gradient) and evaluation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .data import batch_arrays, get_corpora
from .errors import TrainingError
from .gateway import STATES
from .losses import image_score, model_loss
from .metrics import MetricsReport, auroc, average_precision, gate_entropy
from .model import build_model
from .tensor import Tensor, grad, no_grad

EVAL_BATCH = 16

# Adam's moment decay rates and denominator floor
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Bias-corrected Adam in place on one flat copy of the trainables, in
    sorted-name order; each trainable's `.data` becomes a view of `flat`."""

    def __init__(self, params, lr):
        self.params = params
        self.names = sorted(params)
        self.lr = lr
        self.t = 0
        self.flat = np.concatenate([params[k].data for k in self.names], axis=None)
        self.m, self.v, self.g, self.s = (np.zeros_like(self.flat) for _ in range(4))
        ends = np.cumsum([params[k].data.size for k in self.names])
        for k, view in zip(self.names, np.split(self.flat, ends[:-1])):
            params[k].data = view.reshape(params[k].data.shape)

    def step(self, grads):
        self.t += 1
        m, v, g, s = self.m, self.v, self.g, self.s
        np.concatenate([grads[k] for k in self.names], axis=None, out=g)
        m *= BETA1
        m += np.multiply(1.0 - BETA1, g, out=s)
        v *= BETA2
        v += np.multiply(1.0 - BETA2, np.multiply(g, g, out=g), out=g)
        # flat -= lr * (m / b1t) / (sqrt(v / b2t) + EPS) in place: whole-buffer
        # temporaries made the step slower than a loop over the tensors
        np.add(np.sqrt(np.divide(v, 1.0 - BETA2 ** self.t, out=g), out=g), EPS, out=g)
        np.multiply(self.lr, np.divide(m, 1.0 - BETA1 ** self.t, out=s), out=s)
        self.flat -= np.divide(s, g, out=s)


def _batch_indices(n, batch_size, rng):
    """Endless epoch-shuffled index batches (ragged tail dropped)."""
    batch_size = min(batch_size, n)
    while True:
        perm = rng.permutation(n)
        for i in range(0, n - batch_size + 1, batch_size):
            yield perm[i:i + batch_size]


@dataclass
class TrainResult:
    model: object
    trace: list = field(default_factory=list)  # (step, total, seg, cls)
    test_samples: list = field(default_factory=list)


def vision_prefixes(model, samples, size):
    """The model's vision prefix of `samples`, one (B, 1 + P, C) Tensor per
    chunk of at most `size` images, each computed when the caller asks."""
    for start in range(0, len(samples), size):
        yield model.vision_prefix(batch_arrays(samples[start:start + size])[0])


def train(config: RunConfig, corpora=None) -> TrainResult:
    """Deterministic training run; aborts with the trace on divergence or a zero gradient.

    The frozen prefix of every training image and of the prompts is
    computed once per run; each step gathers its batch's rows.
    """
    model = build_model(config)
    train_samples, test_samples = corpora if corpora is not None else get_corpora(config)
    opt = Adam(model.trainable_params(), config.lr)
    batches = _batch_indices(len(train_samples), config.batch_size,
                             np.random.default_rng(config.data_seed + 10_000))
    # one copy per row, so each chunk is freed after its turn
    vision_rows = [row.copy() for prefix in vision_prefixes(model, train_samples, config.batch_size)
                   for row in prefix.data]
    text_prefix = model.text_prefix()
    trace = []
    for step in range(config.steps):
        idx = next(batches)
        _, masks, labels = batch_arrays([train_samples[i] for i in idx])
        prefix = Tensor(np.stack([vision_rows[i] for i in idx]))
        try:
            # numpy overflow, invalid or divide ends the run; Adam runs outside
            try:
                with np.errstate(over="raise", invalid="raise", divide="raise"):
                    out = model.forward(prefix, model.text_forward(text_prefix))
                    total, seg, cls = model_loss(out, masks, labels, config)
                    if not np.isfinite(total.data):
                        raise TrainingError(f"step {step}: non-finite loss {float(total.data)}")
                    grads = grad(total, opt.params)
            except FloatingPointError as exc:
                raise TrainingError(f"step {step}: numpy {exc}") from exc
            if not any(g.any() for g in grads.values()):
                raise TrainingError(f"step {step}: every trainable gradient is exactly zero")
        except TrainingError as exc:
            exc.trace = trace
            raise
        opt.step(grads)
        trace.append((step, float(total.data), float(seg.data), float(cls.data)))
    return TrainResult(model=model, trace=trace, test_samples=test_samples)


def predict(model, samples):
    """Batched no-grad inference over `samples`.

    Returns (maps, scores, fusion_weights) of the M samples: the (M, H, W)
    upsampled anomaly maps, the (M,) image scores, and the (S, N, M, N)
    fusion weights, [s, i] the rows used at level i for state index s.
    """
    maps, scores, weights = [], [], []
    with no_grad():
        text = model.text_forward(model.text_prefix())
        for prefix in vision_prefixes(model, samples, EVAL_BATCH):
            amap, probs = model.forward(prefix, text)
            up = amap.upsampled.data
            maps.append(up)
            scores.append(image_score(probs.data[:, 1], up))
            weights.append(amap.fusion_weights)
    return np.concatenate(maps), np.concatenate(scores), np.concatenate(weights, axis=2)


def evaluate(model, samples) -> MetricsReport:
    """Pixel metrics pool every test pixel; image metrics use image_score."""
    maps, image_scores, weights = predict(model, samples)
    _, masks, image_labels = batch_arrays(samples)
    pixel_scores = maps.reshape(-1)
    pixel_labels = masks.reshape(-1).astype(np.int64)
    entropy = {(i, state): gate_entropy(weights[s, i])
               for s, state in enumerate(STATES) for i in range(weights.shape[1])}
    return MetricsReport(
        pixel_auroc=auroc(pixel_scores, pixel_labels),
        pixel_ap=average_precision(pixel_scores, pixel_labels),
        image_auroc=auroc(image_scores, image_labels),
        image_ap=average_precision(image_scores, image_labels),
        n_images=len(samples),
        n_pixels=int(pixel_labels.size),
        n_anomalous_images=int(image_labels.sum()),
        n_anomalous_pixels=int(pixel_labels.sum()),
        config_echo=model.config.echo_lines(),
        level_entropy=entropy,
    )
