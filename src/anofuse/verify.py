"""Gradient verification against central finite differences, and the
straight-line oracles that `run_selftest` compares the program against.
The reference graphs of the one-node layers, which need a second
implementation of each layer, are in `tests/oracles.py`.

`check_gradients` compares every entry of the reverse-mode gradient with a
central difference at step h. An entry's allowance is a relative part
(RTOL) plus a noise floor that the check measures: the largest difference,
over every entry, between the central differences at h and at 2h. The two
differ by three times the truncation error at h plus the change in
roundoff, so that difference measures how far the numeric side can be off.
No entry is skipped: a structurally zero gradient has analytic and numeric
value 0 and passes, and a dropped gradient path (analytic 0 against a large
numeric value) fails. Every perturbed evaluation of the full-model suite
re-runs the forward pass from the model's frozen prefix, which no trainable
tensor feeds and which is computed once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .config import RunConfig
from .data import batch_arrays, gen_synthetic
from .losses import dice_fwd, focal_fwd, model_loss, seg_loss
from .metrics import auroc, average_precision
from .model import build_model
from .tensor import Tensor, conv_rows_fwd, grad, no_grad, softmax_fwd

STEP = 1e-5  # central-difference step h
RTOL = 1e-4  # relative part of the allowance
SEED = 39  # draws the generic point of the full-model suite


@dataclass
class GradCheckResult:
    n_checked: int = 0
    noise: float = 0.0  # measured floor: max |n_h - n_2h| over every entry
    worst_ratio: float = 0.0  # largest |analytic - numeric| / allowance
    failures: list = field(default_factory=list)  # (name, index, analytic, numeric, ratio)

    def passed(self):
        return not self.failures


def _central_differences(f, p):
    """Central differences of the scalar tensor f() w.r.t. each element of
    p at steps h and 2h, stacked as (2, *p.shape). p.data is perturbed in
    place and restored; autodiff is off."""
    flat = p.data.ravel()
    out = np.zeros((2, flat.size))
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            for k, h in enumerate((STEP, 2 * STEP)):
                flat[i] = orig + h
                f_plus = float(f().data)
                flat[i] = orig - h
                f_minus = float(f().data)
                out[k, i] = (f_plus - f_minus) / (2.0 * h)
            flat[i] = orig
    return out.reshape((2,) + p.data.shape)


def check_gradients(f, params):
    """Compare reverse-mode gradients of the scalar tensor f() w.r.t. every
    trainable tensor in `params` with central differences, entry by entry.
    An entry fails iff |a - n_h| > RTOL * max(|a|, |n_h|) + noise."""
    analytic = grad(f(), params)
    numeric = {name: _central_differences(f, params[name]) for name in sorted(analytic)}
    noise = max((float(np.abs(n[0] - n[1]).max()) for n in numeric.values()), default=0.0)
    res = GradCheckResult(noise=noise)
    for name, (n, _) in numeric.items():
        a = analytic[name]
        err = np.abs(a - n)
        allowance = RTOL * np.maximum(np.abs(a), np.abs(n)) + noise
        # a zero allowance means a = n = 0, an exact match
        ratio = np.divide(err, allowance, out=np.zeros_like(err), where=allowance > 0)
        res.n_checked += a.size
        res.worst_ratio = max(res.worst_ratio, float(ratio.max()))
        for idx in zip(*np.nonzero(err > allowance)):
            res.failures.append((name, idx, float(a[idx]), float(n[idx]), float(ratio[idx])))
    return res


def randomize_trainables(model, seed):
    """Move every trainable tensor to a generic point, N(0, 0.2^2) per entry.

    At the zero init the up-projections and gate output layers annihilate
    most gradient paths, so a meaningful full-model check needs a point in
    general position. The check measures its own noise floor, so no tensor
    needs a larger scale to lift its gradients above roundoff.
    """
    rng = np.random.default_rng(seed)
    params = model.trainable_params()
    for name in sorted(params):
        params[name].data[:] = rng.normal(0.0, 0.2, params[name].data.shape)


def full_model_gradient_suite(config) -> GradCheckResult:
    """Build the model from config, move trainables to the generic point of
    SEED, and check reverse-mode gradients of the total loss on one batch
    against central finite differences, entry by entry over every trainable
    parameter."""
    model = build_model(config)
    randomize_trainables(model, SEED)
    # a defective sample, so its mask exercises both focal branches
    samples = gen_synthetic(replace(config, anomaly_rate=1.0), config.data_seed, n=1,
                            prefix="gradcheck")
    images, masks, labels = batch_arrays(samples)
    prefix = model.vision_prefix(images)

    def loss():
        out = model.forward(prefix, model.text_forward())
        return model_loss(out, masks, labels, config)[0]
    return check_gradients(loss, model.trainable_params())


# ---------------------------------------------------------------------------
# oracles: straight-line numpy recomputations of what the program computes


def conv2d_loops(x, w):
    """Direct nested-loop convolution with zero 'same' padding, (B, C, H, W)."""
    bsz, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    p = (k - 1) // 2
    y = np.zeros((bsz, cout, h, wd))
    for b in range(bsz):
        for co in range(cout):
            for hh in range(h):
                for ww in range(wd):
                    acc = 0.0
                    for ci in range(cin):
                        for i in range(k):
                            for j in range(k):
                                src_h, src_w = hh + i - p, ww + j - p
                                if 0 <= src_h < h and 0 <= src_w < wd:
                                    acc += x[b, ci, src_h, src_w] * w[co, ci, i, j]
                    y[b, co, hh, ww] = acc
    return y


def rows_to_maps(x, grid):
    """(B, L, C) token rows of a row-major grid as a (B, C, H, W) map."""
    return x.reshape(x.shape[0], *grid, x.shape[2]).transpose(0, 3, 1, 2)


def maps_to_rows(m):
    """Inverse of `rows_to_maps`."""
    b, c, h, w = m.shape
    return m.transpose(0, 2, 3, 1).reshape(b, h * w, c)


def auroc_pairs(scores, labels):
    """All positive/negative pairs: wins count 1, ties count half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (pos.size * neg.size)


def ap_sweep(scores, labels):
    """Exhaustive threshold sweep, descending, recomputing TP/FP per step."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int(labels.sum())
    ap, prev_tp = 0.0, 0
    for t in np.unique(scores)[::-1]:
        sel = scores >= t
        tp = int(labels[sel].sum())
        if tp > prev_tp:
            ap += ((tp - prev_tp) / n_pos) * (tp / int(sel.sum()))
        prev_tp = tp
    return ap


def half_bce(pred, target):
    """Half the mean binary cross-entropy: the focal loss at gamma=0, alpha=1/2."""
    return -0.5 * (target * np.log(pred) + (1 - target) * np.log(1 - pred)).mean()


# ---------------------------------------------------------------------------
# selftest: oracle suites runnable from the CLI on a fresh checkout


def _selftest_config():
    return RunConfig(n_groups=2, channels=16, heads=2, rank=2, gate_hidden=4,
                     patch_size=8, image_size=16, defect_min=3, defect_max=8)


def run_selftest():
    """Gradient checks and oracle suites; True when everything passes."""
    ok = True

    def report(name, passed, detail=""):
        nonlocal ok
        ok = ok and passed
        print(f"[{'ok' if passed else 'FAIL'}] {name}{(' ' + detail) if detail else ''}")

    rng = np.random.default_rng(0)

    v = rng.normal(size=6) * 8
    w = softmax_fwd(v)
    report("softmax normalization and shift invariance",
           abs(w.sum() - 1.0) < 1e-12 and np.abs(w - softmax_fwd(v + 3.0)).max() < 1e-12)

    xs = rng.normal(size=(2, 15, 2))
    ks = rng.normal(size=(3, 2, 3, 3))
    got = conv_rows_fwd(xs, ks, (3, 5))[0]
    report("row convolution vs nested-loop reference (3x5 grid)",
           np.abs(got - maps_to_rows(conv2d_loops(rows_to_maps(xs, (3, 5)), ks))).max() < 1e-12)

    metric_ok = True
    for _ in range(200):
        n = int(rng.integers(2, 150))
        scores = rng.integers(0, 9, n).astype(np.float64)
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        metric_ok &= auroc(scores, labels) == auroc_pairs(scores, labels)
        metric_ok &= average_precision(scores, labels) == ap_sweep(scores, labels)
    report("auroc/ap equal brute-force oracles (200 tied instances)", metric_ok)

    pred = Tensor(rng.uniform(0.02, 0.98, (6, 6)))
    target = (rng.uniform(size=(6, 6)) > 0.5).astype(float)
    f0 = float(focal_fwd(pred.data, target, gamma=0.0, alpha=0.5)[0])
    report("focal(gamma=0, alpha=1/2) reduces to BCE/2",
           abs(f0 - half_bce(pred.data, target)) < 1e-12)

    cfg = RunConfig()
    seg = float(seg_loss(pred, target, cfg).data)
    want = (float(focal_fwd(pred.data, target, cfg.focal_gamma, cfg.focal_alpha)[0])
            + float(dice_fwd(pred.data, target, cfg.dice_smooth)[0]))
    report("segmentation loss additivity", abs(seg - want) < 1e-12)

    res = full_model_gradient_suite(_selftest_config())
    report("small-model gradient suite vs finite differences", res.passed(),
           f"({res.n_checked} entries, noise floor {res.noise:.1e}, "
           f"worst {res.worst_ratio:.2f} of allowance)")

    print("selftest " + ("PASSED" if ok else "FAILED"))
    return ok
