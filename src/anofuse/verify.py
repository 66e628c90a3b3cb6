"""Full-model gradient verification against central finite differences,
and the reference implementations (oracles) that `run_selftest` and the
tests compare the program against.

The gradient suite hands the whole model loss to the generic
finite-difference loop in `gradcheck`: every perturbed evaluation re-runs
the full forward pass, so no intermediate state is cached between
evaluations.
"""

from __future__ import annotations

import numpy as np

from .gateway import STATES
from .gradcheck import GradCheckResult, check_gradients
from .losses import model_loss
from .tensor import Tensor, conv2d_same, no_grad, reshape_2d_to_seq, reshape_seq_to_2d


def randomize_trainables(model, seed, scale=0.2, out_boost=3.0):
    """Move every trainable tensor to a generic (non-zero) point.

    At the zero init the up-projections and gate output layers annihilate
    most gradient paths, so a meaningful full-model check needs a point in
    general position. Output-side tensors (up-projections, gate output
    layers) get a larger scale: every other tensor's gradient is
    proportional to them, and keeping those gradients well above the
    central-difference roundoff floor (|loss| * eps / 2h) is what makes a
    relative tolerance meaningful under the |gradient| > floor filter.
    """
    rng = np.random.default_rng(seed)
    params = model.trainable_params()
    for name in sorted(params):
        s = scale * (out_boost if name.endswith((".w_up", ".w2")) else 1.0)
        params[name].data[:] = rng.normal(0.0, s, params[name].data.shape)


def full_model_gradient_suite(config, seed=11, scale=0.2, h=1e-5, rtol=1e-4,
                              floor=1e-8) -> GradCheckResult:
    """Build the model from config, move trainables to a generic point, and
    compare reverse-mode gradients of the total loss on one batch with
    central finite differences, elementwise over every trainable parameter."""
    from .data import batch_arrays, gen_synthetic
    from .model import build_model

    model = build_model(config)
    randomize_trainables(model, seed, scale=scale)
    samples = gen_synthetic(config, config.data_seed, n=1, prefix="gradcheck")
    if samples[0].label == 0:
        # want a mixed mask so both focal branches are exercised
        for k in range(2, 50):
            samples = gen_synthetic(config, config.data_seed + k, n=1, prefix="gradcheck")
            if samples[0].label == 1:
                break
    images, masks, labels = batch_arrays(samples)
    return check_gradients(lambda: model_loss(model, images, masks, labels, config)[0],
                           model.trainable_params(), h=h, rtol=rtol, floor=floor)


# ---------------------------------------------------------------------------
# oracles: straight-line numpy recomputations of what the program computes


def conv2d_loops(x, w):
    """Direct nested-loop convolution with zero 'same' padding."""
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


def adapter_branch_composition(x, adapter, k, grid):
    """One Conv-LoRA branch on (B, L, C) array tokens: bottleneck, two
    1/k-scaled k x k convolutions, up-projection."""
    z = reshape_seq_to_2d(x @ adapter.w_down.data, grid)
    with no_grad():
        z = conv2d_same(Tensor(z), adapter.conv_down[k]).data / k
        z = conv2d_same(Tensor(z), adapter.conv_up[k]).data / k
    return reshape_2d_to_seq(z) @ adapter.w_up.data


def adapter_composition(x, adapter, grid):
    """Conv-LoRA residual update: every branch, concatenated along channels,
    fused by the 1x1 convolution."""
    spatial = [reshape_seq_to_2d(adapter_branch_composition(x, adapter, k, grid), grid)
               for k in adapter.branch_kernels]
    with no_grad():
        fused = conv2d_same(Tensor(np.concatenate(spatial, axis=1)), adapter.fuse_1x1).data
    return reshape_2d_to_seq(fused)


def gateway_composition(gateway, v_list, t_feats, grid):
    """Per-level maps of a dynamic gateway: pool, gate, normalise, fuse,
    cosine, two-way softmax at the gateway's temperature."""
    n = len(v_list)
    maps = []
    for i in range(n):
        v = v_list[i].data
        vg = v.mean(axis=1)
        nv = np.sqrt((v * v).sum(axis=2))
        sims = []
        for s, state in enumerate(STATES):
            logits = np.tanh(vg @ gateway.w1[state].data) @ gateway.w2[state].data
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            t = (e / e.sum(axis=1, keepdims=True)) @ np.stack([t_feats[j][s].data
                                                               for j in range(n)])
            nt = np.sqrt((t * t).sum(axis=1))
            sims.append((v * t[:, None, :]).sum(axis=2) / (nv * nt[:, None]))
        z = np.stack(sims, axis=-1) / gateway.temperature
        ez = np.exp(z - z.max(axis=-1, keepdims=True))
        maps.append((ez[..., 1] / ez.sum(axis=-1)).reshape(v.shape[0], *grid))
    return maps


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
    from .config import RunConfig
    return RunConfig(n_groups=2, channels=16, heads=2, rank=2, gate_hidden=4,
                     patch_size=8, image_size=16, defect_min=3, defect_max=8)


def run_selftest(log=print):
    """Gradient checks and oracle suites; True when everything passes."""
    from .adapter import ConvLoraAdapter
    from .config import RunConfig
    from .gateway import FusionGateway
    from .losses import dice_loss, focal_loss, seg_loss
    from .metrics import auroc, average_precision
    from .tensor import softmax

    ok = True

    def report(name, passed, detail=""):
        nonlocal ok
        ok = ok and passed
        log(f"[{'ok' if passed else 'FAIL'}] {name}{(' ' + detail) if detail else ''}")

    rng = np.random.default_rng(0)

    x = rng.normal(size=(2, 12, 5))
    back = reshape_2d_to_seq(reshape_seq_to_2d(x, (3, 4)))
    report("reshape roundtrip bit-exact", bool((back == x).all()))

    v = rng.normal(size=6) * 8
    w = softmax(Tensor(v)).data
    report("softmax normalization and shift invariance",
           abs(w.sum() - 1.0) < 1e-12
           and np.abs(w - softmax(Tensor(v + 3.0)).data).max() < 1e-12)

    xs = rng.normal(size=(1, 2, 5, 5))
    ks = rng.normal(size=(2, 2, 3, 3))
    got = conv2d_same(Tensor(xs), Tensor(ks)).data
    report("convolution vs nested-loop reference",
           np.abs(got - conv2d_loops(xs, ks)).max() < 1e-12)

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

    ad = ConvLoraAdapter(4, 2, (3, 5), rng=np.random.default_rng(3))
    ad.w_up.data[:] = rng.normal(0, 0.3, ad.w_up.data.shape)
    xa = rng.normal(size=(1, 9, 4))
    with no_grad():
        got = ad(Tensor(xa), (3, 3)).data
    report("adapter matches straight-line composition",
           np.abs(got - adapter_composition(xa, ad, (3, 3))).max() < 1e-12)

    gw = FusionGateway(5, 2, 3, 0.07, dynamic=True, rng=np.random.default_rng(4))
    for state in gw.w2:
        gw.w2[state].data[:] = rng.normal(0, 0.4, gw.w2[state].data.shape)
    v_list = [Tensor(rng.normal(size=(2, 9, 5))) for _ in range(2)]
    t_feats = [[Tensor(rng.normal(size=(5,))) for _ in range(2)] for _ in range(2)]
    with no_grad():
        amap = gw.forward(v_list, t_feats, (3, 3), (9, 9))
    maps = gateway_composition(gw, v_list, t_feats, (3, 3))
    report("gateway matches straight-line composition",
           np.abs(amap.aggregated.data - np.mean(maps, axis=0)).max() < 1e-12)

    pred = rng.uniform(0.02, 0.98, (6, 6))
    target = (rng.uniform(size=(6, 6)) > 0.5).astype(float)
    f0 = float(focal_loss(pred, target, gamma=0.0, alpha=0.5).data)
    report("focal(gamma=0, alpha=1/2) reduces to BCE/2",
           abs(f0 - half_bce(pred, target)) < 1e-12)

    cfg = RunConfig()
    seg = float(seg_loss(pred, target, cfg).data)
    want = (float(focal_loss(pred, target, cfg.focal_gamma, cfg.focal_alpha).data)
            + float(dice_loss(pred, target, cfg.dice_smooth).data))
    report("segmentation loss additivity", abs(seg - want) < 1e-12)

    res = full_model_gradient_suite(_selftest_config(), seed=39)
    report("small-model gradient suite vs finite differences",
           res.passed() and res.n_skipped == 0,
           f"(max rel err {res.max_rel_err:.2e} over {res.n_checked} params)")

    log("selftest " + ("PASSED" if ok else "FAILED"))
    return ok
