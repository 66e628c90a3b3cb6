"""Gradient verification against central finite differences, and the
reference implementations (oracles) that `run_selftest` and the tests
compare the program against.

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

from .adapter import ConvLoraAdapter
from .config import RunConfig
from .data import batch_arrays, gen_synthetic
from .gateway import STATES, FusionGateway, aligned_weights, state_probs
from .losses import CLAMP_EPS, cls_loss, dice_fwd, focal_fwd, model_loss, seg_loss
from .metrics import auroc, average_precision
from .model import TransformerBlock, build_model
from .tensor import (NORM_FLOOR, Tensor, bilinear_matrix, clip, concat, conv_rows, gelu, grad,
                     layer_norm, log, matmul, no_grad, reshape, softmax, sqrt, stack, tanh, tmean,
                     transpose, tsum)

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


def block_composition(block, x):
    """A frozen TransformerBlock composed from Tensor primitives, one graph
    node per op: the reference for the fused block's forward values and
    input gradient."""
    b, l, c = x.data.shape
    h = layer_norm(x)
    q, k, v = (transpose(reshape(matmul(h, w), (b, l, block.heads, block.head_dim)), (0, 2, 1, 3))
               for w in (block.wq, block.wk, block.wv))
    attn = softmax(matmul(q, transpose(k, (0, 1, 3, 2))) * block.scale, axis=-1)
    x = x + matmul(reshape(transpose(matmul(attn, v), (0, 2, 1, 3)), (b, l, c)), block.wo)
    return x + matmul(gelu(matmul(layer_norm(x), block.w1)), block.w2)


def adapter_branch_composition(x, adapter, k, grid):
    """One Conv-LoRA branch on (B, L, C) array tokens: bottleneck, two
    1/k-scaled k x k loop convolutions on the (B, r, H, W) map,
    up-projection."""
    z = rows_to_maps(x @ adapter.w_down.data, grid)
    z = conv2d_loops(z, adapter.conv_down[k].data) / k
    z = conv2d_loops(z, adapter.conv_up[k].data) / k
    return maps_to_rows(z) @ adapter.w_up.data


def adapter_composition(x, adapter, grid):
    """Conv-LoRA on (B, L, C) array tokens: the tokens with the residual
    update added to their last H*W rows. The update is every branch,
    concatenated along channels, fused by the 1x1 loop convolution."""
    s = x.shape[1] - grid[0] * grid[1]
    maps = [rows_to_maps(adapter_branch_composition(x[:, s:], adapter, k, grid), grid)
            for k in adapter.branch_kernels]
    update = maps_to_rows(conv2d_loops(np.concatenate(maps, axis=1), adapter.fuse_1x1.data))
    return np.concatenate([x[:, :s], x[:, s:] + update], axis=1)


def gateway_composition(gateway, v_list, t_feats, grid):
    """Per-level maps of a dynamic gateway on (N, S, C) text features: pool,
    gate, normalise, fuse, cosine, two-way softmax at its temperature."""
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
            t = (e / e.sum(axis=1, keepdims=True)) @ t_feats.data[:, s, :]
            nt = np.sqrt((t * t).sum(axis=1))
            sims.append((v * t[:, None, :]).sum(axis=2) / (nv * nt[:, None]))
        z = np.stack(sims, axis=-1) / gateway.temperature
        ez = np.exp(z - z.max(axis=-1, keepdims=True))
        maps.append((ez[..., 1] / ez.sum(axis=-1)).reshape(v.shape[0], *grid))
    return maps


# Tensor-primitive graphs of the one-node layers: the references for the
# gateway, the cosine-softmax head and the two losses, whose nodes must
# reproduce each graph's values and gradients bit for bit.


def cosine(u, v):
    """Cosine similarity of every row of u (..., L, C) with every row of v
    (..., S, C): one (..., L, S) matmul over C; leading axes broadcast."""
    nd = v.data.ndim
    vt = transpose(v, tuple(range(nd - 2)) + (nd - 1, nd - 2))
    nu = sqrt(clip(tsum(u * u, axis=-1, keepdims=True), NORM_FLOOR, np.inf))
    nv = sqrt(clip(tsum(vt * vt, axis=-2, keepdims=True), NORM_FLOOR, np.inf))
    return matmul(u, vt) / (nu * nv)


def bilinear_upsample(m, target):
    """Upsample a (B, H, W) batch of single-channel maps to `target`."""
    b, sh, sw = m.data.shape
    a = bilinear_matrix((sh, sw), target)
    out = matmul(Tensor(a), reshape(m, (b, sh * sw, 1)))  # (b, dh*dw, 1) via broadcast
    return reshape(out, (b, target[0], target[1]))


def state_probs_graph(x, t, temperature):
    """`gateway.state_probs` as a graph of Tensor primitives."""
    return softmax(cosine(x, t) * (1.0 / temperature), axis=-1)


def gateway_graph(gateway, v_list, t_feats, grid, pixel_hw):
    """`FusionGateway.forward` as a graph of Tensor primitives: the
    (N, B, H, W) level maps and the upsampled mean."""
    n = gateway.n_groups
    v = stack(v_list)  # (N, B, L, C)
    _, b, _, c = v.data.shape
    if gateway.dynamic:
        v_glob = tmean(v, axis=2)
        w = [softmax(matmul(tanh(matmul(v_glob, gateway.w1[state])), gateway.w2[state]), axis=-1)
             for state in STATES]
    else:
        w = [Tensor(aligned_weights(n, b))] * len(STATES)
    t = concat([reshape(matmul(w[s], t_feats[:, s, :]), (n, b, 1, c))
                for s in range(len(STATES))], axis=2)  # (N, B, S, C)
    maps = reshape(state_probs_graph(v, t, gateway.temperature)[..., 1],
                   (n, b) + tuple(grid))
    return maps, bilinear_upsample(tsum(maps, axis=0) * (1.0 / n), pixel_hw)


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


def seg_loss_graph(pred, target, cfg):
    """`losses.seg_loss` as a graph of Tensor primitives."""
    target = np.asarray(target, dtype=np.float64)
    return (focal_loss(pred, target, cfg.focal_gamma, cfg.focal_alpha) * cfg.lambda_focal
            + dice_loss(pred, target, cfg.dice_smooth) * cfg.lambda_dice)


def cls_loss_graph(probs, labels):
    """`losses.cls_loss` as a graph of Tensor primitives."""
    labels = np.asarray(labels)
    onehot = np.zeros((labels.shape[0], 2))
    onehot[np.arange(labels.shape[0]), labels.astype(int)] = 1.0
    picked = tsum(probs * onehot, axis=1)
    return -tmean(log(clip(picked, CLAMP_EPS * CLAMP_EPS, 1.0)))


def node_and_graph(node, graph, params, probe=None):
    """The value and the gradients of a one-node layer, `node()`, and of its
    Tensor-primitive graph, `graph()`, both functions of the tensors in
    `params`: a (value, {name: gradient}) pair each. The objective is the
    output itself when `probe` is None, else sum(probe * output)."""
    pairs = []
    for f in (node, graph):
        y = f()
        pairs.append((y.data, grad(y if probe is None else tsum(y * probe), params)))
    return pairs


def same_bits(pairs):
    """Whether the two (value, gradients) pairs of `node_and_graph` are equal
    element for element."""
    (a, ga), (b, gb) = pairs
    return (np.array_equal(a, b) and ga.keys() == gb.keys()
            and all(np.array_equal(ga[k], gb[k]) for k in ga))


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
    w = softmax(Tensor(v)).data
    report("softmax normalization and shift invariance",
           abs(w.sum() - 1.0) < 1e-12
           and np.abs(w - softmax(Tensor(v + 3.0)).data).max() < 1e-12)

    xs = rng.normal(size=(2, 15, 2))
    ks = rng.normal(size=(3, 2, 3, 3))
    got = conv_rows(Tensor(xs), Tensor(ks), (3, 5)).data
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

    ad = ConvLoraAdapter(4, 2, (3, 5), rng=np.random.default_rng(3))
    ad.w_up.data[:] = rng.normal(0, 0.3, ad.w_up.data.shape)
    xa = rng.normal(size=(1, 9, 4))  # a class row and a 2x4 grid
    with no_grad():
        got = ad(Tensor(xa), (2, 4)).data
    report("adapter matches straight-line composition",
           np.abs(got - adapter_composition(xa, ad, (2, 4))).max() < 1e-12)

    gw = FusionGateway(5, 2, 3, 0.07, dynamic=True, rng=np.random.default_rng(4))
    for state in gw.w2:
        gw.w2[state].data[:] = rng.normal(0, 0.4, gw.w2[state].data.shape)
    v_list = [Tensor(rng.normal(size=(2, 9, 5))) for _ in range(2)]
    t_feats = Tensor(rng.normal(size=(2, 2, 5)))
    with no_grad():
        amap = gw.forward(v_list, t_feats, (3, 3), (9, 9))
    maps = gateway_composition(gw, v_list, t_feats, (3, 3))
    report("gateway matches straight-line composition",
           all(np.abs(got - want).max() < 1e-12 for got, want in zip(amap.per_level, maps)))

    pred = Tensor(rng.uniform(0.02, 0.98, (6, 6)), trainable=True, name="pred")
    target = (rng.uniform(size=(6, 6)) > 0.5).astype(float)
    f0 = float(focal_fwd(pred.data, target, gamma=0.0, alpha=0.5)[0])
    report("focal(gamma=0, alpha=1/2) reduces to BCE/2",
           abs(f0 - half_bce(pred.data, target)) < 1e-12)

    cfg = RunConfig()
    seg = float(seg_loss(pred, target, cfg).data)
    want = (float(focal_fwd(pred.data, target, cfg.focal_gamma, cfg.focal_alpha)[0])
            + float(dice_fwd(pred.data, target, cfg.dice_smooth)[0]))
    report("segmentation loss additivity", abs(seg - want) < 1e-12)

    # the one-node layers against their Tensor-primitive graphs, bit for bit:
    # the value and the gradient of every parent
    v_list = [Tensor(rng.normal(size=(2, 9, 5)), trainable=True, name=f"v{i}") for i in range(2)]
    t_feats = Tensor(rng.normal(size=(2, 2, 5)), trainable=True, name="t_feats")
    params = {t.name: t for t in (*v_list, t_feats, *gw.params)}
    pairs = node_and_graph(lambda: gw.forward(v_list, t_feats, (3, 3), (9, 9)).upsampled,
                           lambda: gateway_graph(gw, v_list, t_feats, (3, 3), (9, 9))[1],
                           params, rng.normal(size=(2, 9, 9)))
    report("gateway node matches its Tensor graph bit for bit", same_bits(pairs),
           f"(value and {len(params)} gradients)")

    x = Tensor(rng.normal(size=(3, 5)), trainable=True)
    pairs = node_and_graph(lambda: state_probs(x, t_feats[-1], 0.07),
                           lambda: state_probs_graph(x, t_feats[-1], 0.07),
                           {"x": x, "t_feats": t_feats}, rng.normal(size=(3, 2)))
    report("image head node matches its Tensor graph bit for bit", same_bits(pairs))

    # predictions at the clamp bounds and beyond them, so its masks bind
    pred.data.flat[:4] = (0.0, CLAMP_EPS, 1.0 - CLAMP_EPS, 1.0)
    probs = Tensor(rng.uniform(0.0, 1.0, (4, 2)), trainable=True, name="probs")
    labels = np.array([0, 1, 1, 0])
    report("seg and cls loss nodes match their Tensor graphs bit for bit",
           same_bits(node_and_graph(lambda: seg_loss(pred, target, cfg),
                                    lambda: seg_loss_graph(pred, target, cfg), {"pred": pred}))
           and same_bits(node_and_graph(lambda: cls_loss(probs, labels),
                                        lambda: cls_loss_graph(probs, labels), {"probs": probs})))

    blk = TransformerBlock(8, 2, np.random.default_rng(5), "selftest")
    xb = Tensor(rng.normal(size=(2, 3, 8)), trainable=True)
    (y_fused, g_fused), (y_composed, g_composed) = node_and_graph(
        lambda: blk(xb), lambda: block_composition(blk, xb), {"x": xb},
        rng.normal(size=xb.data.shape))
    rel = np.abs(g_fused["x"] - g_composed["x"]).max() / np.abs(g_composed["x"]).max()
    report("fused transformer block matches composed block",
           np.array_equal(y_fused, y_composed) and rel < 1e-12,
           f"(input gradient within {rel:.1e} relative)")

    res = full_model_gradient_suite(_selftest_config())
    report("small-model gradient suite vs finite differences", res.passed(),
           f"({res.n_checked} entries, noise floor {res.noise:.1e}, "
           f"worst {res.worst_ratio:.2f} of allowance)")

    print("selftest " + ("PASSED" if ok else "FAILED"))
    return ok
