import math
from types import SimpleNamespace

import numpy as np
import pytest

from anofuse import losses as losses_module
from anofuse.config import RunConfig
from anofuse.errors import ShapeError
from anofuse.gateway import state_probs
from anofuse.losses import (CLAMP_EPS, cls_loss, dice_fwd, focal_fwd, image_score, model_loss,
                            seg_loss)
from anofuse.tensor import Tensor
from anofuse.verify import check_gradients, half_bce
from oracles import cls_loss_graph, node_and_graph, same_bits, seg_loss_graph


def focal_loss(pred, target, gamma, alpha):
    """The focal term of a pred array, as a float."""
    return float(focal_fwd(np.asarray(pred, dtype=np.float64), target, gamma, alpha)[0])


def dice_loss(pred, target, smooth):
    """The dice term of a pred array, as a float."""
    return float(dice_fwd(np.asarray(pred, dtype=np.float64), target, smooth)[0])


def test_focal_near_perfect_prediction():
    target = np.array([[1.0, 0.0], [0.0, 1.0]])
    pred = np.where(target > 0, 0.9999, 0.0001)
    assert focal_loss(pred, target, 2.0, 0.25) < 1e-3


def test_focal_gamma0_alpha_half_is_half_bce():
    rng = np.random.default_rng(0)
    pred = rng.uniform(0.01, 0.99, (5, 7))
    target = (rng.uniform(size=(5, 7)) > 0.5).astype(float)
    got = focal_loss(pred, target, gamma=0.0, alpha=0.5)
    assert abs(got - half_bce(pred, target)) < 1e-12


def test_focal_single_pixel_hand_value():
    got = focal_loss(np.array([[0.5]]), np.array([[1.0]]), 2.0, 0.25)
    assert abs(got - 0.25 * 0.25 * math.log(2.0)) < 1e-15


def test_focal_clamps_exact_zero_one():
    pred = np.array([[0.0, 1.0]])
    target = np.array([[1.0, 0.0]])
    val = focal_loss(pred, target, 2.0, 0.25)
    assert np.isfinite(val) and val > 0


def test_dice_perfect_overlap_is_zero():
    target = (np.random.default_rng(1).uniform(size=(6, 6)) > 0.6).astype(float)
    assert dice_loss(target, target, smooth=1.0) == 0.0


def test_dice_disjoint_approaches_one():
    pred = np.zeros((4, 4))
    target = np.ones((4, 4))
    assert abs(dice_loss(pred, target, smooth=1e-12) - 1.0) < 1e-9


def test_dice_hand_value():
    s = 0.5
    got = dice_loss(np.array([0.5, 0.5]), np.array([1.0, 0.0]), smooth=s)
    want = 1.0 - (2 * 0.5 + s) / (1.0 + 1.0 + s)
    assert abs(got - want) < 1e-15


def test_dice_range():
    rng = np.random.default_rng(2)
    for _ in range(10):
        pred = rng.uniform(0, 1, (5, 5))
        target = (rng.uniform(size=(5, 5)) > 0.5).astype(float)
        v = dice_loss(pred, target, 1.0)
        assert 0.0 <= v <= 1.0


def test_seg_loss_switches_and_additivity():
    rng = np.random.default_rng(3)
    pred = Tensor(rng.uniform(0.05, 0.95, (4, 4)))
    target = (rng.uniform(size=(4, 4)) > 0.5).astype(float)
    dice_only = RunConfig(lambda_focal=0.0, lambda_dice=2.0)
    focal_only = RunConfig(lambda_focal=1.5, lambda_dice=0.0)
    both = RunConfig(lambda_focal=1.0, lambda_dice=1.0)
    assert abs(float(seg_loss(pred, target, dice_only).data)
               - 2.0 * dice_loss(pred.data, target, dice_only.dice_smooth)) < 1e-15
    assert abs(float(seg_loss(pred, target, focal_only).data)
               - 1.5 * focal_loss(pred.data, target, 2.0, 0.25)) < 1e-15
    want = (focal_loss(pred.data, target, 2.0, 0.25)
            + dice_loss(pred.data, target, 1.0))
    assert abs(float(seg_loss(pred, target, both).data) - want) < 1e-12
    with pytest.raises(ShapeError, match="pred shape"):
        seg_loss(pred, target[:2], both)


def test_cls_equidistant_gives_ln2():
    v = Tensor(np.array([[1.0, 1.0]]))
    anchor = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    for label in (0, 1):
        got = float(cls_loss(state_probs(v, anchor, 0.5), np.array([label])).data)
        assert abs(got - math.log(2.0)) < 1e-12


def test_cls_aligned_abnormal_scalar_oracle():
    v = Tensor(np.array([[1.0, 0.0]]))
    anchor = Tensor(np.array([[0.0, 1.0], [1.0, 0.0]]))
    got = float(cls_loss(state_probs(v, anchor, 1.0), np.array([1])).data)
    sigma = math.exp(1.0) / (math.exp(0.0) + math.exp(1.0))
    assert abs(got + math.log(sigma)) < 1e-12


def test_cls_anchor_swap_with_label_swap_is_symmetric():
    rng = np.random.default_rng(4)
    v = Tensor(rng.normal(size=(3, 6)))
    a = rng.normal(size=(6,))
    b = rng.normal(size=(6,))
    labels = np.array([0, 1, 0])
    l1 = float(cls_loss(state_probs(v, Tensor(np.stack([a, b])), 0.07), labels).data)
    l2 = float(cls_loss(state_probs(v, Tensor(np.stack([b, a])), 0.07), 1 - labels).data)
    assert abs(l1 - l2) < 1e-12


def test_cls_probs_rows_normalized():
    rng = np.random.default_rng(5)
    v = Tensor(rng.normal(size=(4, 6)))
    anchor = Tensor(rng.normal(size=(2, 6)))
    p = state_probs(v, anchor, 0.07).data
    assert p.shape == (4, 2)
    assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-12
    assert (p > 0).all()


def test_total_loss_weighting():
    rng = np.random.default_rng(6)
    amap = SimpleNamespace(upsampled=Tensor(rng.uniform(0.1, 0.9, (2, 4, 4))))
    v_cls, t_feats = Tensor(rng.normal(size=(2, 6))), Tensor(rng.normal(size=(3, 2, 6)))
    out = (amap, state_probs(v_cls, t_feats[-1], RunConfig().temperature))
    masks = (rng.uniform(size=(2, 4, 4)) > 0.5).astype(np.float64)
    for lam in (1.0, 2.5, 0.0):
        total, seg, cls = model_loss(out, masks, np.array([0, 1]), RunConfig(lambda_cls=lam))
        assert float(cls.data) > 0.0
        assert total.data == seg.data + cls.data * lam
    assert total.data == seg.data


def test_image_score_extremes_and_mean():
    m = np.zeros((1, 4, 4))
    m[0, 1, 1] = 1.0
    assert image_score(np.array([1.0]), m)[0] == 1.0
    tiny = np.full((1, 4, 4), 1e-9)
    assert image_score(np.array([0.0]), tiny)[0] < 1e-8
    m2 = np.full((1, 4, 4), 0.8)
    assert abs(image_score(np.array([0.6]), m2)[0] - 0.7) < 1e-15


def test_image_score_monotone_in_both_arguments():
    base_map = np.full((1, 3, 3), 0.4)
    hi_map = base_map.copy()
    hi_map[0, 0, 0] = 0.9
    s00 = image_score(np.array([0.2]), base_map)[0]
    s01 = image_score(np.array([0.2]), hi_map)[0]
    s10 = image_score(np.array([0.5]), base_map)[0]
    assert s01 > s00 and s10 > s00


# ---------------------------------------------------------------------------
# the one-node losses against their Tensor-primitive graphs


def seg_case(b, seed=40, lo=0.0, hi=1.0):
    """A trainable (B, 4, 5) map in [lo, hi) and a 0/1 mask of its shape."""
    rng = np.random.default_rng(seed)
    pred = Tensor(rng.uniform(lo, hi, (b, 4, 5)), trainable=True, name="pred")
    return pred, (rng.uniform(size=(b, 4, 5)) > 0.5).astype(float)


# the default focal_alpha, and the two ends, where alpha_t is 0 on one class
@pytest.mark.parametrize("alpha", [0.25, 0.0, 1.0],
                         ids=["binary", "binary-alpha0", "binary-alpha1"])
@pytest.mark.parametrize("lambdas", [{}, {"lambda_focal": 0.0}, {"lambda_dice": 0.0}],
                         ids=["both", "no-focal", "no-dice"])
@pytest.mark.parametrize("gamma", [0.0, 1.5, 2.0])
@pytest.mark.parametrize("b", [1, 3])
def test_seg_loss_node_carries_the_graphs_bits(b, gamma, lambdas, alpha):
    pred, target = seg_case(b)
    # exactly 0 and 1, and the clamp's bounds: the clamp binds at each
    pred.data.flat[:4] = (0.0, CLAMP_EPS, 1.0 - CLAMP_EPS, 1.0)
    cfg = RunConfig(focal_gamma=gamma, focal_alpha=alpha, **lambdas)
    pairs = node_and_graph(lambda: seg_loss(pred, target, cfg),
                           lambda: seg_loss_graph(pred, target, cfg), {"pred": pred})
    assert same_bits(pairs)
    if cfg.lambda_dice == 0.0:
        # the focal term alone has no gradient where the clamp binds
        assert (pairs[0][1]["pred"].flat[:4] == 0.0).all()


CLS_CASES = {
    "one-image": (np.array([[0.3, 0.7]]), [1]),
    "three-images": (np.array([[0.8, 0.2], [0.4, 0.6], [0.55, 0.45]]), [0, 1, 1]),
    "seven-images": (np.random.default_rng(43).dirichlet((1.0, 1.0), 7), [0, 1, 0, 1, 0, 1, 1]),
    # picked probabilities of exactly 0, 1 and the clamp's floor
    "clamped": (np.array([[0.0, 1.0], [1.0, 0.0], [CLAMP_EPS ** 2, 1.0 - CLAMP_EPS ** 2]]),
                [0, 0, 0]),
}


@pytest.mark.parametrize("case", CLS_CASES)
def test_cls_loss_node_carries_the_graphs_bits(case):
    probs, labels = CLS_CASES[case]
    probs = Tensor(probs.copy(), trainable=True)
    assert same_bits(node_and_graph(lambda: cls_loss(probs, labels),
                                    lambda: cls_loss_graph(probs, labels), {"probs": probs}))


def _seg_gradient_check(cfg=RunConfig(focal_gamma=1.5)):
    pred, target = seg_case(2, seed=41, lo=0.05, hi=0.95)
    return check_gradients(lambda: seg_loss(pred, target, cfg), {"pred": pred})


def test_fd_seg_and_cls_loss_node_gradients():
    res = _seg_gradient_check()
    assert res.passed(), res.failures[:3]
    assert res.n_checked == 40
    probs = {"probs": Tensor(np.random.default_rng(42).uniform(0.05, 0.95, (3, 2)), trainable=True)}
    res = check_gradients(lambda: cls_loss(probs["probs"], [0, 1, 1]), probs)
    assert res.passed(), res.failures[:3]
    assert res.n_checked == 6


@pytest.mark.parametrize("kernel", ["focal_bwd", "dice_bwd"])
def test_fd_seg_loss_catches_a_scaled_gradient(monkeypatch, kernel):
    bwd = getattr(losses_module, kernel)
    monkeypatch.setattr(losses_module, kernel,
                        lambda *args: np.multiply(bwd(*args), 1 + 1e-3))
    assert not _seg_gradient_check().passed()
