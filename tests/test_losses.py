import math
from types import SimpleNamespace

import numpy as np
import pytest

from anofuse.config import RunConfig
from anofuse.errors import ConfigurationError
from anofuse.gateway import state_probs
from anofuse.losses import cls_loss, dice_loss, focal_loss, image_score, model_loss, seg_loss
from anofuse.tensor import Tensor
from anofuse.verify import half_bce


def test_focal_near_perfect_prediction():
    target = np.array([[1.0, 0.0], [0.0, 1.0]])
    pred = Tensor(np.where(target > 0, 0.9999, 0.0001))
    assert float(focal_loss(pred, target, 2.0, 0.25).data) < 1e-3


def test_focal_gamma0_alpha_half_is_half_bce():
    rng = np.random.default_rng(0)
    pred = rng.uniform(0.01, 0.99, (5, 7))
    target = (rng.uniform(size=(5, 7)) > 0.5).astype(float)
    got = float(focal_loss(Tensor(pred), target, gamma=0.0, alpha=0.5).data)
    assert abs(got - half_bce(pred, target)) < 1e-12


def test_focal_single_pixel_hand_value():
    got = float(focal_loss(Tensor(np.array([[0.5]])), np.array([[1.0]]), 2.0, 0.25).data)
    assert abs(got - 0.25 * 0.25 * math.log(2.0)) < 1e-15


def test_focal_clamps_exact_zero_one():
    pred = Tensor(np.array([[0.0, 1.0]]))
    target = np.array([[1.0, 0.0]])
    val = float(focal_loss(pred, target, 2.0, 0.25).data)
    assert np.isfinite(val) and val > 0


def test_dice_perfect_overlap_is_zero():
    target = (np.random.default_rng(1).uniform(size=(6, 6)) > 0.6).astype(float)
    assert float(dice_loss(Tensor(target), target, smooth=1.0).data) == 0.0


def test_dice_disjoint_approaches_one():
    pred = Tensor(np.zeros((4, 4)))
    target = np.ones((4, 4))
    assert abs(float(dice_loss(pred, target, smooth=1e-12).data) - 1.0) < 1e-9


def test_dice_hand_value():
    s = 0.5
    got = float(dice_loss(Tensor(np.array([0.5, 0.5])), np.array([1.0, 0.0]), smooth=s).data)
    want = 1.0 - (2 * 0.5 + s) / (1.0 + 1.0 + s)
    assert abs(got - want) < 1e-15


def test_dice_range():
    rng = np.random.default_rng(2)
    for _ in range(10):
        pred = Tensor(rng.uniform(0, 1, (5, 5)))
        target = (rng.uniform(size=(5, 5)) > 0.5).astype(float)
        v = float(dice_loss(pred, target, 1.0).data)
        assert 0.0 <= v <= 1.0


def test_seg_loss_switches_and_additivity():
    rng = np.random.default_rng(3)
    pred = Tensor(rng.uniform(0.05, 0.95, (4, 4)))
    target = (rng.uniform(size=(4, 4)) > 0.5).astype(float)
    dice_only = RunConfig(lambda_focal=0.0, lambda_dice=2.0)
    focal_only = RunConfig(lambda_focal=1.5, lambda_dice=0.0)
    both = RunConfig(lambda_focal=1.0, lambda_dice=1.0)
    assert abs(float(seg_loss(pred, target, dice_only).data)
               - 2.0 * float(dice_loss(pred, target, dice_only.dice_smooth).data)) < 1e-15
    assert abs(float(seg_loss(pred, target, focal_only).data)
               - 1.5 * float(focal_loss(pred, target, 2.0, 0.25).data)) < 1e-15
    want = (float(focal_loss(pred, target, 2.0, 0.25).data)
            + float(dice_loss(pred, target, 1.0).data))
    assert abs(float(seg_loss(pred, target, both).data) - want) < 1e-12
    with pytest.raises(ConfigurationError, match="pred shape"):
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
