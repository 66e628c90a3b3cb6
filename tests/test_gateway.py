import numpy as np
import pytest

from anofuse.errors import ShapeError
from anofuse.gateway import STATES, FusionGateway
from anofuse.tensor import Tensor, no_grad, softmax
from anofuse.verify import gateway_composition


def make_gateway(c=6, n=3, hidden=4, tau=0.07, dynamic=True, seed=0, randomize=False):
    gw = FusionGateway(c, n, hidden, tau, dynamic=dynamic, rng=np.random.default_rng(seed))
    if randomize and dynamic:
        rng = np.random.default_rng(seed + 50)
        for state in STATES:
            gw.w2[state].data[:] = rng.normal(0, 0.5, gw.w2[state].data.shape)
    return gw


def rand_features(c=6, n=3, b=2, l=9, seed=1):
    rng = np.random.default_rng(seed)
    v_list = [Tensor(rng.normal(size=(b, l, c))) for _ in range(n)]
    t_feats = Tensor(rng.normal(size=(n, len(STATES), c)))
    return v_list, t_feats


def test_zero_init_gate_gives_uniform_weights():
    gw = make_gateway()
    v = Tensor(np.random.default_rng(2).normal(size=(4, 6)))
    w = gw.fusion_weights(v, "normal").data
    np.testing.assert_array_equal(w, np.full((4, 3), 1.0 / 3.0))


def test_fusion_weights_normalized_and_positive():
    gw = make_gateway(randomize=True)
    v = Tensor(np.random.default_rng(3).normal(size=(5, 6)) * 3)
    for state in STATES:
        w = gw.fusion_weights(v, state).data
        assert (w > 0).all()
        assert np.abs(w.sum(axis=1) - 1.0).max() < 1e-12


def test_gate_output_shift_leaves_weights_unchanged():
    gw = make_gateway(randomize=True)
    v = Tensor(np.random.default_rng(4).normal(size=(3, 6)))
    base = gw.fusion_weights(v, "normal").data
    # adding a constant to every logit: shift all output columns equally
    logits = np.tanh(v.data @ gw.w1["normal"].data) @ gw.w2["normal"].data
    shifted = Tensor(logits + 7.5)
    np.testing.assert_allclose(softmax(shifted, axis=-1).data, base, rtol=0, atol=1e-12)


def test_peaked_logits_match_high_precision_oracle():
    import mpmath
    mpmath.mp.dps = 50
    got = softmax(Tensor(np.array([10.0, 0.0, 0.0]))).data
    es = [mpmath.exp(v) for v in (10.0, 0.0, 0.0)]
    tot = sum(es)
    want = np.array([float(e / tot) for e in es])
    np.testing.assert_allclose(got, want, rtol=1e-15)
    assert abs(got[0] - 0.99991) < 1e-4


def test_forward_identical_text_levels_ignore_weights():
    # every text level equal: any convex weights fuse to the same features
    v_list, _ = rand_features(seed=5)
    f = np.random.default_rng(6).normal(size=(len(STATES), 6))
    t_feats = Tensor(np.broadcast_to(f, (3, len(STATES), 6)).copy())
    gw = make_gateway(randomize=True, seed=7)
    static_gw = make_gateway(dynamic=False)
    with no_grad():
        dyn = gw.forward(v_list, t_feats, (3, 3), (9, 9))
        sta = static_gw.forward(v_list, t_feats, (3, 3), (9, 9))
    assert np.abs(dyn.fusion_weights - sta.fusion_weights).max() > 0.1
    np.testing.assert_allclose(dyn.per_level.data, sta.per_level.data, rtol=0, atol=1e-12)
    np.testing.assert_allclose(dyn.upsampled.data, sta.upsampled.data, rtol=0, atol=1e-12)


def test_forward_level_count_mismatch():
    gw = make_gateway()
    v_list, t_feats = rand_features(seed=7)
    for n_vision, n_text in ((3, 2), (2, 3)):
        with pytest.raises(ShapeError, match="expected 3 levels"):
            gw.forward(v_list[:n_vision], t_feats[:n_text], (3, 3), (6, 6))
    with pytest.raises(ShapeError, match=r"expected \(3, 2, 6\) text features, got \(3, 1, 6\)"):
        gw.forward(v_list, t_feats[:, :1, :], (3, 3), (6, 6))


def test_level_map_equal_descriptors_give_half():
    gw = make_gateway()
    rng = np.random.default_rng(8)
    v = Tensor(rng.normal(size=(2, 9, 6)))
    t = rng.normal(size=(2, 1, 6))
    m = gw.level_map(v, Tensor(np.concatenate([t, t], axis=1)), (3, 3)).data
    np.testing.assert_array_equal(m, np.full((2, 3, 3), 0.5))


def test_level_map_sigmoid_scalar_oracle():
    import math
    gw = make_gateway(c=2, tau=1.0)
    # patch aligned with abnormal descriptor, orthogonal to normal
    v = Tensor(np.array([[[1.0, 0.0]] * 4]))
    t = Tensor(np.array([[0.0, 1.0], [1.0, 0.0]]))  # normal, abnormal
    m = gw.level_map(v, t, (2, 2)).data
    want = math.exp(1.0) / (math.exp(0.0) + math.exp(1.0))
    np.testing.assert_allclose(m, want, rtol=1e-12)
    assert abs(want - 0.7311) < 1e-4


def test_level_map_sharpens_as_temperature_drops():
    gw_hot = make_gateway(c=2, tau=1.0)
    gw_cold = make_gateway(c=2, tau=0.01)
    v = Tensor(np.array([[[1.0, 0.2]] * 4]))
    t = Tensor(np.array([[0.0, 1.0], [1.0, 0.0]]))
    hot = gw_hot.level_map(v, t, (2, 2)).data
    cold = gw_cold.level_map(v, t, (2, 2)).data
    assert (cold > hot).all() and cold.max() > 0.999


def test_level_map_monotone_in_abnormal_similarity():
    gw = make_gateway(c=3, tau=0.5)
    t = Tensor(np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
    prev = -1.0
    for alpha in np.linspace(0.1, 0.9, 7):
        # v orthogonal to the normal row t[0] always; cos(v, t[1]) = alpha
        v = np.array([[[alpha, np.sqrt(1 - alpha * alpha), 0.0]] * 4])
        m = gw.level_map(Tensor(v), t, (2, 2)).data[0, 0, 0]
        assert m > prev
        prev = m


def test_level_map_on_stacked_levels_equals_per_level_calls_bitwise():
    gw = make_gateway(c=6, tau=0.07)
    rng = np.random.default_rng(17)
    v = rng.normal(size=(3, 2, 12, 6))
    t = rng.normal(size=(3, 2, 2, 6))  # (N, B, S, C)
    stacked = gw.level_map(Tensor(v), Tensor(t), (3, 4)).data
    assert stacked.shape == (3, 2, 3, 4)
    for i in range(3):
        one = gw.level_map(Tensor(v[i]), Tensor(t[i]), (3, 4)).data
        np.testing.assert_array_equal(stacked[i], one)


def test_static_mode_ignores_gate_parameters():
    v_list, t_feats = rand_features(seed=9)
    gw1 = make_gateway(randomize=True, seed=10)
    gw2 = make_gateway(randomize=True, seed=99)
    gw1.dynamic = gw2.dynamic = False
    with no_grad():
        m1 = gw1.forward(v_list, t_feats, (3, 3), (9, 9))
        m2 = gw2.forward(v_list, t_feats, (3, 3), (9, 9))
    np.testing.assert_array_equal(m1.per_level.data, m2.per_level.data)


def test_dynamic_forced_one_hot_equals_static_bitwise(monkeypatch):
    v_list, t_feats = rand_features(seed=11)
    gw = make_gateway(randomize=True, seed=12)
    static_gw = make_gateway(dynamic=False)
    assert static_gw.params == ()
    # forward asks for the weights once per state, for all levels at once:
    # (N, B, N) rows, one-hot on the row's own level
    calls = []

    def one_hot(v_glob, state):
        calls.append(state)
        return Tensor(np.broadcast_to(np.eye(3)[:, None, :], v_glob.data.shape[:2] + (3,)).copy())
    monkeypatch.setattr(gw, "fusion_weights", one_hot)
    with no_grad():
        forced = gw.forward(v_list, t_feats, (3, 3), (9, 9))
        static = static_gw.forward(v_list, t_feats, (3, 3), (9, 9))
    np.testing.assert_array_equal(forced.per_level.data, static.per_level.data)
    np.testing.assert_array_equal(forced.aggregated.data, static.aggregated.data)
    np.testing.assert_array_equal(forced.upsampled.data, static.upsampled.data)
    one_hots = np.stack([np.broadcast_to(np.eye(3)[:, None, :], (3, 2, 3))] * len(STATES))
    assert np.array_equal(static.fusion_weights, one_hots)
    assert np.array_equal(forced.fusion_weights, one_hots)
    assert calls == list(STATES)


def test_single_level_degenerates_to_plain_map():
    c, n = 6, 1
    gw = FusionGateway(c, n, 4, 0.07, dynamic=True, rng=np.random.default_rng(13))
    static_gw = FusionGateway(c, n, 4, 0.07, dynamic=False)
    rng = np.random.default_rng(14)
    v_list = [Tensor(rng.normal(size=(2, 4, c)))]
    t_feats = Tensor(rng.normal(size=(n, len(STATES), c)))
    with no_grad():
        dyn = gw.forward(v_list, t_feats, (2, 2), (4, 4))
        sta = static_gw.forward(v_list, t_feats, (2, 2), (4, 4))
        plain = gw.level_map(v_list[0], Tensor(t_feats.data[0]), (2, 2))
    np.testing.assert_array_equal(dyn.per_level.data, sta.per_level.data)
    np.testing.assert_array_equal(dyn.per_level.data[0], plain.data)


def test_forward_composition_oracle():
    for seed in range(5):
        v_list, t_feats = rand_features(seed=100 + seed)
        gw = make_gateway(randomize=True, seed=200 + seed)
        with no_grad():
            out = gw.forward(v_list, t_feats, (3, 3), (9, 9))
        maps = gateway_composition(gw, v_list, t_feats, (3, 3))
        want = np.mean(maps, axis=0)
        assert np.abs(out.aggregated.data - want).max() < 1e-12
        for i in range(3):
            assert np.abs(out.per_level.data[i] - maps[i]).max() < 1e-12


def test_forward_invariants_ranges_and_weight_count():
    v_list, t_feats = rand_features(seed=15)
    gw = make_gateway(randomize=True, seed=16)
    with no_grad():
        out = gw.forward(v_list, t_feats, (3, 3), (12, 12))
    assert out.fusion_weights.shape == (2, 3, 2, 3)  # states x levels x images x levels
    assert np.abs(out.fusion_weights.sum(axis=-1) - 1.0).max() < 1e-12
    assert out.per_level.data.shape == (3, 2, 3, 3)
    for m in (out.per_level, out.aggregated):
        assert (m.data > 0).all() and (m.data < 1).all()
    assert out.upsampled.data.min() >= out.aggregated.data.min() - 1e-12
    assert out.upsampled.data.max() <= out.aggregated.data.max() + 1e-12
