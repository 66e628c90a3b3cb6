import numpy as np
import pytest

from anofuse import gateway as gateway_module
from anofuse.errors import ShapeError
from anofuse.gateway import STATES, FusionGateway, state_probs
from anofuse.tensor import Tensor, bilinear_matrix, cosine_softmax_fwd, grad, no_grad
from anofuse.verify import check_gradients
from oracles import (gateway_composition, gateway_graph, node_and_graph, same_bits, softmax,
                     state_probs_graph, tsum)


def make_gateway(c=6, n=3, hidden=4, tau=0.07, dynamic=True, seed=0, randomize=False):
    gw = FusionGateway(c, n, hidden, tau, dynamic=dynamic, rng=np.random.default_rng(seed))
    if randomize and dynamic:
        rng = np.random.default_rng(seed + 50)
        for state in STATES:
            gw.w2[state].data[:] = rng.normal(0, 0.5, gw.w2[state].data.shape)
    return gw


def level_map(gw, v, t, grid):
    """Level maps of (..., L, C) tokens against (..., S, C) descriptors at the
    gateway's temperature: the abnormal column of the cosine-softmax head, as
    (..., H, W) maps."""
    probs = cosine_softmax_fwd(np.asarray(v, dtype=np.float64), np.asarray(t, dtype=np.float64),
                               gw.temperature)[0]
    return probs[..., 1].reshape(probs.shape[:-2] + tuple(grid))


def rand_features(c=6, n=3, b=2, l=9, seed=1):
    rng = np.random.default_rng(seed)
    v_list = [Tensor(rng.normal(size=(b, l, c))) for _ in range(n)]
    t_feats = Tensor(rng.normal(size=(n, len(STATES), c)))
    return v_list, t_feats


def test_zero_init_gate_gives_uniform_weights():
    gw = make_gateway()
    v = np.random.default_rng(2).normal(size=(4, 6))
    w = gw.fusion_weights(v, "normal")[0]
    np.testing.assert_array_equal(w, np.full((4, 3), 1.0 / 3.0))


def test_fusion_weights_normalized_and_positive():
    gw = make_gateway(randomize=True)
    v = np.random.default_rng(3).normal(size=(5, 6)) * 3
    for state in STATES:
        w = gw.fusion_weights(v, state)[0]
        assert (w > 0).all()
        assert np.abs(w.sum(axis=1) - 1.0).max() < 1e-12


def test_gate_output_shift_leaves_weights_unchanged():
    gw = make_gateway(randomize=True)
    v = np.random.default_rng(4).normal(size=(3, 6))
    base = gw.fusion_weights(v, "normal")[0]
    # adding a constant to every logit: shift all output columns equally
    logits = np.tanh(v @ gw.w1["normal"].data) @ gw.w2["normal"].data
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
    np.testing.assert_allclose(dyn.per_level, sta.per_level, rtol=0, atol=1e-12)
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
    v = rng.normal(size=(2, 9, 6))
    t = rng.normal(size=(2, 1, 6))
    m = level_map(gw, v, np.concatenate([t, t], axis=1), (3, 3))
    np.testing.assert_array_equal(m, np.full((2, 3, 3), 0.5))


def test_level_map_sigmoid_scalar_oracle():
    import math
    gw = make_gateway(c=2, tau=1.0)
    # patch aligned with abnormal descriptor, orthogonal to normal
    v = np.array([[[1.0, 0.0]] * 4])
    t = np.array([[0.0, 1.0], [1.0, 0.0]])  # normal, abnormal
    m = level_map(gw, v, t, (2, 2))
    want = math.exp(1.0) / (math.exp(0.0) + math.exp(1.0))
    np.testing.assert_allclose(m, want, rtol=1e-12)
    assert abs(want - 0.7311) < 1e-4


def test_level_map_sharpens_as_temperature_drops():
    gw_hot = make_gateway(c=2, tau=1.0)
    gw_cold = make_gateway(c=2, tau=0.01)
    v = np.array([[[1.0, 0.2]] * 4])
    t = np.array([[0.0, 1.0], [1.0, 0.0]])
    hot = level_map(gw_hot, v, t, (2, 2))
    cold = level_map(gw_cold, v, t, (2, 2))
    assert (cold > hot).all() and cold.max() > 0.999


def test_level_map_monotone_in_abnormal_similarity():
    gw = make_gateway(c=3, tau=0.5)
    t = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    prev = -1.0
    for alpha in np.linspace(0.1, 0.9, 7):
        # v orthogonal to the normal row t[0] always; cos(v, t[1]) = alpha
        v = np.array([[[alpha, np.sqrt(1 - alpha * alpha), 0.0]] * 4])
        m = level_map(gw, v, t, (2, 2))[0, 0, 0]
        assert m > prev
        prev = m


def test_level_map_on_stacked_levels_equals_per_level_calls_bitwise():
    gw = make_gateway(c=6, tau=0.07)
    rng = np.random.default_rng(17)
    v = rng.normal(size=(3, 2, 12, 6))
    t = rng.normal(size=(3, 2, 2, 6))  # (N, B, S, C)
    stacked = level_map(gw, v, t, (3, 4))
    assert stacked.shape == (3, 2, 3, 4)
    for i in range(3):
        one = level_map(gw, v[i], t[i], (3, 4))
        np.testing.assert_array_equal(stacked[i], one)


def test_static_mode_ignores_gate_parameters():
    v_list, t_feats = rand_features(seed=9)
    gw1 = make_gateway(randomize=True, seed=10)
    gw2 = make_gateway(randomize=True, seed=99)
    gw1.dynamic = gw2.dynamic = False
    with no_grad():
        m1 = gw1.forward(v_list, t_feats, (3, 3), (9, 9))
        m2 = gw2.forward(v_list, t_feats, (3, 3), (9, 9))
    np.testing.assert_array_equal(m1.per_level, m2.per_level)


def test_dynamic_forced_one_hot_equals_static_bitwise(monkeypatch):
    v_list, t_feats = rand_features(seed=11)
    gw = make_gateway(randomize=True, seed=12)
    static_gw = make_gateway(dynamic=False)
    assert static_gw.params == ()
    # forward asks for the weights once per state, for all levels at once:
    # (N, B, N) rows, one-hot on the row's own level, and no tanh layer
    calls = []

    def one_hot(v_glob, state):
        calls.append(state)
        return np.broadcast_to(np.eye(3)[:, None, :], v_glob.shape[:2] + (3,)).copy(), None
    monkeypatch.setattr(gw, "fusion_weights", one_hot)
    with no_grad():
        forced = gw.forward(v_list, t_feats, (3, 3), (9, 9))
        static = static_gw.forward(v_list, t_feats, (3, 3), (9, 9))
    np.testing.assert_array_equal(forced.per_level, static.per_level)
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
    plain = level_map(gw, v_list[0].data, t_feats.data[0], (2, 2))
    np.testing.assert_array_equal(dyn.per_level, sta.per_level)
    np.testing.assert_array_equal(dyn.per_level[0], plain)


def test_forward_composition_oracle():
    for seed in range(5):
        v_list, t_feats = rand_features(seed=100 + seed)
        gw = make_gateway(randomize=True, seed=200 + seed)
        with no_grad():
            out = gw.forward(v_list, t_feats, (3, 3), (9, 9))
        maps = gateway_composition(gw, v_list, t_feats, (3, 3))
        want = np.matmul(bilinear_matrix((3, 3), (9, 9)),
                         np.mean(maps, axis=0).reshape(2, 9, 1)).reshape(2, 9, 9)
        assert np.abs(out.upsampled.data - want).max() < 1e-12
        for i in range(3):
            assert np.abs(out.per_level[i] - maps[i]).max() < 1e-12


def test_forward_invariants_ranges_and_weight_count():
    v_list, t_feats = rand_features(seed=15)
    gw = make_gateway(randomize=True, seed=16)
    with no_grad():
        out = gw.forward(v_list, t_feats, (3, 3), (12, 12))
    assert out.fusion_weights.shape == (2, 3, 2, 3)  # states x levels x images x levels
    assert np.abs(out.fusion_weights.sum(axis=-1) - 1.0).max() < 1e-12
    assert out.per_level.shape == (3, 2, 3, 3)
    agg = out.per_level.mean(axis=0)
    for m in (out.per_level, agg):
        assert (m > 0).all() and (m < 1).all()
    assert out.upsampled.data.min() >= agg.min() - 1e-12
    assert out.upsampled.data.max() <= agg.max() + 1e-12


# ---------------------------------------------------------------------------
# the one-node gateway and image head against their Tensor-primitive graphs

GRID, PIXELS = (2, 3), (4, 5)


def gateway_case(b, n, dynamic, seed=30):
    """A gateway with live gate weights, N trainable (B, 6, 5) levels on a
    2 x 3 grid and trainable (N, S, 5) text features, and every parent of
    the gateway node by name."""
    gw = make_gateway(c=5, n=n, hidden=3, dynamic=dynamic, seed=seed, randomize=True)
    rng = np.random.default_rng(seed + 1)
    v_list = [Tensor(rng.normal(size=(b, 6, 5)), trainable=True, name=f"v{i}") for i in range(n)]
    t_feats = Tensor(rng.normal(size=(n, len(STATES), 5)), trainable=True, name="t_feats")
    return gw, v_list, t_feats, {t.name: t for t in (*v_list, t_feats, *gw.params)}


@pytest.mark.parametrize("dynamic", [True, False], ids=["dfg", "static"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("b", [1, 3])
def test_gateway_node_carries_the_graphs_bits(b, n, dynamic):
    gw, v_list, t_feats, params = gateway_case(b, n, dynamic)
    amap = gw.forward(v_list, t_feats, GRID, PIXELS)
    maps, up = gateway_graph(gw, v_list, t_feats, GRID, PIXELS)
    assert type(amap.per_level) is np.ndarray and np.array_equal(amap.per_level, maps.data)
    assert np.array_equal(amap.upsampled.data, up.data)
    pairs = node_and_graph(lambda: gw.forward(v_list, t_feats, GRID, PIXELS).upsampled,
                           lambda: gateway_graph(gw, v_list, t_feats, GRID, PIXELS)[1],
                           params, np.random.default_rng(32).normal(size=(b,) + PIXELS))
    assert same_bits(pairs)
    assert len(pairs[0][1]) == n + 1 + (4 if dynamic else 0)


def test_gateway_node_skips_the_gradients_of_constant_levels():
    # `grad` keeps no gradient for the constant level, and every live
    # parent's gradient has the bits of the all-trainable case
    gw, v_list, t_feats, params = gateway_case(2, 3, True)
    probe = np.random.default_rng(36).normal(size=(2,) + PIXELS)

    def grads():
        return grad(tsum(gw.forward(v_list, t_feats, GRID, PIXELS).upsampled * probe), params)
    both = grads()
    v_list[1] = params["v1"] = Tensor(v_list[1].data)
    got = grads()
    assert both.keys() - got.keys() == {"v1"} and len(got) == len(params) - 1
    for name in got:
        assert np.array_equal(got[name], both[name]), name


def _gateway_gradient_check(dynamic=True):
    gw, v_list, t_feats, params = gateway_case(2, 2, dynamic)
    probe = np.random.default_rng(33).normal(size=(2,) + PIXELS)

    def loss():
        return tsum(gw.forward(v_list, t_feats, GRID, PIXELS).upsampled * probe)
    return check_gradients(loss, params)


@pytest.mark.parametrize("dynamic", [True, False], ids=["dfg", "static"])
def test_fd_gateway_node_gradients(dynamic):
    res = _gateway_gradient_check(dynamic)
    assert res.passed(), res.failures[:3]
    # two (2, 6, 5) levels, (2, 2, 5) text features, and two (5, 3) and two
    # (3, 2) gate weights
    assert res.n_checked == 120 + 20 + (42 if dynamic else 0)


def test_fd_gateway_catches_a_scaled_gate_gradient(monkeypatch):
    softmax_bwd = gateway_module.softmax_bwd
    monkeypatch.setattr(gateway_module, "softmax_bwd",
                        lambda *args: softmax_bwd(*args) * (1 + 1e-3))
    assert not _gateway_gradient_check().passed()


# (x, t) shapes: the class token of one and of three images against the
# final text pair, the gateway's stacked levels against their descriptors,
# and rows broadcast against one set of descriptors and the reverse
HEAD_SHAPES = [((1, 6), (2, 6)), ((3, 6), (2, 6)), ((3, 2, 5, 7), (3, 2, 2, 7)),
               ((3, 2, 5, 7), (2, 7)), ((4, 7), (3, 2, 2, 7))]


@pytest.mark.parametrize("x_shape,t_shape", HEAD_SHAPES)
def test_state_probs_node_carries_the_graphs_bits(x_shape, t_shape):
    rng = np.random.default_rng(34)
    x = Tensor(rng.normal(size=x_shape), trainable=True)
    x.data[..., 0, :] = 0.0  # a zero row: the norm's floor binds
    t = Tensor(rng.normal(size=t_shape), trainable=True)
    probe = rng.normal(size=state_probs_graph(x, t, 0.07).data.shape)
    pairs = node_and_graph(lambda: state_probs(x, t, 0.07), lambda: state_probs_graph(x, t, 0.07),
                           {"x": x, "t": t}, probe)
    assert same_bits(pairs)


def test_fd_state_probs_node_gradients():
    rng = np.random.default_rng(35)
    params = {"x": Tensor(rng.normal(size=(3, 6)), trainable=True),
              "t": Tensor(rng.normal(size=(2, 6)), trainable=True)}
    probe = rng.normal(size=(3, 2))
    res = check_gradients(lambda: tsum(state_probs(params["x"], params["t"], 0.5) * probe), params)
    assert res.passed(), res.failures[:3]
    assert res.n_checked == 18 + 12
