import numpy as np
import pytest

from anofuse import tensor as T
from anofuse.errors import ConfigurationError, ShapeError
from anofuse.verify import check_gradients, conv2d_loops, maps_to_rows, rows_to_maps
import oracles as O


# ---------------------------------------------------------------------------
# sequence <-> spatial layout of the convolution oracles


def test_reshape_seq_to_2d_tiny():
    x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4, 1)
    y = rows_to_maps(x, (2, 2))
    assert y.shape == (1, 1, 2, 2)
    np.testing.assert_array_equal(y[0, 0], [[1.0, 2.0], [3.0, 4.0]])


def test_reshape_roundtrip_bit_exact():
    rng = np.random.default_rng(0)
    for b, h, w, c in [(1, 2, 2, 1), (2, 2, 3, 3), (3, 4, 4, 8), (2, 1, 5, 2)]:
        x = rng.normal(size=(b, h * w, c))
        assert (maps_to_rows(rows_to_maps(x, (h, w))) == x).all()


def test_reshape_index_arithmetic_oracle():
    # entry (b, c, h, w) of the map must equal x(b, h*W + w, c), checked
    # by enumerating every position
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 6, 3))
    y = rows_to_maps(x, (2, 3))
    for b in range(2):
        for c in range(3):
            for h in range(2):
                for w in range(3):
                    assert y[b, c, h, w] == x[b, h * 3 + w, c]
    assert y[1, 2, 1, 2] == x[1, 5, 2]


def test_reshape_constant_preserved():
    x = np.full((2, 12, 4), 3.25)
    assert (maps_to_rows(rows_to_maps(x, (3, 4))) == 3.25).all()


# ---------------------------------------------------------------------------
# convolution on token rows


def conv_loops(x, w, grid):
    """The nested-loop oracle on (B, L, C) token rows of `grid`."""
    return maps_to_rows(conv2d_loops(rows_to_maps(x, grid), w))


def test_conv_identity_1x1():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(1, 16, 3))
    w = np.eye(3).reshape(3, 3, 1, 1)
    y = O.conv_rows(T.Tensor(x), T.Tensor(w), (4, 4))
    np.testing.assert_array_equal(y.data, x)


def test_conv_ones_kernel_border_arithmetic():
    c = 2.5
    x = np.full((1, 16, 1), c)
    w = np.ones((1, 1, 3, 3))
    y = O.conv_rows(T.Tensor(x), T.Tensor(w), (4, 4)).data.reshape(4, 4)
    assert y[1, 1] == 9 * c and y[2, 2] == 9 * c
    assert y[0, 0] == 4 * c and y[3, 3] == 4 * c
    assert y[0, 1] == 6 * c and y[3, 2] == 6 * c and y[1, 0] == 6 * c


@pytest.mark.parametrize("k", [1, 3, 5])
def test_conv_matches_loop_oracle(k):
    rng = np.random.default_rng(3 + k)
    for hw in [(5, 5), (3, 5)]:
        x = rng.normal(size=(2, hw[0] * hw[1], 2))
        w = rng.normal(size=(3, 2, k, k))
        got = O.conv_rows(T.Tensor(x), T.Tensor(w), hw).data
        assert np.abs(got - conv_loops(x, w, hw)).max() < 1e-12


@pytest.mark.parametrize("k", [1, 3, 5])
def test_conv_gradients_are_adjoint_to_the_loop_oracle(k):
    # conv is bilinear, so <g, conv(x, w)> = <dx, x> = <dw, w>, and the same
    # holds for independent probes x2, w2 against the nested-loop forward
    rng = np.random.default_rng(30 + k)
    grid = (3, 5)
    x, x2 = rng.normal(size=(2, 2, 15, 2))
    w, w2 = rng.normal(size=(2, 4, 2, k, k))
    g = rng.normal(size=(2, 15, 4))
    dx, dw = O.conv_rows(T.Tensor(x, trainable=True), T.Tensor(w, trainable=True), grid)._vjp(g)
    for a, b in [(np.vdot(g, conv_loops(x, w, grid)), np.vdot(dx, x)),
                 (np.vdot(g, conv_loops(x, w, grid)), np.vdot(dw, w)),
                 (np.vdot(g, conv_loops(x2, w, grid)), np.vdot(dx, x2)),
                 (np.vdot(g, conv_loops(x, w2, grid)), np.vdot(dw, w2))]:
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_conv_rejects_even_kernel():
    with pytest.raises(ConfigurationError):
        O.conv_rows(T.Tensor(np.zeros((1, 16, 1))), T.Tensor(np.zeros((1, 1, 2, 2))), (4, 4))


def test_conv_rejects_channel_mismatch():
    with pytest.raises(ShapeError):
        O.conv_rows(T.Tensor(np.zeros((1, 16, 2))), T.Tensor(np.zeros((1, 3, 3, 3))), (4, 4))


def test_conv_rejects_bad_grid():
    with pytest.raises(ShapeError):
        O.conv_rows(T.Tensor(np.zeros((1, 5, 2))), T.Tensor(np.zeros((1, 2, 3, 3))), (2, 2))


# ---------------------------------------------------------------------------
# linear: the per-token projection of a (B, L, Cin) sequence is a matmul


def test_linear_identity_and_zero():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 3, 4))
    assert (O.matmul(T.Tensor(x), T.Tensor(np.eye(4))).data == x).all()
    assert (O.matmul(T.Tensor(x), T.Tensor(np.zeros((4, 4)))).data == 0).all()


def test_linear_loop_oracle():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(1, 2, 3))
    w = rng.normal(size=(3, 2))
    got = O.matmul(T.Tensor(x), T.Tensor(w)).data
    want = np.zeros((1, 2, 2))
    for l in range(2):
        for o in range(2):
            for i in range(3):
                want[0, l, o] += x[0, l, i] * w[i, o]
    assert np.abs(got - want).max() < 1e-12


# ---------------------------------------------------------------------------
# softmax


def test_softmax_equal_logits():
    for n in [2, 3, 5]:
        out = O.softmax(T.Tensor(np.full(n, 1.7))).data
        np.testing.assert_allclose(out, np.full(n, 1.0 / n), rtol=0, atol=1e-15)


def test_softmax_overflow_safe():
    out = O.softmax(T.Tensor(np.array([1000.0, 0.0]))).data
    assert np.isfinite(out).all()
    np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-300)


def test_softmax_high_precision_oracle():
    import mpmath
    mpmath.mp.dps = 50
    logits = [1.0, 2.0, 3.0]
    es = [mpmath.exp(v) for v in logits]
    tot = sum(es)
    want = np.array([float(e / tot) for e in es])
    got = O.softmax(T.Tensor(np.array(logits))).data
    np.testing.assert_allclose(got, want, rtol=1e-15)


def test_softmax_sum_and_shift_invariance():
    rng = np.random.default_rng(7)
    for _ in range(20):
        v = rng.normal(size=rng.integers(2, 8)) * 10
        out = O.softmax(T.Tensor(v)).data
        assert abs(out.sum() - 1.0) < 1e-12
        assert (out > 0).all()
        shifted = O.softmax(T.Tensor(v + 5.0)).data
        assert np.abs(out - shifted).max() < 1e-12


# ---------------------------------------------------------------------------
# cosine similarity (the Tensor graph that the cosine-softmax head reproduces)


def cosine(a, b):
    # one row against one row: the (1, 1) table
    return float(O.cosine(T.Tensor(np.asarray(a, dtype=np.float64)[None]),
                          T.Tensor(np.asarray(b, dtype=np.float64)[None])).data[0, 0])


def test_cosine_self_similarity():
    rng = np.random.default_rng(8)
    a = rng.normal(size=16)
    assert abs(cosine(a, a) - 1.0) < 1e-12


def test_cosine_orthogonal_and_hand_case():
    assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0
    assert abs(cosine([1.0, 2.0], [2.0, 1.0]) - 4.0 / 5.0) < 1e-15


def test_cosine_symmetry_and_scale_invariance():
    rng = np.random.default_rng(9)
    for _ in range(10):
        a, b = rng.normal(size=6), rng.normal(size=6)
        s = cosine(a, b)
        assert -1.0 <= s <= 1.0
        assert abs(s - cosine(b, a)) < 1e-15
        assert abs(s - cosine(3.7 * a, b)) < 1e-12


def test_cosine_stacked_broadcast_equals_pairs():
    # the gateway's call: (B, L, C) patches against (B, 2, C) descriptors
    rng = np.random.default_rng(25)
    v = rng.normal(size=(2, 3, 7))
    t = rng.normal(size=(2, 2, 7))
    got = O.cosine(T.Tensor(v), T.Tensor(t)).data
    assert got.shape == (2, 3, 2)
    for b in range(2):
        for l in range(3):
            for s in range(2):
                assert got[b, l, s] == cosine(v[b, l], t[b, s])


@pytest.mark.parametrize("u_shape,v_shape", [((3, 2, 5, 7), (3, 2, 2, 7)),
                                             ((3, 2, 5, 7), (2, 7)),
                                             ((4, 7), (2, 7))])
def test_cosine_matches_einsum_reference(u_shape, v_shape):
    rng = np.random.default_rng(26)
    u, v = rng.normal(size=u_shape), rng.normal(size=v_shape)
    nu = np.sqrt(np.einsum("...c,...c->...", u, u))
    nv = np.sqrt(np.einsum("...c,...c->...", v, v))
    want = np.einsum("...lc,...sc->...ls", u, v) / (nu[..., :, None] * nv[..., None, :])
    got = O.cosine(T.Tensor(u), T.Tensor(v)).data
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# gap: the global average pool over the token axis is tmean(x, axis=1)


def test_gap_constant_and_hand_case():
    x = np.full((2, 5, 3), 1.5)
    np.testing.assert_array_equal(O.tmean(T.Tensor(x), axis=1).data, np.full((2, 3), 1.5))
    toks = np.array([[[0.0, 0.0], [2.0, 4.0]]])
    np.testing.assert_array_equal(O.tmean(T.Tensor(toks), axis=1).data, [[1.0, 2.0]])


def test_gap_loop_oracle():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(3, 5, 4))
    want = np.zeros((3, 4))
    for b in range(3):
        for c in range(4):
            want[b, c] = sum(x[b, l, c] for l in range(5)) / 5.0
    assert np.abs(O.tmean(T.Tensor(x), axis=1).data - want).max() < 1e-12


# ---------------------------------------------------------------------------
# bilinear upsample


def upsample(m, target):
    """One (H, W) map through the batched upsample, as a batch of 1."""
    return O.bilinear_upsample(T.Tensor(m[None]), target).data[0]


def test_upsample_constant():
    m = np.full((3, 3), 0.4)
    out = upsample(m, (7, 7))
    np.testing.assert_allclose(out, 0.4, rtol=0, atol=1e-15)


def test_upsample_columns_linear():
    m = np.array([[0.0, 1.0], [0.0, 1.0]])
    out = upsample(m, (4, 4))
    for r in range(4):
        np.testing.assert_allclose(out[r], [0.0, 1 / 3, 2 / 3, 1.0], atol=1e-15)


def test_upsample_closed_form_oracle():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(3, 3))
    out = upsample(m, (5, 5))
    # closed form: sample at source coords i*(3-1)/(5-1), linear in each axis
    for i in range(5):
        for j in range(5):
            y, x = i * 0.5, j * 0.5
            y0, x0 = min(int(y), 1), min(int(x), 1)
            fy, fx = y - y0, x - x0
            want = ((1 - fy) * (1 - fx) * m[y0, x0] + (1 - fy) * fx * m[y0, x0 + 1]
                    + fy * (1 - fx) * m[y0 + 1, x0] + fy * fx * m[y0 + 1, x0 + 1])
            assert abs(out[i, j] - want) < 1e-12


def test_upsample_corner_exact_and_range():
    rng = np.random.default_rng(12)
    m = rng.normal(size=(4, 4))
    out = upsample(m, (9, 13))
    assert out[0, 0] == m[0, 0] and out[-1, -1] == m[-1, -1]
    assert out.min() >= m.min() - 1e-12 and out.max() <= m.max() + 1e-12


def test_upsample_rejects_downscale():
    with pytest.raises(ShapeError):
        upsample(np.zeros((4, 4)), (3, 4))


def test_upsample_batched_matches_single():
    rng = np.random.default_rng(13)
    m = rng.normal(size=(3, 4, 4))
    out = O.bilinear_upsample(T.Tensor(m), (8, 8)).data
    for b in range(3):
        # every batch row is its own matrix-vector product
        np.testing.assert_array_equal(out[b], upsample(m[b], (8, 8)))


# ---------------------------------------------------------------------------
# autodiff: analytic cases and finite differences


def test_grad_sum_of_squares():
    rng = np.random.default_rng(14)
    w = T.Tensor(rng.normal(size=(3, 4)), trainable=True, name="w")
    loss = O.tsum(w * w)
    grads = T.grad(loss, {"w": w})
    np.testing.assert_allclose(grads["w"], 2 * w.data, rtol=1e-14)


def test_frozen_params_get_no_gradient():
    rng = np.random.default_rng(15)
    frozen = T.Tensor(rng.normal(size=(4, 4)), name="frozen")
    live = T.Tensor(rng.normal(size=(2, 4)), trainable=True, name="live")
    loss = O.tsum(O.pow_const(O.matmul(live, frozen), 2))
    grads = T.grad(loss, {"frozen": frozen, "live": live})
    assert "frozen" not in grads
    assert not frozen.requires_grad
    assert grads["live"].shape == (2, 4)


def _fd_case(build, n_params, seed):
    rng = np.random.default_rng(seed)
    params = {f"p{i}": T.Tensor(rng.normal(size=s), trainable=True, name=f"p{i}")
              for i, s in enumerate(n_params)}
    res = check_gradients(lambda: build(params), params)
    assert res.passed(), res.failures[:3]


def test_fd_elementwise_ops():
    _fd_case(lambda p: O.tsum(O.div(p["p0"] * O.tanh(p["p1"]), O.pow_const(p["p0"], 2) + 2.0)),
             [(3, 3), (3, 3)], 16)


def test_fd_matmul_and_slices():
    def build(p):
        y = O.matmul(p["p0"], p["p1"])
        return O.tsum(y[:, 1:]) + O.tmean(O.pow_const(y[:, :1], 2))
    _fd_case(build, [(4, 3), (3, 5)], 17)


@pytest.mark.parametrize("k", [1, 3, 5])
def test_fd_conv2d(k):
    def build(p):
        y = O.conv_rows(p["p0"], p["p1"], (3, 5))
        return O.tsum(O.pow_const(y, 2))
    _fd_case(build, [(2, 15, 2), (3, 2, k, k)], 18)


def test_fd_softmax_layernorm_gelu():
    def build(p):
        y = O.layer_norm(p["p0"])
        y = O.gelu(O.matmul(y, p["p1"]))
        return O.tsum(O.softmax(y, axis=-1) * y)
    _fd_case(build, [(3, 4), (4, 4)], 19)


def test_fd_concat_reshape_transpose():
    def build(p):
        a = O.transpose(O.reshape(p["p0"], (1, 2, 2, 2)), (0, 3, 1, 2))
        b = O.transpose(O.reshape(p["p1"], (1, 2, 2, 2)), (0, 3, 1, 2))
        y = O.concat([a, b], axis=1)
        return O.tsum(O.pow_const(O.reshape(O.transpose(y, (0, 2, 3, 1)), (1, 4, 4)), 3))
    _fd_case(build, [(1, 4, 2), (1, 4, 2)], 20)


def test_fd_stack_with_a_constant_member():
    const = T.Tensor(np.random.default_rng(22).normal(size=(2, 3)))

    def build(p):
        y = T.stack([p["p0"], const, p["p1"]])  # (3, 2, 3)
        return O.tsum(O.tanh(y * y) * y)
    _fd_case(build, [(2, 3), (2, 3)], 23)


def test_fd_cosine_rows_against_broadcast_rows():
    # (2, 3, 4) rows against (2, 4) rows shared by both leading entries
    def build(p):
        return O.tsum(O.tanh(O.cosine(p["p0"], p["p1"]) * 3.0))
    _fd_case(build, [(2, 3, 4), (2, 4)], 24)


def test_fd_upsample_log_clip():
    def build(p):
        m = O.reshape(p["p0"], (1, 3, 3))
        up = O.bilinear_upsample(m, (5, 5))
        sq = O.clip(up * up, 1e-7, 4.0)
        return O.tmean(O.log(sq)) * -1.0
    _fd_case(build, [(9,)], 21)


def test_fd_mean_axes_and_sqrt():
    def build(p):
        y = O.tmean(O.pow_const(p["p0"], 2), axis=1) + 0.3
        return O.tsum(O.sqrt(y))
    _fd_case(build, [(3, 5)], 22)


def test_fd_gradient_handed_to_two_parents_is_not_aliased():
    # add hands one gradient array to both of its parents, and reshape a view
    # of it; accumulating p0's second term must leave p1's gradient alone
    c = np.array([0.3, -1.2, 0.7])

    def build(p):
        return O.tsum((p["p0"] + O.reshape(p["p1"], (3,))) * c) + O.tsum(p["p0"] * p["p0"])
    _fd_case(build, [(3,), (3, 1)], 23)


@pytest.mark.parametrize("op,shapes", [
    (T.add, [(3, 4), (4,)]),
    (O.sub, [(3, 4), (3, 1)]),
    (T.mul, [(3, 4), (4,)]),
    (O.div, [(3, 4), (3, 4)]),
    (O.matmul, [(2, 3, 4), (4, 5)]),
    (lambda a, b: O.conv_rows(a, b, (4, 4)), [(2, 16, 3), (5, 3, 1, 1)]),
    (lambda a, b: O.conv_rows(a, b, (4, 4)), [(2, 16, 3), (5, 3, 3, 3)]),
    (lambda a, b: O.concat([a, b], axis=1), [(2, 3), (2, 2)]),
], ids=["add", "sub", "mul", "div", "matmul", "conv_k1", "conv_k3", "concat"])
def test_vjp_skips_the_gradient_of_a_frozen_parent(op, shapes):
    # `grad` keeps no gradient for the frozen parent, and the live parent's
    # gradient has the bits of the all-trainable case
    rng = np.random.default_rng(24)
    data = [rng.uniform(0.5, 1.5, s) for s in shapes]  # divisors away from 0
    probe = rng.normal(size=op(T.Tensor(data[0]), T.Tensor(data[1])).data.shape)

    def grads(trainable):
        parents = {f"p{i}": T.Tensor(d, trainable=trainable[i]) for i, d in enumerate(data)}
        return T.grad(O.tsum(op(*parents.values()) * probe), parents)
    both = grads((True, True))
    assert both.keys() == {"p0", "p1"}
    for frozen in (0, 1):
        live = f"p{1 - frozen}"
        got = grads([i != frozen for i in range(2)])
        assert got.keys() == {live}
        assert np.array_equal(got[live], both[live])


@pytest.mark.parametrize("bug,wrong", [
    (lambda ga, gb: (ga * (1 + 1e-3), gb), "p0"),
    (lambda ga, gb: (ga, np.zeros_like(gb)), "p1"),
], ids=["scaled", "dropped-parent"])
def test_check_gradients_catches_an_injected_vjp_bug(monkeypatch, bug, wrong):
    matmul = O.matmul

    def buggy_matmul(a, b):
        out = matmul(a, b)
        vjp = out._vjp
        if vjp is not None:
            out._vjp = lambda g: bug(*vjp(g))
        return out
    monkeypatch.setattr(O, "matmul", buggy_matmul)
    rng = np.random.default_rng(17)
    params = {"p0": T.Tensor(rng.normal(size=(4, 3)), trainable=True, name="p0"),
              "p1": T.Tensor(rng.normal(size=(3, 5)), trainable=True, name="p1")}

    def loss():
        y = O.matmul(params["p0"], params["p1"])
        return O.tsum(y[:, 1:]) + O.tmean(O.pow_const(y[:, :1], 2))
    res = check_gradients(loss, params)
    assert res.n_checked == 27
    assert len(res.failures) == params[wrong].data.size
    assert {name for name, *_ in res.failures} == {wrong}


def test_no_grad_blocks_graph():
    w = T.Tensor(np.ones((2, 2)), trainable=True, name="w")
    with T.no_grad():
        y = O.tsum(w * w)
    assert y._vjp is None and not y.requires_grad


# ---------------------------------------------------------------------------
# numpy's C entry points: the same bits as the ndarray methods and numpy
# functions they replace (the oracles below use those methods)

REDUCE_AXES = [None, 0, -1, (0, 2), (0, -1)]


def _wide_range(rng, shape):
    # magnitudes over many decades, and a last axis longer than numpy's
    # 8-way unrolled and 128-element pairwise blocks, so a different
    # summation order would show in the last bits
    return rng.normal(size=shape) * np.exp(3.0 * rng.normal(size=shape))


@pytest.mark.parametrize("keepdims", [False, True], ids=["drop", "keep"])
@pytest.mark.parametrize("axis", REDUCE_AXES, ids=["all", "0", "-1", "0-2", "0-m1"])
def test_tsum_and_tmean_equal_the_ndarray_methods_bitwise(axis, keepdims):
    rng = np.random.default_rng(30)
    x = _wide_range(rng, (3, 4, 300))
    for op, method in ((O.tsum, x.sum), (O.tmean, x.mean)):
        want = method(axis=axis, keepdims=keepdims)
        scale = x.size // np.size(want) if op is O.tmean else 1
        out = op(T.Tensor(x, trainable=True), axis=axis, keepdims=keepdims)
        assert type(out.data) is type(want)
        assert np.array_equal(out.data, want)
        # the VJP broadcasts g (divided by the count, for the mean) back over x
        g = rng.normal(size=np.shape(want))
        (got,) = out._vjp(g)
        gg = g if axis is None or keepdims else np.expand_dims(g, axis)
        assert np.array_equal(got, np.broadcast_to(gg / scale, x.shape))
        assert got.flags.writeable and got.flags.c_contiguous


def softmax_methods(x, axis):
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def layer_norm_methods(x, eps=1e-5):
    xc = x - x.mean(axis=-1, keepdims=True)
    r = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    return xc * r, r


@pytest.mark.parametrize("axis", [0, -1])
def test_softmax_pair_equals_the_ndarray_method_oracle_bitwise(axis):
    rng = np.random.default_rng(31)
    x = _wide_range(rng, (5, 3, 200)) * 1e-2
    g = _wide_range(rng, x.shape)
    out = T.softmax_fwd(x, axis)
    assert np.array_equal(out, softmax_methods(x, axis))
    assert np.array_equal(T.softmax_bwd(g, out, axis),
                          out * (g - (g * out).sum(axis=axis, keepdims=True)))


def test_layer_norm_pair_equals_the_ndarray_method_oracle_bitwise():
    rng = np.random.default_rng(32)
    x = _wide_range(rng, (6, 300))
    g = _wide_range(rng, x.shape)
    y, r = T.layer_norm_fwd(x)
    want_y, want_r = layer_norm_methods(x)
    assert np.array_equal(y, want_y) and np.array_equal(r, want_r)
    gm = g.mean(axis=-1, keepdims=True)
    gym = (g * y).mean(axis=-1, keepdims=True)
    assert np.array_equal(T.layer_norm_bwd(g, y, r), r * (g - gm - y * gym))


@pytest.mark.parametrize("axis", [0, 1, -1])
def test_concat_vjp_is_the_split_gradient_and_none_for_a_frozen_member(axis):
    # the gradient of sum(g * concat) is g split at the members' offsets;
    # `grad` keeps none for the frozen middle member
    rng = np.random.default_rng(33)
    sizes = (2, 1, 3)
    shapes = []
    for s in sizes:
        shape = [4, 5, 6]
        shape[axis] = s
        shapes.append(tuple(shape))
    data = [rng.normal(size=s) for s in shapes]
    g = rng.normal(size=np.concatenate(data, axis).shape)
    want = np.split(g, np.cumsum(sizes)[:-1], axis=axis)

    def grads(frozen):
        members = {f"m{i}": T.Tensor(d, trainable=i not in frozen) for i, d in enumerate(data)}
        return T.grad(O.tsum(O.concat(list(members.values()), axis) * g), members)
    both, got = grads(()), grads((1,))
    assert both.keys() == {"m0", "m1", "m2"} and got.keys() == {"m0", "m2"}
    for i in (0, 2):
        assert got[f"m{i}"].shape == shapes[i]
        assert np.array_equal(got[f"m{i}"], want[i])
        assert np.array_equal(got[f"m{i}"], both[f"m{i}"])


@pytest.mark.parametrize("axes", [(1, 2, 0), (2, 0, 1), (0, 2, 1)])
def test_transpose_vjp_applies_the_argsort_inverse(axes):
    rng = np.random.default_rng(34)
    x = rng.normal(size=(2, 3, 4))
    out = O.transpose(T.Tensor(x, trainable=True), axes)
    g = rng.normal(size=out.data.shape)
    (got,) = out._vjp(g)
    assert got.shape == x.shape
    assert np.array_equal(got, g.transpose(np.argsort(axes)))


def test_fd_transpose_under_a_cyclic_permutation():
    w = np.arange(24.0).reshape(3, 4, 2) / 24.0  # tells the axes apart

    def build(p):
        return O.tsum(O.tanh(O.transpose(p["p0"], (1, 2, 0))) * w)
    _fd_case(build, [(2, 3, 4)], 35)
