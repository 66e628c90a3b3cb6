import numpy as np
import pytest

from anofuse import tensor as T
from anofuse.adapter import ConvLoraAdapter, LowRankAdapter
from anofuse.verify import check_gradients
from oracles import adapter_composition, adapter_graph, pow_const, tanh, tsum


def make_adapter(channels=4, rank=2, kernels=(3, 5), seed=0, randomize_up=False):
    ad = ConvLoraAdapter(channels, rank, kernels, rng=np.random.default_rng(seed))
    if randomize_up:
        rng = np.random.default_rng(seed + 100)
        ad.w_up.data[:] = rng.normal(0.0, 0.5, ad.w_up.data.shape)
    return ad


def make_low_rank(channels=4, rank=2, seed=0):
    lo = LowRankAdapter(channels, rank, rng=np.random.default_rng(seed))
    lo.w_up.data[:] = np.random.default_rng(seed + 100).normal(0.0, 0.5, lo.w_up.data.shape)
    return lo


# (adapter, grid, tokens in front of the grid rows)
CASES = [(lambda: make_adapter(randomize_up=True), (3, 3), 1),
         (lambda: make_adapter(randomize_up=True), (3, 3), 0),
         (lambda: make_adapter(kernels=(1,), randomize_up=True), (3, 5), 1),
         (lambda: make_adapter(kernels=(5, 3, 1), randomize_up=True), (3, 5), 0),
         (make_low_rank, (3, 3), 1),
         (make_low_rank, None, 0)]
CASE_IDS = ["conv-cls", "conv", "conv-k1-cls", "conv-k531", "low-rank-cls", "low-rank"]


def _tokens(grid, front, b=2, c=4, seed=10):
    l = front + (grid[0] * grid[1] if grid else 5)
    return np.random.default_rng(seed).normal(size=(b, l, c))


def test_zero_init_adapter_returns_its_input():
    for make, grid, front in CASES:
        ad = make()
        ad.w_up.data[:] = 0.0
        x = _tokens(grid, front)
        assert np.array_equal(ad(T.Tensor(x), grid).data, x)


def test_zero_fuse_annihilates():
    ad = make_adapter(randomize_up=True)
    ad.fuse_1x1.data[:] = 0.0
    x = np.random.default_rng(2).normal(size=(1, 10, 4))
    assert np.array_equal(ad(T.Tensor(x), (3, 3)).data, x)


def test_k1_identity_convs_collapse_to_plain_lora():
    ad = ConvLoraAdapter(4, 2, (1,), rng=np.random.default_rng(3))
    rng = np.random.default_rng(4)
    ad.w_up.data[:] = rng.normal(size=(2, 4))
    ad.conv_down[1].data[:] = np.eye(2).reshape(2, 2, 1, 1)
    ad.conv_up[1].data[:] = np.eye(2).reshape(2, 2, 1, 1)
    ad.fuse_1x1.data[:] = np.eye(4).reshape(4, 4, 1, 1)
    x = rng.normal(size=(2, 6, 4))
    got = ad(T.Tensor(x), (2, 3)).data
    want = x + x @ ad.w_down.data @ ad.w_up.data
    assert np.abs(got - want).max() < 1e-12


def test_adapter_matches_composition_oracle():
    for seed, front in zip(range(6), (0, 1) * 3):
        ad = make_adapter(seed=seed, randomize_up=True)
        x = np.random.default_rng(50 + seed).normal(size=(2, front + 9, 4))
        got = ad(T.Tensor(x), (3, 3)).data
        want = adapter_composition(x, ad, (3, 3))
        assert np.array_equal(got[:, :front], x[:, :front])
        assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize("kernels", [(1,), (5,), (3, 5), (5, 3, 1)])
def test_fold_matches_composition_oracle_across_kernel_sets(kernels):
    ad = make_adapter(channels=6, kernels=kernels, seed=len(kernels), randomize_up=True)
    x = np.random.default_rng(15).normal(size=(2, 16, 6))
    want = adapter_composition(x, ad, (3, 5))
    assert np.abs(want - x).max() > 1e-3  # not a comparison of zero updates
    np.testing.assert_allclose(ad(T.Tensor(x), (3, 5)).data, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("make,grid,front", CASES, ids=CASE_IDS)
def test_one_node_carries_the_composed_graphs_bits(make, grid, front):
    # values and every gradient, the input's included, equal the graph of
    # Tensor primitives bit for bit
    ad = make()
    for b in (1, 3):
        x = _tokens(grid, front, b=b)
        probe = np.random.default_rng(b).normal(size=x.shape)
        outs, grads = [], []
        for f in (ad, lambda t, grid: adapter_graph(ad, t, grid)):
            params = {"x": T.Tensor(x, trainable=True), **{p.name: p for p in ad.params}}
            out = f(params["x"], grid)
            outs.append(out.data)
            grads.append(T.grad(tsum(out * probe), params))
        assert np.array_equal(*outs)
        assert grads[0].keys() == grads[1].keys()
        for name in grads[0]:
            assert np.array_equal(grads[0][name], grads[1][name]), name


def test_shape_preservation():
    rng = np.random.default_rng(6)
    for b, h, w, c, r in [(1, 2, 2, 4, 2), (3, 3, 4, 6, 3), (2, 4, 4, 8, 2)]:
        ad = ConvLoraAdapter(c, r, (3, 5), rng=np.random.default_rng(7))
        ad.w_up.data[:] = rng.normal(size=ad.w_up.data.shape)
        for front in (0, 1):
            x = rng.normal(size=(b, front + h * w, c))
            assert ad(T.Tensor(x), (h, w)).data.shape == x.shape


def test_linearity_in_w_up_and_fuse():
    ad = make_adapter(randomize_up=True)
    x = T.Tensor(np.random.default_rng(8).normal(size=(1, 10, 4)))

    def update():
        return ad(x, (3, 3)).data - x.data
    base = update()
    assert (base[:, 0] == 0).all()
    ad.w_up.data *= 2.5
    assert np.abs(update() - 2.5 * base).max() < 1e-12
    ad.w_up.data /= 2.5
    ad.fuse_1x1.data *= -3.0
    assert np.abs(update() - (-3.0) * base).max() < 1e-12


def test_branch_order_determinism():
    ad = make_adapter(channels=4, rank=2, kernels=(3, 5), randomize_up=True)
    flipped = make_adapter(channels=4, rank=2, kernels=(5, 3), randomize_up=True)
    # copy parameters so the models agree branch-by-branch
    flipped.w_down.data[:] = ad.w_down.data
    flipped.w_up.data[:] = ad.w_up.data
    for k in (3, 5):
        flipped.conv_down[k].data[:] = ad.conv_down[k].data
        flipped.conv_up[k].data[:] = ad.conv_up[k].data
    c = ad.w_down.data.shape[0]
    # fuse input channel blocks follow declaration order, so swap the blocks
    flipped.fuse_1x1.data[:, :c] = ad.fuse_1x1.data[:, c:]
    flipped.fuse_1x1.data[:, c:] = ad.fuse_1x1.data[:, :c]
    x = T.Tensor(np.random.default_rng(9).normal(size=(2, 9, 4)))
    # summation order inside the 1x1 fuse differs, so exactness is 1e-12
    np.testing.assert_allclose(ad(x, (3, 3)).data, flipped(x, (3, 3)).data,
                               rtol=0, atol=1e-12)


def enumerate_scalars(ad):
    return sum(t.data.size for t in ad.params)


def test_param_count_hand_enumerations():
    ad = ConvLoraAdapter(64, 8, (3, 5), rng=np.random.default_rng(0))
    want = 64 * 8 + 8 * 64 + 2 * 64 * 9 + 2 * 64 * 25 + 128 * 64
    assert enumerate_scalars(ad) == want
    small = ConvLoraAdapter(8, 2, (3,), rng=np.random.default_rng(0))
    assert enumerate_scalars(small) == 16 + 16 + 2 * 4 * 9 + 8 * 8 == 168


def test_param_count_rank_doubling_by_enumeration():
    base = ConvLoraAdapter(16, 2, (3, 5), rng=np.random.default_rng(0))
    doubled = ConvLoraAdapter(16, 4, (3, 5), rng=np.random.default_rng(0))
    assert enumerate_scalars(base) == 2 * 16 * 2 + 2 * 4 * (9 + 25) + 32 * 16 == 848
    assert enumerate_scalars(doubled) == 2 * 16 * 4 + 2 * 16 * (9 + 25) + 32 * 16 == 1728


def test_param_count_below_attention_block():
    # one attention block at C=64: qkvo projections alone are 4 * 64 * 64
    ad = ConvLoraAdapter(64, 8, (3, 5), rng=np.random.default_rng(0))
    assert enumerate_scalars(ad) < 4 * 64 * 64


def _fd_check(ad, grid, front):
    # the input's gradient too
    params = {"x": T.Tensor(_tokens(grid, front, b=2, seed=16), trainable=True, name="x"),
              **{t.name: t for t in ad.params}}
    res = check_gradients(lambda: tsum(pow_const(tanh(ad(params["x"], grid)), 2)), params)
    assert res.passed(), res.failures[:3]
    assert res.n_checked == sum(t.data.size for t in params.values())


def test_adapter_gradients_match_finite_differences():
    # both adapter classes, with and without a class row, and a one-branch
    # adapter with kernel 1
    for make, grid, front in CASES:
        _fd_check(make(), grid, front)


def test_fold_gradients_match_finite_differences_with_a_1x1_branch():
    _fd_check(make_adapter(kernels=(1, 3), randomize_up=True), (3, 5), 1)


def _closure_arrays(fn):
    """Every ndarray a closure holds, inside lists and tuples too."""
    stack = [cell.cell_contents for cell in fn.__closure__ or ()]
    while stack:
        v = stack.pop()
        if isinstance(v, np.ndarray):
            yield v
        elif isinstance(v, (list, tuple)):
            stack.extend(v)


def test_one_call_stays_rank_r_and_moves_only_weights():
    # C = 8 against n*r = 4, so a branch widened to C would show
    ad = make_adapter(channels=8, rank=2, kernels=(3, 5), randomize_up=True)
    b, l, c, nr = 2, 15, 8, 4
    x = T.Tensor(np.random.default_rng(14).normal(size=(b, 1 + l, c)), trainable=True)
    out = ad(x, (3, 5))
    assert out.data.shape == (b, 1 + l, c)
    assert out._vjp is not None and out._parents == (x, *ad.params)
    assert all(p._parents == () for p in out._parents)
    # the saved token arrays: the (B, L, n*r) branches and each conv's
    # (B*L, k*k*r) columns; nothing C or n*C wide
    widths = {nr} | {k * k * 2 for k in ad.branch_kernels}
    assert not {c, 2 * c} & widths
    saved = [a for a in _closure_arrays(out._vjp)
             if a.shape[0] in (b * l, b * (1 + l)) or a.shape[:2] in ((b, l), (b, 1 + l))]
    assert sorted(a.shape for a in saved) == sorted(
        [(b, l, nr)] + [(b * l, k * k * 2) for k in ad.branch_kernels for _ in range(2)])


@pytest.mark.parametrize("make,grid,front", CASES, ids=CASE_IDS)
def test_vjp_skips_the_gradient_of_a_constant_input(make, grid, front):
    ad = make()
    x = _tokens(grid, front)
    g = np.random.default_rng(21).normal(size=x.shape)
    live = ad(T.Tensor(x, trainable=True), grid)._vjp(g)
    const = ad(T.Tensor(x), grid)._vjp(g)
    assert live[0].shape == x.shape and const[0] is None
    for a, b in zip(live[1:], const[1:]):
        assert np.array_equal(a, b)


def test_low_rank_adapter_zero_init_and_forward():
    lo = LowRankAdapter(6, 2, rng=np.random.default_rng(11))
    x = np.random.default_rng(12).normal(size=(2, 5, 6))
    assert np.array_equal(lo(T.Tensor(x)).data, x)
    lo.w_up.data[:] = np.random.default_rng(13).normal(size=(2, 6))
    got = lo(T.Tensor(x)).data
    want = x + x @ lo.w_down.data @ lo.w_up.data
    assert np.abs(got - want).max() < 1e-12
    # with a 2x2 grid the first row passes through
    got = lo(T.Tensor(x), (2, 2)).data
    assert np.array_equal(got[:, 0], x[:, 0])
    assert np.abs(got[:, 1:] - want[:, 1:]).max() < 1e-12
    assert enumerate_scalars(lo) == 2 * 6 * 2
