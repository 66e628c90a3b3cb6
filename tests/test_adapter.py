from collections import Counter

import numpy as np
import pytest

from anofuse import tensor as T
from anofuse.adapter import ConvLoraAdapter, LowRankAdapter
from anofuse.verify import adapter_branch_composition, adapter_composition, check_gradients


def make_adapter(channels=4, rank=2, kernels=(3, 5), seed=0, randomize_up=False):
    ad = ConvLoraAdapter(channels, rank, kernels, rng=np.random.default_rng(seed))
    if randomize_up:
        rng = np.random.default_rng(seed + 100)
        ad.w_up.data[:] = rng.normal(0.0, 0.5, ad.w_up.data.shape)
    return ad


def test_zero_init_branch_and_adapter_are_zero():
    ad = make_adapter()
    x = T.Tensor(np.random.default_rng(1).normal(size=(2, 9, 4)))
    z = T.matmul(x, ad.w_down)
    for k in ad.branch_kernels:
        assert (ad.branch_forward(z, k, (3, 3)).data @ ad.w_up.data == 0).all()
    assert (ad(x, (3, 3)).data == 0).all()


def test_zero_fuse_annihilates():
    ad = make_adapter(randomize_up=True)
    ad.fuse_1x1.data[:] = 0.0
    x = T.Tensor(np.random.default_rng(2).normal(size=(1, 9, 4)))
    assert (ad(x, (3, 3)).data == 0).all()


def test_k1_identity_convs_collapse_to_plain_lora():
    ad = ConvLoraAdapter(4, 2, (1,), rng=np.random.default_rng(3))
    rng = np.random.default_rng(4)
    ad.w_up.data[:] = rng.normal(size=(2, 4))
    ad.conv_down[1].data[:] = np.eye(2).reshape(2, 2, 1, 1)
    ad.conv_up[1].data[:] = np.eye(2).reshape(2, 2, 1, 1)
    ad.fuse_1x1.data[:] = np.eye(4).reshape(4, 4, 1, 1)
    x = rng.normal(size=(2, 6, 4))
    got = ad(T.Tensor(x), (2, 3)).data
    want = x @ ad.w_down.data @ ad.w_up.data
    assert np.abs(got - want).max() < 1e-12


def test_branch_matches_composition_oracle():
    ad = make_adapter(randomize_up=True)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(1, 9, 4))
    for k in ad.branch_kernels:
        # the branch stays rank r; the up-projection and both 1/k scales
        # are applied here as the fold applies them
        z = ad.branch_forward(T.Tensor(x @ ad.w_down.data), k, (3, 3)).data
        got = z @ ad.w_up.data / k**2
        want = adapter_branch_composition(x, ad, k, (3, 3))
        assert np.abs(got - want).max() < 1e-12
        assert got.shape == (1, 9, 4)


def test_adapter_matches_composition_oracle():
    for seed in range(5):
        ad = make_adapter(seed=seed, randomize_up=True)
        rng = np.random.default_rng(50 + seed)
        x = rng.normal(size=(2, 9, 4))
        got = ad(T.Tensor(x), (3, 3)).data
        want = adapter_composition(x, ad, (3, 3))
        assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize("kernels", [(1,), (5,), (3, 5), (5, 3, 1)])
def test_fold_matches_composition_oracle_across_kernel_sets(kernels):
    ad = make_adapter(channels=6, kernels=kernels, seed=len(kernels), randomize_up=True)
    x = np.random.default_rng(15).normal(size=(2, 15, 6))
    want = adapter_composition(x, ad, (3, 5))
    assert np.abs(want).max() > 1e-3  # not a comparison of zeros
    np.testing.assert_allclose(ad(T.Tensor(x), (3, 5)).data, want, rtol=0, atol=1e-12)


def test_shape_preservation():
    rng = np.random.default_rng(6)
    for b, h, w, c, r in [(1, 2, 2, 4, 2), (3, 3, 4, 6, 3), (2, 4, 4, 8, 2)]:
        ad = ConvLoraAdapter(c, r, (3, 5), rng=np.random.default_rng(7))
        ad.w_up.data[:] = rng.normal(size=ad.w_up.data.shape)
        x = rng.normal(size=(b, h * w, c))
        assert ad(T.Tensor(x), (h, w)).data.shape == (b, h * w, c)


def test_linearity_in_w_up_and_fuse():
    ad = make_adapter(randomize_up=True)
    x = T.Tensor(np.random.default_rng(8).normal(size=(1, 9, 4)))
    base = ad(x, (3, 3)).data
    ad.w_up.data *= 2.5
    assert np.abs(ad(x, (3, 3)).data - 2.5 * base).max() < 1e-12
    ad.w_up.data /= 2.5
    ad.fuse_1x1.data *= -3.0
    assert np.abs(ad(x, (3, 3)).data - (-3.0) * base).max() < 1e-12


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


def test_adapter_gradients_match_finite_differences():
    ad = make_adapter(randomize_up=True)
    x = T.Tensor(np.random.default_rng(10).normal(size=(1, 9, 4)))
    params = {t.name: t for t in ad.params}

    def loss():
        return T.tsum(T.tanh(ad(x, (3, 3))) ** 2)
    res = check_gradients(loss, params)
    assert res.passed(), res.failures[:3]


def test_fold_gradients_match_finite_differences_with_a_1x1_branch():
    ad = make_adapter(kernels=(1, 3), randomize_up=True)
    x = T.Tensor(np.random.default_rng(16).normal(size=(2, 15, 4)))
    params = {t.name: t for t in ad.params}
    res = check_gradients(lambda: T.tsum(T.tanh(ad(x, (3, 5))) ** 2), params)
    assert res.passed(), res.failures[:3]


def test_one_call_stays_rank_r_and_moves_only_weights():
    # C = 8 against n*r = 4, so a branch widened to C would show
    ad = make_adapter(channels=8, rank=2, kernels=(3, 5), randomize_up=True)
    b, l, nr = 2, 15, 4
    x = T.Tensor(np.random.default_rng(14).normal(size=(b, l, 8)))
    out = ad(x, (3, 5))
    nodes, stack = {}, [out]
    while stack:
        node = stack.pop()
        if id(node) in nodes or node._vjp is None:
            continue
        nodes[id(node)] = node
        stack.extend(node._parents)
    on_x = {}

    def reads_x(node):
        if id(node) not in on_x:
            on_x[id(node)] = node is x or any(reads_x(p) for p in node._parents)
        return on_x[id(node)]
    kinds = Counter(n._vjp.__qualname__.split(".")[0] for n in nodes.values())
    # shared down-projection, the (n*r, C) fold and its use; one scale
    assert kinds == {"conv_rows": 4, "matmul": 3, "mul": 1, "concat": 1, "reshape": 2,
                     "transpose": 1}
    for node in nodes.values():
        if node is not out and reads_x(node):
            assert node.data.shape[:2] == (b, l) and node.data.shape[2] <= nr
        if node._vjp.__qualname__.startswith(("reshape", "transpose")):
            assert not reads_x(node)
    assert out.data.shape == (b, l, 8)


def test_low_rank_adapter_zero_init_and_forward():
    lo = LowRankAdapter(6, 2, rng=np.random.default_rng(11))
    x = np.random.default_rng(12).normal(size=(2, 5, 6))
    assert (lo(T.Tensor(x)).data == 0).all()
    lo.w_up.data[:] = np.random.default_rng(13).normal(size=(2, 6))
    got = lo(T.Tensor(x)).data
    want = x @ lo.w_down.data @ lo.w_up.data
    assert np.abs(got - want).max() < 1e-12
    assert enumerate_scalars(lo) == 2 * 6 * 2
