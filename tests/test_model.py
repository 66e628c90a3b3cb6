from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

from anofuse import losses
from anofuse import model as model_module
from anofuse.checkpoint import frozen_digest
from anofuse.config import RunConfig
from anofuse.errors import ShapeError
from anofuse.gateway import AnomalyMap, FusionGateway
from anofuse.losses import model_loss
from anofuse.model import MODEL_KEYS, PROMPTS, VOCAB, TransformerBlock, build_model
from anofuse.tensor import Tensor, grad, no_grad
from anofuse.verify import check_gradients, randomize_trainables
from oracles import (block_composition, cls_loss_graph, gateway_graph, node_and_graph,
                     pow_const, seg_loss_graph, state_probs_graph, tsum)


def small_config(**kw):
    base = dict(n_groups=2, channels=16, heads=2, rank=2, gate_hidden=4,
                patch_size=8, image_size=16, defect_min=3, defect_max=8)
    base.update(kw)
    return RunConfig(**base)


def rand_images(cfg, b=2, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, (b, cfg.image_size, cfg.image_size))


def test_patchify_token_count():
    cfg = RunConfig()
    m = build_model(cfg)
    tokens = m.patchify(rand_images(cfg, 3))
    assert tokens.data.shape == (3, 17, 64)  # 1 class + 16 patches


def test_patchify_zero_embed_gives_zero_patch_tokens():
    cfg = small_config()
    m = build_model(cfg)
    m.patch_w.data[:] = 0.0
    m.vis_pos.data[:] = 0.0
    tokens = m.patchify(np.full((2, 16, 16), 0.7))
    assert (tokens.data[:, 1:, :] == 0).all()
    np.testing.assert_array_equal(tokens.data[:, 0, :],
                                  np.broadcast_to(m.cls_token.data, (2, 16)))


def test_patchify_matches_loop_oracle():
    cfg = small_config()
    m = build_model(cfg)
    images = rand_images(cfg, 2, seed=3)
    tokens = m.patchify(images).data
    p = cfg.patch_size
    g = cfg.image_size // p
    for b in range(2):
        for gy in range(g):
            for gx in range(g):
                pix = images[b, gy * p:(gy + 1) * p, gx * p:(gx + 1) * p].ravel()
                want = pix @ m.patch_w.data + m.vis_pos.data[1 + gy * g + gx]
                got = tokens[b, 1 + gy * g + gx]
                assert np.abs(got - want).max() < 1e-12


def test_patchify_rejects_indivisible():
    m = build_model(small_config())
    with pytest.raises(ShapeError):
        m.patchify(np.zeros((1, 15, 16)))


def test_patchify_rejects_a_channel_axis():
    m = build_model(small_config())
    with pytest.raises(ShapeError, match=r"\(1, 1, 16, 16\)"):
        m.patchify(np.zeros((1, 1, 16, 16)))


def test_zero_init_adapters_do_not_change_backbone():
    cfg = small_config()
    m = build_model(cfg)
    images = rand_images(cfg, 2, seed=4)
    v_list, v_cls = m.vision_forward(m.vision_prefix(images))
    # plain backbone: same blocks, no adapter application
    x = m.patchify(images)
    for g in range(cfg.n_groups):
        for blk in m.vision_groups[g]:
            x = blk(x)
        np.testing.assert_array_equal(v_list[g].data, x.data[:, 1:, :])
    np.testing.assert_array_equal(v_cls.data, x.data[:, 0, :])


def test_single_group_is_full_depth():
    cfg = small_config(n_groups=1)
    m = build_model(cfg)
    images = rand_images(cfg, 1, seed=5)
    v_list, _ = m.vision_forward(m.vision_prefix(images))
    assert len(v_list) == 1
    x = m.patchify(images)
    for blk in m.vision_groups[0]:
        x = blk(x)
    np.testing.assert_array_equal(v_list[0].data, x.data[:, 1:, :])


def test_vision_forward_staged_oracle_with_live_adapters():
    cfg = small_config(n_groups=2, blocks_per_group=2)
    m = build_model(cfg)
    rng = np.random.default_rng(6)
    for ad in m.vision_adapters:
        ad.w_up.data[:] = rng.normal(0, 0.2, ad.w_up.data.shape)
    images = rand_images(cfg, 2, seed=7)
    v_list, v_cls = m.vision_forward(m.vision_prefix(images))
    # staged manual run, group by group, with each adapter on the patch
    # rows alone and the class row put back in front
    x = m.patchify(images)
    for g in range(2):
        for blk in m.vision_groups[g]:
            x = blk(x)
        patches = m.vision_adapters[g](Tensor(x.data[:, 1:, :].copy()), m.grid)
        merged = np.concatenate([x.data[:, :1, :], patches.data], axis=1)
        x = Tensor(merged)
        np.testing.assert_array_equal(v_list[g].data, merged[:, 1:, :])
    np.testing.assert_array_equal(v_cls.data, x.data[:, 0, :])


def embed_alone(m, state):
    """One prompt's (1, L, C) token embeddings, looked up word by word."""
    ids = [VOCAB.index(w) for w in PROMPTS[state]]
    return Tensor((m.tok_embed.data[ids] + m.txt_pos.data[:len(ids)])[None])


def test_text_forward_zero_init_matches_frozen_stack():
    cfg = small_config()
    m = build_model(cfg)
    t_feats = m.text_forward()
    assert t_feats.data.shape == (cfg.n_groups, 2, cfg.channels)
    for s, state in enumerate(("normal", "abnormal")):
        x = embed_alone(m, state)
        for g in range(cfg.n_groups):
            for blk in m.text_groups[g]:
                x = blk(x)
            np.testing.assert_array_equal(t_feats.data[g, s], x.data[0, -1, :])


def test_text_prefix_is_a_constant_of_the_frozen_group0_stack():
    cfg = small_config()
    m = build_model(cfg)
    prefix = m.text_prefix
    assert prefix._parents == () and not prefix.requires_grad
    for s, state in enumerate(("normal", "abnormal")):
        x = embed_alone(m, state)
        for blk in m.text_groups[0]:
            x = blk(x)
        np.testing.assert_array_equal(prefix.data[s], x.data[0])
    randomize_trainables(m, 19)
    first = m.text_forward().data.copy()
    np.testing.assert_array_equal(m.text_forward().data, first)
    assert m.text_prefix is prefix


@pytest.mark.parametrize("cfg", [small_config(n_groups=3), RunConfig()], ids=["small", "default"])
def test_stacked_text_forward_equals_each_prompt_alone_bitwise(cfg):
    m = build_model(cfg)
    rng = np.random.default_rng(18)
    for lo in m.text_loras:
        lo.w_up.data[:] = rng.normal(0, 0.5, lo.w_up.data.shape)
    t_feats = m.text_forward()
    for s, state in enumerate(("normal", "abnormal")):
        x = embed_alone(m, state)
        for g in range(cfg.n_groups):
            for blk in m.text_groups[g]:
                x = blk(x)
            x = m.text_loras[g](x)
            np.testing.assert_array_equal(t_feats.data[g, s], x.data[0, -1, :])
    assert not np.array_equal(t_feats.data[-1, 0], t_feats.data[-1, 1])


def test_identical_prompts_give_identical_state_features(monkeypatch):
    cfg = small_config()
    monkeypatch.setitem(PROMPTS, "abnormal", PROMPTS["normal"])
    m = build_model(cfg)
    t_feats = m.text_forward()
    for g in range(cfg.n_groups):
        np.testing.assert_array_equal(t_feats.data[g, 0], t_feats.data[g, 1])


def test_build_determinism_and_seed_sensitivity():
    cfg = small_config()
    p1 = build_model(cfg).named_params()
    p2 = build_model(cfg).named_params()
    assert p1.keys() == p2.keys()
    for k in p1:
        np.testing.assert_array_equal(p1[k].data, p2[k].data)
    p3 = build_model(replace(cfg, model_seed=123)).named_params()
    assert any((p1[k].data != p3[k].data).any() for k in p1)


def test_trainable_census_is_adapters_loras_gateway_only():
    cfg = RunConfig()
    m = build_model(cfg)
    trainable = m.trainable_params()
    for name in trainable:
        assert name.startswith(("vision.", "text.", "gateway.")) and (
            ".adapter." in name or ".lora." in name or name.startswith("gateway."))
    conv_count = 64 * 8 + 8 * 64 + 2 * 64 * 9 + 2 * 64 * 25 + 128 * 64
    gate = 2 * (64 * 32 + 32 * 3)
    assert m.trainable_count() == 3 * conv_count + 3 * (2 * 64 * 8) + gate


def test_frozen_params_never_receive_gradients():
    cfg = small_config()
    m = build_model(cfg)
    rng = np.random.default_rng(8)
    for ad in m.vision_adapters:
        ad.w_up.data[:] = rng.normal(0, 0.1, ad.w_up.data.shape)
    v_list, v_cls = m.vision_forward(m.vision_prefix(rand_images(cfg, 1, seed=9)))
    loss = tsum(pow_const(v_list[-1], 2)) + tsum(pow_const(v_cls, 2))
    grads = grad(loss, m.named_params())
    frozen = {k for k, p in m.named_params().items() if not p.requires_grad}
    assert frozen
    assert not (set(grads) & frozen)
    assert set(grads) == set(m.trainable_params())


@pytest.mark.parametrize("switches", [{}, {"conv_lora_on": False, "dfg_on": False}],
                         ids=["default", "plain"])
def test_every_module_tensor_is_in_its_params_and_named_once(switches):
    # a Tensor left out of `params` would be missing from checkpoints, Adam
    # and the gradient suite without any error
    m = build_model(replace(RunConfig(), **switches))
    blocks = [b for groups in (m.vision_groups, m.text_groups) for g in groups for b in g]
    modules = blocks + m.vision_adapters + m.text_loras + [m.gateway]
    listed = []
    for module in modules:
        held = [v for v in vars(module).values() if isinstance(v, Tensor)]
        held += [t for v in vars(module).values() if isinstance(v, dict)
                 for t in v.values() if isinstance(t, Tensor)]
        assert {id(t) for t in held} == {id(t) for t in module.params}, type(module).__name__
        listed += module.params
    named = m.named_params()
    assert len(named) == 5 + len(listed)
    assert {id(t) for t in listed} <= {id(t) for t in named.values()}


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_group_counts_build_and_run(n):
    cfg = small_config(n_groups=n)
    m = build_model(cfg)
    with no_grad():
        amap, probs = m.forward(m.vision_prefix(rand_images(cfg, 1, seed=10)),
                                m.text_forward())
    assert amap.per_level.shape == (n, 1) + m.grid
    assert probs.data.shape == (1, 2)


def test_batch_permutation_equivariance():
    cfg = small_config()
    m = build_model(cfg)
    images = rand_images(cfg, 4, seed=11)
    perm = np.array([2, 0, 3, 1])
    with no_grad():
        text = m.text_forward()
        prefix, prefix_p = m.vision_prefix(images), m.vision_prefix(images[perm])
        (amap, probs), (amap_p, probs_p) = m.forward(prefix, text), m.forward(prefix_p, text)
        v_cls, v_cls_p = m.vision_forward(prefix)[1], m.vision_forward(prefix_p)[1]
    np.testing.assert_array_equal(amap.per_level[:, perm], amap_p.per_level)
    np.testing.assert_array_equal(amap.upsampled.data[perm], amap_p.upsampled.data)
    np.testing.assert_array_equal(probs.data[perm], probs_p.data)
    np.testing.assert_array_equal(v_cls.data[perm], v_cls_p.data)


def _other_value(name, value):
    """A value of RunConfig field `name` other than `value`; valid on
    `small_config` when it alone changes."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return 2 * value if value else 1
    if isinstance(value, float):
        return 1.5 * value
    return {"data_dir": "elsewhere", "texture": "sinusoid"}[name]


def _model_state(cfg, images):
    """What `build_model(cfg)` fixes: the frozen digest, every trainable, and
    a no_grad forward on `images`."""
    m = build_model(cfg)
    with no_grad():
        amap, probs = m.forward(m.vision_prefix(images), m.text_forward())
    return (frozen_digest(m), {k: p.data for k, p in m.trainable_params().items()},
            [amap.per_level, amap.upsampled.data, amap.fusion_weights, probs.data])


def test_model_keys_list_every_field_the_model_reads():
    # `cli._load_for_inference` lets a checkpoint's config change only the
    # fields outside MODEL_KEYS, so none of them may move the model
    cfg = small_config().validate()
    images = rand_images(cfg, 2, seed=27)
    digest, trainables, outputs = _model_state(cfg, images)
    others = [f.name for f in fields(RunConfig) if f.name not in MODEL_KEYS]
    assert set(MODEL_KEYS) < {f.name for f in fields(RunConfig)} and others
    for name in others:
        changed = replace(cfg, **{name: _other_value(name, getattr(cfg, name))}).validate()
        assert getattr(changed, name) != getattr(cfg, name)
        got_digest, got_trainables, got_outputs = _model_state(changed, images)
        assert got_digest == digest, name
        assert got_trainables.keys() == trainables.keys(), name
        assert all(np.array_equal(got_trainables[k], v) for k, v in trainables.items()), name
        assert all(np.array_equal(a, b) for a, b in zip(got_outputs, outputs)), name


def test_vocab_covers_prompts():
    for state, words in PROMPTS.items():
        for w in words:
            assert w in VOCAB


# (batch, tokens, channels, heads): the batch-32 training shape, one text
# prompt, both prompts stacked, and a tiny shape with two heads
BLOCK_SHAPES = [(32, 17, 64, 4), (1, 2, 64, 4), (2, 2, 64, 4), (2, 3, 8, 2)]


def _block_and_input(b, l, c, heads, seed=12):
    blk = TransformerBlock(c, heads, np.random.default_rng(seed), "test.b0")
    return blk, np.random.default_rng(seed + 1).normal(size=(b, l, c))


@pytest.mark.parametrize("b,l,c,heads", BLOCK_SHAPES)
def test_fused_block_forward_equals_composed_oracle(b, l, c, heads):
    blk, x = _block_and_input(b, l, c, heads)
    want = block_composition(blk, Tensor(x)).data
    assert np.array_equal(blk(Tensor(x)).data, want)
    with no_grad():
        assert np.array_equal(blk(Tensor(x)).data, want)


@pytest.mark.parametrize("b,l,c,heads", BLOCK_SHAPES)
def test_fused_block_input_gradient_matches_composed_oracle(b, l, c, heads):
    blk, x = _block_and_input(b, l, c, heads)
    probe = np.random.default_rng(14).normal(size=x.shape)
    xt = Tensor(x, trainable=True)
    (_, fused), (_, composed) = node_and_graph(lambda: blk(xt), lambda: block_composition(blk, xt),
                                               {"x": xt}, probe)
    assert np.abs(fused["x"] - composed["x"]).max() <= 1e-12 * np.abs(composed["x"]).max()


@pytest.mark.parametrize("cfg", [small_config(blocks_per_group=2), RunConfig()],
                         ids=["two-blocks-per-group", "default"])
def test_model_forward_equals_composed_block_oracle(monkeypatch, cfg):
    images = rand_images(cfg, 3, seed=16)

    def run():
        # built inside, so the text prefix goes through the patched blocks too
        m = build_model(cfg)
        rng = np.random.default_rng(15)
        for ad in m.vision_adapters + m.text_loras:
            ad.w_up.data[:] = rng.normal(0, 0.2, ad.w_up.data.shape)
        with no_grad():
            prefix = m.vision_prefix(images)
            amap, probs = m.forward(prefix, m.text_forward())
            v_list, v_cls = m.vision_forward(prefix)
        return [amap.upsampled.data, probs.data, v_cls.data] + [v.data for v in v_list]
    fused = run()
    monkeypatch.setattr(TransformerBlock, "__call__", block_composition)
    for got, want in zip(fused, run()):
        assert np.array_equal(got, want)


def _block_gradient_check(b=2, l=3, c=8, heads=2):
    blk, x = _block_and_input(b, l, c, heads)
    probe = np.random.default_rng(17).normal(size=x.shape)
    params = {"x": Tensor(x, trainable=True, name="x")}
    return check_gradients(lambda: tsum(blk(params["x"]) * probe), params)


def test_fd_fused_block_input_gradient():
    res = _block_gradient_check()
    assert res.passed(), res.failures[:3]
    assert res.n_checked == 2 * 3 * 8


def test_fd_fused_block_catches_a_scaled_qkv_gradient(monkeypatch):
    attention_bwd = model_module.attention_bwd
    monkeypatch.setattr(model_module, "attention_bwd",
                        lambda *args: attention_bwd(*args) * (1 + 1e-3))
    assert not _block_gradient_check().passed()


def test_fused_block_is_one_node_whose_only_parent_is_its_input():
    blk, x = _block_and_input(2, 3, 8, 2)
    xt = Tensor(x, trainable=True)
    y = blk(xt)
    assert y.requires_grad and y._parents == (xt,) and y._vjp is not None
    with no_grad():
        y = blk(xt)
    assert not y.requires_grad and y._parents == () and y._vjp is None
    # a constant input records nothing either
    y = blk(Tensor(x))
    assert not y.requires_grad and y._parents == () and y._vjp is None


def _node_kinds(root, stop=()):
    """Primitive name -> number of graph nodes reachable from `root`,
    without walking into the tensors in `stop`."""
    stop = {id(t) for t in stop}
    seen, stack, kinds = set(), [root], Counter()
    while stack:
        node = stack.pop()
        if id(node) in seen or id(node) in stop or node._vjp is None:
            continue
        seen.add(id(node))
        kinds[node._vjp.__qualname__.split(".")[0]] += 1
        stack.extend(node._parents)
    return kinds


def test_gateway_records_as_many_nodes_at_any_group_count():
    kinds = []
    for n in (2, 4):
        cfg = small_config(n_groups=n)
        m = build_model(cfg)
        v_list, _ = m.vision_forward(m.vision_prefix(rand_images(cfg, 2, seed=19)))
        text = m.text_forward()
        amap = m.gateway.forward(v_list, text, m.grid, (cfg.image_size, cfg.image_size))
        kinds.append(_node_kinds(amap.upsampled, v_list + [text]))
        # the levels, the text features and the gate weights, with no stack
        assert amap.upsampled._parents == (*v_list, text, *m.gateway.params)
    assert kinds[0] == kinds[1] == {"FusionGateway": 1}


def test_text_forward_records_one_stack_and_one_slice_per_group():
    for n in (2, 4):
        m = build_model(small_config(n_groups=n))
        kinds = _node_kinds(m.text_forward(), [m.text_prefix])
        assert kinds["stack"] == 1 and kinds["slice_tensor"] == n


def _default_step_loss(b=2):
    cfg = RunConfig()
    m = build_model(cfg)
    out = m.forward(m.vision_prefix(rand_images(cfg, b, seed=20)),
                    m.text_forward())
    masks = np.zeros((b, cfg.image_size, cfg.image_size))
    masks[-1, 4:12, 8:16] = 1.0
    total, _, _ = model_loss(out, masks, (np.arange(b) == b - 1).astype(int), cfg)
    return total


def _graph_tensors(root):
    """Every distinct tensor reachable from `root` through parent links."""
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


def _default_step_kinds():
    return _node_kinds(_default_step_loss())


def test_default_step_records_four_block_nodes():
    # two vision groups and two text groups after the prefix, each one call
    assert _default_step_kinds()["TransformerBlock"] == 4


def test_default_step_records_one_node_per_adapter_call():
    # three vision and three text adapter calls, each one node over the
    # full token tensor, with no slice, add or concat around it
    loss = _default_step_loss(b=1)
    kinds = _node_kinds(loss)
    assert kinds["ConvLoraAdapter"] == 3 and kinds["LowRankAdapter"] == 3
    m = build_model(RunConfig())
    v_list, v_cls = m.vision_forward(m.vision_prefix(rand_images(m.config, 1, seed=22)))
    # the vision path slices only the class token and each level's patch rows
    assert _node_kinds(v_cls) == {"ConvLoraAdapter": 3, "TransformerBlock": 2, "slice_tensor": 1}
    assert [v._vjp.__qualname__.split(".")[0] for v in v_list] == ["slice_tensor"] * 3


def test_group0_vision_adapter_skips_the_gradient_of_the_cached_prefix():
    m = build_model(RunConfig())
    prefix = m.vision_prefix(rand_images(m.config, 1, seed=23))
    out = m.vision_adapters[0](prefix, m.grid)
    assert out._parents[0] is prefix and not prefix.requires_grad
    grads = out._vjp(np.ones(out.data.shape))
    assert grads[0] is None
    assert all(g is not None for g in grads[1:])


def test_default_step_records_one_node_per_head_and_loss():
    # the gateway, the image head and each loss are one node; only the sum
    # in model_loss stays two Tensor primitives
    loss = _default_step_loss(b=1)
    kinds = _node_kinds(loss)
    assert all(kinds[k] == 1 for k in ("FusionGateway", "state_probs", "seg_loss", "cls_loss"))
    assert kinds["add"] == 1 and kinds["mul"] == 1
    # 160 with these layers composed of primitives, 210 with the adapters too
    assert len(_graph_tensors(loss)) <= 70


def test_default_step_records_one_stack_node():
    # the text features in text_forward; the gateway reads the levels directly
    assert _default_step_kinds()["stack"] == 1


def test_default_step_reaches_no_tensor_of_rank_five():
    # the cosine head is one matmul over C, so no (..., L, S, C) product of
    # tokens against descriptors is built
    assert max(t.data.ndim for t in _graph_tensors(_default_step_loss())) == 4


# a batch size and small_config overrides per case: each batch size, group
# count, gate switch and focal gamma, and each loss weight at 0
STEP_CASES = {
    "b1-g1": dict(b=1, n_groups=1),
    "b3-g2-static-gamma0-no-focal": dict(b=3, n_groups=2, dfg_on=False, focal_gamma=0.0,
                                         lambda_focal=0.0),
    "b1-g4-gamma1.5-no-dice": dict(b=1, n_groups=4, focal_gamma=1.5, lambda_dice=0.0),
    "b3-g4-static-no-cls": dict(b=3, n_groups=4, dfg_on=False, lambda_cls=0.0),
    "b3-g2-gamma1.5": dict(b=3, n_groups=2, focal_gamma=1.5),
}


def _composed_layers(monkeypatch):
    """Run the gateway, the image head and both losses as their graphs of
    Tensor primitives."""
    def gateway_forward(gw, *args):
        maps, up = gateway_graph(gw, *args)
        return AnomalyMap(maps.data, up, None)
    monkeypatch.setattr(FusionGateway, "forward", gateway_forward)
    monkeypatch.setattr(model_module, "state_probs", state_probs_graph)
    monkeypatch.setattr(losses, "seg_loss", seg_loss_graph)
    monkeypatch.setattr(losses, "cls_loss", cls_loss_graph)


@pytest.mark.parametrize("case", STEP_CASES)
def test_step_equals_the_composed_graph_bitwise(monkeypatch, case):
    overrides = dict(STEP_CASES[case])
    b = overrides.pop("b")
    cfg = small_config(**overrides)
    images = rand_images(cfg, b, seed=24)
    masks = (np.random.default_rng(25).uniform(size=images.shape) > 0.7).astype(np.float64)
    labels = np.arange(b) % 2

    sizes = []

    def step():
        m = build_model(cfg)
        randomize_trainables(m, 26)
        out = m.forward(m.vision_prefix(images), m.text_forward())
        total, seg, cls = model_loss(out, masks, labels, cfg)
        sizes.append(len(_graph_tensors(total)))
        return [total.data, seg.data, cls.data, *grad(total, m.trainable_params()).values()]
    fused = step()
    _composed_layers(monkeypatch)
    composed = step()
    assert sizes[0] < sizes[1] and len(fused) == len(composed)
    assert all(np.array_equal(a, b) for a, b in zip(fused, composed))
