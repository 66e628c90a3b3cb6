"""Grouped dual encoder: a frozen random vision transformer and a frozen
random text transformer, each partitioned into N sequential groups.

Every vision group ends with a residual adapter on the patch tokens (the
multi-branch convolutional one, or a plain low-rank one for the ablation
baseline) and every text group ends with a plain low-rank residual. Only
adapters, text residuals, and the fusion gateway train; backbone weights
are drawn once from the model seed and never receive gradients. So a
frozen transformer block is one graph node whose hand-written VJP
computes the gradient of its input alone, never of its weights. Each
adapter call is one graph node too: it takes a group's whole token tensor
and returns the updated tokens, on the vision side with the class row
passed through unchanged, so no slice, add or concat surrounds it. The
gateway and the image head are one node each as well (gateway.py), so a
step's graph holds one node per layer call, plus the slices and the stack
that pass the levels, the class token and the text features between them.

A subgraph with no trainable input is a constant. The text prefix, the
group-0 text blocks on both fixed prompts at once, is a model constant:
it is computed when the model is built and kept as `text_prefix`, so
`text_forward()` takes no argument. Only the vision prefix, patchify plus
the group-0 vision blocks of each image (`vision_prefix`), belongs to the
caller; `train_steps` caches it per training image, since it costs about
5.7 ms per chunk of 32 images. From its prefix each tower runs the same
group loop (`_groups`). The one forward path, `forward(vision_prefix,
text)`, takes the (N, S, C) `text_forward` features and returns both
heads: the gateway's anomaly maps and the image head, `state_probs` of the
class token against the final group's unfused text pair.
"""

from __future__ import annotations

import numpy as np

from . import tensor as tt
from .adapter import ConvLoraAdapter, LowRankAdapter
from .config import RunConfig
from .errors import ShapeError
from .gateway import STATES, FusionGateway, state_probs
from .tensor import (Tensor, _node, gelu_bwd, gelu_fwd, layer_norm_bwd, layer_norm_fwd, softmax_bwd,
                     softmax_fwd)

MLP_RATIO = 4
TEXT_CAPACITY = 8

# tiny fixed vocabulary; prompts are token-id sequences over it
VOCAB = ("object", "flawless", "damaged")
PROMPTS = {"normal": ("object", "flawless"), "abnormal": ("object", "damaged")}


def attention(qkv, scale):
    """Scaled dot-product attention of stacked (3, B, H, L, d) queries, keys
    and values: the (B, H, L, d) output and the (B, H, L, L) weights."""
    q, k, v = qkv
    attn = softmax_fwd(np.matmul(q, k.swapaxes(-1, -2)) * scale)
    return np.matmul(attn, v), attn


def attention_bwd(do, qkv, attn, scale):
    """Gradient of `attention` w.r.t. its stacked queries, keys and values,
    from the output gradient `do`; same (3, B, H, L, d) layout."""
    q, k, v = qkv
    ds = softmax_bwd(np.matmul(do, v.swapaxes(-1, -2)), attn) * scale
    return np.concatenate([np.matmul(ds, k)[None], np.matmul(ds.swapaxes(-1, -2), q)[None],
                           np.matmul(attn.swapaxes(-1, -2), do)[None]])


class TransformerBlock:
    """Pre-norm attention + MLP block with bias-free projections (frozen).

    A call is one graph node whose only parent is the input; its VJP
    computes the input gradient alone, since no weight here trains."""

    def __init__(self, channels, heads, rng, name):
        c = channels
        self.heads = heads
        self.head_dim = c // heads
        self.scale = self.head_dim ** -0.5
        std = c ** -0.5
        # wq, wk and wv are column blocks of one (C, 3C) array, so one GEMM
        # projects all three
        self.wqkv = np.concatenate([rng.normal(0.0, std, (c, c)) for _ in range(3)], axis=1)
        self.wq, self.wk, self.wv = (Tensor(self.wqkv[:, i * c:(i + 1) * c], name=f"{name}.{w}")
                                     for i, w in enumerate(("wq", "wk", "wv")))
        self.wo = Tensor(rng.normal(0.0, std, (c, c)), name=f"{name}.wo")
        self.w1 = Tensor(rng.normal(0.0, std, (c, MLP_RATIO * c)), name=f"{name}.w1")
        self.w2 = Tensor(rng.normal(0.0, (MLP_RATIO * c) ** -0.5, (MLP_RATIO * c, c)),
                         name=f"{name}.w2")
        self.params = (self.wq, self.wk, self.wv, self.wo, self.w1, self.w2)
        self.name = name

    def forward(self, x):
        """(B, L, C) tokens -> (B, L, C) tokens. The projections are 2-D GEMMs
        on the B*L token rows; the closure keeps only what the VJP reads."""
        b, l, c = x.data.shape
        rows = b * l
        xd = x.data.reshape(rows, c)
        wo, w1, w2 = self.wo.data, self.w1.data, self.w2.data
        h, r1 = layer_norm_fwd(xd)
        qkv = (h @ self.wqkv).reshape(b, l, 3, self.heads, self.head_dim).transpose(2, 0, 3, 1, 4)
        o, attn = attention(qkv, self.scale)
        x1 = xd + o.transpose(0, 2, 1, 3).reshape(rows, c) @ wo
        m, r2 = layer_norm_fwd(x1)
        u = m @ w1
        z, t = gelu_fwd(u)
        y = x1 + z @ w2

        def vjp(g):
            g = g.reshape(rows, c)
            dx1 = g + layer_norm_bwd(gelu_bwd(g @ w2.T, u, t) @ w1.T, m, r2)
            do = (dx1 @ wo.T).reshape(b, l, self.heads, self.head_dim).transpose(0, 2, 1, 3)
            dqkv = attention_bwd(do, qkv, attn, self.scale).transpose(1, 3, 0, 2, 4)
            dh = dqkv.reshape(rows, 3 * c) @ self.wqkv.T
            return ((dx1 + layer_norm_bwd(dh, h, r1)).reshape(b, l, c),)
        # under no_grad `_node` drops the closure, and with it every saved array
        return _node(y.reshape(b, l, c), (x,), vjp)

    __call__ = forward


def _blocks(x, blocks):
    """`x` through each block in turn."""
    for block in blocks:
        x = block(x)
    return x


def _groups(prefix, groups, adapters, grid):
    """The tokens after each group's adapter, starting from `prefix`: group
    0's blocks belong to the prefix, every later group runs its blocks first."""
    x = prefix
    for blocks, adapter in zip([(), *groups[1:]], adapters):
        x = adapter(_blocks(x, blocks), grid)
        yield x


class GroupedModel:
    def __init__(self, config: RunConfig, rng):
        self.config = config
        c = config.channels
        p = config.patch_size
        self.grid = (config.image_size // p, config.image_size // p)
        self.n_patches = self.grid[0] * self.grid[1]
        n = config.n_groups

        self.patch_w = Tensor(rng.normal(0.0, (p * p) ** -0.5, (p * p, c)), name="patch_embed.w")
        self.cls_token = Tensor(rng.normal(0.0, 1.0, (c,)), name="cls_token")
        self.vis_pos = Tensor(rng.normal(0.0, 0.5, (1 + self.n_patches, c)), name="vis_pos")
        self.tok_embed = Tensor(rng.normal(0.0, 1.0, (len(VOCAB), c)), name="tok_embed")
        self.txt_pos = Tensor(rng.normal(0.0, 0.5, (TEXT_CAPACITY, c)), name="txt_pos")

        self.vision_groups = [[TransformerBlock(c, config.heads, rng, f"vision.g{g}.b{i}")
                               for i in range(config.blocks_per_group)] for g in range(n)]
        self.text_groups = [[TransformerBlock(c, config.heads, rng, f"text.g{g}.b{i}")
                             for i in range(config.blocks_per_group)] for g in range(n)]

        self.vision_adapters = [
            ConvLoraAdapter(c, config.rank, config.branch_kernels, rng, name=f"vision.g{g}.adapter")
            if config.conv_lora_on else
            LowRankAdapter(c, config.rank, rng, name=f"vision.g{g}.adapter") for g in range(n)]
        self.text_loras = [LowRankAdapter(c, config.rank, rng, name=f"text.g{g}.lora")
                           for g in range(n)]
        self.gateway = FusionGateway(c, n, config.resolved_gate_hidden(),
                                     config.temperature, dynamic=config.dfg_on, rng=rng)

        # both prompts through the group-0 text blocks: one (S, L, C) tensor,
        # row s for state index s. No trainable tensor feeds it, so it records
        # no graph. The prompts have one length L.
        ids = np.array([[VOCAB.index(w) for w in PROMPTS[state]] for state in STATES])
        x = Tensor(self.tok_embed.data[ids] + self.txt_pos.data[:ids.shape[1]])
        self.text_prefix = _blocks(x, self.text_groups[0])

    # ------------------------------------------------------------------
    # vision path

    def patchify(self, images):
        """(B, H, W) pixels -> (B, 1 + P, C) tokens with class token first."""
        images = np.asarray(images, dtype=np.float64)
        if images.ndim != 3:
            raise ShapeError(f"expected (B, H, W) images, got {images.shape}")
        b, hpx, wpx = images.shape
        p = self.config.patch_size
        if hpx % p or wpx % p:
            raise ShapeError(f"image {hpx}x{wpx} not divisible by patch size {p}")
        gh, gw = hpx // p, wpx // p
        patches = images.reshape(b, gh, p, gw, p).transpose(0, 1, 3, 2, 4).reshape(b, gh * gw, p * p)
        seq = np.empty((b, 1 + gh * gw, self.config.channels))
        seq[:, 0] = self.cls_token.data
        seq[:, 1:] = patches @ self.patch_w.data
        seq += self.vis_pos.data
        return Tensor(seq)

    def vision_prefix(self, images):
        """Patchify, then the group-0 blocks: the (B, 1 + P, C) tokens that
        enter the first adapter. Row i depends on image i alone."""
        return _blocks(self.patchify(images), self.vision_groups[0])

    def vision_forward(self, prefix):
        """Run the vision groups from the prefix; after each group its adapter
        updates the patch tokens and passes the class token through.

        Returns (V_list, v_cls_final): V_list[i] is the post-adapter patch
        token tensor of group i, v_cls_final the final class token.
        """
        v_list = []
        for x in _groups(prefix, self.vision_groups, self.vision_adapters, self.grid):
            v_list.append(x[:, 1:, :])
        return v_list, x[:, 0, :]

    # ------------------------------------------------------------------
    # text path

    def text_forward(self):
        """Pooled text features of every group and state, from the text
        prefix; each group's blocks and residual run once on both states.

        Returns one (N, S, C) tensor: row [g, s] is the last token of state
        index s after group g. The final group's (S, C) (normal, abnormal)
        pair, t_feats[-1], is the unfused anchor used for classification.
        """
        return tt.stack([x[:, -1, :] for x in
                         _groups(self.text_prefix, self.text_groups, self.text_loras, None)])

    # ------------------------------------------------------------------

    def forward(self, vision_prefix, text):
        """Both heads from the vision prefix and the (N, S, C) `text_forward`
        features: the gateway's `AnomalyMap`, and the (B, S) `state_probs` of
        the final class token against the final group's pair, text[-1]."""
        v_list, v_cls = self.vision_forward(vision_prefix)
        amap = self.gateway.forward(v_list, text, self.grid,
                                    (self.config.image_size, self.config.image_size))
        return amap, state_probs(v_cls, text[-1], self.config.temperature)

    def named_params(self):
        """Every parameter by name: the embeddings, then each module's `params`."""
        blocks = [b for groups in (self.vision_groups, self.text_groups) for g in groups for b in g]
        modules = blocks + self.vision_adapters + self.text_loras + [self.gateway]
        return {t.name: t for t in (self.patch_w, self.cls_token, self.vis_pos, self.tok_embed,
                                    self.txt_pos, *(t for m in modules for t in m.params))}

    def trainable_params(self):
        return {k: v for k, v in self.named_params().items() if v.requires_grad}

    def trainable_count(self):
        return sum(v.data.size for v in self.trainable_params().values())


# the RunConfig fields that build_model reads
MODEL_KEYS = ("n_groups", "blocks_per_group", "channels", "heads", "patch_size", "image_size",
              "rank", "branch_kernels", "temperature", "gate_hidden", "conv_lora_on", "dfg_on",
              "model_seed")


def build_model(config: RunConfig) -> GroupedModel:
    """Deterministic model construction; same model_seed gives identical params.

    `config` is trusted: `RunConfig.validate` runs where a config enters
    from outside (the CLI and `load_checkpoint`)."""
    return GroupedModel(config, np.random.default_rng(config.model_seed))
