import numpy as np
import pytest

from anofuse.config import RunConfig
from anofuse.data import batch_arrays, gen_synthetic, get_corpora
from anofuse.errors import TrainingError
from anofuse.gateway import state_probs
from anofuse.losses import image_score
from anofuse.model import build_model
from anofuse.tensor import Tensor, no_grad
from anofuse.train import (BETA1, BETA2, EPS, EVAL_BATCH, Adam, _batch_indices, predict, train,
                           vision_prefixes)
from anofuse.verify import randomize_trainables


def live_model():
    cfg = RunConfig(n_groups=2, channels=16, heads=2, rank=2, gate_hidden=4, patch_size=8,
                    image_size=16, defect_min=3, defect_max=8, batch_size=8)
    model = build_model(cfg)
    randomize_trainables(model, 7)
    return model, gen_synthetic(cfg, 3, n=40)


# chunks of 8 divide the 40 samples; 7 leaves a ragged last chunk of 5, and
# 64 is one chunk larger than the split
@pytest.mark.parametrize("b, size", [(1, 8), (7, 8), (32, 8), (1, 7), (32, 7), (7, 64), (32, 64)],
                         ids=["1", "7", "32", "1-chunk7", "32-chunk7", "7-chunk64", "32-chunk64"])
def test_gathered_prefix_rows_equal_forward(b, size):
    model, samples = live_model()
    rows = [row.copy() for prefix in vision_prefixes(model, samples, size) for row in prefix.data]
    assert len(rows) == len(samples)
    idx = np.random.default_rng(b).permutation(len(samples))[:b]
    images, _, _ = batch_arrays([samples[i] for i in idx])
    text = model.text_forward(model.text_prefix())
    prefix, gathered = model.vision_prefix(images), Tensor(np.stack([rows[i] for i in idx]))
    want_map, want_probs = model.forward(prefix, text)
    got_map, got_probs = model.forward(gathered, text)
    assert np.array_equal(got_map.upsampled.data, want_map.upsampled.data)
    assert np.array_equal(got_probs.data, want_probs.data)
    want_v, want_cls = model.vision_forward(prefix)
    got_v, got_cls = model.vision_forward(gathered)
    assert np.array_equal(got_cls.data, want_cls.data)
    for g, v in enumerate(want_v):
        assert np.array_equal(got_v[g].data, v.data)


def test_predict_equals_forward_batch_by_batch():
    model, samples = live_model()
    maps, scores, weights = predict(model, samples)
    with no_grad():
        text = model.text_forward(model.text_prefix())
        for start in range(0, len(samples), EVAL_BATCH):
            images, _, _ = batch_arrays(samples[start:start + EVAL_BATCH])
            prefix = model.vision_prefix(images)
            amap, probs = model.forward(prefix, text)
            end = start + len(images)
            up = amap.upsampled.data
            # the image head, recomputed from the class token and the anchor
            v_cls = model.vision_forward(prefix)[1]
            p_abn = state_probs(v_cls, text[-1], model.config.temperature).data[:, 1]
            assert np.array_equal(probs.data[:, 1], p_abn)
            assert np.array_equal(maps[start:end], up)
            assert np.array_equal(scores[start:end], image_score(p_abn, up))
            assert np.array_equal(weights[:, :, start:end], amap.fusion_weights)


def test_diverging_run_keeps_trace_and_names_its_step():
    cfg = RunConfig(n_groups=2, channels=8, heads=2, rank=2, gate_hidden=2,
                    branch_kernels=(3,), patch_size=8, image_size=16, defect_min=3,
                    defect_max=8, steps=20, batch_size=2, n_train=6, n_test=4)
    train_s, test_s = get_corpora(cfg)
    # poison a sample that the first batch does not draw, so one step succeeds
    first = next(_batch_indices(len(train_s), cfg.batch_size,
                                np.random.default_rng(cfg.data_seed + 10_000)))
    poisoned = min(set(range(len(train_s))) - set(first.tolist()))
    train_s[poisoned].image[3, 5] = np.nan
    with pytest.raises(TrainingError) as err:
        train(cfg, corpora=(train_s, test_s))
    assert err.value.trace
    assert str(err.value) == f"step {len(err.value.trace)}: non-finite loss nan"


def per_name_adam(params, lr, grads_per_step):
    """The reference: bias-corrected Adam stepped tensor by tensor, in
    sorted-name order, on copies of `params`' data."""
    data = {k: t.data.copy() for k, t in params.items()}
    m = {k: np.zeros_like(a) for k, a in data.items()}
    v = {k: np.zeros_like(a) for k, a in data.items()}
    for t, grads in enumerate(grads_per_step, 1):
        b1t = 1.0 - BETA1 ** t
        b2t = 1.0 - BETA2 ** t
        for name in sorted(data):
            g = grads[name]
            m[name] *= BETA1
            m[name] += (1.0 - BETA1) * g
            v[name] *= BETA2
            v[name] += (1.0 - BETA2) * (g * g)
            data[name] -= lr * (m[name] / b1t) / (np.sqrt(v[name] / b2t) + EPS)
    return data


def test_flat_adam_equals_per_name_adam_and_views_its_buffer():
    model = build_model(RunConfig())
    randomize_trainables(model, 3)
    params = model.trainable_params()
    rng = np.random.default_rng(4)
    grads_per_step = [{k: rng.normal(0.0, 10.0 ** rng.integers(-6, 2), t.data.shape)
                       for k, t in params.items()} for _ in range(5)]
    want = per_name_adam(params, 1e-2, grads_per_step)
    opt = Adam(params, 1e-2)
    for grads in grads_per_step:
        opt.step(grads)
    assert opt.flat.size == model.trainable_count()
    for name, t in params.items():
        assert np.shares_memory(t.data, opt.flat)
        assert np.array_equal(t.data, want[name]), name


def test_flat_adam_copies_read_only_parameters():
    source = np.arange(6, dtype="<f8").tobytes()
    params = {"a": Tensor(np.frombuffer(source, dtype="<f8").reshape(2, 3), trainable=True),
              "b": Tensor(np.ones(4), trainable=True)}
    grads = {"a": np.ones((2, 3)), "b": np.ones(4)}
    want = per_name_adam(params, 0.1, [grads])
    opt = Adam(params, 0.1)
    opt.step(grads)
    assert source == np.arange(6, dtype="<f8").tobytes()
    for name, t in params.items():
        assert np.array_equal(t.data, want[name]), name
