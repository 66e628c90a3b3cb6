import hashlib

import numpy as np
import pytest

from anofuse.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from anofuse.config import RunConfig
from anofuse.errors import DatasetError
from anofuse.model import build_model


def tiny_config():
    return RunConfig(n_groups=2, channels=8, heads=2, rank=2, gate_hidden=2,
                     branch_kernels=(3,), patch_size=8, image_size=16,
                     defect_min=3, defect_max=8)


@pytest.fixture
def saved(tmp_path):
    model = build_model(tiny_config())
    rng = np.random.default_rng(0)
    for p in model.trainable_params().values():
        p.data[:] = rng.normal(size=p.data.shape)
    path = tmp_path / "a.ckpt"
    save_checkpoint(model, path, step=7)
    return model, path


def test_save_load_save_is_byte_identical(saved, tmp_path):
    model, path = saved
    loaded, step = load_checkpoint(path)
    assert step == 7
    assert loaded.config == model.config
    for name, p in model.named_params().items():
        np.testing.assert_array_equal(loaded.named_params()[name].data, p.data)
    save_checkpoint(loaded, tmp_path / "b.ckpt", step=step)
    assert (tmp_path / "b.ckpt").read_bytes() == path.read_bytes()


def test_only_trainable_tensors_are_stored(saved):
    model, path = saved
    blob = path.read_bytes()
    assert blob.startswith(b"anofuse-ckpt v2\nstep 7\nconfig ")
    for name, p in model.named_params().items():
        stored = (f"{name} ".encode() if p.requires_grad else name.encode()) in blob
        assert stored == p.requires_grad, name
    trainable_bytes = 8 * sum(p.data.size for p in model.trainable_params().values())
    assert len(blob) < trainable_bytes + 2048


def test_edited_frozen_weight_rejected_naming_the_file(tmp_path):
    model = build_model(tiny_config())
    model.named_params()["vision.g1.b0.wq"].data[0, 0] += 1e-12
    path = tmp_path / "edited.ckpt"
    save_checkpoint(model, path)
    with pytest.raises(DatasetError, match="frozen weights differ") as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)


def test_bytes_after_the_last_parameter_rejected(saved):
    _, path = saved
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(DatasetError, match="1 bytes after the last parameter") as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)


def test_bad_magic_rejected(saved):
    _, path = saved
    path.write_bytes(b"not-a-checkpoint\n" + path.read_bytes()[len(MAGIC):])
    with pytest.raises(DatasetError, match="bad magic"):
        load_checkpoint(path)


@pytest.mark.parametrize("keep", [0.001, 0.01, 0.5, 0.999])
def test_truncation_rejected(saved, keep):
    _, path = saved
    blob = path.read_bytes()
    path.write_bytes(blob[:int(len(blob) * keep)])
    with pytest.raises(DatasetError, match="truncated"):
        load_checkpoint(path)


@pytest.mark.parametrize("keep", [0, len(MAGIC) - 1])
def test_prefix_of_magic_is_truncated(saved, keep):
    _, path = saved
    path.write_bytes(MAGIC[:keep])
    with pytest.raises(DatasetError, match="truncated"):
        load_checkpoint(path)


def test_shape_mismatch_rejected(saved):
    _, path = saved
    blob = path.read_bytes()
    header = b"text.g0.lora.w_up 2,8\n"
    assert header in blob
    path.write_bytes(blob.replace(header, b"text.g0.lora.w_up 8,2\n"))
    with pytest.raises(DatasetError, match="mismatch"):
        load_checkpoint(path)


@pytest.mark.parametrize("good,bad", [
    (b"step 7\n", b"step x\n"),
    (b"step 7\n", b"step \xff\n"),
    (b"step 7\n", "step \u00b2\n".encode()),  # a superscript two: a digit, not ASCII
    (b"\nconfig ", b"\nconfig\n"),
    (b"\nconfig 32\n", "\nconfig \u0663\n".encode()),  # int() reads the Arabic-Indic 3 as 3
    pytest.param(b"text.g0.lora.w_up 2,8\n", b"text.g0.lora.w_up2,8\n", id="param_header"),
    # shape fields that int() reads as 2 and 8, or that were skipped as empty
    pytest.param(b"w_up 2,8\n", b"w_up 2,,8\n", id="shape_empty_field"),
    pytest.param(b"w_up 2,8\n", b"w_up 2,8,\n", id="shape_trailing_comma"),
    pytest.param(b"w_up 2,8\n", "w_up \u0662,8\n".encode(), id="shape_arabic_indic_digit"),
    pytest.param(b"w_up 2,8\n", b"w_up +2,0_8\n", id="shape_sign_and_underscore"),
    (b"\nfrozen ", b"\nfrozen\n"),
])
def test_corrupt_header_rejected_naming_the_file(saved, good, bad):
    _, path = saved
    blob = path.read_bytes()
    assert good in blob
    path.write_bytes(blob.replace(good, bad, 1))
    with pytest.raises(DatasetError, match="corrupt") as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)
    assert bad.strip().decode(errors="replace") in str(err.value)  # the header that is wrong


@pytest.mark.parametrize("good,bad,message", [
    (b"\nparams 18\n", b"\nparams 19\n", "checkpoint has 19 params, model wants 18"),
    (b"text.g0.lora.w_up 2,8\n", b"text.g0.lora.w_uq 2,8\n",
     "unknown parameter 'text.g0.lora.w_uq' in checkpoint"),
    # the same shape, so only the repeat tells the entries apart
    (b"text.g1.lora.w_down 8,2\n", b"text.g0.lora.w_down 8,2\n",
     "repeated parameter 'text.g0.lora.w_down' in checkpoint"),
], ids=["param_count", "unknown_param", "repeated_param"])
def test_parameters_other_than_the_models_rejected_naming_the_file(saved, good, bad, message):
    _, path = saved
    blob = path.read_bytes()
    assert good in blob
    path.write_bytes(blob.replace(good, bad, 1))
    with pytest.raises(DatasetError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"{path}: {message}"


# the default model's checkpoint at init: the adapter layout and these bytes
# must not move, or checkpoints written by earlier versions stop loading
DEFAULT_INIT_BYTES = 386102
DEFAULT_INIT_SHA256 = "e04e9c2ca3e0cc03047da209ef4198f6d859a6d850cf889a6023ef6316c061b8"


def test_default_checkpoint_layout_is_pinned(tmp_path):
    model = build_model(RunConfig())
    shapes = {"conv_down_3": (8, 8, 3, 3), "conv_up_3": (8, 8, 3, 3),
              "conv_down_5": (8, 8, 5, 5), "conv_up_5": (8, 8, 5, 5),
              "fuse_1x1": (64, 128, 1, 1), "w_down": (64, 8), "w_up": (8, 64)}
    assert {name: p.data.shape for name, p in model.trainable_params().items()
            if name.startswith("vision.")} == {
        f"vision.g{g}.adapter.{key}": shape for g in range(3) for key, shape in shapes.items()}
    path = tmp_path / "default.ckpt"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    assert (len(blob), hashlib.sha256(blob).hexdigest()) == (DEFAULT_INIT_BYTES,
                                                              DEFAULT_INIT_SHA256)
    loaded, step = load_checkpoint(path)
    assert step == 0
    for name, p in model.trainable_params().items():
        np.testing.assert_array_equal(loaded.trainable_params()[name].data, p.data)
