import math
import re
from dataclasses import fields

import pytest

from anofuse.cli import main
from anofuse.config import VALID_KEYS, RunConfig, apply_overrides, parse_config_text
from anofuse.errors import ConfigurationError


def test_comments_blank_lines_and_types(tmp_path, capsys):
    cfg = parse_config_text("# a run\n\nn_groups = 2   # two groups\n"
                            "temperature=0.5\ntexture = noise\n")
    assert (cfg.n_groups, cfg.temperature, cfg.texture) == (2, 0.5, "noise")
    # a --config file, then the command-line overrides on top
    path = tmp_path / "run.cfg"
    path.write_text("image_size = 16\ndefect_max = 8\nn_train = 5\nn_test = 2\n")
    assert main(["gen", "--config", str(path), "--out", str(tmp_path / "data"),
                 "--n_test", "3"]) == 0
    assert "wrote 5 train / 3 test" in capsys.readouterr().out


def test_echo_lines_round_trip():
    cfg = RunConfig(branch_kernels=(1, 7), dfg_on=False, lr=3e-4)
    assert parse_config_text("\n".join(cfg.echo_lines())) == cfg


def test_every_field_survives_echo_round_trip():
    cfg = RunConfig(
        n_groups=2, blocks_per_group=2, channels=48, heads=3, patch_size=4, image_size=24,
        rank=5, branch_kernels=(1, 7), temperature=0.125, gate_hidden=6, lambda_focal=0.5,
        lambda_dice=1.5, lambda_cls=2.5, focal_gamma=1.25, focal_alpha=0.3, dice_smooth=0.75,
        conv_lora_on=False, dfg_on=False, lr=3e-4, steps=7, batch_size=5, model_seed=11,
        data_seed=13, data_dir="D#1", n_train=17, n_test=19, anomaly_rate=0.4, defect_min=3,
        defect_max=9, delta_min=2.5, delta_max=5.0, texture="sinusoid").validate()
    default = RunConfig()
    assert all(getattr(cfg, f.name) != getattr(default, f.name) for f in fields(RunConfig))
    back = parse_config_text("\n".join(cfg.echo_lines()))
    for f in fields(RunConfig):
        assert getattr(back, f.name) == getattr(cfg, f.name), f.name


def test_unknown_key_lists_valid_keys():
    with pytest.raises(ConfigurationError) as err:
        parse_config_text("n_group = 2")
    msg = str(err.value)
    assert "'n_group'" in msg
    assert all(key in msg for key in VALID_KEYS)


def test_line_without_equals_rejected():
    with pytest.raises(ConfigurationError, match="line 2"):
        parse_config_text("steps = 3\nsteps 4")


def test_repeated_key_rejected():
    with pytest.raises(ConfigurationError) as err:
        parse_config_text("lr = 1\n# lower\n lr=0.5")
    assert str(err.value) == "line 3: 'lr' set again"


@pytest.mark.parametrize("raw,want", [("1", True), ("True", True), ("yes", True), ("on", True),
                                      ("0", False), ("false", False), ("No", False),
                                      ("off", False)])
def test_booleans(raw, want):
    assert apply_overrides(RunConfig(), {"dfg_on": raw}).dfg_on is want


def test_bad_boolean_rejected():
    with pytest.raises(ConfigurationError, match="boolean dfg_on"):
        apply_overrides(RunConfig(), {"dfg_on": "maybe"})


@pytest.mark.parametrize("raw,want", [("3,5,7", (3, 5, 7)), ("(3, 5)", (3, 5)), ("1", (1,))])
def test_branch_kernels(raw, want):
    assert parse_config_text(f"branch_kernels = {raw}").branch_kernels == want


def test_bad_branch_kernels_rejected():
    with pytest.raises(ConfigurationError, match="branch_kernels"):
        parse_config_text("branch_kernels = 3,x")
    with pytest.raises(ConfigurationError, match="branch kernel 4"):
        parse_config_text("branch_kernels = 3,4").validate()


@pytest.mark.parametrize("text", ["steps = \u0663", "n_train = 1_0", "n_test = \uff11\uff12",
                                  "lr = \u0661e-3", "lr = 1_0.5", "branch_kernels = 3,\u0665",
                                  "branch_kernels = 1_1"])
def test_numerals_other_than_plain_ascii_rejected(text):
    key, raw = text.split(" = ")
    with pytest.raises(ConfigurationError) as err:
        parse_config_text(text)
    assert str(err.value).endswith(f"{key} from {raw!r}")


def test_ascii_numerals_reach_validate():
    cfg = parse_config_text("model_seed = -1\nlr = 1e-3\ndice_smooth = nan")
    assert (cfg.model_seed, cfg.lr) == (-1, 1e-3)
    with pytest.raises(ConfigurationError) as err:
        cfg.validate()
    assert "model_seed=-1 (need >= 0)" in str(err.value)
    assert "dice_smooth=nan (need finite)" in str(err.value)


def test_loss_settings_validated_with_the_run():
    with pytest.raises(ConfigurationError) as err:
        RunConfig(focal_alpha=1.5, focal_gamma=-1.0, dice_smooth=0.0).validate()
    msg = str(err.value)
    assert "focal_alpha" in msg and "focal_gamma" in msg and "dice_smooth" in msg
    with pytest.raises(ConfigurationError, match="at least one lambda"):
        RunConfig(lambda_focal=0.0, lambda_dice=0.0, lambda_cls=0.0).validate()
    with pytest.raises(ConfigurationError, match=">= 0"):
        RunConfig(lambda_cls=-1.0).validate()


@pytest.mark.parametrize("override,message", [
    ({"rank": 64}, "rank=64"),
    ({"temperature": 0.0}, "temperature=0.0"),
    ({"branch_kernels": ()}, "branch_kernels is empty"),
    ({"branch_kernels": (3, 4)}, "branch kernel 4"),
    # a repeated size would share one conv pair between two branches
    ({"branch_kernels": (3, 5, 3)}, re.escape("branch_kernels=(3, 5, 3) repeats a size")),
], ids=["rank_equals_channels", "zero_temperature", "no_kernels", "even_kernel",
        "repeated_kernel"])
def test_adapter_and_gateway_settings_validated(override, message):
    with pytest.raises(ConfigurationError, match=message):
        RunConfig(**override).validate()


@pytest.mark.parametrize("key", ["model_seed", "data_seed"])
def test_negative_seed_rejected(key):
    # numpy's generators take non-negative seeds only
    with pytest.raises(ConfigurationError, match=re.escape(f"{key}=-1 (need >= 0)")):
        RunConfig(**{key: -1}).validate()
    RunConfig(**{key: 0}).validate()


SMALL_IMAGES = {"image_size": 4, "patch_size": 4, "defect_min": 1, "defect_max": 4}


@pytest.mark.parametrize("override,message", [
    ({"heads": 0}, "heads=0 (need >= 1)"),
    ({"heads": -1}, "heads=-1 (need >= 1)"),
    ({"patch_size": 0}, "patch_size=0 (need >= 1)"),
    ({"patch_size": -8}, "patch_size=-8 (need >= 1)"),
    ({"defect_max": 40}, "defect_max=40 exceeds image_size=32"),
    ({**SMALL_IMAGES, "texture": "noise"}, "image_size=4 smaller than the noise texture's 8x8"),
    (SMALL_IMAGES, "image_size=4 smaller than the noise texture's 8x8 field"),
    # a config file or a checkpoint's echo would read these back cut at the '#'
    ({"data_dir": "D #1"}, "data_dir='D #1' (a '#' at its start or after whitespace"),
    ({"data_dir": "#D"}, "data_dir='#D'"),
    ({"data_dir": "D\t#1"}, "data_dir='D\\t#1'"),
    # ... and these back stripped
    ({"data_dir": "D "}, "data_dir='D ' (whitespace at either end would read back stripped)"),
    ({"data_dir": "\tD"}, "data_dir='\\tD' (whitespace at either end"),
    ({"n_groups": 0}, "n_groups=0 (need >= 1)"),
    ({"blocks_per_group": 0}, "blocks_per_group=0 (need >= 1)"),
    ({"channels": 30}, "channels=30 not divisible by heads=4"),
    ({"image_size": 30}, "image_size=30 not divisible by patch_size=8"),
    ({"gate_hidden": -1}, "gate_hidden=-1 (need >= 0)"),
    ({"steps": -1}, "steps=-1 (need >= 0)"),
    ({"batch_size": 0}, "batch_size=0 (need >= 1)"),
    ({"defect_min": 9, "defect_max": 8}, "defect size range [9, 8]"),
    ({"n_test": 0}, "n_train=200, n_test=0 (need >= 1)"),
    ({"texture": "wood"}, "texture='wood' (noise|sinusoid|mixed)"),
], ids=["zero_heads", "negative_heads", "zero_patch", "negative_patch", "oversized_defect",
        "small_noise_images", "small_mixed_images", "hash_after_space", "hash_first",
        "hash_after_tab", "trailing_space", "leading_tab", "zero_groups", "zero_blocks",
        "channels_per_head", "image_per_patch", "negative_gate_hidden", "negative_steps",
        "zero_batch", "defect_range", "zero_test_images", "unknown_texture"])
def test_shape_and_data_settings_validated(override, message):
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        RunConfig(**override).validate()


def test_sinusoid_texture_allows_images_below_the_noise_field():
    RunConfig(**SMALL_IMAGES, texture="sinusoid").validate()


FLOAT_FIELDS = [f.name for f in fields(RunConfig) if isinstance(f.default, float)]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("key", FLOAT_FIELDS)
def test_non_finite_float_rejected(key, value):
    with pytest.raises(ConfigurationError, match=f"{key}={value} \\(need finite\\)"):
        RunConfig(**{key: value}).validate()


def test_every_non_finite_float_is_named():
    assert len(FLOAT_FIELDS) == 11
    with pytest.raises(ConfigurationError) as err:
        RunConfig(**{key: math.nan for key in FLOAT_FIELDS}).validate()
    assert all(f"{key}=nan" in str(err.value) for key in FLOAT_FIELDS)
