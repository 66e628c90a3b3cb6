import hashlib
import inspect
import re
import shutil
import warnings

import numpy as np
import pytest

from anofuse import errors
from anofuse.cli import main
from anofuse.data import read_pgm
from test_golden import TINY

# ablation.csv of TINY at --steps 2, on the numpy/BLAS build of test_golden's pins
ABLATION_SHA256 = "09731b1c7cc1e8584bdb9d8c9fae3770f95a075d40a53e8dbe07266c7c78ba2e"


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    assert main(["train", "--out", str(out)] + TINY) == 0
    return out


def test_gen_writes_dataset(tmp_path, capsys):
    assert main(["gen", "--out", str(tmp_path)] + TINY) == 0
    assert len(list((tmp_path / "train").rglob("*.pgm"))) == 8
    assert len(list((tmp_path / "test").rglob("*.pgm"))) == 12
    assert "8 train / 12 test" in capsys.readouterr().out


def test_eval_of_checkpoint_reproduces_training_metrics(run_dir, tmp_path, capsys):
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(run_dir / "checkpoint.bin"),
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "metrics.csv").read_text() == (run_dir / "metrics.csv").read_text()
    assert capsys.readouterr().out == (run_dir / "metrics.csv").read_text()


def test_eval_out_echoes_the_config_it_scored(run_dir, tmp_path):
    ckpt = str(run_dir / "checkpoint.bin")
    assert main(["eval", "--checkpoint", ckpt, "--out", str(tmp_path / "same")]) == 0
    assert (tmp_path / "same" / "config.txt").read_bytes() == (run_dir / "config.txt").read_bytes()
    assert main(["eval", "--checkpoint", ckpt, "--out", str(tmp_path / "other"), "--texture",
                 "sinusoid", "--delta_min", "1", "--delta_max", "1.5"]) == 0
    echo = (tmp_path / "other" / "config.txt").read_text().splitlines()
    assert {"texture = sinusoid", "delta_min = 1.0", "delta_max = 1.5"} <= set(echo)


def test_export_maps_writes_one_map_per_test_image(run_dir, tmp_path):
    assert main(["export-maps", "--checkpoint", str(run_dir / "checkpoint.bin"),
                 "--out", str(tmp_path)]) == 0
    index = (tmp_path / "index.txt").read_text().splitlines()
    assert len(index) == 12
    assert all((tmp_path / f"{line.split()[0]}.pgm").exists() for line in index)


def test_ablate_writes_four_rows(tmp_path):
    assert main(["ablate", "--out", str(tmp_path)] + TINY + ["--steps", "2"]) == 0
    lines = (tmp_path / "ablation.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["baseline", "conv_lora", "dfg", "full"]
    assert hashlib.sha256((tmp_path / "ablation.csv").read_bytes()).hexdigest() == ABLATION_SHA256


def test_ablate_and_export_maps_echo_the_config_they_ran_with(run_dir, tmp_path):
    assert main(["ablate", "--out", str(tmp_path / "ablate")] + TINY + ["--steps", "2"]) == 0
    assert "steps = 2" in (tmp_path / "ablate" / "config.txt").read_text().splitlines()
    assert main(["export-maps", "--checkpoint", str(run_dir / "checkpoint.bin"),
                 "--out", str(tmp_path / "maps"), "--texture", "sinusoid"]) == 0
    assert "texture = sinusoid" in (tmp_path / "maps" / "config.txt").read_text().splitlines()


def test_one_patch_grid_exports_maps_constant_within_each_image(tmp_path):
    # image_size = patch_size: a 1x1 token grid, upsampled from a single value
    one_patch = ["--image_size", "4", "--patch_size", "4", "--defect_min", "1",
                 "--defect_max", "4", "--texture", "sinusoid"]
    assert main(["train", "--out", str(tmp_path / "run")] + TINY + one_patch) == 0
    assert main(["export-maps", "--checkpoint", str(tmp_path / "run" / "checkpoint.bin"),
                 "--out", str(tmp_path / "maps")]) == 0
    index = (tmp_path / "maps" / "index.txt").read_text().splitlines()
    assert len(index) == 12
    for line in index:
        amap, _ = read_pgm(tmp_path / "maps" / f"{line.split()[0]}.pgm")
        assert amap.shape == (4, 4) and (amap == amap[0, 0]).all()


def test_eval_on_images_of_another_size_is_one_error_line(run_dir, tmp_path, capsys):
    big = ["--image_size", "32"]
    assert main(["gen", "--out", str(tmp_path / "data")] + TINY + big) == 0
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(run_dir / "checkpoint.bin"),
                 "--data_dir", str(tmp_path / "data")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {tmp_path / 'data' / 'test'}")
    assert ".pgm is 32x32 pixels, config image_size is 16" in err[0]


def test_eval_and_export_maps_read_only_the_test_split(run_dir, tmp_path):
    # a zero-shot test set has no training split of its own
    data = tmp_path / "data"
    assert main(["gen", "--out", str(data)] + TINY) == 0
    args = ["--checkpoint", str(run_dir / "checkpoint.bin"), "--data_dir", str(data)]
    outputs = {}
    for case in ("full", "test_only"):
        if case == "test_only":
            shutil.rmtree(data / "train")
        out = tmp_path / case
        assert main(["eval", "--out", str(out / "eval")] + args) == 0
        assert main(["export-maps", "--out", str(out / "maps")] + args) == 0
        outputs[case] = {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*")
                         if p.is_file()}
    assert outputs["test_only"] == outputs["full"]
    # metrics.csv and config.txt; index.txt, config.txt and the 12 maps
    assert {"eval/metrics.csv", "maps/index.txt"} <= set(outputs["full"])
    assert len(outputs["full"]) == 16


@pytest.mark.parametrize("split", ["train", "test"])
def test_data_dir_split_without_images_is_one_error_line(tmp_path, split, capsys):
    data = tmp_path / "data"
    assert main(["gen", "--out", str(data)] + TINY) == 0
    for path in (data / split).rglob("*.pgm"):
        path.unlink()
    capsys.readouterr()
    assert main(["train", "--out", str(tmp_path / "run"), "--data_dir", str(data)] + TINY) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {data / split} holds no images"]


def test_sample_id_in_good_and_defect_is_one_error_line(run_dir, tmp_path, capsys):
    # MVTec numbers each folder from 000: good/000.pgm and defect/000.pgm
    data = tmp_path / "data"
    assert main(["gen", "--out", str(data)] + TINY) == 0
    good = sorted((data / "test" / "good").glob("*.pgm"))[0]
    (data / "test" / "defect" / good.name).write_bytes(good.read_bytes())
    capsys.readouterr()
    assert main(["export-maps", "--checkpoint", str(run_dir / "checkpoint.bin"),
                 "--out", str(tmp_path / "maps"), "--data_dir", str(data)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {data / 'test'}: {good.name} is in both good/ and defect/"]
    assert not (tmp_path / "maps").exists()


def test_config_file_that_is_not_utf8_is_one_error_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"steps = 3\n\xff\xfe = 1\n")
    assert main(["train", "--out", str(tmp_path / "run"), "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: unknown config key '\ufffd\ufffd'")


def test_config_file_that_sets_a_key_twice_is_one_error_line(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("lr = 1\nsteps = 2\nlr = 0.5\n")
    assert main(["train", "--out", str(tmp_path / "run"), "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: line 3: 'lr' set again"]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("override", [["--lr", "nan"], ["--lr", "inf"], ["--temperature", "nan"],
                                      ["--dice_smooth", "nan"], ["--lambda_cls", "inf"],
                                      ["--focal_gamma", "inf"]],
                         ids=lambda o: f"{o[0][2:]}={o[1]}")
def test_non_finite_setting_is_one_error_line(tmp_path, override, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["train", "--out", str(tmp_path)] + TINY + override) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: invalid config: ")
    assert f"{override[0][2:]}={override[1]} (need finite)" in err[0]


def test_run_that_trains_nothing_is_one_error_line(tmp_path, capsys):
    # at this temperature every trainable gradient of the first step is
    # exactly zero
    assert main(["train", "--out", str(tmp_path)] + TINY + ["--temperature", "1e-300"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: step 0: every trainable gradient is exactly zero"]


def test_overflow_in_a_step_is_one_error_line(tmp_path, capsys):
    # at the default shape this learning rate overflows a product within a
    # few steps; numpy would otherwise only warn and the run would exit 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["train", "--out", str(tmp_path), "--steps", "5", "--n_train", "8",
                     "--n_test", "4", "--batch_size", "4", "--lr", "1e9"]) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: step ")
    assert "numpy overflow" in err[0]


@pytest.mark.parametrize("override", [["--heads", "0"], ["--heads", "-1"],
                                      ["--patch_size", "0"], ["--patch_size", "-8"]],
                         ids=lambda o: f"{o[0][2:]}={o[1]}")
def test_non_positive_heads_or_patch_size_is_one_error_line(tmp_path, override, capsys):
    assert main(["train", "--out", str(tmp_path)] + TINY + override) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: invalid config: {override[0][2:]}={override[1]} (need >= 1)"]


@pytest.mark.parametrize("command,override,message", [
    ("train", ["--model_seed", "-1"], "model_seed=-1 (need >= 0)"),
    ("train", ["--data_seed", "-1"], "data_seed=-1 (need >= 0)"),
    ("gen", ["--data_seed", "-1"], "data_seed=-1 (need >= 0)"),
    ("ablate", ["--data_seed", "-1"], "data_seed=-1 (need >= 0)"),
    ("train", ["--branch_kernels", "3,3"], "branch_kernels=(3, 3) repeats a size"),
], ids=["train-model_seed", "train-data_seed", "gen-data_seed", "ablate-data_seed",
        "train-repeated_kernel"])
def test_negative_seed_or_repeated_kernel_is_one_error_line(tmp_path, command, override,
                                                            message, capsys):
    assert main([command, "--out", str(tmp_path)] + TINY + override) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: invalid config: {message}"]


def test_size_too_large_to_allocate_is_one_error_line(tmp_path, capsys):
    # (16, 10**15) float64 weights exceed any address space, so the
    # allocation fails at once without touching memory
    assert main(["train", "--out", str(tmp_path)] + TINY
                + ["--gate_hidden", "1000000000000000"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: Unable to allocate")


SMALL_IMAGES = ["--image_size", "4", "--patch_size", "4", "--defect_min", "1",
                "--defect_max", "4", "--n_train", "4", "--n_test", "4"]


def test_images_below_the_noise_texture_field_are_one_error_line(tmp_path, capsys):
    assert main(["gen", "--out", str(tmp_path / "noise")] + SMALL_IMAGES) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: invalid config: image_size=4 smaller "
                                               "than the noise texture's 8x8 field")
    assert main(["gen", "--out", str(tmp_path / "sinusoid"), "--texture", "sinusoid"]
                + SMALL_IMAGES) == 0


def test_checkpoint_of_other_frozen_weights_is_one_error_line(run_dir, tmp_path, capsys):
    blob = (run_dir / "checkpoint.bin").read_bytes()
    edited = re.sub(rb"\nfrozen [0-9a-f]{64}\n", b"\nfrozen " + b"0" * 64 + b"\n", blob)
    assert edited != blob
    path = tmp_path / "edited.bin"
    path.write_bytes(edited)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: frozen weights differ")


def test_checkpoint_step_in_non_ascii_digits_is_one_error_line(run_dir, tmp_path, capsys):
    blob = (run_dir / "checkpoint.bin").read_bytes()
    edited = re.sub(rb"\nstep [0-9]+\n", "\nstep \u00b2\n".encode(), blob, count=1)
    assert edited != blob
    path = tmp_path / "edited.bin"
    path.write_bytes(edited)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: corrupt checkpoint header")


def test_override_with_a_digit_separator_is_one_error_line(run_dir, capsys):
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(run_dir / "checkpoint.bin"), "--n_test", "1_2"]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: cannot parse integer n_test from '1_2'"]


def test_checkpoint_config_in_non_ascii_digits_is_one_error_line(run_dir, tmp_path, capsys):
    blob = (run_dir / "checkpoint.bin").read_bytes()
    edited = blob.replace(b"\nn_test = 12\n", "\nn_test = \u0661\u0662\n".encode(), 1)
    assert edited != blob
    path = tmp_path / "edited.bin"
    path.write_bytes(edited)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: cannot parse integer n_test from '\u0661\u0662'"]


def test_data_dir_with_hash_evaluates_from_its_checkpoint(tmp_path, capsys):
    data = tmp_path / "d#1"
    assert main(["gen", "--out", str(data)] + TINY) == 0
    assert main(["train", "--out", str(tmp_path / "run"), "--data_dir", str(data)] + TINY) == 0
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.bin")]) == 0
    assert capsys.readouterr().out == (tmp_path / "run" / "metrics.csv").read_text()


def test_data_dir_with_hash_after_a_space_is_one_error_line(tmp_path, capsys):
    assert main(["train", "--out", str(tmp_path), "--data_dir", "d #1"] + TINY) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: invalid config: data_dir='d #1'")
    assert not (tmp_path / "trace.csv").exists()


def test_data_dir_with_a_trailing_space_is_one_error_line(tmp_path, capsys):
    # a config file or a checkpoint's echo would read it back without the space
    assert main(["train", "--out", str(tmp_path), "--data_dir", "d "] + TINY) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: invalid config: data_dir='d ' (whitespace at either end would "
                   "read back stripped)"]
    assert not (tmp_path / "trace.csv").exists()


def test_unknown_key_is_one_error_line(tmp_path, capsys):
    assert main(["train", "--out", str(tmp_path), "--n_group", "2"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: unknown config key 'n_group'")


@pytest.mark.parametrize("command,override", [
    ("eval", ["--image_size", "32"]),
    ("eval", ["--channels", "32"]),
    ("eval", ["--temperature", "0.5"]),
    ("export-maps", ["--conv_lora_on", "0"]),
])
def test_model_override_on_a_checkpoint_is_one_error_line(run_dir, tmp_path, command,
                                                           override, capsys):
    capsys.readouterr()
    assert main([command, "--checkpoint", str(run_dir / "checkpoint.bin"),
                 "--out", str(tmp_path)] + override) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot override the checkpoint's model")
    assert override[0][2:] in err[0]


def test_data_override_on_a_checkpoint_is_applied(run_dir, capsys):
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(run_dir / "checkpoint.bin"), "--n_test", "5",
                 "--temperature", "0.07"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split(",")[4] == "5"


@pytest.mark.parametrize("argv", [
    ["eval", "--checkpoint", "CKPT", "--config", "CFG"],
    ["eval", "--checkpoint", "CKPT", "--config", "/nonexistent.cfg"],
    ["export-maps", "--checkpoint", "CKPT", "--out", "OUT", "--config", "CFG"],
    ["selftest", "--config", "CFG"],
    ["selftest", "--bogus", "1"],
    ["eval", "--checkpoint", "CKPT", "--n_test"],
    ["eval", "--checkpoint", "CKPT", "n_test", "3"],
])
def test_config_file_or_stray_argument_where_none_is_read_is_one_error_line(
        run_dir, tmp_path, argv, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n_test = 3\n")
    subst = {"CKPT": str(run_dir / "checkpoint.bin"), "CFG": str(cfg), "OUT": str(tmp_path)}
    capsys.readouterr()
    assert main([subst.get(a, a) for a in argv]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out.splitlines()
    # the names of the checks, without the measured detail of the last one
    assert [line.split(" (1968 entries,")[0] for line in out] == [
        "[ok] softmax normalization and shift invariance",
        "[ok] row convolution vs nested-loop reference (3x5 grid)",
        "[ok] auroc/ap equal brute-force oracles (200 tied instances)",
        "[ok] focal(gamma=0, alpha=1/2) reduces to BCE/2",
        "[ok] segmentation loss additivity",
        "[ok] small-model gradient suite vs finite differences",
        "selftest PASSED",
    ]


def test_every_package_error_derives_from_the_one_main_reports():
    # `main` catches AnofuseError, so a new error class outside it would
    # escape as a traceback
    classes = [c for _, c in inspect.getmembers(errors, inspect.isclass)
               if issubclass(c, BaseException) and c.__module__ == errors.__name__]
    assert errors.TrainingError in classes
    assert all(issubclass(c, errors.AnofuseError) for c in classes)


def _byte_edits(blob, n, seed):
    """n copies of blob with one seeded edit each: a byte set, deleted or
    inserted, or the rest cut off. Four edits in five fall in the first
    2,000 bytes, which hold a checkpoint's headers."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        pos = int(rng.integers(min(len(blob), 2000) if rng.random() < 0.8 else len(blob)))
        byte = bytes([int(rng.integers(256))])
        yield (blob[:pos] + byte + blob[pos + 1:], blob[:pos] + blob[pos + 1:],
               blob[:pos] + byte + blob[pos:], blob[:pos])[int(rng.integers(4))]


@pytest.mark.parametrize("target", ["checkpoint", "pgm", "config"])
def test_seeded_byte_edits_exit_0_or_print_one_error_line(run_dir, tmp_path, target, capsys):
    # the checkpoint and one test image are read by eval, the config file by gen
    data = tmp_path / "data"
    assert main(["gen", "--out", str(data)] + TINY) == 0
    ckpt = run_dir / "checkpoint.bin"
    path = {"checkpoint": tmp_path / "edited.bin", "config": tmp_path / "edited.cfg",
            "pgm": sorted((data / "test").rglob("*.pgm"))[0]}[target]
    original = {"checkpoint": ckpt, "config": run_dir / "config.txt", "pgm": path}[target]
    argv = {"checkpoint": ["eval", "--checkpoint", str(path)],
            "pgm": ["eval", "--checkpoint", str(ckpt), "--data_dir", str(data)],
            "config": ["gen", "--config", str(path), "--out", str(tmp_path / "gen")]}[target]
    failed = 0
    for i, blob in enumerate(_byte_edits(original.read_bytes(), 100, seed=len(target))):
        path.write_bytes(blob)
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err.splitlines()
        assert (code, err) == (0, []) or (
            code == 1 and len(err) == 1 and err[0].startswith("error: ")), (i, code, err)
        failed += code
    assert 0 < failed < 100  # some edits are caught, and some leave a file that reads
