"""Golden pins: the exact outputs of a tiny end-to-end run, of a short run
at the default model shape, and of the full-model gradient suite on a tiny
model.

Refactors must keep every output bit-identical for a fixed seed, so these
values never change with a refactor. A change that alters the numbers on
purpose (a reordered sum, a new default) regenerates them and says why.
The pins belong to the numpy/BLAS build they were generated with.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import anofuse
from anofuse.cli import main
from anofuse.config import RunConfig
from anofuse.data import get_corpora
from anofuse.train import evaluate, predict, train
from anofuse.verify import full_model_gradient_suite

TINY = ["--n_groups", "2", "--channels", "16", "--heads", "2", "--rank", "2",
        "--gate_hidden", "4", "--image_size", "16", "--defect_min", "3", "--defect_max", "8",
        "--steps", "6", "--batch_size", "4", "--n_train", "8", "--n_test", "12"]

RUN_SHA256 = {
    "run/trace.csv": "c83e005a44b2bf2bc10ee586abc26f1f4d7d78d0fee976072fcb04d247cf3d95",
    "run/metrics.csv": "9b7434c592e2483fe61e91f6cb425883ac3819768c79dbf5bb8cb8f368a19f5e",
    "run/checkpoint.bin": "b8ceaf57193d8bf7def058ce8c27ef1e67dcfe4759116693570e1ef3192c0472",
    "maps/index.txt": "991366f89867dd05b2aa9aaacbad069617894ad20888b32db9835f008154cbda",
}
MAPS_SHA256 = "8aebf074dc9327d096e82555276038e9d941b4d1ba48d120b1b0cf24b93ba4c6"

# (total, seg, cls) of each step of train(RunConfig(steps=3, n_train=16, n_test=4))
DEFAULT_TRACE = [
    ("0x1.6b6f302e43466p+1", "0x1.ff73e587089fep+0", "0x1.aed4f5aafbd9ep-1"),
    ("0x1.5202b4f0cd21ep+1", "0x1.dd0005eae4cf5p+0", "0x1.8e0ac7ed6ae8ep-1"),
    ("0x1.46f4398ec2146p+1", "0x1.cd1fb24db2d56p+0", "0x1.8191819fa2a6ep-1"),
]
DEFAULT_TRAINABLES_SHA256 = "2429be7df90a4fbf6355319e0d0bd77c4015e39791deb3a4aa3ab4453137e96b"
DEFAULT_MAPS_SHA256 = "9c7c8781de1dcef2845b6897fe8d6bbb61d6ec61a212009ba50e9903ce2d29e6"
# evaluate() of that run: pixel AUROC, pixel AP, image AUROC, image AP (3 of
# the 4 test images are anomalous, so each is defined)
DEFAULT_REPORT = ("0x1.5f31f0fb8a045p-1", "0x1.7b52e79aa66c3p-4",
                  "0x1.5555555555555p-1", "0x1.d555555555555p-1")


def _sha(blob):
    return hashlib.sha256(blob).hexdigest()


def test_tiny_run_outputs_are_pinned(tmp_path, capsys):
    assert main(["train", "--out", str(tmp_path / "run")] + TINY) == 0
    assert main(["export-maps", "--checkpoint", str(tmp_path / "run" / "checkpoint.bin"),
                 "--out", str(tmp_path / "maps")]) == 0
    got = {name: _sha((tmp_path / name).read_bytes()) for name in RUN_SHA256}
    assert got == RUN_SHA256
    maps = hashlib.sha256()
    for path in sorted((tmp_path / "maps").glob("*.pgm")):
        maps.update(path.name.encode())
        maps.update(path.read_bytes())
    assert maps.hexdigest() == MAPS_SHA256


def test_tiny_run_trace_is_pinned_on_one_blas_thread(tmp_path):
    # the pins must not depend on how many threads BLAS splits a GEMM over;
    # the thread count is read when numpy loads, hence the fresh process
    src = str(Path(anofuse.__file__).resolve().parent.parent)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-m", "anofuse.cli", "train", "--out", str(tmp_path / "run")]
                   + TINY, env=env, check=True, capture_output=True, timeout=300)
    assert _sha((tmp_path / "run" / "trace.csv").read_bytes()) == RUN_SHA256["run/trace.csv"]


def _le_bytes(array):
    return np.ascontiguousarray(array, dtype="<f8").tobytes()


def test_default_shape_run_is_pinned():
    # the tiny run above misses last-bit changes that only the default
    # channel count, group count and kernel set expose
    cfg = RunConfig(steps=3, n_train=16, n_test=4)
    corpora = get_corpora(cfg)
    result = train(cfg, corpora)
    assert [tuple(float(x).hex() for x in row[1:]) for row in result.trace] == DEFAULT_TRACE
    params = result.model.trainable_params()
    assert _sha(b"".join(_le_bytes(params[k].data) for k in sorted(params))) == \
        DEFAULT_TRAINABLES_SHA256
    maps, _, _ = predict(result.model, corpora[1])
    assert _sha(_le_bytes(maps)) == DEFAULT_MAPS_SHA256
    report = evaluate(result.model, corpora[1])
    assert tuple(x.hex() for x in (report.pixel_auroc, report.pixel_ap, report.image_auroc,
                                   report.image_ap)) == DEFAULT_REPORT


def test_tiny_gradient_suite_is_pinned():
    cfg = RunConfig(n_groups=2, channels=8, heads=2, rank=2, gate_hidden=2,
                    branch_kernels=(3,), patch_size=8, image_size=16,
                    defect_min=3, defect_max=8)
    res = full_model_gradient_suite(cfg)
    assert (res.worst_ratio.hex(), res.noise.hex(), res.n_checked, len(res.failures)) == (
        "0x1.23b937ee30390p-3", "0x1.9f0a000000000p-33", 440, 0)
