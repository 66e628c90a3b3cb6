"""The benchmark traces the program by patching the entry points that
`bench/spans.py` lists; each one must still exist under its name, and the
metrics must still be reached through them."""

import importlib.util
from pathlib import Path

import numpy as np

from anofuse import train
from anofuse.config import RunConfig
from anofuse.data import gen_synthetic
from anofuse.model import build_model

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_benchmark_entry_point_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for owner, attr, _ in spans.ENTRY_POINTS:
        assert callable(getattr(owner, attr, None)), (owner, attr)


def test_evaluate_calls_each_metric_twice_pixels_first(monkeypatch):
    # the benchmark times train.auroc and train.average_precision per call,
    # and counts auroc calls to inject a failure into one pass's pixel AUROC
    calls = {"auroc": [], "average_precision": []}

    def counting(name, metric):
        def wrapper(scores, labels):
            calls[name].append((np.shape(scores), np.shape(labels)))
            return metric(scores, labels)
        return wrapper

    for name in calls:
        monkeypatch.setattr(train, name, counting(name, getattr(train, name)))
    cfg = RunConfig(n_groups=2, channels=16, heads=2, rank=2, gate_hidden=4, patch_size=8,
                    image_size=16, defect_min=3, defect_max=8)
    samples = gen_synthetic(cfg, 3, n=12)
    train.evaluate(build_model(cfg), samples)
    n_pixels, n_images = (len(samples) * cfg.image_size ** 2,), (len(samples),)
    for name, shapes in calls.items():
        assert shapes == [(n_pixels, n_pixels), (n_images, n_images)], name
