"""The benchmark's workloads: closed-loop training steps or evaluation passes
driven through the program's public API, timed from outside, with every
output checked against the run's first untraced output.

An operation is one training step or one `evaluate` pass. Each workload
runs its operations one at a time in a single process; tracing is off for
the end-to-end numbers, and a separate set of traced operations in the
same process gives the per-layer numbers (see NOTES.md).
"""

from __future__ import annotations

import resource
import statistics
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from anofuse import checkpoint, data, train
from anofuse.config import RunConfig, apply_overrides
from anofuse.errors import TrainingError, UndefinedMetricError
from anofuse.model import build_model
from hostspeed import kernel, scaled
from spans import Tracer, layer_times, patched

SETUP_EVERY = 2.0  # seconds between set-ups, so that they sample the whole window


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str          # "train": ops are training steps; "eval": evaluate() passes
    batch_size: int    # training batch size
    train_steps: int   # steps of one training run: a repetition, or the checkpoint run
    loss_window: int   # loss_final is the mean total loss over this many last steps
    tail_pct: int      # tail percentile printed with the median
    kernel_reps: int   # calibration kernel runs after each op: a few % of the op's time


WORKLOADS = {w.name: w for w in (
    Workload("train-b1", "train", batch_size=1, train_steps=300, loss_window=150,
             tail_pct=90, kernel_reps=1),
    Workload("train-b32", "train", batch_size=32, train_steps=24, loss_window=12,
             tail_pct=90, kernel_reps=2),
    Workload("eval-default", "eval", batch_size=8, train_steps=60, loss_window=30,
             tail_pct=80, kernel_reps=8),
)}

TIMED_KIND = {"train": "step", "eval": "pass"}
# a layer's time is taken from the first op kind, in this order, where it ran
KIND_ORDER = {"train": ("step", "pass", "setup"), "eval": ("pass", "step", "setup")}

END_TO_END_UNITS = {"op_ms_p50": "ms", "setup_s": "s", "peak_rss_mb": "MB", "loss_final": "1"}
OTHER_LAYER_UNITS = {
    "tensor.graph_nodes": "count", "tensor.graph_mb": "MB", "checkpoint.bytes": "B",
    "trace.overhead_ms": "ms", "metrics.pixel_auroc": "1", "metrics.image_auroc": "1",
    "trace.timed_ops": "count", "trace.traced_ops": "count",
}


def layer_time_metrics(n_groups):
    """Per-layer time metric name -> span label; all in ms but data.corpus_s."""
    labels = ["tensor.backward", *(f"model.vision_g{g}_blocks" for g in range(n_groups)),
              "model.text", "model.patchify", "model.forward", "adapter.vision",
              "adapter.text", "gateway.forward", "losses.seg", "losses.cls", "train.adam",
              "data.batch", "metrics.auroc", "metrics.ap", "checkpoint.load"]
    names = {label + "_ms": label for label in labels}
    names["data.corpus_s"] = "data.corpus"
    return names


def per_layer_units(n_groups):
    units = {name: name.rsplit("_", 1)[1] for name in layer_time_metrics(n_groups)}
    return {**units, **OTHER_LAYER_UNITS}


class Run:
    """State of one workload run: recorded ops, failure counts, references."""

    def __init__(self, workload, config, tmp_dir):
        self.workload = workload
        self.config = config
        self.tmp_dir = Path(tmp_dir)
        self.tracer = Tracer()
        self.ops = []    # (kind, traced, start, end, calibration kernel seconds)
        self.attempted = 0
        self.failed = 0
        self.reference = {}
        self.corpora = None
        self.model = None

    def tracing(self, on):
        return self.tracer.active() if on else nullcontext()

    def matches(self, key, value):
        """The first value seen under `key` is the reference for the rest."""
        return value is not None and self.reference.setdefault(key, value) == value


def _window(run, seconds, trace, setup, op):
    """Call `op(traced)` back to back for `seconds`, untraced first, and
    `setup()` before the first call and then every SETUP_EVERY seconds.

    With trace on, calls alternate untraced and traced, so both kinds see
    the same machine state, and every set-up is traced. With trace off,
    the call that would end the window is traced. Either way one traced
    call at least is made: its outputs are checked against the untraced
    ones.
    """
    end = perf_counter() + seconds
    n, traced_done, longest, next_setup = 0, False, 0.0, 0.0
    while n == 0 or perf_counter() < end:
        start = perf_counter()
        if start >= next_setup:
            with run.tracing(trace):
                setup_start = perf_counter()
                setup()
                setup_end = perf_counter()
            run.ops.append(("setup", trace, setup_start, setup_end,
                            kernel(run.workload.kernel_reps)))
            next_setup = perf_counter() + SETUP_EVERY
        last = n > 0 and start + longest >= end
        traced = (trace and n % 2 == 1) or (last and not traced_done)
        op(traced)
        n += 1
        traced_done |= traced
        longest = max(longest, perf_counter() - start)
    if not traced_done:
        op(True)


def _training_run(run, traced):
    """One `train.train` run; each step after the first is a timed op.

    A step ends when its `Adam.step` returns; the calibration kernel runs
    then, and the next step starts when the kernel is done. The first step,
    which also builds the model, is not timed.
    """
    ticks = []  # (end of a step, kernel seconds, start of the next step)
    reps = run.workload.kernel_reps if run.workload.kind == "train" else 1
    result, error = None, None
    with run.tracing(traced):
        adam_step = train.Adam.step  # traced, if tracing: the kernel stays outside its span

        def clocked(opt, grads):
            adam_step(opt, grads)
            end = perf_counter()
            ticks.append((end, kernel(reps), perf_counter()))

        with patched([(train.Adam, "step", clocked)]):
            try:
                result = train.train(run.config, corpora=run.corpora)
            except TrainingError as exc:
                error = exc
    trace = result.trace if result else getattr(error, "trace", None) or []
    run.ops += [("step", traced, prev[2], end, kernel_s)
                for prev, (end, kernel_s, _) in zip(ticks, ticks[1:])]
    reference = run.reference.setdefault("trace", trace)
    run.attempted += len(trace) + (error is not None)
    run.failed += (error is not None) + sum(a != b for a, b in zip(trace, reference))
    return result


def _save(run, result, tag):
    path = run.tmp_dir / f"{tag}.ckpt"
    checkpoint.save_checkpoint(result.model, path, step=len(result.trace))
    if not run.matches("checkpoint", path.read_bytes()):
        run.failed += 1
    return path


def _eval_pass(run, traced, path=None):
    """One `evaluate` pass over the test set; with `path`, the pass first
    loads the model from that checkpoint."""
    with run.tracing(traced):
        start = perf_counter()
        try:
            model = checkpoint.load_checkpoint(path)[0] if path else run.model
            report = train.evaluate(model, run.corpora[1])
        except UndefinedMetricError:
            report = None
        end = perf_counter()
    run.ops.append(("pass", traced, start, end, kernel(run.workload.kernel_reps)))
    run.attempted += 1
    run.failed += not run.matches("report", report)


def _run_train(run, seconds, trace):
    cfg = run.config

    def setup():
        build_model(cfg)
        run.corpora = data.get_corpora(cfg)

    first = {}

    def repetition(traced):
        result = _training_run(run, traced)
        if result is not None:
            first.setdefault(traced, result)

    _window(run, seconds, trace, setup, repetition)
    # train, save, load and evaluate: checks the checkpoint bytes and the
    # eval metrics of the traced model against the untraced one
    for traced in sorted(first):
        _eval_pass(run, traced, _save(run, first[traced], f"rep{int(traced)}"))


def _run_eval(run, seconds, trace):
    cfg = run.config
    run.corpora = data.get_corpora(cfg)
    paths = {}
    for traced in (False, True):
        result = _training_run(run, traced)
        if result is not None:
            paths[traced] = _save(run, result, f"ckpt{int(traced)}")
    if not paths:
        raise TrainingError("no checkpoint: every checkpoint training run failed")

    def setup():
        run.model = checkpoint.load_checkpoint(paths[min(paths)])[0]
        run.corpora = data.get_corpora(cfg)

    _window(run, seconds, trace, setup, lambda traced: _eval_pass(run, traced))


def timed_ms(run, traced, wall=False):
    """Times in ms of the workload's own operations, traced or not: scaled
    to the reference host speed, or with `wall` as measured."""
    kind = TIMED_KIND[run.workload.kind]
    return [1000.0 * (end - start if wall else scaled(end - start, kernel_s))
            for k, t, start, end, kernel_s in run.ops if k == kind and t == traced]


def _median(values):
    return statistics.median(values) if values else None


def end_to_end_metrics(run):
    w = run.workload
    ms = timed_ms(run, False)
    setup = [scaled(end - start, kernel_s) for kind, traced, start, end, kernel_s in run.ops
             if kind == "setup" and not traced]
    trace = run.reference.get("trace") or []
    window = [row[1] for row in trace[-w.loss_window:]]
    return {
        "op_ms_p50": _median(ms),
        "setup_s": _median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "loss_final": float(np.mean(window)) if window else None,
    }


def per_layer_metrics(run):
    traced_ops = [(kind, start, end) for kind, traced, start, end, _ in run.ops if traced]
    times = layer_times(run.tracer.rows, traced_ops)
    out = {}
    for name, label in layer_time_metrics(run.config.n_groups).items():
        found = [times[(kind, label)] for kind in KIND_ORDER[run.workload.kind]
                 if (kind, label) in times]
        scale = 1000.0 if name.endswith("_ms") else 1.0
        out[name] = scale * statistics.median(found[0]) if found else None
    untraced, traced = timed_ms(run, False), timed_ms(run, True)
    report = run.reference.get("report")
    graphs = run.tracer.graphs
    out.update({
        "tensor.graph_nodes": _median([n for n, _ in graphs]),
        "tensor.graph_mb": _median([b / 2 ** 20 for _, b in graphs]),
        "checkpoint.bytes": len(run.reference.get("checkpoint", b"")) or None,
        "trace.overhead_ms": _median(traced) - _median(untraced) if traced and untraced else None,
        "metrics.pixel_auroc": report.pixel_auroc if report else None,
        "metrics.image_auroc": report.image_auroc if report else None,
        "trace.timed_ops": len(untraced),
        "trace.traced_ops": len(traced),
    })
    return out


def run_workload(workload, seed, seconds, trace, tmp_dir, overrides=None):
    """Run one workload; returns (end-to-end metrics, per-layer metrics, run).

    `seed` becomes the data seed; `overrides` maps RunConfig keys to values
    on top of the default model (the tests use it for a tiny model).
    """
    cfg = apply_overrides(RunConfig(), {
        **(overrides or {}), "batch_size": workload.batch_size,
        "steps": workload.train_steps, "data_seed": seed}).validate()
    run = Run(workload, cfg, tmp_dir)
    (_run_train if workload.kind == "train" else _run_eval)(run, seconds, bool(trace))
    return end_to_end_metrics(run), per_layer_metrics(run), run
