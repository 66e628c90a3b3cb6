"""Spans around the program's public entry points, recorded from outside.

`Tracer.active()` replaces each entry point in `ENTRY_POINTS` with a
wrapper for the duration of a `with` block and restores it afterwards, so
untraced code runs the program's own functions. A span records its label,
start, end and parent span; spans stay in memory until the run ends, when
`layer_times` turns them into per-operation self times.
"""

from __future__ import annotations

import bisect
from contextlib import contextmanager
from time import perf_counter

from anofuse import adapter, checkpoint, data, gateway, losses, model, train


def _block_label(block):
    kind, group = block.name.split(".")[:2]  # "vision.g0.b0" -> vision, g0
    return f"model.vision_{group}_blocks" if kind == "vision" else "model.text_blocks"


def _adapter_label(module):
    return "adapter.vision" if module.name.startswith("vision.") else "adapter.text"


# (owner, attribute, label). Functions are patched in the namespace that
# calls them: `train.train` and `train.evaluate` look up grad, batch_arrays,
# auroc and average_precision in the `train` module, and `losses.model_loss`
# looks up seg_loss and cls_loss in `losses`.
ENTRY_POINTS = (
    (model.TransformerBlock, "__call__", _block_label),
    (adapter.ConvLoraAdapter, "__call__", _adapter_label),
    (adapter.LowRankAdapter, "__call__", _adapter_label),
    (model.GroupedModel, "patchify", "model.patchify"),
    (model.GroupedModel, "text_forward", "model.text"),
    (model.GroupedModel, "forward", "model.forward"),
    (gateway.FusionGateway, "forward", "gateway.forward"),
    (losses, "seg_loss", "losses.seg"),
    (losses, "cls_loss", "losses.cls"),
    (train, "grad", "tensor.backward"),
    (train.Adam, "step", "train.adam"),
    (train, "batch_arrays", "data.batch"),
    (train, "auroc", "metrics.auroc"),
    (train, "average_precision", "metrics.ap"),
    (data, "get_corpora", "data.corpus"),
    (checkpoint, "load_checkpoint", "checkpoint.load"),
)

# Layers reported as the whole call; every other layer as self time.
INCLUSIVE = frozenset({"model.text", "model.forward"})


@contextmanager
def patched(replacements):
    """Set each (owner, attribute, value) for the duration of the block."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def graph_size(loss):
    """Distinct tensors reachable from `loss` through parent links, and the
    bytes of their arrays (a view counts at its own size)."""
    seen = {id(loss): loss}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return len(seen), sum(t.data.nbytes for t in seen.values())


class Tracer:
    def __init__(self):
        self.rows = []    # [label, start, end, parent row index or -1]
        self.stack = []
        self.graphs = []  # (nodes, bytes) of each loss handed to train.grad

    def wrap(self, fn, label):
        rows, stack = self.rows, self.stack

        def wrapper(*args, **kwargs):
            i = len(rows)
            rows.append([label(args[0]) if callable(label) else label,
                         perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(i)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rows[i][2] = perf_counter()
        return wrapper

    def _counted(self, grad_fn):
        # the graph is walked before the backward span opens, so the walk
        # counts as tracing overhead and not as backward time
        def counted(loss, params):
            self.graphs.append(graph_size(loss))
            return grad_fn(loss, params)
        return counted

    def active(self):
        """Context manager that traces every entry point while it is open."""
        replacements = []
        for owner, attr, label in ENTRY_POINTS:
            wrapped = self.wrap(getattr(owner, attr), label)
            if (owner, attr) == (train, "grad"):
                wrapped = self._counted(wrapped)
            replacements.append((owner, attr, wrapped))
        return patched(replacements)


def layer_times(rows, ops):
    """{(op kind, label): [seconds in each op where the label ran]}.

    `ops` are (kind, start, end) intervals that do not overlap; a span
    belongs to the op in which it started, and spans outside every op are
    dropped. Self time is a span's duration minus that of its child spans.
    """
    ops = sorted(ops, key=lambda op: op[1])
    starts = [op[1] for op in ops]
    self_time = [end - start for _, start, end, _ in rows]
    for _, start, end, parent in rows:
        if parent >= 0:
            self_time[parent] -= end - start
    per_op = {}
    for (label, start, end, _), own in zip(rows, self_time):
        k = bisect.bisect_right(starts, start) - 1
        if k < 0 or start >= ops[k][2]:
            continue
        key = (k, label)
        per_op[key] = per_op.get(key, 0.0) + (end - start if label in INCLUSIVE else own)
    out = {}
    for (k, label), seconds in sorted(per_op.items()):
        out.setdefault((ops[k][0], label), []).append(seconds)
    return out
