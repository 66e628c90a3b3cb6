"""How fast the host runs right now, measured with a fixed calibration kernel.

On a shared machine the same code runs up to twice as slow for stretches of
a second to several minutes, and CPU time grows with wall time, so neither
clock tells a slow host from a slow program. The benchmark runs `kernel()`
right after every operation and set-up, and divides each one's wall time by
the kernel's time beside it. A slowdown of the host slows both; a change to
the program slows only the operation, because the kernel never calls the
program. The kernel does the kind of work a training step does: it builds
a graph of small numpy ops out of Python objects, walks part of it back,
and runs a matmul chain. Of the candidates tried (bench/NOTES.md) this mix
slowed most like the workloads when the host did; tight loops and a sort
slowed less.

`scaled(seconds, kernel_seconds)` turns a wall time into the time it would
take on a host where the kernel takes `REFERENCE_S`: about its time on an
undisturbed 2-vCPU x86-64 virtual machine with numpy 2.4 and OpenBLAS 0.3.31.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 0.0025

_rng = np.random.default_rng(0)
_LEAVES = [_rng.standard_normal((16, 64)) for _ in range(50)]
_SQUARE = _rng.standard_normal((96, 96))


class _Node:
    __slots__ = ("value", "parents")

    def __init__(self, value, parents):
        self.value = value
        self.parents = parents


def _graph():
    nodes = [_Node(x, ()) for x in _LEAVES]
    for i in range(300):
        a, b = nodes[i], nodes[i + 1]
        nodes.append(_Node(a.value * 0.5 + b.value, (a, b)))
    seen, stack = set(), [nodes[-1]]
    while stack:
        for parent in stack.pop().parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _matmul():
    x = _SQUARE
    for _ in range(8):
        x = np.tanh(x @ _SQUARE * 0.01)
    return x


def kernel(reps=1):
    """Run the calibration kernel `reps` times; returns the median wall
    time of one run in seconds."""
    times = []
    for _ in range(reps):
        start = perf_counter()
        _graph()
        _matmul()
        times.append(perf_counter() - start)
    return statistics.median(times)


def scaled(seconds, kernel_seconds):
    """`seconds` of wall time, rescaled to the reference host speed."""
    return seconds * REFERENCE_S / kernel_seconds
