"""The benchmark traces the program by patching the entry points that
`bench/spans.py` lists; each one must still exist under its name."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_benchmark_entry_point_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for owner, attr, _ in spans.ENTRY_POINTS:
        assert callable(getattr(owner, attr, None)), (owner, attr)
