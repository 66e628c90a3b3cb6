"""Run one workload of the anofuse benchmark and print its metrics.

    python3 bench/run.py --workload train-b1 --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout: the program is imported from the
checkout's `src/`, and scratch checkpoints go to a temporary directory in
the checkout that is removed on exit. Workloads, metrics and the choice of
run length are described in bench/NOTES.md.

Standard output holds one `name = value unit` line per metric, the sample
counts and the environment, and as its last line one JSON object with the
keys correct, attempted, failed and metrics. `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _blas():
    """BLAS library and thread setting as numpy reports them."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {k: os.environ.get(k) for k in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"name": blas.get("name"), "version": blas.get("version"), "thread_env": env}


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return out.stdout.strip() or None


def _src_digest():
    """sha256 over the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment():
    import numpy as np

    return {"numpy": np.__version__, "blas": _blas(), "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "git_sha": _git_sha(),
            "src_sha256": _src_digest()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import anofuse
    except ImportError as exc:
        print(f"error: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(anofuse.__file__).resolve().is_relative_to(SRC):
        print(f"error: anofuse was imported from {anofuse.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy as np
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-tmp-") as tmp:
        e2e, layers, run = workloads.run_workload(workload, args.seed, args.seconds,
                                                  args.trace, tmp)
    if args.trace:
        values, units = layers, workloads.per_layer_units(run.config.n_groups)
    else:
        values, units = e2e, workloads.END_TO_END_UNITS
    for name, unit in units.items():
        print(f"{name} = {values[name]} {unit}")
    kind = "steps" if workload.kind == "train" else "passes"
    print(f"samples: {len(workloads.timed_ms(run, False))} untraced, "
          f"{len(workloads.timed_ms(run, True))} traced {kind}")
    per_op = workload.batch_size if workload.kind == "train" else len(run.corpora[1])
    for label, wall in (("scaled to the reference host speed", False), ("wall", True)):
        ms = workloads.timed_ms(run, False, wall)
        if ms:
            print(f"untraced {kind}, {label}: p10 {np.percentile(ms, 10):.3f} ms, "
                  f"median {statistics.median(ms):.3f} ms, p{workload.tail_pct} "
                  f"{np.percentile(ms, workload.tail_pct):.3f} ms, "
                  f"{1000.0 * per_op * len(ms) / sum(ms):.2f} images/s")
    print(f"failed {run.failed} of {run.attempted} operations "
          f"({run.failed / max(run.attempted, 1):.2%})")
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
