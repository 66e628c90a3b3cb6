"""Command-line interface: gen | train | eval | ablate | export-maps | selftest.

Any RunConfig key can be overridden on the command line as ``--key value``:
for gen, train and ablate on top of an optional ``--config`` key=value file,
for eval and export-maps on top of the checkpoint's config. Unknown keys
fail with the list of valid keys. Exit status is 0 on success, 1 with a
diagnostic on any failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .ablation import ablate
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, apply_overrides, parse_config_text
from .data import export_dataset, get_corpora, get_split, write_pgm
from .errors import AnofuseError, ConfigurationError
from .metrics import MetricsReport
from .model import MODEL_KEYS
from .train import evaluate, predict, train
from .verify import run_selftest


def _collect_overrides(extra):
    overrides = {}
    it = iter(extra)
    for token in it:
        if not token.startswith("--"):
            raise ConfigurationError(f"expected --key value pairs, got {token!r}")
        key = token[2:].replace("-", "_")
        try:
            value = next(it)
        except StopIteration:
            raise ConfigurationError(f"missing value for override {token}")
        overrides[key] = value
    return overrides


def _resolve_config(args, extra):
    """The --config key=value file, or the defaults, with the command-line
    overrides on top."""
    overrides = _collect_overrides(extra)
    # a byte that is not UTF-8 fails the key check, never the decode
    cfg = (parse_config_text(Path(args.config).read_text("utf-8", "replace"))
           if args.config else RunConfig())
    return apply_overrides(cfg, overrides).validate()


def _write_lines(path, lines):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def _write_report(out_dir, report: MetricsReport, cfg: RunConfig):
    _write_lines(Path(out_dir) / "metrics.csv", report.csv_lines())
    _write_lines(Path(out_dir) / "config.txt", cfg.echo_lines())


def cmd_gen(args, extra):
    cfg = _resolve_config(args, extra)
    train_s, test_s = get_corpora(replace(cfg, data_dir=""))
    export_dataset(args.out, {"train": train_s, "test": test_s})
    n_def = sum(s.label for s in train_s) + sum(s.label for s in test_s)
    print(f"wrote {len(train_s)} train / {len(test_s)} test samples "
          f"({n_def} defective) to {args.out}")
    return 0


def cmd_train(args, extra):
    cfg = _resolve_config(args, extra)
    corpora = get_corpora(cfg)
    result = train(cfg, corpora)
    out = Path(args.out)
    save_checkpoint(result.model, out / "checkpoint.bin", step=cfg.steps)
    trace_lines = ["step,total,seg,cls"]
    trace_lines += [f"{s},{t:.9g},{sg:.9g},{cl:.9g}" for s, t, sg, cl in result.trace]
    _write_lines(out / "trace.csv", trace_lines)
    report = evaluate(result.model, corpora[1])
    _write_report(out, report, cfg)
    if result.trace:
        print(f"trained {cfg.steps} steps; loss {result.trace[0][1]:.4f} -> "
              f"{result.trace[-1][1]:.4f}")
    print("\n".join(report.csv_lines()))
    return 0


def _load_for_inference(args, extra):
    """The --checkpoint model, its config with any command-line overrides
    applied, and that config's test split, the only split read. The
    checkpoint fixes the fields its model was built from, so overriding one
    of them fails."""
    model, _ = load_checkpoint(args.checkpoint)
    cfg = apply_overrides(model.config, _collect_overrides(extra)).validate()
    changed = [k for k in MODEL_KEYS if getattr(cfg, k) != getattr(model.config, k)]
    if changed:
        raise ConfigurationError("cannot override the checkpoint's model: " + ", ".join(
            f"{k} is {getattr(model.config, k)}" for k in changed))
    return model, cfg, get_split(cfg, "test")


def cmd_eval(args, extra):
    model, cfg, test_s = _load_for_inference(args, extra)
    report = evaluate(model, test_s)
    if args.out:
        _write_report(args.out, report, cfg)
    print("\n".join(report.csv_lines()))
    return 0


def cmd_ablate(args, extra):
    cfg = _resolve_config(args, extra)
    lines = ablate(cfg)
    out = Path(args.out)
    _write_lines(out / "ablation.csv", lines)
    _write_lines(out / "config.txt", cfg.echo_lines())
    print("\n".join(lines))
    return 0


def cmd_export_maps(args, extra):
    model, cfg, test_s = _load_for_inference(args, extra)
    maps, scores, _ = predict(model, test_s)
    out = Path(args.out)
    index = []
    for s, m, sc in zip(test_s, maps, scores):
        write_pgm(out / f"{s.id}.pgm", np.round(m * 65535.0).astype(np.uint16), maxval=65535)
        index.append(f"{s.id} {sc:.9g}")
    _write_lines(out / "index.txt", index)
    _write_lines(out / "config.txt", cfg.echo_lines())
    print(f"wrote {len(index)} maps to {out}")
    return 0


def cmd_selftest(args, extra):
    if extra:
        raise ConfigurationError(f"selftest takes no arguments, got {' '.join(extra)}")
    return 0 if run_selftest() else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="anofuse",
        description="grouped vision/text anomaly segmentation with convolutional "
                    "low-rank adapters and dynamic text fusion")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **flags):
        p = sub.add_parser(name)
        for flag, required in flags.items():
            p.add_argument(f"--{flag}", required=required)
        p.set_defaults(fn=fn)

    add("gen", cmd_gen, config=False, out=True)
    add("train", cmd_train, config=False, out=True)
    add("eval", cmd_eval, checkpoint=True, out=False)
    add("ablate", cmd_ablate, config=False, out=True)
    add("export-maps", cmd_export_maps, checkpoint=True, out=True)
    add("selftest", cmd_selftest)

    args, extra = parser.parse_known_args(argv)
    try:
        return args.fn(args, extra)
    except (AnofuseError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
