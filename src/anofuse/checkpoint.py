"""Byte-stable checkpoint container: config echo, the sha256 of the frozen
backbone (which `build_model` redraws from the model seed on load), and the
trainable parameters by hierarchical name. Same seed and step give identical bytes."""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from .config import parse_config_text
from .errors import DatasetError
from .model import build_model

MAGIC = b"anofuse-ckpt v2\n"


def frozen_digest(model):
    """sha256 of the frozen tensors' little-endian float64 bytes, by sorted name."""
    h = hashlib.sha256()
    for name, t in sorted(model.named_params().items()):
        if not t.requires_grad:
            h.update(np.ascontiguousarray(t.data, dtype="<f8"))
    return h.hexdigest()


def save_checkpoint(model, path, step=0):
    echo = model.config.echo_lines()
    parts = [MAGIC, f"step {step}\n".encode(), f"config {len(echo)}\n".encode()]
    parts.extend((line + "\n").encode() for line in echo)
    parts.append(f"frozen {frozen_digest(model)}\n".encode())
    params = model.trainable_params()
    parts.append(f"params {len(params)}\n".encode())
    for name in sorted(params):
        t = params[name]
        shape = ",".join(str(d) for d in t.data.shape)
        parts.append(f"{name} {shape}\n".encode())
        parts.append(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"".join(parts))


def _line(blob, pos, path):
    end = blob.find(b"\n", pos)
    if end < 0:
        raise DatasetError(f"{path}: truncated checkpoint")
    # a line that is not UTF-8 fails the header checks below, never the decode
    return blob[pos:end].decode(errors="replace"), end + 1


def _is_count(field):
    """Whether `field` is a count written by `save_checkpoint`: ASCII digits,
    at least one. `int` alone also reads '+2', '0_8' and non-ASCII digits."""
    return field.isascii() and field.isdigit()


def _count(line, key, path):
    """The count of a `key N` header line."""
    parts = line.split(" ")
    if len(parts) != 2 or parts[0] != key or not _is_count(parts[1]):
        raise DatasetError(f"{path}: corrupt checkpoint header {line!r}, want '{key} <count>'")
    return int(parts[1])


def load_checkpoint(path):
    """Rebuild the model from the stored config, check its frozen backbone
    against the stored digest, then load the trainable parameters."""
    blob = Path(path).read_bytes()
    if not blob.startswith(MAGIC):
        if MAGIC.startswith(blob):
            raise DatasetError(f"{path}: truncated checkpoint")
        raise DatasetError(f"{path} is not a checkpoint (bad magic)")
    pos = len(MAGIC)
    line, pos = _line(blob, pos, path)
    step = _count(line, "step", path)
    line, pos = _line(blob, pos, path)
    n_cfg = _count(line, "config", path)
    cfg_lines = []
    for _ in range(n_cfg):
        line, pos = _line(blob, pos, path)
        cfg_lines.append(line)
    config = parse_config_text("\n".join(cfg_lines)).validate()
    model = build_model(config)
    line, pos = _line(blob, pos, path)
    if not line.startswith("frozen "):
        raise DatasetError(f"{path}: corrupt checkpoint header {line!r}, want 'frozen <sha256>'")
    if line != f"frozen {frozen_digest(model)}":
        raise DatasetError(f"{path}: frozen weights differ from those model_seed "
                           f"{config.model_seed} builds (digest mismatch)")
    params = model.trainable_params()
    unread = set(params)
    line, pos = _line(blob, pos, path)
    n_params = _count(line, "params", path)
    if n_params != len(params):
        raise DatasetError(f"{path}: checkpoint has {n_params} params, model wants {len(params)}")
    for _ in range(n_params):
        line, pos = _line(blob, pos, path)
        name, _, shape_csv = line.rpartition(" ")
        fields = shape_csv.split(",")
        if not (name and all(_is_count(d) for d in fields)):
            raise DatasetError(f"{path}: corrupt parameter header {line!r}")
        shape = tuple(int(d) for d in fields)
        if name not in params:
            raise DatasetError(f"{path}: unknown parameter {name!r} in checkpoint")
        if name not in unread:
            raise DatasetError(f"{path}: repeated parameter {name!r} in checkpoint")
        unread.remove(name)
        t = params[name]
        if shape != t.data.shape:
            raise DatasetError(f"{path}: parameter {name!r} mismatch: {shape} vs {t.data.shape}")
        nbytes = int(np.prod(shape, dtype=np.int64)) * 8
        if pos + nbytes > len(blob):
            raise DatasetError(f"{path}: truncated parameter data for {name!r}")
        t.data = np.frombuffer(blob, dtype="<f8", count=nbytes // 8,
                               offset=pos).reshape(shape).copy()
        pos += nbytes
    if pos != len(blob):
        raise DatasetError(f"{path}: {len(blob) - pos} bytes after the last parameter")
    return model, step
