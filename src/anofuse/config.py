"""Run configuration: model, loss, ablation, optimizer, seed, and data knobs.

Configs round-trip through plain-text ``key = value`` files (one pair per
line; a ``#`` at the start of a line or after whitespace starts a comment)
and accept command-line overrides. Unknown keys are rejected with the full
list of valid keys so typos fail loudly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields

from .data import NOISE_FIELDS
from .errors import ConfigurationError

COMMENT = re.compile(r"(?:^|\s)#")


@dataclass
class RunConfig:
    # model
    n_groups: int = 3
    blocks_per_group: int = 1
    channels: int = 64
    heads: int = 4
    patch_size: int = 8
    image_size: int = 32
    rank: int = 8
    branch_kernels: tuple = (3, 5)
    temperature: float = 0.07
    gate_hidden: int = 0  # 0 means channels // 2
    # loss
    lambda_focal: float = 1.0
    lambda_dice: float = 1.0
    lambda_cls: float = 1.0
    focal_gamma: float = 2.0
    focal_alpha: float = 0.25
    dice_smooth: float = 1.0
    # ablation switches
    conv_lora_on: bool = True
    dfg_on: bool = True
    # optimizer
    lr: float = 1e-3
    steps: int = 500
    batch_size: int = 8
    # seeds
    model_seed: int = 0
    data_seed: int = 1
    # dataset
    data_dir: str = ""
    n_train: int = 200
    n_test: int = 100
    anomaly_rate: float = 0.5
    defect_min: int = 4
    defect_max: int = 12
    delta_min: float = 3.0
    delta_max: float = 4.5
    texture: str = "mixed"  # noise | sinusoid | mixed

    def resolved_gate_hidden(self):
        return self.gate_hidden if self.gate_hidden > 0 else self.channels // 2

    def validate(self):
        """Raise ConfigurationError naming every offending field."""
        bad = [f"{f.name}={v} (need finite)" for f in fields(self)
               if isinstance(v := getattr(self, f.name), float) and not math.isfinite(v)]
        if self.n_groups < 1:
            bad.append(f"n_groups={self.n_groups} (need >= 1)")
        if self.blocks_per_group < 1:
            bad.append(f"blocks_per_group={self.blocks_per_group} (need >= 1)")
        if self.heads < 1:
            bad.append(f"heads={self.heads} (need >= 1)")
        elif self.channels < 1 or self.channels % self.heads != 0:
            bad.append(f"channels={self.channels} not divisible by heads={self.heads}")
        if self.patch_size < 1:
            bad.append(f"patch_size={self.patch_size} (need >= 1)")
        elif self.image_size % self.patch_size != 0:
            bad.append(f"image_size={self.image_size} not divisible by patch_size={self.patch_size}")
        if self.image_size < (n := max(NOISE_FIELDS)) and self.texture != "sinusoid":
            bad.append(f"image_size={self.image_size} smaller than the noise texture's {n}x{n} "
                       f"field (need >= {n} unless texture = sinusoid)")
        if not 1 <= self.rank < self.channels:
            bad.append(f"rank={self.rank} (need 1 <= rank < channels)")
        if not self.branch_kernels:
            bad.append("branch_kernels is empty")
        for k in self.branch_kernels:
            if k < 1 or k % 2 == 0:
                bad.append(f"branch kernel {k} (need odd, >= 1)")
        if len(set(self.branch_kernels)) != len(self.branch_kernels):
            bad.append(f"branch_kernels={self.branch_kernels} repeats a size")
        if self.temperature <= 0:
            bad.append(f"temperature={self.temperature} (need > 0)")
        if self.gate_hidden < 0:
            bad.append(f"gate_hidden={self.gate_hidden} (need >= 0)")
        if self.lambda_focal < 0 or self.lambda_dice < 0 or self.lambda_cls < 0:
            bad.append("lambda_focal/lambda_dice/lambda_cls must be >= 0")
        if self.lambda_focal == 0 and self.lambda_dice == 0 and self.lambda_cls == 0:
            bad.append("at least one lambda must be positive")
        if self.focal_gamma < 0:
            bad.append("focal_gamma must be >= 0")
        if not 0.0 <= self.focal_alpha <= 1.0:
            bad.append("focal_alpha must lie in [0, 1]")
        if self.dice_smooth <= 0:
            bad.append("dice_smooth must be > 0")
        if self.lr <= 0:
            bad.append(f"lr={self.lr} (need > 0)")
        if self.steps < 0:
            bad.append(f"steps={self.steps} (need >= 0)")
        if self.batch_size < 1:
            bad.append(f"batch_size={self.batch_size} (need >= 1)")
        if not 0.0 <= self.anomaly_rate <= 1.0:
            bad.append(f"anomaly_rate={self.anomaly_rate} (need in [0,1])")
        if not 1 <= self.defect_min <= self.defect_max:
            bad.append(f"defect size range [{self.defect_min}, {self.defect_max}]")
        if self.defect_max > self.image_size:
            bad.append(f"defect_max={self.defect_max} exceeds image_size={self.image_size}")
        if not 0 < self.delta_min <= self.delta_max:
            bad.append(f"delta range [{self.delta_min}, {self.delta_max}]")
        if self.n_train < 1 or self.n_test < 1:
            bad.append(f"n_train={self.n_train}, n_test={self.n_test} (need >= 1)")
        if COMMENT.search(self.data_dir):
            bad.append(f"data_dir={self.data_dir!r} (a '#' at its start or after whitespace "
                       "would read back as a comment)")
        if self.data_dir != self.data_dir.strip():
            bad.append(f"data_dir={self.data_dir!r} (whitespace at either end would read back "
                       "stripped)")
        if self.texture not in ("noise", "sinusoid", "mixed"):
            bad.append(f"texture={self.texture!r} (noise|sinusoid|mixed)")
        bad += [f"{k}={v} (need >= 0)" for k in ("model_seed", "data_seed")
                if (v := getattr(self, k)) < 0]
        if bad:
            raise ConfigurationError("invalid config: " + "; ".join(bad))
        return self

    def echo_lines(self):
        """Deterministic key=value lines, sorted by key."""
        out = []
        for f in sorted(fields(self), key=lambda f: f.name):
            v = getattr(self, f.name)
            if f.name == "branch_kernels":
                v = ",".join(str(k) for k in v)
            out.append(f"{f.name} = {v}")
        return out


VALID_KEYS = sorted(f.name for f in fields(RunConfig))


BOOLEANS = (dict.fromkeys(("1", "true", "yes", "on"), True)
            | dict.fromkeys(("0", "false", "no", "off"), False))


def _coerce(key, raw):
    default = getattr(RunConfig(), key)
    try:
        if key == "branch_kernels":
            return tuple(int(p) for p in raw.replace("(", "").replace(")", "").split(",") if p.strip())
        if isinstance(default, bool):
            return BOOLEANS[raw.strip().lower()]
        return type(default)(raw)  # int, float or str
    except (KeyError, ValueError):
        kind = {bool: "boolean ", int: "integer ", float: "float "}.get(type(default), "")
        raise ConfigurationError(f"cannot parse {kind}{key} from {raw!r}")


def apply_overrides(cfg, overrides):
    """Apply a {key: raw-string-or-value} mapping onto a RunConfig copy."""
    values = {f.name: getattr(cfg, f.name) for f in fields(RunConfig)}
    for key, raw in overrides.items():
        if key not in values:
            raise ConfigurationError(
                f"unknown config key {key!r}; valid keys: {', '.join(VALID_KEYS)}")
        values[key] = _coerce(key, raw) if isinstance(raw, str) else raw
    return RunConfig(**values)


def parse_config_text(text):
    cfg_values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = COMMENT.split(line, 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = line.split("=", 1)
        cfg_values[key.strip()] = raw.strip()
    return apply_overrides(RunConfig(), cfg_values)
