from dataclasses import replace

import pytest

from anofuse.ablation import ABLATION_ROWS
from anofuse.config import RunConfig, apply_overrides
from anofuse.model import build_model
from test_golden import TINY

TINY_CONFIG = apply_overrides(RunConfig(), dict(zip((k[2:] for k in TINY[::2]), TINY[1::2])))


@pytest.mark.parametrize("config", [RunConfig(), TINY_CONFIG], ids=["default", "tiny"])
def test_each_component_adds_trainable_parameters(config):
    count = {label: build_model(replace(config, conv_lora_on=conv, dfg_on=dfg)).trainable_count()
             for label, conv, dfg in ABLATION_ROWS}
    assert count["baseline"] < count["conv_lora"] < count["full"]
    assert count["baseline"] < count["dfg"] < count["full"]
