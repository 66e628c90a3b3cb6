"""Byte pins of the synthetic corpora.

Without a data_dir, `data.get_split` generates a split each time a command
reads it, so any change to `data.gen_synthetic` or the functions it calls
must keep the splits byte-identical: the RNG draws, made image by image,
are the contract, and the arithmetic around them, run a chunk of images at
a time, may only move if it gives the same bits. Each pin hashes both
splits, sample by sample: the image as little-endian float64, the uint8
mask, the label and the id.

The pins belong to the numpy/BLAS build they were generated with: the
noise texture upsamples its random fields through a matrix-vector product
per image.
"""

import hashlib

import numpy as np
import pytest

from anofuse.config import RunConfig
from anofuse.data import get_corpora

CORPUS_SHA256 = {
    "mixed": "8ffbce032199e277110ad6f04ca442fef22200670fb7b0174bacc447155c3172",
    "noise": "596d2099f765b683cda56ab476cae3a4a3d7b9cd2c112bc0479fb941c302147b",
    "sinusoid": "6f04273789e10d39176ae7bb32897bbd259b728eff919ccaca17aef3f3c28d01",
    # defects of 2-4 pixels on a 16 px image reach the border on both shapes
    "16px-defects-2-4": "93c23e8eb60cd0defca6819a95143d34bf56b05206bc1917c595e65b3208a313",
    "64px": "c42b9200f52901beddfff228892ef3ec0d44b55c415ad2c374956b7cf1d74132",
}

CONFIGS = {
    "mixed": dict(texture="mixed"),
    "noise": dict(texture="noise"),
    "sinusoid": dict(texture="sinusoid"),
    "16px-defects-2-4": dict(image_size=16, defect_min=2, defect_max=4),
    "64px": dict(image_size=64),
}


def corpus_sha(corpora):
    h = hashlib.sha256()
    for samples in corpora:
        for s in samples:
            h.update(s.image.astype("<f8").tobytes())
            h.update(s.mask.astype(np.uint8).tobytes())
            h.update(f"{s.label} {s.id}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_corpus_bytes_are_pinned(name):
    corpora = get_corpora(RunConfig(**CONFIGS[name]))
    for samples in corpora:
        for s in samples:
            assert s.image.dtype == np.float64 and s.mask.dtype == np.uint8
    assert corpus_sha(corpora) == CORPUS_SHA256[name]


def test_small_defect_config_puts_an_ellipse_on_the_border():
    """The 16 px pin covers the ellipse branch at the image edge: some mask
    is not its own bounding box and touches a border row or column."""
    found = False
    for samples in get_corpora(RunConfig(**CONFIGS["16px-defects-2-4"])):
        for s in samples:
            rows, cols = np.nonzero(s.mask)
            if not rows.size:
                continue
            box = (rows.max() - rows.min() + 1) * (cols.max() - cols.min() + 1)
            edge = rows.min() == 0 or cols.min() == 0 or rows.max() == 15 or cols.max() == 15
            found |= bool(box > rows.size and edge)
    assert found
