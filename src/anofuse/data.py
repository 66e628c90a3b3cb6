"""Synthetic anomaly corpus generation, portable-graymap I/O, and the
MVTec-style directory loader.

Images are grayscale, quantized to the 8-bit grid at generation time so a
write/read roundtrip through PGM files is lossless. Anomalous samples get
one rectangular or elliptical defect whose intensity shift is drawn
relative to the measured texture standard deviation, with the sign chosen
toward the side with more headroom so clipping cannot wash the defect out.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DatasetError
from .tensor import bilinear_matrix


@dataclass
class Sample:
    image: np.ndarray  # (H, W) float64 in [0, 1], multiples of 1/255
    mask: np.ndarray   # (H, W) uint8 in {0, 1}
    label: int         # 1 iff mask has any positive pixel
    id: str


# side lengths of the noise texture's random fields, upsampled to the image
NOISE_FIELDS = (4, 8)


def _texture(rng, size, family):
    """Zero-mean background pattern, later scaled to a target std."""
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    if family == "sinusoid":
        fy = rng.uniform(1.5, 4.0)
        fx = rng.uniform(1.5, 4.0)
        phy = rng.uniform(0, 2 * np.pi)
        phx = rng.uniform(0, 2 * np.pi)
        pat = np.sin(2 * np.pi * fy * yy / size + phy) * np.sin(2 * np.pi * fx * xx / size + phx)
        pat += 0.35 * rng.normal(size=(size, size))
        return pat
    # band-limited noise: coarse fields upsampled plus a fine component
    coarse, mid = ((bilinear_matrix((n, n), (size, size)) @ rng.normal(size=(n, n)).reshape(-1, 1))
                   .reshape(size, size) for n in NOISE_FIELDS)
    fine = rng.normal(size=(size, size))
    return 1.0 * coarse + 0.7 * mid + 0.35 * fine


def _defect_mask(rng, size, lo, hi):
    """One axis-aligned rectangle or ellipse, fully inside the image. With
    lo >= 1 the ellipse holds the pixel nearest its centre, so no mask is empty."""
    dh = int(rng.integers(lo, hi + 1))
    dw = int(rng.integers(lo, hi + 1))
    top = int(rng.integers(0, size - dh + 1))
    left = int(rng.integers(0, size - dw + 1))
    mask = np.zeros((size, size), dtype=np.uint8)
    if rng.uniform() < 0.5:
        mask[top:top + dh, left:left + dw] = 1
    else:
        cy, cx = top + (dh - 1) / 2.0, left + (dw - 1) / 2.0
        yy, xx = np.mgrid[0:size, 0:size]
        ell = ((yy - cy) / (dh / 2.0)) ** 2 + ((xx - cx) / (dw / 2.0)) ** 2 <= 1.0
        mask[ell] = 1
    return mask


TEXTURE_STD = 0.07


def gen_synthetic(config, seed, n, prefix="s"):
    """Deterministic synthetic corpus; `config` supplies the data knobs."""
    rng = np.random.default_rng(seed)
    size = config.image_size
    samples = []
    for i in range(n):
        if config.texture == "mixed":
            family = "noise" if rng.uniform() < 0.5 else "sinusoid"
        else:
            family = config.texture
        pat = _texture(rng, size, family)
        pat = (pat - pat.mean()) / max(pat.std(), 1e-9) * TEXTURE_STD
        pat = np.clip(pat, -3.5 * TEXTURE_STD, 3.5 * TEXTURE_STD)
        img = 0.5 + pat
        sigma = img.std()
        anomalous = rng.uniform() < config.anomaly_rate
        mask = np.zeros((size, size), dtype=np.uint8)
        if anomalous:
            mask = _defect_mask(rng, size, config.defect_min, config.defect_max)
            delta = rng.uniform(config.delta_min, config.delta_max) * sigma
            region = mask.astype(bool)
            base_mean = img.mean()
            sign = 1.0 if base_mean <= 0.5 else -1.0
            # land the region mean `delta` away from the background mean, so
            # local texture deviations cannot eat into the separability margin
            shift = base_mean + sign * delta - img[region].mean()
            img = img + shift * mask
        img = np.clip(img, 0.0, 1.0)
        img = np.round(img * 255.0) / 255.0
        samples.append(Sample(image=img, mask=mask, label=int(anomalous),
                              id=f"{prefix}_{i:04d}"))
    return samples


def get_corpora(config):
    """(train, test) sample lists, from disk when data_dir is set.

    A split on disk without images, or an image that is not image_size
    pixels square, raises DatasetError naming the directory or the file.
    """
    if config.data_dir:
        corpora = (load_dataset(config.data_dir, "train"),
                   load_dataset(config.data_dir, "test"))
        size = config.image_size
        for split, samples in zip(("train", "test"), corpora):
            if not samples:
                raise DatasetError(f"{Path(config.data_dir) / split} holds no images")
            for s in samples:
                if s.image.shape != (size, size):
                    path = (Path(config.data_dir) / split / ("defect" if s.label else "good")
                            / f"{s.id}.pgm")
                    raise DatasetError(f"{path} is {s.image.shape[1]}x{s.image.shape[0]} "
                                       f"pixels, config image_size is {size}")
        return corpora
    return synthetic_corpora(config)


def synthetic_corpora(config):
    """The synthetic (train, test) split: seeds data_seed and data_seed + 1."""
    return (gen_synthetic(config, config.data_seed, config.n_train, prefix="train"),
            gen_synthetic(config, config.data_seed + 1, config.n_test, prefix="test"))


# ---------------------------------------------------------------------------
# portable graymaps


def write_pgm(path, array, maxval=255):
    """Binary P5 graymap; 16-bit data is written big-endian per the format."""
    arr = np.asarray(array)
    if arr.ndim != 2:
        raise DatasetError(f"can only write 2-D graymaps, got shape {arr.shape}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n{maxval}\n".encode()
    if maxval < 256:
        payload = arr.astype(np.uint8).tobytes()
    else:
        payload = arr.astype(">u2").tobytes()
    path.write_bytes(header + payload)


def read_pgm(path):
    """Parse a binary P5 graymap; malformed files raise DatasetError."""
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise DatasetError(f"cannot read graymap {path}: {exc}")
    if not blob.startswith(b"P5"):
        raise DatasetError(f"corrupt graymap header in {path}: not a P5 file")
    # header = magic + 3 integers, whitespace separated, '#' comments allowed
    pos, fields = 2, []
    while len(fields) < 3:
        m = re.compile(rb"\s*(#[^\n]*\n)*\s*(\d+)").match(blob, pos)
        if not m:
            raise DatasetError(f"corrupt graymap header in {path}")
        fields.append(int(m.group(2)))
        pos = m.end()
    width, height, maxval = fields
    if not 1 <= maxval <= 65535:
        raise DatasetError(f"graymap {path} has maxval {maxval} (need 1..65535)")
    pos += 1  # single whitespace byte after maxval
    dtype = np.dtype(np.uint8) if maxval < 256 else np.dtype(">u2")
    count = width * height
    if len(blob) - pos < count * dtype.itemsize:
        raise DatasetError(f"truncated graymap data in {path}")
    data = np.frombuffer(blob, dtype=dtype, count=count, offset=pos)
    if (data > maxval).any():
        raise DatasetError(f"graymap {path} holds value {data.max()} above its maxval {maxval}")
    return data.reshape(height, width).astype(np.int64), maxval


# ---------------------------------------------------------------------------
# dataset directory layout


def export_dataset(root, split_samples):
    """Write {split: samples} as <root>/<split>/{good|defect}/<id>.pgm with
    masks under <root>/ground_truth/defect/<id>_mask.pgm."""
    root = Path(root)
    for split, samples in split_samples.items():
        for s in samples:
            sub = "defect" if s.label else "good"
            write_pgm(root / split / sub / f"{s.id}.pgm",
                      np.round(s.image * 255.0).astype(np.uint8))
            if s.label:
                write_pgm(root / "ground_truth" / "defect" / f"{s.id}_mask.pgm",
                          s.mask * 255)


def load_dataset(root, split="test"):
    """Load one split; good images get zero masks, and each defect needs a mask
    that marks some pixel above half the mask's maxval."""
    root = Path(root)
    split_dir = root / split
    if not split_dir.is_dir():
        raise DatasetError(f"no split directory {split_dir}")
    samples = []
    for sub, label in (("good", 0), ("defect", 1)):
        folder = split_dir / sub
        if not folder.is_dir():
            continue
        for path in sorted(folder.glob("*.pgm")):
            sample_id = path.stem
            if label and (split_dir / "good" / path.name).exists():
                raise DatasetError(f"{split_dir}: {path.name} is in both good/ and defect/")
            arr, maxval = read_pgm(path)
            image = arr.astype(np.float64) / maxval
            if label:
                mask_path = root / "ground_truth" / "defect" / f"{sample_id}_mask.pgm"
                if not mask_path.exists():
                    raise DatasetError(f"defect image {sample_id!r} has no mask at {mask_path}")
                mraw, mmax = read_pgm(mask_path)
                if mraw.shape != arr.shape:
                    raise DatasetError(f"mask {mask_path} is {mraw.shape[1]}x{mraw.shape[0]} "
                                       f"pixels, its image is {arr.shape[1]}x{arr.shape[0]}")
                mask = (2 * mraw > mmax).astype(np.uint8)  # above half its own maxval
                if not mask.any():
                    raise DatasetError(f"mask {mask_path} of a defect image marks no pixel "
                                       f"above half its maxval {mmax}")
            else:
                mask = np.zeros_like(arr, dtype=np.uint8)
            samples.append(Sample(image=image, mask=mask, label=label, id=sample_id))
    samples.sort(key=lambda s: s.id)
    return samples


def batch_arrays(samples):
    """Stack samples into (B,1,H,W) images, (B,H,W) masks, (B,) labels."""
    images = np.stack([s.image for s in samples])[:, None, :, :]
    masks = np.stack([s.mask for s in samples]).astype(np.float64)
    labels = np.array([s.label for s in samples], dtype=np.int64)
    return images, masks, labels
