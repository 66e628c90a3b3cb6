"""Synthetic anomaly corpus generation, portable-graymap I/O, and the
MVTec-style directory loader.

Images are grayscale, quantized to the 8-bit grid at generation time so a
write/read roundtrip through PGM files is lossless. Anomalous samples get
one rectangular or elliptical defect whose intensity shift is drawn
relative to the measured texture standard deviation, with the sign chosen
toward the side with more headroom so clipping cannot wash the defect out.

The per-image sequence of RNG draws is the corpus contract: the arithmetic
around the draws may move (it calls numpy's C entry points, as the hot
path does), the draws may not. `gen_synthetic` makes the draws image by
image and runs the arithmetic on a chunk of images at a time; each noise
field is still upsampled by one matrix-vector product per image.
`tests/test_corpus_pin.py` pins the bytes.
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
TEXTURE_STD = 0.07
# bytes of one float64 chunk array: below glibc's default 128 KiB mmap
# threshold, so no chunk maps pages in and freeing one cannot raise it
CHUNK_BYTES = 120 * 1024


def _chunk_len(size):
    """Images per chunk of `gen_synthetic` at size x size pixels."""
    return max(1, CHUNK_BYTES // (8 * size * size))


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
        xx = np.arange(size)
        ell = ((xx.reshape(size, 1) - cy) / (dh / 2.0)) ** 2 + ((xx - cx) / (dw / 2.0)) ** 2 <= 1.0
        mask[ell] = 1
    return mask


def _mean_std(x):
    """Per row of the (m, P) rows x, (x[i].mean(), x[i].std()) as (m, 1)
    columns, with the bits numpy gives them, without its wrappers."""
    n = x.shape[1]
    mean = np.add.reduce(x, 1, keepdims=True) / n
    dev = x - mean
    return mean, np.sqrt(np.add.reduce(np.square(dev, out=dev), 1, keepdims=True) / n)


def _draw_chunk(rng, config, m):
    """The RNG draws of m images, image after image in the corpus order:
    family, texture, anomaly, then the defect mask and its shift. Returns
    each image's family, the sinusoids' (fy, fx, phy, phx) and the noise
    fields in image order, the (m, H, W) fine components and defect masks,
    and the anomalous images' shift draws by image index."""
    size = config.image_size
    noise, waves, fields = [], [], tuple([] for _ in NOISE_FIELDS)
    fine = np.empty((m, size, size))
    masks = np.zeros((m, size, size), dtype=np.uint8)
    deltas = {}
    for j in range(m):
        family = config.texture
        if family == "mixed":
            family = "noise" if rng.uniform() < 0.5 else "sinusoid"
        noise.append(family == "noise")
        if family == "sinusoid":
            waves.append((rng.uniform(1.5, 4.0), rng.uniform(1.5, 4.0),
                          rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi)))
        else:
            for field, n in zip(fields, NOISE_FIELDS):
                field.append(rng.normal(size=(n, n)).reshape(n * n, 1))
        fine[j] = rng.normal(size=(size, size))
        if rng.uniform() < config.anomaly_rate:
            masks[j] = _defect_mask(rng, size, config.defect_min, config.defect_max)
            deltas[j] = rng.uniform(config.delta_min, config.delta_max)
    return np.array(noise), waves, fields, fine, masks, deltas


def _textures(noise, waves, fields, fine):
    """(m, H*W) zero-mean background patterns, later scaled to a target std,
    written over `fine`: a sinusoid product, or band-limited noise
    coarse + 0.7 * mid of the two fields (each upsampled by one
    matrix-vector product per image), plus 0.35 * fine."""
    m, size = fine.shape[:2]
    pats = fine.reshape(m, -1)
    pats *= 0.35
    if waves:
        k = len(waves)
        yy = np.arange(size, dtype=np.float64)
        fy, fx, phy, phx = np.array(waves).T.reshape(4, k, 1)
        sines = (np.sin(2 * np.pi * fy * yy / size + phy).reshape(k, size, 1)
                 * np.sin(2 * np.pi * fx * yy / size + phx).reshape(k, 1, size))
        pats[~noise] += sines.reshape(k, -1)
    if fields[0]:
        coarse, mid = (np.matmul(bilinear_matrix((n, n), (size, size)), np.array(field))
                       for field, n in zip(fields, NOISE_FIELDS))
        mid *= 0.7
        mid += coarse
        pats[noise] += mid.reshape(len(mid), -1)
    return pats


def _render_chunk(noise, waves, fields, fine, masks, deltas):
    """(m, H, W) images of `_draw_chunk`'s draws: the texture scaled to
    TEXTURE_STD around 0.5, each defect's region shifted, quantized to 8 bits.
    Only a defect's region mean is taken one image at a time."""
    m, size = fine.shape[:2]
    img = _textures(noise, waves, fields, fine)
    mean, std = _mean_std(img)
    img -= mean
    img /= np.maximum(std, 1e-9)
    img *= TEXTURE_STD
    np.maximum(img, -3.5 * TEXTURE_STD, out=img)
    np.minimum(img, 3.5 * TEXTURE_STD, out=img)
    img += 0.5
    if deltas:
        base_mean, sigma = _mean_std(img)
        flat = masks.reshape(m, -1)
        shift = np.zeros((m, 1))
        for j, u in deltas.items():
            region = img[j][flat[j].view(bool)]
            # land the region mean `delta` away from the background mean, so
            # local texture deviations cannot eat into the separability
            # margin; the sign points toward the side with more headroom
            sign = 1.0 if base_mean[j, 0] <= 0.5 else -1.0
            delta = u * sigma[j, 0]
            shift[j] = base_mean[j, 0] + sign * delta - np.add.reduce(region) / region.size
        # img + shift * mask, as one image at a time, changes only masked pixels
        np.add(img, shift, out=img, where=flat.view(bool))
    np.maximum(img, 0.0, out=img)
    np.minimum(img, 1.0, out=img)
    img *= 255.0
    np.rint(img, out=img)
    img /= 255.0
    return img.reshape(m, size, size)


def gen_synthetic(config, seed, n, prefix="s"):
    """Deterministic synthetic corpus; `config` supplies the data knobs.
    Each sample's arrays are views of its chunk's arrays."""
    rng = np.random.default_rng(seed)
    per_chunk = _chunk_len(config.image_size)
    samples = []
    for start in range(0, n, per_chunk):
        noise, waves, fields, fine, masks, deltas = _draw_chunk(rng, config,
                                                                min(per_chunk, n - start))
        images = _render_chunk(noise, waves, fields, fine, masks, deltas)
        samples.extend(Sample(image=images[j], mask=masks[j], label=int(j in deltas),
                              id=f"{prefix}_{start + j:04d}") for j in range(len(images)))
    return samples


def get_split(config, split):
    """One split's samples: <data_dir>/<split> when data_dir is set, else
    generated, the training split from data_seed and the test split from
    data_seed + 1."""
    if config.data_dir:
        return load_dataset(config.data_dir, split, config.image_size)
    if split == "train":
        return gen_synthetic(config, config.data_seed, config.n_train, prefix="train")
    return gen_synthetic(config, config.data_seed + 1, config.n_test, prefix="test")


def get_corpora(config):
    """The (train, test) pair of `get_split`."""
    return get_split(config, "train"), get_split(config, "test")


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
    extra = len(blob) - pos - count * dtype.itemsize
    if extra < 0:
        raise DatasetError(f"truncated graymap data in {path}")
    if extra:
        raise DatasetError(f"graymap {path} has {extra} bytes after its image data")
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


def load_dataset(root, split, size):
    """Load one split of size x size images; good images get zero masks, and
    each defect needs a mask that marks some pixel above half the mask's
    maxval. A split without images, or an image of another size, raises
    DatasetError naming the directory or the file."""
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
            if arr.shape != (size, size):
                raise DatasetError(f"{path} is {arr.shape[1]}x{arr.shape[0]} pixels, "
                                   f"config image_size is {size}")
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
    if not samples:
        raise DatasetError(f"{split_dir} holds no images")
    samples.sort(key=lambda s: s.id)
    return samples


def batch_arrays(samples):
    """Stack samples into (B,H,W) images, (B,H,W) masks, (B,) labels."""
    images = np.concatenate([s.image[None] for s in samples])
    masks = np.concatenate([s.mask[None] for s in samples]).astype(np.float64)
    labels = np.array([s.label for s in samples], dtype=np.int64)
    return images, masks, labels
