import numpy as np
import pytest

from anofuse.config import RunConfig
from anofuse.data import (Sample, _chunk_len, _defect_mask, _mean_std, batch_arrays,
                          export_dataset, gen_synthetic, get_corpora, load_dataset, read_pgm,
                          write_pgm)
from anofuse.errors import DatasetError


def data_config(**kw):
    base = dict(image_size=32, n_train=30, n_test=10, anomaly_rate=0.5,
                defect_min=4, defect_max=12)
    base.update(kw)
    return RunConfig(**base)


def test_gen_is_deterministic():
    cfg = data_config()
    a = gen_synthetic(cfg, seed=5, n=20)
    b = gen_synthetic(cfg, seed=5, n=20)
    for s, t in zip(a, b):
        assert s.id == t.id and s.label == t.label
        np.testing.assert_array_equal(s.image, t.image)
        np.testing.assert_array_equal(s.mask, t.mask)
    c = gen_synthetic(cfg, seed=6, n=20)
    assert any((s.image != t.image).any() for s, t in zip(a, c))


@pytest.mark.parametrize("texture", ["noise", "sinusoid", "mixed"])
@pytest.mark.parametrize("size", [16, 32, 64])
def test_chunk_boundaries_keep_the_draws_in_order(texture, size):
    """A corpus of n images is the first n of a longer one, byte for byte,
    whether n ends inside a chunk, on its boundary or just past it."""
    cfg = data_config(image_size=size, texture=texture)
    c = _chunk_len(size)
    longer = gen_synthetic(cfg, seed=19, n=2 * c + 3)
    assert [s.id for s in longer] == [f"s_{i:04d}" for i in range(2 * c + 3)]
    assert len({s.image.tobytes() for s in longer}) == len(longer)  # no image is repeated
    for n in (1, c - 1, c, c + 1, 2 * c + 1):
        samples = gen_synthetic(cfg, seed=19, n=n)
        assert len(samples) == n
        for s, t in zip(samples, longer):
            assert (s.id, s.label) == (t.id, t.label)
            assert s.image.dtype == np.float64 and s.mask.dtype == np.uint8
            assert s.image.tobytes() == t.image.tobytes() and s.mask.tobytes() == t.mask.tobytes()


@pytest.mark.parametrize("shape", [(16, 16), (32, 32), (64, 64), (7, 300), (15, 1024), (1, 256)])
def test_mean_std_equals_the_ndarray_methods_bitwise(shape):
    rng = np.random.default_rng(40)
    # magnitudes over many decades, so another summation order would show
    x = 0.5 + rng.normal(size=shape) * np.exp(3.0 * rng.normal(size=shape))
    mean, std = _mean_std(x)
    assert mean.shape == std.shape == (shape[0], 1)
    assert mean.dtype == std.dtype == np.float64
    for i, row in enumerate(x):
        assert (mean[i, 0], std[i, 0]) == (row.mean(), row.std())


def test_anomaly_rate_zero_gives_clean_corpus():
    cfg = data_config(anomaly_rate=0.0)
    for s in gen_synthetic(cfg, seed=1, n=15):
        assert s.label == 0 and s.mask.sum() == 0


def test_label_matches_mask_presence():
    # and every mask is 0/1, the targets that `losses.focal_fwd` takes
    for texture in ("noise", "sinusoid", "mixed"):
        for s in gen_synthetic(data_config(texture=texture), seed=2, n=40):
            assert s.label == int(s.mask.any())
            assert ((s.mask == 0) | (s.mask == 1)).all()


def test_defect_bounding_box_census():
    cfg = data_config(defect_min=5, defect_max=9)
    anomalous = [s for s in gen_synthetic(cfg, seed=3, n=60) if s.label]
    assert anomalous
    for s in anomalous:
        rows = np.nonzero(s.mask.any(axis=1))[0]
        cols = np.nonzero(s.mask.any(axis=0))[0]
        dh = rows[-1] - rows[0] + 1
        dw = cols[-1] - cols[0] + 1
        assert 1 <= dh <= 9 and 1 <= dw <= 9
        assert s.mask.sum() >= 0.4 * dh * dw  # solid shape, not scattered dust


def test_defect_mask_is_never_empty():
    size = RunConfig().image_size
    for d in range(1, size + 1):
        sums = {int(_defect_mask(np.random.default_rng(seed), size, d, d).sum())
                for seed in range(16)}
        assert min(sums) > 0, d
        # up to d = 3 the ellipse fills its box; from d = 4 on it has fewer
        # pixels, so both sums show that both shapes were drawn
        if d >= 4:
            assert d * d in sums and min(sums) < d * d, d


def test_defect_is_statistically_separable():
    cfg = data_config()
    for s in gen_synthetic(cfg, seed=4, n=60):
        if not s.label:
            continue
        defect = s.image[s.mask.astype(bool)]
        bg = s.image[~s.mask.astype(bool)]
        assert abs(defect.mean() - bg.mean()) >= 2.5 * bg.std()


def test_images_are_quantized_to_8bit_grid():
    cfg = data_config()
    for s in gen_synthetic(cfg, seed=7, n=10):
        scaled = s.image * 255.0
        np.testing.assert_allclose(scaled, np.round(scaled), atol=1e-9)
        assert s.image.min() >= 0.0 and s.image.max() <= 1.0


def test_texture_families():
    for texture in ("noise", "sinusoid", "mixed"):
        cfg = data_config(texture=texture)
        samples = gen_synthetic(cfg, seed=8, n=6)
        assert len(samples) == 6


# ---------------------------------------------------------------------------
# graymap io


def test_pgm_roundtrip_8bit(tmp_path):
    rng = np.random.default_rng(9)
    arr = rng.integers(0, 256, (7, 5)).astype(np.uint8)
    path = tmp_path / "x.pgm"
    write_pgm(path, arr, maxval=255)
    back, maxval = read_pgm(path)
    assert maxval == 255
    np.testing.assert_array_equal(back, arr)


def test_pgm_roundtrip_16bit_big_endian(tmp_path):
    arr = np.array([[0, 1, 65535], [258, 770, 4]], dtype=np.uint16)
    path = tmp_path / "y.pgm"
    write_pgm(path, arr, maxval=65535)
    blob = path.read_bytes()
    # 258 = 0x0102 must serialize high byte first
    payload = blob.split(b"65535\n", 1)[1]
    assert payload[6:8] == b"\x01\x02"
    back, maxval = read_pgm(path)
    assert maxval == 65535
    np.testing.assert_array_equal(back, arr)


def test_pgm_corrupt_header_names_path(tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P6\n2 2\n255\n\x00\x00\x00\x00")
    with pytest.raises(DatasetError) as err:
        read_pgm(bad)
    assert "bad.pgm" in str(err.value)


@pytest.mark.parametrize("make,message", [
    (lambda path: path.mkdir(), "cannot read graymap {path}: "),
    (lambda path: path.write_bytes(b"P5\n2 x\n255\n" + bytes(4)),
     "corrupt graymap header in {path}"),
], ids=["directory", "header_after_magic"])
def test_unreadable_or_corrupt_graymap_names_the_file(tmp_path, make, message):
    path = tmp_path / "x.pgm"
    make(path)
    with pytest.raises(DatasetError) as err:
        read_pgm(path)
    assert str(err.value).startswith(message.format(path=path))


def test_pgm_truncated_data_rejected(tmp_path):
    bad = tmp_path / "short.pgm"
    bad.write_bytes(b"P5\n4 4\n255\n\x00\x01")
    with pytest.raises(DatasetError) as err:
        read_pgm(bad)
    assert "short.pgm" in str(err.value)


def test_pgm_bytes_after_the_data_rejected(tmp_path):
    # a CRLF header leaves the LF as the first data byte and one byte over
    bad = tmp_path / "crlf.pgm"
    bad.write_bytes(b"P5\r\n2 2\r\n255\r\n" + bytes([10, 20, 30, 40]))
    with pytest.raises(DatasetError) as err:
        read_pgm(bad)
    assert str(err.value) == f"graymap {bad} has 1 bytes after its image data"


@pytest.mark.parametrize("maxval", [0, 65536])
def test_pgm_maxval_outside_pgm_range_rejected(tmp_path, maxval):
    bad = tmp_path / "flat.pgm"
    bad.write_bytes(b"P5\n2 2\n%d\n" % maxval + bytes(8))
    with pytest.raises(DatasetError) as err:
        read_pgm(bad)
    assert "flat.pgm" in str(err.value) and f"maxval {maxval}" in str(err.value)


def test_pgm_value_above_maxval_rejected(tmp_path):
    bad = tmp_path / "hot.pgm"
    bad.write_bytes(b"P5 2 2 10\n" + bytes([0, 10, 200, 255]))
    with pytest.raises(DatasetError) as err:
        read_pgm(bad)
    assert str(err.value) == f"graymap {bad} holds value 255 above its maxval 10"


# ---------------------------------------------------------------------------
# dataset tree


def one_defect_with_mask(root, mask, maxval):
    """Export one defect sample, then replace its mask file with `mask`."""
    sample = gen_synthetic(data_config(anomaly_rate=1.0), seed=16, n=1, prefix="test")[0]
    export_dataset(root, {"test": [sample]})
    path = root / "ground_truth" / "defect" / f"{sample.id}_mask.pgm"
    write_pgm(path, mask, maxval=maxval)
    return path


@pytest.mark.parametrize("maxval", [1, 255, 65535])
def test_mask_threshold_is_half_its_maxval(tmp_path, maxval):
    mask = np.zeros((32, 32), dtype=np.int64)
    mask[4:8, 10:14] = maxval  # a 4x4 defect
    mask[20, :] = maxval // 2  # at or below half the maxval: not marked
    mask[21, :] = maxval // 2 + 1
    one_defect_with_mask(tmp_path, mask, maxval)
    (loaded,) = load_dataset(tmp_path, "test", 32)
    want = np.zeros((32, 32), dtype=np.uint8)
    want[4:8, 10:14] = want[21, :] = 1
    assert loaded.label == 1
    np.testing.assert_array_equal(loaded.mask, want)


@pytest.mark.parametrize("maxval", [1, 255])
def test_defect_mask_marking_no_pixel_names_the_file(tmp_path, maxval):
    path = one_defect_with_mask(tmp_path, np.full((32, 32), maxval // 2), maxval)
    with pytest.raises(DatasetError) as err:
        load_dataset(tmp_path, "test", 32)
    assert str(err.value) == (f"mask {path} of a defect image marks no pixel above half its "
                              f"maxval {maxval}")


def test_mask_of_another_size_than_its_image_names_the_file(tmp_path):
    path = one_defect_with_mask(tmp_path, np.ones((16, 16), dtype=np.int64), 255)
    with pytest.raises(DatasetError) as err:
        load_dataset(tmp_path, "test", 32)
    assert str(err.value) == f"mask {path} is 16x16 pixels, its image is 32x32"


def test_export_then_load_roundtrip(tmp_path):
    cfg = data_config()
    train = gen_synthetic(cfg, seed=10, n=12, prefix="train")
    test = gen_synthetic(cfg, seed=11, n=8, prefix="test")
    export_dataset(tmp_path, {"train": train, "test": test})
    for split, originals in (("train", train), ("test", test)):
        loaded = load_dataset(tmp_path, split, 32)
        assert [s.id for s in loaded] == sorted(s.id for s in originals)
        by_id = {s.id: s for s in originals}
        for s in loaded:
            orig = by_id[s.id]
            np.testing.assert_array_equal(s.image, orig.image)
            np.testing.assert_array_equal(s.mask, orig.mask)
            assert s.label == orig.label


def test_load_empty_defect_folder_is_all_normal(tmp_path):
    cfg = data_config(anomaly_rate=0.0)
    clean = gen_synthetic(cfg, seed=12, n=5, prefix="test")
    export_dataset(tmp_path, {"test": clean})
    loaded = load_dataset(tmp_path, "test", 32)
    assert len(loaded) == 5 and all(s.label == 0 for s in loaded)


def test_load_missing_mask_names_id(tmp_path):
    cfg = data_config(anomaly_rate=1.0)
    bad = gen_synthetic(cfg, seed=13, n=2, prefix="test")
    export_dataset(tmp_path, {"test": bad})
    victim = bad[0].id
    (tmp_path / "ground_truth" / "defect" / f"{victim}_mask.pgm").unlink()
    with pytest.raises(DatasetError) as err:
        load_dataset(tmp_path, "test", 32)
    assert victim in str(err.value)


def test_load_sample_id_in_good_and_defect_names_the_file(tmp_path):
    # one id in both folders would give two samples, and two exported maps,
    # under one name
    good = gen_synthetic(data_config(anomaly_rate=0.0), seed=14, n=2, prefix="x")
    bad = gen_synthetic(data_config(anomaly_rate=1.0), seed=15, n=2, prefix="x")
    export_dataset(tmp_path, {"test": good + bad})
    with pytest.raises(DatasetError) as err:
        load_dataset(tmp_path, "test", 32)
    assert str(err.value) == f"{tmp_path / 'test'}: x_0000.pgm is in both good/ and defect/"


def test_load_missing_split_dir(tmp_path):
    with pytest.raises(DatasetError):
        load_dataset(tmp_path, "test", 32)


def test_load_image_of_another_size_names_the_file(tmp_path):
    clean = gen_synthetic(data_config(anomaly_rate=0.0), seed=17, n=3, prefix="test")
    export_dataset(tmp_path, {"test": clean})
    path = tmp_path / "test" / "good" / f"{clean[1].id}.pgm"
    write_pgm(path, np.zeros((16, 24), dtype=np.uint8))
    with pytest.raises(DatasetError) as err:
        load_dataset(tmp_path, "test", 32)
    assert str(err.value) == f"{path} is 24x16 pixels, config image_size is 32"


def test_load_split_without_images_names_the_directory(tmp_path):
    export_dataset(tmp_path, {"test": gen_synthetic(data_config(), seed=18, n=4, prefix="test")})
    for path in (tmp_path / "test").rglob("*.pgm"):
        path.rename(path.with_suffix(".png"))
    assert (tmp_path / "test" / "good").is_dir() and (tmp_path / "test" / "defect").is_dir()
    with pytest.raises(DatasetError) as err:
        load_dataset(tmp_path, "test", 32)
    assert str(err.value) == f"{tmp_path / 'test'} holds no images"


def test_get_corpora_disjoint_seeds():
    cfg = data_config(n_train=6, n_test=4)
    train, test = get_corpora(cfg)
    assert len(train) == 6 and len(test) == 4
    assert {s.id.split("_")[0] for s in train} == {"train"}
    assert {s.id.split("_")[0] for s in test} == {"test"}


def test_batch_arrays_shapes():
    cfg = data_config()
    samples = gen_synthetic(cfg, seed=14, n=3)
    images, masks, labels = batch_arrays(samples)
    assert images.shape == (3, 32, 32)
    assert masks.shape == (3, 32, 32)
    assert labels.shape == (3,)
    assert images.dtype == np.float64 and masks.dtype == np.float64
    assert np.array_equal(images, np.stack([s.image for s in samples]))
    assert np.array_equal(masks, np.stack([s.mask for s in samples]).astype(np.float64))
    assert np.array_equal(labels, [s.label for s in samples])
