import numpy as np
import pytest

from anofuse.config import RunConfig
from anofuse.data import get_corpora
from anofuse.errors import TrainingError
from anofuse.train import _batch_indices, train


def test_diverging_run_keeps_trace_and_parameter_snapshot():
    cfg = RunConfig(n_groups=2, channels=8, heads=2, rank=2, gate_hidden=2,
                    branch_kernels=(3,), patch_size=8, image_size=16, defect_min=3,
                    defect_max=8, steps=20, batch_size=2, n_train=6, n_test=4)
    train_s, test_s = get_corpora(cfg)
    # poison a sample that the first batch does not draw, so one step succeeds
    first = next(_batch_indices(len(train_s), cfg.batch_size,
                                np.random.default_rng(cfg.data_seed + 10_000)))
    poisoned = min(set(range(len(train_s))) - set(first.tolist()))
    train_s[poisoned].image[3, 5] = np.nan
    with pytest.raises(TrainingError) as err:
        train(cfg, corpora=(train_s, test_s))
    assert err.value.trace
    assert err.value.snapshot
    assert all(np.isfinite(p).all() for p in err.value.snapshot.values())
