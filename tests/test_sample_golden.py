"""Sample golden: the drawn index tuples of small fixed decompositions.

The digests pin every sampled X (all solves of two rounds, in order) for
both samplers at P=6 (a 3x2x1x1 grid, whose STS trees pad six rank leaves
to eight) and at P=8 (2x2x2x1), on the tensor and configuration of
``test_ledger_golden``.  The schedule does not enter the draws, so both
schedules must give the same digest.  Neither sampler's draws depend on
P: ARLS-LEV draws row counts over the whole factor and STS walks every
rank at once.  A change to either sampler's walk or streams shows here.
"""

import hashlib

import numpy as np
import pytest

from randcp.als import AlsConfig, run_als
from conftest import make_sparse

GOLDEN = {
    (6, "arls-lev"): "81c5f51af5a4a267614529df3fc4527dd53e625359a30a2171628784ab294310",
    (6, "sts"): "6238096352e48a524aaba4ae32fc926f7cf564afaaa3853736081179f8b238f5",
    (8, "arls-lev"): "81c5f51af5a4a267614529df3fc4527dd53e625359a30a2171628784ab294310",
    (8, "sts"): "6238096352e48a524aaba4ae32fc926f7cf564afaaa3853736081179f8b238f5",
}


@pytest.fixture(scope="module")
def tensor():
    return make_sparse((9, 7, 6, 5), 500, seed=21)


def sample_digest(tensor, P, sampler, schedule):
    cfg = AlsConfig(rank=4, rounds=2, sampler=sampler, samples=128, schedule=schedule,
                    procs=P, seed=5, permute=False, compute_fits=False,
                    record_samples=True)
    log = run_als(cfg, tensor=tensor).sample_log
    assert len(log) == 8   # 2 rounds x 4 modes
    digest = hashlib.sha256()
    for X in log:
        digest.update(np.ascontiguousarray(X, dtype=np.int64).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("schedule", ["tensor-stationary", "accumulator-stationary"])
@pytest.mark.parametrize("P, sampler", sorted(GOLDEN))
def test_sampled_rows_match_golden(tensor, P, sampler, schedule):
    assert sample_digest(tensor, P, sampler, schedule) == GOLDEN[(P, sampler)]


@pytest.mark.parametrize("schedule", ["tensor-stationary", "accumulator-stationary"])
@pytest.mark.parametrize("P", [1, 5, 6, 8])
def test_arls_lev_draws_do_not_depend_on_p(tensor, P, schedule):
    # P=1 keeps every factor in one block; P=5 is a 5x1x1x1 grid.
    assert sample_digest(tensor, P, "arls-lev", schedule) == GOLDEN[(6, "arls-lev")]


@pytest.mark.parametrize("schedule", ["tensor-stationary", "accumulator-stationary"])
@pytest.mark.parametrize("P", [1, 5, 6, 8])
def test_sts_draws_do_not_depend_on_p(tensor, P, schedule):
    # The tree steps run on no level (P=1), on padded trees (5, 6) and on a
    # full one (8); only the summation order of the masses changes.
    assert sample_digest(tensor, P, "sts", schedule) == GOLDEN[(6, "sts")]
