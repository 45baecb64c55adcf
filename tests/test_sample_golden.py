"""Sample golden: the drawn index tuples of small fixed decompositions.

The digests pin every sampled X (all solves of two rounds, in order) for
both samplers at P=6 (a 3x2x1x1 grid, whose STS trees pad six rank leaves
to eight) and at P=8 (2x2x2x1), on the tensor and configuration of
``test_ledger_golden``.  The schedule does not enter the draws, so both
schedules must give the same digest; the STS draws do not depend on P
either.  A change to either sampler's walk, streams or split shows here.
"""

import hashlib

import numpy as np
import pytest

from randcp.als import AlsConfig, run_als
from conftest import make_sparse

GOLDEN = {
    (6, "arls-lev"): "51c2ae765239e782d860b639443a94b5826fdce96aed314ebb9c9e9fe88dffa0",
    (6, "sts"): "6238096352e48a524aaba4ae32fc926f7cf564afaaa3853736081179f8b238f5",
    (8, "arls-lev"): "68c553baa76c5392bfa299c5d8c73d2bc73e3fd28e61ee012158d193f464e643",
    (8, "sts"): "6238096352e48a524aaba4ae32fc926f7cf564afaaa3853736081179f8b238f5",
}


@pytest.fixture(scope="module")
def tensor():
    return make_sparse((9, 7, 6, 5), 500, seed=21)


@pytest.mark.parametrize("schedule", ["tensor-stationary", "accumulator-stationary"])
@pytest.mark.parametrize("P, sampler", sorted(GOLDEN))
def test_sampled_rows_match_golden(tensor, P, sampler, schedule):
    cfg = AlsConfig(rank=4, rounds=2, sampler=sampler, samples=128, schedule=schedule,
                    procs=P, seed=5, permute=False, compute_fits=False,
                    record_samples=True)
    log = run_als(cfg, tensor=tensor).sample_log
    assert len(log) == 8   # 2 rounds x 4 modes
    digest = hashlib.sha256()
    for X in log:
        digest.update(np.ascontiguousarray(X, dtype=np.int64).tobytes())
    assert digest.hexdigest() == GOLDEN[(P, sampler)]
