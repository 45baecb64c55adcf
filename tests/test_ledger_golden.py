"""Ledger golden: the full ``ledger_report`` of small fixed decompositions.

The digests pin every (round, collective, rank) record for all five
sampler/schedule pairs at P=6 (a 3x2x1x1 grid, whose STS trees pad six
rank leaves to eight) and at P=8 (2x2x2x1).  A change to any collective's
metering shows here; on failure the report is printed.
"""

import hashlib

import pytest

from randcp.als import AlsConfig, run_als
from randcp.grid import ledger_report
from conftest import make_sparse

GOLDEN = {
    (6, "exact", "tensor-stationary"):
        "e20041491d8671933590792651f333c0695fa42edeca338e111ad4fb58afa97f",
    (6, "arls-lev", "tensor-stationary"):
        "ad26051f1221d279efbc5d10320652dd241ddf2ab41d1b8f04c490a39135634e",
    (6, "arls-lev", "accumulator-stationary"):
        "a23fe75cb73eedbc1349743b0ffa700f7e1d0e9c6cb486ec5b6440c5cbf7c3de",
    (6, "sts", "tensor-stationary"):
        "1cd81cf4697b977b5a233e51bd73194ac5b33fbe8d59b71b610fd1244db7f55f",
    (6, "sts", "accumulator-stationary"):
        "a4f20454128aa26febb316b21830708c96fd0345550e5404827ff868768ad749",
    (8, "exact", "tensor-stationary"):
        "dafc722efb4e59c1e2763f7f0c76ab80fe1abb435da96b7e336e3f22da1c0fe7",
    (8, "arls-lev", "tensor-stationary"):
        "6c3f607978feda21f517a33973a7b07d6c84eacde9c2ca5f2e5d4078157f2466",
    (8, "arls-lev", "accumulator-stationary"):
        "8fddd8dce94f4a2eb61a15fc918d72cbe58b730d27c80d534ea394e08bb06c1a",
    (8, "sts", "tensor-stationary"):
        "e90082bdb170cdc6007a52dac32719e92be0ac457cbd9edfdc1d98cddfbe893f",
    (8, "sts", "accumulator-stationary"):
        "c5d5b7c7c58c06014a6b788261b9676a62861e25ab0ebf904cd352766ca53f62",
}


@pytest.fixture(scope="module")
def tensor():
    return make_sparse((9, 7, 6, 5), 500, seed=21)


@pytest.mark.parametrize("P, sampler, schedule", sorted(GOLDEN))
def test_ledger_report_matches_golden(tensor, P, sampler, schedule):
    cfg = AlsConfig(rank=4, rounds=2, sampler=sampler,
                    samples=0 if sampler == "exact" else 128, schedule=schedule,
                    procs=P, seed=5, permute=False, compute_fits=False)
    report = ledger_report(run_als(cfg, tensor=tensor).ledger, P=P)
    digest = hashlib.sha256(report.encode()).hexdigest()
    assert digest == GOLDEN[(P, sampler, schedule)], report
