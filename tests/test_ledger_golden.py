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
        "4aa9c4c02366838bd6391df9f1d2ebd000bcd7feab96f6ca91d2279b3f6a0e2c",
    (6, "sts", "accumulator-stationary"):
        "2ec32b73b326f19ba9518bda0d4ba597103731585e4c2e32538765b607c120c8",
    (8, "exact", "tensor-stationary"):
        "dafc722efb4e59c1e2763f7f0c76ab80fe1abb435da96b7e336e3f22da1c0fe7",
    (8, "arls-lev", "tensor-stationary"):
        "6c3f607978feda21f517a33973a7b07d6c84eacde9c2ca5f2e5d4078157f2466",
    (8, "arls-lev", "accumulator-stationary"):
        "8fddd8dce94f4a2eb61a15fc918d72cbe58b730d27c80d534ea394e08bb06c1a",
    (8, "sts", "tensor-stationary"):
        "dd25f01fad70e60965cd43f8b54407c0707c8488d1bdfc3232cf1c8f0675c11c",
    (8, "sts", "accumulator-stationary"):
        "8dcf2a532c73d28387ae4367d825fe46a7cb3a18e474601dff3600716df0714b",
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
