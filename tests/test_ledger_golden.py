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
        "d23fcbc99f4670fb64a24d7fc0f3fceb74d6c5532853c8e7b80e615aa4d29e7a",
    (6, "arls-lev", "accumulator-stationary"):
        "ec48696ee63cbfaaf12659f53a573dd3b44b32c29a5ea225686f5b57a4953437",
    (6, "sts", "tensor-stationary"):
        "5d740bdb947534d8b6f39b8aa4b0ca3baba9b291eb0a39063f26c22b1763ffb5",
    (6, "sts", "accumulator-stationary"):
        "2ec32b73b326f19ba9518bda0d4ba597103731585e4c2e32538765b607c120c8",
    (8, "exact", "tensor-stationary"):
        "dafc722efb4e59c1e2763f7f0c76ab80fe1abb435da96b7e336e3f22da1c0fe7",
    (8, "arls-lev", "tensor-stationary"):
        "fa1ecbf52f5c852c312c1c80ee99a38176d56a25705cff54461d2a3d865c29f5",
    (8, "arls-lev", "accumulator-stationary"):
        "96579f818e601b33389c3f0222d2210e266a44685e841edf275d00c642578392",
    (8, "sts", "tensor-stationary"):
        "7fd1137a67b2be1e991c09603efc891576793561a2e6fa99121cd2f6bb01d8ac",
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
