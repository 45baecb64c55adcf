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
        "8bf94753d70e6cac7a8b9e8ec43c786f8302d74df661f936cef904bbf8960533",
    (6, "arls-lev", "tensor-stationary"):
        "a11512e6fcf02e74ced346134b57e2c51b60114125c4ff5a4f766a51a9be030f",
    (6, "arls-lev", "accumulator-stationary"):
        "bd998d49f5465c3a81016a4cd1d2759f4ecb4ed0140f1c248865dde22eb5d2b2",
    (6, "sts", "tensor-stationary"):
        "fa19294423c86098e62e0bdff927b711ae48ab5b555eb948db71fbea73a92eae",
    (6, "sts", "accumulator-stationary"):
        "b9a6bfca77f3df78309028c5890663e36d6936eb918dfae380e104af8251ab40",
    (8, "exact", "tensor-stationary"):
        "ee44d9c34016c5c1243ec344e60eec317f5d7face95a481235edf7e2b3e9df60",
    (8, "arls-lev", "tensor-stationary"):
        "23b1ec94c411cec6589e490a52e2d4c7a1bcaf9c8c1216bfe1796fc3d8595fcc",
    (8, "arls-lev", "accumulator-stationary"):
        "35e3ca195324e8df0cc1ff0224e9b6cf0d99ab0b5cf6638a57ec843ee253059a",
    (8, "sts", "tensor-stationary"):
        "6410bc32ce75df94e5d7a4c8cb5a5ac843eeef953fc656bf6d118d2c8c57eb1d",
    (8, "sts", "accumulator-stationary"):
        "f62ffad535aa4a20d037ae7c54b08c8f1f54b9a89af51c91c8420838cec2f269",
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
