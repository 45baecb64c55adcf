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
        "12bcd6180ddb2cad4d36860c5b70b7d2a9e3a48a1e3b0329e2e03ae904ee5d59",
    (6, "arls-lev", "tensor-stationary"):
        "ff4d61a8d1a4f8e97d21b256eaa231a1f980bef1d41e186c5e7ca2c46921c309",
    (6, "arls-lev", "accumulator-stationary"):
        "18a91c600561c14ff2d059d4aa0919764b31404649d2b78aa03ef4d7e8fd0b54",
    (6, "sts", "tensor-stationary"):
        "1cd81cf4697b977b5a233e51bd73194ac5b33fbe8d59b71b610fd1244db7f55f",
    (6, "sts", "accumulator-stationary"):
        "d7e171db11a5b3f3288d73280bfa4af846644bb495f49e896b49c8cf62703b3b",
    (8, "exact", "tensor-stationary"):
        "9c9edd8f1ea5642b9d1fcfc298b1c1dbf43b7464e76aadd425a322aa23059fa2",
    (8, "arls-lev", "tensor-stationary"):
        "8e872c2bfc81fd6c6ad54c69a983b5df1dcebf1928b05e370cc80353da28f4a5",
    (8, "arls-lev", "accumulator-stationary"):
        "d64f68b158453f66072e2064d780adece2c8155b02b64db14a02da9d5083a62a",
    (8, "sts", "tensor-stationary"):
        "e90082bdb170cdc6007a52dac32719e92be0ac457cbd9edfdc1d98cddfbe893f",
    (8, "sts", "accumulator-stationary"):
        "bb0059919572a6d765d701adeb68c7560f00f1f49cbcfa28d79713d54ac2d43d",
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
