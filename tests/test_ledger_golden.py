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
        "26081436ddb11b117bc2eaa585e3883af629be76fed789a00307cdefe66530e9",
    (6, "arls-lev", "accumulator-stationary"):
        "b7f2fac35019fd2145f8e09084959b6a5569b140534f4929a1e364a66a141a8d",
    (6, "sts", "tensor-stationary"):
        "1011224787af214bec538ec6b9df957f72c98aa0ca0525b4f26ef63fa6d584f5",
    (6, "sts", "accumulator-stationary"):
        "d7e171db11a5b3f3288d73280bfa4af846644bb495f49e896b49c8cf62703b3b",
    (8, "exact", "tensor-stationary"):
        "9c9edd8f1ea5642b9d1fcfc298b1c1dbf43b7464e76aadd425a322aa23059fa2",
    (8, "arls-lev", "tensor-stationary"):
        "8888d808ac82fada77964ce5800f02088172af9b8098182d97ee2ddc2cd6f6a0",
    (8, "arls-lev", "accumulator-stationary"):
        "71f10b28d811281675a30dfd5ffc3d97b015387fce7171c79164aa335f3582d5",
    (8, "sts", "tensor-stationary"):
        "029cd7e3abd71def1eca199a38b2cb92b3ab0685533ad791ed5568825cb7e284",
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
                    procs=P, seed=5, permute=False, fit_every=0)
    report = ledger_report(run_als(cfg, tensor=tensor).ledger, P=P)
    digest = hashlib.sha256(report.encode()).hexdigest()
    assert digest == GOLDEN[(P, sampler, schedule)], report
