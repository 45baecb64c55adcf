"""Offline quality gate, easy case: sampled ALS must come within DELTA of
exact ALS's final fit on the benchmark's own planted generator.

``bench/planted.py`` is loaded read-only, as ``test_bench_tracing.py``
loads ``bench/tracing.py``, so tests and benchmark draw from one
generator.  The spec is the benchmark's ``uber`` tensor (tag 1, skew 1.5,
20 components) at the smoke size.  R = 10 lies above mode 1's dimension.
The hard case (skew 0, equal component weights) is not gated here.
"""

import importlib.util
from pathlib import Path

import pytest

from randcp.als import AlsConfig, run_als
from randcp.tensor import SparseTensorCOO, permute_modes

_PATH = Path(__file__).resolve().parent.parent / "bench" / "planted.py"
_spec = importlib.util.spec_from_file_location("bench_planted", _PATH)
planted = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(planted)

UBER_SMOKE = planted.PlantedSpec("uber", tag=1, dims=(30, 8, 60, 80),
                                 support=(5, 3, 10, 10), components=20, skew=1.5)
DELTA = 0.03
RUNS = {"exact": "tensor-stationary", "sts": "accumulator-stationary",
        "arls-lev": "tensor-stationary"}


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_sampled_fit_within_delta_of_exact(seed):
    idx, vals = planted.generate(UBER_SMOKE, seed)
    tensor, perms = permute_modes(SparseTensorCOO(UBER_SMOKE.dims, idx, vals), seed)
    fits = {}
    for sampler, schedule in RUNS.items():
        cfg = AlsConfig(rank=10, rounds=8, sampler=sampler,
                        samples=0 if sampler == "exact" else 1 << 12,
                        schedule=schedule, procs=4, seed=seed, fit_every=8)
        fits[sampler] = run_als(cfg, tensor=tensor, perms=perms).final_fit
    print("seed %d: exact %.4f, sts gap %+.4f, arls-lev gap %+.4f"
          % (seed, fits["exact"], fits["exact"] - fits["sts"],
             fits["exact"] - fits["arls-lev"]))
    assert fits["sts"] >= fits["exact"] - DELTA, fits
    assert fits["arls-lev"] >= fits["exact"] - DELTA, fits
