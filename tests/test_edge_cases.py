import numpy as np
import pytest

from randcp import als, grid as gridmod
from randcp.als import AlsConfig, run_als
from randcp.linalg import FactorBlocks
from randcp.matricization import matricize, partition_to_grid
from randcp.mttkrp import gather_sampled_nonzeros_to_csr
from randcp.samplers import (SampleBatch, arls_lev_build, arls_lev_sample, sample_weights,
                             sts_build, sts_sample)
from randcp.schedules import SolveContext, distinct_columns, solve_mode
from randcp.tensor import BoundsError, SparseTensorCOO
from conftest import PAIRS, make_sparse, unit_factors


class TestFourModeEndToEnd:
    @pytest.mark.parametrize("sampler,schedule", [
        ("exact", "tensor-stationary"),
        ("sts", "accumulator-stationary"),
        ("arls-lev", "accumulator-stationary"),
    ])
    def test_four_mode_als(self, sampler, schedule):
        t = make_sparse((7, 6, 5, 4), 200, seed=0)
        cfg = AlsConfig(rank=2, rounds=4, sampler=sampler, samples=128,
                        schedule=schedule, procs=4, seed=1, fit_every=2,
                        permute=False)
        res = run_als(cfg, tensor=t)
        assert np.isfinite(res.final_fit)
        assert all(U.shape == (d, 2) for U, d in zip(res.factors, t.dims))

    def test_four_mode_schedule_equivalence(self):
        t = make_sparse((6, 5, 4, 4), 150, seed=2)
        factors = unit_factors(t.dims, 2, seed=3)
        g = gridmod.ProcessorGrid(t.dims, (2, 1, 2, 1))
        blocks = [FactorBlocks.from_global(U, g, j) for j, U in enumerate(factors)]
        trees = [sts_build(b) for b in blocks]
        for k in range(4):
            batch = sts_sample(trees, k, 64, seed=4 + k)
            sample_weights(batch)
            ctx_t = SolveContext(g, "sts", 64,
                                 [b.copy() for b in blocks],
                                 partition_to_grid(t, g, "tensor-stationary"),
                                 gridmod.CommLedger(), seed=0)
            ctx_a = SolveContext(g, "sts", 64,
                                 [b.copy() for b in blocks],
                                 partition_to_grid(t, g, "accumulator-stationary"),
                                 gridmod.CommLedger(), seed=0)
            solve_mode(ctx_t, k, injected_batch=batch)
            solve_mode(ctx_a, k, injected_batch=batch)
            diff = np.abs(ctx_t.factors[k].U - ctx_a.factors[k].U).max()
            assert diff < 1e-12


def test_sampled_extraction_with_object_keys():
    dims = (1 << 22, 1 << 22, 1 << 22, 1 << 22)  # off-mode key space 2^66 > int64
    gen = np.random.default_rng(5)
    idx = np.stack([gen.integers(0, d, 40) for d in dims], 1)
    t = SparseTensorCOO(dims, idx, gen.standard_normal(40))
    m = matricize(t, 0)
    _, plan, codes, col_ptr = m._csc
    assert len(plan) == 2 and all(a.dtype == np.int64 for a in codes + [col_ptr])
    X = np.full((6, 4), -1, dtype=np.int64)
    X[:3, 1:] = idx[:3, 1:]               # hit three real columns
    X[3:, 1:] = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]  # almost surely empty
    sub = gather_sampled_nonzeros_to_csr(m, X, 0)
    others = [1, 2, 3]
    expected = sum(int(np.all(idx[:, others] == X[s, others], axis=1).sum())
                   for s in range(6))
    assert sub.nnz == expected >= 3


@pytest.mark.parametrize("sampler", ["arls-lev", "sts"])
@pytest.mark.parametrize("schedule", ["tensor-stationary", "accumulator-stationary"])
def test_hyper6_injected_solves_keep_int64_columns(sampler, schedule):
    # (2^13)^6: every mode's off-mode columns need two int64 levels.
    dims = (1 << 13,) * 6
    gen = np.random.default_rng(9)
    idx = np.stack([gen.integers(0, d, 80) for d in dims], 1)
    t = SparseTensorCOO(dims, idx, gen.standard_normal(80))
    g = gridmod.ProcessorGrid(dims, (2, 1, 2, 1, 1, 1))
    blocks = [FactorBlocks.from_global(U, g, j)
              for j, U in enumerate(unit_factors(dims, 2, seed=10))]
    build, sample = ((arls_lev_build, arls_lev_sample) if sampler == "arls-lev"
                     else (sts_build, sts_sample))
    states = [build(b) for b in blocks]
    ctx = SolveContext(g, sampler, 48, blocks, partition_to_grid(t, g, schedule),
                       gridmod.CommLedger(), seed=0)
    batches = [sample(states, k, 48, seed=11 + k) for k in range(6)]  # before any solve
    for k, batch in enumerate(batches):
        hits = gen.permutation(80)[:24]
        batch.X[:24] = np.where(np.arange(6) == k, -1, idx[hits])  # half the draws hit
        batch.X[24:32] = batch.X[:8]                               # and some repeat
        sample_weights(batch)
        X, _, weights = distinct_columns(batch, [b.U for b in blocks], k)
        sub = gather_sampled_nonzeros_to_csr(ctx.local.views[k], X, k, weights=weights)
        assert sub.nnz >= 24 and (np.diff(sub.idx[:, 0]) >= 0).all()  # in row order
        assert np.array_equal(sub.row_last, sub.idx[:, 1]) and sub.row_vals is sub.vals
        order, plan, codes, col_ptr = ctx.local.views[k]._csc
        assert len(plan) == 2
        assert all(a.dtype == np.int64 for a in [col_ptr, X] + codes)
        assert order.dtype == np.uint8  # positions of 80 entries, narrowed
        solve_mode(ctx, k, injected_batch=batch)
        assert np.isfinite(ctx.factors[k].U).all()


class TestExtractionBounds:
    """Off-mode sample indices outside their dimension raise BoundsError
    rather than alias another column's nonzeros."""

    @staticmethod
    def view():
        t = SparseTensorCOO((3, 4, 5), np.array([[0, 1, 2], [2, 3, 4]]), np.array([1.0, 2.0]))
        return t, matricize(t, 2)

    @pytest.mark.parametrize("bad", [[3, 0, -1], [-1, 0, -1], [0, 4, -1], [0, -2, 0]])
    def test_out_of_range_index_raises(self, bad):
        _, m = self.view()
        X = np.array([[0, 1, -1], bad], dtype=np.int64)
        with pytest.raises(BoundsError):
            gather_sampled_nonzeros_to_csr(m, X, 2)

    def test_in_range_extraction_still_hits(self):
        _, m = self.view()
        sub = gather_sampled_nonzeros_to_csr(m, np.array([[0, 1, -1], [2, 3, 7]]), 2)
        assert sorted(sub.vals.tolist()) == [1.0, 2.0]

    @pytest.mark.parametrize("schedule", ["tensor-stationary", "accumulator-stationary"])
    @pytest.mark.parametrize("bad", [[3, 0, -1], [0, -1, -1]])
    def test_injected_batch_raises(self, schedule, bad):
        t, _ = self.view()
        g = gridmod.ProcessorGrid(t.dims, (1, 1, 1))
        blocks = [FactorBlocks.from_global(U, g, j)
                  for j, U in enumerate(unit_factors(t.dims, 2, seed=3))]
        ctx = SolveContext(g, "sts", 2, blocks, partition_to_grid(t, g, schedule),
                           gridmod.CommLedger(), seed=0)
        batch = SampleBatch(np.array([[0, 1, -1], bad]), np.full(2, 0.5))
        with pytest.raises(BoundsError):
            solve_mode(ctx, 2, injected_batch=batch)


def test_sts_build_exchange_metering_power_of_two():
    gen = np.random.default_rng(6)
    U = gen.standard_normal((32, 3))
    g = gridmod.ProcessorGrid((32, 8, 8), (8, 1, 1))
    fb = FactorBlocks.from_global(U, g, 0)
    led = gridmod.CommLedger()
    sts_build(fb, ledger=led, round_id=1)
    # each of 8 ranks receives one 3x3 matrix per level, log2(8) levels
    assert led.words(kind=gridmod.ALL_TO_ALLV) == 8 * 3 * (3 * 3)
    for p in range(8):
        assert led.messages(kind=gridmod.ALL_TO_ALLV, rank=p) == 3


def test_walk_routing_total_words_scale():
    gen = np.random.default_rng(7)
    dims = (32, 16, 8)
    R = 3
    factors = [gen.standard_normal((d, R)) for d in dims]
    g = gridmod.ProcessorGrid(dims, (2, 2, 1))
    blocks = [FactorBlocks.from_global(U, g, j) for j, U in enumerate(factors)]
    trees = [sts_build(b) for b in blocks]
    words = {}
    for J in (128, 256):
        led = gridmod.CommLedger()
        sts_sample(trees, 2, J, seed=8, ledger=led)
        words[J] = led.words(kind=gridmod.ALL_TO_ALLV)
        # N + 2 words per routed sample plus R per distinct (prefix, sender,
        # receiver) of a level; at most J samples move per level
        assert words[J] <= ((3 + 2) * J + R * J) * 2 * 2  # modes x levels
    assert words[256] > words[128]


@pytest.mark.parametrize("sampler,sched", [
    ("exact", "tensor-stationary"),
    ("sts", "accumulator-stationary"),
    ("arls-lev", "accumulator-stationary"),
])
def test_rank_exceeding_mode_dimension(sampler, sched):
    # overcomplete factor on the short mode => rank-deficient Gram chain
    t = make_sparse((20, 3, 15), 250, seed=20)
    cfg = AlsConfig(rank=6, rounds=5, sampler=sampler, samples=256, schedule=sched,
                    procs=4, seed=1, fit_every=5, permute=False)
    res = run_als(cfg, tensor=t)
    assert np.isfinite(res.final_fit)
    assert res.factors[1].shape == (3, 6)


def test_grid_dimension_exceeding_mode_dimension():
    # explicit grid with P_1 > I_1 leaves some chunks and blocks empty
    t = make_sparse((6, 3, 5), 60, seed=21)
    for sampler, sched in (("sts", "accumulator-stationary"),
                           ("exact", "tensor-stationary")):
        cfg = AlsConfig(rank=2, rounds=4, sampler=sampler, samples=64, schedule=sched,
                        grid_dims=(1, 4, 1), procs=4, seed=3, fit_every=4, permute=False)
        res = run_als(cfg, tensor=t)
        assert np.isfinite(res.final_fit)


def test_partition_unknown_schedule():
    t = make_sparse((5, 4, 3), 20, seed=9)
    g = gridmod.ProcessorGrid(t.dims, (1, 1, 1))
    with pytest.raises(ValueError):
        partition_to_grid(t, g, "scatter-gather")


def test_optimal_grid_requires_positive_p():
    with pytest.raises(ValueError):
        gridmod.optimal_grid((4, 4, 4), 0)


def test_loader_requires_three_modes(tmp_path):
    p = tmp_path / "two_mode.tns"
    p.write_text("1 1 5.0\n2 2 6.0\n")
    from randcp.tensor import ParseError, load_frostt
    with pytest.raises(ParseError):
        load_frostt(str(p))


def test_matricization_row_bounds_enforced():
    from randcp.matricization import Matricization
    idx = np.array([[0, 0, 0], [3, 0, 0]])
    with pytest.raises(ValueError):
        Matricization((3, 2, 2), idx, np.ones(2), 0)
    with pytest.raises(ValueError):
        Matricization((4, 2, 2), -idx, np.ones(2), 0)


def test_empty_batch_paths():
    t = make_sparse((5, 4, 3), 20, seed=10)
    m = matricize(t, 0)
    sub = gather_sampled_nonzeros_to_csr(m, np.full((0, 3), -1, dtype=np.int64), 0)
    assert sub.nnz == 0 and sub.dims == (5, 0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("P", [1, 7])
@pytest.mark.parametrize("vals,error,match", [
    ([], ValueError, "tensor has no nonzero value to fit"),
    ([0.0, 0.0], ValueError, "tensor has no nonzero value to fit"),
    ([1e200, 1.0], FloatingPointError, "tensor sum of squares is inf, not finite"),
], ids=["empty", "all-zero", "huge"])
def test_nothing_to_fit_rejected_before_any_solve(monkeypatch, P, vals, error, match):
    """An empty or all-zero tensor, or one whose sum of squares overflows,
    raises its typed error in set-up, under every sampler and schedule."""
    idx = np.array([[0, 0, 0], [4, 3, 2]])[:len(vals)]
    t = SparseTensorCOO((5, 4, 3), idx, np.array(vals, dtype=np.float64))

    def no_solve(ctx, k, injected_batch=None):
        raise AssertionError("a mode solve ran")

    monkeypatch.setattr(als, "solve_mode", no_solve)
    for sampler, schedule in PAIRS:
        cfg = AlsConfig(rank=2, rounds=6, sampler=sampler, samples=16, schedule=schedule,
                        procs=P, fit_every=1, permute=False)
        with pytest.raises(error, match=match):
            run_als(cfg, tensor=t)
