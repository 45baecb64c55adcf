import tracemalloc

import numpy as np
import pytest

from randcp import als, grid as gridmod, schedules
from randcp.als import AlsConfig, run_als
from randcp.linalg import FactorBlocks, gram, hadamard_gram_chain, pseudo_inverse
from randcp.matricization import column_keys, column_levels, matricize, partition_to_grid
from randcp.mttkrp import downsampled_mttkrp, gather_sampled_nonzeros_to_csr, mttkrp_exact
from randcp.samplers import (SampleBatch, arls_lev_build, arls_lev_sample, sample_weights,
                             sts_build, sts_sample)
from randcp.schedules import (ScheduleError, SolveContext, _exact_mttkrp, _reduce_along_mode,
                              _sampled_mttkrp, _sketched_gram, distinct_columns,
                              refresh_gathered, solve_mode)
from conftest import PAIRS, OnesFactor, block_owner, make_sparse, unit_factors


def make_ctx(t, grid, schedule, sampler, factors, J=0, ledger=None):
    blocks = [FactorBlocks.from_global(U, grid, j) for j, U in enumerate(factors)]
    part = partition_to_grid(t, grid, schedule)
    ctx = SolveContext(grid, sampler, J, blocks, part,
                       ledger if ledger is not None else gridmod.CommLedger(),
                       seed=0)
    ctx.grams = [gram(b) for b in blocks]
    if sampler == "sts":
        ctx.states = [sts_build(b) for b in blocks]
    return ctx


def injected_sts_batch(t, grid, factors, k, J, seed):
    blocks = [FactorBlocks.from_global(U, grid, j) for j, U in enumerate(factors)]
    trees = [sts_build(b) for b in blocks]
    batch = sts_sample(trees, k, J, seed=seed)
    sample_weights(batch)
    return batch


class TestTensorStationaryExact:
    def test_p1_equals_serial_normal_equations(self):
        t = make_sparse((6, 6, 6), 80, seed=0)
        factors = unit_factors(t.dims, 3, seed=1)
        g = gridmod.ProcessorGrid(t.dims, (1, 1, 1))
        ctx = make_ctx(t, g, "tensor-stationary", "exact", factors)
        refresh_gathered(ctx, 1)
        refresh_gathered(ctx, 2)
        solve_mode(ctx, 0)
        ref = mttkrp_exact(matricize(t, 0), factors) @ pseudo_inverse(
            hadamard_gram_chain([gram(U) for U in factors], skip=0))
        assert np.abs(ctx.factors[0].U - ref).max() < 1e-12

    def test_p4_equals_p1(self):
        t = make_sparse((6, 6, 6), 100, seed=2)
        factors = unit_factors(t.dims, 3, seed=3)
        results = {}
        for gd in ((1, 1, 1), (2, 2, 1)):
            g = gridmod.ProcessorGrid(t.dims, gd)
            ctx = make_ctx(t, g, "tensor-stationary", "exact", factors)
            for j in range(3):
                refresh_gathered(ctx, j)
            solve_mode(ctx, 1)
            results[gd] = ctx.factors[1].U
        assert np.abs(results[(1, 1, 1)] - results[(2, 2, 1)]).max() < 1e-10

    def test_sampled_reduction_matches_exact_reduction(self):
        # sampling does not shrink the reduce-scatter: same accumulator shape
        t = make_sparse((8, 7, 6), 120, seed=4)
        factors = unit_factors(t.dims, 2, seed=5)
        g = gridmod.ProcessorGrid(t.dims, (2, 2, 1))
        led_e = gridmod.CommLedger()
        ctx = make_ctx(t, g, "tensor-stationary", "exact", factors, ledger=led_e)
        for j in range(3):
            refresh_gathered(ctx, j)
        solve_mode(ctx, 0)
        led_s = gridmod.CommLedger()
        ctx_s = make_ctx(t, g, "tensor-stationary", "sts", factors, J=32, ledger=led_s)
        batch = injected_sts_batch(t, g, factors, 0, 32, seed=6)
        solve_mode(ctx_s, 0, injected_batch=batch)
        assert (led_e.words(kind=gridmod.REDUCE_SCATTER)
                == led_s.words(kind=gridmod.REDUCE_SCATTER) > 0)

    def test_reduced_exact_mttkrp_is_grid_free(self):
        # One kernel call over the whole-mode view gives the reduced rows,
        # so every grid gives the same bits; only the ledger sees the grid.
        t = make_sparse((8, 7, 6), 150, seed=70)
        factors = unit_factors(t.dims, 3, seed=71)
        for k in range(3):
            got = []
            for gd in ((1, 1, 1), (2, 2, 1), (2, 2, 2)):
                ctx = make_ctx(t, gridmod.ProcessorGrid(t.dims, gd), "tensor-stationary",
                               "exact", factors)
                got.append(_reduce_along_mode(ctx, k, _exact_mttkrp(ctx, k)))
                assert got[-1].shape == (t.dims[k], 3)
            assert all(np.array_equal(a.view(np.int64), got[0].view(np.int64))
                       for a in got[1:])


class TestScheduleEquivalence:
    @pytest.mark.parametrize("gdims", [(1, 1, 1), (2, 2, 1), (2, 2, 2)])
    def test_same_batch_same_update(self, gdims):
        t = make_sparse((8, 7, 6), 150, seed=7)
        factors = unit_factors(t.dims, 3, seed=8)
        g = gridmod.ProcessorGrid(t.dims, gdims)
        for k in range(3):
            batch = injected_sts_batch(t, g, factors, k, 64, seed=9 + k)
            ctx_t = make_ctx(t, g, "tensor-stationary", "sts", factors, J=64)
            ctx_a = make_ctx(t, g, "accumulator-stationary", "sts", factors, J=64)
            solve_mode(ctx_t, k, injected_batch=batch)
            solve_mode(ctx_a, k, injected_batch=batch)
            assert np.array_equal(ctx_t.factors[k].U, ctx_a.factors[k].U)

    def test_p1_bit_exact(self):
        t = make_sparse((6, 6, 6), 90, seed=10)
        factors = unit_factors(t.dims, 2, seed=11)
        g = gridmod.ProcessorGrid(t.dims, (1, 1, 1))
        batch = injected_sts_batch(t, g, factors, 2, 48, seed=12)
        ctx_t = make_ctx(t, g, "tensor-stationary", "sts", factors, J=48)
        ctx_a = make_ctx(t, g, "accumulator-stationary", "sts", factors, J=48)
        solve_mode(ctx_t, 2, injected_batch=batch)
        solve_mode(ctx_a, 2, injected_batch=batch)
        assert np.array_equal(ctx_t.factors[2].U, ctx_a.factors[2].U)


class TestFactorsInPlace:
    @pytest.mark.parametrize("sampler, schedule", [
        ("exact", "tensor-stationary"),
        ("sts", "tensor-stationary"),
        ("sts", "accumulator-stationary"),
        ("arls-lev", "tensor-stationary"),
        ("arls-lev", "accumulator-stationary"),
    ])
    def test_blocks_stay_views_of_one_array(self, sampler, schedule):
        t = make_sparse((8, 7, 6), 150, seed=60)
        factors = unit_factors(t.dims, 3, seed=61)
        g = gridmod.ProcessorGrid(t.dims, (2, 2, 1))
        ctx = make_ctx(t, g, schedule, sampler, factors, J=64)
        if sampler == "arls-lev":
            ctx.states = [arls_lev_build(b) for b in ctx.factors]
        arrays = [fb.U for fb in ctx.factors]
        for k in range(3):
            before = arrays[k].copy()
            solve_mode(ctx, k)
            assert not np.array_equal(arrays[k], before)  # the solve wrote U itself
            for fb, U in zip(ctx.factors, arrays):
                assert fb.U is U
                assert all(b.base is U for b in fb.blocks)
                assert all(np.shares_memory(b, U) for b in fb.blocks if b.size)

    def test_exact_solve_reads_current_factors(self):
        # No gathered-row cache: an update made between solves is what the
        # next exact solve reads, with no refresh in between.
        t = make_sparse((8, 7, 6), 150, seed=62)
        factors = unit_factors(t.dims, 3, seed=63)
        g = gridmod.ProcessorGrid(t.dims, (2, 2, 1))
        ctx = make_ctx(t, g, "tensor-stationary", "exact", factors)
        assert not hasattr(ctx, "gathered")
        solve_mode(ctx, 0)
        ctx.factors[1].U *= 2.0
        ctx.grams[1] = gram(ctx.factors[1])
        solve_mode(ctx, 0)
        current = [fb.U for fb in ctx.factors]
        ref = mttkrp_exact(matricize(t, 0), current) @ pseudo_inverse(
            hadamard_gram_chain([gram(U) for U in current], skip=0))
        assert rel_err(ctx.factors[0].U, ref) < 1e-12


class TestAccumulatorStationary:
    def test_rejects_exact_solves(self):
        t = make_sparse((6, 6, 6), 50, seed=13)
        factors = unit_factors(t.dims, 2, seed=14)
        g = gridmod.ProcessorGrid(t.dims, (2, 1, 1))
        ctx = make_ctx(t, g, "accumulator-stationary", "exact", factors)
        with pytest.raises(ScheduleError):
            solve_mode(ctx, 0)
        with pytest.raises(ValueError):
            AlsConfig(rank=2, rounds=1, sampler="exact",
                      schedule="accumulator-stationary").validate()

    def test_zero_reduce_scatter_words(self):
        t = make_sparse((8, 7, 6), 120, seed=15)
        cfg = AlsConfig(rank=2, rounds=2, sampler="sts", samples=64,
                        schedule="accumulator-stationary", procs=4, seed=3,
                        permute=False, compute_fits=False)
        res = run_als(cfg, tensor=t)
        assert res.ledger.words(kind=gridmod.REDUCE_SCATTER) == 0

    def test_gather_words_double_with_j(self):
        t = make_sparse((8, 7, 6), 120, seed=16)
        words = {}
        for J in (64, 128):
            cfg = AlsConfig(rank=2, rounds=2, sampler="sts", samples=J,
                            schedule="accumulator-stationary", procs=4, seed=3,
                            permute=False, compute_fits=False)
            res = run_als(cfg, tensor=t)
            words[J] = res.ledger.words(kind=gridmod.ALLGATHER, round_id=1)
            pred = 3 * gridmod.as_gather_words_total_per_solve(J, 2, 3, 4)
            assert words[J] == pred
        assert words[128] == 2 * words[64]

    def test_mismatched_partition_rejected(self):
        t = make_sparse((6, 6, 6), 50, seed=17)
        g = gridmod.ProcessorGrid(t.dims, (2, 1, 1))
        for schedule, partition in (("accumulator-stationary", "tensor-stationary"),
                                    ("tensor-stationary", "accumulator-stationary")):
            for sampler in ("arls-lev", "sts"):
                cfg = AlsConfig(rank=2, rounds=1, sampler=sampler, samples=16,
                                schedule=schedule, procs=2, permute=False)
                with pytest.raises(ScheduleError, match="configured schedule is %r, the "
                                   "partition's %r" % (schedule, partition)):
                    run_als(cfg, tensor=t, grid=g,
                            partition=partition_to_grid(t, g, partition))


class TestSingleRank:
    @pytest.mark.parametrize("sampler,sched", [
        ("exact", "tensor-stationary"),
        ("sts", "accumulator-stationary"),
        ("arls-lev", "accumulator-stationary"),
    ])
    def test_p1_moves_no_words(self, sampler, sched):
        t = make_sparse((8, 7, 6), 100, seed=30)
        cfg = AlsConfig(rank=2, rounds=2, sampler=sampler, samples=64,
                        schedule=sched, procs=1, seed=1, fit_every=2, permute=False)
        res = run_als(cfg, tensor=t)
        assert res.ledger.words() == 0 and res.ledger.messages() == 0


class TestExactRoundCost:
    def test_round_words_match_closed_form(self):
        t = make_sparse((12, 10, 8), 250, seed=20)
        for P in (4, 8):
            cfg = AlsConfig(rank=3, rounds=3, sampler="exact",
                            schedule="tensor-stationary", procs=P, seed=4,
                            permute=False, compute_fits=False)
            res = run_als(cfg, tensor=t)
            g = gridmod.optimal_grid(t.dims, P)
            pred = gridmod.ts_exact_round_words_total(g, 3)
            for rnd in (1, 2, 3):
                meas = (res.ledger.words(kind=gridmod.ALLGATHER, round_id=rnd)
                        + res.ledger.words(kind=gridmod.REDUCE_SCATTER, round_id=rnd))
                assert meas == pred


def repeated_batch(dims, factors, k, n_distinct, J, seed):
    """J draws of only n_distinct tuples, with unequal per-draw weights."""
    gen = np.random.default_rng(seed)
    base = np.stack([gen.integers(0, d, n_distinct) for d in dims], axis=1)
    base[:, k] = -1
    X = base[gen.integers(0, n_distinct, J)]
    H = np.ones((J, factors[0].shape[1]))
    for i, U in enumerate(factors):
        if i != k:
            H *= U[X[:, i]]
    batch = SampleBatch(X, gen.random(J) + 0.05)
    sample_weights(batch)
    return batch, H


def direct_gather_count(grid, batch, k, schedule, R):
    """Allgather words and messages each rank receives for a solve's sampled
    rows, counted directly.  Under tensor-stationary, and for a replicated
    batch (``owner`` None) under accumulator-stationary, each distinct
    drawn row (``np.unique``) goes once from its owner to its chunk's slice
    group or to every rank; an STS batch under accumulator-stationary sends
    a row, index and probability per sample, and under tensor-stationary
    first broadcasts every sample's tuple and probability.  Under
    accumulator-stationary the rows of all off modes go in one allgather
    over every rank."""
    P, N = grid.P, grid.N
    words = np.zeros(P, dtype=np.int64)
    msgs = np.zeros(P, dtype=np.int64)

    def gather(group, sent):
        words[group] += sent.sum() - sent
        msgs[group] += len(group) - 1

    if P == 1:
        return words, msgs
    off = [i for i in range(N) if i != k]
    if schedule == "accumulator-stationary":
        sent = np.zeros(P, dtype=np.int64)
        for i in off:
            rows, per_row = ((np.unique(batch.X[:, i]), R) if batch.owner is None
                             else (batch.X[:, i], R + 2))
            sent += per_row * np.bincount(block_owner(grid, i, rows), minlength=P)
        gather(np.arange(P), sent)
        return words, msgs
    if batch.owner is not None:
        gather(np.arange(P), N * np.bincount(batch.owner, minlength=P))
    for i in off:
        rows = np.unique(batch.X[:, i])
        chunks = np.searchsorted(grid.chunk_offsets[i], rows, side="right") - 1
        for c in range(grid.grid_dims[i]):
            group = grid.slice_groups[i][c]
            owners = block_owner(grid, i, rows[chunks == c])
            if owners.size and len(group) > 1:
                gather(group, R * np.array([np.count_nonzero(owners == p) for p in group]))
    return words, msgs


class TestDistinctRowGathers:
    """The ledger's sampled-row gathers against a direct count of distinct rows."""

    DIMS = (9, 7, 6, 5)
    GRIDS = [(1, 1, 1, 1), (1, 3, 1, 1), (3, 2, 1, 1), (2, 2, 2, 1)]

    def batches(self, t, g, factors, k, J, seed):
        """An ARLS-LEV, an STS and an injected batch of J draws of a few
        repeated tuples, the last both replicated and owned."""
        blocks = [FactorBlocks.from_global(U, g, j) for j, U in enumerate(factors)]
        arls = arls_lev_sample([arls_lev_build(b) for b in blocks], k, J, seed=seed)
        sts = sts_sample([sts_build(b) for b in blocks], k, J, seed=seed)
        repeated, _ = repeated_batch(t.dims, factors, k, n_distinct=4, J=J, seed=seed)
        owned = SampleBatch(repeated.X, repeated.prob,
                            owner=np.arange(J) * g.P // max(J, 1))
        return {"arls-lev": arls, "sts": sts, "repeated": repeated, "owned": owned}

    @pytest.mark.parametrize("gdims", GRIDS)
    @pytest.mark.parametrize("schedule", ["tensor-stationary", "accumulator-stationary"])
    @pytest.mark.parametrize("J", [0, 5, 300])
    def test_ledger_matches_direct_count(self, gdims, schedule, J):
        t = make_sparse(self.DIMS, 300, seed=60)
        R = 3
        factors = unit_factors(t.dims, R, seed=61)
        g = gridmod.ProcessorGrid(t.dims, gdims)
        for k in range(len(self.DIMS)):
            for name, batch in self.batches(t, g, factors, k, J, seed=62 + k).items():
                ctx = make_ctx(t, g, schedule, "sts", factors, J=J)
                if batch.weights is None:
                    sample_weights(batch)
                solve_mode(ctx, k, injected_batch=batch)
                words, msgs = direct_gather_count(g, batch, k, schedule, R)
                got = [ctx.ledger.per_rank(gridmod.ALLGATHER, 0, g.P)[j].tolist()
                       for j in (0, 1)]
                assert got == [words.tolist(), msgs.tolist()], (name, k)
                if J == 5 and g.P == 8:  # five draws leave some rank without a row
                    off = [i for i in range(len(self.DIMS)) if i != k]
                    assert all((np.bincount(block_owner(g, i, batch.X[:, i]), minlength=8)
                                == 0).any() for i in off)
                if J == 300 and g.P > 1:  # rows repeat: no mode has 300 rows
                    assert words.sum() > 0

    def test_repeated_draws_add_no_traffic(self):
        t = make_sparse(self.DIMS, 300, seed=63)
        factors = unit_factors(t.dims, 3, seed=64)
        g = gridmod.ProcessorGrid(t.dims, (2, 2, 2, 1))
        repeated, _ = repeated_batch(t.dims, factors, 0, n_distinct=4, J=400, seed=65)
        unique = SampleBatch(np.unique(repeated.X, axis=0), None)
        per_draw = 3 * (g.P - 1) * 400 * 3  # R words per draw and off mode, to P-1 ranks
        for schedule, meter in (("tensor-stationary", schedules._meter_sampled_gathers_ts),
                                ("accumulator-stationary", schedules._meter_sampled_gathers_as)):
            ctx = make_ctx(t, g, schedule, "sts", factors, J=400)
            words = []
            for batch in (repeated, unique):
                before = ctx.ledger.words(kind=gridmod.ALLGATHER)
                meter(ctx, 0, batch)
                words.append(ctx.ledger.words(kind=gridmod.ALLGATHER) - before)
            # repeats move nothing more than the distinct tuples alone
            assert 0 < words[0] == words[1] < per_draw


def direct_solve_count(grid, batch, k, sampler, schedule, R):
    """Allgather and allreduce (words, messages) each rank receives for one
    mode-k solve and the factor update after it, counted from the batch
    (None for an exact solve or no solve) and the grid alone.

    A sketched solve moves its sampled rows (``direct_gather_count``); an
    ARLS-LEV draw first allgathers every rank's distinct drawn rows of all
    off modes as one set of (row, count, leverage) triples, and a
    tensor-stationary sketched solve allreduces its R x R Gram over every
    rank.  The update of an exact run gathers the factor within each
    mode-k slice group and then allreduces the Gram among the ranks that
    differ only in their mode-k grid coordinate, one per chunk; an
    ARLS-LEV update allreduces it over every rank and allgathers one mass
    word per rank; an STS update moves nothing by either collective."""
    P = grid.P
    counts = {kind: np.zeros((2, P), dtype=np.int64)
              for kind in (gridmod.ALLGATHER, gridmod.ALLREDUCE)}
    everyone = np.arange(P)

    def collective(kind, group, w):
        q = len(group)
        if q > 1:
            recv = w.sum() - w if kind == gridmod.ALLGATHER else -(-2 * w * (q - 1) // q)
            counts[kind][0, group] += recv
            counts[kind][1, group] += (q - 1) * (1 if kind == gridmod.ALLGATHER else 2)

    if batch is not None:
        counts[gridmod.ALLGATHER] += direct_gather_count(grid, batch, k, schedule, R)
        if sampler == "arls-lev":
            collective(gridmod.ALLGATHER, everyone, 3 * sum(
                np.bincount(block_owner(grid, i, np.unique(batch.X[:, i])), minlength=P)
                for i in range(grid.N) if i != k))
        if schedule == "tensor-stationary":
            collective(gridmod.ALLREDUCE, everyone, R * R)
    if sampler == "exact":
        lows, his = grid.block_ranges(k)
        for c in range(grid.grid_dims[k]):
            group = grid.slice_groups[k][c]
            collective(gridmod.ALLGATHER, group, R * (his - lows)[group])
        coords = np.array(np.unravel_index(everyone, grid.grid_dims))
        others = np.delete(coords, k, axis=0)
        for p in everyone[coords[k] == 0]:
            fiber = everyone[(others == others[:, [p]]).all(axis=0)]
            collective(gridmod.ALLREDUCE, fiber, R * R)
    elif sampler == "arls-lev":
        collective(gridmod.ALLREDUCE, everyone, R * R)
        collective(gridmod.ALLGATHER, everyone, np.ones(P, dtype=np.int64))
    return counts


class TestSolveCounts:
    """Every allgather and allreduce of whole runs, solve by solve, against
    a direct count from each solve's batch and the grid."""

    @pytest.mark.parametrize("P", [1, 3, 6, 8])
    @pytest.mark.parametrize("sampler, schedule", PAIRS)
    def test_ledger_matches_direct_count_per_solve(self, monkeypatch, sampler, schedule, P):
        t = make_sparse((9, 7, 6, 5), 500, seed=21)
        R, N = 4, t.mode_count
        kinds = (gridmod.ALLGATHER, gridmod.ALLREDUCE)
        solves = []  # (round, mode, batch, ledger counts of the round before the solve)

        def recording_solve(ctx, k, injected_batch=None):
            before = {kind: np.array(ctx.ledger.per_rank(kind, ctx.round_id, P))
                      for kind in kinds}
            batch = solve_mode(ctx, k, injected_batch)
            solves.append((ctx.round_id, k, batch, before))
            return batch
        monkeypatch.setattr(als, "solve_mode", recording_solve)
        cfg = AlsConfig(rank=R, rounds=2, sampler=sampler,
                        samples=0 if sampler == "exact" else 64, schedule=schedule,
                        procs=P, seed=5, permute=False, compute_fits=False)
        res = run_als(cfg, tensor=t)
        g = gridmod.ProcessorGrid(t.dims, res.grid_dims)
        assert len(solves) == 2 * N

        def direct(batch, k):
            return direct_solve_count(g, batch, k, sampler, schedule, R)
        # round 0 holds only the N updates of the initial factors
        for kind in kinds:
            expected = sum(direct(None, k)[kind] for k in range(N))
            assert np.array_equal(res.ledger.per_rank(kind, 0, P), expected), kind
        for n, (rnd, k, batch, before) in enumerate(solves):
            assert (batch is None) == (sampler == "exact")
            for kind in kinds:
                after = (solves[n + 1][3][kind] if n + 1 < len(solves) and solves[n + 1][0] == rnd
                         else np.array(res.ledger.per_rank(kind, rnd, P)))
                assert np.array_equal(after - before[kind], direct(batch, k)[kind]), \
                    (kind, rnd, k)


def rel_err(got, ref):
    return np.linalg.norm(got - ref) / np.linalg.norm(ref)


class TestDistinctColumns:
    @pytest.mark.parametrize("schedule", ["tensor-stationary", "accumulator-stationary"])
    def test_matches_j_row_reference(self, schedule):
        t = make_sparse((8, 7, 6), 200, seed=40)
        factors = unit_factors(t.dims, 3, seed=41)
        g = gridmod.ProcessorGrid(t.dims, (2, 2, 1))
        for k in range(3):
            # a few tuples per mode pair cover most nonzero columns
            batch, H = repeated_batch(t.dims, factors, k, n_distinct=15, J=600, seed=42 + k)
            X = distinct_columns(batch, factors, k)[0]
            assert X.shape[0] == np.unique(batch.X, axis=0).shape[0] < batch.J

            Hw = H * batch.weights[:, None]
            ref_gram = Hw.T @ Hw
            ref_rhs = downsampled_mttkrp(
                gather_sampled_nonzeros_to_csr(matricize(t, k), batch.X, k,
                                               weights=batch.weights), Hw)
            assert np.abs(ref_rhs).max() > 0.0

            ctx = make_ctx(t, g, schedule, "sts", factors, J=batch.J)
            gram, cols = _sketched_gram(ctx, k, batch)
            assert np.array_equal(cols[0], X)
            assert rel_err(gram, ref_gram) < 1e-12
            assert rel_err(_sampled_mttkrp(ctx, k, cols), ref_rhs) < 1e-12

            solve_mode(ctx, k, injected_batch=batch)
            ref = ref_rhs @ pseudo_inverse(ref_gram)
            assert rel_err(ctx.factors[k].U, ref) < 1e-10

    @pytest.mark.parametrize("build,sample", [(arls_lev_build, arls_lev_sample),
                                              (sts_build, sts_sample)])
    def test_design_rows_equal_per_draw_product(self, monkeypatch, build, sample):
        dims = (8, 7, 6, 5)
        g = gridmod.ProcessorGrid(dims, (2, 1, 2, 2))
        blocks = [FactorBlocks.from_global(U, g, j)
                  for j, U in enumerate(unit_factors(dims, 3, seed=50))]
        states = [build(b) for b in blocks]
        for k in range(4):
            batch = sample(states, k, 400, seed=51 + k)
            sample_weights(batch)
            # The per-draw product in ascending mode order, as the samplers
            # formed it before design rows moved to the distinct columns.
            per_draw = np.ones((batch.J, 3))
            for i in range(4):
                if i != k:
                    per_draw *= blocks[i].U[batch.X[:, i]]
            _, first = np.unique(column_keys(batch.X, dims, k), return_index=True)
            assert first.size < batch.J
            for chunk in (7, 4096):  # design rows written in chunks or at once
                monkeypatch.setattr(schedules, "_DESIGN_CHUNK", chunk)
                X, H, _ = distinct_columns(batch, [b.U for b in blocks], k)
                assert np.array_equal(X, batch.X[first])
                assert np.array_equal(H.view(np.int64), per_draw[first].view(np.int64))

    def test_one_design_row_array(self):
        # J = 2^14 draws, nearly all distinct: the merge's peak is its one
        # (J_d, R) design-row array, one chunk buffer, the distinct tuples
        # and weights, and what column_levels itself holds at its peak.
        J, R, dims = 1 << 14, 25, (60, 70, 80, 90)
        gen = np.random.default_rng(60)
        X = np.stack([gen.integers(0, d, J) for d in dims], 1)
        X[:, 0] = -1
        batch = SampleBatch(X, gen.random(J) + 0.5)
        sample_weights(batch)
        factors = [gen.standard_normal((d, R)) for d in dims]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            levels = column_levels(batch.X, dims, 0)
            levels_peak = tracemalloc.get_traced_memory()[1] - base
            del levels
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            Xd, H, weights = distinct_columns(batch, factors, 0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert H.shape == (Xd.shape[0], R) and H.shape[0] > J * 0.9
        buffer = schedules._DESIGN_CHUNK * R * 8
        assert peak <= H.nbytes + buffer + levels_peak + Xd.nbytes + weights.nbytes + 4096

    def test_merged_weight_is_root_sum_of_squares(self):
        X = np.array([[-1, 1, 2], [-1, 0, 0], [-1, 1, 2], [-1, 1, 2]], dtype=np.int64)
        batch = SampleBatch(X, np.ones(4))
        batch.weights = np.array([1.0, 2.0, 3.0, 4.0])
        Xd, _, weights = distinct_columns(batch, [np.ones((3, 2))] * 3, 0)
        assert Xd.dtype == np.int64
        assert np.array_equal(column_keys(Xd, (3, 3, 3), 0), [0, 7])  # i_1 + 3 * i_2
        assert np.array_equal(Xd, X[[1, 0]])
        assert np.allclose(weights, [2.0, np.sqrt(1.0 + 9.0 + 16.0)], rtol=1e-15)

    def test_object_keys(self):
        # The mode-0 mixed-radix key space (2^82) overflows int64; the merge
        # packs the draws into two int64 levels instead.
        dims = (4, 1 << 40, 1 << 40, 3)
        X = np.array([[-1, 5, 1 << 39, 2], [-1, 5, 1 << 39, 2], [-1, 7, 3, 0]],
                     dtype=np.int64)
        batch = SampleBatch(X, np.full(3, 0.5))
        sample_weights(batch)
        plan, codes, ids, _, _ = column_levels(X, dims, 0)
        assert len(plan) == 2 and all(a.dtype == np.int64 for a in codes + [ids])
        Xd, _, weights = distinct_columns(batch, [OnesFactor(d) for d in dims], 0)
        assert Xd.dtype == np.int64
        assert np.array_equal(Xd, X[[2, 0]])              # mode 3 slowest
        assert np.allclose(weights ** 2, [1.0 / 1.5, 2.0 / 1.5])


def _record_words(report, kind):
    """Words per round summed over the ``record`` lines of a ledger report."""
    words = {}
    for line in report.splitlines():
        if not line.startswith("record "):
            continue
        fields = dict(f.split("=") for f in line.split()[1:])
        if fields["kind"] == kind:
            r = int(fields["round"])
            words[r] = words.get(r, 0) + int(fields["words"])
    return words


class TestLedgerReportClosedForms:
    def test_sts_accumulator_stationary_gathers(self):
        t = make_sparse((12, 10, 8), 250, seed=50)
        R, J, P = 3, 512, 4
        cfg = AlsConfig(rank=R, rounds=2, sampler="sts", samples=J,
                        schedule="accumulator-stationary", procs=P, seed=51,
                        permute=False, compute_fits=False)
        report = gridmod.ledger_report(run_als(cfg, tensor=t).ledger, P=P)
        per_solve = gridmod.as_gather_words_total_per_solve(J, R, 3, P)
        assert _record_words(report, gridmod.ALLGATHER) == {1: 3 * per_solve,
                                                            2: 3 * per_solve}
        assert _record_words(report, gridmod.REDUCE_SCATTER) == {}

    def test_arls_tensor_stationary_reductions(self):
        t = make_sparse((12, 10, 8), 250, seed=52)
        R, P = 3, 4
        cfg = AlsConfig(rank=R, rounds=2, sampler="arls-lev", samples=512,
                        schedule="tensor-stationary", procs=P, seed=53,
                        permute=False, compute_fits=False)
        report = gridmod.ledger_report(run_als(cfg, tensor=t).ledger, P=P)
        # sampling leaves the reduce-scatter at its exact-round size, which is
        # half of the closed-form gather + reduce total
        half = gridmod.ts_exact_round_words_total(gridmod.optimal_grid(t.dims, P), R) // 2
        assert _record_words(report, gridmod.REDUCE_SCATTER) == {1: half, 2: half}
