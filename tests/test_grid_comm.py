import numpy as np
import pytest

from randcp import grid as gridmod
from randcp.grid import (CommLedger, ProcessorGrid, allgather, all_to_allv, allreduce,
                         factorizations, ledger_report, optimal_grid, reduce_scatter)


class TestOptimalGrid:
    def test_cube(self):
        g = optimal_grid((8, 8, 8), 8)
        assert g.grid_dims == (2, 2, 2)
        assert not g.warning

    def test_p1(self):
        assert optimal_grid((5, 6, 7), 1).grid_dims == (1, 1, 1)

    # (4, 4, 4) at P=2 ties three grids, 12 is not a power of two, and no
    # grid of 64 ranks fits (3, 3, 3).
    @pytest.mark.parametrize("dims,P", [((4, 2, 2), 4), ((4, 4, 4), 2), ((6, 4, 10), 12),
                                        ((5, 7, 3, 9), 12), ((3, 3, 3), 64)])
    def test_matches_exhaustive_oracle(self, dims, P):
        ranked = sorted((sum(d / p for d, p in zip(dims, fac)), fac)
                        for fac in factorizations(P, len(dims)))
        feasible = [r for r in ranked if all(p <= d for p, d in zip(r[1], dims))]
        g = optimal_grid(dims, P)
        assert g.grid_dims == (feasible or ranked)[0][1]
        assert g.warning == (not feasible)

    def test_infeasible_warns(self):
        g = optimal_grid((3, 3, 3), 64)  # no factorization fits 3x3x3
        assert g.warning
        assert int(np.prod(g.grid_dims)) == 64


class TestGridPartitions:
    def test_block_ranges_cover_each_mode(self):
        g = ProcessorGrid((13, 7, 5), (2, 2, 2))
        for j in range(3):
            lows, his = g.block_ranges(j)
            ranges = sorted((int(a), int(b)) for a, b in zip(lows, his))
            covered = []
            for a, b in ranges:
                covered.extend(range(a, b))
            assert sorted(covered) == list(range(g.tensor_dims[j]))

    def test_slice_groups_partition_ranks(self):
        g = ProcessorGrid((8, 8, 8), (2, 2, 2))
        for j in range(3):
            all_ranks = sorted(r for c in range(2) for r in g.slice_groups[j][c])
            assert all_ranks == list(range(8))
            assert all(len(g.slice_groups[j][c]) == g.P // g.grid_dims[j]
                       for c in range(2))


def _loop_partition(dims, gdims):
    """The per-member construction the grid's tables replace: each slice
    group found by scanning coordinates, each chunk split member by member."""
    P = int(np.prod(gdims))
    coords = np.stack(np.unravel_index(np.arange(P), gdims), axis=1)
    chunks, groups = [], []
    lo_hi = np.zeros((2, len(dims), P), dtype=np.int64)
    for j, (I, Pj) in enumerate(zip(dims, gdims)):
        sizes = [I // Pj + (c < I % Pj) for c in range(Pj)]
        off = np.concatenate(([0], np.cumsum(sizes)))
        chunks.append(off)
        groups.append([np.flatnonzero(coords[:, j] == c) for c in range(Pj)])
        for c, members in enumerate(groups[-1]):
            n, q = off[c + 1] - off[c], len(members)
            sub = np.concatenate(([0], np.cumsum([n // q + (m < n % q) for m in range(q)])))
            for m, p in enumerate(members):
                lo_hi[:, j, p] = off[c] + sub[m], off[c] + sub[m + 1]
    return chunks, groups, lo_hi


class TestGridTables:
    """The grid's slice-group tables and block ranges against the loop oracle."""

    @pytest.mark.parametrize("dims,gdims", [
        ((5, 6, 7), (1, 1, 1)), ((13, 7, 5), (2, 3, 1)), ((10, 9, 8), (1, 7, 1)),
        ((20, 3, 11), (3, 2, 2)), ((4, 4, 4), (2, 3, 2)), ((2, 5, 3), (4, 1, 3)),
        ((9, 8, 7, 6, 5, 4), (2, 1, 3, 2, 1, 2)), ((3, 3, 3, 3, 3, 3), (2, 2, 2, 2, 2, 2)),
        ((1, 6, 2), (3, 2, 2)), ((64, 32, 16), (4, 8, 8))])
    def test_tables_match_loop(self, dims, gdims):
        g = ProcessorGrid(dims, gdims)
        chunks, groups, lo_hi = _loop_partition(dims, gdims)
        for j in range(len(dims)):
            assert np.array_equal(g.chunk_offsets[j], chunks[j])
            assert g.slice_groups[j].shape == (gdims[j], g.P // gdims[j])
            for c, members in enumerate(groups[j]):
                assert np.array_equal(g.slice_groups[j][c], members)
            lows, his = g.block_ranges(j)
            assert np.array_equal(lows, lo_hi[0, j]) and np.array_equal(his, lo_hi[1, j])
        assert g.warning == any(p > I for I, p in zip(dims, gdims))

    def test_explicit_infeasible_grid_warns(self):
        g = ProcessorGrid((2, 5, 3), (4, 1, 3))  # mode 0 has 4 chunks of 2 rows
        assert g.warning
        assert np.diff(g.chunk_offsets[0]).tolist() == [1, 1, 0, 0]
        assert not ProcessorGrid((4, 5, 3), (4, 1, 3)).warning


class TestStableArgsort:
    """The radix helper orders exactly as numpy's stable argsort."""

    @pytest.mark.parametrize("bound", [1, 7, 1 << 8, 1 << 16, (1 << 16) + 1, 1 << 32,
                                       (1 << 32) + 1, 1 << 50])
    @pytest.mark.parametrize("n", [0, 1, 5000])
    def test_matches_numpy_stable(self, bound, n):
        gen = np.random.default_rng(bound % 1000 + n)
        keys = gen.integers(0, bound, n)
        keys[:n // 3] = keys[0] if n else 0  # a long run of equal keys
        if n:
            keys[-1] = bound - 1
        for k in (keys, keys.astype(np.min_scalar_type(bound - 1))):
            assert np.array_equal(gridmod.stable_argsort(k, bound),
                                  np.argsort(keys, kind="stable"))

    @pytest.mark.parametrize("bound", [1 << 12, 1 << 24, 1 << 40])
    def test_all_equal(self, bound):
        keys = np.full(300, bound - 1, dtype=np.int64)
        assert np.array_equal(gridmod.stable_argsort(keys, bound), np.arange(300))

    def test_group_by_rank(self):
        ranks = np.random.default_rng(3).integers(0, 70000, 20000)
        order, bounds = gridmod.group_by_rank(ranks, 70000)
        assert np.array_equal(order, np.argsort(ranks, kind="stable"))
        assert np.array_equal(bounds, np.searchsorted(np.sort(ranks), np.arange(70001)))


class TestCollectives:
    def test_q1_identity_zero_words(self):
        led = CommLedger()
        out = allgather([np.arange(3.0)], [0], ledger=led)
        assert np.array_equal(out, np.arange(3.0))
        assert led.words() == 0 and led.messages() == 0

    def test_allgather_word_model(self):
        led = CommLedger()
        parts = [np.full(10, float(p)) for p in range(4)]
        out = allgather(parts, [0, 1, 2, 3], ledger=led, round_id=2)
        assert out.size == 40
        for p in range(4):
            assert led.words(rank=p) == 30
            assert led.messages(rank=p) == 3
        assert led.words(round_id=2) == 120

    def test_reduce_scatter_sum_and_split(self):
        led = CommLedger()
        parts = [np.ones(8) for _ in range(4)]
        outs = reduce_scatter(parts, np.arange(5) * 2, [0, 1, 2, 3], ledger=led)
        for o in outs:
            assert np.array_equal(o, np.full(2, 4.0))
        assert led.words(rank=0) == 2 * 3 and led.messages(rank=0) == 3

    def test_reduce_scatter_shape_mismatch(self):
        with pytest.raises(ValueError):
            reduce_scatter([np.ones(4), np.ones(5)], [0, 2, 4], [0, 1])

    def test_allreduce_sum_and_model(self):
        led = CommLedger()
        parts = [np.full((2, 2), float(p + 1)) for p in range(4)]
        out = allreduce(parts, [0, 1, 2, 3], ledger=led)
        assert np.array_equal(out, np.full((2, 2), 10.0))
        expect = (2 * 4 * 3 + 3) // 4  # ceil(2*m*(q-1)/q), m=4
        assert led.words(rank=1) == expect
        assert led.messages(rank=1) == 6

    def test_all_to_allv_semantics_and_conservation(self):
        led = CommLedger()
        q = 3
        send = [[np.full(i + 2 * j + 1, 1.0) if i != j else None for j in range(q)]
                for i in range(q)]
        recv = all_to_allv(send, list(range(q)), ledger=led)
        for j in range(q):
            for i in range(q):
                if i != j:
                    assert recv[j][i].size == i + 2 * j + 1
        sent = sum(send[i][j].size for i in range(q) for j in range(q) if i != j)
        assert led.words(kind=gridmod.ALL_TO_ALLV) == sent

    def test_collective_semantics_random_group_sizes(self, rng):
        for q in (1, 2, 5, 16):
            parts = [rng.standard_normal(6) for _ in range(q)]
            assert np.array_equal(allgather(parts, list(range(q))),
                                  np.concatenate(parts))
            assert np.allclose(allreduce(parts, list(range(q))),
                               np.sum(parts, axis=0), atol=1e-12)


class TestMeter:
    """``grid.meter`` against hand-worked costs for each collective kind."""

    def test_allgather(self):
        led = CommLedger()
        gridmod.meter(led, 1, gridmod.ALLGATHER, [3, 5, 7], [2, 0, 5])
        assert led.records() == {(1, "allgather", 3): (5, 2), (1, "allgather", 5): (7, 2),
                                 (1, "allgather", 7): (2, 2)}

    def test_reduce_scatter(self):
        led = CommLedger()
        gridmod.meter(led, 0, gridmod.REDUCE_SCATTER, [0, 1, 2, 3], [2, 2, 3, 1])
        assert led.records() == {(0, "reduce_scatter", p): (w, 3)
                                 for p, w in enumerate([6, 6, 9, 3])}

    def test_allreduce(self):
        led = CommLedger()
        gridmod.meter(led, 0, gridmod.ALLREDUCE, [0, 1, 2, 3], 5)  # ceil(2*5*3/4) = 8
        gridmod.meter(led, 1, gridmod.ALLREDUCE, [4, 6, 8], 4)     # ceil(2*4*2/3) = 6
        assert led.records() == {**{(0, "allreduce", p): (8, 6) for p in range(4)},
                                 **{(1, "allreduce", p): (6, 4) for p in (4, 6, 8)}}

    def test_all_to_allv_records_only_receivers(self):
        led = CommLedger()
        sent = [[9, 2, 0],   # the diagonal stays local and is not metered
                [3, 9, 0],
                [4, 1, 9]]
        gridmod.meter(led, 2, gridmod.ALL_TO_ALLV, [10, 11, 12], sent)
        assert led.records() == {(2, "all_to_allv", 10): (7, 2),
                                 (2, "all_to_allv", 11): (3, 2)}

    def test_all_to_allv_skips_members_that_receive_nothing(self):
        led = CommLedger()
        send = [[None, np.ones(4)], [None, None]]
        all_to_allv(send, [0, 1], ledger=led)
        assert led.records() == {(0, "all_to_allv", 1): (4, 1)}

    @pytest.mark.parametrize("kind", [gridmod.ALLGATHER, gridmod.REDUCE_SCATTER])
    def test_group_table_records_as_one_call_per_row(self, kind):
        ranks = np.array([[0, 3, 6], [1, 4, 7], [2, 5, 8]])
        words = np.array([[2, 0, 5], [1, 1, 1], [0, 0, 0]])
        table, rows = CommLedger(), CommLedger()
        gridmod.meter(table, 4, kind, ranks, words)
        for group, w in zip(ranks, words):
            gridmod.meter(rows, 4, kind, group, w)
        assert table.records() == rows.records()
        assert len(table.records()) == ranks.size

    def test_allreduce_table_and_all_to_allv_table(self):
        ranks = np.array([[0, 2], [1, 3]])
        table, rows = CommLedger(), CommLedger()
        gridmod.meter(table, 0, gridmod.ALLREDUCE, ranks, 5)
        for group in ranks:
            gridmod.meter(rows, 0, gridmod.ALLREDUCE, group, 5)
        assert table.records() == rows.records()
        with pytest.raises(ValueError):  # one exchange matrix fits one group
            gridmod.meter(table, 0, gridmod.ALL_TO_ALLV, ranks, np.ones((2, 2)))

    @pytest.mark.parametrize("gdims, k, words, messages", [
        ((2, 3, 2), 1, 34, 4),     # ceil(2*25*2/3) = 34
        ((4, 1, 3), 0, 38, 6),     # ceil(2*25*3/4) = 38
        ((4, 1, 3), 2, 34, 4),
        ((2, 2, 2), 2, 25, 2),     # ceil(2*25*1/2) = 25
        ((4, 1, 3), 1, None, 0)])  # one chunk: nothing to reduce
    def test_allreduce_across_chunks(self, gdims, k, words, messages):
        # An exact factor update's Gram allreduce, over the (P/P_k, P_k)
        # table of one rank per mode-k chunk: every rank is in one row.
        g = ProcessorGrid((8, 8, 8), gdims)
        table = g.slice_groups[k].T
        assert table.shape == (g.P // gdims[k], gdims[k])
        assert sorted(table.ravel().tolist()) == list(range(g.P))
        led = CommLedger()
        gridmod.meter(led, 3, gridmod.ALLREDUCE, table, 25)
        expected = {} if words is None else {(3, "allreduce", p): (words, messages)
                                             for p in range(g.P)}
        assert led.records() == expected

    @pytest.mark.parametrize("kind", [gridmod.ALLGATHER, gridmod.REDUCE_SCATTER])
    @pytest.mark.parametrize("shape", [(4, 1), (0, 3)])
    def test_single_member_or_empty_table_records_nothing(self, kind, shape):
        led = CommLedger()
        ranks = np.arange(int(np.prod(shape))).reshape(shape)
        gridmod.meter(led, 0, kind, ranks, np.ones(shape, dtype=np.int64))
        assert led.records() == {}

    @pytest.mark.parametrize("kind, one, two", [
        (gridmod.ALLGATHER, [10], [10, 10]), (gridmod.REDUCE_SCATTER, [10], [10, 10]),
        (gridmod.ALLREDUCE, 10, 10), (gridmod.ALL_TO_ALLV, [[10]], [[0, 10], [10, 0]])])
    def test_single_member_and_no_ledger_record_nothing(self, kind, one, two):
        led = CommLedger()
        gridmod.meter(led, 0, kind, [4], one)
        gridmod.meter(None, 0, kind, [4, 5], two)
        assert led.records() == {}

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            gridmod.meter(CommLedger(), 0, "broadcast", [0, 1], [1, 1])


class TestLedger:
    def test_empty_round_reports_zero(self):
        led = CommLedger()
        text = ledger_report(led, round_id=3, P=2)
        assert "words_max=0" in text
        assert "record" not in text

    def test_rank_outside_the_run_raises(self):
        # a rank-5 record under P=2 would print, but no aggregate counts it
        led = CommLedger()
        led.add(0, gridmod.ALLGATHER, 5, 7, 1)
        with pytest.raises(ValueError, match="rank 5"):
            ledger_report(led, P=2)
        with pytest.raises(ValueError):
            ledger_report(led, round_id=0, P=5)
        assert "words_max=7 words_mean=1.167" in ledger_report(led, P=6)
        with pytest.raises(TypeError):
            ledger_report(led)  # P is required

    def test_one_allgather_reported(self):
        led = CommLedger()
        allgather([np.ones(10) for _ in range(4)], [0, 1, 2, 3], ledger=led, round_id=1)
        text = ledger_report(led, round_id=1, P=4)
        assert "kind=allgather rank=0 words=30" in text

    def test_ledger_equality(self):
        a, b = CommLedger(), CommLedger()
        for led in (a, b):
            allgather([np.ones(3) for _ in range(2)], [0, 1], ledger=led, round_id=0)
        assert a == b
        allgather([np.ones(3) for _ in range(2)], [0, 1], ledger=a, round_id=1)
        assert a != b

    def test_monotone_counters(self):
        led = CommLedger()
        for _ in range(3):
            allgather([np.ones(4) for _ in range(2)], [0, 1], ledger=led, round_id=0)
        assert led.words(rank=0, round_id=0) == 12
