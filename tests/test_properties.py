"""Property tests over small, awkward inputs: size-1 and size-2 modes, P
that is not a power of two, grids with more chunks than rows (so some
ranks hold nothing), and rank R above a mode dimension."""

import numpy as np
from hypothesis import given, settings, strategies as st

from randcp import grid as gridmod
from randcp.als import AlsConfig, run_als
from randcp.linalg import FactorBlocks
from randcp.matricization import Matricization, column_levels, partition_to_grid
from randcp.samplers import SampleBatch, arls_lev_build, sample_weights, sts_build
from randcp.schedules import SolveContext, _sketched_gram, distinct_columns, draw_batch
from randcp.tensor import SparseTensorCOO
from conftest import OnesFactor, assert_same_bits, py_column_key, rank_extractions

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=60)


@st.composite
def gridded_tensors(draw, dense=False):
    """A 3- or 4-mode tensor with modes of size 1 to 4 on a grid of P <= 12
    ranks, P_k chosen freely (P_k > I_k leaves chunks, and so ranks, empty)."""
    dims = tuple(draw(st.lists(st.integers(1, 4), min_size=3, max_size=4)))
    P = draw(st.integers(1, 12))
    grid_dims = draw(st.sampled_from(list(gridmod.factorizations(P, len(dims)))))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    idx = np.stack(np.meshgrid(*[np.arange(d) for d in dims], indexing="ij"),
                   -1).reshape(-1, len(dims))
    if not dense:
        idx = idx[gen.random(idx.shape[0]) < draw(st.sampled_from([0.2, 0.6, 1.0]))]
    t = SparseTensorCOO(dims, idx, gen.standard_normal(idx.shape[0]))
    return t, gridmod.ProcessorGrid(dims, grid_dims)


def _entry_rows(idx, vals):
    rows = np.column_stack([idx, vals.view(np.int64)])
    return rows[np.lexsort(rows.T[::-1])]


@PROPERTY
@given(case=gridded_tensors(),
       schedule=st.sampled_from(["tensor-stationary", "accumulator-stationary"]))
def test_partition_holds_every_nonzero_once_per_mode(case, schedule):
    t, g = case
    part = partition_to_grid(t, g, schedule)
    for j in range(t.mode_count):
        views = [part.local(p, j) for p in range(g.P)]
        got = _entry_rows(np.concatenate([m.idx for m in views]),
                          np.concatenate([m.vals for m in views]))
        assert np.array_equal(got, _entry_rows(t.idx, t.vals))
        for p, m in enumerate(views):
            if schedule == "tensor-stationary":
                c = g.coords(p)[j]
                assert (m.row_lo, m.row_hi) == tuple(g.chunk_offsets[j][c:c + 2])
                assert (g.cell_rank(m.idx) == p).all()
            else:
                assert (m.row_lo, m.row_hi) == g.block_range(j, p)
                assert (g.row_owner(j, m.idx[:, j]) == p).all()


@PROPERTY
@given(case=gridded_tensors(dense=True), R=st.integers(1, 6),
       sampler=st.sampled_from(["exact", "sts", "arls-lev"]), J=st.integers(1, 40))
def test_round_ledger_matches_closed_forms(case, R, sampler, J):
    t, g = case
    schedule = "tensor-stationary" if sampler == "exact" else "accumulator-stationary"
    cfg = AlsConfig(rank=R, rounds=1, sampler=sampler, samples=J, schedule=schedule,
                    grid_dims=g.grid_dims, seed=J, permute=False, compute_fits=False)
    led = run_als(cfg, tensor=t).ledger
    gathered = led.words(kind=gridmod.ALLGATHER, round_id=1)
    reduced = led.words(kind=gridmod.REDUCE_SCATTER, round_id=1)
    N, P = t.mode_count, g.P
    if sampler == "exact":
        assert gathered + reduced == gridmod.ts_exact_round_words_total(g, R)
        return
    assert reduced == 0
    expected = N * gridmod.as_gather_words_total_per_solve(J, R, N, P, sampler)
    if sampler == "arls-lev":
        # Each solve's draws also allgather a (row, probability) pair per sample
        # and constant mode, and each rebuild allgathers one mass per rank.
        expected += N * (N - 1) * (P - 1) * 2 * J + N * P * (P - 1)
    assert gathered == expected


@PROPERTY
@given(case=gridded_tensors(), R=st.integers(1, 3),
       sampler=st.sampled_from(["sts", "arls-lev"]), J=st.integers(1, 40),
       schedule=st.sampled_from(["tensor-stationary", "accumulator-stationary"]))
def test_cell_filtered_extraction_matches_all_keys(case, R, sampler, J, schedule):
    # One extraction and one kernel call over the stack equal, rank by rank
    # and bit for bit, a search of every key over each rank's own slice.
    t, g = case
    gen = np.random.default_rng(J)
    blocks = [FactorBlocks.from_global(gen.standard_normal((d, R)), g, j)
              for j, d in enumerate(t.dims)]
    ctx = SolveContext(g, schedule, sampler, J, blocks, partition_to_grid(t, g, schedule),
                       gridmod.CommLedger(), seed=J)
    build = sts_build if sampler == "sts" else arls_lev_build
    ctx.states = [build(b) for b in blocks]
    for k in range(t.mode_count):
        batch = draw_batch(ctx, k)
        sample_weights(batch)
        _, cols = _sketched_gram(ctx, k, batch, metered=schedule == "tensor-stationary")
        got, full, searched = rank_extractions(ctx, k, cols)
        assert len(got) == g.P
        for sub, ref in zip(got, full):
            assert_same_bits(sub, ref)
        # Each distinct column is searched once per solve, over every rank.
        assert searched == cols[0].shape[0]


# Off-mode index spaces needing one, two and three int64 column levels;
# at (2^31)^5 a level would hold two 31-bit modes but for its parent ids.
COLUMN_DIMS = [(5, 4, 3, 6), (1 << 22,) * 4, (4, 1 << 40, 1 << 40, 3), (1 << 13,) * 6,
               (1 << 40,) * 4, (1 << 31,) * 5]


@st.composite
def column_cases(draw):
    """Entries and query tuples over one of COLUMN_DIMS.  Each mode draws
    from three indices, 0 and the widest among them, so columns repeat and
    share prefixes at every level."""
    dims = draw(st.sampled_from(COLUMN_DIMS))
    skip = draw(st.integers(0, len(dims) - 1))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pools = [np.array([0, d - 1, gen.integers(0, d)]) for d in dims]
    n, q = draw(st.integers(1, 50)), draw(st.integers(1, 20))
    idx, queries = (np.stack([p[gen.integers(0, 3, size)] for p in pools], 1)
                    for size in (n, q))
    idx[:, skip] = gen.integers(0, min(dims[skip], 4), n)
    queries[:, skip] = -1
    return dims, skip, idx, queries, gen.random(n) + 0.1


@PROPERTY
@given(case=column_cases())
def test_column_levels_sort_lookup_and_merge_as_mixed_radix_keys(case):
    dims, skip, idx, queries, weights = case
    keys = [py_column_key(r, dims, skip) for r in idx.tolist()]
    m = Matricization(dims, idx, np.ones(idx.shape[0]), skip)
    ref = sorted(range(idx.shape[0]), key=lambda e: (keys[e], idx[e, skip]))
    assert m.col_order.tolist() == ref
    order, plan, codes, col_ptr = m._csc
    assert all(a.dtype == np.int64 for a in [order, col_ptr] + codes)

    # lookup_columns against a filter scan over the entries in column order
    lo, hi = m.lookup_columns(queries)
    for s, row in enumerate(queries.tolist()):
        want = py_column_key(row, dims, skip)
        assert m.col_order[lo[s]:hi[s]].tolist() == [e for e in ref if keys[e] == want]

    # the draw merge: distinct tuples in column order, root-sum-square weights
    X = idx.copy()
    X[:, skip] = -1
    batch = SampleBatch(X, np.ones(X.shape), np.ones(X.shape[0]))
    batch.weights = weights
    Xd, _, merged = distinct_columns(batch, [OnesFactor(d) for d in dims], skip)
    distinct = sorted(set(keys))
    assert [py_column_key(r, dims, skip) for r in Xd.tolist()] == distinct
    ref_sq = [0.0] * len(distinct)
    for e, key in enumerate(keys):
        ref_sq[distinct.index(key)] += weights[e] * weights[e]
    assert np.array_equal(merged, np.sqrt(ref_sq))
    _, codes, ids, first = column_levels(X, dims, skip)
    assert all(a.dtype == np.int64 for a in codes + [ids, first])


def test_column_dims_cover_one_to_three_levels():
    levels = {len(column_levels(np.zeros((50, len(d)), dtype=np.int64), d, s)[0])
              for d in COLUMN_DIMS for s in range(len(d))}
    assert levels == {1, 2, 3}


@PROPERTY
@given(sizes=st.integers(1, 6).flatmap(lambda q: st.lists(
    st.lists(st.none() | st.integers(0, 5), min_size=q, max_size=q),
    min_size=q, max_size=q)))
def test_all_to_allv_conserves_words(sizes):
    q = len(sizes)
    ranks = [3 * m + 1 for m in range(q)]
    send = [[None if n is None else np.arange(float(n)) for n in row] for row in sizes]
    led = gridmod.CommLedger()
    recv = gridmod.all_to_allv(send, ranks, ledger=led, round_id=4)
    n = np.array([[0 if x is None else x for x in row] for row in sizes])
    np.fill_diagonal(n, 0)
    assert all(recv[j][i] is send[i][j] for i in range(q) for j in range(q))
    assert led.words(kind=gridmod.ALL_TO_ALLV) == n.sum()
    for j, rank in enumerate(ranks):
        assert led.words(rank=rank) == n[:, j].sum()
        assert led.messages(rank=rank) == np.count_nonzero(n[:, j])
