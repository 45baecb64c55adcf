"""Property tests over small, awkward inputs: size-1 and size-2 modes, P
that is not a power of two, grids with more chunks than rows (so some
ranks hold nothing), and rank R above a mode dimension."""

import numpy as np
from hypothesis import given, settings, strategies as st

from randcp import grid as gridmod
from randcp.als import AlsConfig, run_als
from randcp.matricization import partition_to_grid
from randcp.tensor import SparseTensorCOO

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
