"""Property tests over small, awkward inputs: size-1 and size-2 modes, P
that is not a power of two, grids with more chunks than rows (so some
ranks hold nothing), and rank R above a mode dimension."""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from randcp import grid as gridmod, schedules
from randcp.als import AlsConfig, run_als
from randcp.matricization import Matricization, column_levels
from randcp.samplers import SampleBatch
from randcp.schedules import distinct_columns
from randcp.tensor import SparseTensorCOO
from conftest import OnesFactor, py_column_key

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=60)


@st.composite
def gridded_tensors(draw):
    """A dense 3- or 4-mode tensor with modes of size 1 to 4 on a grid of
    P <= 12 ranks, P_k chosen freely (P_k > I_k leaves chunks, and so
    ranks, empty)."""
    dims = tuple(draw(st.lists(st.integers(1, 4), min_size=3, max_size=4)))
    P = draw(st.integers(1, 12))
    grid_dims = draw(st.sampled_from(list(gridmod.factorizations(P, len(dims)))))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    idx = np.stack(np.meshgrid(*[np.arange(d) for d in dims], indexing="ij"),
                   -1).reshape(-1, len(dims))
    t = SparseTensorCOO(dims, idx, gen.standard_normal(idx.shape[0]))
    return t, gridmod.ProcessorGrid(dims, grid_dims)


@PROPERTY
@given(case=gridded_tensors(), R=st.integers(1, 6),
       sampler=st.sampled_from(["exact", "sts", "arls-lev"]), J=st.integers(1, 40))
def test_round_ledger_matches_closed_forms(case, R, sampler, J):
    t, g = case
    schedule = "tensor-stationary" if sampler == "exact" else "accumulator-stationary"
    cfg = AlsConfig(rank=R, rounds=1, sampler=sampler, samples=J, schedule=schedule,
                    grid_dims=g.grid_dims, seed=J, permute=False, compute_fits=False)
    batches, draw = [], schedules.draw_batch

    def recording_draw(ctx, k):
        batches.append((k, draw(ctx, k)))
        return batches[-1][1]

    with mock.patch.object(schedules, "draw_batch", recording_draw):
        led = run_als(cfg, tensor=t).ledger
    gathered = led.words(kind=gridmod.ALLGATHER, round_id=1)
    reduced = led.words(kind=gridmod.REDUCE_SCATTER, round_id=1)
    N, P = t.mode_count, g.P
    if sampler == "exact":
        assert gathered + reduced == gridmod.ts_exact_round_words_total(g, R)
        return
    assert reduced == 0
    if sampler == "sts":
        assert gathered == N * gridmod.as_gather_words_total_per_solve(J, R, N, P)
        return
    # ARLS-LEV: per solve and constant mode, every distinct drawn row goes to
    # the P-1 other ranks twice, as a (row, count, leverage) triple while
    # sampling and as its R-word factor row; each rebuild allgathers one mass
    # per rank.
    assert [k for k, _ in batches] == list(range(N))
    distinct = sum(np.unique(b.X[:, i]).size for k, b in batches for i in range(N) if i != k)
    assert gathered == (P - 1) * (3 + R) * distinct + N * P * (P - 1)


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
    assert all(a.dtype == np.int64 for a in [col_ptr] + codes)
    assert order.dtype == np.uint8  # positions of at most 50 entries, narrowed

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
    _, codes, ids, order, ptr = column_levels(X, dims, skip)
    assert all(a.dtype == np.int64 for a in codes + [ids, order, ptr])


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
