import tracemalloc

import numpy as np
import pytest

from randcp import grid as gridmod, mttkrp
from randcp.linalg import khatri_rao
from randcp.matricization import Matricization, column_keys, column_levels, matricize
from randcp.mttkrp import downsampled_mttkrp, gather_sampled_nonzeros_to_csr, mttkrp_exact
from randcp.tensor import SparseTensorCOO
from conftest import dense_matricization, dense_of, make_sparse


def all_ones_tensor(dims):
    idx = np.stack(np.meshgrid(*[np.arange(d) for d in dims], indexing="ij"),
                   -1).reshape(-1, len(dims))
    return SparseTensorCOO(dims, idx, np.ones(idx.shape[0]))


def random_batch(dims, k, J, seed, R, factors):
    gen = np.random.default_rng(seed)
    X = np.stack([gen.integers(0, d, J) for d in dims], 1).astype(np.int64)
    X[:, k] = -1
    H = np.ones((J, R))
    for i in range(len(dims)):
        if i != k:
            H *= factors[i][X[:, i]]
    weights = gen.random(J) + 0.5
    return X, H, weights


class TestExactMttkrp:
    def test_all_ones_rank1(self):
        t = all_ones_tensor((2, 2, 2))
        m = matricize(t, 0)
        factors = [np.ones((2, 1)) for _ in range(3)]
        out = mttkrp_exact(m, factors)
        assert np.array_equal(out, np.full((2, 1), 4.0))

    def test_empty_local_tensor(self):
        t = SparseTensorCOO((3, 3, 3), np.empty((0, 3), dtype=np.int64), np.empty(0))
        out = mttkrp_exact(matricize(t, 1), [np.ones((3, 2))] * 3)
        assert np.array_equal(out, np.zeros((3, 2)))

    def test_matches_dense_krp_oracle(self):
        t = make_sparse((5, 6, 7), 100, seed=0)
        gen = np.random.default_rng(1)
        factors = [gen.standard_normal((d, 3)) for d in t.dims]
        T = dense_of(t)
        for k in range(3):
            ref = dense_matricization(T, k) @ khatri_rao(factors, skip=k)
            got = mttkrp_exact(matricize(t, k), factors)
            assert np.abs(got - ref).max() < 1e-10

    def test_missing_gathered_rows_error(self):
        t = make_sparse((5, 6, 7), 50, seed=2)
        m = matricize(t, 0)
        gen = np.random.default_rng(3)
        short = [None, gen.standard_normal((4, 3)), gen.standard_normal((7, 3))]
        with pytest.raises(ValueError):
            mttkrp_exact(m, short)

    def test_factor_shorter_than_its_mode_raises(self):
        # every mode-1 index is below 3, yet a 3-row factor does not span the mode's 6 rows
        t = make_sparse((5, 3, 7), 40, seed=6)
        t = SparseTensorCOO((5, 6, 7), t.idx, t.vals)
        gen = np.random.default_rng(7)
        factors = [None, gen.standard_normal((3, 2)), gen.standard_normal((7, 2))]
        with pytest.raises(ValueError, match="mode-1 rows"):
            mttkrp_exact(matricize(t, 0), factors)
        factors[1] = np.vstack([factors[1], gen.standard_normal((3, 2))])
        assert mttkrp_exact(matricize(t, 0), factors).shape == (5, 2)

    def test_off_mode_index_outside_its_dimension_raises(self):
        # 300 would wrap to 44 in the uint8 that narrows a 200-row mode's indices
        m = Matricization((3, 4, 200), np.array([[0, 1, 300], [2, 3, 5]]), np.ones(2), 0)
        with pytest.raises(ValueError):
            mttkrp_exact(m, [None, np.ones((4, 1)), np.ones((200, 1))])

    def test_worker_bit_identity(self):
        t = make_sparse((9, 8, 7), 300, seed=4)
        gen = np.random.default_rng(5)
        factors = [gen.standard_normal((d, 4)) for d in t.dims]
        m = matricize(t, 2)
        ref = mttkrp_exact(m, factors, workers=1)
        for w in (2, 3):
            assert np.array_equal(mttkrp_exact(m, factors, workers=w), ref)


def skewed_rows_tensor():
    """Mode-0 rows 0, 9 and 10 hold 12-40 nnz (more than small chunks), rows
    4 and 37 one each, and runs of empty rows lie between and after them."""
    dims = (45, 7, 6)
    cols = np.stack(np.meshgrid(np.arange(7), np.arange(6), indexing="ij"),
                    -1).reshape(-1, 2)
    gen = np.random.default_rng(21)
    parts = []
    for row, n in ((0, 40), (4, 1), (9, 12), (10, 25), (37, 1)):
        pick = cols[gen.choice(len(cols), n, replace=False)]
        parts.append(np.column_stack([np.full(n, row), pick]))
    idx = np.concatenate(parts)
    return SparseTensorCOO(dims, idx, gen.standard_normal(len(idx)))


def count_make_rows(monkeypatch):
    """Wrap every kernel's ``make_rows`` and return the list of its calls."""
    calls = []
    real = mttkrp._accumulate_rows

    def counting(out, row_ptr, make_rows, ra, rb):
        def counted(lo, hi):
            calls.append(range(lo, hi))
            return make_rows(lo, hi)
        return real(out, row_ptr, counted, ra, rb)

    monkeypatch.setattr(mttkrp, "_accumulate_rows", counting)
    return calls


class TestChunking:
    CHUNKS = (1, 2, 7, mttkrp._CHUNK_NNZ)

    def test_exact_bit_identical_across_chunk_sizes(self, monkeypatch):
        t = skewed_rows_tensor()
        gen = np.random.default_rng(22)
        factors = [gen.standard_normal((d, 4)) for d in t.dims]
        T = dense_of(t)
        for k in range(3):
            m = matricize(t, k)
            ref = dense_matricization(T, k) @ khatri_rao(factors, skip=k)
            outs = []
            for chunk in self.CHUNKS:
                monkeypatch.setattr(mttkrp, "_CHUNK_NNZ", chunk)
                for workers in (1, 3):
                    outs.append(mttkrp_exact(m, factors, workers=workers))
            assert np.abs(outs[0] - ref).max() < 1e-10
            assert all(np.array_equal(o, outs[0]) for o in outs)

    def test_downsampled_bit_identical_across_chunk_sizes(self, monkeypatch):
        t = skewed_rows_tensor()
        gen = np.random.default_rng(23)
        factors = [gen.standard_normal((d, 3)) for d in t.dims]
        for k in range(3):
            m = matricize(t, k)
            X, H, w = random_batch(t.dims, k, 40, 200 + k, 3, factors)
            sub = gather_sampled_nonzeros_to_csr(m, X, k, weights=w)
            A = khatri_rao(factors, skip=k)
            S = np.zeros((40, A.shape[0]))
            S[np.arange(40), column_keys(X, t.dims, k)] = w
            ref = dense_matricization(dense_of(t), k) @ S.T @ S @ A
            outs = []
            for chunk in self.CHUNKS:
                monkeypatch.setattr(mttkrp, "_CHUNK_NNZ", chunk)
                for workers in (1, 2):
                    outs.append(downsampled_mttkrp(sub, H * w[:, None], workers=workers))
            assert np.abs(outs[0] - ref).max() < 1e-10
            assert all(np.array_equal(o, outs[0]) for o in outs)

    def test_chunks_hold_whole_rows(self, monkeypatch):
        m = matricize(skewed_rows_tensor(), 0)
        calls = count_make_rows(monkeypatch)
        monkeypatch.setattr(mttkrp, "_CHUNK_NNZ", 1)
        mttkrp_exact(m, [None, np.ones((7, 2)), np.ones((6, 2))])
        # One chunk per non-empty row; empty runs join the chunk before them.
        assert [len(sel) for sel in calls] == [40, 1, 12, 25, 1]
        calls.clear()
        monkeypatch.setattr(mttkrp, "_CHUNK_NNZ", 41)
        mttkrp_exact(m, [None, np.ones((7, 2)), np.ones((6, 2))])
        assert [len(sel) for sel in calls] == [41, 38]  # 40 + 1, then 12 + 25 + 1

    def test_tall_block_is_one_chunk(self, monkeypatch):
        dims = (1 << 20, 5, 4)
        gen = np.random.default_rng(24)
        idx = np.column_stack([gen.choice(dims[0], 50, replace=False),
                               gen.integers(0, 5, 50), gen.integers(0, 4, 50)])
        vals = gen.standard_normal(50)
        factors = [None, gen.standard_normal((5, 3)), gen.standard_normal((4, 3))]
        m = Matricization(dims, idx, vals, 0)
        ref = np.zeros((dims[0], 3))
        np.add.at(ref, idx[:, 0], vals[:, None] * factors[1][idx[:, 1]] * factors[2][idx[:, 2]])

        calls = count_make_rows(monkeypatch)
        got = mttkrp_exact(m, factors)
        assert len(calls) == 1
        assert np.abs(got - ref).max() < 1e-12

        calls.clear()
        X = idx[:20].copy()  # columns of 20 nonzeros, so every sample hits
        X[:, 0] = -1
        sub = gather_sampled_nonzeros_to_csr(m, X, 0)
        H = factors[1][X[:, 1]] * factors[2][X[:, 2]]
        downsampled_mttkrp(sub, H)
        assert sub.nnz >= 20 and len(calls) == 1


class TestSketchedSubmatrix:
    """The sampled path is the exact kernel on the weighted sketched submatrix."""

    @staticmethod
    def views():
        t = skewed_rows_tensor()
        keep = (t.idx[:, 0] >= 9) & (t.idx[:, 0] < 38)
        block = Matricization(t.dims, t.idx[keep], t.vals[keep], 0)
        again = np.arange(0, t.nnz, 3)  # index tuples held twice, with other values
        twice = Matricization(t.dims, np.concatenate([t.idx, t.idx[again]]),
                              np.concatenate([t.vals, t.vals[again] + 1.0]), 1)
        return t, [matricize(t, k) for k in range(3)] + [block, twice]

    @staticmethod
    def per_entry_reference(m, X, H, w):
        """Each term (H[s] w_s) (v w_s), summed per row by reduceat in (row, s) order."""
        k = m.mode
        others = [i for i in range(m.idx.shape[1]) if i != k]
        rows, cols, vals = [], [], []
        for s in range(X.shape[0]):
            hit = np.flatnonzero(np.all(m.idx[:, others] == X[s, others], axis=1))
            rows += m.idx[hit, k].tolist()
            cols += [s] * hit.size
            vals += m.vals[hit].tolist()
        order = np.lexsort((cols, rows))
        rows, cols, vals = (np.array(a)[order] for a in (rows, cols, vals))
        weighted = vals * w[cols]
        terms = (H[cols] * w[cols, None]) * weighted[:, None]
        out = np.zeros((m.n_rows, H.shape[1]))
        starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
        out[rows[starts]] = np.add.reduceat(terms, starts, axis=0)
        return out, rows, cols, weighted

    def test_bit_identical_to_per_entry_formula(self, monkeypatch):
        t, views = self.views()
        gen = np.random.default_rng(25)
        factors = [gen.standard_normal((d, 3)) for d in t.dims]
        for m in views:
            k = m.mode
            X = m.idx[gen.integers(0, m.nnz, 60)]  # every draw hits
            X[30:] = X[:30]  # a repeated tuple keeps one column per copy
            X[:, k] = -1
            H = np.prod([factors[i][X[:, i]] for i in range(3) if i != k], axis=0)
            w = gen.random(60) + 0.5
            ref, rows, cols, weighted = self.per_entry_reference(m, X, H, w)
            assert rows.size >= 60

            sub = gather_sampled_nonzeros_to_csr(m, X, k, weights=w)
            assert np.array_equal(sub.idx[:, 0], rows)
            assert np.array_equal(sub.idx[:, 1], cols)
            assert np.array_equal(sub.vals, weighted)  # v * w_col, bit for bit
            # built in CSR order: its row layout is the entries as held
            assert np.array_equal(sub.row_ptr, np.searchsorted(rows, np.arange(m.n_rows + 1)))
            assert np.array_equal(sub.row_last, cols) and sub.row_vals is sub.vals

            Hw = H * w[:, None]
            for chunk in (1, 7, mttkrp._CHUNK_NNZ):
                monkeypatch.setattr(mttkrp, "_CHUNK_NNZ", chunk)
                for workers in (1, 3):
                    assert np.array_equal(downsampled_mttkrp(sub, Hw, workers=workers), ref)


class TestGatherSampled:
    def test_all_zero_column_contributes_nothing(self):
        t = SparseTensorCOO((2, 2, 2), np.array([[0, 0, 0]]), np.array([1.0]))
        m = matricize(t, 0)
        X = np.array([[-1, 1, 1]], dtype=np.int64)
        assert gather_sampled_nonzeros_to_csr(m, X, 0).nnz == 0

    def test_full_cover_hits_every_nonzero(self):
        t = make_sparse((4, 4, 4), 40, seed=6)
        m = matricize(t, 1)
        off = [0, 2]
        tuples = sorted({tuple(r) for r in t.idx[:, off].tolist()})
        X = np.full((len(tuples), 3), -1, dtype=np.int64)
        for s, (a, c) in enumerate(tuples):
            X[s, 0], X[s, 2] = a, c
        assert gather_sampled_nonzeros_to_csr(m, X, 1).nnz == t.nnz

    def test_triples_match_filter_scan_oracle(self):
        t = make_sparse((8, 8, 8), 150, seed=7)
        gen = np.random.default_rng(8)
        for k in range(3):
            m = matricize(t, k)
            J = 30
            X = np.stack([gen.integers(0, 8, J) for _ in range(3)], 1).astype(np.int64)
            X[:, k] = -1
            sub = gather_sampled_nonzeros_to_csr(m, X, k)
            got = [(int(r), int(s), v) for (r, s), v in zip(sub.idx, sub.vals)]
            others = [j for j in range(3) if j != k]
            ref = []
            for s in range(J):
                mask = np.all(t.idx[:, others] == X[s, others], axis=1)
                for r, v in zip(t.idx[mask, k], t.vals[mask]):
                    ref.append((int(r), s, v))
            assert sorted(got) == sorted(ref)

    # (4, 2^40, 2^40) packs its off-mode columns into two levels, the second
    # packed below the first level's ids.
    @pytest.mark.parametrize("dims", [(8, 8, 8), (4, 1 << 40, 1 << 40)])
    def test_sample_tuples_not_written(self, dims):
        gen = np.random.default_rng(9)
        idx = np.unique(np.stack([gen.integers(0, d, 60) for d in dims], 1), axis=0)
        m = matricize(SparseTensorCOO(dims, idx, gen.standard_normal(idx.shape[0])), 0)
        X = np.concatenate([idx[::2], np.stack([gen.integers(0, d, 20) for d in dims], 1)])
        assert X.dtype == np.int64 and X.flags.c_contiguous
        before = X.tobytes()
        column_levels(X, dims, 0)
        m.lookup_columns(X)
        gather_sampled_nonzeros_to_csr(m, X, 0)
        assert X.tobytes() == before

    def test_duplicate_samples_kept(self):
        t = SparseTensorCOO((2, 2, 2), np.array([[0, 1, 1], [1, 1, 1]]),
                            np.array([2.0, 3.0]))
        m = matricize(t, 0)
        X = np.array([[-1, 1, 1], [-1, 1, 1]], dtype=np.int64)
        assert gather_sampled_nonzeros_to_csr(m, X, 0).nnz == 4  # both hit both nonzeros


class TestDownsampled:
    def test_zero_samples(self):
        t = make_sparse((4, 4, 4), 20, seed=9)
        m = matricize(t, 0)
        sub = gather_sampled_nonzeros_to_csr(m, np.full((0, 3), -1, dtype=np.int64), 0,
                                             weights=np.ones(0))
        out = downsampled_mttkrp(sub, np.ones((0, 2)))
        assert np.array_equal(out, np.zeros((4, 2)))

    def test_full_cover_reproduces_exact(self):
        # every column sampled once, p_s = 1/n_cols, J = n_cols: S^T S = I
        t = make_sparse((4, 3, 3), 25, seed=10)
        gen = np.random.default_rng(11)
        factors = [gen.standard_normal((d, 2)) for d in t.dims]
        k = 0
        m = matricize(t, k)
        n_cols = t.dims[1] * t.dims[2]
        X = np.full((n_cols, 3), -1, dtype=np.int64)
        s = 0
        for c in range(t.dims[2]):
            for b in range(t.dims[1]):
                X[s, 1], X[s, 2] = b, c
                s += 1
        H = factors[1][X[:, 1]] * factors[2][X[:, 2]]
        w = np.full(n_cols, 1.0)  # 1/sqrt(J * 1/n_cols) with J = n_cols
        got = downsampled_mttkrp(gather_sampled_nonzeros_to_csr(m, X, k, weights=w),
                                 H * w[:, None])
        ref = mttkrp_exact(m, factors)
        assert np.abs(got - ref).max() < 1e-12

    def test_matches_explicit_sketch_oracle(self):
        gen = np.random.default_rng(12)
        t = make_sparse((6, 5, 4), 60, seed=13)
        factors = [gen.standard_normal((d, 3)) for d in t.dims]
        for k in range(3):
            m = matricize(t, k)
            X, H, w = random_batch(t.dims, k, 25, 100 + k, 3, factors)
            got = downsampled_mttkrp(gather_sampled_nonzeros_to_csr(m, X, k, weights=w),
                                     H * w[:, None])
            A = khatri_rao(factors, skip=k)
            S = np.zeros((25, A.shape[0]))
            S[np.arange(25), column_keys(X, t.dims, k)] = w
            ref = dense_matricization(dense_of(t), k) @ S.T @ S @ A
            assert np.abs(got - ref).max() < 1e-10

    def test_worker_bit_identity(self):
        t = make_sparse((10, 9, 8), 400, seed=14)
        gen = np.random.default_rng(15)
        factors = [gen.standard_normal((d, 3)) for d in t.dims]
        m = matricize(t, 0)
        X, H, w = random_batch(t.dims, 0, 64, 16, 3, factors)
        sub = gather_sampled_nonzeros_to_csr(m, X, 0, weights=w)
        ref = downsampled_mttkrp(sub, H * w[:, None], workers=1)
        for workers in (2, 4):
            assert np.array_equal(downsampled_mttkrp(sub, H * w[:, None], workers=workers),
                                  ref)

    def test_shape_mismatch(self):
        t = make_sparse((4, 4, 4), 20, seed=17)
        m = matricize(t, 0)
        X = np.full((3, 3), -1, dtype=np.int64)
        X[:, 1] = 0
        X[:, 2] = 0
        sub = gather_sampled_nonzeros_to_csr(m, X, 0)
        with pytest.raises(ValueError):
            downsampled_mttkrp(sub, np.ones((5, 2)))
        with pytest.raises(ValueError):
            gather_sampled_nonzeros_to_csr(m, X, 0, weights=np.ones(5))


def test_mean_downsampled_matches_exact():
    # unbiasedness: average over many batches approaches the exact MTTKRP
    gen = np.random.default_rng(18)
    t = make_sparse((4, 4, 4), 30, seed=19)
    factors = [gen.standard_normal((4, 2)) for _ in range(3)]
    k = 0
    m = matricize(t, k)
    exact = mttkrp_exact(m, factors)
    n_cols = 16
    J = 8
    n_batches = 100000
    keys_all = gen.integers(0, n_cols, size=(n_batches, J))
    w = np.sqrt(n_cols / J)  # uniform p_s = 1/n_cols
    # The estimator is linear in the draws, and a repeated tuple keeps one
    # column per copy, so all batches go through one extraction and one
    # kernel call: the sum of the per-batch estimates.
    keys = keys_all.reshape(-1)
    X = np.full((keys.size, 3), -1, dtype=np.int64)
    X[:, 1] = keys % 4
    X[:, 2] = keys // 4
    H = factors[1][X[:, 1]] * factors[2][X[:, 2]]
    sub = gather_sampled_nonzeros_to_csr(m, X, k, weights=np.full(keys.size, w))
    mean = downsampled_mttkrp(sub, H * w) / n_batches
    rel = np.linalg.norm(mean - exact) / np.linalg.norm(exact)
    assert rel < 0.02


def shared_prefix_tensor(dims, seed):
    """Random blocks of Cartesian products, so entries share off-mode prefixes."""
    gen = np.random.default_rng(seed)
    parts = [np.stack(np.meshgrid(*[gen.choice(d, min(d, 2), replace=False) for d in dims],
                                  indexing="ij"), -1).reshape(-1, len(dims))
             for _ in range(6)]
    idx = np.unique(np.concatenate(parts), axis=0)
    return SparseTensorCOO(dims, idx, gen.standard_normal(idx.shape[0]))


def per_entry_reference(m, factors):
    """The per-entry formula: factor rows multiplied in ascending mode order,
    then v; each view row's terms, in tensor order, summed by one reduceat."""
    contrib = None
    for i, f in enumerate(factors):
        if i != m.mode:
            rows = f[m.idx[:, i]]
            contrib = rows if contrib is None else contrib * rows
    contrib = contrib * m.vals[:, None]
    out = np.zeros((m.n_rows, contrib.shape[1]))
    by_row = np.argsort(m.idx[:, m.mode], kind="stable")
    ptr = np.searchsorted(m.idx[by_row, m.mode], np.arange(m.n_rows + 1))
    for r in range(m.n_rows):
        entries = by_row[ptr[r]:ptr[r + 1]]
        if entries.size:
            out[r] = np.add.reduceat(contrib[entries], [0], axis=0)[0]
    return out


def check_prefix_table(m):
    """Each level holds the distinct prefixes in lexicographic order, and
    the deepest prefix of each entry, in row order, walks up to its own
    index tuple."""
    modes = [i for i in range(len(m.dims)) if i != m.mode][:-1]
    levels, leaf = m.prefixes
    assert len(levels) == len(modes)
    if not modes:
        assert leaf is None
        return
    tuples = [[(int(x),) for x in levels[0][1]]]
    assert levels[0][0] is None
    for parent, index in levels[1:]:
        tuples.append([tuples[-1][p] + (int(x),) for p, x in zip(parent, index)])
    for d, level in enumerate(tuples, 1):
        assert level == sorted({tuple(r) for r in m.idx[:, modes[:d]].tolist()})
    by_row = np.argsort(m.idx[:, m.mode], kind="stable")
    assert [tuples[-1][e] for e in leaf] == [tuple(r) for r in m.idx[by_row][:, modes].tolist()]


class TestPrefixSharing:
    """The kernel forms each off-mode prefix's row once, with the per-entry
    formula's products and sums, bit for bit."""

    @staticmethod
    def views(t):
        # Every nonzero, and the nonzeros of the mode's upper half of rows.
        for k in range(t.mode_count):
            yield matricize(t, k)
            keep = t.idx[:, k] >= t.dims[k] // 2
            yield Matricization(t.dims, t.idx[keep], t.vals[keep], k)

    @pytest.mark.parametrize("dims", [(5, 4, 6), (4, 3, 5, 4), (3, 4, 2, 3, 2, 4)])
    def test_bit_identical_to_per_entry_formula(self, monkeypatch, dims):
        t = shared_prefix_tensor(dims, seed=len(dims))
        gen = np.random.default_rng(30)
        factors = [gen.standard_normal((d, 4)) for d in dims]
        shared = 0
        for m in self.views(t):
            check_prefix_table(m)
            levels, _ = m.prefixes
            shared += len(levels[-1][1]) < m.nnz
            ref = per_entry_reference(m, factors)
            for chunk in (1, mttkrp._CHUNK_NNZ):
                monkeypatch.setattr(mttkrp, "_CHUNK_NNZ", chunk)
                for workers in (1, 2):
                    got = mttkrp_exact(m, factors, workers=workers)
                    assert got.view(np.int64).tolist() == ref.view(np.int64).tolist()
        assert shared > 0

    def test_huge_mode_dimension_does_not_overflow(self):
        big = (1 << 62) - 1
        dims = (big, 5, big - 2, 7)
        gen = np.random.default_rng(31)
        idx = np.column_stack([big - 1 - gen.integers(0, 3, 60), gen.integers(0, 5, 60),
                               big - 3 - gen.integers(0, 4, 60), gen.integers(0, 7, 60)])
        idx = np.unique(idx, axis=0)
        for k in (1, 3):  # rows of a small mode; the prefixes span the huge ones
            m = Matricization(dims, idx, np.ones(idx.shape[0]), k)
            check_prefix_table(m)
            assert len(m.prefixes[0][-1][1]) < m.nnz  # prefixes are shared

    def test_two_mode_submatrix_builds_no_level(self):
        t = shared_prefix_tensor((5, 4, 6), seed=32)
        m = matricize(t, 1)
        X = m.idx[:10].copy()
        X[:, 1] = -1
        sub = gather_sampled_nonzeros_to_csr(m, X, 1)
        assert sub.nnz >= 10 and sub.prefixes == ((), None)
        H = np.random.default_rng(33).standard_normal((10, 3))
        got = downsampled_mttkrp(sub, H)
        ref = per_entry_reference(sub, [None, H])
        assert got.view(np.int64).tolist() == ref.view(np.int64).tolist()


class TestStreamOrder:
    """The kernels read the row layout as stored: in row order, nothing
    gathered through a permutation."""

    def test_row_layout_holds_last_index_prefix_id_and_value(self):
        t = make_sparse((40, 30, 20, 10), 20000, seed=40)
        for k in range(4):
            m = matricize(t, k)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                layout = m._csr
                kept = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            row_ptr, levels, last, leaf, vals = layout
            check_prefix_table(m)
            by_row = np.argsort(m.idx[:, k], kind="stable")
            off = [i for i in range(4) if i != k]
            assert np.array_equal(row_ptr, np.searchsorted(m.idx[by_row, k],
                                                           np.arange(m.n_rows + 1)))
            assert np.array_equal(last, m.idx[by_row, off[-1]])
            assert np.array_equal(vals.view(np.int64), m.vals[by_row].view(np.int64))
            assert leaf.shape == (m.nnz,)  # check_prefix_table reads its ids
            # At most 24 bytes per entry, and no other array per entry is kept.
            assert last.itemsize + leaf.itemsize + vals.itemsize <= 24
            per_level = sum(a.nbytes for level in levels for a in level if a is not None)
            assert kept <= last.nbytes + leaf.nbytes + vals.nbytes + row_ptr.nbytes \
                + per_level + 8192

    def test_downsampled_kernel_sorts_nothing(self, monkeypatch):
        t = make_sparse((20, 15, 12), 600, seed=41)
        gen = np.random.default_rng(42)
        factors = [gen.standard_normal((d, 3)) for d in t.dims]
        m = matricize(t, 1)
        X, H, w = random_batch(t.dims, 1, 80, 43, 3, factors)
        sub = gather_sampled_nonzeros_to_csr(m, X, 1, weights=w)
        assert sub.nnz > 0
        calls = []
        real = gridmod.stable_argsort
        monkeypatch.setattr(gridmod, "stable_argsort", lambda *a: calls.append(a) or real(*a))
        downsampled_mttkrp(sub, H * w[:, None])
        assert calls == []
