import numpy as np
import pytest

from randcp import mttkrp
from randcp.linalg import khatri_rao
from randcp.matricization import Matricization, column_keys, matricize
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

    def counting(out, row_ptr, order, make_rows, ra, rb):
        def counted(sel):
            calls.append(sel)
            return make_rows(sel)
        return real(out, row_ptr, order, counted, ra, rb)

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
            csr = gather_sampled_nonzeros_to_csr(m, X, k)
            A = khatri_rao(factors, skip=k)
            S = np.zeros((40, A.shape[0]))
            S[np.arange(40), column_keys(X, t.dims, k)] = w
            ref = dense_matricization(dense_of(t), k) @ S.T @ S @ A
            outs = []
            for chunk in self.CHUNKS:
                monkeypatch.setattr(mttkrp, "_CHUNK_NNZ", chunk)
                for workers in (1, 2):
                    outs.append(downsampled_mttkrp(csr, H, w, workers=workers))
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
        csr = gather_sampled_nonzeros_to_csr(m, X, 0)
        H = factors[1][X[:, 1]] * factors[2][X[:, 2]]
        downsampled_mttkrp(csr, H, np.ones(20))
        assert csr.nnz >= 20 and len(calls) == 1


class TestGatherSampled:
    def test_all_zero_column_contributes_nothing(self):
        t = SparseTensorCOO((2, 2, 2), np.array([[0, 0, 0]]), np.array([1.0]))
        m = matricize(t, 0)
        X = np.array([[-1, 1, 1]], dtype=np.int64)
        csr = gather_sampled_nonzeros_to_csr(m, X, 0)
        assert csr.nnz == 0

    def test_full_cover_hits_every_nonzero(self):
        t = make_sparse((4, 4, 4), 40, seed=6)
        m = matricize(t, 1)
        off = [0, 2]
        tuples = sorted({tuple(r) for r in t.idx[:, off].tolist()})
        X = np.full((len(tuples), 3), -1, dtype=np.int64)
        for s, (a, c) in enumerate(tuples):
            X[s, 0], X[s, 2] = a, c
        csr = gather_sampled_nonzeros_to_csr(m, X, 1)
        assert csr.nnz == t.nnz

    def test_triples_match_filter_scan_oracle(self):
        t = make_sparse((8, 8, 8), 150, seed=7)
        gen = np.random.default_rng(8)
        for k in range(3):
            m = matricize(t, k)
            J = 30
            X = np.stack([gen.integers(0, 8, J) for _ in range(3)], 1).astype(np.int64)
            X[:, k] = -1
            csr = gather_sampled_nonzeros_to_csr(m, X, k)
            got = []
            for i in range(csr.n_rows):
                for pos in range(csr.row_ptr[i], csr.row_ptr[i + 1]):
                    got.append((i, int(csr.col_idx[pos]), csr.vals[pos]))
            others = [j for j in range(3) if j != k]
            ref = []
            for s in range(J):
                mask = np.all(t.idx[:, others] == X[s, others], axis=1)
                for r, v in zip(t.idx[mask, k], t.vals[mask]):
                    ref.append((int(r), s, v))
            assert sorted(got) == sorted(ref)

    def test_duplicate_samples_kept(self):
        t = SparseTensorCOO((2, 2, 2), np.array([[0, 1, 1], [1, 1, 1]]),
                            np.array([2.0, 3.0]))
        m = matricize(t, 0)
        X = np.array([[-1, 1, 1], [-1, 1, 1]], dtype=np.int64)
        csr = gather_sampled_nonzeros_to_csr(m, X, 0)
        assert csr.nnz == 4  # both samples hit both nonzeros


class TestDownsampled:
    def test_zero_samples(self):
        t = make_sparse((4, 4, 4), 20, seed=9)
        m = matricize(t, 0)
        csr = gather_sampled_nonzeros_to_csr(m, np.full((0, 3), -1, dtype=np.int64), 0)
        out = downsampled_mttkrp(csr, np.ones((0, 2)), np.ones(0))
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
        csr = gather_sampled_nonzeros_to_csr(m, X, k)
        got = downsampled_mttkrp(csr, H, w)
        ref = mttkrp_exact(m, factors)
        assert np.abs(got - ref).max() < 1e-12

    def test_matches_explicit_sketch_oracle(self):
        gen = np.random.default_rng(12)
        t = make_sparse((6, 5, 4), 60, seed=13)
        factors = [gen.standard_normal((d, 3)) for d in t.dims]
        for k in range(3):
            m = matricize(t, k)
            X, H, w = random_batch(t.dims, k, 25, 100 + k, 3, factors)
            csr = gather_sampled_nonzeros_to_csr(m, X, k)
            got = downsampled_mttkrp(csr, H, w)
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
        csr = gather_sampled_nonzeros_to_csr(m, X, 0)
        ref = downsampled_mttkrp(csr, H, w, workers=1)
        for workers in (2, 4):
            assert np.array_equal(downsampled_mttkrp(csr, H, w, workers=workers), ref)

    def test_shape_mismatch(self):
        t = make_sparse((4, 4, 4), 20, seed=17)
        m = matricize(t, 0)
        X = np.full((3, 3), -1, dtype=np.int64)
        X[:, 1] = 0
        X[:, 2] = 0
        csr = gather_sampled_nonzeros_to_csr(m, X, 0)
        with pytest.raises(ValueError):
            downsampled_mttkrp(csr, np.ones((5, 2)), np.ones(3))


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
    acc = np.zeros_like(exact)
    n_batches = 100000
    keys_all = gen.integers(0, n_cols, size=(n_batches, J))
    w = np.sqrt(n_cols / J)  # uniform p_s = 1/n_cols
    for b in range(n_batches):
        keys = keys_all[b]
        X = np.full((J, 3), -1, dtype=np.int64)
        X[:, 1] = keys % 4
        X[:, 2] = keys // 4
        H = factors[1][X[:, 1]] * factors[2][X[:, 2]]
        csr = gather_sampled_nonzeros_to_csr(m, X, k)
        acc += downsampled_mttkrp(csr, H, np.full(J, w))
    mean = acc / n_batches
    rel = np.linalg.norm(mean - exact) / np.linalg.norm(exact)
    assert rel < 0.02
