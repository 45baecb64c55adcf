import numpy as np
import pytest

from randcp import linalg
from randcp.linalg import (FactorBlocks, compute_fit, gram, hadamard_gram_chain,
                           khatri_rao, normalize_columns, pseudo_inverse)
from randcp.tensor import SparseTensorCOO
from conftest import dense_of, make_sparse, unit_factors


class TestGram:
    def test_diagonal_example(self):
        U = np.array([[1.0, 0.0], [0.0, 2.0]])
        assert np.array_equal(gram(U), np.array([[1.0, 0.0], [0.0, 4.0]]))

    def test_orthonormal_columns(self):
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 3)))
        assert np.allclose(gram(q), np.eye(3), atol=1e-12)

    def test_split_blocks_match_single(self):
        U = np.random.default_rng(1).standard_normal((7, 3))
        fb = FactorBlocks(0, [U[:4], U[4:]], [0, 4], [4, 7])
        assert np.allclose(gram(fb), gram(U), atol=1e-12)

    def test_gram_psd(self):
        for seed in range(5):
            U = np.random.default_rng(seed).standard_normal((8, 4))
            w = np.linalg.eigvalsh(gram(U))
            assert w.min() >= -1e-10 * max(w.max(), 1.0)


class TestHadamardChain:
    def test_identity_elementwise(self):
        G1 = np.array([[2.0, 1.0], [1.0, 2.0]])
        G2 = np.eye(2)
        out = hadamard_gram_chain([G1, G2, np.full((2, 2), 9.0)], skip=2)
        assert np.array_equal(out, np.array([[2.0, 0.0], [0.0, 2.0]]))

    def test_all_ones_neutral(self):
        gen = np.random.default_rng(2)
        G = gen.standard_normal((3, 3))
        ones = np.ones((3, 3))
        out = hadamard_gram_chain([G, ones], skip=None)
        assert np.allclose(out, G)

    def test_fold_left_oracle(self):
        gen = np.random.default_rng(3)
        mats = [gen.standard_normal((4, 4)) for _ in range(4)]
        ref = np.ones((4, 4))
        for i, M in enumerate(mats):
            if i != 2:
                ref = ref * M
        assert np.allclose(hadamard_gram_chain(mats, skip=2), ref, atol=1e-14)

    def test_permutation_invariance(self):
        gen = np.random.default_rng(4)
        mats = [gen.standard_normal((3, 3)) for _ in range(4)]
        a = hadamard_gram_chain(mats)
        b = hadamard_gram_chain(mats[::-1])
        assert np.allclose(a, b, atol=1e-12)

    def test_empty_chain_error(self):
        with pytest.raises(ValueError):
            hadamard_gram_chain([np.eye(2)], skip=0)


class TestPseudoInverse:
    def test_identity(self):
        assert np.allclose(pseudo_inverse(np.eye(4)), np.eye(4))

    def test_diag_with_zero(self):
        out = pseudo_inverse(np.diag([4.0, 0.0]))
        assert np.allclose(out, np.diag([0.25, 0.0]))

    def test_moore_penrose_identities_rank_deficient(self):
        gen = np.random.default_rng(5)
        for _ in range(5):
            B = gen.standard_normal((5, 3))
            G = B @ B.T  # rank 3 PSD 5x5
            Gp = pseudo_inverse(G)
            scale = np.abs(G).max()
            assert np.abs(G @ Gp @ G - G).max() <= 1e-8 * scale
            assert np.abs(Gp @ G @ Gp - Gp).max() <= 1e-8 * np.abs(Gp).max()
            assert np.abs((G @ Gp) - (G @ Gp).T).max() <= 1e-8 * scale * np.abs(Gp).max()
            assert np.abs((Gp @ G) - (Gp @ G).T).max() <= 1e-8 * scale * np.abs(Gp).max()

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            pseudo_inverse(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestNormalizeColumns:
    def test_three_four_five(self):
        U = np.array([[3.0], [4.0]])
        out, norms = normalize_columns(U)
        assert np.allclose(out, [[0.6], [0.8]])
        assert np.allclose(norms, [5.0])

    def test_zero_column(self):
        U = np.array([[0.0, 1.0], [0.0, 1.0]])
        out, norms = normalize_columns(U)
        assert np.array_equal(out[:, 0], [0.0, 0.0])
        assert norms[0] == 0.0

    def test_reconstruction(self):
        U = np.random.default_rng(6).standard_normal((9, 4))
        out, norms = normalize_columns(U)
        assert np.abs(np.linalg.norm(out, axis=0) - 1.0).max() < 1e-12
        assert np.allclose(out * norms, U)

    @pytest.mark.parametrize("chunk_rows", [1, 3, 1000, linalg.SUMSQ_CHUNK_ROWS])
    @pytest.mark.parametrize("shape", [(1, 5), (999, 2), (1001, 1), (3000, 25), (0, 3)])
    def test_chunked_sums_match_formula_bitwise(self, monkeypatch, chunk_rows, shape):
        monkeypatch.setattr(linalg, "SUMSQ_CHUNK_ROWS", chunk_rows)
        gen = np.random.default_rng(shape[0] + shape[1])
        U = gen.standard_normal(shape) * 10.0 ** gen.integers(-3, 4, shape[1])
        assert np.array_equal(linalg.column_sumsq(U), (U * U).sum(axis=0))
        ref_norms = np.sqrt((U * U).sum(axis=0))
        ref = U / np.where(ref_norms > 0.0, ref_norms, 1.0)
        out, norms = normalize_columns(U)
        assert np.array_equal(out, ref) and np.array_equal(norms, ref_norms)
        same, norms = normalize_columns(U, inplace=True)
        assert same is U and np.array_equal(U, ref) and np.array_equal(norms, ref_norms)

    def test_non_contiguous_input(self):
        U = np.random.default_rng(8).standard_normal((30, 8))[:, ::2]
        norms = np.sqrt((U * U).sum(axis=0))
        assert np.array_equal(normalize_columns(U)[0], U / norms)


class TestComputeFit:
    def test_perfect_agreement(self):
        dims = (5, 4, 3)
        factors = unit_factors(dims, 2, seed=7)
        sigma = np.array([2.0, 0.7])
        T = np.einsum("ir,jr,kr,r->ijk", factors[0], factors[1], factors[2], sigma)
        idx = np.stack(np.meshgrid(*[np.arange(d) for d in dims], indexing="ij"),
                       -1).reshape(-1, 3)
        t = SparseTensorCOO(dims, idx, T.reshape(-1))
        assert abs(compute_fit(t, factors, sigma) - 1.0) < 1e-10

    def test_sigma_zero(self):
        t = make_sparse((4, 4, 4), 20, seed=8)
        factors = unit_factors(t.dims, 2, seed=9)
        assert abs(compute_fit(t, factors, np.zeros(2))) < 1e-12

    def test_matches_dense_oracle(self):
        t = make_sparse((6, 6, 6), 0, seed=10, dense=True)
        factors = unit_factors(t.dims, 3, seed=11)
        sigma = np.random.default_rng(12).random(3) + 0.2
        got = compute_fit(t, factors, sigma)
        T = dense_of(t)
        model = np.einsum("ir,jr,kr,r->ijk", factors[0], factors[1], factors[2], sigma)
        ref = 1.0 - np.linalg.norm(model - T) / np.linalg.norm(T)
        assert abs(got - ref) < 1e-10

    def test_zero_tensor_error(self):
        t = SparseTensorCOO((3, 3, 3), np.array([[0, 0, 0]]), np.array([0.0]))
        with pytest.raises(ValueError):
            compute_fit(t, unit_factors(t.dims, 2, 0), np.ones(2))

    def test_permutation_invariance_of_fit(self):
        from randcp.tensor import permute_modes
        t = make_sparse((6, 5, 4), 40, seed=13)
        factors = unit_factors(t.dims, 2, seed=14)
        sigma = np.array([1.3, 0.4])
        f0 = compute_fit(t, factors, sigma)
        t2, mp = permute_modes(t, seed=15)
        inv = mp.inverse()
        factors2 = [U[inv.perms[j]] for j, U in enumerate(factors)]
        assert abs(compute_fit(t2, factors2, sigma) - f0) < 1e-12


def test_khatri_rao_row_order():
    # row for tuple (i0, i1) sits at key i0 + I0 * i1 (earlier mode fastest)
    A = np.arange(6.0).reshape(3, 2)
    B = np.arange(8.0).reshape(4, 2) + 10.0
    K = khatri_rao([A, B])
    for i0 in range(3):
        for i1 in range(4):
            assert np.array_equal(K[i0 + 3 * i1], A[i0] * B[i1])
