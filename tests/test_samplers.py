import tracemalloc

import numpy as np
import pytest

from randcp import grid as gridmod
from randcp.linalg import FactorBlocks, gram
from randcp.matricization import column_keys, partition_to_grid
from randcp import als, samplers, schedules
from randcp.samplers import (DegenerateWalkError, arls_lev_build, arls_lev_sample,
                             consistent_multinomial, exact_krp_leverage_oracle,
                             krp_leverage_scores, sample_weights, sts_build, sts_sample)
from randcp.schedules import distinct_columns
from conftest import block_owner, make_sparse


def single_grid(dims):
    return gridmod.ProcessorGrid(dims, tuple(1 for _ in dims))


def blocks_for(factors, grid):
    return [FactorBlocks.from_global(U, grid, j) for j, U in enumerate(factors)]


def sts_setup(factors, grid):
    return [sts_build(b) for b in blocks_for(factors, grid)]


class TestLeverageOracle:
    def test_orthonormal_identity_factors(self):
        probs = exact_krp_leverage_oracle([np.eye(2), np.eye(2), None], skip=2)
        assert np.allclose(probs, [0.5, 0.0, 0.0, 0.5])

    def test_trace_identity(self):
        gen = np.random.default_rng(0)
        factors = [gen.standard_normal((5, 3)), gen.standard_normal((4, 3))]
        scores = krp_leverage_scores(factors)
        assert abs(scores.sum() - 3.0) < 1e-10  # full column rank => trace R

    def test_matches_hat_matrix_diagonal(self):
        gen = np.random.default_rng(1)
        factors = [gen.standard_normal((4, 3)), gen.standard_normal((5, 3))]
        probs = exact_krp_leverage_oracle(factors)
        from randcp.linalg import khatri_rao
        A = khatri_rao(factors)
        hat = A @ np.linalg.pinv(A.T @ A) @ A.T
        ref = np.diag(hat) / np.diag(hat).sum()
        assert np.abs(probs - ref).max() < 1e-10

    def test_guard(self):
        with pytest.raises(ValueError):
            krp_leverage_scores([np.ones((2000, 2)), np.ones((2000, 2))])


class TestArlsBuild:
    def test_identity_block(self):
        fb = FactorBlocks(np.eye(2), [0], [2])
        st = arls_lev_build(fb)
        assert np.allclose(st, [0.5, 0.5])

    def test_duplicate_rows_equal_weights(self):
        row = np.array([1.0, 2.0, -1.0])
        fb = FactorBlocks(np.tile(row, (4, 1)), [0], [4])
        st = arls_lev_build(fb)
        assert np.allclose(st, 0.25)

    def test_blocks_concatenate_to_exact_leverage(self):
        gen = np.random.default_rng(2)
        U = gen.standard_normal((16, 3))
        g = gridmod.ProcessorGrid((16, 4, 4), (4, 1, 1))
        fb = FactorBlocks.from_global(U, g, 0)
        st = arls_lev_build(fb)
        ref = exact_krp_leverage_oracle([U])
        assert np.abs(st - ref).max() < 1e-12


class TestArlsSample:
    def test_degenerate_all_mass_one_row(self):
        factors = [np.zeros((9, 2)) for _ in range(3)]
        for U in factors:
            U[7] = [1.0, -2.0]
        g = single_grid((9, 9, 9))
        states = [arls_lev_build(b) for b in blocks_for(factors, g)]
        batch = arls_lev_sample(states, 2, 64, seed=3)
        assert (batch.X[:, 0] == 7).all() and (batch.X[:, 1] == 7).all()
        assert (batch.X[:, 2] == -1).all()

    def test_consistent_multinomial_shared_stream(self):
        masses = np.array([1.0, 3.0, 2.0, 4.0])
        a = consistent_multinomial(masses, 1000, seed=5, round_id=2, k=1, mode=0)
        b = consistent_multinomial(masses, 1000, seed=5, round_id=2, k=1, mode=0)
        assert np.array_equal(a, b)
        assert a.sum() == 1000

    def test_empirical_matches_product_distribution(self):
        gen = np.random.default_rng(4)
        dims = (4, 4, 3)
        factors = [gen.standard_normal((d, 2)) for d in dims]
        g = single_grid(dims)
        states = [arls_lev_build(b) for b in blocks_for(factors, g)]
        J = 50000
        batch = arls_lev_sample(states, 2, J, seed=6)
        per = [exact_krp_leverage_oracle([factors[i]]) for i in range(2)]
        joint = np.multiply.outer(per[1], per[0]).reshape(-1)
        emp = np.bincount(column_keys(batch.X, dims, 2), minlength=16) / J
        assert 0.5 * np.abs(emp - joint).sum() < 0.02
        ref = per[0][batch.X[:, 0]] * per[1][batch.X[:, 1]]
        assert np.abs(batch.prob - ref).max() < 1e-12

    def test_zero_samples(self):
        gen = np.random.default_rng(5)
        factors = [gen.standard_normal((4, 2)) for _ in range(3)]
        g = single_grid((4, 4, 4))
        states = [arls_lev_build(b) for b in blocks_for(factors, g)]
        batch = arls_lev_sample(states, 1, 0, seed=0)
        assert batch.J == 0

    def test_all_zero_mass_errors(self):
        factors = [np.zeros((4, 2)) for _ in range(3)]
        g = single_grid((4, 4, 4))
        states = [arls_lev_build(b) for b in blocks_for(factors, g)]
        with pytest.raises(ValueError):
            arls_lev_sample(states, 2, 8, seed=0)

    def test_multi_rank_distribution_unchanged(self):
        gen = np.random.default_rng(6)
        dims = (8, 6, 5)
        factors = [gen.standard_normal((d, 2)) for d in dims]
        J = 40000
        emps = {}
        for gdims in ((1, 1, 1), (2, 2, 1)):
            g = gridmod.ProcessorGrid(dims, gdims)
            states = [arls_lev_build(b) for b in blocks_for(factors, g)]
            batch = arls_lev_sample(states, 2, J, seed=7)
            emps[gdims] = np.bincount(column_keys(batch.X, dims, 2), minlength=48) / J
        assert 0.5 * np.abs(emps[(1, 1, 1)] - emps[(2, 2, 1)]).sum() < 0.02

    # Six ranks on a 3x2x1 grid over (4, 4, 3): both off modes of k=2 have
    # an empty block, and mode 1's blocks are out of row order.
    @staticmethod
    def six_rank_states(factors):
        g = gridmod.ProcessorGrid((4, 4, 3), (3, 2, 1))
        return g, [arls_lev_build(b) for b in blocks_for(factors, g)]

    def test_ledger_words_are_block_counts(self):
        gen = np.random.default_rng(8)
        factors = [gen.standard_normal((d, 2)) for d in (4, 4, 3)]
        g, states = self.six_rank_states(factors)
        J = 1000
        batch = arls_lev_sample(states, 2, J, seed=9, round_id=1)
        # The draw meters nothing itself: its triples ride in the solve's one
        # all-rank allgather.  Under tensor-stationary both off modes have
        # P_i > 1, so their rows go in slice-group gathers, not beside them.
        ledger = gridmod.CommLedger()
        part = partition_to_grid(make_sparse(g.tensor_dims, 20, seed=8), g,
                                 "tensor-stationary")
        ctx = schedules.SolveContext(g, "arls-lev", J, blocks_for(factors, g), part,
                                     ledger, seed=9)
        ctx.round_id = 1
        schedules._meter_world_gather(ctx, 2, batch)
        received = np.zeros(g.P, dtype=np.int64)
        for i in (0, 1):
            rows, counts = np.unique(batch.X[:, i], return_counts=True)
            assert counts.sum() == J and (counts > 1).any()
            sent = np.bincount(block_owner(g, i, rows), minlength=g.P)
            assert (sent == 0).any()
            # the other ranks' (row, count, leverage) triples, one per distinct row
            received += 3 * (sent.sum() - sent)
        words = [ledger.words(kind=gridmod.ALLGATHER, round_id=1, rank=p) for p in range(g.P)]
        assert words == received.tolist()
        assert sum(words) == (g.P - 1) * 3 * sum(np.unique(batch.X[:, i]).size for i in (0, 1))
        # both off modes' triples go in one allgather
        assert [ledger.messages(kind=gridmod.ALLGATHER, round_id=1, rank=p)
                for p in range(g.P)] == [g.P - 1] * g.P

    def test_zero_leverage_row_never_drawn(self):
        gen = np.random.default_rng(10)
        factors = [gen.standard_normal((d, 2)) for d in (4, 4, 3)]
        factors[1][2] = 0.0
        _, states = self.six_rank_states(factors)
        assert states[1][2] == 0.0
        batch = arls_lev_sample(states, 2, 20000, seed=11)
        assert not (batch.X[:, 1] == 2).any()
        assert set(np.unique(batch.X[:, 1])) == {0, 1, 3}


@pytest.mark.parametrize("N,k", [(3, 0), (4, 1), (6, 5)])
def test_arls_lev_prob_has_the_bits_of_the_leverage_product(N, k):
    """An ARLS-LEV draw's probability is the product of its off-mode rows'
    leverage, bit for bit the row product of the (J, N) table of those
    leverages with ones in column k."""
    gen = np.random.default_rng(N)
    dims = (7, 6, 5, 4, 3, 2)[:N]
    factors = [gen.standard_normal((d, 2)) * gen.random((d, 1)) ** 8 for d in dims]
    states = [arls_lev_build(b) for b in blocks_for(factors, single_grid(dims))]
    batch = arls_lev_sample(states, k, 4096, seed=N)
    table = np.ones((batch.J, N))
    for i in range(N):
        if i != k:
            table[:, i] = states[i][batch.X[:, i]]
    want = table.prod(axis=1)
    assert (batch.X[:, k] == -1).all()
    assert np.array_equal(batch.prob.view(np.int64), want.view(np.int64))


class TestStsBuild:
    def test_single_rank_single_leaf(self):
        gen = np.random.default_rng(7)
        U = gen.standard_normal((5, 3))
        fb = FactorBlocks(U, [0], [5])
        tree = sts_build(fb)
        assert tree.depth == 0
        assert np.allclose(tree.node_grams[0][0], U.T @ U, atol=1e-12)

    def test_two_leaves_root_and_left_cache(self):
        gen = np.random.default_rng(8)
        B1, B2 = gen.standard_normal((3, 2)), gen.standard_normal((4, 2))
        fb = FactorBlocks(np.vstack([B1, B2]), [0, 3], [3, 7])
        tree = sts_build(fb)
        assert np.allclose(tree.node_grams[0][0], B1.T @ B1 + B2.T @ B2, atol=1e-12)
        assert np.allclose(tree.node_grams[1][0], B1.T @ B1, atol=1e-12)

    def test_eight_leaves_internal_nodes_sum_descendants(self):
        gen = np.random.default_rng(9)
        U = gen.standard_normal((24, 3))
        g = gridmod.ProcessorGrid((24, 4, 4), (8, 1, 1))
        fb = FactorBlocks.from_global(U, g, 0)
        tree = sts_build(fb)
        leaf = tree.node_grams[tree.depth]
        for lev in range(tree.depth):
            width = 1 << (tree.depth - lev)
            for v in range(1 << lev):
                ref = leaf[v * width:(v + 1) * width].sum(axis=0)
                assert np.abs(tree.node_grams[lev][v] - ref).max() < 1e-12

    def test_tree_consistency_invariants(self):
        gen = np.random.default_rng(10)
        U = gen.standard_normal((13, 3))  # uneven blocks, padded tree (P=3 -> 4 leaves)
        fb = FactorBlocks(U, [0, 5, 9], [5, 9, 13])
        tree = sts_build(fb)
        assert np.abs(tree.node_grams[0][0] - gram(U)).max() < 1e-12
        for lev in range(tree.depth):
            kids = tree.node_grams[lev + 1]
            for v in range(1 << lev):
                assert np.abs(tree.node_grams[lev][v] - kids[2 * v] - kids[2 * v + 1]).max() < 1e-12
        for lev in range(tree.depth + 1):
            for v in range(1 << lev):
                w = np.linalg.eigvalsh(tree.node_grams[lev][v])
                assert w.min() >= -1e-10 * max(w.max(), 1.0)


class TestStsSample:
    def test_all_singleton_modes(self):
        factors = [np.array([[1.0, 2.0]]), np.array([[3.0, 0.5]]), np.array([[1.0, 1.0]])]
        g = single_grid((1, 1, 1))
        trees = sts_setup(factors, g)
        batch = sts_sample(trees, 2, 16, seed=11)
        assert (batch.X[:, :2] == 0).all()
        sample_weights(batch)
        H = distinct_columns(batch, factors, 2)[1]
        assert np.allclose(H, [factors[0][0] * factors[1][0]])

    def test_h_after_first_mode(self):
        gen = np.random.default_rng(12)
        dims = (6, 1, 4)
        factors = [gen.standard_normal((6, 2)), np.ones((1, 2)), gen.standard_normal((4, 2))]
        g = single_grid(dims)
        trees = sts_setup(factors, g)
        batch = sts_sample(trees, 2, 32, seed=13)
        sample_weights(batch)
        X, H, _ = distinct_columns(batch, factors, 2)
        assert np.allclose(H, factors[0][X[:, 0]])

    def test_empirical_matches_exact_oracle(self):
        gen = np.random.default_rng(14)
        dims = (4, 4, 3)
        factors = [gen.standard_normal((d, 2)) for d in dims]
        g = single_grid(dims)
        trees = sts_setup(factors, g)
        J = 50000
        batch = sts_sample(trees, 2, J, seed=15)
        oracle = exact_krp_leverage_oracle(factors, skip=2)
        emp = np.bincount(column_keys(batch.X, dims, 2), minlength=16) / J
        assert 0.5 * np.abs(emp - oracle).sum() < 0.02
        assert np.abs(batch.prob - oracle[column_keys(batch.X, dims, 2)]).max() < 1e-12

    def test_rank_count_invariance_of_draws(self):
        gen = np.random.default_rng(16)
        dims = (8, 6, 5)
        factors = [gen.standard_normal((d, 2)) for d in dims]
        draws = {}
        for gdims in ((1, 1, 1), (2, 2, 1), (4, 2, 1)):
            g = gridmod.ProcessorGrid(dims, gdims)
            trees = sts_setup(factors, g)
            draws[gdims] = sts_sample(trees, 2, 256, seed=17).X
        assert np.array_equal(draws[(1, 1, 1)], draws[(2, 2, 1)])
        assert np.array_equal(draws[(1, 1, 1)], draws[(4, 2, 1)])

    def test_determinism(self):
        gen = np.random.default_rng(18)
        dims = (6, 5, 4)
        factors = [gen.standard_normal((d, 2)) for d in dims]
        g = gridmod.ProcessorGrid(dims, (2, 1, 1))
        trees = sts_setup(factors, g)
        a = sts_sample(trees, 0, 128, seed=19)
        b = sts_sample(trees, 0, 128, seed=19)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.prob, b.prob)

    # P=6 pads the trees to 8 rank leaves; mode 1 has 3 rows for a slice
    # group of 6 or 8 ranks, so most of its blocks are empty.
    PADDED_DIMS = (6, 3, 5)

    def padded_setup(self, gdims, seed):
        gen = np.random.default_rng(seed)
        factors = [gen.standard_normal((d, 2)) for d in self.PADDED_DIMS]
        trees = sts_setup(factors, gridmod.ProcessorGrid(self.PADDED_DIMS, gdims))
        assert any(grams.shape[0] == 0 for grams in trees[1].leaf_grams)
        return factors, trees

    @pytest.mark.parametrize("gdims", [(3, 1, 2), (2, 1, 4)])
    def test_padded_tree_and_empty_blocks_match_oracle(self, gdims):
        dims = self.PADDED_DIMS
        factors, trees = self.padded_setup(gdims, seed=41)
        J = 50000
        batch = sts_sample(trees, 2, J, seed=42)
        single = sts_sample(sts_setup(factors, single_grid(dims)), 2, J, seed=42)
        assert np.array_equal(batch.X, single.X)
        oracle = exact_krp_leverage_oracle(factors, skip=2)
        keys = column_keys(batch.X, dims, 2)
        emp = np.bincount(keys, minlength=oracle.size) / J
        assert 0.5 * np.abs(emp - oracle).sum() < 0.02
        assert np.abs(batch.prob - oracle[keys]).max() < 1e-12

    def test_walk_into_an_empty_padded_subtree_raises(self):
        # Mass planted on the mode-0 tree's path to padding leaves 6 and 7
        # draws a walk whose residual is near one into their subtree.
        _, trees = self.padded_setup((3, 1, 2), seed=46)
        for lev, node in ((0, 0), (1, 1), (2, 3)):
            trees[0].node_grams[lev][node] += 10.0 * np.eye(2)
        override = np.full((4, 3), samplers._ONE_BELOW)
        with pytest.raises(DegenerateWalkError, match="empty padded subtree"):
            sts_sample(trees, 2, 4, seed=0, uniform_override=override)

    def test_leaf_search_budget_of_one_keeps_the_draws(self, monkeypatch):
        _, trees = self.padded_setup((3, 1, 2), seed=43)
        ref = sts_sample(trees, 0, 512, seed=44)
        monkeypatch.setattr(samplers, "LEAF_SEARCH_BUDGET", 1)
        chunked = sts_sample(trees, 0, 512, seed=44)
        assert np.array_equal(chunked.X, ref.X)
        assert np.allclose(chunked.prob, ref.prob, rtol=1e-12, atol=0.0)

    def test_residual_one_below_never_reaches_padding(self):
        dims = self.PADDED_DIMS
        factors, trees = self.padded_setup((3, 1, 2), seed=45)
        override = np.full((4, 3), samplers._ONE_BELOW)
        batch = sts_sample(trees, 2, 4, seed=0, uniform_override=override)
        assert (batch.X[:, 0] == dims[0] - 1).all() and (batch.X[:, 1] == dims[1] - 1).all()
        oracle = exact_krp_leverage_oracle(factors, skip=2)
        assert np.abs(batch.prob - oracle[column_keys(batch.X, dims, 2)]).max() < 1e-12

    def test_degenerate_walk_surfaces(self):
        factors = [np.zeros((4, 2)), np.ones((4, 2)), np.ones((3, 2))]
        g = single_grid((4, 4, 3))
        trees = sts_setup(factors, g)
        with pytest.raises(DegenerateWalkError):
            sts_sample(trees, 2, 4, seed=20)


def leaf_tree(W, offs, grams):
    """A one-rank tree over W with leaves at row offsets ``offs`` and
    Grams ``grams``; only the leaf-block and row steps read it."""
    return samplers.LeverageTree(FactorBlocks(W, [0], [W.shape[0]]), [None], None,
                                 np.asarray(offs, dtype=np.int64)[None, :], [grams])


def one_walk_each(n_walks):
    """walk_rank and walk_row for walks 0..n_walks-1 on rank 0."""
    return np.zeros(n_walks, dtype=np.int64), np.arange(n_walks)


def leaf_then_row(tree, cond, designs, walk_rank, walk_row, walk_of, r):
    """The leaf-block and row steps of ``sts_sample`` (two ``_descend``
    steps joined by ``_children``) for walks on ranks ``walk_rank``, in
    ascending order, with design rows ``designs[walk_row]``; sample s
    follows walk ``walk_of[s]`` with residual ``r[s]``.

    Returns each sample's global row, its probability, and its (design
    row, row) cell numbered in that order, as the prefix extension numbers
    the next prefixes.
    """
    P, width = tree.leaf_bounds.shape[0], tree.leaf_bounds.shape[1] - 1
    lo, hi = tree.leaf_bounds[:, :-1].ravel(), tree.leaf_bounds[:, 1:].ravel()
    pair_of, parent, leaf, p_leaf, r = samplers._descend(
        designs, walk_row, walk_of, r, np.searchsorted(walk_rank, np.arange(P + 1)),
        lambda p: tree.leaf_grams[p] * cond, width)
    cell = walk_rank[parent] * width + leaf
    order, walk_of, group_at = samplers._children(pair_of, cell, lo.size)
    cell, walk_row = cell[order], walk_row[parent[order]]
    U = tree.factor.U
    pair_of, parent, q, p_row, _ = samplers._descend(
        designs, walk_row, walk_of, r, group_at,
        lambda c: U[lo[c]:hi[c], :, None] * U[lo[c]:hi[c], None, :] * cond,
        int((hi - lo)[cell].max()))
    _, cells, _ = samplers._children(pair_of, walk_row[parent], designs.shape[0])
    return (lo[cell[parent]] + q).take(pair_of), p_leaf * p_row, cells


def leaf_search(h, W, leaf_grams, offs, cond, r):
    """Local rows picked by one design row ``h`` at each residual in ``r``."""
    r = np.atleast_1d(np.asarray(r, dtype=np.float64))
    tree = leaf_tree(W, offs, leaf_grams)
    rows, _, _ = leaf_then_row(tree, cond, np.asarray(h, dtype=np.float64)[None, :],
                               *one_walk_each(1), np.zeros(r.size, dtype=np.int64), r)
    return rows


class TestLocalLeafSearch:
    def test_single_row_leaf(self):
        W = np.array([[2.0, 1.0]])
        grams = W[:, :, None] * W[:, None, :]
        offs = np.array([0, 1])
        cond = np.eye(2)
        for r in (0.0, 0.3, 0.999):
            assert leaf_search(np.ones(2), W, grams, offs, cond, r) == 0

    def test_mass_concentrated_on_row0(self):
        W = np.array([[1.0, 1.0], [0.0, 0.0]])
        tree_grams = np.stack([W[:1].T @ W[:1], W[1:].T @ W[1:]])
        offs = np.array([0, 1, 2])
        for r in (0.0, 0.5, 0.99):
            assert leaf_search(np.ones(2), W, tree_grams, offs, np.eye(2), r) == 0

    def test_segments_proportional_to_row_masses(self):
        gen = np.random.default_rng(21)
        W = gen.standard_normal((8, 3))
        offs = np.array([0, 4, 8])
        leaf_grams = np.stack([W[:4].T @ W[:4], W[4:].T @ W[4:]])
        B = gen.standard_normal((3, 3))
        cond = B @ B.T
        h = gen.standard_normal(3)
        m = np.array([(W[q] * h) @ cond @ (W[q] * h) for q in range(8)])
        edges = np.cumsum(m) / m.sum()
        grid = (np.arange(4000) + 0.5) / 4000
        picked = leaf_search(h, W, leaf_grams, offs, cond, grid)
        ref = np.searchsorted(edges, grid, side="right")
        assert np.array_equal(picked, np.minimum(ref, 7))

    def test_zero_mass_errors(self):
        W = np.zeros((4, 2))
        grams = np.zeros((1, 2, 2))
        with pytest.raises(DegenerateWalkError):
            leaf_search(np.ones(2), W, grams, np.array([0, 4]), np.eye(2), 0.5)


class TestBatchedLeafSearch:
    """The batched two-stage search against per-row enumeration of the block."""

    @staticmethod
    def case(leaf_size, n=11, R=3, n_designs=6):
        gen = np.random.default_rng(31)
        W = gen.standard_normal((n, R))
        offs = np.minimum(np.arange(-(-n // leaf_size) + 1) * leaf_size, n)
        leaf_grams = np.stack([W[a:b].T @ W[a:b] for a, b in zip(offs[:-1], offs[1:])])
        B = gen.standard_normal((R, R))
        cond = B @ B.T
        designs = gen.standard_normal((n_designs, R))
        # row masses (w_q * h)^T cond (w_q * h), enumerated row by row
        masses = np.array([[(W[q] * h) @ cond @ (W[q] * h) for q in range(n)]
                           for h in designs])
        cdf = np.cumsum(masses, axis=1)
        # sample (d, q) steers design d to the middle of row q's segment
        which = np.repeat(np.arange(n_designs), n)
        r = ((cdf - 0.5 * masses) / cdf[:, -1:]).reshape(-1)
        expected_prob = (masses / cdf[:, -1:]).reshape(-1)
        tree = leaf_tree(W, offs, leaf_grams)
        return tree, cond, designs, which, r, expected_prob

    @staticmethod
    def check_matches(tree, cond, designs, which, r, expected):
        rows, prob, cells = leaf_then_row(
            tree, cond, designs, *one_walk_each(len(designs)), which, r)
        assert np.array_equal(rows, np.tile(np.arange(11), len(designs)))
        assert np.allclose(prob, expected, rtol=1e-12, atol=0.0)
        assert np.array_equal(cells, np.arange(which.size))  # (design row, row) order

    @pytest.mark.parametrize("leaf_size", [1, 3, 11])
    def test_matches_row_enumeration(self, leaf_size):
        self.check_matches(*self.case(leaf_size))

    def test_default_leaf_sizing(self):
        # sts_build cuts a block of n rows into ceil(sqrt(n))-row leaves
        tree, *rest = self.case(4)
        built = sts_build(tree.factor)
        assert np.array_equal(built.leaf_bounds, [[0, 4, 8, 11]])
        assert [grams.shape[0] for grams in built.leaf_grams] == [3]
        self.check_matches(built, *rest)

    def test_shared_design_rows_and_chunks(self, monkeypatch):
        tree, cond, designs, which, r, _ = self.case(3)
        shared = leaf_then_row(tree, cond, designs, *one_walk_each(len(designs)), which, r)
        # one walk per sample, each naming its design row
        per_sample = leaf_then_row(tree, cond, designs, np.zeros(which.size, dtype=np.int64),
                                   which, np.arange(which.size), r)
        monkeypatch.setattr(samplers, "LEAF_SEARCH_BUDGET", 1)   # one walk per chunk
        chunked = leaf_then_row(tree, cond, designs, *one_walk_each(len(designs)), which, r)
        # single-row products may round differently, so only the rows are exact
        for other in (per_sample, chunked):
            assert np.array_equal(other[0], shared[0])
            assert np.allclose(other[1], shared[1], rtol=1e-12, atol=0.0)
            assert np.array_equal(other[2], shared[2])


def test_inverse_cdf_rescales_midpoints_and_skips_padding():
    tiny = np.nextafter(0.0, 1.0)
    masses = np.array([[1.0, 3.0, 0.0, 2.0, 0.0, 0.0],
                       [4.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                       [2 * tiny, tiny, 0.0, 0.0, 0.0, 0.0]])   # trailing zeros pad
    of = np.array([0, 0, 0, 1, 0, 1, 2])
    top = samplers._ONE_BELOW
    r = np.array([0.5 / 6, 2.5 / 6, 5.0 / 6, 0.5, top, top, top])
    # one walk per row above; the search takes walks as columns
    choice, prob, r_out = samplers._inverse_cdf(masses.T.copy(), of, r)
    # r * total would round up to the total of the subnormal masses; the
    # normalized CDF still ends at exactly 1, so the draw stays off the padding
    assert np.array_equal(choice, [0, 1, 3, 0, 3, 0, 1])
    assert np.allclose(prob, [1 / 6, 3 / 6, 2 / 6, 1.0, 2 / 6, 1.0, 1 / 3], rtol=1e-15)
    assert np.allclose(r_out[:4], 0.5, atol=1e-12)   # midpoints stay midpoints
    assert (r_out <= samplers._ONE_BELOW).all()


class TestLeafSearchAcrossRanks:
    """One leaf search over several ranks with unequal and empty blocks."""

    @staticmethod
    def case():
        gen = np.random.default_rng(35)
        W = gen.standard_normal((11, 3))
        # rank 1 is empty; sts_build cuts 5, 4 and 2 rows into 2, 2 and 1 leaves
        fb = FactorBlocks(W, [0, 5, 5, 9], [5, 5, 9, 11])
        tree = sts_build(fb)
        B = gen.standard_normal((3, 3))
        cond = B @ B.T
        designs = gen.standard_normal((2, 3))
        ranks = np.array([0, 2, 3])
        walk_rank = np.repeat(ranks, 2)                  # walks (rank, design)
        walk_row = np.tile(np.arange(2), ranks.size)
        which, r, rows, expected = [], [], [], []
        for w, (p, d) in enumerate(zip(walk_rank, walk_row)):
            lo, hi = fb.lows[p], fb.his[p]
            m = np.array([(W[q] * designs[d]) @ cond @ (W[q] * designs[d])
                          for q in range(lo, hi)])
            cdf = np.cumsum(m)
            which.append(np.full(m.size, w))
            r.append((cdf - 0.5 * m) / cdf[-1])
            rows.append(np.arange(lo, hi))
            expected.append(m / cdf[-1])
        return (tree, cond, designs, walk_rank, walk_row, np.concatenate(which),
                np.concatenate(r), np.concatenate(rows), np.concatenate(expected))

    def test_layout_pads_to_the_largest_leaf_count(self):
        tree = self.case()[0]
        assert [grams.shape[0] for grams in tree.leaf_grams] == [2, 0, 2, 1]
        assert np.array_equal(tree.leaf_bounds,
                              [[0, 3, 5], [5, 5, 5], [5, 7, 9], [9, 11, 11]])

    @pytest.mark.parametrize("budget", [samplers.LEAF_SEARCH_BUDGET, 1])
    def test_matches_row_enumeration_per_rank(self, monkeypatch, budget):
        tree, cond, designs, walk_rank, walk_row, which, r, rows, expected = self.case()
        monkeypatch.setattr(samplers, "LEAF_SEARCH_BUDGET", budget)
        got, prob, cells = leaf_then_row(tree, cond, designs, walk_rank, walk_row, which, r)
        assert np.array_equal(got, rows)
        assert np.allclose(prob, expected, rtol=1e-12, atol=0.0)
        # cells go by design row, then row: walks (rank, design) regroup
        assert np.array_equal(np.argsort(cells), np.lexsort((rows, walk_row[which])))

    def test_residual_one_below_lands_on_last_real_row(self):
        tree, cond, designs, walk_rank, walk_row, *_ = self.case()
        r = np.full(walk_rank.size, samplers._ONE_BELOW)
        got, prob, _ = leaf_then_row(tree, cond, designs, walk_rank, walk_row,
                                     np.arange(walk_rank.size), r)
        assert np.array_equal(got, tree.factor.his[walk_rank] - 1)
        assert (prob > 0.0).all()

    def test_walk_on_an_empty_rank_errors(self):
        tree, cond, designs, *_ = self.case()
        with pytest.raises(DegenerateWalkError, match="zero total mass"):
            leaf_then_row(tree, cond, designs, np.array([1]), np.array([0]),
                          np.zeros(1, dtype=np.int64), np.array([0.5]))


def test_leaf_search_temporaries_stay_within_budget(monkeypatch):
    # 40,000 rows in 200 leaves of 200 rows; 20,000 samples on one walk.
    # Any (samples x leaves) or (samples x leaf rows) temporary would take
    # 20,000 x 200 float64s (32 MB).
    gen = np.random.default_rng(37)
    tree = sts_build(FactorBlocks(gen.standard_normal((40000, 2)), [0], [40000]))
    assert tree.leaf_bounds.shape == (1, 201)
    J = 20000
    r = gen.random(J)
    monkeypatch.setattr(samplers, "LEAF_SEARCH_BUDGET", 1 << 12)
    tracemalloc.start()
    try:
        rows, _, _ = leaf_then_row(tree, np.eye(2), np.ones((1, 2)), *one_walk_each(1),
                                   np.zeros(J, dtype=np.int64), r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * J * 8   # a few dozen J-length arrays
    # the squared row norms are the row masses here
    masses = (tree.factor.U ** 2).sum(axis=1)
    edges = np.cumsum(masses) / masses.sum()
    assert np.array_equal(rows, np.minimum(np.searchsorted(edges, r, side="right"), 39999))


def test_route_meter_counts_words_and_source_ranks():
    gen = np.random.default_rng(33)
    P, payload = 6, 7
    old = gen.integers(0, P, 300)
    new = np.where(gen.random(300) < 0.3, old, gen.integers(0, P, 300))
    led = gridmod.CommLedger()
    samplers._route_meter(led, 2, old, new, payload, P)
    moved = old != new
    for p in range(P):
        into_p = moved & (new == p)
        assert led.words(rank=p) == payload * into_p.sum()
        assert led.messages(rank=p) == np.unique(old[into_p]).size
    assert led.rounds() == [2]


@pytest.mark.parametrize("P", [7, 8, 12])
def test_walk_routes_to_the_real_leaf_sample_mod_real_leaves(monkeypatch, P):
    # At every tree level sample s moves to real leaf s mod n_real under its
    # node.  At 7 and 12 ranks the padded edge node's real leaves do not
    # divide its width, so a mask of the width would send samples elsewhere.
    gen = np.random.default_rng(50)
    dims = (2 * P, 3 * P, 5)
    g = gridmod.ProcessorGrid(dims, (P, 1, 1))
    blocks = [FactorBlocks.from_global(gen.standard_normal((d, 3)), g, j)
              for j, d in enumerate(dims)]
    trees = [sts_build(b) for b in blocks]
    routes = []
    monkeypatch.setattr(samplers, "_route_meter", lambda *args: routes.append(args[3]))
    J = 600
    sts_sample(trees, 2, J, seed=51)
    (route,) = routes  # each sample's rank after every level
    sample, hop = np.arange(J), 0
    for tree in trees[:2]:
        leaf = np.argsort(tree.leaf_rank[:P])[route[hop + tree.depth - 1]]  # the walk's leaf
        for lev in range(tree.depth):
            width = 1 << (tree.depth - 1 - lev)
            lo = (leaf >> (tree.depth - 1 - lev)) * width
            n_real = np.minimum(lo + width, P) - lo
            assert np.array_equal(route[hop], tree.leaf_rank[lo + sample % n_real])
            hop += 1
    assert hop == route.shape[0]


def test_route_meter_sums_stacked_levels():
    # One call over stacked levels records what one call per level records.
    gen = np.random.default_rng(34)
    P, payload = 6, 7
    hops = [gen.integers(0, P, 300)]
    for stay in (0.3, 0.9, 1.0, 0.5):   # the third level moves nothing
        hops.append(np.where(gen.random(300) < stay, hops[-1], gen.integers(0, P, 300)))
    route = np.stack(hops)
    stacked, per_level = gridmod.CommLedger(), gridmod.CommLedger()
    samplers._route_meter(stacked, 2, route[:-1], route[1:], payload, P)
    for old, new in zip(hops, hops[1:]):
        samplers._route_meter(per_level, 2, old, new, payload, P)
    assert stacked.records() == per_level.records()
    assert stacked.messages() > stacked.messages(rank=0) > 0


@pytest.mark.parametrize("span", [1000, 64, 7])
def test_one_per_key_marks_one_sample_per_value(span):
    # Keys beyond the tag buffer's span are handled a span at a time.
    gen = np.random.default_rng(35)
    key = gen.integers(0, 40, 500) * 25 + gen.integers(0, 3, 500)
    ids = np.arange(500, dtype=np.uint16)
    one = samplers._one_per_key(key, 1000, np.empty(span, dtype=np.uint16), ids)
    assert np.array_equal(np.sort(key[one]), np.unique(key))


@pytest.mark.parametrize("schedule", ["tensor-stationary", "accumulator-stationary"])
@pytest.mark.parametrize("P", [4, 6, 7, 8, 12])
def test_route_words_send_a_shared_row_once_per_message(monkeypatch, P, schedule):
    # A routed sample costs N + 2 words, and each distinct (hop, prefix,
    # sender, receiver) adds its H row's R words once: counted here from
    # the recorded route and the batch's drawn rows (a sample's prefix at
    # a mode is its tuple of rows drawn at the modes walked before).  At 7
    # ranks an edge node's real leaves do not divide its parent's.
    routes, batches = [], []
    meter, sample, build = samplers._route_meter, schedules.sts_sample, als.sts_build

    def record_route(ledger, round_id, old, new, payload, P_):
        routes.append((round_id, old.astype(np.int64), new.astype(np.int64)))
        meter(ledger, round_id, old, new, payload, P_)

    def record_batch(states, k, *args, **kwargs):
        batch = sample(states, k, *args, **kwargs)
        batches.append((k, batch.X))
        return batch

    monkeypatch.setattr(samplers, "_route_meter", record_route)
    monkeypatch.setattr(schedules, "sts_sample", record_batch)
    # The tree builds' exchange goes unmetered, so the ledger's all-to-allv
    # words are the routing alone.
    monkeypatch.setattr(als, "sts_build", lambda fb, **kwargs: build(fb))
    N, R = 4, 4
    cfg = als.AlsConfig(rank=R, rounds=2, sampler="sts", samples=128, schedule=schedule,
                        procs=P, seed=5, permute=False, fit_every=0)
    led = als.run_als(cfg, tensor=make_sparse((9, 7, 6, 5), 500, seed=21)).ledger
    assert len(routes) == len(batches) == 2 * N
    words = {r: np.zeros(P, dtype=np.int64) for r in (1, 2)}
    msgs = {r: np.zeros(P, dtype=np.int64) for r in (1, 2)}
    bound = {r: np.zeros(P, dtype=np.int64) for r in (1, 2)}
    for (round_id, old, new), (k, X) in zip(routes, batches):
        walked = [i for i in range(N) if i != k]
        depth = old.shape[0] // len(walked)
        for hop, (o, n) in enumerate(zip(old, new)):
            moved = o != n
            prefix = X[moved][:, walked[:hop // depth]]
            triples = np.unique(np.column_stack([prefix, o[moved], n[moved]]), axis=0)
            words[round_id] += (N + 2) * np.bincount(n[moved], minlength=P) \
                + R * np.bincount(triples[:, -1], minlength=P)
            msgs[round_id] += np.bincount(np.unique(np.column_stack([o, n])[moved], axis=0)[:, 1],
                                          minlength=P)
            bound[round_id] += (N + R + 2) * np.bincount(n[moved], minlength=P)
    for r in (1, 2):
        got_words, got_msgs = led.per_rank(gridmod.ALL_TO_ALLV, r, P)
        assert np.array_equal(got_words, words[r])
        assert np.array_equal(got_msgs, msgs[r])
        assert (got_words <= bound[r]).all() and (got_words < bound[r]).any()


class TestSampleWeights:
    def test_uniform_probability(self):
        from randcp.samplers import SampleBatch
        I, J = 16, 4
        batch = SampleBatch(np.zeros((J, 3), dtype=np.int64), np.full(J, 1.0 / I))
        w = sample_weights(batch)
        assert np.allclose(w, np.sqrt(I / J))

    def test_single_certain_sample(self):
        from randcp.samplers import SampleBatch
        batch = SampleBatch(np.zeros((1, 3), dtype=np.int64), np.ones(1))
        assert np.allclose(sample_weights(batch), [1.0])

    def test_zero_probability_rejected(self):
        from randcp.samplers import SampleBatch
        batch = SampleBatch(np.zeros((1, 3), dtype=np.int64), np.zeros(1))
        with pytest.raises(ValueError):
            sample_weights(batch)


def test_single_effective_factor_consistency():
    # With one non-trivial constant factor, both samplers draw from the
    # exact leverage distribution of that factor.
    gen = np.random.default_rng(22)
    dims = (12, 1, 5)
    factors = [gen.standard_normal((12, 3)), np.ones((1, 3)), gen.standard_normal((5, 3))]
    g = single_grid(dims)
    ref = exact_krp_leverage_oracle([factors[0]])
    J = 200000
    b_sts = sts_sample(sts_setup(factors, g), 2, J, seed=23)
    states = [arls_lev_build(b) for b in blocks_for(factors, g)]
    b_arls = arls_lev_sample(states, 2, J, seed=24)
    for batch in (b_sts, b_arls):
        emp = np.bincount(batch.X[:, 0], minlength=12) / J
        assert 0.5 * np.abs(emp - ref).sum() < 0.01


@pytest.mark.parametrize("build,sample", [(arls_lev_build, arls_lev_sample),
                                          (sts_build, sts_sample)])
def test_state_owns_its_factor_and_gram(build, sample):
    gen = np.random.default_rng(40)
    dims = (6, 5, 4)
    g = gridmod.ProcessorGrid(dims, (2, 2, 1))
    blocks = blocks_for([gen.standard_normal((d, 3)) for d in dims], g)
    states = [build(b) for b in blocks]
    for st, fb in zip(states, blocks):
        if build is sts_build:  # the tree's upward exchange sums it: the root
            assert st.factor is fb
            assert np.array_equal(st.gram, st.node_grams[0][0])
            assert np.abs(st.gram - gram(fb)).max() <= 1e-13 * np.abs(st.gram).max()
        else:  # the leverage comes from the factor's Gram, given or reduced
            assert np.array_equal(st, arls_lev_build(fb, gram_matrix=gram(fb)))
    # Update mode 0 in place so that only row 3 keeps leverage mass, then
    # rebuild its state: every draw must read the new rows.
    blocks[0].U[:] = 0.0
    blocks[0].U[3] = [1.0, -2.0, 0.5]
    states[0] = build(blocks[0])
    assert build is arls_lev_build or states[0].factor is blocks[0]
    batch = sample(states, 2, 64, seed=41)
    assert (batch.X[:, 0] == 3).all()
    sample_weights(batch)
    X, H, _ = distinct_columns(batch, [fb.U for fb in blocks], 2)
    assert np.array_equal(H, blocks[0].U[3] * blocks[1].U[X[:, 1]])


def head_inverse_cdf(masses, of, r):
    """The same arithmetic in a (walks x segments) layout, with a
    (samples x segments) comparison: the bitwise reference."""
    cdf = np.cumsum(masses, axis=1)
    total = cdf[:, -1:]
    prob, cdf = masses / total, cdf / total
    choice = np.count_nonzero(cdf[of] <= r[:, None], axis=1)
    picked = prob[of, choice]
    start = (cdf - prob)[of, choice]
    return choice, picked, np.clip((r - start) / picked, 0.0, samplers._ONE_BELOW)


def test_inverse_cdf_matches_reference_and_searchsorted():
    gen = np.random.default_rng(39)
    width, n_walks = 7, 40
    count = gen.integers(1, width + 1, n_walks)
    masses = gen.random((n_walks, width))
    masses[:, 0] = np.where(gen.random(n_walks) < 0.3, 0.0, masses[:, 0])  # zero-mass segments
    masses[gen.random((n_walks, width)) < 0.2] = 0.0
    masses[:5] = gen.integers(0, 4, (5, width))       # exact segment boundaries
    masses[np.arange(width) >= count[:, None]] = 0.0  # padding
    masses[:, 0] += masses.sum(axis=1) == 0.0         # every walk has mass
    # subnormal masses, whose r * total rounds up to the total at _ONE_BELOW
    count[5] = 2
    masses[5] = 0.0
    masses[5, :2] = 2 * 5e-324, 5e-324
    cdf = np.cumsum(masses, axis=1)
    total = cdf[:, -1]
    of, r = [], []
    for w in range(n_walks):
        edges = cdf[w, :count[w]] / total[w]
        for x in (0.0, samplers._ONE_BELOW, *edges[edges < 1.0], *gen.random(4)):
            of.append(w)
            r.append(x)
    of, r = np.array(of), np.array(r)
    got = samplers._inverse_cdf(masses.T.copy(), of, r)
    ref = head_inverse_cdf(masses, of, r)
    for a, b in zip(got, ref):
        assert np.array_equal(a, b)
    # one searchsorted per sample over the walk's normalized CDF
    expect = [int(np.searchsorted(cdf[w] / total[w], x, side="right")) for w, x in zip(of, r)]
    assert np.array_equal(got[0], expect)
    assert (got[0] < count[of]).all() and (masses[of, got[0]] > 0.0).all()
    # Two segments, as at a tree level (masses left, right per walk): a tie
    # goes right, and a zero-mass child is never picked.
    top = samplers._ONE_BELOW
    pair = np.array([[1.0, 3.0], [1.0, 3.0], [1.0, 3.0], [0.0, 2.0], [0.0, 2.0],
                     [3.0, 0.0], [3.0, 0.0]])
    of = np.arange(pair.shape[0])
    r = np.array([0.25, np.nextafter(0.25, 0.0), 0.0, 0.0, top, 0.0, top])
    got = samplers._inverse_cdf(pair.T.copy(), of, r)
    for a, b in zip(got, head_inverse_cdf(pair, of, r)):
        assert np.array_equal(a, b)
    assert np.array_equal(got[0], [1, 0, 0, 1, 1, 0, 0])
    assert np.array_equal(got[1], [0.75, 0.25, 0.25, 1.0, 1.0, 1.0, 1.0])
    assert got[2][0] == 0.0 and (got[2] <= top).all()


class TestMassKernelAtRank25:
    """Leaf and row masses against the per-row forms (u_q * h)^T M (u_q * h)."""

    @staticmethod
    def case():
        gen = np.random.default_rng(41)
        R = 25
        W = gen.standard_normal((300, R))
        tree = sts_build(FactorBlocks(W, [0, 120, 120, 210], [120, 120, 210, 300]))
        B = gen.standard_normal((R, R))
        cond = B @ B.T / R
        designs = gen.standard_normal((4, R))
        ranks = np.array([0, 2, 3])
        walk_rank, walk_row = np.repeat(ranks, 4), np.tile(np.arange(4), 3)
        forms = [np.array([(W[q] * designs[d]) @ cond @ (W[q] * designs[d])
                           for q in range(tree.factor.lows[p], tree.factor.his[p])])
                 for p, d in zip(walk_rank, walk_row)]
        return tree, cond, designs, walk_rank, walk_row, forms

    def test_leaf_masses(self):
        tree, cond, designs, walk_rank, walk_row, forms = self.case()
        width = tree.leaf_bounds.shape[1] - 1
        out = np.zeros((walk_rank.size, width))
        samplers._masses(designs, walk_row, ((4 * i, 4 * i + 4, tree.leaf_grams[p] * cond)
                                             for i, p in enumerate([0, 2, 3])), out)
        for w, p in enumerate(walk_rank):
            edges = tree.leaf_bounds[p, :tree.leaf_grams[p].shape[0] + 1] - tree.factor.lows[p]
            expect = np.add.reduceat(forms[w], edges[:-1])
            assert np.allclose(out[w, :expect.size], expect, rtol=1e-13, atol=0.0)
            assert (out[w, expect.size:] == 0.0).all()

    def test_row_masses(self):
        tree, cond, designs, walk_rank, walk_row, forms = self.case()
        # steer one sample to the middle of each row's segment
        which = np.concatenate([np.full(m.size, w) for w, m in enumerate(forms)])
        r = np.concatenate([(np.cumsum(m) - 0.5 * m) / m.sum() for m in forms])
        rows, prob, _ = leaf_then_row(tree, cond, designs, walk_rank, walk_row, which, r)
        expect = np.concatenate([m / m.sum() for m in forms])
        assert np.array_equal(rows, np.concatenate(
            [np.arange(tree.factor.lows[p], tree.factor.his[p]) for p in walk_rank]))
        assert np.allclose(prob, expect, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("spread", [True, False])
def test_mass_kernel_temporaries_stay_within_budget(monkeypatch, spread):
    # 10,000 walks at R=25, one sample each.  Spread: one rank of 400 rows
    # in 20 leaves of 20, rows drawn all over it.  One leaf: a rank whose
    # only leaf holds 8 rows, so every walk ends in it.
    gen = np.random.default_rng(42)
    J, R = 10000, 25
    if spread:
        tree = sts_build(FactorBlocks(gen.standard_normal((400, R)), [0], [400]))
    else:
        W = gen.standard_normal((8, R))
        tree = leaf_tree(W, [0, 8], (W.T @ W)[None])
    designs = gen.standard_normal((J, R))
    r = gen.random(J)
    budget = 1 << 15
    monkeypatch.setattr(samplers, "LEAF_SEARCH_BUDGET", budget)
    tracemalloc.start()
    try:
        rows, _, _ = leaf_then_row(tree, np.eye(R), designs, *one_walk_each(J),
                                   np.arange(J), r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A few dozen J-length arrays and a few budget-sized temporaries.
    # Unchunked, the spread case's leaf and row mass columns would take
    # 20 x J float64s each, and the one-leaf case's row product 8 x J x R.
    assert peak < 24 * J * 8 + 4 * budget * 8
    assert (rows >= 0).all() and (rows < tree.factor.U.shape[0]).all()
