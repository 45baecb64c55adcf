import numpy as np
import pytest

from randcp import grid as gridmod
from randcp.linalg import FactorBlocks, gram
from randcp.matricization import column_keys
from randcp import samplers
from randcp.samplers import (DegenerateWalkError, arls_lev_build, arls_lev_sample,
                             consistent_multinomial, exact_krp_leverage_oracle,
                             krp_leverage_scores, sample_weights, sts_build, sts_sample)


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
        assert np.allclose(st.dists[0], [0.5, 0.5])
        assert np.allclose(st.C, [2.0])

    def test_duplicate_rows_equal_weights(self):
        row = np.array([1.0, 2.0, -1.0])
        fb = FactorBlocks(np.tile(row, (4, 1)), [0], [4])
        st = arls_lev_build(fb)
        assert np.allclose(st.dists[0], 0.25)

    def test_blocks_concatenate_to_exact_leverage(self):
        gen = np.random.default_rng(2)
        U = gen.standard_normal((16, 3))
        g = gridmod.ProcessorGrid((16, 4, 4), (4, 1, 1))
        fb = FactorBlocks.from_global(U, g, 0)
        st = arls_lev_build(fb)
        full = np.zeros(16)
        for p in range(4):
            lo, hi = fb.lows[p], fb.his[p]
            full[lo:hi] = st.dists[p] * st.C[p]
        full /= full.sum()
        ref = exact_krp_leverage_oracle([U])
        assert np.abs(full - ref).max() < 1e-12


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
        assert np.allclose(batch.H, factors[0][0] * factors[1][0])

    def test_h_after_first_mode(self):
        gen = np.random.default_rng(12)
        dims = (6, 1, 4)
        factors = [gen.standard_normal((6, 2)), np.ones((1, 2)), gen.standard_normal((4, 2))]
        g = single_grid(dims)
        trees = sts_setup(factors, g)
        batch = sts_sample(trees, 2, 32, seed=13)
        assert np.allclose(batch.H, factors[0][batch.X[:, 0]])

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

    def test_degenerate_walk_surfaces(self):
        factors = [np.zeros((4, 2)), np.ones((4, 2)), np.ones((3, 2))]
        g = single_grid((4, 4, 3))
        trees = sts_setup(factors, g)
        with pytest.raises(DegenerateWalkError):
            sts_sample(trees, 2, 4, seed=20)


def leaf_search(h, W, leaf_grams, offs, cond, r):
    """Local rows picked by one design row ``h`` at each residual in ``r``."""
    r = np.atleast_1d(np.asarray(r, dtype=np.float64))
    rows, _, _ = samplers._leaf_search_batch(W, offs, leaf_grams, cond,
                                             np.asarray(h, dtype=np.float64)[None, :],
                                             np.zeros(r.size, dtype=np.int64), r)
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
        return W, offs, leaf_grams, cond, designs, which, r, expected_prob

    @staticmethod
    def check_matches(W, offs, leaf_grams, cond, designs, which, r, expected):
        rows, prob, r_out = samplers._leaf_search_batch(
            W, offs, leaf_grams, cond, designs, which, r)
        assert np.array_equal(rows, np.tile(np.arange(11), len(designs)))
        assert np.allclose(prob, expected, rtol=1e-12, atol=0.0)
        assert np.allclose(r_out, 0.5, atol=1e-9)   # midpoints stay midpoints

    @pytest.mark.parametrize("leaf_size", [1, 3, 11])
    def test_matches_row_enumeration(self, leaf_size):
        self.check_matches(*self.case(leaf_size))

    def test_default_leaf_sizing(self):
        # sts_build cuts a block of n rows into ceil(sqrt(n))-row leaves
        W, _, _, *rest = self.case(4)
        tree = sts_build(FactorBlocks(W, [0], [11]))
        assert np.array_equal(tree.leaf_offsets[0], [0, 4, 8, 11])
        self.check_matches(W, tree.leaf_offsets[0], tree.leaf_grams[0], *rest)

    def test_shared_design_rows_and_chunks(self, monkeypatch):
        W, offs, leaf_grams, cond, designs, which, r, _ = self.case(3)
        args = (W, offs, leaf_grams, cond)
        shared = samplers._leaf_search_batch(*args, designs, which, r)
        per_sample = samplers._leaf_search_batch(*args, designs[which],
                                                 np.arange(which.size), r)
        monkeypatch.setattr(samplers, "LEAF_SEARCH_BUDGET", 1)   # one sample per chunk
        chunked = samplers._leaf_search_batch(*args, designs, which, r)
        # single-row products may round differently, so only the rows are exact
        for other in (per_sample, chunked):
            assert np.array_equal(other[0], shared[0])
            assert np.allclose(other[1], shared[1], rtol=1e-12, atol=0.0)
            assert np.allclose(other[2], shared[2], rtol=1e-9, atol=1e-12)


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


class TestSampleWeights:
    def test_uniform_probability(self):
        from randcp.samplers import SampleBatch
        I, J = 16, 4
        batch = SampleBatch(np.zeros((J, 3), dtype=np.int64), np.ones((J, 2)),
                            np.ones((J, 3)), np.full(J, 1.0 / I))
        w = sample_weights(batch)
        assert np.allclose(w, np.sqrt(I / J))

    def test_single_certain_sample(self):
        from randcp.samplers import SampleBatch
        batch = SampleBatch(np.zeros((1, 3), dtype=np.int64), np.ones((1, 2)),
                            np.ones((1, 3)), np.ones(1))
        assert np.allclose(sample_weights(batch), [1.0])

    def test_zero_probability_rejected(self):
        from randcp.samplers import SampleBatch
        batch = SampleBatch(np.zeros((1, 3), dtype=np.int64), np.ones((1, 2)),
                            np.ones((1, 3)), np.zeros(1))
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
        assert st.factor is fb
        assert np.array_equal(st.gram, gram(fb))
    # Update mode 0 in place so that only row 3 keeps leverage mass, then
    # rebuild its state: every draw must read the new rows.
    blocks[0].U[:] = 0.0
    blocks[0].U[3] = [1.0, -2.0, 0.5]
    states[0] = build(blocks[0])
    assert states[0].factor is blocks[0]
    batch = sample(states, 2, 64, seed=41)
    assert (batch.X[:, 0] == 3).all()
    assert np.array_equal(batch.H, blocks[0].U[3] * blocks[1].U[batch.X[:, 1]])
