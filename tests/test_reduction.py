"""One reduction per factor update.

Every rank forms the Gram of its block of the solved factor and one
reduction sums them: ``gram``'s allreduce for exact and ARLS-LEV runs,
the tree build's upward exchange for STS.  The norms are read off its
diagonal and the kept Grams are the same sum rescaled, so the ledger
holds no other collective for the update, and the padded exchange of the
STS build must leave the root on every rank.
"""

import numpy as np
import pytest

from randcp import grid as gridmod
from randcp.als import SAMPLERS, AlsConfig, _rebuild_mode_state, run_als
from randcp.linalg import FactorBlocks
from randcp.samplers import sts_build, tree_exchange
from randcp.schedules import SolveContext
from conftest import PAIRS, make_sparse


@pytest.fixture(scope="module")
def tensor():
    return make_sparse((9, 7, 6, 5), 500, seed=21)


@pytest.mark.parametrize("P", [5, 6, 8])
@pytest.mark.parametrize("sampler, schedule", PAIRS)
def test_one_allreduce_per_factor_update(tensor, P, sampler, schedule):
    R, N, rounds = 4, tensor.mode_count, 3
    cfg = AlsConfig(rank=R, rounds=rounds, sampler=sampler,
                    samples=0 if sampler == "exact" else 128, schedule=schedule,
                    procs=P, seed=5, permute=False, compute_fits=False)
    ledger = run_als(cfg, tensor=tensor).ledger
    # exact and ARLS-LEV reduce each updated factor's Gram once; STS takes it
    # from the tree build's exchange; a tensor-stationary sketched solve
    # still allreduces its own sketched Gram.
    per_round = N * (sampler != "sts") \
        + N * (sampler != "exact" and schedule == "tensor-stationary")
    words = -(-2 * R * R * (P - 1) // P)
    for r in range(1, rounds + 1):
        w, m = ledger.per_rank(gridmod.ALLREDUCE, r, P)
        assert np.array_equal(m, np.full(P, per_round * 2 * (P - 1)))
        assert np.array_equal(w, np.full(P, per_round * words))
    # round 0 reduces each unit-norm initial factor's Gram once
    w0, m0 = ledger.per_rank(gridmod.ALLREDUCE, 0, P)
    assert np.array_equal(m0, np.full(P, N * (sampler != "sts") * 2 * (P - 1)))


def update_ctx(U, sampler, P, round_id=2):
    """A context whose mode-0 factor is ``U`` on a (P, 1, 1) grid, as a
    solve leaves it: unnormalized, before the update's refresh."""
    g = gridmod.ProcessorGrid((U.shape[0], 3, 2), (P, 1, 1))
    blocks = [FactorBlocks(U, *g.block_ranges(0))] + [
        FactorBlocks.from_global(np.ones((d, U.shape[1])), g, j) for j, d in ((1, 3), (2, 2))]
    ctx = SolveContext(g, sampler, 16, blocks, None, gridmod.CommLedger(), seed=0)
    ctx.round_id = round_id
    return ctx


def kept_grams(ctx, k):
    """Every Gram the update keeps for mode k, with the rows each one sums:
    ``ctx.grams[k]`` for every sampler, and an STS tree's nodes and leaves,
    whose root is that same Gram."""
    fb = ctx.factors[k]
    out = [(ctx.grams[k], slice(None))]
    if ctx.sampler == "sts":
        st = ctx.states[k]
        assert np.shares_memory(st.gram, ctx.grams[k])
        for p, grams_p in enumerate(st.leaf_grams):
            bounds = st.leaf_bounds[p]
            out += [(G, slice(bounds[q], bounds[q + 1])) for q, G in enumerate(grams_p)]
        leaf_rows = [slice(fb.lows[p], fb.his[p]) for p in st.leaf_rank[:fb.n_blocks]]
        out += [(G, rows) for G, rows in zip(st.node_grams[-1], leaf_rows)]
    return out


def relative_error(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


@pytest.mark.parametrize("P", [5, 6, 8])
@pytest.mark.parametrize("sampler", SAMPLERS)
def test_sigma_and_kept_grams_match_the_normalized_factor(sampler, P):
    gen = np.random.default_rng(50 + P)
    U0 = gen.standard_normal((37, 4)) * np.array([1e-3, 1.0, 30.0, 7.0])
    ctx = update_ctx(U0.copy(), sampler, P)
    sigma = _rebuild_mode_state(ctx, 0)
    assert relative_error(sigma, np.linalg.norm(U0, axis=0)) <= 1e-13
    U = ctx.factors[0].U
    assert relative_error(U, U0 / np.linalg.norm(U0, axis=0)) <= 1e-13
    for G, rows in kept_grams(ctx, 0):
        assert relative_error(G, U[rows].T @ U[rows]) <= 1e-13
    # the update's one reduction: one allreduce, or none beside the STS exchange
    ar = ctx.ledger.messages(kind=gridmod.ALLREDUCE)
    assert ar == (0 if sampler == "sts" else P * 2 * (P - 1))


@pytest.mark.parametrize("sampler", SAMPLERS)
def test_zero_column_stays_exactly_zero(sampler):
    U = np.random.default_rng(51).standard_normal((23, 3))
    U[:, 1] = 0.0
    ctx = update_ctx(U, sampler, 6)
    sigma = _rebuild_mode_state(ctx, 0)
    assert sigma[1] == 0.0 and (sigma[[0, 2]] > 0.0).all()
    assert not ctx.factors[0].U[:, 1].any()
    for G, _ in kept_grams(ctx, 0):
        assert not G[1].any() and not G[:, 1].any()


@pytest.mark.parametrize("bad", [np.inf, np.nan, 1e200])
@pytest.mark.parametrize("sampler", SAMPLERS)
def test_non_finite_entry_raises_before_any_column_is_scaled(sampler, bad):
    U = np.random.default_rng(52).standard_normal((23, 3))
    U[17, 2] = bad
    before = U.copy()
    ctx = update_ctx(U, sampler, 5)
    with pytest.raises(FloatingPointError, match="after round 2 mode 0 solve"):
        _rebuild_mode_state(ctx, 0)
    assert np.array_equal(ctx.factors[0].U, before, equal_nan=True)
    assert ctx.states[0] is None and ctx.grams[0] is None


@pytest.mark.parametrize("P", [3, 5, 6, 7, 12, 13])
def test_padded_exchange_gives_every_rank_the_root(monkeypatch, P):
    R = 3
    gen = np.random.default_rng(60 + P)
    # rank blocks in a shuffled row order, one of them empty
    sizes = gen.integers(1, 6, P)
    sizes[P // 2] = 0
    rank_of_block = gen.permutation(P)
    lows = np.empty(P, dtype=np.int64)
    lows[rank_of_block] = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    his = lows.copy()
    his[rank_of_block] += sizes
    fb = FactorBlocks(gen.standard_normal((int(sizes.sum()), R)), lows, his)

    captured = []
    meter = gridmod.meter

    def capture(ledger, round_id, kind, ranks, member_words):
        captured.append((kind, np.asarray(ranks), np.array(member_words)))
        return meter(ledger, round_id, kind, ranks, member_words)
    monkeypatch.setattr(gridmod, "meter", capture)
    tree = sts_build(fb, ledger=gridmod.CommLedger(), round_id=1)

    [(kind, ranks, sent)] = captured
    assert kind == gridmod.ALL_TO_ALLV
    sent = sent.reshape(-1, P, P)
    assert sent.shape[0] == int(np.ceil(np.log2(P)))
    assert set(np.unique(sent)) <= {0, R * R}   # one R x R partial per message
    # Member m is rank ranks[m]; each level adds the partials it receives,
    # as they stood before the level.
    partial = np.stack([fb.blocks[p].T @ fb.blocks[p] for p in ranks])
    for level in sent:
        partial = partial + np.einsum("ij,irs->jrs", (level > 0).astype(float), partial)
    root = tree.gram
    for m in range(P):
        assert relative_error(partial[m], root) <= 1e-13, "rank %d" % ranks[m]
    assert relative_error(root, fb.U.T @ fb.U) <= 1e-13


@pytest.mark.parametrize("P", [2, 4, 8, 32])
def test_power_of_two_exchange_is_plain_recursive_doubling(P):
    sends = tree_exchange(P)
    leaf = np.arange(P)
    for s, level in enumerate(sends):
        expected = np.zeros((P, P), dtype=np.int64)
        expected[leaf ^ (1 << s), leaf] = 1
        assert np.array_equal(level, expected)
