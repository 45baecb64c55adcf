"""Row samplers for the Khatri-Rao design matrix.

Two production samplers plus a brute-force oracle.  Each sampler is a
build/sample pair: the build turns one factor into its per-mode state,
which keeps that ``FactorBlocks`` (read in place, so the state is rebuilt
after every update of the factor) and its metered Gram; the sample call
draws a mode-k batch from the states of all modes, ``(states, k, J,
seed)``.

* approximate sampler (``arls_lev_build`` -> ``ArlsLevState``): weighs
  each candidate row by the product of per-factor leverage scores; every
  rank samples its own block from an independent local distribution
  after a consistent multinomial split of the sample budget.

* exact sampler (``sts_build`` -> ``LeverageTree``): draws from the exact
  Khatri-Rao leverage distribution by walking a binary tree of partial
  Gram matrices once per constant factor, conditioning each mode's draw
  on the rows already chosen; the chain pseudo-inverse comes from the
  trees' Grams.  The top log2(P) tree levels are shared across ranks;
  the walk routes samples between ranks level by level and finishes with
  a local search over leaf row blocks.

Sampled rows are reweighted by 1 / sqrt(J * p_s), the scaling that makes
the sketched normal equations unbiased.  A batch keeps all J draws,
repeats included: that is what the samplers communicate and what the
ledger meters.  The solve later merges repeated draws into one column
whose squared weight is the sum of its copies' squared weights
(``schedules.distinct_columns``).
"""

import math

import numpy as np

from . import grid as gridmod
from . import rng
from .linalg import gram, hadamard_gram_chain, khatri_rao, pseudo_inverse
from .matricization import distinct_keys

ORACLE_GUARD = 10 ** 6
_ONE_BELOW = np.nextafter(1.0, 0.0)
# Float64 elements in one leaf-search temporary: (samples x leaves x R) for
# leaf masses, (samples x leaf rows x R) for row masses.
LEAF_SEARCH_BUDGET = 1 << 20


class DegenerateWalkError(RuntimeError):
    """A tree walk hit a zero-mass node; h lies outside the row space."""


def _quad(H, M):
    """Row-wise quadratic forms h^T M h for each row h of H."""
    return np.einsum("jr,jr->j", H @ M, H)


def krp_leverage_scores(factors, skip=None):
    """Unnormalized leverage scores of every Khatri-Rao row (test scale)."""
    size = 1
    for i, U in enumerate(factors):
        if i != skip and U is not None:
            size *= U.shape[0]
    if size > ORACLE_GUARD:
        raise ValueError("oracle guard exceeded: %d rows > %d" % (size, ORACLE_GUARD))
    A = khatri_rao(factors, skip=skip)
    Gp = pseudo_inverse(A.T @ A)
    return np.maximum(_quad(A, Gp), 0.0)


def exact_krp_leverage_oracle(factors, skip=None):
    """Exact leverage probability of every Khatri-Rao row, by materialization."""
    scores = krp_leverage_scores(factors, skip=skip)
    total = scores.sum()
    if total <= 0.0:
        raise ValueError("all leverage scores are zero")
    return scores / total


class SampleBatch:
    """J sampled design-matrix rows for one mode-k solve.

    X[:, i] holds the mode-i row index of each sample (column k is -1);
    H holds the running Hadamard product of the sampled rows; prob the
    joint sampling probability.  ``owner`` is the rank holding each
    sample at the end of sampling, or None when the batch ended
    replicated on every rank.
    """

    def __init__(self, X, H, per_mode_prob, prob, owner=None):
        self.X = X
        self.H = H
        self.per_mode_prob = per_mode_prob
        self.prob = prob
        self.owner = owner
        self.weights = None

    @property
    def J(self):
        return self.X.shape[0]


def sample_weights(batch: SampleBatch):
    """Attach reweighting factors 1 / sqrt(J * p_s) to the batch."""
    if batch.J and (batch.prob <= 0.0).any():
        raise ValueError("sample with zero probability cannot have been drawn")
    batch.weights = 1.0 / np.sqrt(batch.J * batch.prob) if batch.J else np.empty(0)
    return batch.weights


def _empty_batch(N, R):
    return SampleBatch(np.full((0, N), -1, dtype=np.int64), np.ones((0, R)),
                       np.ones((0, N)), np.ones(0))


class ArlsLevState:
    """Per-mode sampling state: the factor, its Gram, local leverage
    distributions and masses.

    dists[p] is the normalized leverage distribution over rank p's block
    rows, C[p] its pre-normalization mass; C is replicated (gathered once
    at build time) so sample calls need no mass exchange.
    """

    def __init__(self, factor, gram_matrix, dists, C):
        self.factor = factor
        self.gram = gram_matrix
        self.dists = dists
        self.C = C


def arls_lev_build(blocks, ledger=None, round_id=0) -> ArlsLevState:
    """Build the approximate-leverage state for one factor's blocks."""
    G = gram(blocks, ledger=ledger, round_id=round_id)
    Gp = pseudo_inverse(G)
    dists = []
    C = np.zeros(blocks.n_blocks)
    for p, B in enumerate(blocks.blocks):
        d = np.maximum(np.einsum("ir,ir->i", B @ Gp, B), 0.0)
        mass = float(d.sum())
        C[p] = mass
        dists.append(d / mass if mass > 0.0 else d)
    # C is allgathered, one word per rank.
    gridmod.meter(ledger, round_id, gridmod.ALLGATHER, range(blocks.n_blocks),
                  np.ones(blocks.n_blocks, dtype=np.int64))
    return ArlsLevState(blocks, G, dists, C)


def consistent_multinomial(masses, J, seed, round_id, k, mode):
    """Sample-count split every rank computes identically from the shared stream."""
    masses = np.asarray(masses, dtype=np.float64)
    total = masses.sum()
    if total <= 0.0:
        raise ValueError("all rank masses are zero; nothing to sample from")
    gen = rng.stream(seed, rng.MULTINOMIAL, round_id, k, mode)
    return gen.multinomial(int(J), masses / total)


def arls_lev_sample(states, k, J, seed, round_id=0, ledger=None) -> SampleBatch:
    """Draw J rows from the product-of-factor-leverage distribution.

    For each constant mode independently: split J across ranks by a
    consistent multinomial over the block masses, draw each rank's quota
    from its local distribution, gather in rank order, then apply the
    shared-stream permutation.  The result is replicated on every rank.
    """
    N = len(states)
    R = states[next(i for i in range(N) if i != k)].factor.R
    if J == 0:
        return _empty_batch(N, R)
    X = np.full((J, N), -1, dtype=np.int64)
    per_mode_prob = np.ones((J, N))
    for i in range(N):
        if i == k:
            continue
        st = states[i]
        W = float(st.C.sum())
        if W <= 0.0:
            raise ValueError("mode %d has zero total leverage mass" % i)
        split = consistent_multinomial(st.C, J, seed, round_id, k, i)
        rows, probs = [], []
        for p in np.flatnonzero(split):
            gen = rng.stream(seed, rng.LOCAL_DRAW, round_id, k, i, p)
            local = gen.choice(st.dists[p].size, size=int(split[p]), p=st.dists[p])
            rows.append(st.factor.lows[p] + local)
            probs.append((st.C[p] / W) * st.dists[p][local])
        # Allgather of every rank's (row, probability) pairs, in rank order.
        gridmod.meter(ledger, round_id, gridmod.ALLGATHER, range(len(split)), 2 * split)
        perm = rng.stream(seed, rng.SHUFFLE, round_id, k, i).permutation(J)
        X[:, i] = np.concatenate(rows)[perm]
        per_mode_prob[:, i] = np.concatenate(probs)[perm]
    H = np.ones((J, R))
    for i in range(N):
        if i != k:
            H *= states[i].factor.U[X[:, i]]
    prob = per_mode_prob.prod(axis=1)
    return SampleBatch(X, H, per_mode_prob, prob, owner=None)


class LeverageTree:
    """Binary tree of partial Gram matrices over one factor's row blocks.

    ``factor`` is the FactorBlocks the tree was built from and ``gram``
    its metered Gram, which the walk's conditioning matrices multiply.
    ``node_grams[lev]`` holds the (2^lev, R, R) node matrices; level
    ``depth`` is the rank-leaf level (leaf ell belongs to the rank in
    row-block order, padding leaves hold zero).  Below that, each rank
    subdivides its block into contiguous leaf blocks whose Grams drive
    the local search.
    """

    def __init__(self, factor, gram_matrix, node_grams, leaf_rank, leaf_offsets,
                 leaf_grams):
        self.factor = factor
        self.gram = gram_matrix
        self.node_grams = node_grams
        self.leaf_rank = leaf_rank
        self.leaf_offsets = leaf_offsets  # per rank, offsets within its block
        self.leaf_grams = leaf_grams      # per rank, (n_leaves, R, R)

    @property
    def depth(self):
        return len(self.node_grams) - 1


def sts_build(blocks, ledger=None, round_id=0) -> LeverageTree:
    """Build the leverage tree for one factor (exact-sampler build pass).

    The factor's Gram is allreduced as for every factor update.  Leaf
    Grams come from each rank's local rows; the upward pass mirrors the
    bidirectional-exchange Allreduce, metering one R*R matrix received
    per rank per level (general P handled by padding with empty leaves,
    which carry zero mass and are never routed to).

    The local search enumerates leaf masses and then the chosen leaf's
    row masses, costing about (n/L + L) R^2 per sample for leaf size L.
    L = ceil(sqrt(n)) minimizes that and keeps the leaf Grams at about
    sqrt(n) R^2 words per rank.
    """
    G = gram(blocks, ledger=ledger, round_id=round_id)
    R = blocks.R
    P = blocks.n_blocks
    order = np.lexsort((np.arange(P), blocks.lows))  # rank ids in row-block order
    depth = max(int(math.ceil(math.log2(P))), 0) if P > 1 else 0
    padded = 1 << depth

    leaf_offsets = []
    leaf_grams = []
    rank_gram = np.zeros((P, R, R))
    for p in range(P):
        B = blocks.blocks[p]
        n = B.shape[0]
        size = max(1, int(math.ceil(math.sqrt(n))))
        n_leaves = max(int(math.ceil(n / size)), 1) if n else 0
        offs = np.minimum(np.arange(n_leaves + 1, dtype=np.int64) * size, n) \
            if n else np.zeros(1, dtype=np.int64)
        stacked = np.zeros((n_leaves * size, R))
        stacked[:n] = B
        stacked = stacked.reshape(n_leaves, size, R)
        grams_p = np.matmul(stacked.transpose(0, 2, 1), stacked)
        leaf_offsets.append(offs)
        leaf_grams.append(grams_p)
        if n_leaves:
            rank_gram[p] = grams_p.sum(axis=0)

    leaf_rank = np.full(padded, -1, dtype=np.int64)
    leaf_rank[:P] = order
    node_grams = [None] * (depth + 1)
    leaves = np.zeros((padded, R, R))
    leaves[:P] = rank_gram[order]
    node_grams[depth] = leaves
    for lev in range(depth - 1, -1, -1):
        node_grams[lev] = node_grams[lev + 1].reshape(-1, 2, R, R).sum(axis=1)

    # Level lev exchanges one R x R matrix between leaves whose positions
    # differ in bit depth-1-lev (an empty padding partner sends nothing).
    leaf = np.arange(P)
    for lev in range(depth - 1, -1, -1):
        partner = leaf ^ (1 << (depth - 1 - lev))
        real = partner < P
        sent = np.bincount(partner[real] * P + leaf[real], minlength=P * P) * (R * R)
        gridmod.meter(ledger, round_id, gridmod.ALL_TO_ALLV, order, sent)

    return LeverageTree(blocks, G, node_grams, leaf_rank, leaf_offsets, leaf_grams)


def _inverse_cdf(masses, of, r):
    """Pick the segment of [0, 1) containing each residual r.

    Rows of ``masses`` are nonnegative segment masses; sample s draws
    from row ``of[s]`` with residual ``r[s]``.  Boundary hits go right,
    matching the r >= T branch rule, so a zero-mass segment is never
    picked.  Returns (choice, probability, rescaled residual) per sample.
    """
    cdf = np.cumsum(masses, axis=1)
    total = cdf[:, -1]
    if (total <= 0.0).any():
        raise DegenerateWalkError("zero total mass in leaf search")
    cdf = cdf[of]
    total = total[of]
    target = r * total
    choice = np.count_nonzero(cdf <= target[:, None], axis=1)
    choice = np.minimum(choice, masses.shape[1] - 1)
    picked = masses[of, choice]
    prev = cdf[np.arange(of.shape[0]), choice] - picked
    with np.errstate(invalid="ignore", divide="ignore"):
        r_out = np.where(picked > 0.0, (target - prev) / picked, 0.0)
    return choice, picked / total, np.clip(r_out, 0.0, _ONE_BELOW)


def _leaf_search_batch(W_block, leaf_offsets, leaf_grams, cond, H_rows, which, r):
    """Leaf-block then row-level search for all of one rank's samples.

    Sample s walks with design row ``H_rows[which[s]]`` and residual
    ``r[s]``; samples sharing a design row share its masses, which are
    evaluated once.  Leaf masses h^T (G_leaf * cond) h come from one
    product with the stacked leaf Grams; the chosen leaves' row masses
    (w_q * h)^T cond (w_q * h) from one (pairs, L, R) contraction over
    the distinct (design row, leaf) pairs, with rows past a short leaf's
    end masked to zero mass.  Samples are processed in chunks that keep
    each temporary within ``LEAF_SEARCH_BUDGET``.  Returns (local row,
    probability, rescaled residual) per sample.
    """
    K = which.shape[0]
    R = H_rows.shape[1]
    n = W_block.shape[0]
    if n == 0:
        raise DegenerateWalkError("walk reached a rank with no rows")
    leaf_offsets = np.asarray(leaf_offsets, dtype=np.int64)
    n_leaves = leaf_grams.shape[0]
    L = int(np.diff(leaf_offsets).max())
    # (R, n_leaves * R): column block q holds leaf q's conditioned Gram.
    leaf_cond = (leaf_grams * cond).transpose(1, 0, 2).reshape(R, n_leaves * R)
    step = max(1, LEAF_SEARCH_BUDGET // (max(n_leaves, L) * max(R, 1)))
    rows_local = np.empty(K, dtype=np.int64)
    prob = np.empty(K)
    r_out = np.empty(K)
    for a in range(0, K, step):
        b = min(a + step, K)
        rows_used, _, row_of = distinct_keys(which[a:b])
        Hd = H_rows[rows_used]
        Y = (Hd @ leaf_cond).reshape(Hd.shape[0], n_leaves, R)
        leaf_masses = np.einsum("kqr,kr->kq", Y, Hd)
        np.maximum(leaf_masses, 0.0, out=leaf_masses)
        leaf, leaf_prob, r_mid = _inverse_cdf(leaf_masses, row_of, r[a:b])

        pairs, _, pair_of = distinct_keys(row_of * n_leaves + leaf)
        pair_row, pair_leaf = np.divmod(pairs, n_leaves)
        rows = leaf_offsets[pair_leaf][:, None] + np.arange(L)
        V = W_block.take(np.minimum(rows, n - 1), axis=0)
        V *= Hd[pair_row][:, None, :]
        VM = (V.reshape(-1, R) @ cond).reshape(V.shape)
        row_masses = np.einsum("klr,klr->kl", VM, V)
        np.maximum(row_masses, 0.0, out=row_masses)
        row_masses[rows >= leaf_offsets[pair_leaf + 1][:, None]] = 0.0
        q, row_prob, r_out[a:b] = _inverse_cdf(row_masses, pair_of, r_mid)
        rows_local[a:b] = leaf_offsets[leaf] + q
        prob[a:b] = leaf_prob * row_prob
    return rows_local, prob, r_out


def _route_meter(ledger, round_id, old_owner, new_owner, payload_words, P):
    """Meter the level-boundary all-to-allv that moves samples between ranks."""
    sent = np.bincount(old_owner * P + new_owner, minlength=P * P) * payload_words
    gridmod.meter(ledger, round_id, gridmod.ALL_TO_ALLV, range(P), sent)


def sts_sample(trees, k, J, seed, round_id=0, ledger=None,
               uniform_override=None) -> SampleBatch:
    """Draw J rows from the exact Khatri-Rao leverage distribution.

    Modes are visited in ascending order skipping k.  For mode i the
    conditioning matrix is  G_chain_pinv (elementwise) prod of Grams of
    modes > i (excluding k), where G_chain_pinv is the pseudo-inverse of
    the Hadamard product of the trees' Grams over the modes != k
    (``trees[k]`` is not read); the contribution of already-sampled modes
    lives in the running rows H.  Each sample walks the shared tree
    levels (routing between ranks at every level), finishes with the
    local leaf search on its terminal rank, and multiplies its H row by
    the selected factor row, which that rank owns.

    Samples that drew the same rows so far (the same prefix) share their
    H row, so every quadratic form is evaluated once per distinct
    (prefix, tree node) pair rather than once per sample; at each level
    those pairs come grouped by node from one sort.

    ``uniform_override`` (J, N) replaces the per-mode uniform draws; a
    test hook for steering walks down chosen paths.
    """
    N = len(trees)
    grams = [None if i == k else t.gram for i, t in enumerate(trees)]
    gram_chain_pinv = pseudo_inverse(hadamard_gram_chain(grams, skip=k))
    R = gram_chain_pinv.shape[0]
    if J == 0:
        return _empty_batch(N, R)
    P = trees[next(i for i in range(N) if i != k)].factor.n_blocks
    payload_words = N + R + 2  # X row + H row + residual + running probability

    X = np.full((J, N), -1, dtype=np.int64)
    per_mode_prob = np.ones((J, N))
    owner = (np.arange(J, dtype=np.int64) * P) // J
    prefix = np.zeros(J, dtype=np.int64)  # index of each sample's row in H_prefix
    H_prefix = np.ones((1, R))

    for i in range(N):
        if i == k:
            continue
        tree = trees[i]
        fb = tree.factor
        M = gram_chain_pinv.copy()
        for m in range(i + 1, N):
            if m != k:
                M = M * grams[m]
        if uniform_override is not None:
            r = np.array(uniform_override[:, i], dtype=np.float64)
        else:
            r = rng.stream(seed, rng.WALK_UNIFORM, round_id, k, i).random(J)
        node = np.zeros(J, dtype=np.int64)
        prob_i = np.ones(J)
        depth = tree.depth
        n_prefix = H_prefix.shape[0]
        for lev in range(depth):
            pairs, _, pair_of = distinct_keys(node * n_prefix + prefix)
            pair_node, pair_prefix = np.divmod(pairs, n_prefix)
            bounds = np.searchsorted(pair_node, np.arange((1 << lev) + 1))
            T = np.empty(pairs.shape[0])
            for v in np.flatnonzero(np.diff(bounds)):
                sl = slice(bounds[v], bounds[v + 1])
                Hs = H_prefix[pair_prefix[sl]]
                den = _quad(Hs, tree.node_grams[lev][v] * M)
                if (den <= 0.0).any():
                    raise DegenerateWalkError(
                        "zero node mass at level %d of mode-%d tree" % (lev, i))
                num = np.maximum(_quad(Hs, tree.node_grams[lev + 1][2 * v] * M), 0.0)
                T[sl] = num / den
            T = np.clip(T, 0.0, 1.0)[pair_of]
            right = r >= T
            prob_i *= np.where(right, 1.0 - T, T)
            with np.errstate(invalid="ignore", divide="ignore"):
                r = np.where(right,
                             (r - T) / np.maximum(1.0 - T, np.finfo(float).tiny),
                             r / np.maximum(T, np.finfo(float).tiny))
            r = np.clip(r, 0.0, _ONE_BELOW)
            node = 2 * node + right
            width = 1 << (depth - 1 - lev)
            leaf_lo = node * width
            n_real = np.minimum((node + 1) * width, P) - leaf_lo
            if (n_real <= 0).any():
                raise DegenerateWalkError("walk branched into an empty padded subtree")
            leaf_idx = leaf_lo + (np.arange(J, dtype=np.int64) % n_real)
            new_owner = tree.leaf_rank[leaf_idx]
            _route_meter(ledger, round_id, owner, new_owner, payload_words, P)
            owner = new_owner
        if depth:
            owner = tree.leaf_rank[node]

        order, bounds = gridmod.group_by_rank(owner, P)
        for p in np.flatnonzero(np.diff(bounds)):
            sel = order[bounds[p]:bounds[p + 1]]
            rows_local, prob_loc, r[sel] = _leaf_search_batch(
                fb.blocks[p], tree.leaf_offsets[p], tree.leaf_grams[p],
                M, H_prefix, prefix[sel], r[sel])
            X[sel, i] = fb.lows[p] + rows_local
            prob_i[sel] *= prob_loc
        per_mode_prob[:, i] = prob_i

        # Extend every prefix by its mode-i row; row ids stay below J * I_i.
        _, kept, new_prefix = distinct_keys(prefix * fb.U.shape[0] + X[:, i])
        H_prefix = H_prefix[prefix[kept]] * fb.U[X[kept, i]]
        prefix = new_prefix

    prob = per_mode_prob.prod(axis=1)
    return SampleBatch(X, H_prefix[prefix], per_mode_prob, prob, owner=owner)
