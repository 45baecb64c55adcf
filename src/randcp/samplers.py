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
  after a consistent multinomial split of the sample budget, by
  inverting that rank's CDF (built once per factor) on its own stream.

* exact sampler (``sts_build`` -> ``LeverageTree``): draws from the exact
  Khatri-Rao leverage distribution by walking a binary tree of partial
  Gram matrices once per constant factor, conditioning each mode's draw
  on the rows already chosen; the chain pseudo-inverse comes from the
  trees' Grams.  The top log2(P) tree levels are shared across ranks;
  the walk routes samples between ranks level by level and finishes with
  a search over each rank's leaf row blocks.  All simulated ranks walk
  together: samples sharing their rows so far share one walk per tree
  node, so a level costs O(J) plus one quadratic form per distinct walk,
  and one leaf search serves every rank.

Sampled rows are reweighted by 1 / sqrt(J * p_s), the scaling that makes
the sketched normal equations unbiased.  A batch keeps all J draws,
repeats included: that is what the samplers communicate and what the
ledger meters.  A batch holds the drawn index tuples and probabilities,
not design rows: the solve merges repeated draws into one column whose
squared weight is the sum of its copies' squared weights, and forms the
design row of each distinct column once (``schedules.distinct_columns``).
"""

import math

import numpy as np

from . import grid as gridmod
from . import rng
from .linalg import gram, hadamard_gram_chain, khatri_rao, pseudo_inverse

ORACLE_GUARD = 10 ** 6
_ONE_BELOW = np.nextafter(1.0, 0.0)
# Float64 elements in one leaf-search temporary: (walks x leaves x R) for
# leaf masses, (walk-leaf pairs x leaf rows x R) for row masses.
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
    """J sampled design-matrix rows for one mode-k solve, by index.

    X[:, i] holds the mode-i row index of each sample (column k is -1);
    per_mode_prob[:, i] the probability of its mode-i draw and prob the
    joint sampling probability.  The design row of a sample is the
    Hadamard product of the factor rows X names, formed by the solve.
    ``owner`` is the rank holding each sample at the end of sampling, or
    None when the batch ended replicated on every rank.
    """

    def __init__(self, X, per_mode_prob, prob, owner=None):
        self.X = X
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


def _empty_batch(N):
    return SampleBatch(np.full((0, N), -1, dtype=np.int64), np.ones((0, N)), np.ones(0))


class ArlsLevState:
    """Per-mode sampling state: the factor, its Gram, local leverage
    distributions and masses.

    dists[p] is the normalized leverage distribution over rank p's block
    rows, cdfs[p] its CDF as ``Generator.choice`` builds it, C[p] its
    pre-normalization mass; C is replicated (gathered once at build time)
    so sample calls need no mass exchange.
    """

    def __init__(self, factor, gram_matrix, dists, cdfs, C):
        self.factor = factor
        self.gram = gram_matrix
        self.dists = dists
        self.cdfs = cdfs
        self.C = C


def arls_lev_build(blocks, ledger=None, round_id=0) -> ArlsLevState:
    """Build the approximate-leverage state for one factor's blocks."""
    G = gram(blocks, ledger=ledger, round_id=round_id)
    Gp = pseudo_inverse(G)
    dists, cdfs = [], []
    C = np.zeros(blocks.n_blocks)
    for p, B in enumerate(blocks.blocks):
        d = np.maximum(np.einsum("ir,ir->i", B @ Gp, B), 0.0)
        mass = float(d.sum())
        C[p] = mass
        dist = d / mass if mass > 0.0 else d
        cdf = dist.cumsum()
        if mass > 0.0:
            cdf /= cdf[-1]
        dists.append(dist)
        cdfs.append(cdf)
    # C is allgathered, one word per rank.
    gridmod.meter(ledger, round_id, gridmod.ALLGATHER, range(blocks.n_blocks),
                  np.ones(blocks.n_blocks, dtype=np.int64))
    return ArlsLevState(blocks, G, dists, cdfs, C)


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
    if J == 0:
        return _empty_batch(N)
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
            # Generator.choice(p=dists[p]) without its per-call validation.
            u = rng.stream(seed, rng.LOCAL_DRAW, round_id, k, i, p).random(int(split[p]))
            local = st.cdfs[p].searchsorted(u, side="right")
            rows.append(st.factor.lows[p] + local)
            probs.append((st.C[p] / W) * st.dists[p][local])
        # Allgather of every rank's (row, probability) pairs, in rank order.
        gridmod.meter(ledger, round_id, gridmod.ALLGATHER, range(len(split)), 2 * split)
        perm = rng.stream(seed, rng.SHUFFLE, round_id, k, i).permutation(J)
        X[:, i] = np.concatenate(rows)[perm]
        per_mode_prob[:, i] = np.concatenate(probs)[perm]
    prob = per_mode_prob.prod(axis=1)
    return SampleBatch(X, per_mode_prob, prob, owner=None)


class LeverageTree:
    """Binary tree of partial Gram matrices over one factor's row blocks.

    ``factor`` is the FactorBlocks the tree was built from and ``gram``
    its metered Gram, which the walk's conditioning matrices multiply.
    ``node_grams[lev]`` holds the (2^lev, R, R) node matrices; level
    ``depth`` is the rank-leaf level (leaf ell belongs to the rank in
    row-block order, padding leaves hold zero).  Below that, each rank
    subdivides its block into contiguous leaf blocks whose Grams drive
    the leaf search: rank p has ``leaf_count[p]`` leaves, Grams
    ``leaf_grams[p]`` (leaf_count[p], R, R), and global row bounds
    ``leaf_bounds[p, :leaf_count[p] + 1]``; the rest of that row of
    ``leaf_bounds`` repeats the block's end, so the padded leaves are
    empty.
    """

    def __init__(self, factor, gram_matrix, node_grams, leaf_rank, leaf_bounds,
                 leaf_grams):
        self.factor = factor
        self.gram = gram_matrix
        self.node_grams = node_grams
        self.leaf_rank = leaf_rank
        self.leaf_bounds = leaf_bounds
        self.leaf_grams = leaf_grams
        self.leaf_count = np.array([g.shape[0] for g in leaf_grams], dtype=np.int64)

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

    The leaf search enumerates leaf masses and then the chosen leaf's
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

    n = blocks.his - blocks.lows
    size = np.maximum(np.ceil(np.sqrt(n)).astype(np.int64), 1)
    n_leaves = -(-n // size)
    # Padded leaves start and end at the block's end.
    leaf_bounds = np.minimum(np.arange(n_leaves.max() + 1) * size[:, None], n[:, None]) \
        + blocks.lows[:, None]
    leaf_grams = []
    rank_gram = np.zeros((P, R, R))
    for p in range(P):
        stacked = np.zeros((n_leaves[p] * size[p], R))
        stacked[:n[p]] = blocks.blocks[p]
        stacked = stacked.reshape(n_leaves[p], size[p], R)
        grams_p = np.matmul(stacked.transpose(0, 2, 1), stacked)
        leaf_grams.append(grams_p)
        if n_leaves[p]:
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

    return LeverageTree(blocks, G, node_grams, leaf_rank, leaf_bounds, leaf_grams)


def _compact(codes, size):
    """Distinct values of ``codes`` (each in range(size)) in ascending
    order, and the position of each code among them; no sort, O(len(codes)
    + size) work."""
    seen = np.zeros(size, dtype=bool)
    seen[codes] = True
    distinct = np.flatnonzero(seen)
    position = np.empty(size, dtype=np.int64)
    position[distinct] = np.arange(distinct.shape[0])
    return distinct, position[codes]


def _inverse_cdf(masses, of, r, count):
    """Pick the segment of [0, 1) containing each residual r.

    Row w of ``masses`` holds ``count[w]`` nonnegative segment masses,
    then zero padding; sample s draws from row ``of[s]`` with residual
    ``r[s]``.  Boundary hits go right, matching the r >= T branch rule,
    so a zero-mass segment is never picked, and a choice past the row's
    last real segment is clamped to it.  The comparison against each
    sample's CDF row runs in chunks of ``LEAF_SEARCH_BUDGET`` elements.
    Returns (choice, probability, rescaled residual) per sample.
    """
    cdf = np.cumsum(masses, axis=1)
    total = cdf[:, -1]
    if (total <= 0.0).any():
        raise DegenerateWalkError("zero total mass in leaf search")
    total = total[of]
    target = r * total
    choice = np.empty(of.shape[0], dtype=np.int64)
    step = max(1, LEAF_SEARCH_BUDGET // masses.shape[1])
    for a in range(0, of.shape[0], step):
        b = min(a + step, of.shape[0])
        choice[a:b] = np.count_nonzero(cdf[of[a:b]] <= target[a:b, None], axis=1)
    choice = np.minimum(choice, count[of] - 1)
    picked = masses[of, choice]
    prev = cdf[of, choice] - picked
    with np.errstate(invalid="ignore", divide="ignore"):
        r_out = np.where(picked > 0.0, (target - prev) / picked, 0.0)
    return choice, picked / total, np.clip(r_out, 0.0, _ONE_BELOW)


def _leaf_search(tree, cond, H_rows, walk_rank, walk_row, walk_of, r):
    """Leaf-block then row search for the samples of every rank at once.

    Walk w is on rank ``walk_rank[w]`` (a rank's walks are contiguous)
    with design row ``H_rows[walk_row[w]]``; sample s follows walk
    ``walk_of[s]`` with residual ``r[s]``.  Leaf masses h^T (G_leaf *
    cond) h are evaluated once per walk, from one product per rank with
    its stacked leaf Grams, into rows padded to the tree's largest leaf
    count; one inverse CDF then picks the leaves.  Row masses (u_q * h)^T
    cond (u_q * h) are evaluated once per distinct (walk, leaf) pair from
    (pairs, L, R) contractions, L the longest chosen leaf, with rows past
    a leaf's end masked to zero mass; a second inverse CDF picks the
    rows.  Walks are searched in chunks whose (walks, leaves, R) product
    fits ``LEAF_SEARCH_BUDGET`` float64 elements (one chunk unless the
    leaves are many), and the row products are chunked to fit it too.

    Returns each sample's global row, its probability, and the id of its
    (walk, row) cell, cells numbered in (walk, row) order.
    """
    R = H_rows.shape[1]
    count = tree.leaf_count[walk_rank]
    if (count == 0).any():
        raise DegenerateWalkError("walk reached a rank with no rows")
    J = walk_of.shape[0]
    n_walks = walk_rank.shape[0]
    width = tree.leaf_bounds.shape[1] - 1
    step = max(1, LEAF_SEARCH_BUDGET // (width * R))
    order, bounds = gridmod.group_by_rank(walk_of // step, -(-n_walks // step))
    rows = np.empty(J, dtype=np.int64)
    prob = np.empty(J)
    cell_of = np.empty(J, dtype=np.int64)
    n_cells = 0
    for c in range(bounds.shape[0] - 1):
        sel = order[bounds[c]:bounds[c + 1]]
        w0, w1 = c * step, min((c + 1) * step, n_walks)
        leaf_masses = np.zeros((w1 - w0, width))
        starts = w0 + np.flatnonzero(np.diff(walk_rank[w0:w1], prepend=-1))
        for lo, hi in zip(starts, np.append(starts[1:], w1)):
            grams = tree.leaf_grams[walk_rank[lo]]
            n_leaves = grams.shape[0]
            # (R, n_leaves * R): column block q holds leaf q's conditioned Gram.
            leaf_cond = (grams * cond).transpose(1, 0, 2).reshape(R, n_leaves * R)
            Hd = H_rows[walk_row[lo:hi]]
            Y = (Hd @ leaf_cond).reshape(hi - lo, n_leaves, R)
            leaf_masses[lo - w0:hi - w0, :n_leaves] = np.einsum("kqr,kr->kq", Y, Hd)
        np.maximum(leaf_masses, 0.0, out=leaf_masses)
        of = walk_of[sel] - w0
        leaf, leaf_prob, r_mid = _inverse_cdf(leaf_masses, of, r[sel], count[w0:w1])

        pairs, pair_of = _compact(of * width + leaf, (w1 - w0) * width)
        pair_walk, pair_leaf = np.divmod(pairs, width)
        pair_walk += w0
        pair_rank = walk_rank[pair_walk]
        first = tree.leaf_bounds[pair_rank, pair_leaf]
        size = tree.leaf_bounds[pair_rank, pair_leaf + 1] - first
        L = int(size.max())
        row_masses = np.empty((pairs.shape[0], L))
        pair_step = max(1, LEAF_SEARCH_BUDGET // (L * R))
        for a in range(0, pairs.shape[0], pair_step):
            b = min(a + pair_step, pairs.shape[0])
            V = tree.factor.U.take(
                first[a:b, None] + np.minimum(np.arange(L), size[a:b, None] - 1), axis=0)
            V *= H_rows[walk_row[pair_walk[a:b]]][:, None, :]
            VM = (V.reshape(-1, R) @ cond).reshape(V.shape)
            row_masses[a:b] = np.einsum("klr,klr->kl", VM, V)
        np.maximum(row_masses, 0.0, out=row_masses)
        row_masses[np.arange(L) >= size[:, None]] = 0.0
        q, row_prob, _ = _inverse_cdf(row_masses, pair_of, r_mid, size)
        rows[sel] = first[pair_of] + q
        prob[sel] = leaf_prob * row_prob
        cells, local = _compact(pair_of * L + q, pairs.shape[0] * L)
        cell_of[sel] = n_cells + local
        n_cells += cells.shape[0]
    return rows, prob, cell_of


def _route_meter(ledger, round_id, old_owner, new_owner, payload_words, P):
    """Meter the level-boundary all-to-allvs that move samples between ranks.

    Row l of ``old_owner`` and ``new_owner`` holds each sample's rank before
    and after level l (1-D arrays are one level); one ``meter`` call
    records every level.
    """
    sent = [np.bincount(old.astype(np.int64) * P + new, minlength=P * P)
            for old, new in zip(np.atleast_2d(old_owner), np.atleast_2d(new_owner))]
    gridmod.meter(ledger, round_id, gridmod.ALL_TO_ALLV, range(P),
                  np.stack(sent) * payload_words)


def sts_sample(trees, k, J, seed, round_id=0, ledger=None,
               uniform_override=None) -> SampleBatch:
    """Draw J rows from the exact Khatri-Rao leverage distribution.

    Modes are visited in ascending order skipping k.  For mode i the
    conditioning matrix is  G_chain_pinv (elementwise) prod of Grams of
    modes > i (excluding k), where G_chain_pinv is the pseudo-inverse of
    the Hadamard product of the trees' Grams over the modes != k
    (``trees[k]`` is not read); the contribution of already-sampled modes
    lives in the running rows H.  Each sample walks the shared tree
    levels (routing between ranks at every level; one ``meter`` call at
    the end records every level), finishes with the local leaf search on
    its terminal rank, and multiplies its H row by the selected factor
    row, which that rank owns.  The last walked mode extends no prefix.

    Samples that drew the same rows so far (the same prefix) share their
    H row, so every quadratic form is evaluated once per distinct walk:
    a (tree node, prefix) pair at the tree levels, a (rank, prefix) pair
    for the leaf masses and a (rank, prefix, leaf) triple for the row
    masses.  A walk's children are (2 node + branch, prefix), so each
    level's walks come from the last level's without sorting the samples;
    they stay in (node, prefix) order, grouped by node.

    ``uniform_override`` (J, N) replaces the per-mode uniform draws; a
    test hook for steering walks down chosen paths.
    """
    N = len(trees)
    grams = [None if i == k else t.gram for i, t in enumerate(trees)]
    gram_chain_pinv = pseudo_inverse(hadamard_gram_chain(grams, skip=k))
    R = gram_chain_pinv.shape[0]
    if J == 0:
        return _empty_batch(N)
    P = trees[next(i for i in range(N) if i != k)].factor.n_blocks
    payload_words = N + R + 2  # X row + H row + residual + running probability

    X = np.full((J, N), -1, dtype=np.int64)
    per_mode_prob = np.ones((J, N))
    owner = (np.arange(J, dtype=np.int64) * P) // J
    prefix = np.zeros(J, dtype=np.int64)  # index of each sample's row in H_prefix
    H_prefix = np.ones((1, R))
    # Each sample's rank before and after every routed level, in the narrowest
    # dtype holding a rank; one meter call at the end records every level.
    route = np.empty((sum(trees[i].depth for i in range(N) if i != k) + 1, J),
                     dtype=np.min_scalar_type(P - 1))
    route[0] = owner
    hop = 0
    last = N - 1 if k != N - 1 else N - 2

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
        prob_i = np.ones(J)
        depth = tree.depth
        # Walks: distinct (node, prefix) pairs in that order; sample s is on
        # walk walk_of[s].  At the root every prefix is one walk.
        walk_node = np.zeros(H_prefix.shape[0], dtype=np.int64)
        walk_prefix = np.arange(H_prefix.shape[0])
        walk_of = prefix
        for lev in range(depth):
            bounds = np.searchsorted(walk_node, np.arange((1 << lev) + 1))
            T = np.empty(walk_node.shape[0])
            for v in np.flatnonzero(np.diff(bounds)):
                sl = slice(bounds[v], bounds[v + 1])
                Hs = H_prefix[walk_prefix[sl]]
                den = _quad(Hs, tree.node_grams[lev][v] * M)
                if (den <= 0.0).any():
                    raise DegenerateWalkError(
                        "zero node mass at level %d of mode-%d tree" % (lev, i))
                num = np.maximum(_quad(Hs, tree.node_grams[lev + 1][2 * v] * M), 0.0)
                T[sl] = num / den
            T = np.clip(T, 0.0, 1.0)[walk_of]
            right = r >= T
            prob_i *= np.where(right, 1.0 - T, T)
            with np.errstate(invalid="ignore", divide="ignore"):
                r = np.where(right,
                             (r - T) / np.maximum(1.0 - T, np.finfo(float).tiny),
                             r / np.maximum(T, np.finfo(float).tiny))
            r = np.clip(r, 0.0, _ONE_BELOW)
            # Children in (walk, branch) order; a stable sort of the few
            # distinct children by node restores (node, prefix) order.
            children, walk_of = _compact(2 * walk_of + right, 2 * walk_node.shape[0])
            parent, branch = np.divmod(children, 2)
            child_node = 2 * walk_node[parent] + branch
            order = np.argsort(child_node, kind="stable")
            renumber = np.empty_like(order)
            renumber[order] = np.arange(order.shape[0])
            walk_of = renumber[walk_of]
            walk_node = child_node[order]
            walk_prefix = walk_prefix[parent[order]]

            node = walk_node[walk_of]
            width = 1 << (depth - 1 - lev)
            leaf_lo = node * width
            n_real = np.minimum((node + 1) * width, P) - leaf_lo
            if (n_real <= 0).any():
                raise DegenerateWalkError("walk branched into an empty padded subtree")
            leaf_idx = leaf_lo + (np.arange(J, dtype=np.int64) % n_real)
            owner = tree.leaf_rank[leaf_idx]
            hop += 1
            route[hop] = owner

        X[:, i], prob_leaf, cell_of = _leaf_search(
            tree, M, H_prefix, tree.leaf_rank[walk_node], walk_prefix, walk_of, r)
        prob_i *= prob_leaf
        per_mode_prob[:, i] = prob_i
        if i == last:
            break  # no later mode reads the prefixes

        # Extend every prefix by its mode-i row.  Cells come in (walk, row)
        # order, and rows grow with the walk's node, so a stable sort of
        # the cells by prefix puts them in (prefix, row) order.
        kept = np.empty(cell_of.max() + 1, dtype=np.int64)
        kept[cell_of] = np.arange(J)
        kept = kept[np.argsort(prefix[kept], kind="stable")]
        renumber = np.empty_like(kept)
        renumber[cell_of[kept]] = np.arange(kept.shape[0])
        H_prefix = H_prefix[prefix[kept]] * fb.U[X[kept, i]]
        prefix = renumber[cell_of]

    if hop:
        _route_meter(ledger, round_id, route[:-1], route[1:], payload_words, P)
    prob = per_mode_prob.prod(axis=1)
    return SampleBatch(X, per_mode_prob, prob, owner=owner)
