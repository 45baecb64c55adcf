"""Row samplers for the Khatri-Rao design matrix.

Two production samplers plus a brute-force oracle.  Each sampler is a
build/sample pair: the build turns one factor and its Gram, the sum of
one metered reduction, into its per-mode state, which is rebuilt after
every update of the factor; the sample call draws a mode-k batch from
the states of all modes, ``(states, k, J, seed)``.

* approximate sampler (``arls_lev_build`` -> the factor's leverage
  distribution, one array): weighs each candidate row by the product of
  per-factor leverage scores.  For each off mode it draws J iid rows at
  once, as one multinomial over the factor's rows on the shared stream,
  expanded and shuffled.  A multinomial over rows, grouped by block, is
  a multinomial over the ranks' masses followed by each rank's local
  draw, so each rank allgathers only its block's drawn rows with their
  counts, 3 words per distinct drawn row of every off mode, and every
  rank rebuilds the same J draws from the counts and the shared
  permutation.  The sampler meters nothing: the triples ride in the
  solve's one all-rank allgather (``schedules``).

* exact sampler (``sts_build`` -> ``LeverageTree``, which keeps its
  ``FactorBlocks`` and reads it in place): draws from the exact
  Khatri-Rao leverage distribution by walking a binary tree of partial
  Gram matrices once per constant factor, conditioning each mode's draw
  on the rows already chosen; the chain pseudo-inverse comes from the
  trees' Grams.  The build's upward exchange is the factor's one
  reduction: its root is the Gram.  The walk is inverse-CDF sampling in
  tree order, and every step follows one rule (``_descend``): the masses
  of a node's children form a CDF, the sample's residual picks a child,
  and the residual is rescaled into that child's segment.  The top
  log2(P) steps pick between the two children of a tree node shared
  across ranks, routing samples between ranks; one more step picks among
  the rank's leaf row blocks and a last one among the chosen block's
  rows.  A routed sample sends N + 2 words (its X row, residual and
  running probability); the samples of one prefix share their H row, so
  each message sends a prefix's R-word H row once.  All simulated ranks
  walk together: samples sharing their rows so far share one walk per
  node, so a step costs O(J) plus one quadratic form per distinct walk
  and child.  One mass kernel forms every quadratic form from stacks of
  conditioned Grams, and the inverse CDF runs over a (children x walks)
  layout.

Sampled rows are reweighted by 1 / sqrt(J * p_s), the scaling that makes
the sketched normal equations unbiased.  A batch keeps all J draws,
repeats included, as the solve's weights need them; what moves is
metered per distinct row wherever the tuples are replicated first
(``schedules``).  A batch holds the drawn index tuples and each draw's
joint probability, not design rows: the solve merges repeated draws into
one column whose squared weight is the sum of its copies' squared
weights, and forms the design row of each distinct column once
(``schedules.distinct_columns``).
"""

import numpy as np

from . import grid as gridmod
from . import rng
from .linalg import gram, hadamard_gram_chain, khatri_rao, pseudo_inverse

ORACLE_GUARD = 10 ** 6
_ONE_BELOW = np.nextafter(1.0, 0.0)
# Float64 elements in one walk temporary: the mass kernel's (m, walks, R)
# product, or a walk step's (children x walks) mass columns; also the least
# number of slots in the route's tag buffer.
LEAF_SEARCH_BUDGET = 1 << 20


class DegenerateWalkError(RuntimeError):
    """A tree walk hit a zero-mass node; h lies outside the row space."""


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
    return np.maximum(np.einsum("jr,jr->j", A @ Gp, A), 0.0)


def exact_krp_leverage_oracle(factors, skip=None):
    """Exact leverage probability of every Khatri-Rao row, by materialization."""
    scores = krp_leverage_scores(factors, skip=skip)
    total = scores.sum()
    if total <= 0.0:
        raise ValueError("all leverage scores are zero")
    return scores / total


class SampleBatch:
    """J sampled design-matrix rows for one mode-k solve, by index.

    X[:, i] holds the mode-i row index of each sample (column k is -1)
    and prob its joint sampling probability, the product of its per-mode
    draw probabilities in ascending mode order.  The design row of a
    sample is the Hadamard product of the factor rows X names, formed by
    the solve.  ``owner`` is the rank holding each sample at the end of
    sampling, or None when the batch ended replicated on every rank.
    """

    def __init__(self, X, prob, owner=None):
        self.X = X
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
    return SampleBatch(np.full((0, N), -1, dtype=np.int64), np.ones(0))


def arls_lev_build(blocks, ledger=None, round_id=0, gram_matrix=None) -> np.ndarray:
    """The approximate-leverage state of one factor's blocks: the normalized
    leverage distribution over every row of the factor (all zero when it
    has no leverage mass), from the whole factor at once, so it does not
    depend on the blocks.

    ``gram_matrix`` is the factor's Gram when the caller has reduced it
    already (a factor update reduces once, ``als._rebuild_mode_state``);
    without it the build reduces it (``gram``, metered)."""
    G = gram(blocks, ledger=ledger, round_id=round_id) if gram_matrix is None else gram_matrix
    U = blocks.U
    d = np.maximum(np.einsum("ir,ir->i", U @ pseudo_inverse(G), U), 0.0)
    total = d.cumsum()[-1]  # the sequential sum, not np.sum's pairwise one
    dist = d / total if total > 0.0 else d
    # Every rank's block mass, the sum of its rows' d, is allgathered: one
    # word per rank.
    gridmod.meter(ledger, round_id, gridmod.ALLGATHER, range(blocks.n_blocks),
                  np.ones(blocks.n_blocks, dtype=np.int64))
    return dist


def consistent_multinomial(masses, J, seed, round_id, k, mode):
    """Counts of J draws over categories (rows) weighted by ``masses``, which
    every rank computes identically from the shared stream."""
    masses = np.asarray(masses, dtype=np.float64)
    total = masses.sum()
    if total <= 0.0:
        raise ValueError("all masses are zero; nothing to sample from")
    gen = rng.stream(seed, rng.MULTINOMIAL, round_id, k, mode)
    return gen.multinomial(int(J), masses / total)


def arls_lev_sample(states, k, J, seed, round_id=0) -> SampleBatch:
    """Draw J rows from the product-of-factor-leverage distribution;
    ``states[i]`` is mode i's leverage distribution (``arls_lev_build``).

    For each constant mode independently: count every row's draws by a
    consistent multinomial over its leverage distribution, expand the
    counts into rows and apply the shared-stream permutation.  Each rank
    allgathers its block's distinct drawn rows of every off mode as (row,
    count, leverage) triples, from which every rank rebuilds the same
    draws, so every rank holds the result.  The triples need no exchange
    first, so they go in the solve's one all-rank allgather, which the
    solve meters (``schedules._meter_world_gather``).
    """
    N = len(states)
    if J == 0:
        return _empty_batch(N)
    X = np.full((J, N), -1, dtype=np.int64)
    prob = np.ones(J)
    for i in range(N):
        if i == k:
            continue
        counts = consistent_multinomial(states[i], J, seed, round_id, k, i)
        perm = rng.stream(seed, rng.SHUFFLE, round_id, k, i).permutation(J)
        X[:, i] = rows = np.repeat(np.arange(counts.size), counts)[perm]
        prob *= states[i].take(rows)
    return SampleBatch(X, prob, owner=None)


class LeverageTree:
    """Binary tree of partial Gram matrices over one factor's row blocks.

    ``factor`` is the FactorBlocks the tree was built from.
    ``node_grams[lev]`` holds the (2^lev, R, R) node matrices; the root,
    ``gram``, is the factor's Gram, which the walk's conditioning matrices
    multiply.  Level ``depth`` is the rank-leaf level (leaf ell belongs to
    the rank in row-block order, padding leaves hold zero).  Below that,
    each rank subdivides its block into contiguous leaf blocks whose Grams
    drive the leaf-block step: rank p has n_p leaves, Grams
    ``leaf_grams[p]`` (n_p, R, R), and global row bounds
    ``leaf_bounds[p, :n_p + 1]``; the rest of that row of
    ``leaf_bounds`` repeats the block's end, so the padded leaves are
    empty.
    """

    def __init__(self, factor, node_grams, leaf_rank, leaf_bounds, leaf_grams):
        self.factor = factor
        self.node_grams = node_grams
        self.leaf_rank = leaf_rank
        self.leaf_bounds = leaf_bounds
        self.leaf_grams = leaf_grams

    @property
    def depth(self):
        return len(self.node_grams) - 1

    @property
    def gram(self):
        return self.node_grams[0][0]

    def rescale(self, scale):
        """Multiply every node and leaf Gram elementwise by ``scale``
        (``linalg.gram_scale``), after the factor's columns were rescaled."""
        self.node_grams = [g * scale for g in self.node_grams]
        self.leaf_grams = [g * scale for g in self.leaf_grams]


def tree_exchange(P):
    """The upward pass's sends over P rank leaves: a (depth, P, P) stack
    whose level-s matrix is 1 where leaf i sends leaf j its partial, the
    sum over its aligned block of 2^s leaves.

    Leaves exchange with the leaf whose position differs in bit s
    (recursive doubling).  When P is not a power of two, a leaf whose
    partner is padding instead receives the partner block's partial from
    the last real leaf, P - 1, whenever that block holds a real leaf:
    P - 1 then lies in it and, by induction over the levels, holds the
    block's whole sum.  So after the last level every rank holds the root.
    """
    depth = (P - 1).bit_length()  # ceil(log2(P))
    leaf = np.arange(P)
    sends = np.zeros((depth, P, P), dtype=np.int64)
    for s in range(depth):
        partner = leaf ^ (1 << s)
        holds = partner >> s << s < P  # the partner block holds a real leaf
        sends[s, np.where(partner < P, partner, P - 1)[holds], leaf[holds]] = 1
    return sends


def sts_build(blocks, ledger=None, round_id=0) -> LeverageTree:
    """Build the leverage tree for one factor (exact-sampler build pass).

    Leaf Grams come from each rank's local rows, and a rank's Gram is the
    sum of its leaves'.  The upward pass is the factor update's one
    reduction: the exchange of ``tree_exchange`` over the rank leaves in
    row-block order, metered as one R*R partial per message, after which
    every rank reads the factor's Gram at the root (general P is handled
    by padding with empty leaves, which carry zero mass and are never
    routed to).  Overflow to non-finite Grams raises no warning here; the
    caller's norm check rejects them.

    The last two walk steps evaluate a rank's leaf masses and then the
    chosen leaf's row masses, costing about (n/L + L) R^2 per sample for
    leaf size L.
    L = ceil(sqrt(n)) minimizes that and keeps the leaf Grams at about
    sqrt(n) R^2 words per rank.
    """
    R = blocks.R
    P = blocks.n_blocks
    order = np.lexsort((np.arange(P), blocks.lows))  # rank ids in row-block order
    sends = tree_exchange(P)
    depth = sends.shape[0]
    padded = 1 << depth

    n = blocks.his - blocks.lows
    size = np.maximum(np.ceil(np.sqrt(n)).astype(np.int64), 1)
    n_leaves = -(-n // size)
    # Padded leaves start and end at the block's end.
    leaf_bounds = np.minimum(np.arange(n_leaves.max() + 1) * size[:, None], n[:, None]) \
        + blocks.lows[:, None]
    leaf_grams = []
    rank_gram = np.zeros((P, R, R))
    node_grams = [None] * (depth + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for p in range(P):
            stacked = np.zeros((n_leaves[p] * size[p], R))
            stacked[:n[p]] = blocks.blocks[p]
            stacked = stacked.reshape(n_leaves[p], size[p], R)
            grams_p = np.matmul(stacked.transpose(0, 2, 1), stacked)
            leaf_grams.append(grams_p)
            if n_leaves[p]:
                rank_gram[p] = grams_p.sum(axis=0)
        leaves = np.zeros((padded, R, R))
        leaves[:P] = rank_gram[order]
        node_grams[depth] = leaves
        for lev in range(depth - 1, -1, -1):
            node_grams[lev] = node_grams[lev + 1].reshape(-1, 2, R, R).sum(axis=1)

    leaf_rank = np.full(padded, -1, dtype=np.int64)
    leaf_rank[:P] = order
    gridmod.meter(ledger, round_id, gridmod.ALL_TO_ALLV, order, sends * (R * R))
    return LeverageTree(blocks, node_grams, leaf_rank, leaf_bounds, leaf_grams)


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


def _masses(H, rows, groups, out):
    """The walk's one mass kernel: quadratic forms h^T S_q h of grouped walks.

    ``groups`` yields (lo, hi, S): walks lo..hi-1, with design rows
    ``H[rows[lo:hi]]``, are evaluated against the (m, R, R) stack S into
    ``out[lo:hi, :m]`` by one batched ``matmul`` and one ``einsum``, in
    chunks whose (m, walks, R) product fits ``LEAF_SEARCH_BUDGET``.
    """
    for lo, hi, S in groups:
        step = max(1, LEAF_SEARCH_BUDGET // max(1, S.shape[0] * H.shape[1]))
        for a in range(lo, hi, step):
            b = min(a + step, hi)
            Hs = H.take(rows[a:b], axis=0)
            np.einsum("qkr,kr->kq", np.matmul(Hs, S), Hs, out=out[a:b, :S.shape[0]])


def _inverse_cdf(masses, of, r):
    """Pick the segment of [0, 1) containing each residual r.

    Column w of ``masses`` (segments x walks) holds walk w's nonnegative
    segment masses, zero-padded; sample s draws from column ``of[s]`` with
    residual ``r[s]`` in [0, 1).  Each column is normalized once, so its
    CDF reaches exactly 1 at its last real segment and no residual passes
    it.  Boundary hits go right, so a zero-mass segment is never picked.
    Choices count normalized CDF rows at or below r a row at a time, with
    no (samples x segments) temporary.  Returns (choice, probability,
    rescaled residual) per sample.
    """
    cdf = np.cumsum(masses, axis=0)
    total = cdf[-1]
    if (total <= 0.0).any():
        raise DegenerateWalkError("zero total mass at a walk step")
    prob = masses / total
    cdf /= total
    choice = np.zeros(of.shape[0], dtype=np.int64)
    for row in cdf[:-1]:  # the last row is 1, above every residual
        choice += row.take(of) <= r
    flat = choice * masses.shape[1]
    flat += of
    picked = prob.take(flat)
    cdf -= prob  # each segment's start
    r_out = cdf.take(flat)
    np.subtract(r, r_out, out=r_out)
    r_out /= picked
    np.clip(r_out, 0.0, _ONE_BELOW, out=r_out)
    return choice, picked, r_out


def _descend(H, walk_row, walk_of, r, group_at, stack, width):
    """One walk step: every sample picks a child of its walk's node.

    Walk w has design row ``H[walk_row[w]]``; walks ``group_at[g]`` to
    ``group_at[g + 1] - 1`` share the conditioned stack ``stack(g)``, one
    (R, R) matrix per child, at most ``width`` of them.  The mass kernel
    gives each walk's child masses h^T S_q h into zero-padded (children x
    walks) columns, in chunks of walks that fit ``LEAF_SEARCH_BUDGET``,
    and the inverse CDF picks the child of sample s from walk
    ``walk_of[s]`` with residual ``r[s]``.  Returns the index of each
    sample's (walk, child) pair among the distinct pairs, those pairs'
    walks and children in (walk, child) order, and each sample's
    probability and residual rescaled into its child.
    """
    n_walks = walk_row.shape[0]
    step = max(1, LEAF_SEARCH_BUDGET // width)
    chunks = [(0, n_walks, slice(None))]
    if n_walks > step:
        order, chunk_at = gridmod.group_by_rank(walk_of // step, -(-n_walks // step))
        chunks = [(c * step, min(c * step + step, n_walks), sel)
                  for c, sel in enumerate(np.split(order, chunk_at[1:-1]))]
    parts, pairs, n_pairs = [], [], 0
    for w0, w1, sel in chunks:
        masses = np.zeros((width, w1 - w0))
        at = np.clip(group_at, w0, w1) - w0
        _masses(H, walk_row[w0:w1], ((at[g], at[g + 1], stack(g))
                                     for g in np.flatnonzero(np.diff(at))), masses.T)
        np.maximum(masses, 0.0, out=masses)
        of = walk_of[sel] - w0 if w0 else walk_of[sel]
        child, prob, r_out = _inverse_cdf(masses, of, r[sel])
        code = of * width
        code += child
        distinct, pair_of = _compact(code, (w1 - w0) * width)
        parts.append((pair_of + n_pairs if n_pairs else pair_of, prob, r_out))
        pairs.append(distinct + w0 * width)
        n_pairs += distinct.shape[0]
    parent, child = np.divmod(np.concatenate(pairs), width)
    if len(parts) == 1:
        pair_of, prob, r_out = parts[0]
    else:
        out = pair_of, prob, r_out = np.empty_like(walk_of), np.empty(r.shape), np.empty(r.shape)
        for (_, _, sel), part in zip(chunks, parts):
            for a, x in zip(out, part):
                a[sel] = x
    return pair_of, parent, child, prob, r_out


def _children(pair_of, key, bound):
    """The next step's walks: the distinct (walk, child) pairs of a step,
    stably grouped by ``key`` (one value in range(bound) per pair).

    New walk w is pair ``order[w]``.  Returns ``order``, each sample's new
    walk, and the group bounds: group g is walks ``group_at[g]`` to
    ``group_at[g + 1] - 1``.
    """
    order, group_at = gridmod.group_by_rank(key, bound)
    renumber = np.empty_like(order)
    renumber[order] = np.arange(order.shape[0])
    return order, renumber.take(pair_of), group_at


def _one_per_key(key, bound, tag, ids):
    """Mark one sample per distinct value of ``key`` (each in range(bound)).

    Every sample writes its id ``ids[s]`` into slot ``key[s]`` of the tag
    buffer; whichever write a slot keeps, exactly one sample of that value
    reads its own id back.  No sort: keys beyond the buffer are handled in
    buffer-sized ranges, grouped stably without a comparison sort.
    """
    span = tag.shape[0]
    if bound <= span:
        tag[key] = ids
        return tag.take(key) == ids
    one = np.empty(key.shape, dtype=bool)
    order, at = gridmod.group_by_rank(key // span, -(-bound // span))
    for c in np.flatnonzero(np.diff(at)):
        sel = order[at[c]:at[c + 1]]
        local, own = key.take(sel) - c * span, ids.take(sel)
        tag[local] = own
        one[sel] = tag.take(local) == own
    return one


def _route_offsets(sample, P, depth):
    """Each sample's routing offset at every tree level: after level lev,
    sample s sits on real rank leaf s mod n_real under its node.  A level's
    nodes hold their full width of real leaves but for the one holding
    leaf P - 1, so a level needs remainders by at most two counts, whatever
    mode walks it.  Returns per level the offsets under full nodes, the
    edge node, and the offsets under it (None where it is full).
    """
    levels = []
    for lev in range(depth):
        width = 1 << (depth - 1 - lev)
        real = (P - 1) % width + 1
        levels.append((sample % width, (P - 1) // width, sample % real if real < width else None))
    return levels


def _route_meter(ledger, round_id, old_owner, new_owner, payload_words, P):
    """Meter the level-boundary all-to-allvs that move samples between ranks.

    Row l of ``old_owner`` and ``new_owner`` holds each sample's rank before
    and after level l (1-D arrays are one level).  ``payload_words`` is
    the words one sample adds to its message: one number, or one per
    sample and level (shaped like ``old_owner``).  ``sts_sample`` gives a
    sample N + 2 words, and N + R + 2 if it is the one sample of its
    (prefix, sender, receiver) whose message carries the shared H row.
    One weighted ``bincount`` per level sums a level's messages, and one
    ``meter`` call records every level.
    """
    old, new = np.atleast_2d(old_owner), np.atleast_2d(new_owner)
    words = np.broadcast_to(payload_words, old.shape)
    pair = old.astype(np.min_scalar_type(P * P - 1)) * P
    pair += new.astype(pair.dtype, copy=False)
    sent = [np.bincount(c, weights=w, minlength=P * P) for c, w in zip(pair, words)]
    gridmod.meter(ledger, round_id, gridmod.ALL_TO_ALLV, range(P), np.stack(sent))


def sts_sample(trees, k, J, seed, round_id=0, ledger=None,
               uniform_override=None) -> SampleBatch:
    """Draw J rows from the exact Khatri-Rao leverage distribution.

    Modes are visited in ascending order skipping k.  For mode i the
    conditioning matrix is  G_chain_pinv (elementwise) prod of Grams of
    modes > i (excluding k), where G_chain_pinv is the pseudo-inverse of
    the Hadamard product of the trees' Grams over the modes != k
    (``trees[k]`` is not read); the contribution of already-sampled modes
    lives in the running rows H.  Each mode's draw is a walk of
    ``_descend`` steps, each an inverse CDF over the walk node's
    children: one per tree level over the two child nodes (routing
    samples between ranks; one ``meter`` call at the end records every
    level), one over the terminal rank's leaf blocks and one over the
    chosen block's rows.  Sample s moves to real rank leaf s mod n_real
    under its node; each all-to-allv is metered as N + 2 words per moved
    sample plus R words per distinct (prefix, sender, receiver), the H row
    a message carries once for all its samples of that prefix.  One
    sample of each is marked through a tag buffer (``_one_per_key``), with
    no sort.  Each sample then multiplies its H row by the
    selected factor row, which that rank owns.  The last walked mode
    extends no prefix.

    Samples that drew the same rows so far (the same prefix) share their
    H row, so every quadratic form is evaluated once per distinct walk:
    a (tree node, prefix) pair at the tree levels, a (rank, prefix) pair
    at the leaf blocks and a (rank, leaf, prefix) triple at the rows.
    ``_children`` makes each step's walks from the last step's distinct
    (walk, child) pairs without sorting the samples, grouped by the stack
    of the next step: by node, then by leaf, and at the end by prefix,
    which gives the next mode's prefixes in (prefix, row) order.

    ``uniform_override`` (J, N) replaces the per-mode uniform draws; a
    test hook for steering walks down chosen paths.
    """
    N = len(trees)
    grams = [None if i == k else t.gram for i, t in enumerate(trees)]
    gram_chain_pinv = pseudo_inverse(hadamard_gram_chain(grams, skip=k))
    R = gram_chain_pinv.shape[0]
    if J == 0:
        return _empty_batch(N)
    first = trees[next(i for i in range(N) if i != k)]  # every tree spans the same P ranks
    P = first.factor.n_blocks

    X = np.full((J, N), -1, dtype=np.int64)
    prob = np.ones(J)
    # Sample ids, in the narrowest dtype holding a sample or a rank, name the
    # samples in the tag buffer and give each routing offset.
    sample = np.arange(J, dtype=np.min_scalar_type(max(J - 1, P)))
    owner = np.arange(J) * P // J
    prefix = np.zeros(J, dtype=np.int64)  # index of each sample's row in H_prefix
    H_prefix = np.ones((1, R))
    # Each sample's rank before and after every routed level, in the narrowest
    # dtype holding a rank, and the words it adds to its message there: N + 2
    # (X row, residual, running probability), and R more for the one sample
    # of each (prefix, sender, receiver) that carries the shared H row.  One
    # meter call at the end records every level.
    hops = sum(trees[i].depth for i in range(N) if i != k)
    route = np.empty((hops + 1, J), dtype=np.min_scalar_type(P - 1))
    route[0] = owner
    words = np.empty((hops, J), dtype=np.min_scalar_type(N + R + 2))
    tag = np.empty(max(J, LEAF_SEARCH_BUDGET), dtype=sample.dtype)
    offsets = _route_offsets(sample, P, first.depth)
    offset = owner  # the sending position of the call's first hop
    hop = 0
    last = N - 1 if k != N - 1 else N - 2

    for i in range(N):
        if i == k:
            continue
        tree = trees[i]
        M = np.prod([gram_chain_pinv] + [grams[m] for m in range(i + 1, N) if m != k], axis=0)
        r = (np.array(uniform_override[:, i], dtype=np.float64) if uniform_override is not None
             else rng.stream(seed, rng.WALK_UNIFORM, round_id, k, i).random(J))
        prob_i = np.ones(J)
        # Walks: distinct (node, prefix) pairs, grouped by node; sample s is
        # on walk walk_of[s].  At the root every prefix is one walk.
        walk_node = np.zeros(H_prefix.shape[0], dtype=np.int64)
        walk_prefix = np.arange(H_prefix.shape[0])
        walk_of, group_at = prefix, np.array([0, H_prefix.shape[0]])
        walks = []
        for lev in range(tree.depth):
            kids = tree.node_grams[lev + 1].reshape(-1, 2, R, R) * M
            pair_of, parent, branch, p, r = _descend(
                H_prefix, walk_prefix, walk_of, r, group_at, kids.__getitem__, 2)
            prob_i *= p
            node = 2 * walk_node[parent] + branch
            order, walk_of, group_at = _children(pair_of, node, 2 << lev)
            walk_node, walk_prefix = node[order], walk_prefix[parent[order]]

            if walk_node[-1] << (tree.depth - 1 - lev) >= P:  # walks go by node
                raise DegenerateWalkError("walk branched into an empty padded subtree")
            walks.append((walk_of, walk_node.shape[0]))

        # Route: after level lev sample s sits on real rank leaf s mod n_real
        # under its node there, an ancestor of its final leaf.
        final = walk_node.astype(sample.dtype).take(walk_of)
        position = np.empty((tree.depth, J), dtype=sample.dtype)
        for lev, (on, n_walks) in enumerate(walks):
            shift = tree.depth - 1 - lev
            width = 1 << shift
            full, edge, edge_offset = offsets[lev]
            node = final >> shift
            sent_from, offset = offset, (full if edge_offset is None
                                         else np.where(node == edge, edge_offset, full))
            np.left_shift(node, shift, out=position[lev])
            position[lev] += offset
            # Each (prefix, sender, receiver) moves its H row once.  The walk
            # fixes the prefix and the node, so (walk, sending offset in the
            # parent, receiving offset) names it, less any part the others
            # fix: at a later mode's first hop a prefix sends from one rank,
            # the owner of its last row, and below the root the receiving
            # offset is the sending one mod n_real unless an edge node's
            # real leaves do not divide its parent's (P not a power of two).
            # The call's first hop keeps both offsets.
            if lev == 0 and hop:
                key, span = on * width + offset, width
            elif lev and not width < (P - 1) % (2 * width) + 1 < 2 * width:
                key, span = on * (2 * width) + sent_from, 2 * width
            else:
                key = (on * (2 * width) + sent_from) * width + offset
                span = 2 * width * width
            words[hop] = _one_per_key(key, n_walks * span, tag, sample)
            hop += 1
        route[hop + 1 - tree.depth:hop + 1] = tree.leaf_rank.take(position)

        # The rank's leaf blocks, then the chosen block's rows.  Leaf cell
        # node * width + leaf spans rows lo[cell]..hi[cell]-1.
        width = tree.leaf_bounds.shape[1] - 1
        node_bounds = tree.leaf_bounds[tree.leaf_rank]
        lo, hi = node_bounds[:, :-1].ravel(), node_bounds[:, 1:].ravel()
        pair_of, parent, leaf, p, r = _descend(
            H_prefix, walk_prefix, walk_of, r, group_at,
            lambda v: tree.leaf_grams[tree.leaf_rank[v]] * M, width)
        prob_i *= p
        cell = walk_node[parent] * width + leaf
        order, walk_of, group_at = _children(pair_of, cell, lo.shape[0])
        cell, walk_prefix = cell[order], walk_prefix[parent[order]]
        U = tree.factor.U
        pair_of, parent, q, p, _ = _descend(
            H_prefix, walk_prefix, walk_of, r, group_at,
            lambda c: U[lo[c]:hi[c], :, None] * U[lo[c]:hi[c], None, :] * M,
            int((hi - lo)[cell].max()))
        prob_i *= p
        prob *= prob_i
        rows = lo[cell[parent]] + q
        X[:, i] = rows.take(pair_of)
        if i == last:
            break  # no later mode reads the prefixes
        # The row step's walks come in row order within a prefix, so
        # grouping their (walk, row) pairs by prefix puts them in (prefix,
        # row) order: the next mode's prefixes.
        kept = walk_prefix[parent]
        order, prefix, _ = _children(pair_of, kept, H_prefix.shape[0])
        H_prefix = H_prefix[kept[order]] * U[rows[order]]

    if hop:
        words *= R
        words += N + 2
        _route_meter(ledger, round_id, route[:-1], route[1:], words, P)
    return SampleBatch(X, prob, owner=route[hop].astype(np.int64))
