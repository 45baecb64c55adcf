"""Simulated N-dimensional processor grid and metered collectives.

Ranks are arranged in a hypercube of dimensions P_1 x ... x P_N.  Each
mode j is split into P_j contiguous index chunks; the ranks sharing
chunk c of mode j (the mode-j slice group) subdivide that chunk's factor
rows among themselves, so factor ownership is aligned with the tensor
partition.  ``slice_groups[j]`` is the (P_j, P/P_j) table of rank ids
whose row c is the group of chunk c.

Collectives operate on explicit per-member payload lists (the simulation
is bulk-synchronous: ranks compute independently between collectives and
the orchestrator invokes each collective once per group).  Each one is a
numpy operation plus one ``meter`` call, and ``meter`` holds the whole
cost model: words (64-bit units) and messages received per member, under
ring allgather / reduce-scatter and bidirectional-exchange allreduce
(Chan et al., CCPE 2007).  Samplers and schedules that move data without
materializing it call ``meter`` directly with the same model; an exchange
within every slice group of a mode is one call over the mode's table.
"""

import numpy as np

ALLGATHER = "allgather"
REDUCE_SCATTER = "reduce_scatter"
ALLREDUCE = "allreduce"
ALL_TO_ALLV = "all_to_allv"

KINDS = (ALLGATHER, REDUCE_SCATTER, ALLREDUCE, ALL_TO_ALLV)


def balanced_offsets(n, parts):
    """Offsets splitting range(n) into ``parts`` near-equal contiguous blocks;
    an array of sizes ``n`` gets its offsets along a new last axis."""
    base, extra = np.divmod(np.asarray(n, dtype=np.int64)[..., None], parts)
    m = np.arange(parts + 1, dtype=np.int64)
    return m * base + np.minimum(m, extra)


class ProcessorGrid:
    """Cartesian rank layout plus per-mode chunk and factor-row partitions."""

    def __init__(self, tensor_dims, grid_dims):
        self.tensor_dims = tuple(int(d) for d in tensor_dims)
        self.grid_dims = tuple(int(p) for p in grid_dims)
        if len(self.grid_dims) != len(self.tensor_dims):
            raise ValueError("grid has %d dims, tensor has %d"
                             % (len(self.grid_dims), len(self.tensor_dims)))
        if any(p <= 0 for p in self.grid_dims):
            raise ValueError("grid dims must be positive: %s" % (self.grid_dims,))
        self.P = int(np.prod(self.grid_dims))
        self.N = len(self.grid_dims)
        # Infeasible: a mode has more chunks than indices, so a chunk is empty.
        self.warning = any(p > I for I, p in zip(self.tensor_dims, self.grid_dims))

        self.chunk_offsets = [balanced_offsets(I, Pj)
                              for I, Pj in zip(self.tensor_dims, self.grid_dims)]
        # Row c of slice_groups[j]: the ranks with coord_j == c in rank-id
        # order, which split chunk c's factor rows among themselves in order.
        ranks = np.arange(self.P).reshape(self.grid_dims)
        self.slice_groups = [np.moveaxis(ranks, j, 0).reshape(Pj, -1)
                             for j, Pj in enumerate(self.grid_dims)]
        self._block_lo, self._block_hi = np.zeros((2, self.N, self.P), dtype=np.int64)
        for j, (off, groups) in enumerate(zip(self.chunk_offsets, self.slice_groups)):
            sub = off[:-1, None] + balanced_offsets(np.diff(off), groups.shape[1])
            self._block_lo[j, groups] = sub[:, :-1]
            self._block_hi[j, groups] = sub[:, 1:]

    def block_ranges(self, j):
        return self._block_lo[j], self._block_hi[j]


def stable_argsort(keys, bound):
    """``np.argsort(keys, kind="stable")`` for integer keys in [0, bound).

    Keys below 2^32 are sorted in stable LSD passes over 16-bit digits:
    narrowed to ``uint16`` or smaller, numpy's stable sort is a radix sort.
    Wider keys fall back to ``np.argsort(kind="stable")``.
    """
    keys = np.asarray(keys)
    if bound > 1 << 32:
        return np.argsort(keys, kind="stable")
    if bound <= 1 << 16:
        return np.argsort(keys.astype(np.min_scalar_type(max(bound - 1, 0)), copy=False),
                          kind="stable")
    order = np.argsort((keys & 0xFFFF).astype(np.uint16), kind="stable")
    high = (keys >> 16).astype(np.uint16)
    return order[np.argsort(high[order], kind="stable")]


def group_by_rank(ranks, P):
    """Stable grouping of items by rank: (order, bounds), with the items of
    rank p at ``order[bounds[p]:bounds[p + 1]]`` in their original order."""
    order = stable_argsort(ranks, P)
    bounds = np.zeros(P + 1, dtype=np.int64)
    np.cumsum(np.bincount(ranks, minlength=P), out=bounds[1:])
    return order, bounds


def factorizations(P, N):
    """All ordered factorizations of P into N positive integers."""
    if N == 1:
        yield (P,)
        return
    for d in range(1, P + 1):
        if P % d == 0:
            for rest in factorizations(P // d, N - 1):
                yield (d,) + rest


def optimal_grid(tensor_dims, P) -> ProcessorGrid:
    """Grid minimizing sum_k I_k / P_k over factorizations of P.

    This is the integer version of the continuous optimum
    P_k = I_k * (P / prod_i I_i)^(1/N).  Feasible grids (every P_k <=
    I_k) are preferred; if none exists the best infeasible grid is
    returned; its ``warning`` flag, like any grid's, is derived from the
    dims.  Ties break to the lexicographically smallest dimension tuple.
    """
    if P < 1:
        raise ValueError("P must be >= 1")
    dims = tuple(int(d) for d in tensor_dims)

    def key(fac):
        return (any(p > I for I, p in zip(dims, fac)),
                sum(I / p for I, p in zip(dims, fac)), fac)

    return ProcessorGrid(dims, min(factorizations(P, len(dims)), key=key))


def _words(arr) -> int:
    """Payload size in 64-bit words."""
    a = np.asarray(arr)
    if a.dtype.itemsize != 8:
        raise ValueError("payloads must use 8-byte dtypes, got %s" % a.dtype)
    return int(a.size)


class CommLedger:
    """Per-rank, per-collective tally of messages and 64-bit words received."""

    def __init__(self):
        self._rec = {}  # (round, kind, rank) -> [words, messages]

    def add(self, round_id, kind, rank, words, messages):
        if kind not in KINDS:
            raise ValueError("unknown collective kind %r" % kind)
        cell = self._rec.setdefault((int(round_id), kind, int(rank)), [0, 0])
        cell[0] += int(words)
        cell[1] += int(messages)

    def words(self, kind=None, round_id=None, rank=None) -> int:
        return self._filter_sum(0, kind, round_id, rank)

    def messages(self, kind=None, round_id=None, rank=None) -> int:
        return self._filter_sum(1, kind, round_id, rank)

    def _filter_sum(self, slot, kind, round_id, rank):
        total = 0
        for (r, k, p), cell in self._rec.items():
            if kind is not None and k != kind:
                continue
            if round_id is not None and r != round_id:
                continue
            if rank is not None and p != rank:
                continue
            total += cell[slot]
        return total

    def rounds(self):
        return sorted({r for (r, _, _) in self._rec})

    def per_rank(self, kind, round_id, P):
        words = np.zeros(P, dtype=np.int64)
        msgs = np.zeros(P, dtype=np.int64)
        for (r, k, p), cell in self._rec.items():
            if k == kind and r == round_id:
                words[p] += cell[0]
                msgs[p] += cell[1]
        return words, msgs

    def records(self):
        """Immutable copy of the raw tally, for equality checks."""
        return {key: tuple(cell) for key, cell in self._rec.items()}

    def __eq__(self, other):
        return isinstance(other, CommLedger) and self.records() == other.records()


def ledger_report(ledger: CommLedger, round_id=None, *, P) -> str:
    """Machine-readable ledger summary for a run over P ranks.

    One ``record`` line per (round, collective, rank) plus per-collective
    max/mean aggregates over the P ranks.  ``round_id=None`` reports every
    round.  A record of a rank outside [0, P) raises ValueError, as no
    aggregate would count it.
    """
    outside = [p for (_, _, p) in ledger._rec if not 0 <= p < P]
    if outside:
        raise ValueError("ledger records rank %d, outside a %d-rank run" % (outside[0], P))
    rounds = ledger.rounds() if round_id is None else [round_id]
    lines = []
    for r in rounds:
        for k, p in sorted((k, p) for (rr, k, p) in ledger._rec if rr == r):
            w, m = ledger._rec[(r, k, p)]
            lines.append("record round=%d kind=%s rank=%d words=%d messages=%d"
                         % (r, k, p, w, m))
        for k in KINDS:
            words, msgs = ledger.per_rank(k, r, P)
            lines.append("aggregate round=%d kind=%s words_max=%d words_mean=%.3f "
                         "messages_max=%d messages_mean=%.3f"
                         % (r, k, words.max(), words.sum() / P, msgs.max(), msgs.sum() / P))
    return "\n".join(lines) if lines else "empty ledger"


def meter(ledger, round_id, kind, ranks, member_words):
    """Record one collective over the group ``ranks`` in the ledger.

    ``member_words`` by kind, with q = len(ranks):

    * allgather: the words each member contributes; each member receives
      the others' words in q-1 messages.
    * reduce_scatter: the words of each member's output block w; each
      member receives w*(q-1) words in q-1 messages.
    * allreduce: the size m of the reduced payload; each member receives
      ceil(2m(q-1)/q) words in 2(q-1) messages.
    * all_to_allv: the q x q matrix of words member i sends member j, or
      a stack of such matrices, one per exchange; each member receives
      its off-diagonal column sums, one message per nonzero sender per
      exchange.  Only members that receive something are recorded.

    Except for all_to_allv, ``ranks`` may be a (groups, q) table, one group
    per row (per-member words shaped alike), recorded as one call per row.
    Nothing is recorded without a ledger or for one-member groups.
    """
    ranks = np.asarray(ranks)
    q = ranks.shape[-1]
    if ledger is None or q <= 1:
        return
    messages = q - 1
    if kind == ALLGATHER:
        w = np.asarray(member_words, dtype=np.int64)
        words = w.sum(axis=-1, keepdims=True) - w
    elif kind == REDUCE_SCATTER:
        words = np.asarray(member_words, dtype=np.int64) * (q - 1)
    elif kind == ALLREDUCE:
        words = (2 * int(member_words) * (q - 1) + q - 1) // q  # ceil
        messages = 2 * (q - 1)
    elif kind == ALL_TO_ALLV:
        if ranks.ndim != 1:
            raise ValueError("all_to_allv meters one group per call")
        sent = np.array(member_words, dtype=np.int64).reshape(-1, q, q)
        sent[:, np.arange(q), np.arange(q)] = 0
        messages = np.count_nonzero(sent, axis=1).sum(axis=0)
        members = messages > 0
        ranks, words, messages = ranks[members], sent.sum(axis=(0, 1))[members], messages[members]
    else:
        raise ValueError("unknown collective kind %r" % kind)
    words, messages = (np.broadcast_to(a, ranks.shape).ravel().tolist() for a in (words, messages))
    for rank, w, m in zip(ranks.ravel().tolist(), words, messages):
        ledger.add(round_id, kind, rank, w, m)


def _check_group(ranks, payloads):
    if len(ranks) != len(payloads):
        raise ValueError("group of %d ranks got %d payloads" % (len(ranks), len(payloads)))


def allgather(payloads, ranks, ledger=None, round_id=0):
    """Concatenate per-member blocks in group order; every member gets all."""
    _check_group(ranks, payloads)
    arrays = [np.atleast_1d(np.asarray(p)) for p in payloads]
    meter(ledger, round_id, ALLGATHER, ranks, [_words(a) for a in arrays])
    return np.concatenate(arrays, axis=0) if len(ranks) > 1 else arrays[0]


def reduce_scatter(payloads, out_offsets, ranks, ledger=None, round_id=0):
    """Elementwise-sum the payloads, then split by rank-order row blocks."""
    total = allreduce(payloads, ranks)
    off = np.asarray(out_offsets)
    if off.size != len(ranks) + 1 or off[-1] != total.shape[0]:
        raise ValueError("out_offsets must split the %d rows into %d blocks"
                         % (total.shape[0], len(ranks)))
    outs = [total[int(off[m]):int(off[m + 1])] for m in range(len(ranks))]
    meter(ledger, round_id, REDUCE_SCATTER, ranks, [_words(b) for b in outs])
    return outs


def allreduce(payloads, ranks, ledger=None, round_id=0):
    """Elementwise sum replicated to every member."""
    _check_group(ranks, payloads)
    arrays = [np.asarray(p, dtype=np.float64) for p in payloads]
    shape = arrays[0].shape
    if any(a.shape != shape for a in arrays):
        raise ValueError("payload shapes differ across the group")
    total = arrays[0].copy()
    for a in arrays[1:]:
        total += a
    meter(ledger, round_id, ALLREDUCE, ranks, _words(total))
    return total


def all_to_allv(send, ranks, ledger=None, round_id=0):
    """Personalized exchange: recv[j][i] = send[i][j].

    ``send`` is a q x q nested list; ``send[i][j]`` is the payload member
    i sends to member j (None or empty for nothing).  Metering counts
    only remote traffic, so total words sent equals total received.
    """
    q = len(ranks)
    if len(send) != q or any(len(row) != q for row in send):
        raise ValueError("send matrix must be %d x %d" % (q, q))
    meter(ledger, round_id, ALL_TO_ALLV, ranks,
          [[0 if x is None else _words(x) for x in row] for row in send])
    return [[send[i][j] for i in range(q)] for j in range(q)]


def ts_exact_round_words_total(grid: ProcessorGrid, R: int) -> int:
    """Closed-form total gather+reduce words for one exact tensor-stationary
    round, summed over all ranks: 2 * sum_k (q_k - 1) * I_k * R with
    q_k = P / P_k the mode-k slice group size.  Per rank this averages
    2 * sum_k (I_k / P_k) * R * (1 - 1/q_k)."""
    return 2 * R * sum((grid.P // Pk - 1) * I for I, Pk in zip(grid.tensor_dims, grid.grid_dims))


def as_gather_words_total_per_solve(J, R, N, P) -> int:
    """Closed-form STS accumulator-stationary gather words per mode solve,
    summed over all ranks: only a sample's owner knows its tuple, so its
    row travels with its index and step probability, R+2 words per sample
    per constant mode.  (ARLS-LEV replicates its tuples while sampling, so
    its rows move once per distinct row, which no closed form in J gives.)"""
    return (P - 1) * J * (N - 1) * (R + 2)
