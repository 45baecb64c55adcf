"""Simulated N-dimensional processor grid and metered collectives.

Ranks are arranged in a hypercube of dimensions P_1 x ... x P_N.  Each
mode j is split into P_j contiguous index chunks; the ranks sharing
chunk c of mode j (the mode-j slice group) subdivide that chunk's factor
rows among themselves, so factor ownership is aligned with the tensor
partition.

Collectives operate on explicit per-member payload lists (the simulation
is bulk-synchronous: ranks compute independently between collectives and
the orchestrator invokes each collective once per group).  Every
collective meters words (64-bit units) and messages into a CommLedger
using a ring-equivalent bandwidth model:

  allgather / reduce_scatter of per-rank block v over q ranks:
      words = v*(q-1) per rank, messages = q-1
  allreduce of size m: words = ceil(2*m*(q-1)/q), messages = 2*(q-1)
  all_to_allv: exactly the words each rank receives from other ranks,
      messages = number of distinct non-empty sending peers
"""

import numpy as np

ALLGATHER = "allgather"
REDUCE_SCATTER = "reduce_scatter"
ALLREDUCE = "allreduce"
ALL_TO_ALLV = "all_to_allv"

KINDS = (ALLGATHER, REDUCE_SCATTER, ALLREDUCE, ALL_TO_ALLV)


def balanced_offsets(n, parts):
    """Offsets splitting range(n) into ``parts`` near-equal contiguous blocks."""
    base, extra = divmod(n, parts)
    sizes = np.full(parts, base, dtype=np.int64)
    sizes[:extra] += 1
    off = np.zeros(parts + 1, dtype=np.int64)
    np.cumsum(sizes, out=off[1:])
    return off


class ProcessorGrid:
    """Cartesian rank layout plus per-mode chunk and factor-row partitions."""

    def __init__(self, tensor_dims, grid_dims, warning=False):
        self.tensor_dims = tuple(int(d) for d in tensor_dims)
        self.grid_dims = tuple(int(p) for p in grid_dims)
        if len(self.grid_dims) != len(self.tensor_dims):
            raise ValueError("grid has %d dims, tensor has %d"
                             % (len(self.grid_dims), len(self.tensor_dims)))
        if any(p <= 0 for p in self.grid_dims):
            raise ValueError("grid dims must be positive: %s" % (self.grid_dims,))
        self.P = int(np.prod(self.grid_dims))
        self.N = len(self.grid_dims)
        self.warning = warning

        self._coords = np.stack(np.unravel_index(np.arange(self.P), self.grid_dims), axis=1)
        self._coord_tuples = [tuple(row) for row in self._coords.tolist()]
        self.chunk_offsets = [balanced_offsets(I, Pj)
                              for I, Pj in zip(self.tensor_dims, self.grid_dims)]

        # Factor-row partition: chunk c of mode j is subdivided among the
        # slice group {ranks with coord_j == c}, ordered by rank id.
        self._block_lo = np.zeros((self.N, self.P), dtype=np.int64)
        self._block_hi = np.zeros((self.N, self.P), dtype=np.int64)
        self._slice_groups = []
        for j in range(self.N):
            groups = [np.flatnonzero(self._coords[:, j] == c) for c in range(self.grid_dims[j])]
            self._slice_groups.append(groups)
            for c, members in enumerate(groups):
                lo = int(self.chunk_offsets[j][c])
                hi = int(self.chunk_offsets[j][c + 1])
                sub = balanced_offsets(hi - lo, len(members))
                for m, p in enumerate(members):
                    self._block_lo[j, p] = lo + sub[m]
                    self._block_hi[j, p] = lo + sub[m + 1]

        # Rank ids in global row order per mode (tree leaf order).  Empty
        # blocks sort by their (lo, rank) position; the row-owner lookup
        # skips them so its block ends stay monotone.
        self._row_order = []
        self._owner_his = []
        self._owner_ranks = []
        for j in range(self.N):
            order = np.lexsort((np.arange(self.P), self._block_lo[j]))
            self._row_order.append(order)
            nonempty = order[self._block_hi[j][order] > self._block_lo[j][order]]
            self._owner_his.append(self._block_hi[j][nonempty])
            self._owner_ranks.append(nonempty)

    def coords(self, p):
        return self._coord_tuples[p]

    def rank_of(self, coords):
        return int(np.ravel_multi_index(tuple(coords), self.grid_dims))

    def slice_group(self, j, c):
        """Ranks sharing mode-j chunk c, ordered by rank id."""
        return self._slice_groups[j][c]

    def block_range(self, j, p):
        """Factor row block [lo, hi) of mode j owned by rank p."""
        return int(self._block_lo[j, p]), int(self._block_hi[j, p])

    def block_ranges(self, j):
        return self._block_lo[j], self._block_hi[j]

    def row_order(self, j):
        """Rank ids sorted by their mode-j block position."""
        return self._row_order[j]

    def row_owner(self, j, rows):
        """Owning rank of each global mode-j row (vectorized)."""
        pos = np.searchsorted(self._owner_his[j], np.asarray(rows), side="right")
        return self._owner_ranks[j][pos]

    def chunk_of(self, j, rows):
        return np.searchsorted(self.chunk_offsets[j], np.asarray(rows), side="right") - 1


def group_by_rank(ranks, P):
    """Stable grouping of items by rank: (order, bounds), with the items of
    rank p at ``order[bounds[p]:bounds[p + 1]]`` in their original order.

    Ranks are narrowed to the smallest unsigned dtype holding P, for
    which numpy's stable sort is a radix sort.
    """
    ranks = np.asarray(ranks).astype(np.min_scalar_type(P), copy=False)
    order = np.argsort(ranks, kind="stable")
    bounds = np.searchsorted(ranks[order], np.arange(P + 1))
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
    returned with a warning flag.  Ties break to the lexicographically
    smallest dimension tuple.
    """
    if P < 1:
        raise ValueError("P must be >= 1")
    dims = tuple(int(d) for d in tensor_dims)
    N = len(dims)
    best = None
    best_feasible = None
    for fac in factorizations(P, N):
        cost = sum(I / p for I, p in zip(dims, fac))
        key = (cost, fac)
        if best is None or key < best[0]:
            best = (key, fac)
        if all(p <= I for I, p in zip(dims, fac)):
            if best_feasible is None or key < best_feasible[0]:
                best_feasible = (key, fac)
    if best_feasible is not None:
        return ProcessorGrid(dims, best_feasible[1], warning=False)
    return ProcessorGrid(dims, best[1], warning=True)


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


def ledger_report(ledger: CommLedger, round_id=None, P=None) -> str:
    """Machine-readable ledger summary.

    One ``record`` line per (round, collective, rank) plus per-collective
    max/mean aggregates.  ``round_id=None`` reports every round.
    """
    rounds = ledger.rounds() if round_id is None else [round_id]
    lines = []
    for r in rounds:
        seen = sorted({(k, p) for (rr, k, p) in ledger._rec if rr == r})
        for k, p in seen:
            w, m = ledger._rec[(r, k, p)]
            lines.append("record round=%d kind=%s rank=%d words=%d messages=%d"
                         % (r, k, p, w, m))
        for k in KINDS:
            ranks = [p for (kk, p) in seen if kk == k]
            if P is not None:
                n = P
            else:
                n = (max(ranks) + 1) if ranks else 1
            words = [ledger._rec.get((r, k, p), [0, 0])[0] for p in range(n)]
            msgs = [ledger._rec.get((r, k, p), [0, 0])[1] for p in range(n)]
            lines.append("aggregate round=%d kind=%s words_max=%d words_mean=%.3f "
                         "messages_max=%d messages_mean=%.3f"
                         % (r, k, max(words), sum(words) / n, max(msgs), sum(msgs) / n))
    return "\n".join(lines) if lines else "empty ledger"


def _check_group(ranks, payloads):
    if len(ranks) != len(payloads):
        raise ValueError("group of %d ranks got %d payloads" % (len(ranks), len(payloads)))


def allgather(payloads, ranks, ledger=None, round_id=0):
    """Concatenate per-member blocks in group order; every member gets all."""
    _check_group(ranks, payloads)
    arrays = [np.atleast_1d(np.asarray(p)) for p in payloads]
    q = len(ranks)
    result = np.concatenate(arrays, axis=0) if q > 1 else arrays[0]
    if ledger is not None and q > 1:
        total = sum(_words(a) for a in arrays)
        for rank, a in zip(ranks, arrays):
            ledger.add(round_id, ALLGATHER, rank, total - _words(a), q - 1)
    return result


def reduce_scatter(payloads, out_offsets, ranks, ledger=None, round_id=0):
    """Elementwise-sum the payloads, then split by rank-order row blocks."""
    _check_group(ranks, payloads)
    arrays = [np.asarray(p, dtype=np.float64) for p in payloads]
    shape = arrays[0].shape
    if any(a.shape != shape for a in arrays):
        raise ValueError("reduce_scatter payload shapes differ across the group")
    off = np.asarray(out_offsets)
    if off.size != len(ranks) + 1 or off[-1] != shape[0]:
        raise ValueError("out_offsets must split the %d rows into %d blocks"
                         % (shape[0], len(ranks)))
    total = arrays[0].copy()
    for a in arrays[1:]:
        total += a
    q = len(ranks)
    outs = []
    for m, rank in enumerate(ranks):
        block = total[int(off[m]):int(off[m + 1])]
        outs.append(block)
        if ledger is not None and q > 1:
            ledger.add(round_id, REDUCE_SCATTER, rank, _words(block) * (q - 1), q - 1)
    return outs


def allreduce(payloads, ranks, ledger=None, round_id=0):
    """Elementwise sum replicated to every member."""
    _check_group(ranks, payloads)
    arrays = [np.asarray(p, dtype=np.float64) for p in payloads]
    shape = arrays[0].shape
    if any(a.shape != shape for a in arrays):
        raise ValueError("allreduce payload shapes differ across the group")
    total = arrays[0].copy()
    for a in arrays[1:]:
        total += a
    q = len(ranks)
    if ledger is not None and q > 1:
        m = _words(total)
        words = (2 * m * (q - 1) + q - 1) // q  # bidirectional exchange, ceil
        for rank in ranks:
            ledger.add(round_id, ALLREDUCE, rank, words, 2 * (q - 1))
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
    recv = [[send[i][j] for i in range(q)] for j in range(q)]
    if ledger is not None:
        for j, rank in enumerate(ranks):
            words = 0
            peers = 0
            for i in range(q):
                if i == j:
                    continue
                payload = send[i][j]
                if payload is None:
                    continue
                w = _words(payload)
                if w:
                    words += w
                    peers += 1
            ledger.add(round_id, ALL_TO_ALLV, rank, words, peers)
    return recv


def collective(kind, payloads, ranks, ledger=None, round_id=0, out_offsets=None):
    """Single entry point over the four collectives.

    ``payloads`` is the per-member list (for all_to_allv, the q x q send
    matrix); ``out_offsets`` is required for reduce_scatter.  Each group
    member appears exactly once in ``ranks``, so double invocation within
    a phase is structurally impossible.
    """
    if kind == ALLGATHER:
        return allgather(payloads, ranks, ledger=ledger, round_id=round_id)
    if kind == REDUCE_SCATTER:
        if out_offsets is None:
            raise ValueError("reduce_scatter needs out_offsets")
        return reduce_scatter(payloads, out_offsets, ranks, ledger=ledger,
                              round_id=round_id)
    if kind == ALLREDUCE:
        return allreduce(payloads, ranks, ledger=ledger, round_id=round_id)
    if kind == ALL_TO_ALLV:
        return all_to_allv(payloads, ranks, ledger=ledger, round_id=round_id)
    raise ValueError("unknown collective kind %r" % kind)


def ts_exact_round_words_total(grid: ProcessorGrid, R: int) -> int:
    """Closed-form total gather+reduce words for one exact tensor-stationary
    round, summed over all ranks: 2 * sum_k (q_k - 1) * I_k * R with
    q_k = P / P_k the mode-k slice group size.  Per rank this averages
    2 * sum_k (I_k / P_k) * R * (1 - 1/q_k)."""
    total = 0
    for I, Pk in zip(grid.tensor_dims, grid.grid_dims):
        q = grid.P // Pk
        total += (q - 1) * I * R
    return 2 * total


def as_gather_words_total_per_solve(J, R, N, P, sampler) -> int:
    """Closed-form accumulator-stationary gather words per mode solve,
    summed over all ranks.  STS routes indices and step probabilities with
    the rows (R+2 words per sample per constant mode); CP-ARLS-LEV
    replicated them during sampling so only rows move (R words)."""
    per_sample = (R + 2) if sampler == "sts" else R
    return (P - 1) * J * (N - 1) * per_sample
