"""Exact and downsampled MTTKRP kernels.

Both kernels accumulate into disjoint contiguous output row blocks, one
per worker, so multi-threaded results are bit-identical to the serial
ones (no atomics, no data races).  Within a block, entries are consumed
in compressed-row order through chunks that never split a row, keeping
each output row's accumulation order fixed regardless of worker count.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .matricization import Matricization, column_keys

_CHUNK_NNZ = 1 << 18


def _concat_ranges(lo, hi):
    """Concatenate [lo[i], hi[i]) ranges into one index vector."""
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), counts
    shifts = np.zeros(len(lo), dtype=np.int64)
    np.cumsum(counts[:-1], out=shifts[1:])
    out = np.arange(total, dtype=np.int64) + np.repeat(lo - shifts, counts)
    return out, counts


def _row_blocks(row_ptr, workers):
    """Split rows into ``workers`` contiguous blocks with balanced nnz."""
    n_rows = len(row_ptr) - 1
    workers = max(1, min(int(workers), n_rows if n_rows else 1))
    if workers == 1:
        return [(0, n_rows)]
    total = int(row_ptr[-1])
    targets = [(w * total) // workers for w in range(1, workers)]
    cuts = np.searchsorted(row_ptr, targets, side="left")
    bounds = [0] + [int(c) for c in cuts] + [n_rows]
    return [(bounds[i], bounds[i + 1]) for i in range(workers) if bounds[i] < bounds[i + 1]]


def _accumulate_rows(out, row_ptr, order, make_rows, ra, rb):
    """Sum per-entry row contributions into out[ra:rb] in row order.

    Each chunk takes whole rows greedily up to ``_CHUNK_NNZ`` entries (a
    longer row forms a chunk of its own), so a row's entries are summed
    by one ``reduceat`` segment whatever the chunk size.  A chunk's end
    is one binary search, so Python work grows with the number of
    chunks, not rows.  ``order`` maps compressed-row positions to entries;
    None means the entries are stored in that order.
    """
    ends = row_ptr[:rb + 1]
    r = ra
    while r < rb:
        lo = int(row_ptr[r])
        r_end = int(np.searchsorted(ends, lo + _CHUNK_NNZ, side="right")) - 1
        r_end = min(max(r_end, r + 1), rb)
        hi = int(row_ptr[r_end])
        if hi > lo:
            contrib = make_rows(slice(lo, hi) if order is None else order[lo:hi])
            rows = np.flatnonzero(np.diff(row_ptr[r:r_end + 1]))
            out[r + rows] = np.add.reduceat(contrib, row_ptr[r + rows] - lo, axis=0)
        r = r_end


def _accumulate(out, row_ptr, order, make_rows, workers):
    """Fill ``out`` by ``_accumulate_rows`` over nnz-balanced row blocks,
    one thread per block."""
    blocks = _row_blocks(row_ptr, workers)
    if len(blocks) == 1:
        _accumulate_rows(out, row_ptr, order, make_rows, *blocks[0])
        return out
    with ThreadPoolExecutor(max_workers=len(blocks)) as pool:
        futs = [pool.submit(_accumulate_rows, out, row_ptr, order, make_rows, ra, rb)
                for ra, rb in blocks]
        for f in futs:
            f.result()
    return out


def mttkrp_exact(mat: Matricization, factors, offsets=None, workers=1):
    """Exact local MTTKRP: out[i_j - row_lo, :] += v * hadamard of factor rows.

    ``factors[i]`` holds the rows of mode i needed by this block's
    entries; ``offsets[i]`` is the global index of its first row (0 for
    full matrices).  The entry for ``mat.mode`` is ignored.
    """
    j = mat.mode
    R = next(f.shape[1] for i, f in enumerate(factors) if i != j and f is not None)
    if offsets is None:
        offsets = [0] * len(factors)
    for i, f in enumerate(factors):
        if i == j or f is None:
            continue
        lo_need = mat.idx[:, i].min(initial=offsets[i])
        hi_need = mat.idx[:, i].max(initial=offsets[i] - 1) + 1
        if lo_need < offsets[i] or hi_need > offsets[i] + f.shape[0]:
            raise ValueError("mode-%d rows [%d, %d) not covered by gathered block"
                             % (i, lo_need, hi_need))
    out = np.zeros((mat.n_rows, R))
    if mat.nnz == 0:
        return out

    def make_rows(sel):
        prod = None
        for i, f in enumerate(factors):
            if i == j or f is None:
                continue
            rows = f.take(mat.idx[sel, i] - offsets[i], axis=0)
            prod = rows if prod is None else prod.__imul__(rows)
        prod *= mat.vals[sel, None]
        return prod

    return _accumulate(out, mat.row_ptr, mat.row_order, make_rows, workers)


class SampledCsr:
    """Row-compressed matrix of the tensor nonzeros hit by a sample batch.

    Rows are local mode-k indices (relative to the block's row_lo),
    columns index the rows of the sample matrix X it was extracted for.
    Solves pass the distinct sampled columns, so each tensor column
    appears once however often it was drawn; a caller that passes a
    repeated tuple gets one CSR column per copy.
    """

    def __init__(self, row_ptr, col_idx, vals, n_rows, n_cols):
        self.row_ptr = row_ptr
        self.col_idx = col_idx
        self.vals = vals
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)

    @property
    def nnz(self):
        return self.vals.size


def gather_sampled_nonzeros_to_csr(mat: Matricization, X, k, keys=None) -> SampledCsr:
    """Select mat(T, k) columns hit by the sample tuples and transpose to CSR.

    X is the (J, N) sample index matrix; column k is ignored.  ``keys``
    are X's column keys when the caller already holds them: a solve
    computes its sorted distinct keys once and hands them to every rank,
    whose searches then sweep forward.  Nonzeros are located by binary
    search over the column-sorted order, then remapped to a
    row-compressed layout by a stable counting sort on the row index (the
    "sparse transpose").
    """
    if mat.mode != k:
        raise ValueError("matricization is for mode %d, expected %d" % (mat.mode, k))
    X = np.asarray(X)
    J = X.shape[0]
    if keys is None:
        keys = column_keys(X.astype(np.int64), mat.dims, k)
    lo, hi = mat.lookup_columns(keys)
    pos, counts = _concat_ranges(lo, hi)
    entry = mat.col_order[pos]
    rows = mat.idx[entry, k] - mat.row_lo
    cols = np.repeat(np.arange(J, dtype=np.int64), counts)
    vals = mat.vals[entry]

    order = np.argsort(rows, kind="stable")  # radix sort: the counting-sort pass
    rows = rows[order]
    row_ptr = np.zeros(mat.n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=mat.n_rows), out=row_ptr[1:])
    return SampledCsr(row_ptr, cols[order], vals[order], mat.n_rows, J)


def downsampled_mttkrp(csr: SampledCsr, H_rows, weights, workers=1):
    """out[i, :] = sum_s (w_s * csr[i, s]) * (w_s * H_rows[s, :]).

    Both the sampled tensor values and the sampled design rows carry the
    sampling weight once, so each term carries weight squared.
    """
    H_rows = np.asarray(H_rows, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if H_rows.shape[0] != csr.n_cols or weights.shape != (csr.n_cols,):
        raise ValueError("H_rows/weights do not match the %d sampled columns" % csr.n_cols)
    R = H_rows.shape[1]
    out = np.zeros((csr.n_rows, R))
    if csr.nnz == 0:
        return out

    def make_rows(sel):
        # Weighs only the design rows this block's nonzeros touch.
        s = csr.col_idx[sel]
        contrib = H_rows.take(s, axis=0) * weights[s, None]
        contrib *= (csr.vals[sel] * weights[s])[:, None]
        return contrib

    return _accumulate(out, csr.row_ptr, None, make_rows, workers)  # vals in CSR order
