"""One MTTKRP kernel, for a view of the local nonzeros and for a sketch.

The kernel accumulates into disjoint contiguous output row blocks, one
per worker, so multi-threaded results are bit-identical to the serial
ones (no atomics, no data races).  Within a block, the view's row layout
is streamed in contiguous chunks that never split a row, keeping each
output row's accumulation order fixed regardless of worker count.  Each
call first forms the partial Khatri-Rao row of every distinct off-mode
index prefix once, from the view's prefix table, so an entry costs two
factor-row gathers rather than N - 1 and reads its last off-mode index,
prefix id and value from slices of the layout.  The sampled MTTKRP runs
it on the sketched submatrix mat(T, k) S^T, which extraction returns as
a two-mode ``Matricization`` with its row layout in place, so there is
no separate sparse transpose and no second sort.  A view spans its
whole mode, so one call serves every simulated rank and returns the
dense (I_j, R) rows.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import grid as gridmod
from .matricization import Matricization

_CHUNK_NNZ = 1 << 12


def _concat_ranges(lo, hi):
    """Concatenate [lo[i], hi[i]) ranges into one index vector; also returns their lengths."""
    counts = hi - lo
    starts = np.cumsum(counts) - counts
    return np.arange(int(counts.sum()), dtype=np.int64) + np.repeat(lo - starts, counts), counts


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


def _accumulate_rows(out, row_ptr, make_rows, ra, rb):
    """Sum per-entry row contributions into out[ra:rb] in row order.

    Each chunk takes whole rows greedily up to ``_CHUNK_NNZ`` entries (a
    longer row forms a chunk of its own), so a row's entries are summed
    by one ``reduceat`` segment whatever the chunk size.  A chunk's end
    is one binary search, so Python work grows with the number of
    chunks, not rows.  ``make_rows(lo, hi)`` gives the contributions of
    row-layout positions lo..hi-1.
    """
    ends = row_ptr[:rb + 1]
    r = ra
    while r < rb:
        lo = int(row_ptr[r])
        r_end = int(np.searchsorted(ends, lo + _CHUNK_NNZ, side="right")) - 1
        r_end = min(max(r_end, r + 1), rb)
        hi = int(row_ptr[r_end])
        if hi > lo:
            contrib = make_rows(lo, hi)
            rows = np.flatnonzero(np.diff(row_ptr[r:r_end + 1]))
            out[r + rows] = np.add.reduceat(contrib, row_ptr[r + rows] - lo, axis=0)
        r = r_end


def mttkrp_exact(mat: Matricization, factors, workers=1):
    """Exact MTTKRP: out[i, :] sums v * hadamard of factor rows over the
    entries of mode row i, for every row of the view's mode.

    ``factors[i]`` is mode i's factor matrix, read by global row; the
    entry for ``mat.mode`` is ignored.  The rows of each distinct prefix
    of the off modes (``mat.prefixes``) are multiplied once per call,
    level by level; an entry then takes its deepest prefix's row times
    the last off mode's row times v, each read from the view's row layout
    in the order it is summed.  Every entry thus gets the
    ascending-mode products of a per-entry evaluation, bit for bit.
    """
    j = mat.mode
    off = [i for i in range(len(mat.dims)) if i != j]
    for i in off:
        if factors[i] is None:
            raise ValueError("mode-%d factor is missing" % i)
        if factors[i].shape[0] < mat.dims[i]:
            raise ValueError("mode-%d rows [0, %d) not covered by a %d-row factor"
                             % (i, mat.dims[i], factors[i].shape[0]))
    out = np.zeros((mat.n_rows, factors[off[0]].shape[1]))
    if mat.nnz == 0:
        return out

    # Prefix rows, shared read-only by the threads: pre_d = pre_{d-1}[parent] * U[index].
    levels, leaf = mat.prefixes
    row_ptr, last_idx, vals = mat.row_ptr, mat.row_last, mat.row_vals
    pre = None
    for i, (parent, index) in zip(off, levels):
        rows = factors[i].take(index, axis=0)
        pre = rows if pre is None else np.multiply(pre.take(parent, axis=0), rows, out=rows)
    last = factors[off[-1]]

    def make_rows(lo, hi):
        prod = last.take(last_idx[lo:hi], axis=0)
        if pre is not None:
            prod *= pre.take(leaf[lo:hi], axis=0)
        prod *= vals[lo:hi, None]
        return prod

    # One thread per nnz-balanced row block; the blocks' rows are disjoint.
    blocks = _row_blocks(row_ptr, workers)
    if len(blocks) == 1:
        _accumulate_rows(out, row_ptr, make_rows, *blocks[0])
        return out
    with ThreadPoolExecutor(max_workers=len(blocks)) as pool:
        futs = [pool.submit(_accumulate_rows, out, row_ptr, make_rows, ra, rb)
                for ra, rb in blocks]
        for f in futs:
            f.result()
    return out


def gather_sampled_nonzeros_to_csr(mat: Matricization, X, k, weights=None) -> Matricization:
    """The sketched submatrix: mat(T, k) columns hit by the sample tuples.

    X is the (J, N) sample index matrix; column k is ignored, and another
    index outside its dimension raises BoundsError.  One lookup finds
    every column.  Returns a two-mode ``Matricization`` of shape
    (dims[k], J): mode 0 holds an entry's global row, mode 1 the row s of
    X that hit it (one column per copy of a repeated tuple), and the value
    carries ``weights[s]`` when weights are given.  Entries come in CSR
    order, by row and then by column, and the result holds them as its
    row layout.
    """
    if mat.mode != k:
        raise ValueError("matricization is for mode %d, expected %d" % (mat.mode, k))
    J = len(X)
    pos, counts = _concat_ranges(*mat.lookup_columns(X))
    entry = mat.col_order[pos]
    cols = np.repeat(np.arange(J, dtype=np.int64), counts)
    rows = mat.idx[entry, k]
    order = gridmod.stable_argsort(rows, mat.dims[k])
    entry, cols, rows = entry[order], cols[order], rows[order]
    row_ptr = np.searchsorted(rows, np.arange(mat.dims[k] + 1))
    vals = mat.vals[entry]
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (J,):
            raise ValueError("weights do not match the %d sampled columns" % J)
        vals *= weights[cols]  # a fresh gather, so in place
    return Matricization.sorted_by_row(mat.dims[k], J, rows, cols, vals, row_ptr)


def downsampled_mttkrp(sub: Matricization, HW, workers=1):
    """out[i, :] = sum_s sub[i, s] * HW[s, :]: the exact kernel on the
    sketched submatrix and the design rows of its columns.  When both carry
    the sampling weight once, each term carries weight squared."""
    HW = np.asarray(HW, dtype=np.float64)
    if HW.shape[0] != sub.dims[1]:
        raise ValueError("HW does not match the %d sampled columns" % sub.dims[1])
    return mttkrp_exact(sub, [None, HW], workers=workers)
