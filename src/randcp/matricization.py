"""Mode-j matricized views of a sparse tensor.

A view holds its local nonzeros once and builds each of two layouts on
first read, the paper's analogues of compressed-sparse-column and
compressed-sparse-row storage:

- the CSC analogue orders the nonzeros by a composite column key (all
  indices except mode j, earlier modes varying fastest) and then by row
  index; column lookups are binary searches over the sorted keys.  Only
  sampled extraction reads it.
- the CSR analogue groups the nonzeros by mode-j row for the kernels that
  accumulate into rows.  Only exact MTTKRP, and so the fit, reads it.

No run reads both layouts of one view, so each view pays for one.

Column keys are mixed-radix encodings in int64 when the off-mode index
space fits; otherwise keys fall back to arbitrary-precision Python
integers (object dtype), which only need to support a total order.
"""

from functools import cached_property

import numpy as np

from . import grid as gridmod
from .tensor import SparseTensorCOO

_INT64_SAFE = 1 << 62


def column_keys(idx, dims, skip):
    """Linearized off-mode key per row of ``idx`` (column ``skip`` ignored).

    Mixed radix over the modes != skip, ascending mode order fastest; int64
    while the key space fits in 2^62, object-dtype Python integers beyond.
    """
    strides, acc = [], 1
    for m, d in enumerate(dims):
        if m != skip:
            strides.append((m, acc))
            acc *= int(d)
    big = acc > _INT64_SAFE
    keys = np.zeros(idx.shape[0], dtype=object if big else np.int64)
    for m, s in strides:
        keys += idx[:, m].astype(object) * s if big else idx[:, m] * np.int64(s)
    return keys


def distinct_keys(keys):
    """Sorted distinct keys, a position holding each, and the inverse map.

    Returns (uniq, where, inverse) with ``keys[where] == uniq`` and
    ``uniq[inverse] == keys``.  Which of several equal positions ``where``
    names is fixed by the input but otherwise unspecified.  That is the
    difference from ``np.unique(keys, return_index=True,
    return_inverse=True)``, which must sort stably to name the first
    position; the unstable sort here runs 2-3.6x faster on 2^14 to 2^16
    int64 keys, and the samplers call this at every tree level.
    """
    order = np.argsort(keys)
    ordered = keys[order]
    head = np.ones(ordered.shape[0], dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    inverse = np.empty(ordered.shape[0], dtype=np.int64)
    inverse[order] = np.cumsum(head) - 1
    return ordered[head], order[head], inverse


class Matricization:
    """Mode-j view of local nonzeros, each layout built on first read.

    Parameters
    ----------
    dims : global mode dimensions
    idx, vals : local nonzero coordinates (global indices) and values
    mode : the matricized mode j
    row_lo, row_hi : the half-open global row range this block covers;
        accumulators over the block have row_hi - row_lo rows.
    """

    def __init__(self, dims, idx, vals, mode, row_lo=0, row_hi=None):
        self.dims = tuple(int(d) for d in dims)
        self.mode = int(mode)
        self.idx = np.ascontiguousarray(idx, dtype=np.int64)
        self.vals = np.ascontiguousarray(vals, dtype=np.float64)
        self.row_lo = int(row_lo)
        self.row_hi = int(self.dims[mode] if row_hi is None else row_hi)

        # Per-mode index range [lo, hi) of the entries, kept for coverage
        # checks; with no entries lo > hi, so every such check passes.  Taken
        # column by column: an axis-0 reduction over the narrow rows measured
        # about 10x slower.
        self.idx_lo = np.array([c.min(initial=np.iinfo(np.int64).max) for c in self.idx.T])
        self.idx_hi = np.array([c.max(initial=-1) for c in self.idx.T]) + 1
        if self.idx_lo[mode] < self.row_lo or self.idx_hi[mode] > self.row_hi:
            raise ValueError("entry rows outside block [%d, %d)" % (self.row_lo, self.row_hi))

    @cached_property
    def _csc(self):
        """(col_order, sorted_keys): entries by (column key, row), the CSC
        analogue.  lexsort orders object keys too."""
        keys = column_keys(self.idx, self.dims, self.mode)
        order = np.lexsort((self.idx[:, self.mode], keys))
        return order, keys[order]

    @cached_property
    def _csr(self):
        """(row_order, row_ptr): entries grouped by block row, the CSR analogue."""
        rel = self.idx[:, self.mode] - self.row_lo
        row_ptr = np.zeros(self.n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(rel, minlength=self.n_rows), out=row_ptr[1:])
        return np.argsort(rel, kind="stable"), row_ptr

    col_order = property(lambda self: self._csc[0])
    sorted_keys = property(lambda self: self._csc[1])
    row_order = property(lambda self: self._csr[0])
    row_ptr = property(lambda self: self._csr[1])

    @property
    def nnz(self):
        return self.vals.size

    @property
    def n_rows(self):
        return self.row_hi - self.row_lo

    def lookup_columns(self, query_keys):
        """Binary-search positions of query column keys.

        Returns (lo, hi): for query q, the nonzeros of that column sit at
        ``col_order[lo[q]:hi[q]]``.  The first call builds the CSC analogue.
        """
        q = np.asarray(query_keys)
        lo = np.searchsorted(self.sorted_keys, q, side="left")
        hi = np.searchsorted(self.sorted_keys, q, side="right")
        return lo, hi


def matricize(t: SparseTensorCOO, mode: int) -> Matricization:
    if not 0 <= mode < t.mode_count:
        raise ValueError("mode %d out of range for %d-mode tensor" % (mode, t.mode_count))
    return Matricization(t.dims, t.idx, t.vals, mode)


class LocalTensorSet:
    """Per-rank, per-mode matricized subsets under one schedule's partition."""

    def __init__(self, schedule, mats):
        self.schedule = schedule
        self.mats = mats  # mats[rank][mode] -> Matricization

    def local(self, rank, mode) -> Matricization:
        return self.mats[rank][mode]

    def stored_nnz(self) -> int:
        """Total nonzeros held across ranks (replication included)."""
        return sum(m.nnz for per_rank in self.mats for m in per_rank)


def partition_to_grid(t: SparseTensorCOO, grid, schedule: str) -> LocalTensorSet:
    """Assign nonzeros to simulated ranks.

    tensor-stationary: each nonzero goes to the unique grid cell whose
    index hyper-rectangle contains it; every rank keeps N matricized
    views of one copy of its local nonzeros.

    accumulator-stationary: one replicated copy per mode, partitioned by
    the mode's factor block rows, so each rank's mode-j copy covers
    exactly its stationary accumulator block.
    """
    if tuple(grid.tensor_dims) != tuple(t.dims):
        raise ValueError("grid built for dims %s, tensor has %s"
                         % (grid.tensor_dims, t.dims))
    if schedule == "tensor-stationary":
        order, bounds = gridmod.group_by_rank(grid.cell_rank(t.idx), grid.P)
        mats = []
        for p in range(grid.P):
            pos = order[bounds[p]:bounds[p + 1]]
            idx, vals = t.idx[pos], t.vals[pos]  # shared by the rank's N views
            coords = grid.coords(p)
            per_mode = []
            for j in range(t.mode_count):
                lo = int(grid.chunk_offsets[j][coords[j]])
                hi = int(grid.chunk_offsets[j][coords[j] + 1])
                per_mode.append(Matricization(t.dims, idx, vals, j, row_lo=lo, row_hi=hi))
            mats.append(per_mode)
        return LocalTensorSet(schedule, mats)

    if schedule == "accumulator-stationary":
        mats = [[None] * t.mode_count for _ in range(grid.P)]
        for j in range(t.mode_count):
            order, bounds = gridmod.group_by_rank(grid.row_owner(j, t.idx[:, j]), grid.P)
            for p in range(grid.P):
                pos = order[bounds[p]:bounds[p + 1]]
                lo, hi = grid.block_range(j, p)
                mats[p][j] = Matricization(t.dims, t.idx[pos], t.vals[pos], j,
                                           row_lo=lo, row_hi=hi)
        return LocalTensorSet(schedule, mats)

    raise ValueError("unknown schedule %r" % schedule)
