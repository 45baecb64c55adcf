"""Mode-j matricized views of a sparse tensor.

A view holds its local nonzeros once and builds each of two layouts on
first read, the paper's analogues of compressed-sparse-column and
compressed-sparse-row storage:

- the CSC analogue orders the nonzeros by off-mode column (all indices
  except mode j, earlier modes varying fastest) and then by row index.
  Its columns form a compressed-sparse-fiber tree whose levels are int64
  words of indices bit-packed by ``tensor.pack_word``, each level after
  the first below its prefix's id one level up (``column_levels``), so a
  column lookup is one binary search per level.  It holds the entry
  order in the narrowest unsigned dtype.  Only sampled extraction reads
  it.
- the CSR analogue stores, in row order, what the exact MTTKRP streams:
  each entry's last off-mode index, its deepest prefix id and its value,
  with the row pointers.  With it comes the table of the distinct
  off-mode index prefixes, the levels of a compressed-sparse-fiber tree,
  so the kernel forms each prefix's partial Khatri-Rao row once, not once
  per nonzero.  Only exact MTTKRP, and so the fit, reads it.  It holds
  the values a second time (8 bytes per entry) and the two index arrays
  in their narrowest unsigned dtype.  Extraction hands the sketched
  submatrix, already in row order, its row layout.

A view pays only for the layouts its run reads.  Sampled solves read
the CSC analogue and exact solves the CSR analogue; a sampled run with
fits reads both on the last-mode view, whose exact MTTKRP is the fit's.

A view spans every row of its mode and references the nonzeros it is
given without copying them.  A partition keeps one view per mode over
the tensor's own ``idx`` and ``vals``, so one column search or one
kernel call serves every simulated rank; the grid and schedule enter
only the communication ledger.
"""

from functools import cached_property

import numpy as np

from . import grid as gridmod
from .tensor import SparseTensorCOO, check_columns, pack_word, plan_words


def column_keys(idx, dims, skip):
    """Dense Khatri-Rao row index of each row of ``idx``: the mixed-radix
    key over the modes != skip, ascending mode order fastest.  Raises
    ValueError when the off-mode index space does not fit int64."""
    off = [m for m in reversed(range(len(dims))) if m != skip]
    return np.ravel_multi_index(idx[:, off].T, [dims[m] for m in off])


def column_levels(X, dims, skip, rows=None):
    """Sort index tuples by off-mode column, one int64 word per level: the
    modes != skip bit-packed in descending mode order (``plan_words``),
    below the prefix's id one level up, which gets the bits of (tuple
    count - 1).  Codes sort as ``column_keys`` do.  Returns (plan, codes,
    ids, order, ptr): each level's fields and sorted distinct codes, each
    tuple's column id (its index in ``codes[-1]``), and the tuples in
    column order, column c holding ``order[ptr[c]:ptr[c + 1]]``.  Given
    ``rows``, one integer per tuple, a column's tuples are in ``rows``
    order and then in input order; without, their order is unspecified.
    A level is one sort of its words, packed in place; its codes and ids
    come from the sorted words' run heads."""
    X = check_columns(X, dims, skip)
    n = X.shape[0]
    plan = plan_words([(m, max(int(dims[m]) - 1, 0).bit_length())
                       for m in reversed(range(len(dims))) if m != skip],
                      reserve=max(n - 1, 0).bit_length())
    codes, ids = [], None
    for word in plan:
        # ids is the previous level's, this function's own array.
        key = pack_word(X, word, high=ids)
        # Without rows (the draws' merge), numpy's fastest sort, an unstable one.
        order = np.argsort(key) if rows is None else np.lexsort((rows, key))
        key = key.take(order)
        head = np.empty(n, dtype=bool)
        head[:1] = True
        np.not_equal(key[1:], key[:-1], out=head[1:])
        codes.append(key[head])
        np.cumsum(head, out=key)
        key -= 1
        ids = np.empty_like(key)
        ids[order] = key
        del key
    return plan, codes, ids, order, np.append(np.flatnonzero(head), n)


def _prefix_table(idx, modes):
    """The distinct prefixes of the entries' index tuples over ``modes``,
    level by level: a compressed-sparse-fiber tree without its row level.

    Returns (levels, leaf).  ``levels[d - 1]`` is (parent, index) for the
    distinct tuples of the first d modes: ``parent`` holds each one's
    depth d - 1 prefix id (None at depth 1) and ``index`` its
    ``modes[d - 1]`` index.  ``leaf[e]`` is entry e's deepest prefix id,
    None without modes.  Ids follow the prefixes' lexicographic order.
    One lexsort and run heads group the tuples, so no key is packed and
    indices anywhere in int64's range are safe.
    """
    if not modes:
        return (), None
    cols = [idx[:, m] for m in modes]
    order = np.lexsort(cols[::-1])
    head = np.zeros(idx.shape[0], dtype=bool)  # a prefix's first entry at this depth
    head[:1] = True
    levels, ids = [], None
    for c in cols:
        c = c[order]
        head[1:] |= c[1:] != c[:-1]
        at = np.flatnonzero(head)
        levels.append((None if ids is None else ids[at], c[at]))
        ids = np.cumsum(head) - 1
    leaf = np.empty_like(ids)
    leaf[order] = ids
    return tuple(levels), leaf


def _narrow(a, bound):
    """``a``, whose values lie in [0, bound), in the narrowest unsigned dtype."""
    return a.astype(np.min_scalar_type(max(int(bound) - 1, 0)))


class Matricization:
    """Mode-j view of nonzeros over all dims[j] rows of the mode, each
    layout built on first read; accumulators over it have dims[j] rows.

    Parameters
    ----------
    dims : global mode dimensions
    idx, vals : nonzero coordinates (global indices, each below its
        mode's dimension) and values, not copied when already int64 and
        float64 C arrays
    mode : the matricized mode j
    """

    def __init__(self, dims, idx, vals, mode):
        self.dims = tuple(int(d) for d in dims)
        self.mode = int(mode)
        self.idx = np.ascontiguousarray(idx, dtype=np.int64)
        self.vals = np.ascontiguousarray(vals, dtype=np.float64)
        rows = self.idx[:, self.mode]
        if ((rows < 0) | (rows >= self.n_rows)).any():
            raise ValueError("entry rows outside [0, %d)" % self.n_rows)

    @cached_property
    def _csc(self):
        """(col_order, plan, codes, col_ptr): entries by (column, row), the
        CSC analogue; column c holds ``col_order[col_ptr[c]:col_ptr[c + 1]]``,
        ``col_order`` in the narrowest unsigned dtype."""
        rows = _narrow(self.idx[:, self.mode], self.n_rows)  # lexsort radix-sorts 16-bit keys
        plan, codes, _, order, col_ptr = column_levels(self.idx, self.dims, self.mode, rows)
        return _narrow(order, self.nnz), plan, codes, col_ptr

    @cached_property
    def _csr(self):
        """(row_ptr, levels, last, leaf, vals): the CSR analogue.  Row r
        holds positions ``row_ptr[r]:row_ptr[r + 1]``, entries of a row in
        tensor order; position p holds an entry's last off-mode index
        ``last[p]``, its deepest prefix id ``leaf[p]`` and its value
        ``vals[p]``.  ``levels`` and the ids are ``_prefix_table`` over
        every off mode but the last.  ``last`` and ``leaf`` take the
        narrowest unsigned dtype that holds them, as a gather reads them
        no slower than int64, so an off-mode index outside its dimension
        raises BoundsError, as in the CSC analogue."""
        check_columns(self.idx, self.dims, self.mode)
        off = [m for m in range(len(self.dims)) if m != self.mode]
        levels, leaf = _prefix_table(self.idx, off[:-1])
        order, row_ptr = gridmod.group_by_rank(self.idx[:, self.mode], self.n_rows)
        last = _narrow(self.idx[order, off[-1]], self.dims[off[-1]])
        if leaf is not None:
            leaf = _narrow(leaf.take(order), levels[-1][1].size)
        return row_ptr, levels, last, leaf, self.vals.take(order)

    @classmethod
    def sorted_by_row(cls, n_rows, n_cols, rows, cols, vals, row_ptr):
        """The two-mode (n_rows, n_cols) view of entries (rows[e], cols[e])
        held in row order, ``row_ptr`` their row bounds; its row layout is
        ``cols``, ``vals`` and ``row_ptr`` as given, so no kernel sorts it."""
        m = cls((n_rows, n_cols), np.column_stack((rows, cols)), vals, 0)
        m._csr = (row_ptr, (), cols, None, m.vals)
        return m

    col_order = property(lambda self: self._csc[0])
    row_ptr = property(lambda self: self._csr[0])
    prefixes = property(lambda self: (self._csr[1], self._csr[3]))
    row_last = property(lambda self: self._csr[2])
    row_vals = property(lambda self: self._csr[4])

    @property
    def nnz(self):
        return self.vals.size

    @property
    def n_rows(self):
        return self.dims[self.mode]

    def lookup_columns(self, X):
        """(lo, hi): the off-mode column of index tuple X[q] (column ``mode``
        ignored) holds ``col_order[lo[q]:hi[q]]``.  A code per level, below
        the position its prefix found one level up, is binary-searched; an
        index outside its dimension raises BoundsError.  The first call
        builds the CSC analogue.
        """
        X = check_columns(X, self.dims, self.mode)
        if not self.nnz:
            return np.zeros((2, X.shape[0]), dtype=np.int64)
        _, plan, codes, col_ptr = self._csc
        pos, hit = None, True
        for word, c in zip(plan, codes):
            q = pack_word(X, word, high=pos)
            pos = np.minimum(np.searchsorted(c, q), c.size - 1)
            hit = hit & (c[pos] == q)
        lo = col_ptr[pos]
        return lo, np.where(hit, col_ptr[pos + 1], lo)


def matricize(t: SparseTensorCOO, mode: int) -> Matricization:
    if not 0 <= mode < t.mode_count:
        raise ValueError("mode %d out of range for %d-mode tensor" % (mode, t.mode_count))
    return Matricization(t.dims, t.idx, t.vals, mode)


class LocalTensorSet:
    """Every rank's nonzeros under one schedule's partition: one view per mode."""

    def __init__(self, schedule, views):
        self.schedule = schedule
        self.views = views  # views[mode] -> whole-mode Matricization

    def stored_nnz(self) -> int:
        """Nonzeros stored across ranks in the paper's storage model, each
        stored copy counted once: the tensor-stationary views share one
        copy, while accumulator-stationary stores one replica per mode.
        The simulation itself holds the tensor's one copy under both."""
        if self.schedule == "tensor-stationary":
            return self.views[0].nnz
        return sum(m.nnz for m in self.views)


def partition_to_grid(t: SparseTensorCOO, grid, schedule: str) -> LocalTensorSet:
    """The N mode views of ``t`` under a schedule on ``grid``.

    Each view references ``t.idx`` and ``t.vals`` and spans its whole
    mode.  Which rank holds a nonzero (its grid cell under
    tensor-stationary, its mode's factor block under
    accumulator-stationary) changes no result and no ledger record, so
    no view stores it; per-rank counts follow from the factor blocks'
    ``block_sums`` and ``grid.chunk_offsets`` when needed.  The last view
    also serves a sampled run's fit.
    """
    if tuple(grid.tensor_dims) != tuple(t.dims):
        raise ValueError("grid built for dims %s, tensor has %s"
                         % (grid.tensor_dims, t.dims))
    if schedule not in ("tensor-stationary", "accumulator-stationary"):
        raise ValueError("unknown schedule %r" % schedule)
    return LocalTensorSet(schedule, [Matricization(t.dims, t.idx, t.vals, j)
                                     for j in range(t.mode_count)])
