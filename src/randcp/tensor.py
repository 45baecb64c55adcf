"""Sparse tensor ingestion and preprocessing.

Tensors are plain coordinate lists: an (nnz x N) integer index matrix
plus a value vector.  FROSTT ``.tns`` files are 1-based on disk and
converted to 0-based here.  Duplicate coordinates are summed at
ingestion, after which index tuples are unique.
"""

import numpy as np

from . import rng


class ParseError(ValueError):
    """Malformed tensor text input."""


class BoundsError(ValueError):
    """Index outside the declared mode dimensions."""


class SparseTensorCOO:
    """N-mode sparse tensor as (index tuple, value) records.

    Parameters
    ----------
    dims : sequence of int
        Mode dimensions I_1..I_N, N >= 3.
    idx : (nnz, N) integer array
        0-based coordinates of the nonzero entries.
    vals : (nnz,) float array
        Entry values.  Explicit zeros are kept; nothing is filtered.
    """

    __slots__ = ("dims", "idx", "vals")

    def __init__(self, dims, idx, vals, validate=True):
        self.dims = tuple(int(d) for d in dims)
        self.idx = np.ascontiguousarray(idx, dtype=np.int64)
        self.vals = np.ascontiguousarray(vals, dtype=np.float64)
        if validate:
            if len(self.dims) < 3:
                raise ValueError("tensor needs at least 3 modes, got %d" % len(self.dims))
            if any(d <= 0 for d in self.dims):
                raise ValueError("mode dimensions must be positive: %s" % (self.dims,))
            if self.idx.ndim != 2 or self.idx.shape[1] != len(self.dims):
                raise ValueError("index matrix shape %s does not match %d modes"
                                 % (self.idx.shape, len(self.dims)))
            if self.vals.shape != (self.idx.shape[0],):
                raise ValueError("value count %d != index row count %d"
                                 % (self.vals.size, self.idx.shape[0]))
            if self.idx.size and (self.idx.min() < 0 or (self.idx >= np.array(self.dims)).any()):
                raise BoundsError("tensor index out of bounds for dims %s" % (self.dims,))

    @property
    def mode_count(self):
        return len(self.dims)

    @property
    def nnz(self):
        return self.vals.size

    def norm_squared(self) -> float:
        return float(np.dot(self.vals, self.vals))

    def canonical(self):
        """Entries in lexicographic index order (for comparisons in tests)."""
        order = np.lexsort(self.idx.T[::-1])
        return self.idx[order], self.vals[order]


def sum_duplicates(idx, vals):
    """Collapse repeated index tuples by summing their values."""
    if idx.shape[0] == 0:
        return idx, vals
    order = np.lexsort(idx.T[::-1])
    idx_s, vals_s = idx[order], vals[order]
    new_run = np.empty(idx_s.shape[0], dtype=bool)
    new_run[0] = True
    new_run[1:] = (idx_s[1:] != idx_s[:-1]).any(axis=1)
    starts = np.flatnonzero(new_run)
    summed = np.add.reduceat(vals_s, starts)
    return np.ascontiguousarray(idx_s[starts]), summed


def load_frostt(path, *, log_transform=False, dedup=True, dims=None) -> SparseTensorCOO:
    """Read a FROSTT ``.tns`` file.

    Each non-comment line holds N 1-based indices followed by a value,
    whitespace separated.  Lines starting with ``#`` are skipped.

    Parameters
    ----------
    log_transform : bool
        Replace each value v by ln(1 + v).
    dedup : bool
        Sum duplicate coordinates (the default; disable only for input
        known to be duplicate-free).
    dims : sequence of int, optional
        Declared mode dimensions.  When given, indices are validated
        against them; otherwise dimensions are inferred from the data.
    """
    with open(path, "r") as fh:
        raw_lines = fh.readlines()
    data_lines = [(i + 1, ln) for i, ln in enumerate(raw_lines)
                  if ln.strip() and not ln.lstrip().startswith("#")]
    if not data_lines:
        raise ParseError("%s: no tensor entries found" % path)

    try:
        table = np.loadtxt((ln for _, ln in data_lines), dtype=np.float64, ndmin=2)
    except ValueError:
        _scan_for_bad_line(path, data_lines)
        raise  # unreachable: the scan raises with a line number

    if table.shape[1] < 4:
        raise ParseError("%s: need at least 3 index columns and a value, got %d columns"
                         % (path, table.shape[1]))
    n_modes = table.shape[1] - 1
    idx_f = table[:, :n_modes]
    idx = idx_f.astype(np.int64)
    if (idx != idx_f).any():
        bad = int(np.flatnonzero((idx != idx_f).any(axis=1))[0])
        raise ParseError("%s: line %d: non-integer index" % (path, data_lines[bad][0]))
    if idx.min() < 1:
        bad = int(np.flatnonzero((idx < 1).any(axis=1))[0])
        raise BoundsError("%s: line %d: indices are 1-based and must be >= 1"
                          % (path, data_lines[bad][0]))
    idx -= 1
    vals = np.ascontiguousarray(table[:, n_modes])

    if dims is not None:
        dims = tuple(int(d) for d in dims)
        if len(dims) != n_modes:
            raise ParseError("%s: file has %d modes but %d dims declared"
                             % (path, n_modes, len(dims)))
        over = idx >= np.array(dims)
        if over.any():
            bad = int(np.flatnonzero(over.any(axis=1))[0])
            raise BoundsError("%s: line %d: index exceeds declared dims %s"
                              % (path, data_lines[bad][0], dims))
    else:
        dims = tuple(int(m) + 1 for m in idx.max(axis=0))

    if dedup:
        idx, vals = sum_duplicates(idx, vals)
    if log_transform:
        vals = np.log1p(vals)
    return SparseTensorCOO(dims, idx, vals)


def _scan_for_bad_line(path, data_lines):
    """Locate the first unparseable line and raise with its number."""
    width = None
    for lineno, ln in data_lines:
        toks = ln.split()
        if width is None:
            width = len(toks)
        if len(toks) != width:
            raise ParseError("%s: line %d: expected %d fields, got %d"
                             % (path, lineno, width, len(toks)))
        for t in toks:
            try:
                float(t)
            except ValueError:
                raise ParseError("%s: line %d: cannot parse %r" % (path, lineno, t)) from None
    raise ParseError("%s: unparseable input" % path)


class ModePermutations:
    """One bijection per mode, recorded so factors can be un-permuted."""

    def __init__(self, perms):
        self.perms = [np.ascontiguousarray(p, dtype=np.int64) for p in perms]

    @classmethod
    def identity(cls, dims):
        return cls([np.arange(d, dtype=np.int64) for d in dims])

    @classmethod
    def random(cls, dims, seed):
        perms = [rng.stream(seed, rng.TENSOR_PERM, j).permutation(d)
                 for j, d in enumerate(dims)]
        return cls(perms)

    def inverse(self):
        inv = []
        for p in self.perms:
            q = np.empty_like(p)
            q[p] = np.arange(p.size, dtype=np.int64)
            inv.append(q)
        return ModePermutations(inv)

    def unpermute_factor(self, U, mode):
        """Reorder a factor computed in permuted space back to original rows."""
        return U[self.perms[mode]]


def apply_permutations(t: SparseTensorCOO, mp: ModePermutations) -> SparseTensorCOO:
    idx = np.empty_like(t.idx)
    for j, p in enumerate(mp.perms):
        idx[:, j] = p[t.idx[:, j]]
    return SparseTensorCOO(t.dims, idx, t.vals.copy(), validate=False)


def permute_modes(t: SparseTensorCOO, seed: int):
    """Randomly permute indices along every mode for load balance."""
    mp = ModePermutations.random(t.dims, seed)
    return apply_permutations(t, mp), mp


def write_matrix(path, M):
    """Binary matrix file: int64 header (rows, cols), row-major float64."""
    M = np.ascontiguousarray(M, dtype=np.float64)
    if M.ndim == 1:
        M = M[:, None]
    with open(path, "wb") as fh:
        np.array(M.shape, dtype="<i8").tofile(fh)
        M.astype("<f8").tofile(fh)


def read_matrix(path):
    with open(path, "rb") as fh:
        shape = np.fromfile(fh, dtype="<i8", count=2)
        data = np.fromfile(fh, dtype="<f8")
    return data.reshape(int(shape[0]), int(shape[1]))
