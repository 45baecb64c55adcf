"""Sparse tensor ingestion and preprocessing.

Tensors are plain coordinate lists: an (nnz x N) integer index matrix
plus a value vector.  FROSTT ``.tns`` files are 1-based on disk and
converted to 0-based here.  A file is parsed in one pass by numpy's C
reader (``np.loadtxt``), with no Python work per line; file line numbers
for error messages are recovered by a rescan, only when the input is
rejected.  Duplicate coordinates are summed at ingestion, after one
stable sort over the index tuples packed into int64 words, after which
index tuples are unique and in lexicographic order.  ``pack_word``, the
one bit-packer, also packs the column keys of ``matricization``.

Memory: ingest holds at most one extra copy of the nonzeros, and a few
nnz-long index vectors, beside the tensor it returns; on a four-mode
tensor its peak is about 2.2 times the returned arrays' bytes.  The
parsed text table is split into the index and a copy of the value column
and dropped before deduplication, range checks run column by column, and
each sort temporary is dropped once its pass is done.  Values are never
written after ingest: ``apply_permutations`` and every view share the
loaded tensor's ``vals``.
"""

import itertools
import os
import warnings

import numpy as np

from . import rng


class ParseError(ValueError):
    """Malformed tensor text input."""


class BoundsError(ValueError):
    """Index outside the declared mode dimensions."""


def check_columns(X, dims, skip=None):
    """X as int64, its indices in every mode but ``skip`` checked against ``dims``."""
    X = np.asarray(X, dtype=np.int64)
    for m, d in enumerate(dims):
        if m != skip and int(X[:, m].view(np.uint64).max(initial=0)) >= d:  # -1: 2^64 - 1
            raise BoundsError("mode-%d index outside [0, %d)" % (m, d))
    return X


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
            check_columns(self.idx, self.dims)

    @property
    def mode_count(self):
        return len(self.dims)

    @property
    def nnz(self):
        return self.vals.size

    def norm_squared(self) -> float:
        return float(np.dot(self.vals, self.vals))


def plan_words(fields, reserve=0):
    """Split (mode, bits) fields, most significant first, into int64 words
    of at most 63 bits, each after the first keeping its top ``reserve``
    bits for a parent id; a mode too wide for that raises ValueError."""
    words, used = [], 64
    for m, w in fields:
        if used + w > 63:
            used = reserve if words else 0
            if used + w > 63:
                raise ValueError("mode %d: %d index bits beside a %d-bit parent id "
                                 "exceed an int64 word" % (m, w, reserve))
            words.append([])
        words[-1].append((m, w))
        used += w
    return words


def pack_word(idx, word, high=None):
    """Shift-or the (mode, bits) fields of ``idx``, first most significant, into
    ``high`` in place (a copy of the first field if None); returns the key."""
    key = high
    for m, w in word:
        if key is None:
            key = idx[:, m].copy()
        else:
            key <<= w
            key |= idx[:, m]
    return key


def sum_duplicates(idx, vals):
    """Collapse repeated index tuples by summing their values.

    Returns new arrays: the distinct tuples in lexicographic order and
    their sums.  The sort over the packed words (``plan_words``) is
    stable, so each tuple's values are summed in input order.  Indices
    must be >= 0.  ``idx`` and ``vals`` are not written.  Besides them it
    holds the packed words and the sort order, then the output: each
    word, its sorted copy, the sorted values and the order are dropped
    once their pass is done, so the new index is gathered beside nothing
    nnz-long but the inputs, the sums and the gathered rows.
    """
    if idx.shape[0] == 0:
        return idx, vals
    fields = [(m, int(col.max()).bit_length()) for m, col in enumerate(idx.T)]
    words = [pack_word(idx, word) for word in plan_words(fields)]
    order = np.lexsort(words[::-1])
    new_run = np.zeros(idx.shape[0], dtype=bool)
    new_run[0] = True
    while words:
        w_s = words.pop(0).take(order)
        new_run[1:] |= w_s[1:] != w_s[:-1]
        del w_s
    starts = np.flatnonzero(new_run)
    summed = np.add.reduceat(vals.take(order), starts)
    rows = order.take(starts)
    del order, starts
    return idx.take(rows, axis=0), summed


def load_frostt(path, *, log_transform=False, dims=None) -> SparseTensorCOO:
    """Read a FROSTT ``.tns`` file.

    Each data line holds N 1-based indices followed by a value, whitespace
    separated.  Text from ``#`` to the end of a line is a comment, blank
    lines are skipped, and the values of repeated index tuples are summed.
    The file is parsed in one pass by numpy's C reader; line numbers are
    recovered by a rescan only when the input is rejected.  The text
    table lives only until its index and values are split off, so the
    peak is one extra copy of the nonzeros, beside the returned tensor,
    plus a few nnz-long vectors (see the module docstring).

    Parameters
    ----------
    log_transform : bool
        Replace each value v by ln(1 + v).
    dims : sequence of int, optional
        Declared mode dimensions.  When given, indices are validated
        against them; otherwise dimensions are inferred from the data.
    """
    with warnings.catch_warnings():
        # An input without data lines is reported below as a ParseError.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                UserWarning)
        try:
            # A path, not an open file: numpy then reads the text in chunks
            # rather than line by line.
            table = np.loadtxt(path, dtype=np.float64, ndmin=2, comments="#")
        except ValueError as exc:
            _scan_for_bad_line(path, exc)
            raise  # unreachable: the scan raises with a line number
    if table.size == 0:
        raise ParseError("%s: no tensor entries found" % path)

    if table.shape[1] < 4:
        raise ParseError("%s: need at least 3 index columns and a value, got %d columns"
                         % (path, table.shape[1]))
    n_modes = table.shape[1] - 1
    vals = table[:, n_modes].copy()
    idx = table[:, :n_modes].astype(np.int64)
    bad = _first_row(c != f for c, f in zip(idx.T, table.T))
    del table
    if bad is not None:
        raise ParseError("%s: line %d: non-integer index" % (path, _line_of_row(path, bad)))
    bad = _first_row(c < 1 for c in idx.T)
    if bad is not None:
        raise BoundsError("%s: line %d: indices are 1-based and must be >= 1"
                          % (path, _line_of_row(path, bad)))
    idx -= 1

    if dims is not None:
        dims = tuple(int(d) for d in dims)
        if len(dims) != n_modes:
            raise ParseError("%s: file has %d modes but %d dims declared"
                             % (path, n_modes, len(dims)))
        bad = _first_row(c >= d for c, d in zip(idx.T, dims))
        if bad is not None:
            raise BoundsError("%s: line %d: index exceeds declared dims %s"
                              % (path, _line_of_row(path, bad), dims))
    else:
        dims = tuple(int(c.max()) + 1 for c in idx.T)

    idx, vals = sum_duplicates(idx, vals)
    if log_transform:
        np.log1p(vals, out=vals)  # the sums are this function's own array
    return SparseTensorCOO(dims, idx, vals)


def _first_row(masks):
    """Smallest row flagged by any of the per-column boolean ``masks``, or
    None.  One column's mask is alive at a time, not an nnz x N table."""
    first = None
    for mask in masks:
        if mask.any():
            row = int(mask.argmax())
            first = row if first is None else min(first, row)
    return first


def _data_lines(path):
    """(1-based line number, fields) of each data line, skipping what
    ``np.loadtxt`` skips: comments from ``#`` on and blank lines.  The
    file is opened as ``np.loadtxt`` opens a path, so ``.gz``, ``.bz2``
    and ``.xz`` files are read decompressed."""
    with np.lib.npyio.DataSource(os.curdir).open(os.fspath(path), "rt") as fh:
        for lineno, ln in enumerate(fh, 1):
            fields = ln.split("#", 1)[0].split()
            if fields:
                yield lineno, fields


def _line_of_row(path, row):
    """File line number of data row ``row`` (0-based)."""
    return next(itertools.islice(_data_lines(path), row, None))[0]


def _scan_for_bad_line(path, exc):
    """Locate the first unparseable line and raise with its number."""
    width = None
    for lineno, toks in _data_lines(path):
        if width is None:
            width = len(toks)
        if len(toks) != width:
            raise ParseError("%s: line %d: expected %d fields, got %d"
                             % (path, lineno, width, len(toks)))
        for t in toks:
            if not _parses_as_float64(t):
                raise ParseError("%s: line %d: cannot parse %r" % (path, lineno, t))
    raise ParseError("%s: unparseable input: %s" % (path, exc)) from exc


def _parses_as_float64(token):
    """Whether numpy's C reader takes ``token`` as a float64: Python's
    ``float`` grammar over ASCII text, without the digit separators
    (``1_0``) and non-ASCII digits that only ``float`` accepts."""
    if not token.isascii() or "_" in token:
        return False
    try:
        float(token)
    except ValueError:
        return False
    return True


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

    def unpermute_factor(self, U, mode):
        """Reorder a factor computed in permuted space back to original rows,
        in place: the reordered rows are formed once and copied back into
        ``U``, which is returned."""
        U[...] = U.take(self.perms[mode], axis=0)
        return U


def apply_permutations(t: SparseTensorCOO, mp: ModePermutations) -> SparseTensorCOO:
    """``t`` with mode j's index i renamed ``mp.perms[j][i]``: a new index
    array, and ``t.vals`` shared, not copied, since values are never
    written after ingest.  ``t`` itself is not written."""
    idx = np.empty_like(t.idx)
    for j, p in enumerate(mp.perms):
        idx[:, j] = p[t.idx[:, j]]
    return SparseTensorCOO(t.dims, idx, t.vals, validate=False)


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
