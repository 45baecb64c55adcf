import numpy as np
import pytest

from randcp.als import SAMPLERS, SCHEDULES
from randcp.tensor import SparseTensorCOO
from randcp.verify import dense_matricization, dense_of  # noqa: F401  (shared oracles)

# The five sampler/schedule pairs a run accepts.
PAIRS = [(s, q) for s in SAMPLERS for q in SCHEDULES
         if (s, q) != ("exact", "accumulator-stationary")]


def make_sparse(dims, nnz, seed, dense=False):
    gen = np.random.default_rng(seed)
    if dense:
        idx = np.stack(np.meshgrid(*[np.arange(d) for d in dims], indexing="ij"),
                       -1).reshape(-1, len(dims))
    else:
        idx = np.stack([gen.integers(0, d, nnz * 3) for d in dims], axis=1)
        idx = np.unique(idx, axis=0)
        idx = idx[gen.permutation(idx.shape[0])[:nnz]]
    vals = gen.standard_normal(idx.shape[0])
    return SparseTensorCOO(dims, idx, vals)


def unit_factors(dims, R, seed):
    gen = np.random.default_rng(seed)
    out = []
    for d in dims:
        U = gen.standard_normal((d, R))
        out.append(U / np.linalg.norm(U, axis=0))
    return out


class OnesFactor:
    """An all-ones (I, 2) factor that never allocates its I rows."""

    def __init__(self, n_rows):
        self.shape = (n_rows, 2)

    def take(self, rows, axis=0, out=None, mode="raise"):
        if out is None:
            return np.ones((len(rows), 2))
        out[...] = 1.0
        return out


def block_owner(grid, j, rows):
    """The owning rank of each global mode-j row: the one rank whose range
    in ``grid.block_ranges(j)`` holds it."""
    lows, his = grid.block_ranges(j)
    rows = np.asarray(rows, dtype=np.int64)[:, None]
    inside = (lows <= rows) & (rows < his)
    assert (inside.sum(axis=1) == 1).all()
    return inside.argmax(axis=1)


def py_column_key(row, dims, skip):
    """The mixed-radix column key of one index tuple, in Python integers."""
    key, stride = 0, 1
    for m, (i, d) in enumerate(zip(row, dims)):
        if m != skip:
            key, stride = key + i * stride, stride * d
    return key


def assert_same_bits(got, ref):
    """Equal shapes and equal bits, array by array (signed zeros included)."""
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        assert a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
