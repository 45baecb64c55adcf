import numpy as np
import pytest

from randcp.tensor import SparseTensorCOO
from randcp.verify import dense_matricization, dense_of  # noqa: F401  (shared oracles)


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


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
