from unittest import mock

import numpy as np
import pytest

from randcp import schedules
from randcp.matricization import Matricization
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


def rank_extractions(ctx, k, cols):
    """Run every rank's extraction of one sketched solve's distinct columns.

    ``cols`` is what ``schedules._sketched_gram`` returns beside the Gram.
    Returns (got, full, searched): per rank, the submatrix the solve
    extracted and the one a search of every distinct key gives, and the
    number of keys the solve searched over all ranks.
    """
    calls = []
    gather = schedules.gather_sampled_nonzeros_to_csr

    def record(mat, X, k, **kwargs):
        sub = gather(mat, X, k, **kwargs)
        calls.append((mat, X, kwargs, sub))
        return sub

    with mock.patch.object(schedules, "gather_sampled_nonzeros_to_csr", record), \
            mock.patch.object(Matricization, "lookup_columns", autospec=True,
                              side_effect=Matricization.lookup_columns) as lookup:
        schedules._sampled_mttkrp(ctx, k, cols)
    searched = sum(len(call.args[1]) for call in lookup.call_args_list)
    full = [gather(mat, X, k, keys=kwargs["keys"], weights=kwargs["weights"])
            for mat, X, kwargs, _ in calls]
    return [sub for *_, sub in calls], full, searched


def assert_same_submatrix(got, ref):
    """Same entries, values and order, bit for bit."""
    assert got.dims == ref.dims and (got.row_lo, got.row_hi) == (ref.row_lo, ref.row_hi)
    assert np.array_equal(got.idx, ref.idx)
    assert np.array_equal(got.vals.view(np.int64), ref.vals.view(np.int64))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
