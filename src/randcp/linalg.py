"""Small dense linear algebra: Gram matrices, Hadamard chains,
pseudo-inverse, column normalization, and the exact fit metric.

Everything here works on R x R matrices or block-row factor matrices
with R at most a few hundred, so cubic dense algorithms are fine.
All reals are float64.
"""

import numpy as np

from . import grid as gridmod
from .matricization import Matricization, matricize
from .mttkrp import mttkrp_exact

SYMMETRY_RTOL = 1e-8
PINV_CUTOFF = 1e-10
SUMSQ_CHUNK_ROWS = 1 << 14


class FactorBlocks:
    """One factor matrix ``U`` (I x R) in block rows, one block per simulated rank.

    ``blocks[p]`` is the row view ``U[lows[p]:his[p]]``, so a rank's update
    writes the factor in place and every reader of the whole factor reads
    ``U`` without a copy.  The constructor takes ownership of ``U`` (a
    float64 C-ordered array is not copied); the blocks must tile its rows.
    """

    def __init__(self, U, lows, his):
        self.U = np.ascontiguousarray(U, dtype=np.float64)
        self.lows = np.asarray(lows, dtype=np.int64)
        self.his = np.asarray(his, dtype=np.int64)
        order = np.lexsort((self.his, self.lows))
        lo, hi = self.lows[order], self.his[order]
        if self.U.ndim != 2 or lo.size == 0 or lo[0] != 0 or hi[-1] != self.U.shape[0] \
                or (hi < lo).any() or (lo[1:] != hi[:-1]).any():
            raise ValueError("block ranges do not tile the %s factor" % (self.U.shape,))
        self.blocks = [self.U[lo:hi] for lo, hi in zip(self.lows, self.his)]

    @classmethod
    def from_global(cls, U, grid, mode):
        """Blocks of a copy of U under ``grid``'s mode row partition."""
        return cls(np.array(U, dtype=np.float64), *grid.block_ranges(mode))

    @property
    def n_blocks(self):
        return len(self.blocks)

    @property
    def R(self):
        return self.U.shape[1]

    def block_sums(self, values):
        """Per block, the sum of ``values`` (one per factor row) over its rows."""
        cs = np.concatenate(([0], np.cumsum(values)))
        return cs[self.his] - cs[self.lows]

    def copy(self):
        return FactorBlocks(self.U.copy(), self.lows, self.his)


def gram(blocks, ledger=None, round_id=0, ranks=None):
    """U^T U.  For ``FactorBlocks`` each rank forms its block's Gram and one
    allreduce over ``ranks`` (every block's rank by default, or a (groups,
    q) table) is metered; the sum runs in block order whatever ``ranks``.
    It is a factor update's one reduction, whose diagonal also gives the
    column norms (``als._rebuild_mode_state``).  Overflow to a non-finite
    Gram is left to that caller's finiteness check, so no warning here."""
    if isinstance(blocks, np.ndarray):
        return blocks.T @ blocks
    with np.errstate(over="ignore", invalid="ignore"):
        G = blocks.blocks[0].T @ blocks.blocks[0]
        for b in blocks.blocks[1:]:
            G += b.T @ b
    gridmod.meter(ledger, round_id, gridmod.ALLREDUCE,
                  range(blocks.n_blocks) if ranks is None else ranks, G.size)
    return G


def gram_scale(norms):
    """Elementwise factors 1 / (norms[r] norms[s]) that turn the Grams of a
    factor into those of the factor with its columns divided by ``norms``.
    A column of zero norm is not scaled; its row and column of factors are
    zero, so they stay exactly zero in every scaled Gram."""
    inv = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0.0)
    return np.multiply.outer(inv, inv)


def hadamard_gram_chain(grams, skip=None):
    """Elementwise product of the Gram matrices, excluding index ``skip``."""
    out = None
    for i, G in enumerate(grams):
        if i == skip:
            continue
        out = G.copy() if out is None else out * G
    if out is None:
        raise ValueError("empty Gram chain (need at least one factor besides the solved mode)")
    return out


def pseudo_inverse(G):
    """Moore-Penrose pseudo-inverse of a symmetric PSD matrix.

    Uses a symmetric eigendecomposition; eigenvalues below
    PINV_CUTOFF * lambda_max are treated as zero and inverted to zero.
    The rows and columns where G's row is all zero are exactly zero, as
    in the exact pseudo-inverse, so rounding in the eigenvectors cannot
    leak into them.
    """
    G = np.asarray(G, dtype=np.float64)
    scale = np.abs(G).max() if G.size else 0.0
    asym = np.abs(G - G.T).max() if G.size else 0.0
    if asym > SYMMETRY_RTOL * max(scale, 1.0):
        raise ValueError("matrix is not symmetric (max asymmetry %.3e)" % asym)
    sym = 0.5 * (G + G.T)
    w, V = np.linalg.eigh(sym)
    lam_max = w.max() if w.size else 0.0
    if lam_max <= 0.0:
        return np.zeros_like(sym)
    inv_w = np.where(w > PINV_CUTOFF * lam_max, 1.0, 0.0)
    with np.errstate(divide="ignore"):
        inv_w = np.where(inv_w > 0, 1.0 / np.where(w > 0, w, 1.0), 0.0)
    out = (V * inv_w) @ V.T
    zero = ~G.any(axis=1)
    out[zero] = 0.0
    out[:, zero] = 0.0
    return out


def column_sumsq(U):
    """``(U * U).sum(axis=0)``, bit for bit, without the full-size square.

    numpy sums a C-ordered float64 block down its rows one row at a time,
    so squaring ``SUMSQ_CHUNK_ROWS`` rows at a time below a carried row of
    running sums repeats that order.  A single column is summed pairwise
    instead, so it (like any other layout) takes the direct formula.
    """
    if U.ndim != 2 or U.shape[1] < 2 or U.dtype != np.float64 or not U.flags.c_contiguous:
        return (U * U).sum(axis=0)
    buf = np.zeros((min(SUMSQ_CHUNK_ROWS, U.shape[0]) + 1, U.shape[1]))
    for a in range(0, U.shape[0], SUMSQ_CHUNK_ROWS):
        c = U[a:a + SUMSQ_CHUNK_ROWS]
        np.multiply(c, c, out=buf[1:len(c) + 1])
        buf[0] = buf[:len(c) + 1].sum(axis=0)
    return buf[0].copy()


def normalize_columns(U, inplace=False):
    """Scale each column to unit 2-norm; zero columns stay zero with norm 0.

    With ``inplace`` U itself is scaled and returned, so no full-size
    copy of it is made.
    """
    norms = np.sqrt(column_sumsq(U))
    safe = np.where(norms > 0.0, norms, 1.0)
    if inplace:
        U /= safe
        return U, norms
    return U / safe, norms


def khatri_rao(factors, skip=None):
    """Khatri-Rao product over modes != skip, earlier modes varying fastest.

    Row r of the result corresponds to the off-mode index tuple whose
    mixed-radix key (see matricization.column_keys) equals r.
    """
    out = None
    for i, U in enumerate(factors):
        if i == skip or U is None:
            continue
        out = U if out is None else (U[:, None, :] * out[None, :, :]).reshape(-1, U.shape[1])
    if out is None:
        raise ValueError("Khatri-Rao product of an empty factor list")
    return out


def compute_fit(tensor, factors, sigma, mode_mat: Matricization = None, workers=1,
                mttkrp=None, grams=None) -> float:
    """Exact fit 1 - ||T_hat - T||_F / ||T||_F.

    ``factors`` must have unit-norm columns with scales in ``sigma``.  The
    cross term <T, T_hat> is sum_r sigma_r <U_last[:, r], M[:, r]> for the
    last mode's MTTKRP M.  ``mttkrp`` may supply M, as the last solve of an
    exact ALS round computed it from the same factors, and ``grams`` the
    factors' Grams; otherwise one exact MTTKRP over ``mode_mat`` (a cached
    last-mode matricization, built here when None) gives M.  No sampled
    quantity enters the evaluation.
    """
    norm_sq = tensor.norm_squared()
    if norm_sq == 0.0:
        raise ValueError("fit is undefined for an all-zero tensor")
    last = tensor.mode_count - 1
    if mttkrp is None:
        if mode_mat is None:
            mode_mat = matricize(tensor, last)
        elif mode_mat.mode != last:
            raise ValueError("cached matricization is for mode %d, need %d"
                             % (mode_mat.mode, last))
        mttkrp = mttkrp_exact(mode_mat, factors, workers=workers)
    if grams is None:
        grams = [gram(U) for U in factors]
    model_sq = float(sigma @ hadamard_gram_chain(grams) @ sigma)
    cross = float(np.sum(sigma * np.einsum("ir,ir->r", factors[last], mttkrp)))
    resid_sq = max(norm_sq - 2.0 * cross + model_sq, 0.0)
    return 1.0 - np.sqrt(resid_sq) / np.sqrt(norm_sq)
