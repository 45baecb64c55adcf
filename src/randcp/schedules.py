"""One mode-k least-squares solve; the schedule sets only the traffic.

Every solve reads each factor in place (``FactorBlocks.U`` and its row
views) and writes the solved factor's blocks in place.  The two
communication schedules differ only in what they move:

tensor-stationary: nonzeros stay on their grid cell.  Factor blocks are
allgathered within per-mode slice groups (``refresh_gathered`` meters
this after every update of an exact run; a rank then reads its chunk's
rows in place), sketched solves gather only the distinct sampled rows and
allreduce the sketched Gram, and the MTTKRP accumulator is
reduce-scattered along the solved mode's slices.  Sampling does not
shrink the reduction.

accumulator-stationary: each rank's output block stays put.  Only
sampled rows (with an STS sample's index and probability) are
allgathered to everyone, each rank's downsampled MTTKRP rows are
scattered into its stationary block, and no reduction occurs.  Defined
only for sketched solves; exact solves must use the tensor-stationary
schedule.

Every rank's MTTKRP is one kernel call over the mode's whole-mode view
of the nonzeros (``LocalTensorSet.views``), which returns the reduced
(I_k, R) rows; ``_reduce_along_mode`` only meters the reduce-scatter,
and the sketched Gram is formed once and its allreduce only metered.
So a solve's result does not depend on the grid or the schedule.

Sketched solves minimize the sketched problem: the right-hand side is
the exact kernel run on the sketched submatrix, whose values carry the
weights 1 / sqrt(J p_s) (a batch holds its tuples and each joint p_s),
and the sampled design rows, weighted once per solve; the system matrix
is the Gram matrix of those weighted rows.  Once per solve the J draws
are merged into their distinct off-mode columns, each carrying the
summed squared weight of its copies (the sketch S^T S is unchanged), and
each distinct column's design row is formed once from the factors.  One
extraction then searches each distinct column once over the view.

Sampled rows move once per distinct row wherever the tuples are
replicated first: every ARLS-LEV batch (its sampler allgathers the
drawn rows with their counts) and every tensor-stationary batch (an STS
batch's tuples are broadcast first).  Each rank then indexes the rows
per draw on its own.  Only an STS batch under accumulator-stationary
moves a row with each sample, since only the sample's owner knows its
tuple.
"""

import time

import numpy as np

from . import grid as gridmod
from .linalg import hadamard_gram_chain, pseudo_inverse
from .matricization import column_levels
from .mttkrp import downsampled_mttkrp, gather_sampled_nonzeros_to_csr, mttkrp_exact
from .samplers import arls_lev_sample, sample_weights, sts_sample
from .tensor import check_columns


class ScheduleError(ValueError):
    """Invalid schedule / sampler combination or missing state."""


class SolveContext:
    """Everything one mode solve needs, shared across a run."""

    def __init__(self, grid, sampler, J, factors, local, ledger, seed, workers=1):
        self.grid = grid
        self.sampler = sampler          # 'exact' | 'arls-lev' | 'sts'
        self.J = J
        self.factors = factors          # list of FactorBlocks per mode
        self.local = local              # LocalTensorSet
        self.ledger = ledger
        self.seed = seed
        self.workers = workers
        self.round_id = 0
        # Per mode, refreshed after each factor update: the R x R Gram that
        # exact solves and the fit read, and a sampled run's sampler state.
        self.grams = [None] * len(factors)
        self.states = [None] * len(factors)
        # The reduced last-mode MTTKRP of an exact solve, which the fit after
        # the round reads (``linalg.compute_fit(mttkrp=)``); None otherwise.
        self.last_mttkrp = None
        # Seconds per phase; ``run_als`` sets "load" and ticks "fit".
        self.timings = {"load": 0.0, "sampling": 0.0, "gather": 0.0, "extract": 0.0,
                        "mttkrp": 0.0, "reduction": 0.0, "postprocess": 0.0, "fit": 0.0}
        self.stats = {"distinct_samples": 0, "sampled_nnz": 0}

    def tick(self, phase, t0):
        t1 = time.perf_counter()
        self.timings[phase] += t1 - t0
        return t1


def refresh_gathered(ctx: SolveContext, mode: int):
    """Meter the allgather of mode's factor blocks within each of its slice
    groups; after it each rank reads its chunk's rows in place."""
    fb = ctx.factors[mode]
    groups = ctx.grid.slice_groups[mode]
    _meter_allgather_model(ctx.ledger, ctx.round_id, groups, ((fb.his - fb.lows) * fb.R)[groups])


def _meter_allgather_model(ledger, round_id, ranks, member_words):
    """Record an allgather's traffic without materializing the payloads."""
    gridmod.meter(ledger, round_id, gridmod.ALLGATHER, ranks, member_words)


_DESIGN_CHUNK = 1 << 12


def distinct_columns(batch, factors, k):
    """Merge repeated sample tuples of a weighted batch into one column each.

    ``factors[i]`` is mode i's (I_i, R) factor matrix; only its row count
    is read for i == k.  Returns (X, H, weights): the distinct index
    tuples in column order (``column_levels``), the design row of each,
    and the merged weights, whose squares sum the squared weights of the
    repeated draws.  sum_s w_s^2 a_s a_s^T over the J draws equals sum_u
    (sum of w_s^2 over u's copies) a_u a_u^T over the distinct tuples u,
    so the sketched Gram and the downsampled MTTKRP are unchanged up to
    rounding.  A design row is the Hadamard product of the tuple's factor
    rows, multiplied in ascending mode order as the samplers' running
    products are.  The design rows are the one (J_d, R) array formed:
    they are written chunk by chunk, each later mode's rows gathered into
    one reused chunk buffer and multiplied in place.
    """
    _, _, inverse, order, ptr = column_levels(batch.X, [U.shape[0] for U in factors], k)
    X = batch.X.take(order[ptr[:-1]], axis=0)
    sq = np.bincount(inverse, weights=batch.weights * batch.weights, minlength=X.shape[0])
    del inverse, order  # freed before the design rows are formed
    modes = [i for i in range(len(factors)) if i != k]
    H = np.empty((X.shape[0], factors[modes[0]].shape[1]))
    buf = np.empty((min(X.shape[0], _DESIGN_CHUNK), H.shape[1]))
    # column_levels checked every index, so take need not buffer ``out``
    # against an out-of-range one, as its default mode="raise" does.
    for lo in range(0, X.shape[0], _DESIGN_CHUNK):
        tuples = X[lo:lo + _DESIGN_CHUNK]
        h = H[lo:lo + len(tuples)]
        factors[modes[0]].take(tuples[:, modes[0]], axis=0, out=h, mode="clip")
        for i in modes[1:]:
            h *= factors[i].take(tuples[:, i], axis=0, out=buf[:len(h)], mode="clip")
    return X, H, np.sqrt(sq)


def draw_batch(ctx: SolveContext, k: int):
    """Run the configured sampler for a mode-k solve."""
    t0 = time.perf_counter()
    if ctx.sampler == "arls-lev":
        sample = arls_lev_sample
    elif ctx.sampler == "sts":
        sample = sts_sample
    else:
        raise ScheduleError("no sampler configured (sampler=%r)" % ctx.sampler)
    batch = sample(ctx.states, k, ctx.J, ctx.seed, round_id=ctx.round_id, ledger=ctx.ledger)
    ctx.tick("sampling", t0)
    return batch


def _sketched_gram(ctx: SolveContext, k: int, batch):
    """Merge the batch's repeated draws; Gram of the weighted distinct columns.

    A tensor-stationary solve meters the allreduce of the R x R Gram over
    all ranks.  Returns the Gram and the columns as
    ``distinct_columns`` gives them, but with the design rows weighted
    (X, Hw, weights).  The merge is timed as sampling, the Gram as
    postprocessing.
    """
    t0 = time.perf_counter()
    X, Hw, weights = distinct_columns(batch, [f.U for f in ctx.factors], k)
    ctx.stats["distinct_samples"] += X.shape[0]
    t0 = ctx.tick("sampling", t0)
    Hw *= weights[:, None]
    Gs = Hw.T @ Hw
    if ctx.local.schedule == "tensor-stationary":
        gridmod.meter(ctx.ledger, ctx.round_id, gridmod.ALLREDUCE, list(range(ctx.grid.P)),
                      Gs.size)
    ctx.tick("postprocess", t0)
    return Gs, (X, Hw, weights)


def _sampled_mttkrp(ctx: SolveContext, k: int, cols):
    """One extraction and one downsampled MTTKRP over the mode-k view;
    returns the accumulator rows."""
    X, Hw, weights = cols
    t0 = time.perf_counter()
    sub = gather_sampled_nonzeros_to_csr(ctx.local.views[k], X, k, weights=weights)
    ctx.stats["sampled_nnz"] += sub.nnz
    t0 = ctx.tick("extract", t0)
    acc = downsampled_mttkrp(sub, Hw, workers=ctx.workers)
    ctx.tick("mttkrp", t0)
    return acc


def _exact_mttkrp(ctx: SolveContext, k: int):
    """One exact MTTKRP over the mode-k view, reading the factors in place
    (``refresh_gathered`` metered the gathers); returns the accumulator rows."""
    t0 = time.perf_counter()
    acc = mttkrp_exact(ctx.local.views[k], [f.U for f in ctx.factors], workers=ctx.workers)
    ctx.tick("mttkrp", t0)
    return acc


def _postprocess(ctx, k, rows, system_pinv):
    """Solve each rank's block of the I_k accumulator ``rows`` into the factor in place."""
    t0 = time.perf_counter()
    fb = ctx.factors[k]
    for lo, hi, block in zip(fb.lows, fb.his, fb.blocks):
        np.matmul(rows[lo:hi], system_pinv, out=block)
    ctx.tick("postprocess", t0)


def solve_mode(ctx: SolveContext, k: int, injected_batch=None):
    """Solve for the mode-k factor in place; returns the sample batch of a
    sketched solve, None for an exact one.

    ``injected_batch`` replaces the sampler's draw (any sampler, exact
    included); an off-mode index of it outside its dimension raises
    BoundsError.  The schedule enters only the ledger: the metered row
    gathers, the sketched Gram's allreduce and the reduce-scatter.  An
    exact solve of the last mode keeps its reduced MTTKRP in
    ``ctx.last_mttkrp``.
    """
    ts = ctx.local.schedule == "tensor-stationary"
    batch = injected_batch
    if ctx.sampler == "exact" and batch is None:
        if not ts:
            raise ScheduleError("accumulator-stationary schedule requires a sampler; "
                                "exact solves must use tensor-stationary")
        acc = _exact_mttkrp(ctx, k)
        system_pinv = pseudo_inverse(hadamard_gram_chain(ctx.grams, skip=k))
    else:
        if batch is None:
            batch = draw_batch(ctx, k)
        else:  # the sampler's draws are in range by construction
            check_columns(batch.X, ctx.grid.tensor_dims, k)
        if batch.weights is None:
            sample_weights(batch)
        t0 = time.perf_counter()
        if ts:
            _meter_sampled_gathers_ts(ctx, k, batch)
        else:
            _meter_sampled_gathers_as(ctx, k, batch)
        ctx.tick("gather", t0)
        Gs, cols = _sketched_gram(ctx, k, batch)
        acc = _sampled_mttkrp(ctx, k, cols)
        system_pinv = pseudo_inverse(Gs)
    t0 = time.perf_counter()
    rows = _reduce_along_mode(ctx, k, acc)
    ctx.tick("reduction", t0)
    if batch is None and k == len(ctx.factors) - 1:
        ctx.last_mttkrp = rows
    _postprocess(ctx, k, rows, system_pinv)
    return batch


def _reduce_along_mode(ctx, k, acc):
    """The reduced mode-k rows ``acc``; a tensor-stationary solve meters
    their reduce-scatter along the mode's slice groups, while an
    accumulator-stationary row has one holder, so it is only scattered."""
    if ctx.local.schedule == "tensor-stationary":
        fb = ctx.factors[k]
        groups = ctx.grid.slice_groups[k]
        gridmod.meter(ctx.ledger, ctx.round_id, gridmod.REDUCE_SCATTER, groups,
                      ((fb.his - fb.lows) * fb.R)[groups])
    return acc


def _drawn_rows(X, i, fb):
    """Per rank, the distinct mode-i rows of the tuples ``X`` in its block of
    the factor ``fb``: one O(J + I_i) mask, no sort."""
    drawn = np.zeros(fb.U.shape[0], dtype=bool)
    drawn[X[:, i]] = True
    return fb.block_sums(drawn)


def _meter_sampled_gathers_ts(ctx, k, batch):
    """Ledger traffic for the sampled-row gathers of a tensor-stationary solve.

    Every rank holds the batch's tuples before any row moves (an STS batch
    has its tuples broadcast first), so each distinct drawn row goes once
    from its owner to the slice group of the row's chunk, and every rank
    indexes the rows per draw on its own."""
    grid = ctx.grid
    if grid.P == 1:
        return
    if batch.owner is not None:
        # exact-sampler batches end distributed: broadcast indices + probability
        counts = np.bincount(batch.owner, minlength=grid.P)
        _meter_allgather_model(ctx.ledger, ctx.round_id, list(range(grid.P)),
                               counts * grid.N)
    for i in range(grid.N):
        if i == k:
            continue
        # A row's owner sits in the slice group of the row's chunk; only
        # the groups of chunks some sample drew a row of exchange anything.
        groups = grid.slice_groups[i]
        words = (_drawn_rows(batch.X, i, ctx.factors[i]) * ctx.factors[i].R)[groups]
        drawn = words.any(axis=1)
        _meter_allgather_model(ctx.ledger, ctx.round_id, groups[drawn], words[drawn])


def _meter_sampled_gathers_as(ctx, k, batch):
    """Ledger traffic for the sampled-row allgathers of an accumulator-stationary
    solve: every rank receives every sampled row.  A replicated batch
    (``owner`` None) moves each distinct drawn row once; an exact-sampler
    batch's tuples are known only to their owners, so each sample's row
    travels with its index and probability."""
    grid = ctx.grid
    R = ctx.factors[k].R
    for i in range(grid.N):
        if i == k:
            continue
        fb = ctx.factors[i]
        if batch.owner is None:
            words = _drawn_rows(batch.X, i, fb) * R
        else:
            words = fb.block_sums(np.bincount(batch.X[:, i], minlength=fb.U.shape[0])) * (R + 2)
        _meter_allgather_model(ctx.ledger, ctx.round_id, list(range(grid.P)), words)
