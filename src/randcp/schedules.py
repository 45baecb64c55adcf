"""One mode-k least-squares solve; the schedule sets only the traffic.

Every solve reads each factor in place (``FactorBlocks.U`` and its row
views) and writes the solved factor's blocks in place.  The two
communication schedules differ only in what they move:

tensor-stationary: nonzeros stay on their grid cell.  Factor blocks are
allgathered within per-mode slice groups (``refresh_gathered`` meters
this after every update of an exact run; a rank then reads its chunk's
rows in place), sketched solves gather only the sampled rows and
allreduce the sketched Gram, and the MTTKRP accumulator is
reduce-scattered along the solved mode's slices.  Sampling does not
shrink the reduction.

accumulator-stationary: each rank's output block stays put.  Only
sampled rows (plus their indices and probabilities) are allgathered to
everyone, the local downsampled MTTKRP writes straight into the
stationary block, and no reduction occurs.  Defined only for sketched
solves; exact solves must use the tensor-stationary schedule.

Sketched solves minimize the sketched problem: the right-hand side is
the downsampled MTTKRP with weights applied to both the sampled tensor
columns and the sampled design rows, and the system matrix is the Gram
matrix of the weighted sampled rows.  Once per solve the J draws are
merged into their distinct off-mode columns, each carrying the summed
squared weight of its copies (the sketch S^T S is unchanged), and the
sorted distinct keys are shared by every rank's extraction.  Metering
still follows the J draws.
"""

import time

import numpy as np

from . import grid as gridmod
from .linalg import hadamard_gram_chain, pseudo_inverse
from .matricization import column_keys, distinct_keys
from .mttkrp import downsampled_mttkrp, gather_sampled_nonzeros_to_csr, mttkrp_exact
from .samplers import arls_lev_sample, sample_weights, sts_sample


class ScheduleError(ValueError):
    """Invalid schedule / sampler combination or missing state."""


class SolveContext:
    """Everything one mode solve needs, shared across a run."""

    def __init__(self, grid, schedule, sampler, J, factors, local, ledger, seed,
                 workers=1):
        self.grid = grid
        self.schedule = schedule
        self.sampler = sampler          # 'exact' | 'arls-lev' | 'sts'
        self.J = J
        self.factors = factors          # list of FactorBlocks per mode
        self.local = local              # LocalTensorSet
        self.ledger = ledger
        self.seed = seed
        self.workers = workers
        self.round_id = 0
        # Per mode, refreshed after each factor update: the R x R Gram that
        # exact solves read, or the sampler state that draws read.
        self.grams = [None] * len(factors)
        self.states = [None] * len(factors)
        self.timings = {"sampling": 0.0, "gather": 0.0, "extract": 0.0, "mttkrp": 0.0,
                        "reduction": 0.0, "postprocess": 0.0}
        self.stats = {"distinct_samples": 0, "sampled_nnz": 0}

    def tick(self, phase, t0):
        t1 = time.perf_counter()
        self.timings[phase] += t1 - t0
        return t1


def refresh_gathered(ctx: SolveContext, mode: int):
    """Meter the allgather of mode's factor blocks within each of its slice
    groups; after it each rank reads its chunk's rows in place."""
    fb = ctx.factors[mode]
    words = (fb.his - fb.lows) * fb.R
    for c in range(ctx.grid.grid_dims[mode]):
        group = ctx.grid.slice_group(mode, c)
        _meter_allgather_model(ctx.ledger, ctx.round_id, group, words[group])


def _meter_allgather_model(ledger, round_id, ranks, member_words):
    """Record an allgather's traffic without materializing the payloads."""
    gridmod.meter(ledger, round_id, gridmod.ALLGATHER, ranks, member_words)


def distinct_columns(batch, dims, k):
    """Merge repeated sample tuples of a weighted batch into one column each.

    Returns (keys, X, H, weights): the sorted distinct column keys (int64
    or object, as ``matricization.column_keys`` gives them), the index
    tuple and design row of each, and the merged weights, whose squares
    sum the squared weights of the repeated draws.  sum_s w_s^2 a_s a_s^T
    over the J draws equals sum_u (sum of w_s^2 over u's copies) a_u a_u^T
    over the distinct tuples u, so the sketched Gram and the downsampled
    MTTKRP are unchanged up to rounding.
    """
    keys, where, inverse = distinct_keys(column_keys(batch.X, dims, k))
    sq = np.bincount(inverse, weights=batch.weights * batch.weights, minlength=keys.shape[0])
    return keys, batch.X.take(where, axis=0), batch.H.take(where, axis=0), np.sqrt(sq)


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


def _sketched_gram(ctx: SolveContext, k: int, batch, metered: bool):
    """Merge the batch's repeated draws; Gram of the weighted distinct columns.

    The metered Gram is summed in cell-owner rank order.  Returns the
    Gram and the columns as ``distinct_columns`` gives them; the merge is
    timed as sampling, the Gram as postprocessing.
    """
    t0 = time.perf_counter()
    cols = distinct_columns(batch, ctx.grid.tensor_dims, k)
    _, X, H, weights = cols
    ctx.stats["distinct_samples"] += X.shape[0]
    t0 = ctx.tick("sampling", t0)
    Hw = H * weights[:, None]
    grid = ctx.grid
    if not metered or grid.P == 1:
        Gs = Hw.T @ Hw
    else:
        order, bounds = gridmod.group_by_rank(grid.cell_rank(X, skip=k), grid.P)
        partials = []
        for p in range(grid.P):
            rows = Hw[order[bounds[p]:bounds[p + 1]]]
            partials.append(rows.T @ rows)
        Gs = gridmod.allreduce(partials, list(range(grid.P)),
                               ledger=ctx.ledger, round_id=ctx.round_id)
    ctx.tick("postprocess", t0)
    return Gs, cols


def _sampled_mttkrp(ctx: SolveContext, k: int, cols):
    """Every rank's extraction of the distinct sampled columns and downsampled MTTKRP."""
    keys, X, H, weights = cols
    out = []
    t0 = time.perf_counter()
    for p in range(ctx.grid.P):
        csr = gather_sampled_nonzeros_to_csr(ctx.local.local(p, k), X, k, keys=keys)
        ctx.stats["sampled_nnz"] += csr.nnz
        t0 = ctx.tick("extract", t0)
        out.append(downsampled_mttkrp(csr, H, weights, workers=ctx.workers))
        t0 = ctx.tick("mttkrp", t0)
    return out


def _exact_mttkrp(ctx: SolveContext, k: int):
    """Every rank's exact MTTKRP, reading its chunk of each off mode's
    factor in place (``refresh_gathered`` metered the gathers)."""
    grid = ctx.grid
    out = []
    t0 = time.perf_counter()
    for p in range(grid.P):
        coords = grid.coords(p)
        rows = [None] * grid.N
        offs = [0] * grid.N
        for i in range(grid.N):
            if i != k:
                lo, hi = grid.chunk_offsets[i][coords[i]:coords[i] + 2]
                rows[i] = ctx.factors[i].U[lo:hi]
                offs[i] = int(lo)
        out.append(mttkrp_exact(ctx.local.local(p, k), rows, offsets=offs,
                                workers=ctx.workers))
    ctx.tick("mttkrp", t0)
    return out


def _postprocess(ctx, k, per_rank_blocks, system_pinv):
    """Write each rank's solved block into the factor in place."""
    t0 = time.perf_counter()
    for b, block in zip(per_rank_blocks, ctx.factors[k].blocks):
        np.matmul(b, system_pinv, out=block)
    ctx.tick("postprocess", t0)


def solve_mode(ctx: SolveContext, k: int, injected_batch=None):
    """Solve for the mode-k factor in place; returns the sample batch of a
    sketched solve, None for an exact one.

    ``injected_batch`` replaces the sampler's draw (any sampler, exact
    included).  The schedule enters only in the metered row gathers,
    whether the sketched Gram is allreduced, and the reduce-scatter.
    """
    if ctx.local.schedule != ctx.schedule:  # a partition's schedule is a known one
        raise ScheduleError("context schedule is %r, its partition's %r"
                            % (ctx.schedule, ctx.local.schedule))
    ts = ctx.schedule == "tensor-stationary"
    batch = injected_batch
    if ctx.sampler == "exact" and batch is None:
        if not ts:
            raise ScheduleError("accumulator-stationary schedule requires a sampler; "
                                "exact solves must use tensor-stationary")
        accumulators = _exact_mttkrp(ctx, k)
        system_pinv = pseudo_inverse(hadamard_gram_chain(ctx.grams, skip=k))
    else:
        if batch is None:
            batch = draw_batch(ctx, k)
        if batch.weights is None:
            sample_weights(batch)
        t0 = time.perf_counter()
        if ts:
            _meter_sampled_gathers_ts(ctx, k, batch)
        else:
            _meter_sampled_gathers_as(ctx, k, batch)
        ctx.tick("gather", t0)
        Gs, cols = _sketched_gram(ctx, k, batch, metered=ts)
        accumulators = _sampled_mttkrp(ctx, k, cols)
        system_pinv = pseudo_inverse(Gs)
    if ts:
        t0 = time.perf_counter()
        accumulators = _reduce_along_mode(ctx, k, accumulators)
        ctx.tick("reduction", t0)
    _postprocess(ctx, k, accumulators, system_pinv)
    return batch


def _reduce_along_mode(ctx, k, accumulators):
    """Reduce-scatter chunk accumulators into per-rank factor blocks."""
    grid = ctx.grid
    out_blocks = [None] * grid.P
    for c in range(grid.grid_dims[k]):
        group = grid.slice_group(k, c)
        chunk_lo = int(grid.chunk_offsets[k][c])
        chunk_hi = int(grid.chunk_offsets[k][c + 1])
        offs = [grid.block_range(k, p)[0] - chunk_lo for p in group] + [chunk_hi - chunk_lo]
        outs = gridmod.reduce_scatter([accumulators[p] for p in group], offs,
                                      list(group), ledger=ctx.ledger,
                                      round_id=ctx.round_id)
        for p, block in zip(group, outs):
            out_blocks[p] = block
    return out_blocks


def _meter_sampled_gathers_ts(ctx, k, batch):
    """Ledger traffic for the sampled-row gathers of a tensor-stationary solve."""
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
        # A row's owner sits in the slice group of the row's chunk.
        words = np.bincount(grid.row_owner(i, batch.X[:, i]), minlength=grid.P) \
            * ctx.factors[i].R
        for c in range(grid.grid_dims[i]):
            group = grid.slice_group(i, c)
            if words[group].any():  # some sample drew a row of chunk c
                _meter_allgather_model(ctx.ledger, ctx.round_id, group, words[group])


def _meter_sampled_gathers_as(ctx, k, batch):
    """Ledger traffic for the sampled-row allgathers of an accumulator-stationary
    solve: every rank receives every sampled row, and with an exact-sampler
    batch its index and probability too."""
    grid = ctx.grid
    per_sample = ctx.factors[k].R + 2 if batch.owner is not None else ctx.factors[k].R
    for i in range(grid.N):
        if i != k:
            counts = np.bincount(grid.row_owner(i, batch.X[:, i]), minlength=grid.P)
            _meter_allgather_model(ctx.ledger, ctx.round_id, list(range(grid.P)),
                                   counts * per_sample)
