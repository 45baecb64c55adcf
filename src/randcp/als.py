"""Full ALS driver: initialization, the round loop over modes, column
renormalization and scale maintenance, fit tracking, and result assembly.

Termination is a fixed round count (no plateau detection), matching how
golden-fit comparisons are run.  Fits are evaluated exactly outside the
communication ledger, so they never perturb the metered cost shapes.  An
exact run's fit reads the round's last-mode MTTKRP, which the mode's
solve just computed, and the Grams the run maintains, so it costs
O(I_N R + N R^2); a sketched run's fit runs one full exact MTTKRP over
the partition's last-mode view, or over a last-mode view passed in as
``fit_mat``.

Each factor update reduces once: every rank forms the Gram of its block
of the solved factor, and one reduction (an allreduce, or the STS tree
build's own upward exchange) sums them.  An exact run's slice-group
gather of the factor comes first, so the allreduce runs across the
mode's P_k chunks only.  The column norms, sigma, are the square roots
of its diagonal, and the Gram of the unit-norm factor that the solves
and samplers read is the same sum rescaled, so no second collective
runs.

A column whose scale reaches zero stays exactly zero, with scale zero,
in every later solve: ``linalg.pseudo_inverse`` is zero on each row and
column where the system matrix is, so no rounding revives it, and the
run goes on as a model of lower rank.  Only a sketched solve that leaves
a whole factor zero stops the run (``DegenerateSketchError``).
"""

import itertools
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import grid as gridmod
from . import rng
from .linalg import FactorBlocks, compute_fit, gram, gram_scale, normalize_columns
from .matricization import SCHEDULES, partition_to_grid
from .samplers import arls_lev_build, sts_build
from .schedules import ScheduleError, SolveContext, refresh_gathered, solve_mode
from .tensor import ModePermutations, load_frostt, permute_modes

SAMPLERS = ("exact", "arls-lev", "sts")
PAIRS = tuple((s, q) for s in SAMPLERS for q in SCHEDULES  # the pairs a run accepts
              if (s, q) != ("exact", "accumulator-stationary"))


class DegenerateSketchError(RuntimeError):
    """A sketched solve left its factor all zero.

    This happens when the sampled columns hit (almost) no nonzeros, as on
    hypersparse tensors with small J; the next solve's sampler would
    find no leverage mass, so the run stops here with the cause.
    """


@dataclass
class AlsConfig:
    rank: int
    rounds: int
    tensor_path: str = None
    sampler: str = "exact"
    samples: int = 0
    schedule: str = "tensor-stationary"
    grid_dims: tuple = None
    procs: int = 1
    seed: int = 0
    trial: int = 0
    fit_every: int = 5          # 0: no fit
    log_transform: bool = False
    permute: bool = True
    workers: int = 1
    record_samples: bool = False

    def validate(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.sampler not in SAMPLERS:
            raise ValueError("sampler must be one of %s" % (SAMPLERS,))
        if self.schedule not in SCHEDULES:
            raise ValueError("schedule must be one of %s" % (SCHEDULES,))
        if self.sampler != "exact" and self.samples < 1:
            raise ValueError("samples must be >= 1 for sketched solves")
        if (self.sampler, self.schedule) not in PAIRS:
            raise ScheduleError("accumulator-stationary schedule requires a sampler")
        if self.fit_every < 0:
            raise ValueError("fit_every must be >= 0")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.grid_dims is not None and int(np.prod(self.grid_dims)) != self.procs:
            raise ValueError("grid_dims %s has %d ranks, procs is %d"
                             % (self.grid_dims, np.prod(self.grid_dims), self.procs))


@dataclass
class DecompResult:
    factors: list
    sigma: np.ndarray
    fit_history: list           # (round, fit) per evaluated round
    ledger: object
    timings: dict
    config: AlsConfig           # procs and grid_dims name the grid the run used
    stored_nnz: int
    sample_log: list = field(default_factory=list)
    distinct_samples: int = 0   # distinct sample tuples per sketched solve, summed
    sampled_nnz: int = 0        # nonzeros extracted for those distinct columns

    grid_dims = property(lambda self: self.config.grid_dims)

    @property
    def final_fit(self) -> float:
        return self.fit_history[-1][1] if self.fit_history else float("nan")

    @property
    def running_max(self) -> list:
        return list(itertools.accumulate((f for _, f in self.fit_history), max))

    def summary(self) -> str:
        lines = ["config rank=%d rounds=%d sampler=%s samples=%d schedule=%s "
                 "grid=%s seed=%d trial=%d"
                 % (self.config.rank, self.config.rounds, self.config.sampler,
                    self.config.samples, self.config.schedule,
                    "x".join(str(d) for d in self.grid_dims),
                    self.config.seed, self.config.trial)]
        lines.append("stored_nnz %d" % self.stored_nnz)
        for (r, f), m in zip(self.fit_history, self.running_max):
            lines.append("fit round=%d fit=%.6f running_max=%.6f" % (r, f, m))
        lines.append("final_fit %.6f" % self.final_fit)
        if self.config.sampler != "exact":
            drawn = self.config.samples * len(self.factors) * self.config.rounds
            lines.append("sketch samples=%d distinct=%d sampled_nnz=%d"
                         % (drawn, self.distinct_samples, self.sampled_nnz))
        for phase, secs in sorted(self.timings.items()):
            lines.append("time %s %.3f" % (phase, secs))
        for kind in gridmod.KINDS:
            lines.append("ledger_total %s words=%d messages=%d"
                         % (kind, self.ledger.words(kind=kind),
                            self.ledger.messages(kind=kind)))
        return "\n".join(lines)


def init_factors(dims, R, seed, trial=0):
    """Unit-variance Gaussian factors, columns normalized; all-ones scales."""
    factors = []
    for j, d in enumerate(dims):
        U = rng.stream(seed, rng.INIT, trial, j).standard_normal((d, R))
        factors.append(normalize_columns(U, inplace=True)[0])
    return factors, np.ones(R)


def _rebuild_mode_state(ctx, k, renormalize=True):
    """The one refresh after a mode-k factor update, around its one reduction.

    Every rank forms the Gram of its block of the factor and one reduction
    sums them: ``gram``'s allreduce, or for STS the upward exchange of the
    tree build, whose root every rank reads.  An exact run
    (tensor-stationary, as ``AlsConfig.validate`` requires) meters the
    factor's slice-group gathers first; each member of chunk c's group
    then holds all of chunk c's rows, so the allreduce runs over the
    (P/P_k, P_k) table of one rank per chunk, ``slice_groups[k].T``.
    With ``renormalize`` the columns are scaled to unit norm from that
    Gram's diagonal (``_renormalize``), on every rank without a message,
    and the kept Grams are scaled to match (``gram_scale``); the unit-norm
    initial factors keep the Gram as reduced.  Every run keeps the Gram
    in ``ctx.grams[k]``, the STS tree's root for STS, which exact solves
    and the fit read.  A sampled run keeps the mode's sampler state.
    Returns the column norms, None without ``renormalize``.
    """
    fb = ctx.factors[k]
    ranks = None
    if ctx.sampler == "exact":
        refresh_gathered(ctx, k)
        ranks = ctx.grid.slice_groups[k].T
    state = sts_build(fb, ledger=ctx.ledger, round_id=ctx.round_id) \
        if ctx.sampler == "sts" else None
    G = gram(fb, ledger=ctx.ledger, round_id=ctx.round_id, ranks=ranks) \
        if state is None else state.gram
    norms = None
    if renormalize:
        norms = _renormalize(ctx, k, G)
        scale = gram_scale(norms)
        if state is None:
            G = G * scale
        else:
            state.rescale(scale)
            G = state.gram
    ctx.grams[k] = G
    if ctx.sampler == "arls-lev":
        state = arls_lev_build(fb, ledger=ctx.ledger, round_id=ctx.round_id, gram_matrix=G)
    ctx.states[k] = state
    return norms


def _renormalize(ctx, k, G):
    """sigma[i] = ||U_k[:, i]|| = sqrt(G[i, i]) from the reduced Gram G of
    the solved factor, then scale its columns to unit norm in place.

    No collective: the norms ride on G's reduction.  A non-finite norm (a
    non-finite entry, or squares that overflow) raises FloatingPointError
    before any column is scaled; a zero norm scales nothing.
    """
    norms = np.sqrt(np.diagonal(G))
    if not np.isfinite(norms).all():
        raise FloatingPointError("non-finite factor entries after round %d mode %d solve"
                                 % (ctx.round_id, k))
    ctx.factors[k].U /= np.where(norms > 0.0, norms, 1.0)
    return norms


def _set_up(cfg: AlsConfig, tensor=None, perms=None, grid=None, partition=None,
            fit_mat=None):
    """File to ready state: load, permute, grid, partition, fit view.

    Pieces passed in are kept; a partition under another schedule raises
    ScheduleError, a tensor with a zero or non-finite sum of squares
    ValueError or FloatingPointError, and a grid, partition or ``fit_mat``
    built for other dims, other nonzeros or (``fit_mat``) a mode but the
    last ValueError.  A sampled run with fits and no ``fit_mat`` takes the
    partition's last-mode view as its fit view.  Returns the five in
    ``run_als``'s argument order.
    """
    if tensor is None:
        if cfg.tensor_path is None:
            raise ValueError("no tensor given and no tensor_path configured")
        tensor = load_frostt(cfg.tensor_path, log_transform=cfg.log_transform)
        if cfg.permute:
            tensor, perms = permute_modes(tensor, cfg.seed)
    with np.errstate(over="ignore"):
        norm_sq = tensor.norm_squared()
    if not np.isfinite(norm_sq):
        raise FloatingPointError("tensor sum of squares is %r, not finite" % norm_sq)
    if norm_sq == 0.0:
        raise ValueError("tensor has no nonzero value to fit")
    if perms is None:
        perms = ModePermutations.identity(tensor.dims)
    if grid is None:
        grid = (gridmod.optimal_grid(tensor.dims, cfg.procs) if cfg.grid_dims is None
                else gridmod.ProcessorGrid(tensor.dims, cfg.grid_dims))
    elif grid.tensor_dims != tensor.dims:
        raise ValueError("grid built for dims %s, tensor has %s" % (grid.tensor_dims, tensor.dims))
    if partition is None:
        partition = partition_to_grid(tensor, grid, cfg.schedule)
    elif partition.schedule != cfg.schedule:
        raise ScheduleError("configured schedule is %r, the partition's %r"
                            % (cfg.schedule, partition.schedule))
    want = (tensor.mode_count - 1, tensor.dims, tensor.nnz)
    for name, v in (("partition", partition.views[-1]), ("fit_mat", fit_mat)):
        if v is not None and (v.mode, v.dims, v.nnz) != want:
            raise ValueError("%s holds a mode-%d view over dims %s of %d nonzeros; the run "
                             "needs mode %d over %s of %d" % (name, v.mode, v.dims, v.nnz, *want))
    if fit_mat is None and cfg.fit_every and cfg.sampler != "exact":
        fit_mat = partition.views[-1]
    return tensor, perms, grid, partition, fit_mat


def run_als(cfg: AlsConfig, tensor=None, perms=None, grid=None, partition=None,
            fit_mat=None) -> DecompResult:
    """Run one ALS trial.  Preloaded tensor/partition state may be passed
    in so multi-trial harnesses pay ingestion and partitioning once.
    ``fit_mat``, a last-mode view of ``tensor``, replaces the partition's
    own in a sketched run's fit; an exact run does not read it."""
    cfg.validate()
    t0 = time.perf_counter()
    tensor, perms, grid, partition, fit_mat = _set_up(cfg, tensor, perms, grid,
                                                      partition, fit_mat)
    cfg = replace(cfg, procs=grid.P, grid_dims=grid.grid_dims)
    load_s = time.perf_counter() - t0

    N = tensor.mode_count
    factors, sigma = init_factors(tensor.dims, cfg.rank, cfg.seed, cfg.trial)
    blocks = [FactorBlocks(U, *grid.block_ranges(j)) for j, U in enumerate(factors)]

    ctx = SolveContext(grid, cfg.sampler, cfg.samples, blocks, partition, gridmod.CommLedger(),
                       cfg.seed, workers=cfg.workers)
    ctx.timings["load"] = load_s
    for j in range(N):
        _rebuild_mode_state(ctx, j, renormalize=False)

    fit_history = []
    sample_log = []
    for rnd in range(1, cfg.rounds + 1):
        ctx.round_id = rnd
        for k in range(N):
            nnz_before = ctx.stats["sampled_nnz"]
            batch = solve_mode(ctx, k)
            if cfg.record_samples and batch is not None:
                sample_log.append(batch.X.copy())
            sigma = _rebuild_mode_state(ctx, k)
            if batch is not None and not sigma.any():
                raise DegenerateSketchError(
                    "sketched solve left the mode-%d factor all zero in round %d "
                    "(J=%d samples hit %d sampled nonzeros)"
                    % (k, rnd, ctx.J, ctx.stats["sampled_nnz"] - nnz_before))
        if cfg.fit_every and (rnd % cfg.fit_every == 0 or rnd == cfg.rounds):
            t0 = time.perf_counter()
            fit_history.append((rnd, compute_fit(
                tensor, [fb.U for fb in ctx.factors], sigma, mode_mat=fit_mat,
                workers=cfg.workers, mttkrp=ctx.last_mttkrp, grams=ctx.grams)))
            ctx.tick("fit", t0)
        ctx.last_mttkrp = None  # only this round's fit reads it

    factors_out = [perms.unpermute_factor(fb.U, j)
                   for j, fb in enumerate(ctx.factors)]
    return DecompResult(factors_out, sigma, fit_history, ctx.ledger, ctx.timings, cfg,
                        partition.stored_nnz(), sample_log,
                        distinct_samples=ctx.stats["distinct_samples"],
                        sampled_nnz=ctx.stats["sampled_nnz"])


def run_trials(cfg: AlsConfig, trials: int):
    """Mean-of-trials harness: shared tensor/partition, per-trial init seeds."""
    cfg.validate()
    state = _set_up(cfg)
    return [run_als(replace(cfg, trial=t), *state) for t in range(trials)]
