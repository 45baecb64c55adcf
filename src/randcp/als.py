"""Full ALS driver: initialization, the round loop over modes, column
renormalization and scale maintenance, fit tracking, and result assembly.

Termination is a fixed round count (no plateau detection), matching how
golden-fit comparisons are run.  Fits are evaluated exactly (one full
last-mode MTTKRP per evaluation) outside the communication ledger, so
they never perturb the metered cost shapes.
"""

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import grid as gridmod
from . import rng
from .linalg import FactorBlocks, compute_fit, gram, normalize_columns
from .matricization import matricize, partition_to_grid
from .samplers import arls_lev_build, sts_build
from .schedules import ScheduleError, SolveContext, refresh_gathered, solve_mode
from .tensor import ModePermutations, load_frostt, permute_modes

SAMPLERS = ("exact", "arls-lev", "sts")
SCHEDULES = ("tensor-stationary", "accumulator-stationary")


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
    fit_every: int = 5
    log_transform: bool = False
    permute: bool = True
    workers: int = 1
    record_samples: bool = False
    compute_fits: bool = True

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
        if self.schedule == "accumulator-stationary" and self.sampler == "exact":
            raise ScheduleError("accumulator-stationary schedule requires a sampler")
        if self.fit_every < 1:
            raise ValueError("fit_every must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass
class DecompResult:
    factors: list
    sigma: np.ndarray
    fit_history: list
    running_max: list
    final_fit: float
    ledger: object
    timings: dict
    config: AlsConfig
    grid_dims: tuple
    stored_nnz: int
    sample_log: list = field(default_factory=list)
    distinct_samples: int = 0   # distinct sample tuples per sketched solve, summed
    sampled_nnz: int = 0        # nonzeros extracted for those distinct columns

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


def build_grid(dims, cfg: AlsConfig):
    if cfg.grid_dims is not None:
        return gridmod.ProcessorGrid(dims, cfg.grid_dims)
    return gridmod.optimal_grid(dims, cfg.procs)


def _rebuild_mode_state(ctx, k):
    """The one refresh after a mode-k factor update.

    A sampled run rebuilds the mode's sampler state, which meters the
    factor's Gram and keeps it.  An exact run (tensor-stationary, as
    ``AlsConfig.validate`` requires) meters the Gram that its solves read
    and the factor's slice-group gathers.
    """
    fb = ctx.factors[k]
    if ctx.sampler == "exact":
        ctx.grams[k] = gram(fb, ledger=ctx.ledger, round_id=ctx.round_id)
        refresh_gathered(ctx, k)
    else:
        build = arls_lev_build if ctx.sampler == "arls-lev" else sts_build
        ctx.states[k] = build(fb, ledger=ctx.ledger, round_id=ctx.round_id)


def _renormalize(ctx, k):
    """sigma[i] = ||U_k[:, i]||, then scale columns to unit norm (metered).

    A non-finite norm (a non-finite entry, or squares that overflow)
    raises FloatingPointError before any column is scaled.
    """
    fb = ctx.factors[k]
    partials = [np.einsum("ir,ir->r", b, b) for b in fb.blocks]
    sumsq = gridmod.allreduce(partials, list(range(ctx.grid.P)),
                              ledger=ctx.ledger, round_id=ctx.round_id)
    norms = np.sqrt(sumsq)
    if not np.isfinite(norms).all():
        raise FloatingPointError("non-finite factor entries after round %d mode %d solve"
                                 % (ctx.round_id, k))
    fb.U /= np.where(norms > 0.0, norms, 1.0)
    return norms


def _set_up(cfg: AlsConfig, tensor=None, perms=None, grid=None, partition=None,
            fit_mat=None):
    """File to ready state: load, permute, grid, partition, fit matricization.

    Pieces passed in are kept.  Returns the five in ``run_als``'s argument order.
    """
    if tensor is None:
        if cfg.tensor_path is None:
            raise ValueError("no tensor given and no tensor_path configured")
        tensor = load_frostt(cfg.tensor_path, log_transform=cfg.log_transform)
        if cfg.permute:
            tensor, perms = permute_modes(tensor, cfg.seed)
    if perms is None:
        perms = ModePermutations.identity(tensor.dims)
    if grid is None:
        grid = build_grid(tensor.dims, cfg)
    if partition is None:
        partition = partition_to_grid(tensor, grid, cfg.schedule)
    if fit_mat is None and cfg.compute_fits:
        fit_mat = matricize(tensor, tensor.mode_count - 1)
    return tensor, perms, grid, partition, fit_mat


def run_als(cfg: AlsConfig, tensor=None, perms=None, grid=None, partition=None,
            fit_mat=None) -> DecompResult:
    """Run one ALS trial.  Preloaded tensor/partition state may be passed
    in so multi-trial harnesses pay ingestion and partitioning once."""
    cfg.validate()
    timings = {"load": 0.0, "fit": 0.0}
    t0 = time.perf_counter()
    tensor, perms, grid, partition, fit_mat = _set_up(cfg, tensor, perms, grid,
                                                      partition, fit_mat)
    timings["load"] = time.perf_counter() - t0

    N = tensor.mode_count
    R = cfg.rank
    factors, sigma = init_factors(tensor.dims, R, cfg.seed, cfg.trial)
    blocks = [FactorBlocks(U, *grid.block_ranges(j)) for j, U in enumerate(factors)]

    ledger = gridmod.CommLedger()
    ctx = SolveContext(grid, cfg.schedule, cfg.sampler, cfg.samples, blocks, partition,
                       ledger, cfg.seed, workers=cfg.workers)
    ctx.round_id = 0
    for j in range(N):
        _rebuild_mode_state(ctx, j)

    fit_history = []
    running_max = []
    sample_log = []
    best = -np.inf

    def evaluate_fit(round_id):
        nonlocal best
        t_fit = time.perf_counter()
        f = compute_fit(tensor, [fb.U for fb in ctx.factors], sigma, mode_mat=fit_mat,
                        workers=cfg.workers)
        best = max(best, f)
        fit_history.append((round_id, f))
        running_max.append(best)
        timings["fit"] += time.perf_counter() - t_fit

    for rnd in range(1, cfg.rounds + 1):
        ctx.round_id = rnd
        for k in range(N):
            nnz_before = ctx.stats["sampled_nnz"]
            batch = solve_mode(ctx, k)
            if cfg.record_samples and batch is not None:
                sample_log.append(batch.X.copy())
            sigma = _renormalize(ctx, k)
            if batch is not None and not sigma.any():
                raise DegenerateSketchError(
                    "sketched solve left the mode-%d factor all zero in round %d "
                    "(J=%d samples hit %d sampled nonzeros)"
                    % (k, rnd, ctx.J, ctx.stats["sampled_nnz"] - nnz_before))
            _rebuild_mode_state(ctx, k)
        if cfg.compute_fits and (rnd % cfg.fit_every == 0 or rnd == cfg.rounds):
            evaluate_fit(rnd)

    final_fit = fit_history[-1][1] if fit_history else float("nan")
    factors_out = [perms.unpermute_factor(fb.U, j)
                   for j, fb in enumerate(ctx.factors)]
    timings.update(ctx.timings)
    return DecompResult(factors_out, sigma, fit_history, running_max, final_fit,
                        ledger, timings, cfg, grid.grid_dims,
                        partition.stored_nnz(), sample_log,
                        distinct_samples=ctx.stats["distinct_samples"],
                        sampled_nnz=ctx.stats["sampled_nnz"])


def run_trials(cfg: AlsConfig, trials: int):
    """Mean-of-trials harness: shared tensor/partition, per-trial init seeds."""
    cfg.validate()
    state = _set_up(cfg)
    return [run_als(replace(cfg, trial=t), *state) for t in range(trials)]
