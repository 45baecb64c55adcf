from dataclasses import replace

import numpy as np
import pytest

from randcp import als
from randcp.als import (AlsConfig, _rebuild_mode_state, _renormalize, init_factors,
                        run_als, run_trials)
from randcp.grid import CommLedger, ProcessorGrid, optimal_grid
from randcp.linalg import FactorBlocks, normalize_columns
from randcp.matricization import matricize, partition_to_grid
from randcp.schedules import SolveContext
from randcp.tensor import SparseTensorCOO
from conftest import make_sparse


def synth_tensor(dims, R, seed, noise=0.0):
    gen = np.random.default_rng(seed)
    factors = [gen.standard_normal((d, R)) for d in dims]
    T = np.einsum("ir,jr,kr->ijk", *factors)
    if noise:
        T = T + noise * gen.standard_normal(dims)
    idx = np.stack(np.meshgrid(*[np.arange(d) for d in dims], indexing="ij"),
                   -1).reshape(-1, len(dims))
    return SparseTensorCOO(dims, idx, T.reshape(-1))


class TestInitFactors:
    def test_same_seed_bit_identical(self):
        a, _ = init_factors((7, 6, 5), 3, seed=0, trial=2)
        b, _ = init_factors((7, 6, 5), 3, seed=0, trial=2)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_different_trial_differs(self):
        a, _ = init_factors((7, 6, 5), 3, seed=0, trial=0)
        b, _ = init_factors((7, 6, 5), 3, seed=0, trial=1)
        assert not np.array_equal(a[0], b[0])

    def test_unit_columns_and_sigma(self):
        factors, sigma = init_factors((9, 8, 7), 4, seed=1)
        for U in factors:
            assert np.abs(np.linalg.norm(U, axis=0) - 1.0).max() < 1e-12
        assert np.array_equal(sigma, np.ones(4))

    @pytest.mark.parametrize("dims,R", [((7, 6, 5), 3), ((40000, 3, 2), 25),
                                        ((50000, 2), 1), ((0, 4), 2)])
    def test_matches_unnormalized_draw_formula(self, dims, R):
        # In-place normalization must keep the initial factors bit-identical to
        # dividing the raw draw by sqrt((U * U).sum(axis=0)).
        from randcp import rng
        factors, _ = init_factors(dims, R, seed=4, trial=1)
        for j, d in enumerate(dims):
            U = rng.stream(4, rng.INIT, 1, j).standard_normal((d, R))
            norms = np.sqrt((U * U).sum(axis=0))
            assert np.array_equal(factors[j], U / np.where(norms > 0.0, norms, 1.0))

    def test_gaussian_moments(self):
        from randcp import rng
        raw = rng.stream(5, rng.INIT, 0, 0).standard_normal((100000, 1))
        assert abs(raw.mean()) < 0.02
        assert abs(raw.var() - 1.0) < 0.05


class TestExactAls:
    def test_recovers_synthesized_rank2(self):
        t = synth_tensor((8, 7, 6), 2, seed=2)
        cfg = AlsConfig(rank=2, rounds=50, sampler="exact", procs=1, seed=5,
                        fit_every=50, permute=False)
        res = run_als(cfg, tensor=t)
        assert res.final_fit > 0.999

    def test_monotone_fit(self):
        t = make_sparse((10, 9, 8), 200, seed=3)
        cfg = AlsConfig(rank=3, rounds=12, sampler="exact", procs=2, seed=6,
                        fit_every=1, permute=False)
        res = run_als(cfg, tensor=t)
        fits = [f for _, f in res.fit_history]
        assert all(b >= a - 1e-8 for a, b in zip(fits, fits[1:]))

    def test_rank_count_invariance(self):
        t = make_sparse((8, 8, 8), 150, seed=4)
        outs = {}
        for P in (1, 2, 4, 8):
            cfg = AlsConfig(rank=2, rounds=5, sampler="exact", procs=P, seed=7,
                            fit_every=5, permute=False)
            outs[P] = run_als(cfg, tensor=t)
        for P in (2, 4, 8):
            diff = max(np.abs(a - b).max()
                       for a, b in zip(outs[1].factors, outs[P].factors))
            assert diff < 1e-10
            assert abs(outs[1].final_fit - outs[P].final_fit) < 1e-10
    def test_permuted_tensor_same_objective_norms(self):
        # permuting indices moves nonzeros around but never changes the
        # objective's scale; both runs must report fits in the same range
        from randcp.tensor import permute_modes
        t = make_sparse((9, 8, 7), 150, seed=5)
        tp, _ = permute_modes(t, seed=8)
        assert abs(t.norm_squared() - tp.norm_squared()) < 1e-9


class TestRenormalization:
    def test_sigma_column_norms_and_idempotence(self):
        t = make_sparse((8, 7, 6), 120, seed=6)
        cfg = AlsConfig(rank=3, rounds=3, sampler="exact", procs=2, seed=9,
                        fit_every=3, permute=False)
        res = run_als(cfg, tensor=t)
        for U in res.factors:
            norms = np.linalg.norm(U, axis=0)
            again, n2 = normalize_columns(U)
            assert np.abs(norms - 1.0).max() < 1e-12
            assert np.array_equal(again, U) or np.abs(again - U).max() < 1e-15
        assert (res.sigma >= 0).all()


class TestSketchedAls:
    @pytest.mark.parametrize("sampler,schedule", [
        ("sts", "accumulator-stationary"),
        ("arls-lev", "accumulator-stationary"),
        ("sts", "tensor-stationary"),
        ("arls-lev", "tensor-stationary"),
    ])
    def test_runs_and_tracks_fit(self, sampler, schedule):
        t = synth_tensor((12, 10, 8), 3, seed=7, noise=0.05)
        cfg = AlsConfig(rank=3, rounds=8, sampler=sampler, samples=256,
                        schedule=schedule, procs=4, seed=10, fit_every=4,
                        permute=False)
        res = run_als(cfg, tensor=t)
        assert res.final_fit > 0.5
        assert res.running_max == sorted(res.running_max)

    def test_reproducibility_bit_identical(self):
        t = make_sparse((10, 9, 8), 200, seed=8)
        cfg = AlsConfig(rank=2, rounds=4, sampler="sts", samples=128,
                        schedule="accumulator-stationary", procs=4, seed=11,
                        fit_every=2, permute=False, record_samples=True)
        a = run_als(cfg, tensor=t)
        b = run_als(cfg, tensor=t)
        assert all(np.array_equal(x, y) for x, y in zip(a.factors, b.factors))
        assert np.array_equal(a.sigma, b.sigma)
        assert len(a.sample_log) == 12 and all(  # 4 rounds x 3 modes
            np.array_equal(x, y) for x, y in zip(a.sample_log, b.sample_log))
        assert a.ledger == b.ledger
        assert a.fit_history == b.fit_history

    def test_unpermuted_output(self):
        # factors come back indexed by original (pre-permutation) rows
        t = synth_tensor((8, 7, 6), 2, seed=9)
        import os, tempfile
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "t.tns")
            with open(path, "w") as fh:
                for row, v in zip(t.idx, t.vals):
                    fh.write(" ".join(str(i + 1) for i in row) + " %.17g\n" % v)
            cfg = AlsConfig(rank=2, rounds=25, sampler="exact", procs=2, seed=12,
                            fit_every=25, permute=True, tensor_path=path)
            res = run_als(cfg)
            # reconstruct the fit in the original index space
            from randcp.linalg import compute_fit
            fit = compute_fit(t, res.factors, res.sigma)
            assert abs(fit - res.final_fit) < 1e-8

    def test_trials_match_single_runs(self, tmp_path):
        t = make_sparse((8, 7, 6), 120, seed=8)
        path = tmp_path / "t.tns"
        path.write_text("".join(" ".join(str(i + 1) for i in row) + " %.17g\n" % v
                                for row, v in zip(t.idx, t.vals)))
        cfg = AlsConfig(rank=2, rounds=2, sampler="sts", samples=64, procs=4, seed=3,
                        fit_every=1, tensor_path=str(path))
        trials = run_trials(cfg, 2)
        for trial, res in enumerate(trials):
            alone = run_als(AlsConfig(**{**cfg.__dict__, "trial": trial}))
            assert res.final_fit == alone.final_fit and res.ledger == alone.ledger
            assert all(np.array_equal(a, b) for a, b in zip(res.factors, alone.factors))
        assert trials[0].final_fit != trials[1].final_fit

    def test_fit_record_derives_final_fit_and_running_max(self):
        t = make_sparse((10, 9, 8), 200, seed=8)
        cfg = AlsConfig(rank=2, rounds=5, sampler="sts", samples=64,
                        schedule="accumulator-stationary", procs=4, seed=11,
                        fit_every=2, permute=False)
        res = run_als(cfg, tensor=t)
        assert [r for r, _ in res.fit_history] == [2, 4, 5]
        best, running_max = -np.inf, []  # the best fit so far, by a plain loop
        for _, f in res.fit_history:
            best = max(best, f)
            running_max.append(best)
        assert res.running_max == running_max
        assert res.final_fit == res.fit_history[-1][1]
        dipped = replace(res, fit_history=[(1, 0.5), (2, 0.4), (3, 0.7)])
        assert dipped.running_max == [0.5, 0.5, 0.7] and dipped.final_fit == 0.7
        assert set(res.timings) == {"load", "sampling", "gather", "extract", "mttkrp",
                                    "reduction", "postprocess", "fit"}
        assert res.timings["fit"] > 0.0

        quiet = run_als(replace(cfg, fit_every=0), tensor=t)
        assert np.isnan(quiet.final_fit) and quiet.running_max == []
        assert quiet.fit_history == [] and quiet.timings["fit"] == 0.0
        assert "\nfinal_fit nan\n" in quiet.summary()

    @pytest.mark.parametrize("fit_every", [0, 2])
    def test_sampled_run_builds_the_fit_layout_only_to_fit(self, fit_every):
        t = make_sparse((10, 9, 8), 200, seed=8)
        cfg = AlsConfig(rank=2, rounds=2, sampler="arls-lev", samples=64, procs=4,
                        seed=11, fit_every=fit_every, permute=False)
        part = partition_to_grid(t, optimal_grid(t.dims, 4), cfg.schedule)
        res = run_als(cfg, tensor=t, partition=part)
        assert len(res.fit_history) == (fit_every > 0)
        # the exact MTTKRP's row layout of the last view serves only the fit
        assert ("_csr" in part.views[-1].__dict__) == (fit_every > 0)

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_nan_abort(self):
        t = make_sparse((6, 6, 6), 60, seed=10)
        t.vals[0] = np.inf
        cfg = AlsConfig(rank=2, rounds=2, sampler="exact", procs=1, seed=13,
                        fit_every=0, permute=False)
        with pytest.raises(FloatingPointError):
            run_als(cfg, tensor=t)


class TestConfigValidation:
    def test_bad_configs(self):
        with pytest.raises(ValueError):
            AlsConfig(rank=0, rounds=1).validate()
        with pytest.raises(ValueError):
            AlsConfig(rank=1, rounds=0).validate()
        with pytest.raises(ValueError):
            AlsConfig(rank=1, rounds=1, sampler="sts", samples=0).validate()
        with pytest.raises(ValueError):
            AlsConfig(rank=1, rounds=1, sampler="bogus").validate()
        with pytest.raises(ValueError, match="fit_every must be >= 0"):
            AlsConfig(rank=1, rounds=1, fit_every=-1).validate()
        AlsConfig(rank=1, rounds=1, fit_every=0).validate()  # 0: no fit

    @pytest.mark.parametrize("procs", [1, 8])
    def test_grid_dims_and_procs_must_agree(self, procs):
        cfg = AlsConfig(rank=2, rounds=1, grid_dims=(2, 2, 1), procs=procs, permute=False)
        with pytest.raises(ValueError, match=r"grid_dims \(2, 2, 1\) has 4 ranks, procs "
                                             r"is %d" % procs):
            run_als(cfg, tensor=make_sparse((6, 6, 6), 60, seed=11))

    def test_grid_passed_in_sets_the_results_procs(self):
        t = make_sparse((6, 6, 6), 60, seed=11)
        cfg = AlsConfig(rank=2, rounds=1, permute=False)
        res = run_als(cfg, tensor=t, grid=ProcessorGrid(t.dims, (2, 2, 1)))
        assert (res.config.procs, res.config.grid_dims, res.grid_dims) == (4, (2, 2, 1),
                                                                           (2, 2, 1))
        res.config.validate()
        assert cfg.procs == 1 and cfg.grid_dims is None  # the caller's config is kept
        # per-rank tables sized by the result's config count every rank
        words, _ = res.ledger.per_rank("allgather", 1, res.config.procs)
        assert words.sum() == res.ledger.words(kind="allgather", round_id=1) > 0

    def test_auto_grid_is_named_in_the_results_config(self):
        t = make_sparse((6, 6, 6), 60, seed=11)
        res = run_als(AlsConfig(rank=2, rounds=1, procs=4, permute=False), tensor=t)
        assert res.config.grid_dims == res.grid_dims == optimal_grid(t.dims, 4).grid_dims

    def test_summary_mentions_fits_and_ledger(self):
        t = make_sparse((6, 6, 6), 60, seed=11)
        cfg = AlsConfig(rank=2, rounds=2, sampler="exact", procs=2, seed=14,
                        fit_every=1, permute=False)
        res = run_als(cfg, tensor=t)
        text = res.summary()
        assert "final_fit" in text and "ledger_total" in text and "time" in text


class TestPiecesMustMatchTheTensor:
    """A grid, partition or fit view built for another tensor is rejected
    by name before the first factor is formed."""

    @staticmethod
    def run(monkeypatch, sampler="arls-lev", **pieces):
        monkeypatch.setattr(als, "init_factors",
                            lambda *a, **k: pytest.fail("set-up let a mismatched piece in"))
        cfg = AlsConfig(rank=3, rounds=2, sampler=sampler, samples=64, procs=4, seed=3,
                        fit_every=1, permute=False)
        run_als(cfg, tensor=make_sparse((12, 10, 8), 300, seed=5), **pieces)

    @pytest.mark.parametrize("dims,nnz,mode", [((12, 9, 8), 300, 2), ((12, 10, 9), 300, 2),
                                               ((12, 10, 8), 200, 2), ((12, 10, 8), 300, 0)])
    def test_fit_view(self, monkeypatch, dims, nnz, mode):
        view = matricize(make_sparse(dims, nnz, seed=5), mode)
        with pytest.raises(ValueError, match=r"^fit_mat holds a mode-%d view over dims "
                                             r"\(%d, %d, %d\) of %d nonzeros; the run needs "
                                             r"mode 2 over \(12, 10, 8\) of 300$"
                                             % ((mode,) + dims + (nnz,))):
            self.run(monkeypatch, fit_mat=view)

    @pytest.mark.parametrize("sampler", ["exact", "arls-lev"])
    def test_partition(self, monkeypatch, sampler):
        other = make_sparse((12, 9, 8), 300, seed=5)
        part = partition_to_grid(other, optimal_grid(other.dims, 4), "tensor-stationary")
        with pytest.raises(ValueError, match=r"^partition holds a mode-2 view over dims "
                                             r"\(12, 9, 8\) of 300 nonzeros"):
            self.run(monkeypatch, sampler, partition=part)

    def test_grid(self, monkeypatch):
        t = make_sparse((12, 10, 8), 300, seed=5)
        part = partition_to_grid(t, optimal_grid(t.dims, 4), "tensor-stationary")
        with pytest.raises(ValueError, match=r"^grid built for dims \(12, 9, 8\), tensor "
                                             r"has \(12, 10, 8\)"):
            self.run(monkeypatch, grid=optimal_grid((12, 9, 8), 4), partition=part)


class TestSketchReport:
    @pytest.mark.parametrize("sampler,schedule", [
        ("sts", "accumulator-stationary"),
        ("arls-lev", "tensor-stationary"),
    ])
    def test_counts_samples_and_extraction(self, sampler, schedule):
        t = make_sparse((10, 9, 8), 200, seed=15)
        cfg = AlsConfig(rank=2, rounds=3, sampler=sampler, samples=256,
                        schedule=schedule, procs=4, seed=16, fit_every=3,
                        permute=False, record_samples=True)
        res = run_als(cfg, tensor=t)
        distinct = 0
        for s, X in enumerate(res.sample_log):
            off = [i for i in range(3) if i != s % 3]
            distinct += np.unique(X[:, off], axis=0).shape[0]
        assert res.distinct_samples == distinct < 256 * 3 * 3
        assert res.sampled_nnz > 0
        assert res.timings["extract"] > 0.0
        assert ("sketch samples=%d distinct=%d sampled_nnz=%d"
                % (256 * 3 * 3, distinct, res.sampled_nnz)) in res.summary()

    def test_exact_run_reports_no_sketch(self):
        t = make_sparse((6, 6, 6), 60, seed=17)
        cfg = AlsConfig(rank=2, rounds=1, sampler="exact", procs=2, seed=18,
                        fit_every=1, permute=False)
        res = run_als(cfg, tensor=t)
        assert (res.distinct_samples, res.sampled_nnz) == (0, 0)
        assert "sketch" not in res.summary()


def hypersparse_tensor():
    """500 nonzeros in a 4,194,304^3 x 5 index space: a sketch of 256 columns
    hits none of them, so the first sketched solve zeroes its factor."""
    dims = (1 << 22, 1 << 22, 1 << 22, 5)
    gen = np.random.default_rng(19)
    idx = np.stack([gen.integers(0, d, 500) for d in dims], axis=1)
    return SparseTensorCOO(dims, idx, gen.standard_normal(500))


@pytest.mark.parametrize("sampler", ["sts", "arls-lev"])
def test_zeroed_factor_raises_degenerate_sketch_error(sampler):
    from randcp.als import DegenerateSketchError
    cfg = AlsConfig(rank=4, rounds=1, sampler=sampler, samples=256,
                    schedule="accumulator-stationary", procs=4, seed=20,
                    permute=False, fit_every=0)
    with pytest.raises(DegenerateSketchError,
                       match=r"mode-0 factor all zero in round 1 \(J=256 samples hit 0 "
                             r"sampled nonzeros\)"):
        run_als(cfg, tensor=hypersparse_tensor())


def renormalize_ctx(U, round_id=3):
    g = ProcessorGrid((U.shape[0], 3), (2, 1))
    blocks = [FactorBlocks(U, *g.block_ranges(0)),
              FactorBlocks.from_global(np.ones((3, U.shape[1])), g, 1)]
    ctx = SolveContext(g, "exact", 0, blocks, None, CommLedger(), seed=0)
    ctx.round_id = round_id
    return ctx


class TestNormChecks:
    """The norms come from the factor update's one reduction
    (``_rebuild_mode_state``); ``_renormalize`` reads them off its Gram."""

    @pytest.mark.parametrize("bad", [np.inf, np.nan, 1e200])  # 1e200 squares to inf
    def test_non_finite_norm_raises_before_scaling(self, bad):
        U = np.ones((6, 2))
        U[4, 1] = bad
        before = U.copy()
        with pytest.raises(FloatingPointError, match="after round 3 mode 0 solve"):
            _rebuild_mode_state(renormalize_ctx(U), 0)
        assert np.array_equal(U, before, equal_nan=True)

    def test_underflowing_column_counts_as_zero(self):
        U = np.full((6, 2), 1e-170)     # squares underflow to 0
        U[:, 0] = 2.0
        ctx = renormalize_ctx(U)
        norms = _rebuild_mode_state(ctx, 0)
        assert np.array_equal(norms, [np.sqrt(24.0), 0.0])
        assert np.allclose(U[:, 0], 1.0 / np.sqrt(6.0), rtol=1e-15)
        assert np.array_equal(U[:, 1], np.full(6, 1e-170))  # a zero norm scales nothing
        # the zero column's row and column of the kept Gram are exactly zero
        assert np.array_equal(ctx.grams[0][1], [0.0, 0.0])
        assert np.array_equal(ctx.grams[0][:, 1], [0.0, 0.0])
        assert np.allclose(ctx.grams[0][0, 0], 1.0, rtol=1e-15)

    def test_renormalize_reads_the_reduced_gram(self):
        U = np.arange(12.0).reshape(6, 2)
        ctx = renormalize_ctx(U.copy())
        norms = _renormalize(ctx, 0, U.T @ U)
        assert np.allclose(norms, np.linalg.norm(U, axis=0), rtol=1e-15)
        assert np.allclose(ctx.factors[0].U, U / norms, rtol=1e-15)
        assert ctx.ledger.records() == {}   # no collective of its own


def fit_formula_on_view(t, factors, sigma, grams=None):
    """The fit-view formula term by term: the given Grams (whole-factor
    Grams when None) and one exact MTTKRP over a freshly built last-mode
    matricization."""
    from randcp.linalg import gram, hadamard_gram_chain
    from randcp.matricization import matricize
    from randcp.mttkrp import mttkrp_exact
    last = t.mode_count - 1
    if grams is None:
        grams = [gram(U) for U in factors]
    model_sq = float(sigma @ hadamard_gram_chain(grams) @ sigma)
    M = mttkrp_exact(matricize(t, last), factors)
    cross = float(np.sum(sigma * np.einsum("ir,ir->r", factors[last], M)))
    norm_sq = t.norm_squared()
    return 1.0 - np.sqrt(max(norm_sq - 2.0 * cross + model_sq, 0.0)) / np.sqrt(norm_sq)


def dense_fit(t, factors, sigma):
    from randcp.verify import dense_of
    modes = "abcdefgh"[:t.mode_count]
    model = np.einsum(",".join(m + "z" for m in modes) + ",z->" + modes, *factors, sigma)
    T = dense_of(t)
    return 1.0 - np.linalg.norm(model - T) / np.linalg.norm(T)


def record_fits(monkeypatch):
    """Wrap ``als.compute_fit``; returns the list of (factors, sigma, kwargs,
    fit) of its calls, factors, sigma and Grams copied at call time."""
    from randcp import als
    calls = []
    real = als.compute_fit

    def recorded(tensor, factors, sigma, **kw):
        f = real(tensor, factors, sigma, **kw)
        kw = dict(kw, grams=[G.copy() for G in kw["grams"]])
        calls.append(([U.copy() for U in factors], sigma.copy(), kw, f))
        return f
    monkeypatch.setattr(als, "compute_fit", recorded)
    return calls


def count_exact_mttkrp(monkeypatch):
    """Count the exact-MTTKRP calls that solves and fits make, by caller module."""
    from randcp import linalg, schedules
    counts = {"schedules": 0, "linalg": 0}
    for name, mod in (("schedules", schedules), ("linalg", linalg)):
        def counted(*args, _name=name, _real=mod.mttkrp_exact, **kw):
            counts[_name] += 1
            return _real(*args, **kw)
        monkeypatch.setattr(mod, "mttkrp_exact", counted)
    return counts


EXACT_FIT_DIMS = {3: (9, 8, 7), 4: (7, 6, 5, 4), 5: (6, 5, 4, 5, 3)}


class TestExactFitFromLastSolve:
    """An exact run's fit reads the last solve's MTTKRP and the maintained Grams."""

    @staticmethod
    def check_history(t, res, calls):
        assert [f for _, f in res.fit_history] == [f for *_, f in calls]
        for factors, sigma, kw, f in calls:
            assert kw["mttkrp"] is not None and kw["mode_mat"] is None
            for ref in (fit_formula_on_view(t, factors, sigma), dense_fit(t, factors, sigma)):
                assert abs(f - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("fit_every", [1, 3])
    @pytest.mark.parametrize("P", [1, 6, 8])
    @pytest.mark.parametrize("N", [3, 4, 5])
    def test_history_matches_fit_view_and_dense(self, monkeypatch, N, P, fit_every):
        t = make_sparse(EXACT_FIT_DIMS[N], 150, seed=30 + N)
        calls = record_fits(monkeypatch)
        counts = count_exact_mttkrp(monkeypatch)
        rounds = 4
        cfg = AlsConfig(rank=3, rounds=rounds, sampler="exact", procs=P, seed=31,
                        fit_every=fit_every, permute=False)
        res = run_als(cfg, tensor=t)
        assert len(res.fit_history) == (4 if fit_every == 1 else 2)  # rounds 3 and 4
        self.check_history(t, res, calls)
        assert counts == {"schedules": rounds * N, "linalg": 0}

    @pytest.mark.parametrize("procs", [1, 6])
    @pytest.mark.parametrize("tensor_seed", range(30, 50))
    def test_zero_column(self, monkeypatch, tensor_seed, procs):
        # A zero column of the last initial factor stays exactly zero in every
        # factor, and its scale is zero: the pseudo-inverse leaks nothing into
        # it for the renormalization to scale up.
        from randcp import als
        real_init = als.init_factors

        def init_with_zero_column(dims, R, seed, trial=0):
            factors, sigma = real_init(dims, R, seed, trial)
            factors[-1][:, 1] = 0.0
            return factors, sigma
        monkeypatch.setattr(als, "init_factors", init_with_zero_column)
        t = make_sparse(EXACT_FIT_DIMS[4], 150, seed=tensor_seed)
        calls = record_fits(monkeypatch)
        cfg = AlsConfig(rank=3, rounds=3, sampler="exact", procs=procs, seed=33, fit_every=1,
                        permute=False)
        res = run_als(cfg, tensor=t)
        assert res.sigma[1] == 0.0 and all(not U[:, 1].any() for U in res.factors)
        self.check_history(t, res, calls)

    def test_set_up_builds_no_fit_view(self):
        from randcp.als import _set_up
        t = make_sparse((6, 5, 4), 40, seed=34)
        exact = _set_up(AlsConfig(rank=2, rounds=1), tensor=t)
        sketched = _set_up(AlsConfig(rank=2, rounds=1, sampler="sts", samples=8), tensor=t)
        assert exact[-1] is None and sketched[-1] is sketched[3].views[-1]


@pytest.mark.parametrize("sampler,schedule", [("sts", "accumulator-stationary"),
                                              ("arls-lev", "tensor-stationary")])
def test_sampled_fit_reads_the_partitions_last_view(monkeypatch, sampler, schedule):
    from randcp import matricization
    t = make_sparse((9, 8, 7), 200, seed=37)
    cfg = AlsConfig(rank=3, rounds=3, sampler=sampler, samples=64, schedule=schedule,
                    procs=6, seed=38, fit_every=1, permute=False)
    given = run_als(cfg, tensor=t, fit_mat=matricization.matricize(t, 2))
    views = []  # the views over the tensor's modes; a sketched submatrix has two
    real = matricization.Matricization.__init__

    def counting(self, dims, *args, **kw):
        real(self, dims, *args, **kw)
        if self.dims == t.dims:
            views.append(self.mode)

    monkeypatch.setattr(matricization.Matricization, "__init__", counting)
    res = run_als(cfg, tensor=t)
    assert views == [0, 1, 2]
    assert np.array_equal(np.array(res.fit_history).view(np.int64),
                          np.array(given.fit_history).view(np.int64))


@pytest.mark.parametrize("sampler,schedule", [("sts", "accumulator-stationary"),
                                              ("arls-lev", "tensor-stationary")])
def test_sampled_fit_runs_one_fit_view_mttkrp(monkeypatch, sampler, schedule):
    t = make_sparse((9, 8, 7), 200, seed=35)
    calls = record_fits(monkeypatch)
    counts = count_exact_mttkrp(monkeypatch)
    cfg = AlsConfig(rank=3, rounds=4, sampler=sampler, samples=64, schedule=schedule,
                    procs=6, seed=36, fit_every=1, permute=False)
    res = run_als(cfg, tensor=t)
    assert counts == {"schedules": 0, "linalg": 4}
    assert [f for _, f in res.fit_history] == [f for *_, f in calls]
    for factors, sigma, kw, f in calls:
        # the fit view's MTTKRP and the Grams that the factor updates kept
        assert kw["mode_mat"].mode == 2 and kw["mttkrp"] is None
        for G, U in zip(kw["grams"], factors):
            assert np.abs(G - U.T @ U).max() <= 1e-13 * np.abs(G).max()
        assert f == fit_formula_on_view(t, factors, sigma, grams=kw["grams"])
