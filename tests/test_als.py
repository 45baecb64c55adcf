import numpy as np
import pytest

from randcp.als import AlsConfig, _renormalize, init_factors, run_als, run_trials
from randcp.grid import CommLedger, ProcessorGrid
from randcp.linalg import FactorBlocks, normalize_columns
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

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_nan_abort(self):
        t = make_sparse((6, 6, 6), 60, seed=10)
        t.vals[0] = np.inf
        cfg = AlsConfig(rank=2, rounds=2, sampler="exact", procs=1, seed=13,
                        fit_every=2, permute=False, compute_fits=False)
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

    def test_summary_mentions_fits_and_ledger(self):
        t = make_sparse((6, 6, 6), 60, seed=11)
        cfg = AlsConfig(rank=2, rounds=2, sampler="exact", procs=2, seed=14,
                        fit_every=1, permute=False)
        res = run_als(cfg, tensor=t)
        text = res.summary()
        assert "final_fit" in text and "ledger_total" in text and "time" in text


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
                    permute=False, compute_fits=False)
    with pytest.raises(DegenerateSketchError,
                       match=r"mode-0 factor all zero in round 1 \(J=256 samples hit 0 "
                             r"sampled nonzeros\)"):
        run_als(cfg, tensor=hypersparse_tensor())


def renormalize_ctx(U, round_id=3):
    g = ProcessorGrid((U.shape[0], 3), (2, 1))
    blocks = [FactorBlocks(U, *g.block_ranges(0)),
              FactorBlocks.from_global(np.ones((3, U.shape[1])), g, 1)]
    ctx = SolveContext(g, "tensor-stationary", "exact", 0, blocks, None, CommLedger(),
                       seed=0)
    ctx.round_id = round_id
    return ctx


class TestNormChecks:
    @pytest.mark.parametrize("bad", [np.inf, np.nan, 1e200])  # 1e200 squares to inf
    def test_non_finite_norm_raises_before_scaling(self, bad):
        U = np.ones((6, 2))
        U[4, 1] = bad
        before = U.copy()
        with pytest.raises(FloatingPointError, match="after round 3 mode 0 solve"):
            _renormalize(renormalize_ctx(U), 0)
        assert np.array_equal(U, before, equal_nan=True)

    def test_underflowing_column_counts_as_zero(self):
        U = np.full((6, 2), 1e-170)     # squares underflow to 0
        U[:, 0] = 2.0
        norms = _renormalize(renormalize_ctx(U), 0)
        assert np.array_equal(norms, [np.sqrt(24.0), 0.0])
        assert np.allclose(U[:, 0], 1.0 / np.sqrt(6.0), rtol=1e-15)
        assert np.array_equal(U[:, 1], np.full(6, 1e-170))  # a zero norm scales nothing
