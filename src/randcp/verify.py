"""Desk-scale oracle verification suites.

Each suite runs a handful of property checks against independent
oracles (brute-force leverage enumeration, dense Khatri-Rao
materialization, dense tensor reconstruction, serial collective
references) and reports one pass/fail line per property.  The CLI
``verify`` subcommand and the test suite both drive these.
"""

import numpy as np

from . import grid as gridmod
from . import rng
from .als import AlsConfig, run_als
from .linalg import FactorBlocks, compute_fit, khatri_rao, normalize_columns
from .matricization import column_keys, matricize, partition_to_grid
from .mttkrp import downsampled_mttkrp, gather_sampled_nonzeros_to_csr, mttkrp_exact
from .samplers import (arls_lev_build, arls_lev_sample, exact_krp_leverage_oracle,
                       sample_weights, sts_build, sts_sample)
from .tensor import SparseTensorCOO


def random_sparse_tensor(dims, nnz, seed, dense=False):
    gen = rng.stream(seed, rng.GENERIC, 0)
    if dense:
        idx = np.stack(np.meshgrid(*[np.arange(d) for d in dims], indexing="ij"),
                       -1).reshape(-1, len(dims))
    else:
        idx = np.stack([gen.integers(0, d, nnz * 2) for d in dims], axis=1)
        idx = np.unique(idx, axis=0)[:nnz]
    vals = gen.standard_normal(idx.shape[0])
    return SparseTensorCOO(dims, idx, vals)


def dense_of(t: SparseTensorCOO):
    T = np.zeros(t.dims)
    T[tuple(t.idx.T)] = t.vals
    return T


def dense_matricization(T, mode):
    """Rows: mode index; columns ordered by the library's composite key."""
    return np.moveaxis(T, mode, 0).reshape(T.shape[mode], -1, order="F")


def _unit_factors(dims, R, seed):
    gen = rng.stream(seed, rng.GENERIC, 1)
    return [normalize_columns(gen.standard_normal((d, R)))[0] for d in dims]


def _batch_tv(batch, dims, k, probs_ref):
    emp = np.bincount(column_keys(batch.X, dims, k), minlength=probs_ref.size) / batch.J
    return 0.5 * np.abs(emp - probs_ref).sum()


def suite_samplers(seed=0):
    checks = []
    dims = (4, 4, 3)
    R, J, k = 2, 200000, 2
    gen = rng.stream(seed, rng.GENERIC, 2)
    factors = [gen.standard_normal((d, R)) for d in dims]
    g1 = gridmod.ProcessorGrid(dims, (1, 1, 1))
    blocks = [FactorBlocks.from_global(U, g1, j) for j, U in enumerate(factors)]
    oracle = exact_krp_leverage_oracle(factors, skip=k)

    trees = [sts_build(b) for b in blocks]
    batch = sts_sample(trees, k, J, seed=seed + 1)
    tv = _batch_tv(batch, dims, k, oracle)
    checks.append(("sts_tv_vs_exact_oracle < 0.01", tv < 0.01, "tv=%.4f" % tv))
    err = np.abs(batch.prob - oracle[column_keys(batch.X, dims, k)]).max()
    checks.append(("sts_path_probability_identity < 1e-10", err < 1e-10, "err=%.2e" % err))

    # ARLS-LEV on six ranks (3x2x1: empty blocks in both off modes, mode 1's
    # out of row order; factor 0's row 1 zeroed), then on one rank, whose
    # states the weights check reads.
    zeroed = [U.copy() for U in factors]
    zeroed[0][1] = 0.0
    for s, fs, gdims in ((3, zeroed, (3, 2, 1)), (2, factors, (1, 1, 1))):
        g = gridmod.ProcessorGrid(dims, gdims)
        states = [arls_lev_build(FactorBlocks.from_global(U, g, j)) for j, U in enumerate(fs)]
        batch_a = arls_lev_sample(states, k, J, seed=seed + s)
        per = [exact_krp_leverage_oracle([fs[i]]) for i in range(2)]
        tv_a = _batch_tv(batch_a, dims, k, np.multiply.outer(per[1], per[0]).reshape(-1))
        checks.append(("arls_tv_vs_product_oracle < 0.01 (P=%d)" % g.P, tv_a < 0.01,
                       "tv=%.4f" % tv_a))
        hits = int((per[0].take(batch_a.X[:, 0]) == 0.0).sum())
        checks.append(("arls_zero_leverage_rows_never_drawn (P=%d)" % g.P, hits == 0,
                       "draws=%d" % hits))

    acc = np.zeros((16, 16))
    n_rep = 50
    for s in range(n_rep):
        b = arls_lev_sample(states, k, 2000, seed=seed + 10 + s)
        wts = sample_weights(b)
        S = np.zeros((2000, 16))
        S[np.arange(2000), column_keys(b.X, dims, k)] = wts
        acc += S.T @ S
    acc /= n_rep
    err_w = np.abs(acc - np.eye(16)).max()
    checks.append(("weights_make_E[StS]=I within 5%", err_w < 0.05, "err=%.3f" % err_w))
    return checks


def suite_mttkrp(seed=0):
    checks = []
    gen = rng.stream(seed, rng.GENERIC, 3)
    worst = 0.0
    worst_ds = 0.0
    for case in range(5):
        dims = tuple(int(d) for d in gen.integers(3, 8, size=3))
        t = random_sparse_tensor(dims, 60, seed + case)
        R = 3
        factors = [gen.standard_normal((d, R)) for d in dims]
        T = dense_of(t)
        for k in range(3):
            m = matricize(t, k)
            A = khatri_rao(factors, skip=k)
            ref = dense_matricization(T, k) @ A
            got = mttkrp_exact(m, factors)
            worst = max(worst, np.abs(got - ref).max() / max(np.abs(ref).max(), 1e-12))
            J = 40
            X = np.stack([gen.integers(0, d, J) for d in dims], 1).astype(np.int64)
            X[:, k] = -1
            wts = gen.random(J) + 0.5
            H = np.ones((J, R))
            for i in range(3):
                if i != k:
                    H *= factors[i][X[:, i]]
            sub = gather_sampled_nonzeros_to_csr(m, X, k, weights=wts)
            got_ds = downsampled_mttkrp(sub, H * wts[:, None])
            S = np.zeros((J, A.shape[0]))
            S[np.arange(J), column_keys(X, dims, k)] = wts
            ref_ds = dense_matricization(T, k) @ S.T @ S @ A
            denom = max(np.linalg.norm(ref_ds), 1e-12)
            worst_ds = max(worst_ds, np.linalg.norm(got_ds - ref_ds) / denom)
    checks.append(("exact_mttkrp_vs_dense_krp < 1e-10", worst < 1e-10, "err=%.2e" % worst))
    checks.append(("downsampled_vs_sketch_matrix < 1e-10", worst_ds < 1e-10,
                   "err=%.2e" % worst_ds))
    return checks


def suite_fit(seed=0):
    checks = []
    worst = 0.0
    for case in range(5):
        gen = rng.stream(seed, rng.GENERIC, 40 + case)
        dims = (6, 6, 6)
        t = random_sparse_tensor(dims, 0, seed + 50 + case, dense=True)
        R = 3
        factors = _unit_factors(dims, R, seed + 60 + case)
        sigma = gen.random(R) + 0.1
        got = compute_fit(t, factors, sigma)
        T = dense_of(t)
        model = np.einsum("ir,jr,kr,r->ijk", factors[0], factors[1], factors[2], sigma)
        ref = 1.0 - np.linalg.norm(model - T) / np.linalg.norm(T)
        worst = max(worst, abs(got - ref))
    checks.append(("fit_vs_dense_reconstruction < 1e-10", worst < 1e-10, "err=%.2e" % worst))
    return checks


def suite_schedules(seed=0):
    checks = []
    dims = (12, 10, 8)
    t = random_sparse_tensor(dims, 300, seed + 3)
    base = dict(rank=3, rounds=4, fit_every=4, permute=False, seed=seed + 7)
    fits = {}
    factors = {}
    for P in (1, 2, 4, 8):
        cfg = AlsConfig(sampler="exact", schedule="tensor-stationary", procs=P, **base)
        res = run_als(cfg, tensor=t)
        fits[P] = res.final_fit
        factors[P] = res.factors
    worst = max(max(np.abs(a - b).max() for a, b in zip(factors[1], factors[P]))
                for P in (2, 4, 8))
    checks.append(("exact_rank_invariance P in {1,2,4,8} < 1e-10", worst < 1e-10,
                   "err=%.2e" % worst))

    from .schedules import SolveContext, solve_mode
    g = gridmod.ProcessorGrid(dims, (2, 2, 1))
    funit = _unit_factors(dims, 3, seed + 8)
    blocks = [FactorBlocks.from_global(U, g, j) for j, U in enumerate(funit)]
    trees = [sts_build(b) for b in blocks]
    batch = sts_sample(trees, 0, 128, seed=seed + 9)
    sample_weights(batch)
    pt = partition_to_grid(t, g, "tensor-stationary")
    pa = partition_to_grid(t, g, "accumulator-stationary")
    ctx_t = SolveContext(g, "sts", 128, [b.copy() for b in blocks], pt,
                         gridmod.CommLedger(), seed)
    ctx_a = SolveContext(g, "sts", 128, [b.copy() for b in blocks], pa,
                         gridmod.CommLedger(), seed)
    solve_mode(ctx_t, 0, injected_batch=batch)
    solve_mode(ctx_a, 0, injected_batch=batch)
    diff = np.abs(ctx_t.factors[0].U - ctx_a.factors[0].U).max()
    checks.append(("schedule_equivalence_injected_batch bit for bit",
                   np.array_equal(ctx_t.factors[0].U, ctx_a.factors[0].U), "err=%.2e" % diff))
    return checks


def suite_comm(seed=0):
    checks = []
    gen = rng.stream(seed, rng.GENERIC, 5)
    ok = True
    for q in (1, 2, 3, 7, 16):
        ranks = list(range(q))
        parts = [gen.standard_normal(4) for _ in range(q)]
        if not np.array_equal(gridmod.allgather(parts, ranks), np.concatenate(parts)):
            ok = False
        s = gridmod.allreduce(parts, ranks)
        if np.abs(s - np.sum(parts, axis=0)).max() > 1e-12:
            ok = False
        mats = [gen.standard_normal((q * 2, 3)) for _ in range(q)]
        offs = np.arange(q + 1) * 2
        outs = gridmod.reduce_scatter(mats, offs, ranks)
        ref = np.sum(mats, axis=0)
        for m, o in enumerate(outs):
            if np.abs(o - ref[2 * m:2 * m + 2]).max() > 1e-12:
                ok = False
    checks.append(("collective_semantics_vs_serial_reference", ok, ""))

    led = gridmod.CommLedger()
    q = 4
    send = [[np.arange(float(i + j + 1)) if i != j else None for j in range(q)]
            for i in range(q)]
    gridmod.all_to_allv(send, list(range(q)), ledger=led, round_id=0)
    sent = sum(len(send[i][j]) for i in range(q) for j in range(q)
               if i != j and send[i][j] is not None)
    cons = led.words(kind=gridmod.ALL_TO_ALLV) == sent
    checks.append(("all_to_allv_conservation", cons,
                   "sent=%d recv=%d" % (sent, led.words(kind=gridmod.ALL_TO_ALLV))))

    dims = (12, 10, 8)
    t = random_sparse_tensor(dims, 300, seed + 11)
    cfg = AlsConfig(rank=3, rounds=2, sampler="exact", schedule="tensor-stationary",
                    procs=8, seed=seed, fit_every=0, permute=False)
    res = run_als(cfg, tensor=t)
    g = gridmod.optimal_grid(dims, 8)
    pred = gridmod.ts_exact_round_words_total(g, 3)
    meas = (res.ledger.words(kind=gridmod.ALLGATHER, round_id=2)
            + res.ledger.words(kind=gridmod.REDUCE_SCATTER, round_id=2))
    checks.append(("ts_exact_round_words == closed form", meas == pred,
                   "meas=%d pred=%d" % (meas, pred)))

    words = {}
    for J in (1 << 10, 1 << 12):
        cfg = AlsConfig(rank=3, rounds=2, sampler="sts", samples=J,
                        schedule="accumulator-stationary", procs=4, seed=seed,
                        fit_every=0, permute=False)
        res = run_als(cfg, tensor=t)
        words[J] = res.ledger.words(kind=gridmod.ALLGATHER, round_id=1)
        rs = res.ledger.words(kind=gridmod.REDUCE_SCATTER)
        checks.append(("as_reduce_scatter_words == 0 (J=%d)" % J, rs == 0, "words=%d" % rs))
    lin = words[1 << 12] * (1 << 10) == words[1 << 10] * (1 << 12)
    checks.append(("as_gather_words_linear_in_J", lin,
                   "w(2^10)=%d w(2^12)=%d" % (words[1 << 10], words[1 << 12])))
    return checks


SUITES = {
    "samplers": suite_samplers,
    "mttkrp": suite_mttkrp,
    "fit": suite_fit,
    "schedules": suite_schedules,
    "comm": suite_comm,
}


def run_suite(name, seed=0, out=print):
    if name not in SUITES:
        raise KeyError("unknown suite %r (choose from %s)" % (name, sorted(SUITES)))
    checks = SUITES[name](seed=seed)
    all_ok = True
    for label, ok, detail in checks:
        out("%s %s%s" % ("PASS" if ok else "FAIL", label,
                         (" [%s]" % detail) if detail else ""))
        all_ok &= ok
    return all_ok
