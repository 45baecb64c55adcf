"""Correctness checks on a decomposition, computed apart from randcp.

Each check returns a list of failure messages (empty when it holds).
The fit is recomputed from the generated tensor and the returned
unpermuted factors; the ledger is compared with the cost model's closed
forms, worked out here from the grid shape rather than read from
randcp's own helpers.
"""

import numpy as np

FIT_TOL = 1e-9
MONOTONE_TOL = 1e-12
CHUNK = 1 << 14


def direct_fit(idx, vals, factors, sigma):
    """1 - ||T_hat - T|| / ||T|| with a per-nonzero model value and a
    Gram-based model norm.  Works in chunks so that the check does not
    raise the process's peak memory above the decomposition's."""
    cross = 0.0
    for lo in range(0, len(vals), CHUNK):
        model = np.broadcast_to(sigma, (len(vals[lo:lo + CHUNK]), len(sigma))).copy()
        for j, U in enumerate(factors):
            model *= U[idx[lo:lo + CHUNK, j]]
        cross += float(vals[lo:lo + CHUNK] @ model.sum(axis=1))
    had = np.ones((len(sigma), len(sigma)))
    for U in factors:
        had *= U.T @ U
    model_sq = float(sigma @ had @ sigma)
    norm_sq = float(vals @ vals)
    return 1.0 - np.sqrt(max(norm_sq - 2.0 * cross + model_sq, 0.0)) / np.sqrt(norm_sq)


def ts_words_per_round(dims, grid_dims, R):
    """Tensor-stationary reduce-scatter words in one round, all ranks:
    sum_k (q_k - 1) I_k R with q_k = P / P_k the slice-group size."""
    P = int(np.prod(grid_dims))
    return sum((P // Pk - 1) * I * R for I, Pk in zip(dims, grid_dims))


def check_result(res, idx, vals, dims):
    """All checks for one run_als result against the generated tensor."""
    cfg = res.config
    R, N, rounds = cfg.rank, len(dims), cfg.rounds
    fails = []
    if not all(np.isfinite(U).all() for U in res.factors):
        fails.append("non-finite factor entries")
    if not (np.isfinite(res.sigma).all() and (res.sigma >= 0.0).all()):
        fails.append("sigma not finite and non-negative")
    if [U.shape[0] for U in res.factors] != list(dims):
        fails.append("factor rows %s do not match dims %s"
                     % ([U.shape[0] for U in res.factors], dims))
    if fails:
        return fails

    fit = direct_fit(idx, vals, res.factors, res.sigma)
    if not abs(fit - res.final_fit) <= FIT_TOL:
        fails.append("final_fit %.15f != recomputed fit %.15f" % (res.final_fit, fit))

    P = int(np.prod(res.grid_dims))
    if P != cfg.procs:
        fails.append("grid %s does not have %d ranks" % (res.grid_dims, cfg.procs))
    expected = {}
    if cfg.schedule == "tensor-stationary":
        expected["reduce_scatter"] = ts_words_per_round(dims, res.grid_dims, R)
        if cfg.sampler == "exact":
            expected["allgather"] = expected["reduce_scatter"]
    elif cfg.sampler == "sts":
        expected["allgather"] = N * (P - 1) * cfg.samples * (N - 1) * (R + 2)
    for kind, words in expected.items():
        for r in range(1, rounds + 1):
            got = res.ledger.words(kind=kind, round_id=r)
            if got != words:
                fails.append("round %d %s words %d != closed form %d" % (r, kind, got, words))

    if cfg.sampler == "exact":
        fits = [f for _, f in res.fit_history]
        drops = [a - b for a, b in zip(fits, fits[1:]) if b < a - MONOTONE_TOL]
        if drops:
            fails.append("exact-ALS fit decreased by up to %.3e" % max(drops))
    return fails
