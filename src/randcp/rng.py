"""Deterministic random-stream discipline.

Every random draw in the library comes from a counter-based Philox
generator keyed by a tuple (base_seed, purpose, *context).  Context is
typically (round, solve_mode, sampled_mode).  Streams that must be
shared across simulated ranks (the "consistent" draws, e.g. the
multinomial row counts of a sample batch) omit the rank from the key,
so every rank derives the identical generator.  Keeping one stream per
(purpose, context) tuple means adding or removing ranks never perturbs
draws taken from unrelated streams.
"""

import numpy as np

# Purpose codes.  Never renumber: stream identity is part of the
# reproducibility contract.
INIT = 0          # factor matrix initialization (context: trial, mode)
TENSOR_PERM = 1   # load-balancing index permutations (context: mode)
MULTINOMIAL = 2   # consistent multinomial row counts (round, k, mode)
LOCAL_DRAW = 3    # no longer drawn (was per-rank local leverage draws)
SHUFFLE = 4       # consistent sample permutation (round, k, mode)
WALK_UNIFORM = 5  # uniform residuals driving tree walks (round, k, mode)
GENERIC = 6       # scratch streams for tests and verification suites


def stream(seed: int, purpose: int, *context) -> np.random.Generator:
    """Return the Philox generator for one (seed, purpose, context) key."""
    key = np.random.SeedSequence(
        entropy=int(seed) & ((1 << 64) - 1),
        spawn_key=(int(purpose),) + tuple(int(c) for c in context),
    )
    return np.random.Generator(np.random.Philox(key))
