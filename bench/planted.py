"""Planted sparse low-rank tensors, written as FROSTT ``.tns`` files.

A planted tensor is the sum of ``components`` rank-one blocks.  Block c
is ``DECAY**c * w_c`` times the outer product of short non-negative
vectors, one per mode, each on a random support of ``support[j]`` rows;
the block's nonzeros are the Cartesian product of its supports.  Support
rows are drawn with weight ``(r+1)**-skew`` over a random popularity
order of each mode's rows, so popular rows are shared between blocks.
Coordinates that two blocks share are summed, then every entry is
multiplied by ``exp(NOISE * z)`` with ``z`` standard normal.

Shared rows let leverage sampling reach every block from the ones it has
found, and the decaying weights put most of the norm in the largest
blocks, so the fit after a few rounds depends little on the seed.

All draws come from one generator seeded by ``(seed, spec.tag)``, so the
same seed gives the same tensor bit for bit.
"""

from dataclasses import dataclass

import numpy as np

NOISE = 0.1
DECAY = 0.5


@dataclass(frozen=True)
class PlantedSpec:
    name: str
    tag: int           # separates the random streams of different tensors
    dims: tuple
    support: tuple     # rows per mode in each component's support
    components: int
    skew: float        # row r of a mode's popularity order is drawn with weight (r+1)**-skew


def generate(spec: PlantedSpec, seed: int):
    """Return (idx, vals): 0-based unique coordinates in lexicographic order."""
    gen = np.random.default_rng([int(seed), spec.tag])
    popular = [gen.permutation(d) for d in spec.dims]
    pop = [(np.arange(d) + 1.0) ** -spec.skew for d in spec.dims]
    pop = [p / p.sum() for p in pop]
    idx_parts, val_parts = [], []
    for c in range(spec.components):
        weight = DECAY ** c * gen.uniform(1.0, 2.0)
        rows = [o[gen.choice(d, size=s, replace=False, p=p)]
                for d, s, o, p in zip(spec.dims, spec.support, popular, pop)]
        if c == 0:
            # load_frostt infers each dimension from the largest index present
            for d, r in zip(spec.dims, rows):
                if d - 1 not in r:
                    r[0] = d - 1
        vecs = [gen.uniform(0.2, 1.0, size=s) for s in spec.support]
        grids = np.meshgrid(*rows, indexing="ij")
        idx_parts.append(np.stack([g.ravel() for g in grids], axis=1))
        outer = weight
        for v in vecs:
            outer = np.multiply.outer(outer, v)
        val_parts.append(np.ravel(outer))
    idx = np.concatenate(idx_parts).astype(np.int64)
    vals = np.concatenate(val_parts)

    order = np.lexsort(idx.T[::-1])
    idx, vals = idx[order], vals[order]
    first = np.ones(len(vals), dtype=bool)
    first[1:] = (idx[1:] != idx[:-1]).any(axis=1)
    starts = np.flatnonzero(first)
    idx, vals = idx[starts], np.add.reduceat(vals, starts)
    vals = vals * np.exp(NOISE * gen.standard_normal(len(vals)))
    return np.ascontiguousarray(idx), vals


def write_frostt(path, idx, vals):
    """1-based FROSTT text; values keep all 17 significant digits so the
    file reads back to exactly the generated floats."""
    n = idx.shape[1]
    fmt = " ".join(["%d"] * n) + " %.17g"
    np.savetxt(path, np.column_stack([idx + 1, vals]), fmt=fmt)
