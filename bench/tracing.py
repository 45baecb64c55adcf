"""Spans around randcp's layer functions, recorded from outside the library.

Each traced function is replaced, for the duration of ``Tracer.installed``,
at the module attribute where its caller looks it up: ``als`` and
``schedules`` bind their callees with ``from ... import``, so those are
patched in the importing module, while ``grid`` collectives are reached
through the ``gridmod`` module object and are patched there once.

A span records (layer metric, start, end, parent).  A layer's self time
is the sum over its spans of the duration minus the durations of the
direct child spans.  Counters that wrappers take are O(1) attribute
reads; anything costlier is computed after the run, outside every span.
"""

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from randcp import als, grid, linalg, matricization, samplers, schedules, tensor


def _n_rows(mat, *args, **kwargs):
    return mat.n_rows


def _n_queries(self, query_keys):
    return len(query_keys)


# (owner, attribute, layer metric).  The set-up path is called by the
# benchmark through these module attributes; the decomposition spans sit at
# the names run_als and its callees look up.
SETUP_SPANS = [
    (tensor, "load_frostt", "tensor.load_frostt_s"),
    (tensor, "permute_modes", "tensor.permute_s"),
    (matricization, "partition_to_grid", "matricization.partition_s"),
    (matricization, "matricize", "matricization.fit_matricize_s"),
]

DECOMPOSE_SPANS = [
    (als, "arls_lev_build", "samplers.build_s"),
    (als, "sts_build", "samplers.build_s"),
    (als, "gram", "linalg.gram_s"),
    (samplers, "gram", "linalg.gram_s"),
    (linalg, "gram", "linalg.gram_s"),
    (als, "compute_fit", "linalg.fit_s"),
    (als, "refresh_gathered", "schedules.gather_s"),
    (als, "_renormalize", "als.renormalize_s"),
    (schedules, "arls_lev_sample", "samplers.sample_s"),
    (schedules, "sts_sample", "samplers.sample_s"),
    (schedules, "sample_weights", "samplers.sample_s"),
    (schedules, "gather_sampled_nonzeros_to_csr", "mttkrp.extract_s"),
    (schedules, "downsampled_mttkrp", "mttkrp.downsampled_s"),
    (schedules, "mttkrp_exact", "mttkrp.exact_s"),
    (linalg, "mttkrp_exact", "mttkrp.exact_s"),
    (schedules, "refresh_gathered", "schedules.gather_s"),
    (schedules, "_meter_sampled_gathers_ts", "schedules.gather_s"),
    (schedules, "_meter_allgather_model", "schedules.gather_s"),
    (schedules, "_sketched_gram", "schedules.sketched_gram_s"),
    (schedules, "_reduce_along_mode", "schedules.reduction_s"),
    (schedules, "_postprocess", "schedules.solve_s"),
    (schedules, "pseudo_inverse", "schedules.solve_s"),
    (schedules, "hadamard_gram_chain", "schedules.solve_s"),
    (grid, "allgather", "grid.collective_s"),
    (grid, "reduce_scatter", "grid.collective_s"),
    (grid, "allreduce", "grid.collective_s"),
    (grid, "all_to_allv", "grid.collective_s"),
    (matricization.Matricization, "lookup_columns", "matricization.lookup_s"),
]

# Counters read at call boundaries: (owner, attribute) -> [(counter, fn,
# on_result)]; fn takes the call's result when on_result, else its arguments.
COUNTERS = {
    (schedules, "gather_sampled_nonzeros_to_csr"): [
        ("mttkrp.sampled_nnz", lambda csr: csr.nnz, True)],
    (schedules, "mttkrp_exact"): [("mttkrp.exact_calls", lambda *a, **k: 1, False),
                                  ("mttkrp.exact_rows_walked", _n_rows, False)],
    (linalg, "mttkrp_exact"): [("mttkrp.exact_calls", lambda *a, **k: 1, False),
                               ("mttkrp.exact_rows_walked", _n_rows, False)],
    (matricization.Matricization, "lookup_columns"): [
        ("matricization.key_searches", _n_queries, False)],
}


class Tracer:
    def __init__(self):
        self.spans = []          # [metric, start, end, parent index or -1]
        self.counters = defaultdict(int)
        self._stack = []

    def _wrap(self, fn, metric, counters):
        spans, stack, tally = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            spans.append([metric, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(i)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[i][2] = perf_counter()
            for name, count, on_result in counters:
                tally[name] += count(out) if on_result else count(*args, **kwargs)
            return out
        return traced

    @contextmanager
    def installed(self, table):
        """Patch every (owner, attribute) in ``table``; restore on exit."""
        saved = []
        try:
            for owner, attr, metric in table:
                fn = owner.__dict__[attr]
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, metric, COUNTERS.get((owner, attr), ())))
            saved.append(self._count_ledger_adds())
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def _count_ledger_adds(self):
        add = grid.CommLedger.add
        tally = self.counters

        def counted(*args, **kwargs):
            tally["grid.ledger_adds"] += 1
            return add(*args, **kwargs)
        grid.CommLedger.add = counted
        return grid.CommLedger, "add", add

    def self_times(self):
        """Layer metric -> summed self time in seconds."""
        child = [0.0] * len(self.spans)
        for metric, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (metric, start, end, _) in enumerate(self.spans):
            out[metric] += (end - start) - child[i]
        return out
