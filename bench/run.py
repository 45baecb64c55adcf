"""Decomposition benchmark for randcp on planted sparse tensors.

    python3 bench/run.py --workload uber-sts-as --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --smoke

One run is one process.  It generates the workload's planted tensor from
``--seed``, writes it as a FROSTT file, times the set-up path
(load_frostt -> permute_modes -> optimal_grid -> partition_to_grid ->
matricize) several times, and then repeats whole ``run_als``
decompositions until ``--seconds`` have passed.  Every decomposition is
checked (see checks.py); one that raises or fails a check counts as
failed.  The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of one traced
decomposition with ``--trace 1``.  ``--smoke`` runs every workload at toy
size through both modes and every check.  See README.md.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

# Kernels run with workers=1 on R=25 blocks; a second BLAS thread only adds
# contention noise.  Must be set before numpy is imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"
OUT = HERE / "out"

import numpy as np  # noqa: E402

from planted import PlantedSpec, generate, write_frostt  # noqa: E402

SETUP_REPEATS = 5

UBER = PlantedSpec("uber", tag=1, dims=(183, 24, 1140, 1717), support=(6, 4, 27, 27),
                   components=20, skew=1.5)
HYPER6 = PlantedSpec("hyper6", tag=2, dims=(8192,) * 6, support=(4, 4, 3, 3, 3, 5),
                     components=20, skew=1.0)


@dataclass(frozen=True)
class Workload:
    tensor: PlantedSpec
    sampler: str
    schedule: str
    samples: int
    rounds: int
    fit_every: int
    procs: int = 32
    rank: int = 25


WORKLOADS = {
    "uber-sts-as": Workload(UBER, "sts", "accumulator-stationary", 1 << 14,
                            rounds=4, fit_every=4),
    "uber-arls-ts": Workload(UBER, "arls-lev", "tensor-stationary", 1 << 16,
                             rounds=4, fit_every=4),
    "hyper6-exact-ts": Workload(HYPER6, "exact", "tensor-stationary", 0,
                                rounds=5, fit_every=1),
}

# Same code paths at toy size.  hyper6 keeps its dims, so its column keys
# still overflow int64; the uber toy is denser so that every sketch hits.
SMOKE = {
    "uber-sts-as": dict(dims=(30, 8, 60, 80), support=(5, 3, 10, 10), samples=512),
    "uber-arls-ts": dict(dims=(30, 8, 60, 80), support=(5, 3, 10, 10), samples=512),
    "hyper6-exact-ts": dict(dims=(8192,) * 6, support=(2, 2, 2, 1, 1, 2), samples=0),
}

END_TO_END = [
    ("setup_s", "s"), ("decompose_s", "s"), ("final_fit", "1"),
    ("comm_words", "words/round"), ("comm_words_max_rank", "words/round"),
    ("comm_messages_max_rank", "msgs/round"), ("peak_rss_mb", "MiB"),
]

PER_LAYER = [
    ("tensor.load_frostt_s", "s"), ("tensor.permute_s", "s"),
    ("matricization.partition_s", "s"), ("matricization.fit_matricize_s", "s"),
    ("matricization.stored_nnz", "count"), ("matricization.lookup_s", "s"),
    ("matricization.key_searches", "count"),
    ("samplers.build_s", "s"), ("samplers.sample_s", "s"),
    ("samplers.samples", "count"), ("samplers.distinct_samples", "count"),
    ("samplers.distinct_ratio", "1"),
    ("mttkrp.extract_s", "s"), ("mttkrp.sampled_nnz", "count"),
    ("mttkrp.extract_hits_per_search", "nnz/search"), ("mttkrp.downsampled_s", "s"),
    ("mttkrp.exact_s", "s"), ("mttkrp.exact_calls", "count"),
    ("mttkrp.exact_rows_walked", "count"),
    ("schedules.sketched_gram_s", "s"), ("schedules.gather_s", "s"),
    ("schedules.reduction_s", "s"), ("schedules.solve_s", "s"),
    ("grid.collective_s", "s"), ("grid.ledger_adds", "count"),
    ("grid.words_allgather", "words/round"), ("grid.words_reduce_scatter", "words/round"),
    ("grid.words_allreduce", "words/round"), ("grid.words_all_to_allv", "words/round"),
    ("linalg.gram_s", "s"), ("linalg.fit_s", "s"),
    ("als.renormalize_s", "s"), ("als.untraced_s", "s"),
    ("als.trace_coverage", "1"), ("als.trace_overhead_s", "s"),
]


def import_randcp():
    """Import randcp from this checkout's src/, never from elsewhere."""
    if not (SRC / "randcp" / "__init__.py").is_file():
        raise SystemExit("bench: no randcp sources at %s" % SRC)
    sys.path.insert(0, str(SRC))
    import randcp
    if Path(randcp.__file__).resolve().parent != (SRC / "randcp").resolve():
        raise SystemExit("bench: imported randcp from %s, not %s" % (randcp.__file__, SRC))


class Bench:
    """One workload at one seed: the generated tensor and its FROSTT file."""

    def __init__(self, name, w: Workload, seed: int):
        self.name, self.w, self.seed = name, w, seed
        self.idx, self.vals = generate(w.tensor, seed)
        WORK.mkdir(exist_ok=True)
        self.path = WORK / ("%s-s%d-p%d.tns" % (w.tensor.name, seed, os.getpid()))
        write_frostt(self.path, self.idx, self.vals)
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reference = None       # (final_fit, ledger records) of the first result

    def close(self):
        self.path.unlink(missing_ok=True)

    def set_up(self):
        """The path run_trials takes from file to ready state."""
        from randcp import grid, matricization, tensor
        t = tensor.load_frostt(self.path)
        t, perms = tensor.permute_modes(t, self.seed)
        g = grid.optimal_grid(t.dims, self.w.procs)
        part = matricization.partition_to_grid(t, g, self.w.schedule)
        fit_mat = matricization.matricize(t, t.mode_count - 1)
        return dict(tensor=t, perms=perms, grid=g, partition=part, fit_mat=fit_mat)

    def decompose(self, state, record_samples=False):
        """One checked run_als; returns (seconds, result) or None if it failed."""
        from randcp import AlsConfig, run_als
        from checks import check_result
        w = self.w
        cfg = AlsConfig(rank=w.rank, rounds=w.rounds, sampler=w.sampler, samples=w.samples,
                        schedule=w.schedule, procs=w.procs, seed=self.seed,
                        fit_every=w.fit_every, workers=1, record_samples=record_samples)
        self.attempted += 1
        try:
            t0 = perf_counter()
            res = run_als(cfg, **state)
            seconds = perf_counter() - t0
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        fails = check_result(res, self.idx, self.vals, self.w.tensor.dims)
        # Repeats, and the traced run, must reproduce the first result exactly.
        key = (res.final_fit, res.ledger.records())
        if self.reference is None:
            self.reference = key
        elif key != self.reference:
            fails.append("result differs from the first decomposition of this run")
        if fails:
            print("bench: %s seed %d: %s" % (self.name, self.seed, "; ".join(fails)),
                  file=sys.stderr)
            self.correct = False
            self.failed += 1
            return None
        return seconds, res


def comm_metrics(res):
    from randcp.grid import KINDS
    led, rounds, P = res.ledger, res.config.rounds, res.config.procs
    words = np.zeros((rounds, P), dtype=np.int64)
    msgs = np.zeros((rounds, P), dtype=np.int64)
    for r in range(1, rounds + 1):
        for kind in KINDS:
            w, m = led.per_rank(kind, r, P)
            words[r - 1] += w
            msgs[r - 1] += m
    out = {"comm_words": led.words() / rounds,
           "comm_words_max_rank": int(words.max()),
           "comm_messages_max_rank": int(msgs.max())}
    for kind in KINDS:
        out["grid.words_" + kind] = led.words(kind=kind) / rounds
    return out


def run_end_to_end(b: Bench, seconds: float):
    setup_times = []
    state = None
    for _ in range(SETUP_REPEATS):
        state = None  # free the previous state before building the next
        t0 = perf_counter()
        state = b.set_up()
        setup_times.append(perf_counter() - t0)

    times, result = [], None
    start = perf_counter()
    while True:
        out = b.decompose(state)
        if out is not None:
            times.append(out[0])
            result = out[1]
        if perf_counter() - start >= seconds:
            break
    if result is None:
        return None, {}
    comm = comm_metrics(result)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "decompose_s": statistics.median(times),
        "final_fit": float(result.final_fit),
        "comm_words": comm["comm_words"],
        "comm_words_max_rank": comm["comm_words_max_rank"],
        "comm_messages_max_rank": comm["comm_messages_max_rank"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"setup_times": setup_times, "decompose_times": times,
              "fit_history": result.fit_history, "grid_dims": result.grid_dims}
    return metrics, detail


def run_traced(b: Bench):
    from tracing import DECOMPOSE_SPANS, SETUP_SPANS, Tracer
    setup_tr = Tracer()
    with setup_tr.installed(SETUP_SPANS):
        state = b.set_up()
    stored_nnz = state["partition"].stored_nnz()

    plain = b.decompose(state)
    tr = Tracer()
    with tr.installed(DECOMPOSE_SPANS):
        traced = b.decompose(state, record_samples=True)
    if plain is None or traced is None:
        return None, {}
    seconds, res = traced

    # Everything below runs after the traced decomposition, outside every span.
    self_times = tr.self_times()
    covered = sum(self_times.values())
    metrics = {name: 0.0 for name, unit in PER_LAYER if unit == "s"}
    metrics.update(setup_tr.self_times())
    metrics.update(self_times)
    samples = sum(X.shape[0] for X in res.sample_log)
    distinct = sum(np.unique(X, axis=0).shape[0] for X in res.sample_log)
    searches = tr.counters["matricization.key_searches"]
    sampled_nnz = tr.counters["mttkrp.sampled_nnz"]
    comm = comm_metrics(res)
    metrics.update({
        "matricization.stored_nnz": stored_nnz,
        "matricization.key_searches": searches,
        "samplers.samples": samples,
        "samplers.distinct_samples": distinct,
        "samplers.distinct_ratio": distinct / samples if samples else 0.0,
        "mttkrp.sampled_nnz": sampled_nnz,
        "mttkrp.extract_hits_per_search": sampled_nnz / searches if searches else 0.0,
        "mttkrp.exact_calls": tr.counters["mttkrp.exact_calls"],
        "mttkrp.exact_rows_walked": tr.counters["mttkrp.exact_rows_walked"],
        "grid.ledger_adds": tr.counters["grid.ledger_adds"],
        "als.untraced_s": seconds - covered,
        "als.trace_coverage": covered / seconds,
        "als.trace_overhead_s": seconds - plain[0],
    })
    metrics.update({k: v for k, v in comm.items() if k.startswith("grid.")})
    t0 = tr.spans[0][1] if tr.spans else 0.0
    detail = {"decompose_traced_s": seconds, "decompose_untraced_s": plain[0],
              "spans": [[m, s - t0, e - s, p] for m, s, e, p in tr.spans]}
    return metrics, detail


def run(name, w, seed, seconds, trace):
    """One benchmark run; returns (result line dict, detail dict)."""
    b = Bench(name, w, seed)
    try:
        metrics, detail = run_traced(b) if trace else run_end_to_end(b, seconds)
    finally:
        b.close()
    table = PER_LAYER if trace else END_TO_END
    line = {"correct": b.correct, "attempted": b.attempted, "failed": b.failed,
            "metrics": {m: {"value": metrics[m], "unit": u} for m, u in table}
            if metrics else {}}
    return line, detail


def smoke():
    """Every workload at toy size, both modes, every check; exit code 1 on failure."""
    bad = 0
    for name, w in WORKLOADS.items():
        toy = SMOKE[name]
        tw = replace(w, tensor=replace(w.tensor, dims=toy["dims"], support=toy["support"],
                                       components=4),
                     samples=toy["samples"], rounds=3, fit_every=1, procs=8, rank=5)
        for trace in (0, 1):
            line, _ = run(name, tw, seed=1, seconds=0, trace=trace)
            ok = line["correct"] and line["failed"] == 0 and line["metrics"]
            if trace and ok and line["metrics"]["als.trace_coverage"]["value"] > 1.0:
                ok = False
            print("smoke %-16s trace=%d %s attempted=%d failed=%d"
                  % (name, trace, "ok" if ok else "FAILED", line["attempted"], line["failed"]))
            bad += not ok
    return 1 if bad else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at toy size through every check")
    args = ap.parse_args(argv)
    import_randcp()
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required unless --smoke is given")

    line, detail = run(args.workload, WORKLOADS[args.workload], args.seed,
                       args.seconds, args.trace)
    OUT.mkdir(exist_ok=True)
    with open(OUT / ("%s-s%d-t%d.json" % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump({"result": line, "detail": detail}, fh)
    if not line["metrics"]:
        print("bench: no decomposition passed; nothing to report", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
