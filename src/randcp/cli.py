"""Command-line entry points: decomposition runs, oracle verification
suites, and communication-ledger reports."""

import argparse
import os
import sys

import numpy as np

from . import grid as gridmod
from . import verify as verifymod
from .als import PAIRS, SAMPLERS, SCHEDULES, AlsConfig, run_als, run_trials
from .grid import ledger_report
from .tensor import load_frostt, permute_modes, write_matrix


def _positive_int(text):
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError("expected a positive integer, got %r" % text)
    return n


def _parse_grid(text):
    try:
        dims = tuple(int(x) for x in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError("grid must look like P1xP2x..., got %r" % text)
    if any(d < 1 for d in dims):
        raise argparse.ArgumentTypeError("grid dims must be positive")
    return dims


def build_parser():
    p = argparse.ArgumentParser(prog="randcp",
                                description="Randomized sparse tensor CP decomposition "
                                            "on a simulated processor grid")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decompose", help="run ALS decomposition trials")
    d.add_argument("--tensor", required=True, help="FROSTT .tns input path")
    d.add_argument("--rank", type=int, required=True)
    d.add_argument("--rounds", type=int, default=40)
    d.add_argument("--sampler", choices=SAMPLERS, default="exact")
    d.add_argument("--samples", type=int, default=0, help="sample count J per solve")
    d.add_argument("--schedule", choices=SCHEDULES, default="tensor-stationary")
    grp = d.add_mutually_exclusive_group()
    grp.add_argument("--grid", type=_parse_grid, default=None, help="explicit P1xP2x... grid")
    grp.add_argument("--procs", type=_positive_int, default=1,
                     help="simulated rank count (auto grid)")
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--trials", type=_positive_int, default=1)
    d.add_argument("--log-transform", action="store_true")
    d.add_argument("--no-permute", action="store_true",
                   help="skip the load-balancing index permutation")
    d.add_argument("--out", default=None, help="output directory for factors and reports")
    d.add_argument("--fit-every", type=int, default=5,
                   help="fit every N rounds and after the last; 0 fits never")
    d.add_argument("--workers", type=_positive_int,
                   default=os.environ.get("RANDCP_WORKERS", "1"),
                   help="threads per kernel (default $RANDCP_WORKERS or 1)")

    v = sub.add_parser("verify", help="run oracle verification suites")
    v.add_argument("--suite", required=True,
                   choices=sorted(verifymod.SUITES) + ["all"])
    v.add_argument("--seed", type=int, default=0)

    c = sub.add_parser("comm-report", help="run one round of each of the five sampler/"
                       "schedule pairs and print the ledgers")
    c.add_argument("--tensor", required=True)
    c.add_argument("--rank", type=_positive_int, default=8)
    c.add_argument("--samples", type=_positive_int, default=1 << 10)
    c.add_argument("--procs", type=_positive_int, default=8)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--log-transform", action="store_true")
    return p


def _cfg_from_args(args):
    return AlsConfig(rank=args.rank, rounds=args.rounds, tensor_path=args.tensor,
                     sampler=args.sampler, samples=args.samples, schedule=args.schedule,
                     grid_dims=args.grid, seed=args.seed,
                     procs=int(np.prod(args.grid)) if args.grid else args.procs,
                     fit_every=args.fit_every, log_transform=args.log_transform,
                     permute=not args.no_permute, workers=args.workers)


def cmd_decompose(args) -> int:
    cfg = _cfg_from_args(args)
    try:
        cfg.validate()
    except ValueError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    try:
        results = run_trials(cfg, args.trials)
    except Exception as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    fits = np.array([r.final_fit for r in results])
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for t, res in enumerate(results):
            tdir = os.path.join(args.out, "trial%d" % t)
            os.makedirs(tdir, exist_ok=True)
            for j, U in enumerate(res.factors):
                write_matrix(os.path.join(tdir, "factor_mode%d.bin" % j), U)
            write_matrix(os.path.join(tdir, "sigma.bin"), res.sigma)
            with open(os.path.join(tdir, "summary.txt"), "w") as fh:
                fh.write(res.summary() + "\n")
            with open(os.path.join(tdir, "ledger.txt"), "w") as fh:
                fh.write(ledger_report(res.ledger, P=int(np.prod(res.grid_dims))) + "\n")
    print("base seed %d; per-trial init streams keyed by (seed, trial)" % args.seed)
    for t, res in enumerate(results):
        print("trial %d final_fit %.6f" % (t, res.final_fit))
    print("final fit over %d trials: mean %.6f min %.6f max %.6f"
          % (len(fits), fits.mean(), fits.min(), fits.max()))
    return 0


def cmd_verify(args) -> int:
    names = sorted(verifymod.SUITES) if args.suite == "all" else [args.suite]
    ok = True
    for name in names:
        print("suite %s (seed %d)" % (name, args.seed))
        ok &= verifymod.run_suite(name, seed=args.seed)
    print("verification %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def cmd_comm_report(args) -> int:
    try:
        tensor = load_frostt(args.tensor, log_transform=args.log_transform)
    except Exception as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    tensor, _ = permute_modes(tensor, args.seed)
    grid = gridmod.optimal_grid(tensor.dims, args.procs)
    print("tensor dims %s nnz %d; grid %s%s"
          % (tensor.dims, tensor.nnz, grid.grid_dims,
             " (warning: infeasible factorization)" if grid.warning else ""))
    R = args.rank
    print("analytic exact tensor-stationary words/round (all ranks): %d"
          % gridmod.ts_exact_round_words_total(grid, R))
    print("analytic accumulator gather words/solve (all ranks, sts): %d"
          % gridmod.as_gather_words_total_per_solve(args.samples, R, grid.N, grid.P))
    rc = 0
    for sampler, schedule in PAIRS:
        cfg = AlsConfig(rank=R, rounds=1, tensor_path=None, sampler=sampler,
                        samples=args.samples, schedule=schedule, procs=args.procs,
                        seed=args.seed, fit_every=0, permute=False)
        try:
            res = run_als(cfg, tensor=tensor, grid=grid)
        except Exception as e:
            print("error: %s / %s: %s" % (sampler, schedule, e), file=sys.stderr)
            rc = 1
            continue
        print("--- %s / %s ---" % (sampler, schedule))
        print(ledger_report(res.ledger, P=grid.P))
    return rc


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "decompose":
        return cmd_decompose(args)
    if args.command == "verify":
        return cmd_verify(args)
    if args.command == "comm-report":
        return cmd_comm_report(args)
    return 2


if __name__ == "__main__":
    sys.exit(main())
