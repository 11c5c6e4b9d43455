"""Command-line front end: build, simulate, verify, rate, sweep.

Every command is deterministic given its full argument list; all
randomness flows from the seed arguments and timing diagnostics go to
stderr only.  Exit codes: 0 success / structural pass, 1 structural
violations found by verify, 2 usage or I/O errors, or a run out of memory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import fields

from . import codefile, reports
from .channel import DecoderParams
from .experiments import (
    PairStrategy,
    _unit_count,
    estimate_type1,
    estimate_type2,
    run_units,
    verify_structure,
)
from .galaxy import GalaxyParams, build_code, theta_of_k
from .seeding import derive_seed

THREADS_ENV = "GALAXYID_THREADS"
_K_LIST_CAP = 1024  # sweep cells; each builds, verifies and estimates one code


def _threads(args) -> int:
    """Worker count from --threads, else GALAXYID_THREADS, else 1.

    A value that is not an integer >= 1 is rejected with its source named.
    """
    if args.threads is not None:
        value, source = str(args.threads), "--threads"
    else:
        value, source = os.environ.get(THREADS_ENV) or "1", THREADS_ENV
    try:
        threads = int(value)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValueError(f"{source} must be an integer >= 1, got {value!r}")
    return threads


def _params_from_args(args, **fixed) -> GalaxyParams:
    """GalaxyParams from every parsed flag named after one of its fields, plus `fixed`."""
    given = {f.name: getattr(args, f.name) for f in fields(GalaxyParams) if hasattr(args, f.name)}
    return GalaxyParams(**given, **fixed)


def _add_code_params(sub: argparse.ArgumentParser, max_roots: int) -> None:
    """The GalaxyParams flags that build and sweep share; each stores its field."""
    sub.add_argument("--n", type=int, required=True, help="block length / dimension")
    sub.add_argument("--b", type=float, default=0.0, help="leaf radius exponent in [0, 1/4)")
    sub.add_argument("--power", type=float, required=True, help="per-symbol power budget P")
    sub.add_argument("--sigma", type=float, default=1.0, help="noise standard deviation")
    sub.add_argument("--m", type=int, default=None, dest="m_per_level", metavar="M",
                     help="points per spherical code")
    sub.add_argument("--seed", type=int, default=0, dest="master_seed", metavar="SEED",
                     help="master seed")
    sub.add_argument(
        "--r-min-coeff",
        type=float,
        default=None,
        help="raise leaf radius to max(n^b, COEFF*sigma*log2 n); finite-n slab margin",
    )
    sub.add_argument("--max-roots", type=int, default=max_roots)
    sub.add_argument("--probes", type=int, default=200, dest="saturation_probes",
                     metavar="PROBES", help="consecutive rejections = saturation")


def _emit(args, rows: list[dict]) -> None:
    text = reports.render_jsonl(rows) if args.format == "jsonl" else reports.render_csv(rows)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_build(args) -> int:
    params = _params_from_args(args)
    code = build_code(params)
    codefile.save(code, args.out)
    print(f"wrote {args.out}")
    print(f"roots={len(code.roots)} codewords={len(code.codewords)} t_bar={params.t_bar}")
    print(f"theta={params.theta!r} r={params.r!r} spacing={params.spacing!r}")
    print(f"packing_saturated={code.packing_saturated} degraded={code.degraded}")
    return 0


def _rows(command, code, type1_trials, type2_trials, strategy, seed, threads=None, **extra):
    """Report rows of a code: one per estimate run, type I then type II, or one
    row with no estimate when neither runs.  `extra` goes to every row."""
    runs = []
    if type1_trials or type2_trials:  # a row with no estimate needs no decoder
        dec = DecoderParams.from_galaxy(code.params)
    if type1_trials > 0:
        runs.append((estimate_type1(code, dec, type1_trials, seed, threads=threads), ""))
    if type2_trials > 0:
        est = estimate_type2(code, strategy, dec, type2_trials, seed, threads=threads)
        runs.append((est, strategy.mode))
    return [reports.build_row(command, code.params, code, est, pair_mode=mode, **extra)
            for est, mode in runs or [(None, "")]]


def cmd_simulate(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    if not (args.type1 or args.type2):
        raise ValueError("nothing to do: pass --type1 and/or --type2")
    code = codefile.load(args.code)
    threads = _threads(args)
    strategy = PairStrategy(mode=args.pairs, sample_count=args.pair_sample,
                            min_distance=args.min_distance) if args.type2 else None
    rows = _rows("simulate", code, args.trials if args.type1 else 0,
                 args.trials if args.type2 else 0, strategy, args.seed, threads)
    _emit(args, rows)
    return 0


def cmd_verify(args) -> int:
    code = codefile.load(args.code)
    report = verify_structure(code)
    counts = report.counts()
    for name, count in counts.items():
        print(f"{name}: {'ok' if count == 0 else f'{count} violation(s)'}")
    sep = report.separation
    print(
        f"separation: lhs={sep['lhs']!r} strict={sep['strict_holds']} weak={sep['weak_holds']}"
    )
    if args.json:
        doc = {"passed": report.passed, "counts": counts, "separation": sep}
        doc.update((f"{name}_violations", found) for name, found in report.violations().items())
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2, default=float)
            fh.write("\n")
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def _parse_pow2_range(text: str) -> list[int]:
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise ValueError(f"expected --k-pow2 like 3..20, got {text!r}") from exc
    if lo > hi:
        raise ValueError(f"empty --k-pow2 range {text!r}")
    if hi > 1023:  # 2^1024 is past float range
        raise ValueError(f"--k-pow2 exponents must be <= 1023, got {text!r}")
    return [2**j for j in range(lo, hi + 1)]


def cmd_rate(args) -> int:
    if args.code:
        rows = _rows("rate", codefile.load(args.code), 0, 0, None, None)
    else:
        if args.k_pow2:
            ks = _parse_pow2_range(args.k_pow2)
        elif args.k is not None:
            ks = [args.k]
        else:
            raise ValueError("rate needs --code, or --k / --k-pow2 for formula mode")
        rows = []
        for k in ks:
            row = reports.build_row("rate")
            row.update(reports.rate_columns(k, args.b, theta_of_k(k), args.n, args.power))
            rows.append(row)
    _emit(args, rows)
    return 0


def _params_key(p: GalaxyParams) -> str:
    """Every field's repr: the key a sweep cell's estimator seed derives from."""
    return "|".join(repr(getattr(p, f.name)) for f in fields(p))


def cmd_sweep(args) -> int:
    """Build + verify + estimate per k; rows come back in --k-list order.

    Cells are independent: a cell's estimator seed derives from its own
    parameters, so duplicate cells give identical rows whatever the thread
    count.  A trial count past the estimators' cap, or more than _K_LIST_CAP
    values of k, is refused before the first build; a failure to build,
    verify or estimate a cell becomes its error row, and the sweep goes on.
    """
    try:
        ks = [int(s) for s in args.k_list.split(",") if s]
    except ValueError as exc:
        raise ValueError(f"expected --k-list like 8,16,32, got {args.k_list!r}") from exc
    if not ks:
        raise ValueError("--k-list is empty")
    if len(ks) > _K_LIST_CAP:
        raise ValueError(f"--k-list holds {len(ks)} values, more than the cap of {_K_LIST_CAP}")
    for flag, trials in (("--trials-type1", args.trials_type1),
                         ("--trials-type2", args.trials_type2)):
        if trials < 0:
            raise ValueError(f"{flag} must be >= 0, got {trials}")
        if trials:  # the estimators' own refusal, before any cell is built
            try:
                _unit_count(trials)
            except ValueError as exc:
                raise ValueError(f"{flag}: {exc}") from None
    grid = [_params_from_args(args, k=k) for k in ks]
    strategy = PairStrategy(mode=args.pairs)

    def cell(index: int) -> list[dict]:
        params = grid[index]
        try:
            code = build_code(params)
            passed = verify_structure(code).passed
            seed = derive_seed(args.master_seed, "cell", _params_key(params))
            return _rows("sweep", code, args.trials_type1, args.trials_type2, strategy, seed,
                         structure_passed=passed)
        except (ValueError, ArithmeticError) as exc:
            return [reports.build_row("sweep", params, error=str(exc))]

    _emit(args, [row for rows in run_units(cell, len(grid), _threads(args)) for row in rows])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="galaxyid",
        description="Hierarchical spherical identification codes over the AWGN channel",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="construct a codebook and write it to disk")
    _add_code_params(p_build, max_roots=256)
    p_build.add_argument("--k", type=int, required=True, help="radius scale factor (>= 7)")
    p_build.add_argument("--theta", type=float, default=None,
                         help="minimum angle (default from k)")
    p_build.add_argument("--depth", type=int, default=None, dest="t_bar", metavar="DEPTH",
                         help="tree depth override")
    p_build.add_argument(
        "--no-cross-margin",
        action="store_false",
        dest="enforce_cross_galaxy_margin",
        help="do not widen center spacing for the cross-galaxy distance floor",
    )
    p_build.add_argument("--max-attempts", type=int, default=20000,
                         help="consecutive rejections that end a node's spherical code")
    p_build.add_argument("--out", required=True, help="output code file (JSON)")
    p_build.set_defaults(func=cmd_build)

    p_sim = sub.add_parser("simulate", help="Monte Carlo error estimation on a code file")
    p_sim.add_argument("--code", required=True)
    p_sim.add_argument("--type1", action="store_true", help="estimate the miss rate")
    p_sim.add_argument("--type2", action="store_true", help="estimate the false-acceptance rate")
    p_sim.add_argument("--pairs", default="cross-galaxy", choices=PairStrategy.MODES)
    p_sim.add_argument("--pair-sample", type=int, default=None)
    p_sim.add_argument("--min-distance", type=float, default=None)
    p_sim.add_argument("--trials", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--threads", type=int, default=None)
    p_sim.add_argument("--format", default="csv", choices=["csv", "jsonl"])
    p_sim.add_argument("--out", default=None, help="write rows here instead of stdout")
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify", help="exhaustive structural verification")
    p_ver.add_argument("--code", required=True)
    p_ver.add_argument("--json", default=None, help="also write the full report as JSON")
    p_ver.set_defaults(func=cmd_verify)

    p_rate = sub.add_parser("rate", help="rate table from a code file or from formulas")
    p_rate.add_argument("--code", default=None)
    p_rate.add_argument("--n", type=int, default=None)
    p_rate.add_argument("--power", type=float, default=None)
    p_rate.add_argument("--b", type=float, default=0.0)
    p_rate.add_argument("--k", type=int, default=None)
    p_rate.add_argument("--k-pow2", default=None, help="range of exponents, e.g. 3..20")
    p_rate.add_argument("--format", default="csv", choices=["csv", "jsonl"])
    p_rate.add_argument("--out", default=None)
    p_rate.set_defaults(func=cmd_rate)

    p_sweep = sub.add_parser("sweep", help="build+verify+estimate over a grid of k values")
    _add_code_params(p_sweep, max_roots=64)
    p_sweep.add_argument("--k-list", required=True, help="comma-separated k values")
    p_sweep.add_argument("--trials-type1", type=int, default=0)
    p_sweep.add_argument("--trials-type2", type=int, default=0)
    p_sweep.add_argument("--pairs", default="cross-galaxy",
                         choices=[m for m in PairStrategy.MODES if m != "exhaustive-sample"])
    p_sweep.add_argument("--threads", type=int, default=None)
    p_sweep.add_argument("--format", default="csv", choices=["csv", "jsonl"])
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        status = args.func(args)
    except (ValueError, OverflowError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    print(f"[time] {args.command} {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
