"""Command-line interface.

Subcommands:

* recover:        run one recovery experiment against a seeded oracle
* verify-bounds:  sweep the character-sum bounds, emit CSV
* quantum:        simulate the k-copy identification measurement
* bench:          grid of recovery runs with query/work accounting

Reports go to stdout (JSON or CSV; --out additionally writes a file),
logs and errors to stderr.  Exit codes: 0 success, 1 semantic failure
(recovery mismatch, bound violation), 2 usage errors and budget refusals.
Identical flags and seed give byte-identical reports; --no-timing drops
the wall-time fields so outputs are reproducible, and --threads never
changes any output, only how scans are partitioned.  Field names are
frozen in SCHEMA.md.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
from pathlib import Path

from . import charsum, quantum, reconstruct
from .ffield import PrimeModulus
from .limits import DEFAULT_OP_BUDGET, BudgetExceeded
from .oracle import OracleSession
from .poly import MonicPoly, is_squarefree, parse_poly, poly_index, random_squarefree

# CLI name -> solver on `reconstruct`; `recover` reports short as "short-window".
# Solvers are looked up at call time, so wrappers installed on the module
# afterwards (a tracer, a profiler) see every call.
SOLVERS = {
    "brute": "brute_force_recover",
    "short": "short_window_recover",
    "two-stage": "two_stage_recover",
}
ALGORITHMS = tuple(SOLVERS)
LEMMAS = tuple(charsum.SWEEPS)


def _err(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _emit(text: str, out: str | None) -> None:
    # the file first: a path that cannot be written leaves stdout empty
    if out is not None:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise ValueError(f"cannot write --out {out}: {exc.strerror or exc}") from None
    sys.stdout.write(text)


def _emit_report(payload: dict, args: argparse.Namespace) -> None:
    # JSON with --json, otherwise one `key: value` line per field in the same order
    if args.json:
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = "".join(f"{key}: {json.dumps(value)}\n" for key, value in payload.items())
    _emit(text, args.out)


def _load_hidden(text: str, modulus: PrimeModulus, d: int, seed: int) -> MonicPoly:
    if text == "random":
        return random_squarefree(modulus, d, random.Random(seed))
    hidden = parse_poly(text, modulus, degree=d)
    if not is_squarefree(hidden):
        raise ValueError(f"hidden polynomial {text!r} is not square-free")
    return hidden


# ----------------------------------------------------------------------
# recover
# ----------------------------------------------------------------------


def cmd_recover(args: argparse.Namespace) -> int:
    modulus = PrimeModulus(args.p)
    if args.d < 1:
        raise ValueError("d must be at least 1")
    hidden = _load_hidden(args.hidden, modulus, args.d, args.seed)
    if args.reps < 1 or (args.reps > 1 and args.reps % 2 == 0):
        raise ValueError("--reps must be 1 or a positive odd integer")
    session = OracleSession(hidden, gamma=args.gamma, rng_seed=args.seed)
    report = getattr(reconstruct, SOLVERS[args.algo])(
        session, args.d, threads=args.threads, budget=args.budget, reps=args.reps
    )

    match = report.recovered == hidden
    payload = {
        "p": args.p,
        "d": args.d,
        "seed": args.seed,
        "gamma": args.gamma,
        "reps": args.reps,
        "hidden": str(hidden),
        "match": match,
        "query_lower_bound": reconstruct.query_lower_bound(modulus, args.d),
    }
    payload.update(report.to_dict(include_timing=not args.no_timing))

    _emit_report(payload, args)
    return 0 if match else 1


# ----------------------------------------------------------------------
# verify-bounds
# ----------------------------------------------------------------------


def _bound_tables(args: argparse.Namespace) -> list[charsum.BoundTable]:
    # the tables of each lemma in report order; --p replaces each sweep's primes
    primes = (tuple(args.p),) if args.p else ()
    tables: list[charsum.BoundTable] = []
    for lemma in (args.lemma,) if args.lemma else LEMMAS:
        sweep = getattr(charsum, charsum.SWEEPS[lemma])
        tables += sweep(*primes, seed=args.seed, threads=args.threads, budget=args.budget)
    return tables


def _tables_to_csv(tables: list[charsum.BoundTable]) -> str:
    lines = ["lemma,p,d,params,measured,bound,pass"]
    for table in tables:
        head = f"{table.lemma},{table.p},"
        lines += [
            f"{head}{d},{params.replace(',', ';')},{measured!r},{bound!r},"
            f"{'pass' if passed else 'fail'}"
            for d, params, measured, bound, passed in zip(
                table.d, table.params, table.measured, table.bound, table.passed)
        ]
    return "\n".join(lines) + "\n"


def cmd_verify_bounds(args: argparse.Namespace) -> int:
    if args.p == []:
        raise ValueError("--p needs at least one prime")
    for p in args.p or ():
        PrimeModulus(p)  # validate every prime before any sweep runs
    tables = _bound_tables(args)
    _emit(_tables_to_csv(tables), args.out)
    violations = [
        f"  {t.lemma} p={t.p} d={d} {params}: measured={measured} bound={bound}"
        for t in tables
        for d, params, measured, bound, passed in zip(t.d, t.params, t.measured, t.bound, t.passed)
        if not passed
    ]
    if violations:
        _err(f"{len(violations)} bound violation(s)")
        for line in violations[:20]:
            _err(line)
        return 1
    return 0


# ----------------------------------------------------------------------
# quantum
# ----------------------------------------------------------------------


def cmd_quantum(args: argparse.Namespace) -> int:
    modulus = PrimeModulus(args.p)
    if args.d < 1:
        raise ValueError("d must be at least 1")
    hidden = _load_hidden(args.hidden, modulus, args.d, args.seed)
    # choose_k also vets epsilon, which the report and the regime note use under --k too
    default_k = quantum.choose_k(args.d, args.epsilon)
    k = args.k if args.k is not None else default_k
    if k < 1:
        raise ValueError("k must be at least 1")
    gram = quantum.gram_matrix(modulus, args.d, k, budget=args.budget)
    if args.d > args.p ** (0.5 - min(args.epsilon, 0.5)):
        print(
            f"note: d={args.d} exceeds p^(1/2-epsilon); the analysis regime "
            "does not apply at this size",
            file=sys.stderr,
        )
    sigma = quantum.sigma_2d(gram)
    dist = quantum.measurement_distribution(hidden, gram)

    payload = {
        "p": args.p,
        "d": args.d,
        "epsilon": args.epsilon,
        "hidden": str(hidden),
        "k": k,
        "sigma_2d": sigma,
        "sigma_bound": quantum.sigma_bound(modulus, args.d),
        "lambda_max": dist.lambda_max,
        "alpha": dist.alpha,
        "one_minus_alpha_times_p": (1.0 - dist.alpha) * args.p,
        "p_correct": dist.outcomes[poly_index(hidden)],
        "residual_mass": dist.residual_mass,
    }
    _emit_report(payload, args)
    return 0


# ----------------------------------------------------------------------
# bench
# ----------------------------------------------------------------------


def cmd_bench(args: argparse.Namespace) -> int:
    if args.seeds < 1:
        raise ValueError("--seeds must be at least 1")
    if not args.p:
        raise ValueError("--p needs at least one prime")
    if args.algos == []:
        raise ValueError("--algos needs at least one algorithm")
    algos = args.algos or list(ALGORITHMS)
    columns = "p,d,algo,seeds,status,success,median_queries,work"
    lines = [columns if args.no_timing else columns + ",median_ms"]
    worst_failure = 0
    for p in args.p:
        modulus = PrimeModulus(p)
        for algo in algos:
            queries, works, times, successes = [], [], [], 0
            for seed in range(args.seeds):
                hidden = random_squarefree(modulus, args.d, random.Random(seed))
                session = OracleSession(hidden, rng_seed=seed)
                try:
                    report = getattr(reconstruct, SOLVERS[algo])(
                        session, args.d, threads=args.threads, budget=args.budget
                    )
                except (BudgetExceeded, ValueError):
                    cells = ["skipped", "", "", "", ""]
                    break
                queries.append(report.total_queries)
                works.append(report.work)
                times.append(sum(report.stage_seconds.values()) * 1000.0)
                successes += report.recovered == hidden
            else:  # every seed ran
                if successes < args.seeds:
                    worst_failure = 1
                cells = ["ok", str(successes), str(statistics.median(queries)),
                         str(statistics.median(works)), f"{statistics.median(times):.3f}"]
            row = [str(p), str(args.d), algo, str(args.seeds), *cells]
            lines.append(",".join(row[:-1] if args.no_timing else row))
    _emit("\n".join(lines) + "\n", args.out)
    return worst_failure


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    sub.add_argument("--threads", type=int, default=1, help="scan workers (never changes output)")
    sub.add_argument("--budget", type=int, default=None,
                     help=f"elementary-operation budget (default {DEFAULT_OP_BUDGET})")
    sub.add_argument("--out", default=None, help="also write the report to this file")
    sub.add_argument("--no-timing", action="store_true",
                     help="omit wall-time fields for byte-identical output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hiddenpoly",
        description="Recover a hidden square-free monic polynomial over F_p from "
        "quadratic-character queries; verify character-sum bounds; simulate the "
        "identification measurement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rec = sub.add_parser("recover", help="run one recovery experiment")
    rec.add_argument("--p", type=int, required=True, help="odd prime modulus")
    rec.add_argument("--d", type=int, required=True, help="degree of the hidden polynomial")
    rec.add_argument("--algo", choices=ALGORITHMS, default="two-stage")
    rec.add_argument("--hidden", default="random",
                     help="'random', a polynomial like 'x^2 + 3*x + 5', or coefficients '5,3'")
    rec.add_argument("--gamma", type=float, default=1.0, help="oracle reliability in (1/2, 1]")
    rec.add_argument("--reps", type=int, default=1,
                     help="odd repetition count per point (plurality vote) for noisy oracles")
    rec.add_argument("--json", action="store_true", help="emit the JSON report")
    _add_common(rec)
    rec.set_defaults(func=cmd_recover)

    ver = sub.add_parser("verify-bounds", help="sweep the character-sum bounds, emit CSV")
    ver.add_argument("--lemma", choices=LEMMAS, default=None, help="restrict to one bound")
    ver.add_argument("--p", type=int, nargs="*", default=None,
                     help="override the prime set of the sweep")
    _add_common(ver)
    ver.set_defaults(func=cmd_verify_bounds)

    qua = sub.add_parser("quantum", help="simulate the identification measurement")
    qua.add_argument("--p", type=int, required=True, help="odd prime modulus")
    qua.add_argument("--d", type=int, required=True, help="candidate degree")
    qua.add_argument("--epsilon", type=float, default=0.5, help="target failure parameter")
    qua.add_argument("--k", type=int, default=None, help="override the query-round count")
    qua.add_argument("--hidden", default="random", help="measured polynomial (or 'random')")
    qua.add_argument("--json", action="store_true", help="emit the JSON report")
    _add_common(qua)
    qua.set_defaults(func=cmd_quantum)

    ben = sub.add_parser("bench", help="benchmark the recovery algorithms")
    ben.add_argument("--p", type=int, nargs="*", default=[101, 1009, 10007])
    ben.add_argument("--d", type=int, default=1)
    ben.add_argument("--algos", nargs="*", choices=ALGORITHMS, default=None,
                     help=f"subset of {ALGORITHMS}")
    ben.add_argument("--seeds", type=int, default=5)
    _add_common(ben)
    ben.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors
        return int(exc.code or 0)
    # the one error boundary: bad input and budget refusals print one line, exit 2
    try:
        if args.threads < 1:
            raise ValueError("--threads must be at least 1")
        if args.budget is not None and args.budget < 1:
            raise ValueError("--budget must be at least 1")
        # refused before the work; _emit still reports a file that cannot be written
        if args.out is not None:
            if Path(args.out).is_dir():  # '' is '.'
                raise ValueError(f"cannot write --out {args.out}: Is a directory")
            if not Path(args.out).parent.is_dir():
                raise ValueError(f"cannot write --out {args.out}: No such file or directory")
        return args.func(args)
    except (BudgetExceeded, ValueError) as exc:
        _err(str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
