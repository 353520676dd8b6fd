"""Command-line front end: resistance estimation, property suites, OR demo.

Reports are versioned JSON ("spanforge-report/1"), deterministic for a fixed
seed: all randomness flows through (seed, task-index) substreams and timing
information goes to stderr only, never into the report payload.

Exit codes: 0 success, 1 verification-check failure, 2 input parse error,
3 argument or promise violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from ._linalg import DEFAULT_TOLS, Tolerances
from .algorithms import (
    POSITIVE,
    ThresholdSpec,
    decide_threshold,
    decide_threshold_success_probability,
    witness_estimate,
)
from .qsim import GridSizeError, QueryLedger
from .resistance import (
    EFFECTIVE_GAP,
    REAL_GAP,
    GraphParseError,
    estimate_resistance,
    parse_graph_file,
)
from .spanprog import ProgramSizeError, normalize, or_span_program
from .verify import MAX_DIMS, SUITES, SuiteArgumentError, run_suite, suite_workers

SCHEMA = "spanforge-report/1"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_ARGUMENT_ERROR = 3

# standing methodology notes attached to every report
NOTES = [
    "phase estimation is simulated single-register on an M = 2^ceil(log2(pi/"
    "(Theta sqrt(eps)))) grid, meeting the stated output contract at a "
    "1/sqrt(eps) query factor in place of the log(1/eps) of median "
    "amplification",
    "all query counts are simulated input-oracle queries: 2 per application "
    "of the input-dependent reflection, M-1 applications per M-point phase "
    "estimation, M circuit invocations per M-point amplitude estimation",
]


def _json_safe(value):
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
    return value


def _emit(report: dict, out: Optional[str]) -> None:
    # allow_nan=False turns any unsanitized inf/nan into a loud error instead
    # of nonstandard JSON
    text = json.dumps(report, indent=2, sort_keys=True, default=_json_safe, allow_nan=False)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _tolerances(args) -> Tolerances:
    if args.tolerance is None:
        return DEFAULT_TOLS
    # one knob: the feasibility/membership tolerance; the rank cutoff keeps
    # its default ratio two orders below it
    return Tolerances(rank_rtol=args.tolerance * 1e-2, membership_rtol=args.tolerance)


def _value(value, provenance: str, tolerance: Optional[float] = None) -> dict:
    entry = {"value": _json_safe(value), "provenance": provenance}
    if tolerance is not None:
        entry["tolerance"] = tolerance
    return entry


def cmd_resistance(args, tols: Tolerances) -> int:
    try:
        text = Path(args.graph).read_text()
    except OSError as exc:
        print(f"error: cannot read graph file: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    try:
        g = parse_graph_file(text)
    except GraphParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR

    if not 0.0 < args.eps < 1.0:
        print("error: --eps must lie in (0, 1)", file=sys.stderr)
        return EXIT_ARGUMENT_ERROR
    if args.method == REAL_GAP and args.mu is None:
        print("error: --method real-gap requires --mu", file=sys.stderr)
        return EXIT_ARGUMENT_ERROR

    rng = np.random.default_rng([args.seed, 0])
    ledger = QueryLedger()
    start = time.perf_counter()
    try:
        report = estimate_resistance(
            g, args.eps, args.method, rng, ledger, mu=args.mu, tols=tols
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARGUMENT_ERROR
    elapsed = time.perf_counter() - start

    rel_err = (
        abs(report.estimate - report.exact) / report.exact
        if math.isfinite(report.exact) and report.exact > 0 and math.isfinite(report.estimate)
        else math.inf if math.isfinite(report.exact) != math.isfinite(report.estimate) else 0.0
    )
    payload = {
        "schema": SCHEMA,
        "notes": NOTES,
        "command": "resistance",
        "params": {
            "graph": str(args.graph),
            "eps": args.eps,
            "method": args.method,
            "mu": args.mu,
            "seed": args.seed,
        },
        "graph": {"n": g.n, "m": len(g.edges), "s": g.s + 1, "t": g.t + 1},
        "values": {
            "exact_resistance": _value(report.exact, "laplacian-pseudo-inverse-oracle"),
            "estimate": _value(report.estimate, "simulated-quantum-estimator"),
            "relative_error": _value(rel_err, "derived", tolerance=args.eps),
            "lambda2": _value(report.lambda2, "exact-laplacian-spectrum"),
        },
        "queries": ledger.total,
        "flags": list(report.flags),
        "checks": [
            {
                "name": "estimate-within-eps",
                "passed": bool(rel_err <= args.eps),
                "observed": _json_safe(rel_err),
                "tolerance": args.eps,
                "detail": "holds with probability >= 2/3 per run; not a hard guarantee",
            }
        ],
    }
    _emit(payload, args.out)
    print(f"resistance: done in {elapsed:.2f}s, {ledger.total} queries", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args, tols: Tolerances) -> int:
    if args.suite not in SUITES + ("all",):
        print(f"error: unknown suite {args.suite!r} (choose from {', '.join(SUITES + ('all',))})",
              file=sys.stderr)
        return EXIT_ARGUMENT_ERROR
    start = time.perf_counter()
    try:
        checks = run_suite(args.suite, trials=args.trials, dims=args.dims, seed=args.seed,
                           tols=tols)
    except SuiteArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARGUMENT_ERROR
    elapsed = time.perf_counter() - start
    payload = {
        "schema": SCHEMA,
        "notes": NOTES,
        "command": "verify",
        "params": {
            "suite": args.suite,
            "trials": args.trials,
            "dims": args.dims,
            "seed": args.seed,
        },
        "checks": [
            {
                "name": c.name,
                "passed": c.passed,
                "observed": _json_safe(c.observed),
                "tolerance": c.tolerance,
                "detail": c.detail,
            }
            for c in checks
        ],
        "passed": all(c.passed for c in checks),
    }
    _emit(payload, args.out)
    failed = [c.name for c in checks if not c.passed]
    workers = suite_workers(args.suite, args.trials)
    print(
        f"verify[{args.suite}]: {len(checks) - len(failed)}/{len(checks)} checks passed "
        f"in {elapsed:.2f}s on {workers} worker{'s' if workers > 1 else ''}",
        file=sys.stderr,
    )
    return EXIT_OK if not failed else EXIT_CHECK_FAILED


def cmd_or_demo(args, tols: Tolerances) -> int:
    if not 1 <= args.t <= args.n:
        print("error: need 1 <= t <= n", file=sys.stderr)
        return EXIT_ARGUMENT_ERROR
    if not 0.0 < args.lam < 1.0:
        print("error: --lam must lie in (0, 1)", file=sys.stderr)
        return EXIT_ARGUMENT_ERROR
    if not 0.0 < args.eps < 1.0:
        print("error: --eps must lie in (0, 1)", file=sys.stderr)
        return EXIT_ARGUMENT_ERROR

    n, t = args.n, args.t
    program = or_span_program(n)
    spec = ThresholdSpec(side=POSITIVE, lam=args.lam, w_bound=1.0 / t, w_tilde_bound=float(n))
    start = time.perf_counter()

    def sample_x(rng, weight):
        x = np.zeros(n, dtype=int)
        ones = rng.choice(n, size=weight, replace=False)
        x[ones] = 1
        return tuple(int(b) for b in x)

    runs = []
    low_weight = int(math.floor(args.lam * t))
    for task, weight in enumerate([t, low_weight]):
        rng = np.random.default_rng([args.seed, task])
        x = sample_x(rng, weight)
        ledger = QueryLedger()
        decision = decide_threshold(program, x, spec, rng, ledger, tols)
        exact_success = decide_threshold_success_probability(program, x, spec, tols)
        runs.append(
            {
                "x": "".join(str(b) for b in x),
                "hamming_weight": weight,
                "true_w_plus": _json_safe(1.0 / weight if weight else math.inf),
                "decision": decision,
                "expected_decision": 1 if weight >= t else 0,
                "exact_success_probability": _value(
                    exact_success, "exact-outcome-distribution-summation"
                ),
                "queries": ledger.total,
            }
        )

    # approximate counting via witness estimation on the normalized program
    rng = np.random.default_rng([args.seed, 2])
    weight = max(1, t)
    x = sample_x(rng, weight)
    normalized = normalize(program, tols)
    ledger = QueryLedger()
    est = witness_estimate(
        normalized, x, args.eps, POSITIVE, rng, ledger, tols, w_tilde_bound=1.0
    )
    counting = {
        "x": "".join(str(b) for b in x),
        "hamming_weight": weight,
        "true_w_plus_normalized": n / weight,
        "estimated_w_plus": _json_safe(est.value),
        "estimated_weight": _json_safe(n / est.value),
        "epsilon": args.eps,
        "rounds": est.rounds,
        "queries": est.queries,
    }
    elapsed = time.perf_counter() - start

    payload = {
        "schema": SCHEMA,
        "notes": NOTES,
        "command": "or-demo",
        "params": {"n": n, "t": t, "lam": args.lam, "eps": args.eps, "seed": args.seed},
        "values": {
            "w_plus_bound": _value(1.0 / t, "threshold witness bound 1/t"),
            "w_tilde_minus_bound": _value(float(n), "the one functional gives ||omega A||^2 = n"),
        },
        "threshold_runs": runs,
        "counting_run": counting,
    }
    _emit(payload, args.out)
    print(f"or-demo: done in {elapsed:.2f}s", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spanforge",
        description="Simulate and verify span-program decision/estimation algorithms.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="master seed (per-task substreams)")
    common.add_argument("--tolerance", type=float, default=None,
                        help="override the feasibility tolerance (rank cutoff scales with it)")
    common.add_argument("--out", type=str, default=None, help="write the JSON report here")
    sub = parser.add_subparsers(dest="command", required=True)

    p_res = sub.add_parser("resistance", parents=[common],
                           help="estimate effective resistance from a graph file")
    p_res.add_argument("--graph", type=str, required=True, help="graph file: 'n m s t' then edges")
    p_res.add_argument("--eps", type=float, default=0.2, help="relative accuracy")
    p_res.add_argument("--method", choices=[EFFECTIVE_GAP, REAL_GAP], default=EFFECTIVE_GAP)
    p_res.add_argument("--mu", type=float, default=None,
                       help="lambda2 lower bound (required for real-gap)")
    p_res.set_defaults(func=cmd_resistance)

    p_ver = sub.add_parser("verify", parents=[common], help="run a property suite")
    p_ver.add_argument("--suite", type=str, default="all",
                       help=f"one of: {', '.join(SUITES + ('all',))}")
    p_ver.add_argument("--trials", type=int, default=50, help="number of trials, at least 1")
    p_ver.add_argument("--dims", type=int, default=8,
                       help=f"largest projector dimension of the szegedy suite, 3 to {MAX_DIMS}")
    p_ver.set_defaults(func=cmd_verify)

    p_or = sub.add_parser("or-demo", parents=[common],
                          help="threshold decision and counting on the OR program")
    p_or.add_argument("--n", type=int, default=4)
    p_or.add_argument("--t", type=int, default=2)
    p_or.add_argument("--lam", type=float, default=0.5)
    p_or.add_argument("--eps", type=float, default=0.25)
    p_or.set_defaults(func=cmd_or_demo)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.seed < 0:  # numpy seeds no generator from a negative integer
        print(f"error: --seed must be non-negative, got {args.seed}", file=sys.stderr)
        return EXIT_ARGUMENT_ERROR
    try:
        tols = _tolerances(args)
    except ValueError as exc:
        print(f"error: --tolerance: {exc}", file=sys.stderr)
        return EXIT_ARGUMENT_ERROR
    try:
        return args.func(args, tols)
    except (ProgramSizeError, GridSizeError) as exc:  # refused before anything is allocated
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARGUMENT_ERROR


if __name__ == "__main__":
    sys.exit(main())
