"""Command line front end with deterministic JSON output.

Partition literals on the command line are comma-separated parts, e.g.
``3,2``; the empty string is the empty partition.  Every command except
``filter plethysm`` prints a single JSON document of the shape

    {"command": ..., "inputs": ..., "output": ..., "elapsed_ms": ...}

where ``output`` is byte-identical across runs for identical inputs.
``filter plethysm`` is a line filter: it reads one JSON partition array per
line from stdin and echoes the ones that pass.

Exit codes: 0 success, 1 verification or internal failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .partitions import Partition, ideal_complement
from .positivity import (
    corner_sum,
    enumerate_candidates,
    plethysm_filter_check,
    sxp_upper_bound,
)
from .schur import (
    NonIntegralResultError,
    multi_schur_product,
    schur_plethysm,
    sxp_plethysm,
)
from .verification import containment_counts, run_scope

USAGE_ERROR = 2
FAILURE = 1


def parse_partition(text: str) -> Partition:
    text = text.strip()
    if not text:
        return Partition()
    try:
        parts = [int(p) for p in text.split(",")]
        return Partition(parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad partition literal {text!r}: {exc}")


def _dump(doc: dict, pretty: bool) -> str:
    if pretty:
        return json.dumps(doc, indent=2) + "\n"
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _result(command: str, inputs: dict, output: dict, started: float) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "output": output,
        "elapsed_ms": round((time.perf_counter() - started) * 1000, 3),
    }


def _cmd_expand(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    if args.kind == "product":
        if args.mu is None or args.nu is None:
            return _usage("expand product needs -m and -v")
        inputs = {"kind": "product", "mu": args.mu.to_list(), "nu": args.nu.to_list()}
        expansion = multi_schur_product([args.mu, args.nu])
    elif args.kind == "sxp":
        if args.n is None or args.lam is None:
            return _usage("expand sxp needs -n and -l")
        inputs = {"kind": "sxp", "n": args.n, "lam": args.lam.to_list()}
        expansion = sxp_plethysm(args.n, args.lam)
    else:  # plethysm
        if args.mu is None or args.nu is None:
            return _usage("expand plethysm needs -m and -v")
        inputs = {"kind": "plethysm", "mu": args.mu.to_list(), "nu": args.nu.to_list()}
        expansion = schur_plethysm(args.mu, args.nu)
    doc = _result("expand", inputs, expansion.to_json_obj(), started)
    sys.stdout.write(_dump(doc, args.pretty))
    return 0


def _cmd_filter(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    if args.kind == "lr":
        if not args.mu:
            return _usage("filter lr needs at least one -m")
        inputs = {"kind": "lr", "factors": [m.to_list() for m in args.mu]}
        corners = corner_sum(args.mu)
        output = {
            "theta": ideal_complement(corners).to_list(),
            "corner_sum": [list(p) for p in sorted(corners)],
        }
        doc = _result("filter", inputs, output, started)
        sys.stdout.write(_dump(doc, args.pretty))
        return 0
    if args.kind == "sxp":
        if args.n is None or args.lam is None:
            return _usage("filter sxp needs -n and -l")
        inputs = {"kind": "sxp", "n": args.n, "lam": args.lam.to_list()}
        bounds = sxp_upper_bound(args.n, args.lam)
        output = bounds.to_json_obj()
        if args.candidates:
            output["candidates"] = [
                mu.to_list() for mu in enumerate_candidates(args.n, args.lam)
            ]
        doc = _result("filter", inputs, output, started)
        sys.stdout.write(_dump(doc, args.pretty))
        return 0
    # plethysm: line filter over stdin
    if args.nu is None:
        return _usage("filter plethysm needs -v")
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        try:
            parts = json.loads(line)
            if not isinstance(parts, list) or any(type(p) is not int for p in parts):
                raise ValueError("expected a JSON array of ints")
            lam = Partition(parts)
        except ValueError as exc:  # json.JSONDecodeError is a ValueError
            sys.stderr.write(f"bad partition line {line!r}: {exc}\n")
            return USAGE_ERROR
        if plethysm_filter_check(args.nu, lam):
            sys.stdout.write(json.dumps(lam.to_list(), separators=(",", ":")) + "\n")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    inputs = {"mu": args.mu.to_list(), "nu": args.nu.to_list()}
    phases = {}
    t0 = time.perf_counter()
    total, after_filter = containment_counts(args.mu, args.nu)
    phases["filter"] = round((time.perf_counter() - t0) * 1000, 3)
    t0 = time.perf_counter()
    support = len(schur_plethysm(args.mu, args.nu))
    phases["support"] = round((time.perf_counter() - t0) * 1000, 3)
    output = {
        "total": str(total),
        "after_filter": str(after_filter),
        "actual_support": str(support),
    }
    doc = _result("stats", inputs, output, started)
    doc["phase_ms"] = phases  # timings sit outside the deterministic payload
    sys.stdout.write(_dump(doc, args.pretty))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.max < 0:
        return _usage(f"verify --max must be a degree >= 0, got {args.max}")
    started = time.perf_counter()
    inputs = {"scope": args.scope, "max_degree": args.max}
    reports = run_scope(args.scope, args.max)
    output = {
        "checks": [
            {"scope": r.scope, "cases": r.cases, "ok": r.ok} for r in reports
        ],
        "status": "pass" if all(r.ok for r in reports) else "fail",
    }
    failed = [r for r in reports if not r.ok]
    if failed:
        output["counterexample"] = failed[0].counterexample
    doc = _result("verify", inputs, output, started)
    sys.stdout.write(_dump(doc, args.pretty))
    return 0 if not failed else FAILURE


def _usage(message: str) -> int:
    sys.stderr.write(f"error: {message}\n")
    return USAGE_ERROR


def _add_global_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # registered on the root parser and again on every subcommand with a
    # SUPPRESS default, so the flag works in either position
    parser.add_argument(
        "--pretty",
        action="store_true",
        default=argparse.SUPPRESS if suppress else False,
        help="indent JSON output",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schurkit",
        description="Exact Schur function products, plethysms, and positivity filters.",
    )
    _add_global_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    expand = sub.add_parser("expand", help="print a Schur expansion")
    expand.add_argument("kind", choices=["product", "sxp", "plethysm"])
    expand.add_argument("-m", "--mu", type=parse_partition, default=None)
    expand.add_argument("-v", "--nu", type=parse_partition, default=None)
    expand.add_argument("-n", type=int, default=None)
    expand.add_argument("-l", "--lam", type=parse_partition, default=None)
    _add_global_flags(expand, suppress=True)
    expand.set_defaults(func=_cmd_expand)

    filt = sub.add_parser("filter", help="positivity filters and bounds")
    filt.add_argument("kind", choices=["lr", "sxp", "plethysm"])
    filt.add_argument(
        "-m", "--mu", type=parse_partition, action="append", default=None
    )
    filt.add_argument("-v", "--nu", type=parse_partition, default=None)
    filt.add_argument("-n", type=int, default=None)
    filt.add_argument("-l", "--lam", type=parse_partition, default=None)
    filt.add_argument(
        "--candidates",
        action="store_true",
        help="also list every partition passing all sxp filters",
    )
    _add_global_flags(filt, suppress=True)
    filt.set_defaults(func=_cmd_filter)

    stats = sub.add_parser(
        "stats", help="pruning statistics for a plethysm support"
    )
    stats.add_argument("mu", type=parse_partition)
    stats.add_argument("nu", type=parse_partition)
    _add_global_flags(stats, suppress=True)
    stats.set_defaults(func=_cmd_stats)

    verify = sub.add_parser(
        "verify", help="run oracle-equivalence and filter-soundness sweeps"
    )
    verify.add_argument(
        "--scope", choices=["all", "lr", "sxp", "plethysm"], default="all"
    )
    verify.add_argument("--max", type=int, default=6, metavar="DEGREE")
    _add_global_flags(verify, suppress=True)
    verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NonIntegralResultError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return FAILURE
    except (ValueError, TypeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
