"""Command line front end with deterministic JSON output.

Partition literals on the command line are comma-separated parts, e.g.
``3,2``; the empty string is the empty partition.  Every command except
``filter plethysm`` prints a single JSON document of the shape

    {"command": ..., "inputs": ..., "output": ..., "elapsed_ms": ...}

where ``output`` is byte-identical across runs for identical inputs.
``filter plethysm`` is a line filter: it reads one JSON partition array per
line from stdin and echoes the ones that pass.

Each kind of ``expand`` {product, sxp, plethysm} and ``filter`` {lr, sxp,
plethysm} is its own subparser and takes exactly the flags it reads, so a
flag of another kind is refused.  The parser is built once per process, at
import (``PARSER``), and every ``main`` call parses with it; argparse keeps
no state between parses.

Exit codes: 0 success, 1 verification or internal failure, 2 usage error.
Every usage error, argparse's own included, and an input nesting past the
recursion limit print one ``error: ...`` line.
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main prints it as the one "error: ..." line
        raise ValueError(message)


def _ms_since(started: float) -> float:
    return round((time.perf_counter() - started) * 1000, 3)


# Each _cmd_* returns (inputs, output), or (inputs, output, phase_ms), for
# main to print; a usage error raises ValueError.
def _cmd_expand(args: argparse.Namespace) -> tuple[dict, dict]:
    if args.kind == "sxp":
        inputs = {"kind": "sxp", "n": args.n, "lam": args.lam.to_list()}
        return inputs, sxp_plethysm(args.n, args.lam).to_json_obj()
    inputs = {"kind": args.kind, "mu": args.mu.to_list(), "nu": args.nu.to_list()}
    if args.kind == "product":
        expansion = multi_schur_product([args.mu, args.nu])
    else:  # plethysm
        expansion = schur_plethysm(args.mu, args.nu)
    return inputs, expansion.to_json_obj()


def _cmd_filter(args: argparse.Namespace) -> tuple[dict, dict] | None:
    if args.kind == "lr":
        corners = corner_sum(args.mu)
        output = {
            "theta": ideal_complement(corners).to_list(),
            "corner_sum": [list(p) for p in sorted(corners)],
        }
        return {"kind": "lr", "factors": [m.to_list() for m in args.mu]}, output
    if args.kind == "sxp":
        output = sxp_upper_bound(args.n, args.lam).to_json_obj()
        if args.candidates:
            output["candidates"] = [
                mu.to_list() for mu in enumerate_candidates(args.n, args.lam)
            ]
        return {"kind": "sxp", "n": args.n, "lam": args.lam.to_list()}, output
    # plethysm: line filter over stdin, printing as it reads
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
            raise ValueError(f"bad partition line {line!r}: {exc}") from None
        if plethysm_filter_check(args.nu, lam):
            sys.stdout.write(json.dumps(lam.to_list(), separators=(",", ":")) + "\n")
    return None


def _cmd_stats(args: argparse.Namespace) -> tuple[dict, dict, dict]:
    t0 = time.perf_counter()
    total, after_filter = containment_counts(args.mu, args.nu)
    phases = {"filter": _ms_since(t0)}
    t0 = time.perf_counter()
    support = len(schur_plethysm(args.mu, args.nu))
    phases["support"] = _ms_since(t0)
    output = {
        "total": str(total),
        "after_filter": str(after_filter),
        "actual_support": str(support),
    }
    return {"mu": args.mu.to_list(), "nu": args.nu.to_list()}, output, phases


def _cmd_verify(args: argparse.Namespace) -> tuple[dict, dict]:
    if args.max < 0:
        raise ValueError(f"verify --max must be a degree >= 0, got {args.max}")
    reports = run_scope(args.scope, args.max)
    failed = [r for r in reports if not r.ok]
    output = {
        "checks": [{"scope": r.scope, "cases": r.cases, "ok": r.ok} for r in reports],
        "status": "fail" if failed else "pass",
    }
    if failed:
        output["counterexample"] = failed[0].counterexample
    return {"scope": args.scope, "max_degree": args.max}, output


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="schurkit", description="Exact Schur function products, "
                     "plethysms, and positivity filters.")
    pretty = {"action": "store_true", "help": "indent JSON output"}
    parser.add_argument("--pretty", **pretty)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(group, name, help, func=None):
        # --pretty may also follow any subcommand or kind; SUPPRESS leaves
        # the root's value alone unless it does
        p = group.add_parser(name, help=help)
        p.add_argument("--pretty", default=argparse.SUPPRESS, **pretty)
        p.set_defaults(func=func)  # a kind's func replaces its command's None
        return p

    expand = add(sub, "expand", "print a Schur expansion")
    kinds = expand.add_subparsers(dest="kind", required=True)
    product = add(kinds, "product", "s_mu * s_nu", _cmd_expand)
    expand_sxp = add(kinds, "sxp", "p_n o s_lam", _cmd_expand)
    expand_plethysm = add(kinds, "plethysm", "s_mu o s_nu", _cmd_expand)

    filt = add(sub, "filter", "positivity filters and bounds")
    kinds = filt.add_subparsers(dest="kind", required=True)
    lr = add(kinds, "lr", "bounding shape of a Schur product", _cmd_filter)
    filter_sxp = add(kinds, "sxp", "bounds on the support of p_n o s_lam", _cmd_filter)
    filter_plethysm = add(kinds, "plethysm", "stdin lines that contain nu", _cmd_filter)

    # each kind declares exactly the flags its branch of _cmd_* reads
    lr.add_argument("-m", "--mu", type=parse_partition, action="append", required=True)
    for p in (product, expand_plethysm):
        p.add_argument("-m", "--mu", type=parse_partition, required=True)
    for p in (product, expand_plethysm, filter_plethysm):
        p.add_argument("-v", "--nu", type=parse_partition, required=True)
    for p in (expand_sxp, filter_sxp):
        p.add_argument("-n", type=int, required=True)
        p.add_argument("-l", "--lam", type=parse_partition, required=True)
    filter_sxp.add_argument("--candidates", action="store_true",
                            help="also list every partition passing all sxp filters")

    stats = add(sub, "stats", "pruning statistics for a plethysm support", _cmd_stats)
    stats.add_argument("mu", type=parse_partition)
    stats.add_argument("nu", type=parse_partition)

    verify = add(sub, "verify", "run oracle-equivalence and filter-soundness sweeps",
                 _cmd_verify)
    verify.add_argument("--scope", choices=["all", "lr", "sxp", "plethysm"],
                        default="all")
    verify.add_argument("--max", type=int, default=6, metavar="DEGREE")
    return parser


PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = PARSER.parse_args(argv)
        started = time.perf_counter()
        result = args.func(args)
    except NonIntegralResultError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return FAILURE
    except (ValueError, TypeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    except RecursionError:  # the LR walk nests a frame per letter of a factor
        sys.stderr.write("error: the input nests too deep for the walk\n")
        return USAGE_ERROR
    if result is None:  # filter plethysm printed its own lines
        return 0
    inputs, output, *phase_ms = result
    doc = {
        "command": args.command,
        "inputs": inputs,
        "output": output,
        "elapsed_ms": _ms_since(started),
    }
    if phase_ms:  # timings sit outside the deterministic payload
        doc["phase_ms"] = phase_ms[0]
    layout = {"indent": 2} if args.pretty else {"separators": (",", ":")}
    sys.stdout.write(json.dumps(doc, **layout) + "\n")
    return FAILURE if output.get("status") == "fail" else 0  # only verify has one


if __name__ == "__main__":
    sys.exit(main())
