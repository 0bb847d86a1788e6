#!/usr/bin/env python3
"""Record a results file from one end-to-end and one traced run per workload.

    python3 bench/record.py bench/results/BENCH_<n>.json [--seed N] [--seconds S]

Run from the repository root.  The file holds the git commit, Python
version, CPU count, seed, each workload's op count and pass count, the
end-to-end metrics (at the reference speed, and as measured, with the
median host slowdown), and the traced run's per-layer table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def run(workload: str, seed: int, seconds: float, traced: int) -> dict:
    detail = BENCH / "out" / f"detail-{workload}-{traced}.json"
    detail.parent.mkdir(exist_ok=True)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(traced),
         "--detail", str(detail)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"error: {workload} trace={traced} exited {proc.returncode}")
    report = json.loads(detail.read_text())
    report["result"] = json.loads(proc.stdout.strip().splitlines()[-1])
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args.seconds = args.seconds or spec["run_seconds"]
    doc = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": {},
    }
    for w in spec["workloads"]:
        plain = run(w["name"], args.seed, args.seconds, 0)
        traced = run(w["name"], args.seed, args.seconds, 1)
        doc["workloads"][w["name"]] = {
            "ops_per_pass": plain["ops_per_pass"],
            "passes": plain["passes"][0],
            "latency_samples": plain["latency_samples"],
            "latency_tail_percentile": plain["latency_tail_percentile"],
            "digest": plain["digest"],
            "correct": plain["result"]["correct"] and traced["result"]["correct"],
            "end_to_end": {k: v["value"] for k, v in plain["metrics"].items()},
            "end_to_end_as_measured": plain["as_measured"],
            "host_slowdown_median": statistics.median(plain["host_slowdown"]),
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "layers": traced["layers"],
            "traced_passes": traced["passes"],
        }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
