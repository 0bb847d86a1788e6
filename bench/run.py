#!/usr/bin/env python3
"""Benchmark for schurkit.

    python3 bench/run.py --workload {product,plethysm,sxp,verify} \\
        --seed N --seconds S --trace {0,1} [--detail FILE]

Run it from the repository root; it imports schurkit from ``src/`` of the
same checkout and refuses to run without it.  The benchmark is one
single-threaded closed-loop client: it calls ``schurkit.cli.main(argv)``
in-process on the workload's seeded op list, one op after another, and
captures stdout.  Before every op it clears every ``functools.lru_cache``
found by attribute on the ``schurkit.*`` modules, so each op costs what a
fresh ``schurkit`` invocation costs after start-up.  A pass runs the whole op
list once; passes repeat until ``--seconds`` have elapsed.

Times are reported at a fixed reference host speed: before every op,
outside its timing, the benchmark times a fixed loop that does not touch
schurkit, and scales each pass's times by ``REFERENCE_S`` over the loop's
median time in that pass.  The wall times as measured go to ``--detail``.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` spends half the
time untraced and half traced and reports the per-layer metrics.  Metric
names and units come from BENCHMARK.json.  The last line of stdout is the
result object; a summary goes to stderr.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_LAUNCHES = 11
SETUP_CODE = "import schurkit.cli as cli; cli.build_parser()"
# The shared host changes speed by half or more over seconds to minutes, and
# every wall time moves with it.  REFERENCE_S is the reference loop's time at
# the reference speed (about its median on the 2-vCPU host the baseline was
# recorded on); a time t measured while the loop takes r is reported as
# t * REFERENCE_S / r.
REFERENCE_S = 0.0005
REFERENCE_ITERATIONS = 7000
REFERENCE_PER_PASS = 120  # at least this many loop timings per pass


def load_cli():
    if not (SRC / "schurkit" / "cli.py").is_file():
        raise SystemExit(f"error: no schurkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import schurkit.cli

    if SRC not in Path(schurkit.cli.__file__).resolve().parents:
        raise SystemExit(f"error: imported schurkit from {schurkit.cli.__file__}")
    return schurkit.cli


def clear_caches() -> None:
    for mod in spans.schurkit_modules():
        for value in list(vars(mod).values()):
            if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                value.cache_clear()


def time_reference() -> float:
    """Wall time of a fixed loop of small-integer arithmetic; it allocates
    next to nothing, so schurkit's heap and caches do not change it."""
    t0 = perf_counter()
    s = 0
    for i in range(REFERENCE_ITERATIONS):
        s += i * i % 7
    return perf_counter() - t0


def run_op(cli, argv: list[str]) -> tuple[object, str]:
    """(exit code or exception text, captured stdout) of one CLI call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an op that raises counts as failed
            code = f"{type(exc).__name__}: {exc}"
    return code, buf.getvalue()


class Passes:
    """Whole passes over the op list, run until a deadline.

    Every sample after the first pass must exit 0 and match ``expected``
    (the first pass's outputs unless given) byte for byte, ``elapsed_ms``
    aside; ``bad`` counts the samples per op that do not.  Op latencies are
    kept as measured, with one scale per pass to the reference speed.
    """

    def __init__(self, cli, ops: list[list[str]], tracer=None, expected=None):
        self.cli, self.ops, self.tracer = cli, ops, tracer
        self.expected: list[str] | None = expected
        self.walls: list[float] = []  # seconds per pass
        self.latencies: list[list[float]] = []  # seconds per op, per pass
        self.scales: list[float] = []  # REFERENCE_S / reference loop time, per pass
        self.ref_per_op = -(-REFERENCE_PER_PASS // len(ops))
        self.first_texts: list[str] = []
        self.first_codes: list[object] = []
        self.bad = [0] * len(ops)

    def run(self, seconds: float) -> "Passes":
        deadline = perf_counter() + seconds
        while not self.walls or perf_counter() < deadline:
            self._one_pass()
        return self

    def _one_pass(self) -> None:
        first = not self.walls
        lat, ref = [], []
        started = perf_counter()
        for i, argv in enumerate(self.ops):
            clear_caches()
            ref.extend(time_reference() for _ in range(self.ref_per_op))
            if self.tracer:
                self.tracer.begin_op(len(self.walls) * len(self.ops) + i)
            t0 = perf_counter()
            code, text = run_op(self.cli, argv)
            lat.append(perf_counter() - t0)
            if self.tracer:
                self.tracer.end_op()
            if first:
                self.first_texts.append(text)
                self.first_codes.append(code)
            if self.expected is not None and (
                code != 0 or checks.strip_elapsed(text) != self.expected[i]
            ):
                self.bad[i] += 1
        self.walls.append(perf_counter() - started)
        self.latencies.append(lat)
        self.scales.append(REFERENCE_S / statistics.median(ref))
        if self.expected is None:
            self.expected = [checks.strip_elapsed(t) for t in self.first_texts]

    @property
    def samples(self) -> int:
        return len(self.walls) * len(self.ops)

    def samples_s(self, scaled: bool = True) -> list[float]:
        """Every op latency of every pass, in seconds."""
        return [
            x * (scale if scaled else 1.0)
            for lat, scale in zip(self.latencies, self.scales)
            for x in lat
        ]

    def pass_busy_s(self) -> float:
        """Median over passes of the time spent inside ``cli.main``."""
        return statistics.median(sum(lat) * s for lat, s in zip(self.latencies, self.scales))

    def throughput(self) -> float:
        return len(self.ops) / self.pass_busy_s()

    def tail(self, scaled: bool = True) -> float:
        """The sample with 10 samples per pass above it: percentile
        ``tail_percentile`` of all samples, the highest that leaves 10 ops of
        a pass above it."""
        samples = sorted(self.samples_s(scaled))
        return samples[max(len(samples) - 10 * len(self.walls) - 1, 0)]


def tail_percentile(ops: int) -> float:
    return round(100.0 * max(ops - 10, 0) / ops, 2)


def measure_setup() -> tuple[float, float]:
    """Median time of fresh interpreters importing schurkit.cli and building
    the parser, scaled to the reference speed and as measured; one extra
    first launch warms the bytecode cache.  The reference loop runs five
    times before each launch."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, ref = [], []
    for _ in range(SETUP_LAUNCHES + 1):
        ref.extend(time_reference() for _ in range(5))
        t0 = perf_counter()
        # no timeout: with one, Popen.wait polls with growing sleeps and the
        # measured time snaps to the polling schedule
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        times.append(perf_counter() - t0)
    wall = statistics.median(times[1:])
    return wall * REFERENCE_S / statistics.median(ref), wall


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(tracer: spans.Tracer, ops: int, scale: float) -> tuple[dict, dict]:
    """Per-op averages over the traced ops, times scaled by ``scale`` to the
    reference speed, and the per-layer totals as measured."""
    totals = tracer.layer_totals()
    counts = tracer.counts
    values: dict[str, float] = {}
    for layer, t in totals.items():
        values[f"{layer}.calls"] = t["calls"] / ops
        values[f"{layer}.busy_ms"] = 1000.0 * scale * t["busy_s"] / ops
        values[f"{layer}.self_ms"] = 1000.0 * scale * t["self_s"] / ops
    for layer, _, _, count in spans.SPAN_LAYERS:
        if layer not in tracer.installed:
            continue
        if count == "nonzero":
            values[f"{layer}.nonzero_ratio"] = _ratio(
                counts[f"{layer}.nonzero"], totals[layer]["calls"]
            )
        elif count == "cases":
            values[f"{layer}.cases"] = counts[f"{layer}.cases"] / ops
    for layer in spans.CACHED_LAYERS:
        if layer in tracer.installed:
            values[f"{layer}.cache_hit_ratio"] = _ratio(
                tracer.cache_hits[layer], tracer.cache_lookups[layer]
            )
    for layer, _, _ in spans.COUNTED_GENERATORS:
        if layer in tracer.installed:
            values[f"{layer}.yielded"] = counts[f"{layer}.yielded"] / ops
    if {"positivity.enumerate_candidates", "schur.sxp_plethysm"} <= tracer.installed:
        candidates = counts["positivity.enumerate_candidates.candidates"]
        values["positivity.candidates"] = candidates / ops
        values["positivity.sxp_precision"] = _ratio(counts["schur.sxp_plethysm.terms"], candidates)
    return values, totals


def _ratio(num: float, den: float) -> float:
    """num / den, or 0.0 when the layer did no work of this kind."""
    return num / den if den else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail", type=Path, help="also write a detailed JSON report here")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((BENCH / "reference.json").read_text())
    cli = load_cli()
    ops = workloads.WORKLOADS[args.workload](args.seed)

    detail: dict = {}
    setup_s, setup_wall_s = (None, None) if args.trace else measure_setup()
    gc.collect()
    if args.trace:
        plain = Passes(cli, ops).run(args.seconds / 2)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = Passes(cli, ops, tracer, plain.expected).run(args.seconds / 2)
        finally:
            tracer.uninstall()
        runs = [plain, traced]
    else:
        plain = Passes(cli, ops).run(args.seconds)
        rss = peak_rss_mb()
        runs = [plain]

    # correctness, outside the timed region
    ok = checks.check_pass(ops, plain.first_texts, plain.first_codes)
    attempted = sum(r.samples for r in runs)
    failed = sum(
        bad if good else len(r.walls) for r in runs for good, bad in zip(ok, r.bad)
    )
    digests = [checks.digest(r.first_texts) for r in runs]
    ref = reference.get(args.workload, {})
    expected = ref.get("digest") if ref.get("seed") in (None, args.seed) else None
    correct = (
        failed == 0
        and len(set(digests)) == 1
        and (expected is None or digests[0] == expected)
    )

    if args.trace:
        traced_ops = traced.samples
        values, totals = layer_metrics(tracer, traced_ops, statistics.median(traced.scales))
        values["cli.output_bytes"] = statistics.mean(len(t.encode()) for t in plain.first_texts)
        values["tracing.overhead_frac"] = traced.pass_busy_s() / plain.pass_busy_s() - 1.0
        accounted = sum(t["self_s"] for t in totals.values())
        values["trace.accounted_frac"] = accounted / sum(map(sum, traced.latencies))
        detail["layers"] = {
            layer: {"calls": t["calls"], "busy_ms": round(1000 * t["busy_s"], 3),
                    "self_ms": round(1000 * t["self_s"], 3)}
            for layer, t in totals.items()
        }
        detail["absent_layers"] = tracer.absent
        detail["spans"] = len(tracer.span_start)
        tracer.write(BENCH / "out" / f"spans-{args.workload}")
        metric_specs = spec["per_layer"]
    else:
        lat = plain.samples_s()
        values = {
            "setup_s": setup_s,
            "throughput_ops_s": plain.throughput(),
            "latency_p50_ms": 1000.0 * statistics.median(lat),
            "latency_tail_ms": 1000.0 * plain.tail(),
            "ok_frac": 1.0 - failed / attempted,
            "peak_rss_mb": rss,
        }
        wall = plain.samples_s(scaled=False)
        detail["as_measured"] = {
            "setup_s": setup_wall_s,
            "throughput_ops_s": len(ops) / statistics.median(map(sum, plain.latencies)),
            "latency_p50_ms": 1000.0 * statistics.median(wall),
            "latency_tail_ms": 1000.0 * plain.tail(scaled=False),
        }
        metric_specs = spec["end_to_end"]

    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in metric_specs
        if m["name"] in values
    }
    missing = [m["name"] for m in metric_specs if m["name"] not in values]
    detail.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        ops_per_pass=len(ops), passes=[len(r.walls) for r in runs],
        pass_seconds=[[round(w, 4) for w in r.walls] for r in runs],
        host_slowdown=[round(1.0 / x, 4) for r in runs for x in r.scales],
        latency_samples=plain.samples, latency_tail_percentile=tail_percentile(len(ops)),
        digest=digests[0], digests_agree=len(set(digests)) == 1, reference_digest=expected,
        failed_ops=[" ".join(o) for o, good in zip(ops, ok) if not good],
        missing_metrics=missing, peak_rss_mb_at_exit=peak_rss_mb(),
        python=platform.python_version(), nproc=os.cpu_count(),
    )
    _summary(detail, metrics)
    if args.detail:
        detail["metrics"] = metrics
        args.detail.write_text(json.dumps(detail, indent=1) + "\n")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def _summary(detail: dict, metrics: dict) -> None:
    err = sys.stderr
    err.write(
        f"{detail['workload']} seed={detail['seed']} trace={detail['trace']}: "
        f"{detail['ops_per_pass']} ops/pass, passes={detail['passes']}, "
        f"latency samples={detail['latency_samples']}, "
        f"tail=p{detail['latency_tail_percentile']}, digest={detail['digest']}"
        f" (reference {detail['reference_digest']}), host slowdown (reference loop"
        f" time / REFERENCE_S) median {statistics.median(detail['host_slowdown']):.3f}\n"
    )
    for name in ("failed_ops", "missing_metrics", "absent_layers"):
        if detail.get(name):
            err.write(f"{name}: {detail[name]}\n")
    for name, m in metrics.items():
        err.write(f"  {name:40s} {m['value']:.6g} {m['unit']}\n")


if __name__ == "__main__":
    sys.exit(main())
