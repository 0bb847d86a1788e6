"""Span tracing of schurkit's layers from outside the package.

The tracer replaces each named function with a wrapper that records a span:
name, start, end, parent span and op id.  It rebinds every ``schurkit.*``
module attribute that holds the same function object, because several
modules import these names directly (``oracle`` binds ``character``,
``schur`` binds ``reconstruct`` and ``sxp_sign``, ``positivity`` binds
``decompose`` and ``partitions_of``).  Spans are kept in flat arrays in
memory, then reduced and written out after the run.  A name that no longer
exists is reported as absent, not wrapped.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (layer, module, function, what to count from the result)
SPAN_LAYERS = (
    ("cli", "schurkit.cli", "main", None),
    ("schur.lr_coefficient", "schurkit.schur", "lr_coefficient", "nonzero"),
    ("schur.pair_product", "schurkit.schur", "_pair_product", None),
    ("schur.power_plethysm", "schurkit.schur", "_power_plethysm", None),
    ("schur.product_coefficient", "schurkit.schur", "_product_coefficient", "nonzero"),
    ("schur.sxp_plethysm", "schurkit.schur", "sxp_plethysm", "terms"),
    ("schur.character", "schurkit.schur", "character", None),
    ("quotients.decompose", "schurkit.quotients", "decompose", None),
    ("quotients.reconstruct", "schurkit.quotients", "reconstruct", None),
    ("quotients.sxp_sign", "schurkit.quotients", "sxp_sign", None),
    ("positivity.enumerate_candidates", "schurkit.positivity", "enumerate_candidates", "candidates"),
    ("positivity.sxp_upper_bound", "schurkit.positivity", "sxp_upper_bound", None),
    ("oracle", "schurkit.oracle", "oracle_product", None),
    ("oracle", "schurkit.oracle", "oracle_power_plethysm", None),
    ("oracle", "schurkit.oracle", "oracle_plethysm", None),
    ("verification", "schurkit.verification", "check_products", "cases"),
    ("verification", "schurkit.verification", "check_sxp", "cases"),
    ("verification", "schurkit.verification", "check_plethysm", "cases"),
)
# generators: their time interleaves with the consumer's, so only the number
# of items yielded is counted
COUNTED_GENERATORS = (("partitions.partitions_of", "schurkit.partitions", "partitions_of"),)
# layers whose lru_cache hit ratio is read from cache_info() around each op
CACHED_LAYERS = ("schur.pair_product", "schur.power_plethysm", "schur.sxp_plethysm")

_RESULT_COUNTS = {
    "nonzero": lambda r: 1 if r else 0,
    "terms": len,
    "candidates": len,
    "cases": lambda r: r.cases,
}


def schurkit_modules() -> list:
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "schurkit" or name.startswith("schurkit."))
    ]


class Tracer:
    def __init__(self) -> None:
        self.layers: list[str] = []  # name table; a span stores an index
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_top = array("b")  # 1 if no enclosing span of the same layer
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: dict[str, int] = defaultdict(int)
        self.cache_hits: dict[str, int] = defaultdict(int)
        self.cache_lookups: dict[str, int] = defaultdict(int)
        self.installed: set[str] = set()
        self.absent: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._cached: dict[str, object] = {}
        self._cache_before: dict[str, tuple[int, int]] = {}
        self._depth: dict[str, list[int]] = {}

    # -- installing and removing wrappers ---------------------------------

    def install(self) -> None:
        for layer, module, attr, count in SPAN_LAYERS:
            fn = self._lookup(layer, module, attr)
            if fn is not None:
                if layer in CACHED_LAYERS:
                    self._cached[layer] = fn
                self._rebind(fn, self._span_wrapper(layer, fn, count))
                self.installed.add(layer)
        for layer, module, attr in COUNTED_GENERATORS:
            fn = self._lookup(layer, module, attr)
            if fn is not None:
                self._rebind(fn, self._counting_wrapper(layer, fn))
                self.installed.add(layer)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _lookup(self, layer: str, module: str, attr: str):
        fn = getattr(sys.modules.get(module), attr, None)
        if fn is None:
            self.absent.append(f"{layer} ({module}.{attr})")
        return fn

    def _rebind(self, original, wrapper) -> None:
        # lru caches stay reachable through the wrapper, so sweeps that clear
        # caches by attribute still find them
        for name in ("cache_clear", "cache_info"):
            if hasattr(original, name):
                setattr(wrapper, name, getattr(original, name))
        wrapper.__wrapped__ = original
        for mod in schurkit_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def _layer_id(self, layer: str) -> int:
        if layer not in self.layers:
            self.layers.append(layer)
        return self.layers.index(layer)

    def _span_wrapper(self, layer: str, fn, count: str | None):
        lid = self._layer_id(layer)
        stack, depth = self._stack, self._depth.setdefault(layer, [0])
        span_layer, span_parent, span_op = self.span_layer, self.span_parent, self.span_op
        span_top, span_start, span_end = self.span_top, self.span_start, self.span_end
        counts, tracer = self.counts, self
        on_result = _RESULT_COUNTS.get(count)
        count_key = f"{layer}.{count}"

        def wrapper(*args, **kwargs):
            idx = len(span_start)
            span_layer.append(lid)
            span_parent.append(stack[-1] if stack else -1)
            span_op.append(tracer.op)
            span_top.append(depth[0] == 0)
            span_end.append(0.0)
            stack.append(idx)
            depth[0] += 1
            span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = perf_counter()
                depth[0] -= 1
                stack.pop()
            if on_result is not None:
                counts[count_key] += on_result(result)
            return result

        return wrapper

    def _counting_wrapper(self, layer: str, fn):
        counts, key = self.counts, f"{layer}.yielded"

        def wrapper(*args, **kwargs):
            n = 0
            try:
                for item in fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                counts[key] += n

        return wrapper

    # -- per-op bookkeeping ------------------------------------------------

    def begin_op(self, op: int) -> None:
        """Call after the caches are cleared and before the op runs."""
        self.op = op
        for layer, fn in self._cached.items():
            info = fn.cache_info()
            self._cache_before[layer] = (info.hits, info.misses)

    def end_op(self) -> None:
        for layer, fn in self._cached.items():
            info = fn.cache_info()
            hits0, misses0 = self._cache_before[layer]
            self.cache_hits[layer] += info.hits - hits0
            self.cache_lookups[layer] += info.hits + info.misses - hits0 - misses0
        self.op = -1

    # -- reduction ---------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, busy seconds (spans not nested in a span of the
        same layer) and self seconds (duration minus the time covered by
        child spans)."""
        n = len(self.span_start)
        child = [0.0] * n
        start, end, parent = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        totals = {
            layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for layer in self.layers
        }
        for i in range(n):
            t = totals[self.layers[self.span_layer[i]]]
            dur = end[i] - start[i]
            t["calls"] += 1
            t["self_s"] += dur - child[i]
            if self.span_top[i]:
                t["busy_s"] += dur
        return totals

    def write(self, prefix: Path) -> None:
        """``prefix``.json names the layers and fields; ``prefix``.bin holds
        the span arrays one after another in the order listed there."""
        fields = ("layer", "parent", "op", "top", "start", "end")
        arrays = (self.span_layer, self.span_parent, self.span_op,
                  self.span_top, self.span_start, self.span_end)
        prefix.parent.mkdir(parents=True, exist_ok=True)
        with open(prefix.with_suffix(".bin"), "wb") as fh:
            for arr in arrays:
                arr.tofile(fh)
        header = {
            "spans": len(self.span_start),
            "layers": self.layers,
            "fields": [[f, a.typecode, a.itemsize] for f, a in zip(fields, arrays)],
            "clock": "time.perf_counter, seconds",
        }
        prefix.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")
