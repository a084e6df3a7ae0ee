"""Outside-in layer tracer for the lafr benchmark.

The tracer wraps the public functions of each ``lafr`` module listed in
``LAYERS`` and rebinds every name in every loaded ``lafr.*`` module that is
bound to the original object, so a call through ``spectral.char_poly`` is
traced exactly like one through ``exactalg.char_poly``.  Nothing under
``src/`` changes.

Each call becomes a span ``(name, start, end, parent, op)``.  Spans stay in
memory and are written once, by :meth:`Tracer.dump`, when the traced
process ends.  A layer's self time is the summed duration of its spans
minus the part covered by their direct child spans.  Hit ratios of the
``lru_cache``-wrapped functions come from ``cache_info()`` deltas.  A
listed name that the package no longer defines is recorded as absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

# layer (lafr module) -> public functions traced at its boundary
LAYERS: dict[str, tuple[str, ...]] = {
    "exactalg": (
        "char_poly",
        "char_poly_deleted",
        "poly_gcd",
        "exact_div",
        "integer_roots",
        "kernel_basis",
        "solve_full_pivot",
        "project",
    ),
    "spectral": (
        "graph_char_poly",
        "laplacian_integer_eigenvalues",
        "support_poly",
        "eigenvalue_support",
        "is_periodic",
        "eigenprojection_column",
        "strong_cospectral",
    ),
    "revival": (
        "decide_proper_lafr",
        "all_lafr_pairs",
        "has_proper_lafr_at",
        "has_periodic_vertex_at",
        "check_cartesian_product_rule",
        "check_complement_transfer",
        "check_join_timing",
        "check_join_extension",
    ),
    "oracle": (
        "eigh",
        "graph_spectrum",
        "transition_matrix",
        "block_fr_check",
        "time_scan",
        "revival_residual",
        "cluster_eigenvalues",
    ),
    "campaigns": (
        "campaign_trees",
        "campaign_prime_order",
        "campaign_constructions",
        "mask_to_graph",
    ),
    "trees": ("free_trees", "tree_from_level_sequence", "tree_certificate"),
    "graphs": (
        "parse_graph6",
        "to_graph6",
        "laplacian",
        "is_connected",
        "is_double_cone",
        "spanning_tree_count",
        "cartesian_product",
        "join",
        "complement",
        "hadamard_graph",
    ),
    "reporting": ("build_analysis_report", "format_report", "campaign_report"),
    "cli": ("main",),
}

# cached functions whose hit ratio is reported
CACHED = ("spectral.eigenvalue_support", "spectral.graph_char_poly", "oracle.graph_spectrum")

# counter -> (function, ancestor): calls of the function made under the ancestor
NESTED = {
    "scan_probes": ("oracle.transition_matrix", "oracle.time_scan"),
    "confirmations": ("campaigns.mask_to_graph", "campaigns.campaign_prime_order"),
}


class Tracer:
    """Span recorder around the public functions of the ``lafr`` layers."""

    def __init__(self):
        self.names: list[str] = []
        self.absent: list[str] = []
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.op = 0
        self.statuses: Counter = Counter()
        self._cache_start: dict[str, tuple[int, int]] = {}
        self._cached_fns: dict = {}

    def install(self) -> None:
        """Wrap every listed function and rebind it across ``lafr.*``."""
        for layer in LAYERS:
            importlib.import_module(f"lafr.{layer}")
        modules = [m for k, m in sys.modules.items() if k == "lafr" or k.startswith("lafr.")]
        for layer, funcs in LAYERS.items():
            home = sys.modules[f"lafr.{layer}"]
            for fname in funcs:
                qual = f"{layer}.{fname}"
                original = getattr(home, fname, None)
                if original is None:
                    self.absent.append(qual)
                    continue
                if hasattr(original, "cache_info"):
                    self._cached_fns[qual] = original
                wrapper = self._wrap(original, qual)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
        self._cache_start = {
            q: self._cache_counts(q) for q in CACHED if q in self._cached_fns
        }

    def _cache_counts(self, qual: str) -> tuple[int, int]:
        info = self._cached_fns[qual].cache_info()
        return info.hits, info.misses

    def _wrap(self, fn, qual: str):
        name_id = len(self.names)
        self.names.append(qual)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter
        count_status = qual == "revival.decide_proper_lafr"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, self.op)
            if count_status:
                self.statuses[result.status.value] += 1
            return result

        return wrapper

    def summary(self) -> dict:
        """Per-function calls, total and self seconds, plus layer counters."""
        n = len(self.names)
        calls = [0] * n
        total = [0.0] * n
        child = [0.0] * n
        spans = self.spans
        for name_id, start, end, parent, _ in spans:
            dur = end - start
            calls[name_id] += 1
            total[name_id] += dur
            if parent >= 0:
                child[spans[parent][0]] += dur
        funcs = {
            q: {"calls": calls[i], "total_s": total[i], "self_s": total[i] - child[i]}
            for i, q in enumerate(self.names)
        }
        cache = {}
        for q, (h0, m0) in self._cache_start.items():
            h1, m1 = self._cache_counts(q)
            cache[q] = [h1 - h0, m1 - m0]
        return {
            "functions": funcs,
            "absent": self.absent,
            "cache": cache,
            "statuses": dict(self.statuses),
            "nested": {key: self._count_nested(*pair) for key, pair in NESTED.items()},
            "spans": len(spans),
        }

    def _count_nested(self, inner: str, outer: str) -> int:
        """Spans of ``inner`` with a span of ``outer`` among their ancestors."""
        if inner not in self.names or outer not in self.names:
            return 0
        inner_id, outer_id = self.names.index(inner), self.names.index(outer)
        spans = self.spans
        count = 0
        for name_id, _, _, parent, _ in spans:
            if name_id != inner_id:
                continue
            while parent >= 0 and spans[parent][0] != outer_id:
                parent = spans[parent][3]
            count += parent >= 0
        return count

    def dump(self, summary_path: str, spans_path: str) -> None:
        """Write the summary, then every span as one JSON document."""
        with open(summary_path, "w") as fh:
            json.dump(self.summary(), fh)
        with open(spans_path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)
