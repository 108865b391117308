"""Per-layer metrics from the traced run's spans and the ``stats`` op.

Span times come from :mod:`launcher`; exact counts and the queue wait
come from the program's own ``stats`` payload (``counters``,
``delta``, ``journal`` and the ``telemetry`` block's captured solver
counters and ``queue_wait_s`` histogram).  A ``_ms`` /
``_us`` metric is the mean per call of the named entry point, inclusive
of its children unless the name says ``self``; a layer's self time is
its spans' duration minus the time their child spans cover.
"""

from __future__ import annotations

import math
from collections import defaultdict

#: (name, unit, better) — every per-layer metric, in report order.
PER_LAYER = (
    ("service.protocol.decode_us", "us", "lower"),
    ("service.protocol.encode_us", "us", "lower"),
    ("service.batching.queue_wait_p50_ms", "ms", "lower"),
    ("service.batching.queue_wait_p99_ms", "ms", "lower"),
    ("service.batching.batch_size_mean", "count", "higher"),
    ("service.daemon.memo_hit_ratio", "ratio", "higher"),
    ("service.daemon.requests", "count", "higher"),
    ("service.daemon.batches", "count", "lower"),
    ("service.state.commit_self_ms", "ms", "lower"),
    ("service.state.commits", "count", "higher"),
    ("service.state.advance_ms", "ms", "lower"),
    ("service.state.solve_view_ms", "ms", "lower"),
    ("service.state.worlds_retained", "count", "higher"),
    ("service.state.worlds_invalidated", "count", "lower"),
    ("service.state.memo_dropped", "count", "lower"),
    ("service.partition.rings_of_ms", "ms", "lower"),
    ("service.partition.rings_of_calls", "count", "lower"),
    ("service.journal.append_ms", "ms", "lower"),
    ("service.journal.fsyncs", "count", "lower"),
    ("service.journal.snapshot_ms", "ms", "lower"),
    ("service.journal.snapshots", "count", "lower"),
    ("service.journal.recover_s", "s", "lower"),
    ("core.bfs.select_self_ms", "ms", "lower"),
    ("core.bfs.selects", "count", "higher"),
    ("core.bfs.candidates", "count", "lower"),
    ("core.bfs.feasible", "count", "higher"),
    ("core.perf.kernels.prefilter_self_ms", "ms", "lower"),
    ("core.perf.kernels.candidates", "count", "lower"),
    ("core.perf.kernels.state_worlds", "count", "lower"),
    ("core.perf.cache.worlds_hit_ratio", "ratio", "higher"),
    ("core.perf.cache.worlds_queries", "count", "lower"),
    ("core.perf.cache.base_worlds_ms", "ms", "lower"),
    ("core.perf.cache.advance_ms", "ms", "lower"),
    ("core.perf.cache.worlds_enumerated", "count", "lower"),
    ("core.dtrs.sweeps", "count", "lower"),
    ("core.dtrs.memo_hit_ratio", "ratio", "higher"),
    ("core.modules.build_ms", "ms", "lower"),
    ("core.modules.extended_ms", "ms", "lower"),
    ("core.modules.rebuilt", "count", "lower"),
    ("resilience.ladder.verify_ms", "ms", "lower"),
    ("resilience.ladder.rung_exact_share", "ratio", "higher"),
    ("resilience.ladder.rungs_served", "count", "higher"),
    ("trace.overhead_share", "share", "lower"),
    ("trace.unattributed_share", "share", "lower"),
    ("trace.expected_layers_share", "share", "higher"),
    ("counts.unexplained_mismatches", "count", "lower"),
)

#: The layers each workload exists to stress; the trace should show
#: them taking most of the attributed time.
EXPECTED = {
    "monero-exact": "solver layers (core.*)",
    "chain-growth": "commit path and journal (everything under "
                    "SelectionService.commit_ring)",
}

#: Counters whose value depends on arrival timing, not on the inputs.
TIMING_DEPENDENT = {
    "counters.batches": "micro-batch boundaries depend on arrival timing",
    "telemetry.batches": "micro-batch boundaries depend on arrival timing",
    "telemetry.warm.hits": "the per-batch warm flag depends on batch boundaries",
    "telemetry.warm.misses": "the per-batch warm flag depends on batch boundaries",
}

def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(round(q * len(ordered), 9)))
    return ordered[min(rank, len(ordered)) - 1]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def flat_counts(stats: dict) -> dict[str, int]:
    """The exact integer counts in a ``stats`` payload, flattened."""
    telemetry = stats.get("telemetry", {})
    flat = {}
    for prefix, block in (
        ("counters", stats.get("counters", {})),
        ("delta", stats.get("delta", {})),
        ("journal", {k: stats.get("journal", {}).get(k, 0)
                     for k in ("appends", "fsyncs", "snapshots")}),
        ("solver", telemetry.get("solver", {}).get("counters", {})),
        ("rungs", stats.get("resilience", {}).get("rung_served", {})),
        ("telemetry", {k: v["total"] for k, v in telemetry.get("counters", {}).items()}),
    ):
        for key, value in block.items():
            flat[f"{prefix}.{key}"] = value
    return flat


def count_mismatches(first: dict, second: dict) -> list[dict]:
    """Counts that differ between two runs of the same inputs, with reasons."""
    a, b = flat_counts(first), flat_counts(second)
    rows = []
    for key in sorted(set(a) | set(b)):
        if a.get(key, 0) == b.get(key, 0):
            continue
        reason = TIMING_DEPENDENT.get(key, "unexplained")
        rows.append({"count": key, "untraced": a.get(key, 0),
                     "traced": b.get(key, 0), "reason": reason})
    return rows


class SpanTable:
    """Per-name call counts, inclusive and self time, and subtree roots."""

    def __init__(self, spans: list) -> None:
        child = defaultdict(float)
        for _, parent, _, _, t0, t1 in spans:
            if parent:
                child[parent] += t1 - t0
        names = {span[0]: span[2] for span in spans}
        parents = {span[0]: span[1] for span in spans}
        roots: dict[int, str] = {}

        def root_of(span_id: int) -> str:
            trail = []
            while span_id not in roots and parents.get(span_id):
                trail.append(span_id)
                span_id = parents[span_id]
            top = roots.get(span_id, names.get(span_id, ""))
            for node in trail + [span_id]:
                roots[node] = top
            return top

        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.self_by_root = defaultdict(float)
        for span_id, _, name, _, t0, t1 in spans:
            own = (t1 - t0) - child[span_id]
            self.calls[name] += 1
            self.total[name] += t1 - t0
            self.self_time[name] += own
            self.self_by_root[(root_of(span_id), name)] += own

    def mean(self, name: str, scale: float, own: bool = False) -> float:
        totals = self.self_time if own else self.total
        return _ratio(totals[name], self.calls[name]) * scale


def per_layer(
    workload: str,
    spans: list,
    stats: dict,
    latency_untraced_s: float,
    latency_traced_s: float,
    mismatches: list[dict],
) -> tuple[dict[str, float], dict]:
    """Every PER_LAYER value, plus a breakdown for the details file."""
    table = SpanTable(spans)
    counters = stats.get("counters", {})
    delta = stats.get("delta", {})
    journal = stats.get("journal", {})
    solver = stats.get("telemetry", {}).get("solver", {}).get("counters", {})
    histograms = stats.get("telemetry", {}).get("histograms", {})
    batch_hist = histograms.get("batch_size", {})
    wait_hist = histograms.get("queue_wait_s", {})
    rungs = stats.get("resilience", {}).get("rung_served", {})
    hits = solver.get("cache.worlds_hits", 0)
    queries = hits + solver.get("cache.worlds_misses", 0)
    dtrs_hits = solver.get("dtrs.memo_hits", 0)

    # Layer self times; start-up recovery is set-up, not request work.
    layer_s: dict[str, float] = defaultdict(float)
    expected_s = 0.0
    for (root, name), own in table.self_by_root.items():
        if root == "service.journal.recover":
            continue
        layer = name.rsplit(".", 1)[0]
        layer_s[layer] += own
        if (
            (workload == "monero-exact" and name.startswith("core."))
            or (workload == "chain-growth" and root == "service.daemon.commit")
        ):
            expected_s += own
    layer_s["service.batching"] += wait_hist.get("sum", 0.0)
    attributed = sum(layer_s.values())

    values = {
        "service.protocol.decode_us": table.mean("service.protocol.decode", 1e6, own=True),
        "service.protocol.encode_us": table.mean("service.protocol.encode", 1e6, own=True),
        "service.batching.queue_wait_p50_ms": (wait_hist.get("p50") or 0.0) * 1e3,
        "service.batching.queue_wait_p99_ms": (wait_hist.get("p99") or 0.0) * 1e3,
        "service.batching.batch_size_mean": _ratio(batch_hist.get("sum", 0.0),
                                                   batch_hist.get("count", 0)),
        "service.daemon.memo_hit_ratio": _ratio(counters.get("memo.hits", 0),
                                                counters.get("requests", 0)),
        "service.daemon.requests": counters.get("requests", 0),
        "service.daemon.batches": counters.get("batches", 0),
        "service.state.commit_self_ms": table.mean("service.state.commit", 1e3, own=True),
        "service.state.commits": delta.get("commits", 0),
        "service.state.advance_ms": table.mean("service.state.advance", 1e3),
        "service.state.solve_view_ms": table.mean("service.state.solve_view", 1e3),
        "service.state.worlds_retained": delta.get("worlds_retained", 0),
        "service.state.worlds_invalidated": delta.get("worlds_invalidated", 0),
        "service.state.memo_dropped": delta.get("memo_dropped", 0),
        "service.partition.rings_of_ms": table.mean("service.partition.rings_of", 1e3),
        "service.partition.rings_of_calls": table.calls["service.partition.rings_of"],
        "service.journal.append_ms": table.mean("service.journal.append", 1e3),
        "service.journal.fsyncs": journal.get("fsyncs", 0),
        "service.journal.snapshot_ms": table.mean("service.journal.snapshot", 1e3),
        "service.journal.snapshots": journal.get("snapshots", 0),
        "service.journal.recover_s": table.total["service.journal.recover"],
        "core.bfs.select_self_ms": table.mean("core.bfs.select", 1e3, own=True),
        "core.bfs.selects": table.calls["core.bfs.select"],
        "core.bfs.candidates": solver.get("bfs.candidates", 0),
        "core.bfs.feasible": solver.get("bfs.feasible", 0),
        "core.perf.kernels.prefilter_self_ms": table.mean(
            "core.perf.kernels.prefilter", 1e3, own=True),
        "core.perf.kernels.candidates": solver.get("kernel.candidates", 0),
        "core.perf.kernels.state_worlds": solver.get("kernel.state_worlds", 0),
        "core.perf.cache.worlds_hit_ratio": _ratio(hits, queries),
        "core.perf.cache.worlds_queries": queries,
        "core.perf.cache.base_worlds_ms": table.mean("core.perf.cache.base_worlds", 1e3),
        "core.perf.cache.advance_ms": table.mean("core.perf.cache.advance", 1e3),
        "core.perf.cache.worlds_enumerated": solver.get("worlds.enumerated", 0),
        "core.dtrs.sweeps": solver.get("dtrs.sweeps", 0),
        "core.dtrs.memo_hit_ratio": _ratio(dtrs_hits, solver.get("dtrs.sweeps", 0)),
        "core.modules.build_ms": table.mean("core.modules.build", 1e3),
        "core.modules.extended_ms": table.mean("core.modules.extended", 1e3),
        "core.modules.rebuilt": delta.get("modules_rebuilt", 0),
        "resilience.ladder.verify_ms": table.mean("resilience.ladder.verify", 1e3),
        "resilience.ladder.rung_exact_share": _ratio(rungs.get("exact", 0),
                                                     sum(rungs.values())),
        "resilience.ladder.rungs_served": sum(rungs.values()),
        "trace.overhead_share": _ratio(latency_traced_s, latency_untraced_s) - 1.0,
        "trace.unattributed_share": 1.0 - _ratio(attributed, latency_traced_s),
        "trace.expected_layers_share": _ratio(expected_s, attributed),
        "counts.unexplained_mismatches": sum(
            row["reason"] == "unexplained" for row in mismatches),
    }
    breakdown = {
        "layer_self_s": {k: round(v, 6) for k, v in sorted(layer_s.items())},
        "span_calls": dict(sorted(table.calls.items())),
        # The daemon keeps quantile samples over a bounded window.
        "queue_wait_samples": wait_hist.get("count", 0),
        "expected_layers": EXPECTED[workload],
        "expected_layers_dominate": values["trace.expected_layers_share"] > 0.5,
    }
    return values, breakdown
