"""Metric definitions and the arithmetic that turns repetitions into them.

End-to-end metrics come from untraced repetitions only; per-layer
metrics come from one traced repetition, with the tracing overhead
measured against an untraced one of the same length.
"""

from __future__ import annotations

import math
import statistics

from tracing import LAYER_NAMES

#: (name, unit, better, regression bound as a share of the median).  The
#: timing bounds cover the drift of a shared 2-vCPU host (README.md).
END_TO_END = (
    ("throughput_rps", "req/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p90_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
)
#: Reported beside the end-to-end metrics; any failure fails the run.
FAIL_RATIO = ("fail_ratio", "ratio", "lower", 0.0)

#: (name, unit, better).  Layer entries first, then remainders and ratios.
PER_LAYER = tuple(
    entry
    for name in LAYER_NAMES
    for entry in (
        (f"{name}.self_ms_per_req", "ms", "lower"),
        (f"{name}.calls_per_req", "calls/req", "lower"),
    )
) + (
    ("executor.ipc_ms_per_req", "ms", "lower"),
    ("server.outside_executor_ms_per_req", "ms", "lower"),
    ("planner.cache_hit_ratio", "ratio", "higher"),
    ("plans.cache_hit_ratio", "ratio", "higher"),
    ("snapshots.warm_ratio", "ratio", "higher"),
    ("snapshots.ancestor_ratio", "ratio", "higher"),
    ("engine.apps_per_req", "apps/req", "lower"),
    ("snapshots.bytes_per_req", "B/req", "lower"),
    ("proc.server_cpu_ms_per_req", "ms", "lower"),
    ("proc.worker_cpu_ms_per_req", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def nearest_rank(values, percent: float) -> float:
    """The nearest-rank percentile: the smallest value with at least
    *percent* % of the sample at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(percent / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, percent: float) -> int:
    """Samples strictly above the nearest-rank *percent* percentile."""
    return count - max(1, math.ceil(percent / 100.0 * count))


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def end_to_end(reps: list) -> dict:
    """The end-to-end metrics of one workload's untraced repetitions."""
    pooled = [s for rep in reps for s in rep.latencies_s]
    attempted = sum(rep.attempted for rep in reps)
    values = {
        "throughput_rps": statistics.median(rep.ok / rep.wall_s for rep in reps),
        "latency_p50_ms": nearest_rank(pooled, 50) * 1000.0,
        "latency_p90_ms": nearest_rank(pooled, 90) * 1000.0,
        "setup_s": statistics.median(rep.setup_s for rep in reps),
        "peak_rss_mb": statistics.median(rep.peak_rss_mb for rep in reps),
        "fail_ratio": _ratio(sum(rep.failed for rep in reps), attempted),
    }
    units = {name: unit for name, unit, *_ in END_TO_END + (FAIL_RATIO,)}
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def per_layer(untraced, traced) -> dict:
    """Per-request layer metrics from a traced repetition; *untraced*
    is a repetition of the same length without the timers."""
    n = traced.attempted
    spans = traced.spans["spans"]
    values = {}
    for name in LAYER_NAMES:
        span = spans.get(name, {"self_s": 0.0, "calls": 0})
        values[f"{name}.self_ms_per_req"] = span["self_s"] * 1000.0 / n
        values[f"{name}.calls_per_req"] = span["calls"] / n
    latency_s = sum(traced.latencies_s)
    # Worker time outside the spans (job pickup, result pickling) and
    # the pipes and queue between server and worker.
    values["executor.ipc_ms_per_req"] = (
        (traced.roundtrip_s - traced.spans["root_s"]) * 1000.0 / n
    )
    # Request decode, dispatch, reply encode and the client's own
    # reading and parsing of the reply.
    values["server.outside_executor_ms_per_req"] = (
        (latency_s - traced.roundtrip_s) * 1000.0 / n
    )
    stats = traced.stats_delta
    values["planner.cache_hit_ratio"] = _ratio(
        stats["planner_cache_hits"],
        stats["planner_cache_hits"] + stats["planner_verdicts"],
    )
    values["plans.cache_hit_ratio"] = _ratio(
        stats["plan_cache_hits"], stats["plan_lookups"]
    )
    values["snapshots.warm_ratio"] = _ratio(stats["warm_hits"], stats["jobs"])
    values["snapshots.ancestor_ratio"] = _ratio(stats["ancestor_hits"], stats["jobs"])
    values["engine.apps_per_req"] = traced.applications / n
    values["snapshots.bytes_per_req"] = traced.store_bytes / n
    values["proc.server_cpu_ms_per_req"] = traced.server_cpu_s * 1000.0 / n
    values["proc.worker_cpu_ms_per_req"] = traced.worker_cpu_s * 1000.0 / n
    values["trace.overhead_ratio"] = (untraced.ok / untraced.wall_s) / (
        traced.ok / traced.wall_s
    )
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {name: {"value": values[name], "unit": units[name]} for name, _, _ in PER_LAYER}


def attribution(layers: dict, traced) -> tuple:
    """(layer self times + executor IPC + outside-executor time, mean
    client latency), both in ms per request, from the published
    per-layer metrics *layers* of repetition *traced*."""
    parts = [f"{name}.self_ms_per_req" for name in LAYER_NAMES]
    parts += ["executor.ipc_ms_per_req", "server.outside_executor_ms_per_req"]
    attributed = sum(layers[name]["value"] for name in parts)
    return attributed, sum(traced.latencies_s) * 1000.0 / traced.attempted


def relative_change(first: float, second: float) -> float:
    """|second - first| as a share of *first* (0 when both are 0)."""
    if first == second:
        return 0.0
    return abs(second - first) / abs(first) if first else math.inf
