"""Replay a JSONL trace into summary series and tables.

This is the offline half of the telemetry layer: a chase run traced with
``--trace run.jsonl`` can be turned back into the per-step retraction
series of Section 7 (``repro stats run.jsonl``) without re-running
anything.  The benchmark harness and future perf PRs consume
:func:`summarize_trace` directly.

Every total is counted once, by the metric updates of
:data:`~repro.obs.observer.EVENTS`: :func:`summarize_trace` replays the
trace through a :class:`~repro.obs.tracer.MetricsObserver` into a fresh
registry and reads the totals back from it, so ``repro stats`` and the
live ``stats`` op count with the same code.  One row table,
:data:`ROWS`, lays the totals out for both the summary dict and the
Totals table.

(Kept out of ``repro.obs.__init__`` because it imports
:mod:`repro.util`, which sits above the logic layer the observer hooks
live in.)
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable, NamedTuple, Optional, Union

from ..util.reporting import Table
from .metrics import MetricsRegistry
from .observer import EVENT_KINDS, schema_errors
from .spans import latency_summary, percentile as _percentile, trace_ids
from .tracer import MetricsObserver

__all__ = [
    "ROWS",
    "Row",
    "drop_malformed",
    "summarize_trace",
    "retraction_series",
    "render_summary",
]

#: The kinds whose fields the summary's totals, series and latencies
#: come from; :func:`drop_malformed` drops and reports their malformed
#: events.  The others are only counted.
AGGREGATED_KINDS = (
    "chase_step_finished", "core_retraction", "core_maintenance",
    "homomorphism_search", "treewidth_search", "robust_step",
    "planner_decision", "query_rewrite", "service_request", "service_job",
    "service_retry", "service_pool_rebuild", "snapshot_access",
)


def drop_malformed(events: Iterable[dict]) -> tuple[list[dict], int]:
    """Drop the events :func:`summarize_trace` cannot aggregate: those of
    an aggregated kind that lack one of the kind's required fields
    (:func:`~repro.obs.observer.schema_errors`).  Returns ``(kept,
    dropped)``."""
    events = list(events)
    kept = [
        event
        for event in events
        if event.get("kind") not in AGGREGATED_KINDS or not schema_errors(event)
    ]
    return kept, len(events) - len(kept)


def retraction_series(events: Iterable[dict]) -> list[dict]:
    """The per-step series of a traced chase run.

    One record per ``chase_step_finished`` event: ``step``, ``rule``,
    ``atoms_applied`` (``|A_i|``), ``atoms`` (``|F_i|``) and
    ``retracted`` (``|A_i| - |F_i|``) — the series Figure 4/Section 7
    reports for the inflating elevator.
    """
    series = []
    for event in events:
        if event.get("kind") != "chase_step_finished":
            continue
        series.append(
            {
                "step": event["step"],
                "rule": event.get("rule"),
                "atoms_applied": event["atoms_applied"],
                "atoms": event["atoms_after"],
                "retracted": event["retracted"],
            }
        )
    return series


class _Replay(NamedTuple):
    """What a row of :data:`ROWS` can read besides its section."""

    #: Counters and gauges by value, timers and histograms by total;
    #: 0 for a metric the trace never fed.
    metrics: Counter
    series: list
    #: ``(op, warm, ok, seconds)`` per ``service_job`` event.
    jobs: list
    #: Sorted latencies of the successful and of the failed jobs: the
    #: percentiles need raw values, not the registry's buckets.  Failed
    #: and retried jobs carry retry-inflated latencies (backoff and a
    #: re-run included); folding them into the headline percentiles
    #: would poison the SLO, so they get rows of their own.
    ok: list
    failed: list


def _ratio(part: str, whole: str):
    """A row source: ``part`` over ``whole`` in the section, None when
    ``whole`` is 0."""

    def source(section: dict, replay: _Replay):
        total = section[whole]
        return section[part] / total if total else None

    return source


def _strategies(section: dict, replay: _Replay) -> dict:
    prefix = "planner.strategy."
    return {
        name[len(prefix):]: n
        for name, n in replay.metrics.items()
        if name.startswith(prefix)
    }


class Row(NamedTuple):
    """One total of the summary, and its row in the Totals table."""

    section: str
    key: str
    #: A metric name, or a function of the section so far and the
    #: :class:`_Replay`.
    source: Union[str, Callable[[dict, _Replay], object]]
    #: The Totals row's label; None keeps the total in the JSON only.
    #: A dict total is listed as one ``label key`` row per key.
    label: Optional[str] = None
    #: Rounding for the Totals row.
    digits: Optional[int] = None
    #: Keys of the section one of which must be nonzero for the Totals
    #: table to list the row; None lists it always.  A None value is
    #: never listed.
    shown: Optional[tuple] = None


_SNAPSHOTS = ("snapshot_loads", "snapshot_saves")
_FAILED = ("failed_jobs",)

#: Every total of :func:`summarize_trace`, in summary and Totals order.
ROWS = (
    Row("chase", "steps", "chase.steps", "applications"),
    Row("chase", "retractions", "chase.retractions", "retractions"),
    Row("chase", "atoms_retracted", "chase.atoms_retracted", "atoms retracted"),
    Row("chase", "final_atoms", lambda s, r: r.series[-1]["atoms"] if r.series else None),
    Row("chase", "series", lambda s, r: r.series),
    Row("core", "calls", "core.retractions", "retraction calls"),
    Row("core", "proper", "core.proper_retractions", "proper retractions"),
    Row("core", "atoms_folded", "core.atoms_folded", "atoms folded"),
    Row("core", "variables_folded", "core.variables_folded", "variables folded"),
    Row("core", "seconds", "core.time"),
    Row("core_maintenance", "calls", "core.maintained", "calls"),
    Row("core_maintenance", "incremental", "core.incremental", "incremental"),
    Row("core_maintenance", "candidates_tried", "core.candidates_tried", "candidates tried"),
    Row("core_maintenance", "candidates_per_step",
        _ratio("candidates_tried", "calls"), "candidates per step", 2),
    Row("core_maintenance", "pairs_checked", "core.pairs_checked", "pairs checked"),
    Row("core_maintenance", "clean_broken", "core.clean_broken"),
    Row("core_maintenance", "seconds", "core.maintenance_time"),
    Row("homomorphism", "searches", "hom.searches", "searches"),
    Row("homomorphism", "found", "hom.found", "found"),
    Row("homomorphism", "backtracks", "hom.backtracks", "backtracks"),
    Row("homomorphism", "seconds", "hom.time", "seconds", 4),
    Row("treewidth", "searches", "tw.searches", "searches"),
    Row("treewidth", "budget_consumed", "tw.budget_consumed", "budget consumed"),
    Row("treewidth", "exhausted", "tw.exhausted", "budget exhaustions"),
    Row("robust", "steps", "robust.steps", "steps"),
    Row("robust", "renamed", "robust.renamed", "variables renamed"),
    Row("planner", "decisions",
        lambda s, r: r.metrics["planner.verdicts"] + r.metrics["planner.cache_hits"],
        "decisions"),
    Row("planner", "computed", "planner.verdicts", "verdicts computed"),
    Row("planner", "cache_hits", "planner.cache_hits", "cache hits"),
    Row("planner", "cache_hit_ratio", _ratio("cache_hits", "decisions"), "cache-hit ratio", 4),
    Row("planner", "strategies", _strategies, "strategy"),
    Row("query", "plan_lookups", "query.plan_lookups", "plan lookups"),
    Row("query", "rewrites", "query.rewrites", "rewrites computed"),
    Row("query", "plan_cache_hits", "query.plan_cache_hits", "plan-cache hits"),
    Row("query", "computed", lambda s, r: s["plan_lookups"] - s["plan_cache_hits"]),
    Row("query", "plan_cache_hit_ratio",
        _ratio("plan_cache_hits", "plan_lookups"), "plan-cache hit ratio", 4),
    Row("query", "disjuncts_pruned", "query.disjuncts_pruned", "disjuncts pruned"),
    Row("query", "fallbacks", "query.rewrite_fallbacks", "race fallbacks"),
    Row("service", "requests", "service.requests", "requests"),
    Row("service", "coalesced", "service.coalesced", "coalesced"),
    Row("service", "jobs", "service.jobs", "jobs"),
    Row("service", "ok", lambda s, r: s["jobs"] - r.metrics["service.job_errors"], "ok"),
    Row("service", "warm_hits", "service.warm_hits", "warm hits"),
    Row("service", "warm_hit_ratio", _ratio("warm_hits", "jobs"), "warm-hit ratio", 4),
    Row("service", "incomplete", "service.incomplete", "incomplete"),
    Row("service", "deadline_expired", "service.deadline_expired", "deadline expired"),
    Row("service", "retries", "service.retries", "retries", shown=("retries",)),
    Row("service", "pool_rebuilds", "service.pool_rebuilds", "pool rebuilds",
        shown=("pool_rebuilds",)),
    Row("service", "applications", "service.applications", "applications"),
    Row("service", "seconds", lambda s, r: sum(r.ok) + sum(r.failed)),
    Row("service", "latency_p50", lambda s, r: _percentile(r.ok, 0.50), "latency p50 (s)", 6),
    Row("service", "latency_p95", lambda s, r: _percentile(r.ok, 0.95), "latency p95 (s)", 6),
    Row("service", "latency_p99", lambda s, r: _percentile(r.ok, 0.99), "latency p99 (s)", 6),
    Row("service", "failed_jobs", "service.job_errors", "failed jobs", shown=_FAILED),
    Row("service", "failed_latency_p50", lambda s, r: _percentile(r.failed, 0.50),
        "failed latency p50 (s)", 6, _FAILED),
    Row("service", "failed_latency_p95", lambda s, r: _percentile(r.failed, 0.95),
        "failed latency p95 (s)", 6, _FAILED),
    Row("service", "latency", lambda s, r: latency_summary(r.jobs)),
    Row("service", "snapshot_loads", "snapshot.loads", "snapshot loads", shown=_SNAPSHOTS),
    Row("service", "snapshot_load_hits", "snapshot.hits", "snapshot load hits",
        shown=_SNAPSHOTS),
    Row("service", "snapshot_saves", "snapshot.saves", "snapshot saves", shown=_SNAPSHOTS),
    Row("service", "snapshot_corrupt", "snapshot.corrupt", "snapshots discarded corrupt",
        shown=("snapshot_corrupt",)),
    Row("service", "snapshot_evicted", "snapshot.evicted", "snapshots evicted (LRU)",
        shown=("snapshot_evicted",)),
    Row("service", "snapshot_ancestor_probes", "snapshot.ancestor_probes", "ancestor probes",
        shown=("snapshot_ancestor_probes",)),
    Row("service", "snapshot_ancestor_hits", "snapshot.ancestor_hits", "ancestor hits",
        shown=("snapshot_ancestor_probes",)),
)

#: The Totals table lists a section's rows only when one of these keys
#: is nonzero (``chase`` always).
_SECTION_SHOWN = {
    "core": ("calls",),
    "core_maintenance": ("calls",),
    "homomorphism": ("searches",),
    "treewidth": ("searches",),
    "robust": ("steps",),
    "planner": ("decisions",),
    "query": ("plan_lookups",),
    "service": ("jobs", "requests"),
}


def summarize_trace(events: Iterable[dict]) -> dict:
    """Aggregate a trace into a plain-dict summary.

    *events* must hold every field the aggregated kinds require; pass a
    trace read from outside through :func:`drop_malformed` first.  Every
    event that conforms to the event table is replayed through its
    metric update; one that does not is counted but not replayed.

    Returns a dict with ``events`` and ``counts`` (events per kind),
    ``traces`` (distinct trace ids seen), and one section per subsystem
    laid out by :data:`ROWS`: ``chase`` (step totals plus the per-step
    ``series``), ``core``, ``core_maintenance`` (candidates tried
    per step), ``homomorphism``, ``treewidth``, ``robust``, ``planner``,
    ``query`` and ``service``, whose headline
    ``latency_p50/p95/p99`` cover **successful jobs only** (failed and
    retried jobs get ``failed_latency_*`` rows of their own) with a
    per-op ``latency`` breakdown from
    :func:`repro.obs.spans.latency_summary`.
    """
    events = list(events)
    counts = dict.fromkeys(EVENT_KINDS, 0)
    registry = MetricsRegistry()
    observer = MetricsObserver(registry)
    for event in events:
        kind = event.get("kind", "?")
        counts[kind] = counts.get(kind, 0) + 1
        if not schema_errors(event):
            observer.emit(**event)
    jobs = [
        (e.get("op", "?"), bool(e.get("warm")), bool(e.get("ok")), e.get("seconds", 0.0))
        for e in events
        if e.get("kind") == "service_job"
    ]
    snapshot = registry.snapshot()
    replay = _Replay(
        metrics=Counter(
            {name: snap.get("value", snap.get("total")) for name, snap in snapshot.items()}
        ),
        series=retraction_series(events),
        jobs=jobs,
        ok=sorted(seconds for _, _, ok, seconds in jobs if ok),
        failed=sorted(seconds for _, _, ok, seconds in jobs if not ok),
    )
    summary: dict = {
        "events": len(events),
        "counts": {kind: n for kind, n in counts.items() if n},
        "traces": len(trace_ids(events)),
    }
    for row in ROWS:
        values = summary.setdefault(row.section, {})
        source = row.source
        values[row.key] = (
            replay.metrics[source] if isinstance(source, str) else source(values, replay)
        )
    return summary


def _any_nonzero(section: dict, keys) -> bool:
    return keys is None or any(section[key] for key in keys)


def render_summary(summary: dict, step_stride: int = 1) -> str:
    """Render a :func:`summarize_trace` summary as aligned text tables.

    *step_stride* thins the per-step table (stride 5 matches the
    hand-reported figures; the first and last steps always appear).
    """
    parts: list[str] = []

    counts = Table(["event", "count"], title="Trace events")
    for kind, n in sorted(summary["counts"].items()):
        counts.add_row(kind, n)
    counts.add_row("total", summary["events"])
    parts.append(counts.render())

    series = summary["chase"]["series"]
    if series:
        steps = Table(
            ["step", "rule", "atoms applied", "atoms", "retracted"],
            title="Chase steps (|A_i|, |F_i|, retraction size)",
        )
        last = len(series) - 1
        for index, row in enumerate(series):
            if index % step_stride and index != last:
                continue
            steps.add_row(
                row["step"],
                row["rule"] or "-",
                row["atoms_applied"],
                row["atoms"],
                row["retracted"],
            )
        parts.append(steps.render())

    totals = Table(["subsystem", "quantity", "value"], title="Totals")
    for row in ROWS:
        values = summary[row.section]
        value = values[row.key]
        if (
            row.label is None
            or value is None
            or not _any_nonzero(values, _SECTION_SHOWN.get(row.section))
            or not _any_nonzero(values, row.shown)
        ):
            continue
        subsystem = row.section.replace("_", " ")
        if isinstance(value, dict):
            for name, n in sorted(value.items()):
                totals.add_row(subsystem, f"{row.label} {name}", n)
        elif row.digits is None:
            totals.add_row(subsystem, row.label, value)
        else:
            totals.add_row(subsystem, row.label, round(value, row.digits))
    parts.append(totals.render())

    per_op = summary["service"]["latency"]
    if any(per_op.values()):
        latency = Table(
            ["op", "class", "count", "mean", "p50", "p95", "p99"],
            title="Service latency by op (seconds)",
        )
        for op in sorted(per_op):
            for label in ("ok", "warm", "cold", "failed"):
                block = per_op[op].get(label)
                if block is None:
                    continue
                latency.add_row(
                    op,
                    label,
                    block["count"],
                    round(block["mean"], 6),
                    round(block["p50"], 6),
                    round(block["p95"], 6),
                    round(block["p99"], 6),
                )
        parts.append(latency.render())

    return "\n".join(parts)
