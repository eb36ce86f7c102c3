"""Replay a JSONL trace into summary series and tables.

This is the offline half of the telemetry layer: a chase run traced with
``--trace run.jsonl`` can be turned back into the per-step retraction
series of Section 7 (``repro stats run.jsonl``) without re-running
anything.  The benchmark harness and future perf PRs consume
:func:`summarize_trace` directly.

(Kept out of ``repro.obs.__init__`` because it imports
:mod:`repro.util`, which sits above the logic layer the observer hooks
live in.)
"""

from __future__ import annotations

from typing import Iterable

from ..util.reporting import Table
from .observer import EVENT_KINDS, schema_errors
from .spans import latency_summary, percentile as _percentile, trace_ids

__all__ = [
    "drop_malformed",
    "summarize_trace",
    "retraction_series",
    "render_summary",
]

#: The kinds :func:`summarize_trace` reads fields from; the others are
#: only counted.
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


def summarize_trace(events: Iterable[dict]) -> dict:
    """Aggregate a trace into a plain-dict summary.

    *events* must hold every field the aggregated kinds require; pass a
    trace read from outside through :func:`drop_malformed` first.

    Returns a dict with ``counts`` (events per kind), ``traces``
    (distinct trace ids seen), ``chase`` (step totals plus the per-step
    ``series``), per-subsystem totals for ``core``, ``core_maintenance``
    (skip-hit ratio, candidates tried per step), ``homomorphism``,
    ``treewidth`` and ``robust``, and a ``service`` section whose
    headline ``latency_p50/p95/p99`` cover **successful jobs only**
    (failed/retried jobs get ``failed_latency_*`` rows of their own)
    with a per-op ``latency`` breakdown from
    :func:`repro.obs.spans.latency_summary`.
    """
    events = list(events)
    counts = {kind: 0 for kind in EVENT_KINDS}
    for event in events:
        kind = event.get("kind", "?")
        counts[kind] = counts.get(kind, 0) + 1
    counts = {kind: n for kind, n in counts.items() if n}

    series = retraction_series(events)
    chase = {
        "steps": len(series),
        "retractions": sum(1 for row in series if row["retracted"] > 0),
        "atoms_retracted": sum(
            row["retracted"] for row in series if row["retracted"] > 0
        ),
        "final_atoms": series[-1]["atoms"] if series else None,
        "series": series,
    }

    core_events = [e for e in events if e.get("kind") == "core_retraction"]
    core = {
        "calls": len(core_events),
        "proper": sum(
            1 for e in core_events if e["atoms_after"] < e["atoms_before"]
        ),
        "atoms_folded": sum(
            e["atoms_before"] - e["atoms_after"] for e in core_events
        ),
        "variables_folded": sum(e["variables_folded"] for e in core_events),
        "seconds": sum(e.get("seconds", 0.0) for e in core_events),
    }

    maint_events = [e for e in events if e.get("kind") == "core_maintenance"]
    maint_candidates = sum(e["candidates_tried"] for e in maint_events)
    maint_skips = sum(e["skip_hits"] for e in maint_events)
    considered = maint_candidates + maint_skips
    core_maintenance = {
        "calls": len(maint_events),
        "incremental": sum(
            1 for e in maint_events if e.get("mode") == "incremental"
        ),
        "candidates_tried": maint_candidates,
        "skip_hits": maint_skips,
        "skip_hit_ratio": (maint_skips / considered) if considered else None,
        "candidates_per_step": (
            maint_candidates / len(maint_events) if maint_events else None
        ),
        "seeded_searches": sum(e["seeded_searches"] for e in maint_events),
        "pairs_checked": sum(e["pairs_checked"] for e in maint_events),
        "cert_invalidated": sum(e["cert_invalidated"] for e in maint_events),
        "clean_broken": sum(1 for e in maint_events if e["clean_broken"]),
        "seconds": sum(e.get("seconds", 0.0) for e in maint_events),
    }

    hom_events = [e for e in events if e.get("kind") == "homomorphism_search"]
    homomorphism = {
        "searches": len(hom_events),
        "found": sum(1 for e in hom_events if e["found"]),
        "backtracks": sum(e["backtracks"] for e in hom_events),
        "seconds": sum(e.get("seconds", 0.0) for e in hom_events),
    }

    tw_events = [e for e in events if e.get("kind") == "treewidth_search"]
    treewidth = {
        "searches": len(tw_events),
        "budget_consumed": sum(e["budget_consumed"] for e in tw_events),
        "exhausted": sum(1 for e in tw_events if e["verdict"] is None),
    }

    robust_events = [e for e in events if e.get("kind") == "robust_step"]
    robust = {
        "steps": len(robust_events),
        "renamed": sum(e["renamed"] for e in robust_events),
    }

    plan_events = [e for e in events if e.get("kind") == "planner_decision"]
    plan_computed = sum(1 for e in plan_events if e.get("cached") == "computed")
    plan_hits = len(plan_events) - plan_computed
    strategies: dict[str, int] = {}
    for e in plan_events:
        name = e.get("strategy", "?")
        strategies[name] = strategies.get(name, 0) + 1
    planner = {
        "decisions": len(plan_events),
        "computed": plan_computed,
        "cache_hits": plan_hits,
        "cache_hit_ratio": (
            plan_hits / len(plan_events) if plan_events else None
        ),
        "strategies": strategies,
    }

    rewrite_events = [e for e in events if e.get("kind") == "query_rewrite"]
    rewrite_computed = sum(
        1 for e in rewrite_events if e.get("source") == "computed"
    )
    rewrite_hits = len(rewrite_events) - rewrite_computed
    query = {
        "plan_lookups": len(rewrite_events),
        "computed": rewrite_computed,
        "plan_cache_hits": rewrite_hits,
        "plan_cache_hit_ratio": (
            rewrite_hits / len(rewrite_events) if rewrite_events else None
        ),
        "rewrites": sum(
            1
            for e in rewrite_events
            if e.get("source") == "computed" and e.get("fragment")
        ),
        "disjuncts_pruned": sum(
            e.get("pruned", 0)
            for e in rewrite_events
            if e.get("source") == "computed"
        ),
        "fallbacks": sum(
            1
            for e in rewrite_events
            if e.get("fragment") and not e.get("complete")
        ),
    }

    request_events = [e for e in events if e.get("kind") == "service_request"]
    job_events = [e for e in events if e.get("kind") == "service_job"]
    retry_events = [e for e in events if e.get("kind") == "service_retry"]
    rebuild_events = [
        e for e in events if e.get("kind") == "service_pool_rebuild"
    ]
    snap_events = [e for e in events if e.get("kind") == "snapshot_access"]
    # Failed/retried jobs carry retry-inflated latencies (backoff and a
    # re-run included); folding them into the headline percentiles would
    # poison the SLO, so the aggregation splits on ``ok`` and surfaces
    # the failed side as its own rows.
    ok_latencies = sorted(
        e.get("seconds", 0.0) for e in job_events if e.get("ok")
    )
    failed_latencies = sorted(
        e.get("seconds", 0.0) for e in job_events if not e.get("ok")
    )
    warm_hits = sum(1 for e in job_events if e.get("warm"))
    snap_loads = [e for e in snap_events if e.get("op") == "load"]
    service = {
        "requests": len(request_events),
        "coalesced": sum(1 for e in request_events if e.get("coalesced")),
        "jobs": len(job_events),
        "ok": sum(1 for e in job_events if e.get("ok")),
        "warm_hits": warm_hits,
        "warm_hit_ratio": (warm_hits / len(job_events)) if job_events else None,
        "incomplete": sum(1 for e in job_events if e.get("incomplete")),
        "deadline_expired": sum(
            1 for e in job_events if e.get("deadline_expired")
        ),
        "applications": sum(e.get("applications", 0) for e in job_events),
        "seconds": sum(ok_latencies) + sum(failed_latencies),
        "latency_p50": _percentile(ok_latencies, 0.50),
        "latency_p95": _percentile(ok_latencies, 0.95),
        "latency_p99": _percentile(ok_latencies, 0.99),
        "failed_jobs": len(failed_latencies),
        "failed_latency_p50": _percentile(failed_latencies, 0.50),
        "failed_latency_p95": _percentile(failed_latencies, 0.95),
        "latency": latency_summary(
            (
                e.get("op", "?"),
                bool(e.get("warm")),
                bool(e.get("ok")),
                e.get("seconds", 0.0),
            )
            for e in job_events
        ),
        "retries": len(retry_events),
        "pool_rebuilds": len(rebuild_events),
        "snapshot_loads": len(snap_loads),
        "snapshot_load_hits": sum(1 for e in snap_loads if e.get("hit")),
        "snapshot_corrupt": sum(1 for e in snap_loads if e.get("corrupt")),
        "snapshot_saves": sum(
            1 for e in snap_events if e.get("op") == "save"
        ),
        "snapshot_evicted": sum(
            1 for e in snap_events if e.get("op") == "evict"
        ),
        "snapshot_ancestor_probes": sum(
            1 for e in snap_events if e.get("op") == "resolve"
        ),
        "snapshot_ancestor_hits": sum(
            1
            for e in snap_events
            if e.get("op") == "resolve" and e.get("hit")
        ),
        "snapshot_chain_broken": sum(
            1 for e in snap_events if e.get("chain_broken")
        ),
        "snapshot_bytes_saved": sum(
            e.get("bytes_saved", 0)
            for e in snap_events
            if e.get("op") == "save"
        ),
    }

    return {
        "events": len(events),
        "counts": counts,
        "traces": len(trace_ids(events)),
        "chase": chase,
        "core": core,
        "core_maintenance": core_maintenance,
        "homomorphism": homomorphism,
        "treewidth": treewidth,
        "robust": robust,
        "planner": planner,
        "query": query,
        "service": service,
    }


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
    chase = summary["chase"]
    totals.add_row("chase", "applications", chase["steps"])
    totals.add_row("chase", "retractions", chase["retractions"])
    totals.add_row("chase", "atoms retracted", chase["atoms_retracted"])
    core = summary["core"]
    if core["calls"]:
        totals.add_row("core", "retraction calls", core["calls"])
        totals.add_row("core", "proper retractions", core["proper"])
        totals.add_row("core", "atoms folded", core["atoms_folded"])
        totals.add_row("core", "variables folded", core["variables_folded"])
    maint = summary.get("core_maintenance", {"calls": 0})
    if maint["calls"]:
        totals.add_row("core maintenance", "calls", maint["calls"])
        totals.add_row("core maintenance", "incremental", maint["incremental"])
        totals.add_row(
            "core maintenance", "candidates tried", maint["candidates_tried"]
        )
        totals.add_row("core maintenance", "skip hits", maint["skip_hits"])
        if maint["skip_hit_ratio"] is not None:
            totals.add_row(
                "core maintenance",
                "skip-hit ratio",
                round(maint["skip_hit_ratio"], 4),
            )
        if maint["candidates_per_step"] is not None:
            totals.add_row(
                "core maintenance",
                "candidates per step",
                round(maint["candidates_per_step"], 2),
            )
        totals.add_row(
            "core maintenance", "pairs checked", maint["pairs_checked"]
        )
        totals.add_row(
            "core maintenance", "certs invalidated", maint["cert_invalidated"]
        )
    hom = summary["homomorphism"]
    if hom["searches"]:
        totals.add_row("homomorphism", "searches", hom["searches"])
        totals.add_row("homomorphism", "found", hom["found"])
        totals.add_row("homomorphism", "backtracks", hom["backtracks"])
        totals.add_row("homomorphism", "seconds", round(hom["seconds"], 4))
    tw = summary["treewidth"]
    if tw["searches"]:
        totals.add_row("treewidth", "searches", tw["searches"])
        totals.add_row("treewidth", "budget consumed", tw["budget_consumed"])
        totals.add_row("treewidth", "budget exhaustions", tw["exhausted"])
    robust = summary["robust"]
    if robust["steps"]:
        totals.add_row("robust", "steps", robust["steps"])
        totals.add_row("robust", "variables renamed", robust["renamed"])
    planner = summary.get("planner", {"decisions": 0})
    if planner["decisions"]:
        totals.add_row("planner", "decisions", planner["decisions"])
        totals.add_row("planner", "verdicts computed", planner["computed"])
        totals.add_row("planner", "cache hits", planner["cache_hits"])
        if planner["cache_hit_ratio"] is not None:
            totals.add_row(
                "planner",
                "cache-hit ratio",
                round(planner["cache_hit_ratio"], 4),
            )
        for name, n in sorted(planner["strategies"].items()):
            totals.add_row("planner", f"strategy {name}", n)
    query = summary.get("query", {"plan_lookups": 0})
    if query["plan_lookups"]:
        totals.add_row("query", "plan lookups", query["plan_lookups"])
        totals.add_row("query", "rewrites computed", query["rewrites"])
        totals.add_row("query", "plan-cache hits", query["plan_cache_hits"])
        if query["plan_cache_hit_ratio"] is not None:
            totals.add_row(
                "query",
                "plan-cache hit ratio",
                round(query["plan_cache_hit_ratio"], 4),
            )
        totals.add_row("query", "disjuncts pruned", query["disjuncts_pruned"])
        totals.add_row("query", "race fallbacks", query["fallbacks"])
    service = summary.get("service", {"jobs": 0, "requests": 0})
    if service["jobs"] or service["requests"]:
        totals.add_row("service", "requests", service["requests"])
        totals.add_row("service", "coalesced", service["coalesced"])
        totals.add_row("service", "jobs", service["jobs"])
        totals.add_row("service", "ok", service["ok"])
        totals.add_row("service", "warm hits", service["warm_hits"])
        if service["warm_hit_ratio"] is not None:
            totals.add_row(
                "service",
                "warm-hit ratio",
                round(service["warm_hit_ratio"], 4),
            )
        totals.add_row("service", "incomplete", service["incomplete"])
        totals.add_row(
            "service", "deadline expired", service["deadline_expired"]
        )
        if service.get("retries"):
            totals.add_row("service", "retries", service["retries"])
        if service.get("pool_rebuilds"):
            totals.add_row(
                "service", "pool rebuilds", service["pool_rebuilds"]
            )
        totals.add_row("service", "applications", service["applications"])
        totals.add_row(
            "service", "latency p50 (s)", round(service["latency_p50"], 6)
        )
        totals.add_row(
            "service", "latency p95 (s)", round(service["latency_p95"], 6)
        )
        totals.add_row(
            "service", "latency p99 (s)", round(service.get("latency_p99", 0.0), 6)
        )
        if service.get("failed_jobs"):
            totals.add_row("service", "failed jobs", service["failed_jobs"])
            totals.add_row(
                "service",
                "failed latency p50 (s)",
                round(service["failed_latency_p50"], 6),
            )
            totals.add_row(
                "service",
                "failed latency p95 (s)",
                round(service["failed_latency_p95"], 6),
            )
        if service["snapshot_loads"] or service["snapshot_saves"]:
            totals.add_row(
                "service", "snapshot loads", service["snapshot_loads"]
            )
            totals.add_row(
                "service", "snapshot load hits", service["snapshot_load_hits"]
            )
            totals.add_row(
                "service", "snapshot saves", service["snapshot_saves"]
            )
            if service["snapshot_corrupt"]:
                totals.add_row(
                    "service",
                    "snapshots discarded corrupt",
                    service["snapshot_corrupt"],
                )
        if service.get("snapshot_evicted"):
            totals.add_row(
                "service",
                "snapshots evicted (LRU)",
                service["snapshot_evicted"],
            )
        if service.get("snapshot_ancestor_probes"):
            totals.add_row(
                "service",
                "ancestor probes",
                service["snapshot_ancestor_probes"],
            )
            totals.add_row(
                "service",
                "ancestor hits",
                service["snapshot_ancestor_hits"],
            )
        if service.get("snapshot_chain_broken"):
            totals.add_row(
                "service",
                "snapshot chains broken",
                service["snapshot_chain_broken"],
            )
        if service.get("snapshot_bytes_saved"):
            totals.add_row(
                "service",
                "snapshot bytes saved (delta vs full)",
                service["snapshot_bytes_saved"],
            )
    parts.append(totals.render())

    per_op = service.get("latency") or {}
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
