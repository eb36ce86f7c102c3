"""Structured JSONL tracing and metrics-updating observers.

A trace is a sequence of flat JSON objects, one per line::

    {"seq": 17, "t": 0.00421, "ts": 1754640000.104211,
     "kind": "chase_step_finished", "step": 3, "rule": "Rup",
     "atoms_before": 10, "atoms_applied": 13, "atoms_after": 11,
     "retracted": 2}

``seq`` is a per-tracer sequence number, ``t`` the elapsed time in
seconds since the tracer was created (monotonic clock — exact for
intra-tracer deltas), ``ts`` the wall-clock epoch time (the field that
lets traces from *different processes* — the server and each pool
worker — merge onto one timeline), ``kind`` one of :data:`EVENT_KINDS`;
the remaining fields are the event payload (see
:class:`~repro.obs.observer.Observer` for the schema of each kind, and
``docs/OBSERVABILITY.md`` for the full catalogue).

When a trace context is ambient (:mod:`repro.obs.spans`), every emitted
event is additionally stamped with ``trace_id`` and ``span_id``, tying
engine steps, snapshot accesses and service events to the request that
caused them.

The file format is append-only and crash-tolerant: every event is a
complete line, so a truncated trace loses at most its last event.
``repro stats FILE`` replays a trace into summary tables.
"""

from __future__ import annotations

import json
import threading
import time
from typing import IO, Iterable, Optional, Union

from . import spans as _span_state
from .metrics import MetricsRegistry
from .observer import Observer

__all__ = [
    "EVENT_KINDS",
    "LATENCY_BOUNDS",
    "JsonlTracer",
    "TracingObserver",
    "MetricsObserver",
    "read_trace",
    "read_trace_lenient",
]

#: Every event kind an Observer callback can emit.
EVENT_KINDS = (
    "chase_step_started",
    "trigger_selected",
    "trigger_retired",
    "chase_step_finished",
    "core_retraction",
    "core_maintenance",
    "homomorphism_search",
    "trigger_index_update",
    "compile",
    "join_plan",
    "service_request",
    "service_job",
    "service_retry",
    "service_pool_rebuild",
    "planner_decision",
    "query_rewrite",
    "snapshot_access",
    "treewidth_search",
    "robust_step",
    "span_open",
    "span_close",
)

#: Histogram bucket bounds for service job latencies, in seconds: the
#: default 1-2-5 decades start at 1 and would lump every sub-second job
#: into one bucket, useless for p50/p95 targets on a warm-started path.
LATENCY_BOUNDS = (
    0.001, 0.002, 0.005, 0.01, 0.02, 0.05,
    0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0,
)


class JsonlTracer:
    """Serialize events as JSON lines into a file-like sink.

    The tracer owns sequence numbering and timestamps; it does not own
    the sink (callers close what they open) unless :meth:`close` is
    asked to.
    """

    def __init__(self, sink: IO[str]):
        self.sink = sink
        self.seq = 0
        self._epoch = time.perf_counter()
        # The server's asyncio thread and the executor's callback
        # threads share one tracer; the lock keeps lines whole and seq
        # gapless.
        self._lock = threading.Lock()

    def emit(self, kind: str, **payload) -> None:
        context = _span_state.current_context()
        with self._lock:
            record = {
                "seq": self.seq,
                "t": round(time.perf_counter() - self._epoch, 6),
                "ts": round(time.time(), 6),
                "kind": kind,
            }
            if context is not None:
                record["trace_id"] = context.trace_id
                record["span_id"] = context.span_id
            # payload last: span_open/span_close carry their own
            # context fields, which win over the ambient stamp.
            record.update(payload)
            self.sink.write(json.dumps(record, separators=(",", ":")) + "\n")
            self.seq += 1

    def flush(self) -> None:
        self.sink.flush()

    def close(self) -> None:
        self.sink.close()


class MetricsObserver(Observer):
    """Update a :class:`MetricsRegistry` from the event stream.

    Metric names (see ``docs/OBSERVABILITY.md``):

    ======================  =========  ==================================
    ``chase.steps``         counter    rule applications recorded
    ``chase.retractions``   counter    steps with a proper simplification
    ``chase.atoms_retracted``  counter  total atoms removed by retractions
    ``chase.atoms``         gauge      atoms in the latest ``F_i``
    ``chase.retraction_size``  histogram  per-step retraction sizes
    ``trigger.selected``    counter    fair-scheduler selections
    ``trigger.retired``     counter    triggers leaving the active pool
    ``core.retractions``    counter    ``core_retraction`` calls
    ``core.variables_folded``  counter  variables folded away by cores
    ``core.time``           timer      time in ``core_retraction``
    ``core.maintained``     counter    incremental-maintainer calls
    ``core.skip_hits``      counter    certified variables skipped
    ``core.candidates_tried``  counter  per-variable fold searches run
    ``core.pairs_checked``  counter    escape-scan (old, delta) pins
    ``core.cert_invalidated``  counter  certificates invalidated by deltas
    ``core.clean_broken``   counter    steps that fell back to exact search
    ``hom.searches``        counter    single-witness searches
    ``hom.found``           counter    successful searches
    ``hom.backtracks``      counter    total undo operations
    ``hom.backtracks_per_search``  histogram  per-search backtracks
    ``hom.time``            timer      time in the search
    ``index.delta_atoms``   counter    atoms absorbed by the trigger index
    ``index.triggers_new``  counter    triggers found by delta re-matching
    ``index.triggers_reused``  counter  triggers carried over unchanged
    ``index.satisfaction_rechecks``  counter  satisfaction tests that ran
    ``index.collapsed``     counter    trigger keys folded by transport
    ``compiled.plans``      counter    rule bodies compiled to join plans
    ``compiled.delta_rounds``  counter  semi-naive delta rounds absorbed
    ``compiled.tuples``     gauge      interned tuples in the instance
    ``tw.searches``         counter    "width ≤ k?" decisions
    ``tw.budget_consumed``  counter    states consumed by the searches
    ``robust.steps``        counter    robust-sequence steps built
    ``robust.renamed``      counter    variables renamed by ``ρ_σ'``
    ``service.requests``    counter    requests accepted by the server
    ``service.coalesced``   counter    requests absorbed by in-flight dedup
    ``service.jobs``        counter    jobs finished
    ``service.job_errors``  counter    jobs that failed
    ``service.warm_hits``   counter    jobs warm-started from a snapshot
    ``service.warm_misses``  counter   jobs that chased cold
    ``service.incomplete``  counter    jobs degraded to partial answers
    ``service.deadline_expired``  counter  jobs halted by their deadline
    ``service.applications``  counter  new rule applications across jobs
    ``service.ancestor_resumes``  counter  jobs resumed from an ancestor
    ``service.job_seconds``  timer     job wall-clock latency
    ``service.job_latency``  histogram  per-job latency (LATENCY_BOUNDS)
    ``planner.verdicts``    counter    verdicts computed from scratch
    ``planner.cache_hits``  counter    verdicts served from a cache tier
    ``planner.strategy.<name>``  counter  jobs routed to each strategy
    ``query.plan_lookups``  counter    query-plan cache lookups
    ``query.plan_cache_hits``  counter  plans served from memory/store
    ``query.rewrites``      counter    rewriting saturations computed
    ``query.disjuncts_pruned``  counter  candidates dropped by subsumption
    ``query.rewrite_fallbacks``  counter  incomplete plans (race fallback)
    ``snapshot.loads``      counter    snapshot-store load attempts
    ``snapshot.hits``       counter    loads returning a usable state
    ``snapshot.corrupt``    counter    unreadable records discarded
    ``snapshot.saves``      counter    snapshot-store saves
    ``snapshot.evicted``    counter    snapshots evicted by LRU bounds
    ``snapshot.ancestor_probes``  counter  nearest-ancestor resolutions
    ``snapshot.ancestor_hits``  counter  resolutions that found an ancestor
    ``snapshot.chain_broken``  counter  delta chains dropped as corrupt
    ``snapshot.bytes_saved``  counter  bytes not written thanks to deltas
    ``snapshot.delta_chain_depth``  gauge  chain length last touched
    ``span.<name>``         timer      closed-span durations, per phase
    ======================  =========  ==================================

    (``service.queue_depth`` — a gauge — plus the ``service.retries``
    and ``service.pool_rebuilds`` counters are written directly by the
    executor into its own registry — they are supervisor state, so the
    observer deliberately does not double-count them from the
    ``service_retry`` / ``service_pool_rebuild`` events it traces.)
    """

    __slots__ = ("registry",)

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry

    def chase_step_started(self, *, step, variant, atoms) -> None:
        self.registry.gauge("chase.atoms").set(atoms)

    def trigger_selected(self, *, step, rule, active) -> None:
        self.registry.counter("trigger.selected").inc()
        self.registry.gauge("chase.active_triggers").set(active)

    def trigger_retired(self, *, step, rule, reason, count=1) -> None:
        self.registry.counter("trigger.retired").inc(count)

    def chase_step_finished(
        self, *, step, rule, atoms_before, atoms_applied, atoms_after, retracted
    ) -> None:
        reg = self.registry
        reg.counter("chase.steps").inc()
        reg.gauge("chase.atoms").set(atoms_after)
        if retracted > 0:
            reg.counter("chase.retractions").inc()
            reg.counter("chase.atoms_retracted").inc(retracted)
        reg.histogram("chase.retraction_size").observe(retracted)

    def core_retraction(
        self, *, atoms_before, atoms_after, variables_folded, seconds
    ) -> None:
        reg = self.registry
        reg.counter("core.retractions").inc()
        reg.counter("core.variables_folded").inc(variables_folded)
        reg.timer("core.time").record(seconds)

    def core_maintenance(
        self,
        *,
        mode,
        atoms_before,
        atoms_after,
        folds,
        candidates_tried,
        skip_hits,
        seeded_searches,
        pairs_checked,
        cert_invalidated,
        clean_broken,
        seconds,
    ) -> None:
        reg = self.registry
        reg.counter("core.maintained").inc()
        reg.counter("core.skip_hits").inc(skip_hits)
        reg.counter("core.candidates_tried").inc(candidates_tried)
        reg.counter("core.pairs_checked").inc(pairs_checked)
        reg.counter("core.cert_invalidated").inc(cert_invalidated)
        if clean_broken:
            reg.counter("core.clean_broken").inc()

    def homomorphism_search(
        self, *, found, backtracks, source_atoms, target_atoms, seconds
    ) -> None:
        reg = self.registry
        reg.counter("hom.searches").inc()
        if found:
            reg.counter("hom.found").inc()
        reg.counter("hom.backtracks").inc(backtracks)
        reg.histogram("hom.backtracks_per_search").observe(backtracks)
        reg.timer("hom.time").record(seconds)

    def trigger_index_update(
        self,
        *,
        step,
        delta_atoms,
        triggers_new,
        triggers_reused,
        satisfaction_rechecks,
        transported,
        collapsed,
    ) -> None:
        reg = self.registry
        reg.counter("index.delta_atoms").inc(delta_atoms)
        reg.counter("index.triggers_new").inc(triggers_new)
        reg.counter("index.triggers_reused").inc(triggers_reused)
        reg.counter("index.satisfaction_rechecks").inc(satisfaction_rechecks)
        reg.counter("index.collapsed").inc(collapsed)

    def compile(self, *, rule, body_atoms, variables) -> None:
        self.registry.counter("compiled.plans").inc()

    def join_plan(self, *, delta_atoms, plans_run, triggers_new, tuples) -> None:
        reg = self.registry
        reg.counter("compiled.delta_rounds").inc()
        reg.gauge("compiled.tuples").set(tuples)

    def service_request(self, *, op, coalesced) -> None:
        reg = self.registry
        reg.counter("service.requests").inc()
        if coalesced:
            reg.counter("service.coalesced").inc()

    def service_job(
        self,
        *,
        op,
        ok,
        warm,
        incomplete,
        deadline_expired,
        applications,
        seconds,
        ancestor=False,
    ) -> None:
        reg = self.registry
        reg.counter("service.jobs").inc()
        if not ok:
            reg.counter("service.job_errors").inc()
        if warm:
            reg.counter("service.warm_hits").inc()
        else:
            reg.counter("service.warm_misses").inc()
        if ancestor:
            reg.counter("service.ancestor_resumes").inc()
        if incomplete:
            reg.counter("service.incomplete").inc()
        if deadline_expired:
            reg.counter("service.deadline_expired").inc()
        reg.counter("service.applications").inc(applications)
        reg.timer("service.job_seconds").record(seconds)
        reg.histogram("service.job_latency", LATENCY_BOUNDS).observe(seconds)

    def planner_decision(
        self,
        *,
        strategy,
        cached,
        rules_fingerprint="",
        terminating=False,
        bts=False,
        k_bound=None,
    ) -> None:
        reg = self.registry
        if cached == "computed":
            reg.counter("planner.verdicts").inc()
        else:
            reg.counter("planner.cache_hits").inc()
        reg.counter(f"planner.strategy.{strategy}").inc()

    def query_rewrite(
        self,
        *,
        source,
        fragment="",
        complete=False,
        disjuncts=0,
        pruned=0,
    ) -> None:
        reg = self.registry
        reg.counter("query.plan_lookups").inc()
        if source == "computed":
            if fragment:
                reg.counter("query.rewrites").inc()
            reg.counter("query.disjuncts_pruned").inc(pruned)
        else:
            reg.counter("query.plan_cache_hits").inc()
        if fragment and not complete:
            reg.counter("query.rewrite_fallbacks").inc()

    def snapshot_access(
        self,
        *,
        op,
        hit,
        corrupt=False,
        atoms=0,
        seconds=0.0,
        chain_depth=0,
        chain_broken=False,
        bytes_saved=0,
        ancestor=False,
    ) -> None:
        reg = self.registry
        if op == "load":
            reg.counter("snapshot.loads").inc()
            if hit:
                reg.counter("snapshot.hits").inc()
            if corrupt:
                reg.counter("snapshot.corrupt").inc()
        elif op == "resolve":
            reg.counter("snapshot.ancestor_probes").inc()
            if hit:
                reg.counter("snapshot.ancestor_hits").inc()
        elif op == "evict":
            reg.counter("snapshot.evicted").inc()
        else:
            reg.counter("snapshot.saves").inc()
            if bytes_saved > 0:
                reg.counter("snapshot.bytes_saved").inc(bytes_saved)
        if chain_broken:
            reg.counter("snapshot.chain_broken").inc()
        if hit and chain_depth:
            reg.gauge("snapshot.delta_chain_depth").set(chain_depth)

    def treewidth_search(self, *, k, verdict, budget_consumed) -> None:
        reg = self.registry
        reg.counter("tw.searches").inc()
        reg.counter("tw.budget_consumed").inc(budget_consumed)

    def robust_step(self, *, step, renamed, atoms, stable_terms) -> None:
        reg = self.registry
        reg.counter("robust.steps").inc()
        reg.counter("robust.renamed").inc(renamed)

    def span_close(
        self,
        *,
        name,
        trace_id,
        span_id,
        parent_span_id=None,
        status="ok",
        seconds=0.0,
        **attrs,
    ) -> None:
        # Span names form a small closed set (request lifecycle phases),
        # so one timer per name stays bounded; workers ship these back
        # in their snapshot, giving the parent per-phase durations.
        self.registry.timer(f"span.{name}").record(seconds)


class TracingObserver(MetricsObserver):
    """Emit every event to a :class:`JsonlTracer` (and, optionally, into
    a metrics registry — pass ``registry=None`` to trace only)."""

    __slots__ = ("tracer",)

    def __init__(
        self, tracer: JsonlTracer, registry: Optional[MetricsRegistry] = None
    ):
        # `registry if ... is not None`, not `registry or`: a registry
        # with no instruments yet is empty and therefore falsy.
        super().__init__(
            registry if registry is not None else MetricsRegistry(enabled=False)
        )
        self.tracer = tracer

    def chase_step_started(self, **kw) -> None:
        self.tracer.emit("chase_step_started", **kw)
        super().chase_step_started(**kw)

    def trigger_selected(self, **kw) -> None:
        self.tracer.emit("trigger_selected", **kw)
        super().trigger_selected(**kw)

    def trigger_retired(self, **kw) -> None:
        self.tracer.emit("trigger_retired", **kw)
        super().trigger_retired(**kw)

    def chase_step_finished(self, **kw) -> None:
        self.tracer.emit("chase_step_finished", **kw)
        super().chase_step_finished(**kw)

    def core_retraction(self, **kw) -> None:
        self.tracer.emit("core_retraction", **kw)
        super().core_retraction(**kw)

    def core_maintenance(self, **kw) -> None:
        self.tracer.emit("core_maintenance", **kw)
        super().core_maintenance(**kw)

    def homomorphism_search(self, **kw) -> None:
        self.tracer.emit("homomorphism_search", **kw)
        super().homomorphism_search(**kw)

    def trigger_index_update(self, **kw) -> None:
        self.tracer.emit("trigger_index_update", **kw)
        super().trigger_index_update(**kw)

    def compile(self, **kw) -> None:
        self.tracer.emit("compile", **kw)
        super().compile(**kw)

    def join_plan(self, **kw) -> None:
        self.tracer.emit("join_plan", **kw)
        super().join_plan(**kw)

    def service_request(self, **kw) -> None:
        self.tracer.emit("service_request", **kw)
        super().service_request(**kw)

    def service_job(self, **kw) -> None:
        self.tracer.emit("service_job", **kw)
        super().service_job(**kw)

    def service_retry(self, **kw) -> None:
        self.tracer.emit("service_retry", **kw)
        super().service_retry(**kw)

    def service_pool_rebuild(self, **kw) -> None:
        self.tracer.emit("service_pool_rebuild", **kw)
        super().service_pool_rebuild(**kw)

    def planner_decision(self, **kw) -> None:
        self.tracer.emit("planner_decision", **kw)
        super().planner_decision(**kw)

    def query_rewrite(self, **kw) -> None:
        self.tracer.emit("query_rewrite", **kw)
        super().query_rewrite(**kw)

    def snapshot_access(self, **kw) -> None:
        self.tracer.emit("snapshot_access", **kw)
        super().snapshot_access(**kw)

    def treewidth_search(self, **kw) -> None:
        self.tracer.emit("treewidth_search", **kw)
        super().treewidth_search(**kw)

    def robust_step(self, **kw) -> None:
        self.tracer.emit("robust_step", **kw)
        super().robust_step(**kw)

    def span_open(self, **kw) -> None:
        self.tracer.emit("span_open", **kw)
        super().span_open(**kw)

    def span_close(self, **kw) -> None:
        self.tracer.emit("span_close", **kw)
        super().span_close(**kw)


def _trace_lines(source: Union[str, IO[str], Iterable[str]]) -> list[str]:
    if isinstance(source, str):
        with open(source) as handle:
            lines = handle.readlines()
    elif hasattr(source, "read"):
        lines = source.readlines()
    else:
        lines = list(source)
    stripped = [line.strip() for line in lines]
    return [line for line in stripped if line]


def read_trace(source: Union[str, IO[str], Iterable[str]]) -> list[dict]:
    """Parse a JSONL trace from a path, open file, or iterable of lines.

    Blank lines are skipped; a malformed *final* line (a run cut short
    mid-write) is dropped, while malformed interior lines raise."""
    stripped = _trace_lines(source)
    events: list[dict] = []
    for index, line in enumerate(stripped):
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            if index == len(stripped) - 1:
                break  # torn final write
            raise
    return events


def read_trace_lenient(
    source: Union[str, IO[str], Iterable[str]],
) -> tuple[list[dict], int]:
    """Best-effort variant of :func:`read_trace` for offline analysis.

    Never raises on malformed content: every unparseable non-blank line
    is skipped (a crashed writer, interleaved writers, or a truncated
    copy can all leave torn lines anywhere, not just at the end).
    Returns ``(events, skipped)`` so callers can surface how much of the
    trace was unreadable."""
    events: list[dict] = []
    skipped = 0
    for line in _trace_lines(source):
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            skipped += 1
            continue
        if isinstance(event, dict):
            events.append(event)
        else:
            skipped += 1
    return events, skipped
