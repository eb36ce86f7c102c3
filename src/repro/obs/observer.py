"""The :class:`Observer` protocol the instrumented hot paths report into,
and :data:`EVENTS`, the one table of event kinds it carries.

Design constraints:

* **Zero-cost when off.**  Every instrumented module keeps a reference
  to this module and tests ``observer.current is not None`` — a single
  attribute load and identity check — before doing any accounting.  The
  chase engine resolves the observer once per :meth:`~ChaseEngine.run`.
* **Injectable.**  :class:`~repro.chase.engine.ChaseEngine` accepts an
  ``observer=`` argument for scoped use; the module-global ``current``
  (managed by :func:`set_observer` / :func:`observing`) reaches the
  functional hot paths (homomorphism search, core retraction, exact
  treewidth) that have no object to hang state on.
* **One entry point.**  Emit sites call ``observer.emit(kind,
  **fields)``; subclasses override :meth:`Observer.emit` and filter on
  ``kind``.  :data:`EVENTS` gives each kind's fields and the metrics it
  feeds; ``docs/OBSERVABILITY.md`` gives what the fields mean.

The kinds mirror the paper's quantities: per-step retraction sizes
(Section 7), homomorphism search effort (the single semantic primitive),
treewidth search budgets (Section 4), robust-renaming churn (Section 8).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, NamedTuple, Optional

from .metrics import MetricsRegistry

__all__ = [
    "EVENTS",
    "EVENT_KINDS",
    "LATENCY_BOUNDS",
    "Event",
    "Observer",
    "current",
    "get_observer",
    "set_observer",
    "observing",
    "schema_errors",
]


class Observer:
    """No-op base observer; override :meth:`emit` to receive events.

    Implementations must not mutate the engine's state and should be
    fast — they run inline on hot paths.
    """

    __slots__ = ()

    def emit(self, kind: str, **fields) -> None:
        """One event of *kind* (a key of :data:`EVENTS`) with its fields."""


#: Histogram bucket bounds for service job latencies, in seconds: the
#: default 1-2-5 decades start at 1 and would lump every sub-second job
#: into one bucket, useless for p50/p95 targets on a warm-started path.
LATENCY_BOUNDS = (
    0.001, 0.002, 0.005, 0.01, 0.02, 0.05,
    0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0,
)


# -- metric updates, one per kind ---------------------------------------
# Each takes (registry, fields); *fields* holds every optional field of
# its kind, defaulted where the emit site left it out.


def _chase_step_started(reg, f):
    reg.gauge("chase.atoms").set(f["atoms"])


def _trigger_selected(reg, f):
    reg.counter("trigger.selected").inc()
    reg.gauge("chase.active_triggers").set(f["active"])


def _trigger_retired(reg, f):
    reg.counter("trigger.retired").inc(f["count"])


def _chase_step_finished(reg, f):
    retracted = f["retracted"]
    reg.counter("chase.steps").inc()
    reg.gauge("chase.atoms").set(f["atoms_after"])
    if retracted > 0:
        reg.counter("chase.retractions").inc()
        reg.counter("chase.atoms_retracted").inc(retracted)
    reg.histogram("chase.retraction_size").observe(retracted)


def _core_retraction(reg, f):
    folded = f["atoms_before"] - f["atoms_after"]
    reg.counter("core.retractions").inc()
    if folded > 0:
        reg.counter("core.proper_retractions").inc()
    reg.counter("core.atoms_folded").inc(folded)
    reg.counter("core.variables_folded").inc(f["variables_folded"])
    reg.timer("core.time").record(f["seconds"])


def _core_maintenance(reg, f):
    reg.counter("core.maintained").inc()
    if f["mode"] == "incremental":
        reg.counter("core.incremental").inc()
    for name in ("candidates_tried", "pairs_checked"):
        reg.counter(f"core.{name}").inc(f[name])
    if f["clean_broken"]:
        reg.counter("core.clean_broken").inc()
    reg.timer("core.maintenance_time").record(f["seconds"])


def _homomorphism_search(reg, f):
    backtracks = f["backtracks"]
    reg.counter("hom.searches").inc()
    if f["found"]:
        reg.counter("hom.found").inc()
    reg.counter("hom.backtracks").inc(backtracks)
    reg.histogram("hom.backtracks_per_search").observe(backtracks)
    reg.timer("hom.time").record(f["seconds"])


def _trigger_index_update(reg, f):
    for name in ("delta_atoms", "triggers_new", "triggers_reused",
                 "satisfaction_rechecks", "collapsed"):
        reg.counter(f"index.{name}").inc(f[name])


def _compile(reg, f):
    reg.counter("compiled.plans").inc()


def _join_plan(reg, f):
    reg.counter("compiled.delta_rounds").inc()
    reg.gauge("compiled.tuples").set(f["tuples"])


def _service_request(reg, f):
    reg.counter("service.requests").inc()
    if f["coalesced"]:
        reg.counter("service.coalesced").inc()


def _service_job(reg, f):
    reg.counter("service.jobs").inc()
    if not f["ok"]:
        reg.counter("service.job_errors").inc()
    if f["warm"]:
        reg.counter("service.warm_hits").inc()
    if f["ancestor"]:
        reg.counter("service.ancestor_resumes").inc()
    if f["incomplete"]:
        reg.counter("service.incomplete").inc()
    if f["deadline_expired"]:
        reg.counter("service.deadline_expired").inc()
    if f["strategy"] is not None:
        reg.counter(f"service.strategy.{f['strategy']}").inc()
    reg.counter("service.applications").inc(f["applications"])
    reg.histogram("service.job_latency", LATENCY_BOUNDS).observe(f["seconds"])


def _service_retry(reg, f):
    reg.counter("service.retries").inc()


def _service_pool_rebuild(reg, f):
    reg.counter("service.pool_rebuilds").inc()


def _planner_decision(reg, f):
    computed = f["cached"] == "computed"
    reg.counter("planner.verdicts" if computed else "planner.cache_hits").inc()
    reg.counter(f"planner.strategy.{f['strategy']}").inc()


def _query_rewrite(reg, f):
    reg.counter("query.plan_lookups").inc()
    if f["source"] == "computed":
        if f["fragment"]:
            reg.counter("query.rewrites").inc()
        reg.counter("query.disjuncts_pruned").inc(f["pruned"])
    else:
        reg.counter("query.plan_cache_hits").inc()
    if f["fragment"] and not f["complete"]:
        reg.counter("query.rewrite_fallbacks").inc()


def _snapshot_access(reg, f):
    op, hit = f["op"], f["hit"]
    if op == "load":
        reg.counter("snapshot.loads").inc()
        if hit:
            reg.counter("snapshot.hits").inc()
        if f["corrupt"]:
            reg.counter("snapshot.corrupt").inc()
    elif op == "resolve":
        reg.counter("snapshot.ancestor_probes").inc()
        if hit:
            reg.counter("snapshot.ancestor_hits").inc()
    elif op == "evict":
        reg.counter("snapshot.evicted").inc()
    else:
        reg.counter("snapshot.saves").inc()


def _treewidth_search(reg, f):
    reg.counter("tw.searches").inc()
    reg.counter("tw.budget_consumed").inc(f["budget_consumed"])
    if f["verdict"] is None:
        reg.counter("tw.exhausted").inc()


def _robust_step(reg, f):
    reg.counter("robust.steps").inc()
    reg.counter("robust.renamed").inc(f["renamed"])


def _span_close(reg, f):
    # Span names form a small closed set (request lifecycle phases), so
    # one timer per name stays bounded; workers ship these back in their
    # snapshot, giving the parent per-phase durations.
    reg.timer(f"span.{f['name']}").record(f["seconds"])


class Event(NamedTuple):
    """One kind's row in :data:`EVENTS`."""

    #: Fields every emit of the kind passes.
    required: tuple[str, ...]
    #: Fields an emit may leave out, with the value a metric update
    #: reads in their place (a trace records only what was passed).
    optional: dict = {}
    #: Whether the kind also carries span-specific attributes.
    extra: bool = False
    #: ``update(registry, fields)``: the metrics the kind feeds.
    update: Optional[Callable[[MetricsRegistry, dict], None]] = None


#: Every event kind an observer can receive, in trace-summary order.
EVENTS: dict[str, Event] = {
    "chase_step_started": Event(
        ("step", "variant", "atoms"), update=_chase_step_started
    ),
    "trigger_selected": Event(("step", "rule", "active"), update=_trigger_selected),
    "trigger_retired": Event(
        ("step", "rule", "reason"), {"count": 1}, update=_trigger_retired
    ),
    "chase_step_finished": Event(
        ("step", "rule", "atoms_before", "atoms_applied", "atoms_after",
         "retracted"),
        update=_chase_step_finished,
    ),
    "core_retraction": Event(
        ("atoms_before", "atoms_after", "variables_folded", "seconds"),
        update=_core_retraction,
    ),
    "core_maintenance": Event(
        ("mode", "atoms_before", "atoms_after", "folds", "candidates_tried",
         "pairs_checked", "clean_broken", "seconds"),
        update=_core_maintenance,
    ),
    "homomorphism_search": Event(
        ("found", "backtracks", "source_atoms", "target_atoms", "seconds"),
        update=_homomorphism_search,
    ),
    "trigger_index_update": Event(
        ("step", "delta_atoms", "triggers_new", "triggers_reused",
         "satisfaction_rechecks", "transported", "collapsed"),
        update=_trigger_index_update,
    ),
    "compile": Event(("rule", "body_atoms", "variables"), update=_compile),
    "join_plan": Event(
        ("delta_atoms", "plans_run", "triggers_new", "tuples"),
        update=_join_plan,
    ),
    "service_request": Event(("op", "coalesced"), update=_service_request),
    "service_job": Event(
        ("op", "ok", "warm", "incomplete", "deadline_expired", "applications",
         "seconds"),
        {"ancestor": False, "strategy": None},
        update=_service_job,
    ),
    "service_retry": Event(
        ("op", "attempt", "delay", "error"), update=_service_retry
    ),
    "service_pool_rebuild": Event(("pending",), update=_service_pool_rebuild),
    "planner_decision": Event(
        ("strategy", "cached"),
        {"rules_fingerprint": "", "terminating": False, "bts": False},
        update=_planner_decision,
    ),
    "query_rewrite": Event(
        ("source",),
        {"fragment": "", "complete": False, "disjuncts": 0, "pruned": 0},
        update=_query_rewrite,
    ),
    "snapshot_access": Event(
        ("op", "hit"),
        {"corrupt": False, "atoms": 0, "seconds": 0.0, "ancestor": False},
        update=_snapshot_access,
    ),
    "treewidth_search": Event(
        ("k", "verdict", "budget_consumed"), update=_treewidth_search
    ),
    "robust_step": Event(
        ("step", "renamed", "atoms", "stable_terms"), update=_robust_step
    ),
    "span_open": Event(
        ("name", "trace_id", "span_id"), {"parent_span_id": None}, extra=True
    ),
    "span_close": Event(
        ("name", "trace_id", "span_id", "seconds"),
        {"parent_span_id": None, "status": "ok"},
        extra=True,
        update=_span_close,
    ),
}

#: Every event kind, in :data:`EVENTS` order.
EVENT_KINDS = tuple(EVENTS)


def schema_errors(event: dict) -> list[str]:
    """How trace record *event* breaks :data:`EVENTS`: an unknown kind,
    or the required fields it lacks.  Empty when it conforms; fields
    beyond the entry's are not checked."""
    kind = event.get("kind")
    entry = EVENTS.get(kind) if isinstance(kind, str) else None
    if entry is None:
        return [f"unknown kind {kind!r}"]
    return [
        f"{kind} lacks {name!r}" for name in entry.required if name not in event
    ]


#: The process-global observer.  ``None`` means telemetry is off and the
#: instrumented paths skip all accounting after one identity check.
current: Optional[Observer] = None


def get_observer() -> Optional[Observer]:
    """The process-global observer, or None when telemetry is off."""
    return current


def set_observer(observer: Optional[Observer]) -> Optional[Observer]:
    """Install *observer* as the process-global observer.

    Returns the previous observer so callers can restore it; prefer the
    :func:`observing` context manager for scoped installation.
    """
    global current
    previous = current
    current = observer
    return previous


@contextmanager
def observing(observer: Optional[Observer]) -> Iterator[Optional[Observer]]:
    """Temporarily install *observer* as the process-global observer."""
    previous = set_observer(observer)
    try:
        yield observer
    finally:
        set_observer(previous)
