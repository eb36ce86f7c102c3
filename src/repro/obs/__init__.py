"""Observability: metrics, structured tracing, and chase telemetry.

The paper's phenomena are *trajectories* — per-step retraction sizes in
the core chase of the inflating elevator (Section 7), grid growth in the
staircase (Section 6), treewidth of the cores ``I^v_n`` — so the library
exposes them as first-class data instead of burying them in a final
:class:`~repro.chase.engine.ChaseResult`:

* :mod:`repro.obs.metrics` — a dependency-free registry of counters,
  gauges, timers and histograms; there is no process-global one, so a
  caller that wants metrics makes a registry and observes into it;
* :mod:`repro.obs.observer` — the :class:`Observer` protocol the hot
  paths (chase engine, core retraction, homomorphism search, exact
  treewidth, robust aggregation) report into through one
  ``emit(kind, **fields)``, the :data:`EVENTS` table that defines each
  kind's fields and metric update, plus the process-global ``current``
  observer those paths check with a single attribute test;
* :mod:`repro.obs.tracer` — :class:`JsonlTracer` /
  :class:`TracingObserver`, emitting one JSON object per event so a run
  can be replayed offline (``repro stats``), and
  :class:`MetricsObserver` for metrics-only accounting;
* :mod:`repro.obs.spans` — trace contexts (``trace_id`` / ``span_id`` /
  ``parent_span_id``) propagated across the serving tier's process
  boundaries, span open/close events around request lifecycle phases,
  cross-process trace merging (:func:`read_trace_dir`) and the shared
  latency-percentile machinery behind the server's ``stats`` op and
  ``repro trace`` / ``repro top``;
* :mod:`repro.obs.stats` — trace replay into summary series and tables:
  every total is read back from the metrics the trace replays into, so
  ``repro stats`` and the live ``stats`` op count with the same updates
  (imported separately, ``from repro.obs import stats``, because it
  pulls in :mod:`repro.util`).

Nothing in this package imports the rest of the library (except
``stats``), so the logic layer can import it without cycles.

Quickstart::

    from repro import core_chase, elevator_kb
    from repro.obs import JsonlTracer, TracingObserver, observing

    with open("run.jsonl", "w") as sink:
        with observing(TracingObserver(JsonlTracer(sink))):
            core_chase(elevator_kb(), max_steps=40)
"""

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
)
from .observer import (
    EVENT_KINDS,
    EVENTS,
    LATENCY_BOUNDS,
    Observer,
    get_observer,
    observing,
    schema_errors,
    set_observer,
)
from .spans import (
    RollingLatencies,
    TraceContext,
    activate,
    current_context,
    latency_summary,
    read_trace_dir,
    span,
)
from .tracer import (
    JsonlTracer,
    MetricsObserver,
    TracingObserver,
    read_trace,
    read_trace_lenient,
)

__all__ = [
    "Counter",
    "EVENTS",
    "EVENT_KINDS",
    "Gauge",
    "Histogram",
    "JsonlTracer",
    "LATENCY_BOUNDS",
    "MetricsObserver",
    "MetricsRegistry",
    "Observer",
    "RollingLatencies",
    "Timer",
    "TraceContext",
    "TracingObserver",
    "activate",
    "current_context",
    "get_observer",
    "latency_summary",
    "observing",
    "read_trace",
    "read_trace_dir",
    "read_trace_lenient",
    "schema_errors",
    "set_observer",
    "span",
]
