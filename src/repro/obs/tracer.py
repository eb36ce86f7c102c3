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
worker — merge onto one timeline), ``kind`` one of
:data:`~repro.obs.observer.EVENT_KINDS`; the remaining fields are
exactly the fields the emit site passed (see
:data:`~repro.obs.observer.EVENTS` for the schema of each kind, and
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
from .observer import EVENTS, Observer

__all__ = [
    "JsonlTracer",
    "TracingObserver",
    "MetricsObserver",
    "read_trace",
    "read_trace_lenient",
]


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
    """Update a :class:`MetricsRegistry` from the event stream, through
    each kind's :data:`~repro.obs.observer.EVENTS` update (metric names:
    ``docs/OBSERVABILITY.md``)."""

    __slots__ = ("registry",)

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry

    def emit(self, kind: str, **fields) -> None:
        event = EVENTS[kind]
        if event.update is not None:
            if event.optional:
                fields = {**event.optional, **fields}
            event.update(self.registry, fields)


class TracingObserver(MetricsObserver):
    """Emit every event to a :class:`JsonlTracer` (and, optionally, into
    a metrics registry — given no registry it traces only)."""

    __slots__ = ("tracer",)

    def __init__(
        self, tracer: JsonlTracer, registry: Optional[MetricsRegistry] = None
    ):
        super().__init__(registry)
        self.tracer = tracer

    def emit(self, kind: str, **fields) -> None:
        self.tracer.emit(kind, **fields)
        # `is not None`, not truthiness: a registry with no instruments
        # yet is empty and therefore falsy.
        if self.registry is not None:
            super().emit(kind, **fields)


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
