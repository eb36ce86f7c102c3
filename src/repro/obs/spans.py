"""Trace contexts and spans: causal, cross-process request telemetry.

A **trace context** is the triple ``(trace_id, span_id, parent_span_id)``
minted once per accepted request and propagated — as a plain JSON-able
dict — through :class:`~repro.service.jobs.JobRequest` across the spawn
boundary into the worker, so every event any tracer emits on behalf of
that request can be stitched back into one causal timeline no matter
which process wrote it.

**Spans** are the timeline's edges: a ``span_open`` / ``span_close``
event pair (ordinary :class:`~repro.obs.tracer.JsonlTracer` events)
bracketing one lifecycle phase — the client-visible request, the shared
job it coalesced onto, each executor attempt, the retry backoff, a pool
rebuild, queue wait, snapshot load, the chase itself.  While a span is
open it is the **ambient context** (a :class:`~contextvars.ContextVar`,
so concurrent asyncio tasks and executor callback threads each see their
own), and :meth:`JsonlTracer.emit` stamps ``trace_id`` / ``span_id``
onto every event emitted under it — engine steps, homomorphism
searches, snapshot accesses all land inside the right span for free.

Everything here preserves the observer-off contract: with no observer
installed, :func:`span` yields ``None`` without minting ids, taking a
clock reading, or touching the context variable.

The second half of the module is the offline/live analysis shared by
``repro trace``, ``repro top``, the server's ``stats`` op and the chaos
benchmark: merging per-process trace files on the wall clock
(:func:`read_trace_dir`), rebuilding one trace's span tree
(:func:`build_trace` / :func:`render_trace`), and nearest-rank latency
summaries (:func:`latency_summary`, :class:`RollingLatencies`) computed
by one shared code path so the live ``stats`` op and the offline
``repro stats`` replay agree to the digit.
"""

from __future__ import annotations

import binascii
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from . import observer as _observer_state
from .observer import Observer

__all__ = [
    "TraceContext",
    "current_context",
    "activate",
    "span",
    "open_span",
    "close_span",
    "new_span_id",
    "read_trace_dir",
    "trace_ids",
    "SpanNode",
    "TraceTree",
    "build_trace",
    "trace_to_obj",
    "render_trace",
    "percentile",
    "latency_summary",
    "RollingLatencies",
]


def new_span_id() -> str:
    """A fresh 64-bit hex id (random enough to never collide in a run)."""
    return binascii.hexlify(os.urandom(8)).decode("ascii")


@dataclass(frozen=True)
class TraceContext:
    """One request's position in its trace: ``(trace, span, parent)``.

    Immutable by design — propagation mints :meth:`child` contexts
    instead of mutating, so a context captured by a closure (an executor
    retry timer, a coalesced waiter) can never be scribbled over.
    """

    trace_id: str
    span_id: str
    parent_span_id: Optional[str] = None

    @classmethod
    def new_root(cls) -> "TraceContext":
        """Mint the root context of a brand-new trace."""
        return cls(trace_id=new_span_id(), span_id=new_span_id())

    def child(self) -> "TraceContext":
        """A fresh context one level below this one, same trace."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=new_span_id(),
            parent_span_id=self.span_id,
        )

    def to_obj(self) -> dict:
        """The JSON-able wire form (rides on ``JobRequest.trace``)."""
        obj = {"trace_id": self.trace_id, "span_id": self.span_id}
        if self.parent_span_id is not None:
            obj["parent_span_id"] = self.parent_span_id
        return obj

    @classmethod
    def from_obj(cls, obj) -> Optional["TraceContext"]:
        """Rebuild a context from its wire form; None on anything else."""
        if not isinstance(obj, dict):
            return None
        trace_id = obj.get("trace_id")
        span_id = obj.get("span_id")
        if not isinstance(trace_id, str) or not isinstance(span_id, str):
            return None
        parent = obj.get("parent_span_id")
        return cls(
            trace_id=trace_id,
            span_id=span_id,
            parent_span_id=parent if isinstance(parent, str) else None,
        )


#: The ambient context: per-asyncio-task and per-thread, so the server's
#: concurrent request handlers and the executor's callback threads never
#: see each other's spans.
_CURRENT: ContextVar[Optional[TraceContext]] = ContextVar(
    "repro_trace_context", default=None
)


def current_context() -> Optional[TraceContext]:
    """The ambient trace context, or None outside any span."""
    return _CURRENT.get()


@contextmanager
def activate(context: Optional[TraceContext]) -> Iterator[Optional[TraceContext]]:
    """Make *context* ambient for the duration of the ``with`` block.

    Used where a span is *not* being opened but events must still be
    stamped — e.g. the executor emitting ``service_retry`` on behalf of
    a job whose span lives on, or a worker restoring the context it was
    handed across the spawn boundary.  ``activate(None)`` is a no-op.
    """
    if context is None:
        yield None
        return
    token = _CURRENT.set(context)
    try:
        yield context
    finally:
        _CURRENT.reset(token)


def open_span(
    observer: Optional[Observer],
    context: Optional[TraceContext],
    name: str,
    **attrs,
) -> None:
    """Emit a ``span_open`` for *context* through *observer* (no-op when
    either is None).  For spans whose open and close happen in different
    callbacks (the executor's attempt spans); prefer :func:`span`."""
    if observer is None or context is None:
        return
    observer.emit("span_open", name=name, **context.to_obj(), **attrs)


def close_span(
    observer: Optional[Observer],
    context: Optional[TraceContext],
    name: str,
    status: str = "ok",
    *,
    seconds: float,
    **attrs,
) -> None:
    """Emit the matching ``span_close``, which carries the span's
    measured *seconds* (no-op when *observer* or *context* is None)."""
    if observer is None or context is None:
        return
    observer.emit(
        "span_close",
        name=name,
        status=status,
        **context.to_obj(),
        **attrs,
        seconds=seconds,
    )


@contextmanager
def span(
    name: str,
    observer: Optional[Observer] = None,
    parent: Optional[TraceContext] = None,
    context: Optional[TraceContext] = None,
    **attrs,
) -> Iterator[Optional[TraceContext]]:
    """Open a span around a code block and make it ambient.

    *observer* defaults to the process-global one; when both are None
    the block runs with **zero** tracing work — no ids, no clock, no
    contextvar — preserving the observer-off cheapness contract.

    The span's context is *context* if given, else a child of *parent*,
    else a child of the ambient context, else a new trace root.  The
    ``span_close`` carries ``status`` (``"error"`` when the block
    raised; the exception propagates) and the measured ``seconds``.
    """
    obs = observer if observer is not None else _observer_state.current
    if obs is None:
        yield None
        return
    if context is None:
        base = parent if parent is not None else _CURRENT.get()
        context = base.child() if base is not None else TraceContext.new_root()
    started = time.perf_counter()
    obs.emit("span_open", name=name, **context.to_obj(), **attrs)
    token = _CURRENT.set(context)
    status = "ok"
    try:
        yield context
    except BaseException:
        status = "error"
        raise
    finally:
        _CURRENT.reset(token)
        obs.emit(
            "span_close",
            name=name,
            status=status,
            seconds=round(time.perf_counter() - started, 6),
            **context.to_obj(),
        )


# ---------------------------------------------------------------------------
# timeline reconstruction (repro trace, chaos harness, tests)
# ---------------------------------------------------------------------------


def read_trace_dir(root) -> tuple[list[dict], int]:
    """Merge every ``*.jsonl`` under *root* into one wall-clock-ordered
    event list.

    This is the reader for a ``serve --trace-dir`` run directory
    (``server.jsonl`` plus one ``worker-<pid>.jsonl`` per pool worker).
    Events sort by their epoch ``ts`` (ties broken by filename and
    per-file order, so each writer's own sequence is preserved); reading
    is lenient — torn lines from a killed worker are counted, not
    fatal.  Returns ``(events, skipped)``.
    """
    from .tracer import read_trace_lenient  # local: tracer imports us

    merged: list[tuple[float, str, int, dict]] = []
    skipped = 0
    paths = sorted(str(p) for p in _jsonl_files(root))
    for path in paths:
        events, bad = read_trace_lenient(path)
        skipped += bad
        name = os.path.basename(path)
        for order, event in enumerate(events):
            ts = event.get("ts")
            key = ts if isinstance(ts, (int, float)) else 0.0
            merged.append((key, name, order, event))
    merged.sort(key=lambda item: (item[0], item[1], item[2]))
    return [event for (_, _, _, event) in merged], skipped


def _jsonl_files(root) -> list[str]:
    root = str(root)
    if os.path.isfile(root):
        return [root]
    try:
        names = os.listdir(root)
    except OSError:
        return []
    return [
        os.path.join(root, name)
        for name in names
        if name.endswith(".jsonl")
    ]


def trace_ids(events: Iterable[dict]) -> dict[str, int]:
    """Distinct trace ids in *events* with their event counts,
    insertion-ordered by first appearance."""
    seen: dict[str, int] = {}
    for event in events:
        tid = event.get("trace_id")
        if isinstance(tid, str):
            seen[tid] = seen.get(tid, 0) + 1
    return seen


@dataclass
class SpanNode:
    """One reconstructed span: its open/close payloads and children."""

    span_id: str
    name: str = "?"
    parent_span_id: Optional[str] = None
    trace_id: Optional[str] = None
    status: Optional[str] = None
    seconds: Optional[float] = None
    ts: Optional[float] = None
    attrs: dict = field(default_factory=dict)
    opened: bool = False
    closed: bool = False
    events: int = 0  # non-span events stamped with this span_id
    children: list["SpanNode"] = field(default_factory=list)


@dataclass
class TraceTree:
    """One trace's reconstructed span forest.

    ``roots`` are the spans with no parent inside the trace that *were*
    opened at a trace root (no ``parent_span_id`` at all); ``orphans``
    are spans whose recorded parent never appeared — the acceptance
    criterion for the serving tier is that a healthy run has none.
    ``unclosed`` lists spans opened but never closed (a crashed writer).
    """

    trace_id: str
    roots: list[SpanNode] = field(default_factory=list)
    orphans: list[SpanNode] = field(default_factory=list)
    unclosed: list[SpanNode] = field(default_factory=list)
    events: int = 0
    spans: int = 0


_SPAN_META = ("kind", "seq", "t", "ts", "name", "status", "seconds",
              "trace_id", "span_id", "parent_span_id")


def build_trace(events: Iterable[dict], trace_id: str) -> TraceTree:
    """Rebuild the span tree of *trace_id* from merged trace events."""
    nodes: dict[str, SpanNode] = {}
    tree = TraceTree(trace_id=trace_id)

    def node_for(span_id: str) -> SpanNode:
        node = nodes.get(span_id)
        if node is None:
            node = SpanNode(span_id=span_id, trace_id=trace_id)
            nodes[span_id] = node
        return node

    for event in events:
        if event.get("trace_id") != trace_id:
            continue
        tree.events += 1
        kind = event.get("kind")
        span_id = event.get("span_id")
        if not isinstance(span_id, str):
            continue
        if kind == "span_open":
            node = node_for(span_id)
            node.opened = True
            node.name = event.get("name", node.name)
            parent = event.get("parent_span_id")
            node.parent_span_id = parent if isinstance(parent, str) else None
            node.ts = event.get("ts", node.ts)
            node.attrs.update(
                {k: v for k, v in event.items() if k not in _SPAN_META}
            )
        elif kind == "span_close":
            node = node_for(span_id)
            node.closed = True
            node.name = event.get("name", node.name)
            node.status = event.get("status", node.status)
            node.seconds = event.get("seconds", node.seconds)
            parent = event.get("parent_span_id")
            if node.parent_span_id is None and isinstance(parent, str):
                node.parent_span_id = parent
            node.attrs.update(
                {k: v for k, v in event.items() if k not in _SPAN_META}
            )
        else:
            node_for(span_id).events += 1

    tree.spans = len(nodes)
    for node in nodes.values():
        if node.parent_span_id is None:
            tree.roots.append(node)
        elif node.parent_span_id in nodes:
            nodes[node.parent_span_id].children.append(node)
        else:
            tree.orphans.append(node)
        if node.opened and not node.closed:
            tree.unclosed.append(node)

    def sort_key(node: SpanNode):
        return (node.ts if node.ts is not None else 0.0, node.span_id)

    for node in nodes.values():
        node.children.sort(key=sort_key)
    tree.roots.sort(key=sort_key)
    tree.orphans.sort(key=sort_key)
    return tree


def _node_to_obj(node: SpanNode) -> dict:
    obj: dict = {
        "name": node.name,
        "span_id": node.span_id,
        "parent_span_id": node.parent_span_id,
        "status": node.status,
        "seconds": node.seconds,
        "ts": node.ts,
        "opened": node.opened,
        "closed": node.closed,
        "events": node.events,
    }
    if node.attrs:
        obj["attrs"] = node.attrs
    if node.children:
        obj["children"] = [_node_to_obj(child) for child in node.children]
    return obj


def trace_to_obj(tree: TraceTree) -> dict:
    """The JSON form of a reconstructed trace (``repro trace --format=json``)."""
    return {
        "trace_id": tree.trace_id,
        "events": tree.events,
        "spans": tree.spans,
        "roots": [_node_to_obj(node) for node in tree.roots],
        "orphans": [_node_to_obj(node) for node in tree.orphans],
        "unclosed": [node.span_id for node in tree.unclosed],
    }


def _render_node(node: SpanNode, prefix: str, last: bool, lines: list[str]) -> None:
    connector = "`- " if last else "|- "
    bits = [node.name]
    for key in ("op", "attempt", "coalesced", "wait_seconds"):
        if key in node.attrs:
            bits.append(f"{key}={node.attrs[key]}")
    if node.seconds is not None:
        bits.append(f"{node.seconds:.6f}s")
    if node.status and node.status != "ok":
        bits.append(node.status.upper())
        if "error" in node.attrs:
            bits.append(str(node.attrs["error"]))
    elif node.opened and not node.closed:
        bits.append("UNCLOSED")
    if node.events:
        bits.append(f"[{node.events} events]")
    lines.append(prefix + connector + " ".join(str(b) for b in bits))
    child_prefix = prefix + ("   " if last else "|  ")
    for index, child in enumerate(node.children):
        _render_node(child, child_prefix, index == len(node.children) - 1, lines)


def render_trace(tree: TraceTree) -> str:
    """Pretty-print one trace as an indented causal timeline."""
    lines = [
        f"trace {tree.trace_id}: {tree.spans} spans, {tree.events} events"
    ]
    for index, node in enumerate(tree.roots):
        _render_node(node, "", index == len(tree.roots) - 1, lines)
    if tree.orphans:
        lines.append(f"orphaned spans ({len(tree.orphans)}):")
        for index, node in enumerate(tree.orphans):
            _render_node(node, "", index == len(tree.orphans) - 1, lines)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# latency summaries (one code path for live stats and offline replay)
# ---------------------------------------------------------------------------


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """The *q*-quantile of pre-sorted *sorted_values* (nearest-rank)."""
    if not sorted_values:
        return 0.0
    index = max(
        0, min(len(sorted_values) - 1, round(q * (len(sorted_values) - 1)))
    )
    return sorted_values[index]


def _quantile_block(values: Sequence[float]) -> dict:
    ordered = sorted(values)
    return {
        "count": len(ordered),
        "mean": sum(ordered) / len(ordered),
        "p50": percentile(ordered, 0.50),
        "p95": percentile(ordered, 0.95),
        "p99": percentile(ordered, 0.99),
    }


def latency_summary(
    samples: Iterable[tuple[str, bool, bool, float]],
) -> dict:
    """Per-op latency quantiles over ``(op, warm, ok, seconds)`` samples.

    For each op: ``ok`` (all successful jobs), split further into
    ``warm`` / ``cold``, and — kept strictly apart so retry-inflated and
    failed runs cannot pollute the service-level objective — ``failed``.
    Every leaf is a ``{count, mean, p50, p95, p99}`` block.
    """
    by_op: dict[str, dict[str, list[float]]] = {}
    for op, warm, ok, seconds in samples:
        groups = by_op.setdefault(
            op, {"warm": [], "cold": [], "failed": []}
        )
        if not ok:
            groups["failed"].append(seconds)
        elif warm:
            groups["warm"].append(seconds)
        else:
            groups["cold"].append(seconds)
    out: dict[str, dict] = {}
    for op in sorted(by_op):
        groups = by_op[op]
        entry: dict = {}
        ok_all = groups["warm"] + groups["cold"]
        for label, values in (
            ("ok", ok_all),
            ("warm", groups["warm"]),
            ("cold", groups["cold"]),
            ("failed", groups["failed"]),
        ):
            if values:
                entry[label] = _quantile_block(values)
        out[op] = entry
    return out


class RollingLatencies:
    """A thread-safe rolling window of the last *capacity* job latencies.

    The server records every finished job here and the ``stats`` op
    reports :meth:`summary` — the same :func:`latency_summary` the
    offline ``repro stats`` replay computes from ``service_job`` events,
    so live and offline percentiles agree within rounding by
    construction.
    """

    def __init__(self, capacity: int = 512):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._samples: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def record(self, op: str, warm: bool, ok: bool, seconds: float) -> None:
        with self._lock:
            self._samples.append((op, warm, ok, seconds))

    def summary(self) -> dict:
        with self._lock:
            samples = list(self._samples)
        return latency_summary(samples)

    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)
