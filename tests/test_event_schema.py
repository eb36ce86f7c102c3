"""The event table is the schema: every emitted event matches its entry.

One module-scoped run traces every kind in
:data:`repro.obs.observer.EVENTS`: a core chase with robust aggregation,
a restricted chase, exact treewidth, ``execute_job`` cold, warm,
ancestor, planner-routed and rewrite jobs, and one request served by a
one-worker process pool whose worker is killed mid-job (a retry and a
pool rebuild).  The server's and the workers' trace files are merged
and every event is checked against its entry.  The event and metric
tables in ``docs/OBSERVABILITY.md`` are checked against the table,
against the metrics the run registers and against the metrics the
``repro stats`` row table reads.  A second, in-process run checks that
``repro stats`` reads the live registry's totals back from its trace.
"""

import asyncio
import re
from pathlib import Path

import pytest

from repro.chase.aggregation import RobustSequence
from repro.chase.engine import ChaseVariant, run_chase
from repro.kbs.staircase import staircase_kb
from repro.kbs.witnesses import manager_kb, transitive_closure_kb
from repro.logic.serialization import dump_kb
from repro.obs import (
    EVENT_KINDS,
    EVENTS,
    JsonlTracer,
    MetricsRegistry,
    TracingObserver,
    observing,
    schema_errors,
)
from repro.obs.spans import read_trace_dir
from repro.obs.stats import ROWS, summarize_trace
from repro.obs.tracer import read_trace
from repro.service.executor import JobExecutor, RetryPolicy
from repro.service.faults import FaultPlan
from repro.service.jobs import JobRequest, execute_job
from repro.service.server import EntailmentServer
from repro.service.snapshots import SnapshotStore
from repro.treewidth import treewidth_exact
from repro.treewidth.graph import Graph

from .test_service_executor import FAST_RETRY, entail_request
from .test_service_server import request_lines

DOC = Path(__file__).resolve().parents[1] / "docs" / "OBSERVABILITY.md"

#: Fields the tracer adds to every event it writes.
ENVELOPE = {"seq", "t", "ts", "kind", "trace_id", "span_id"}

CHAIN = dump_kb(transitive_closure_kb(4))
CHAIN_GROWN = CHAIN.replace("[facts]", "[facts]\ne(v4, v5)", 1)
MANAGERS = dump_kb(manager_kb())


def violations(event: dict) -> list[str]:
    """:func:`schema_errors`, plus the fields *event* carries that its
    entry does not declare (the span kinds take any)."""
    errors = schema_errors(event)
    entry = EVENTS.get(event.get("kind"))
    if entry is not None and not entry.extra:
        declared = ENVELOPE | set(entry.required) | set(entry.optional)
        errors += [
            f"{event['kind']} has undeclared {name!r}"
            for name in event
            if name not in declared
        ]
    return errors


def _library_paths():
    core = run_chase(staircase_kb(), variant=ChaseVariant.CORE, max_steps=8)
    RobustSequence(core.derivation)
    run_chase(transitive_closure_kb(3), variant=ChaseVariant.RESTRICTED)
    grid = Graph()
    for x in range(3):
        for y in range(3):
            if x + 1 < 3:
                grid.add_edge((x, y), (x + 1, y))
            if y + 1 < 3:
                grid.add_edge((x, y), (x, y + 1))
    assert treewidth_exact(grid) == 3


def _jobs(store):
    cold = JobRequest(op="entail", kb_text=CHAIN, query="e(v0, v4)")
    requests = [
        cold,
        cold,
        JobRequest(op="entail", kb_text=CHAIN_GROWN, query="e(v0, v5)"),
        JobRequest(op="entail", kb_text=CHAIN, query="e(v4, v0)", planner=True),
        JobRequest(op="entail", kb_text=MANAGERS, query="mgr(X, Y)", rewrite=True),
    ]
    first, warm, ancestor, routed, rewrite = [
        execute_job(request, store) for request in requests
    ]
    assert not first.warm and warm.warm and ancestor.ancestor
    assert routed.strategy is not None
    assert rewrite.method == "ucq-rewrite-hit"


def _served_request_with_a_worker_kill(root, trace_dir, registry):
    plan = FaultPlan(root / "faults")
    plan.arm("worker.kill_mid_job")
    executor = JobExecutor(
        1,
        snapshot_dir=root / "pool-store",
        registry=registry,
        retry_policy=RetryPolicy(**FAST_RETRY),
        fault_dir=plan.root,
        trace_dir=trace_dir,
    )

    async def scenario():
        server = EntailmentServer(executor, port=0)
        await server.start()
        task = asyncio.ensure_future(server.serve_until_stopped())
        line = entail_request().to_obj()
        line["id"] = "killed"
        responses = await request_lines(server.port, [line])
        server.request_stop()
        await asyncio.wait_for(task, timeout=60)
        return responses[0]

    try:
        response = asyncio.run(scenario())
    finally:
        executor.shutdown()
    assert response["ok"]
    assert registry.counter("service.pool_rebuilds").value == 1


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """``(events, registry)`` of the traced run described above."""
    root = tmp_path_factory.mktemp("schema")
    trace_dir = root / "trace"
    trace_dir.mkdir()
    registry = MetricsRegistry()
    with open(trace_dir / "server.jsonl", "w") as sink:
        with observing(TracingObserver(JsonlTracer(sink), registry=registry)):
            _library_paths()
            _jobs(SnapshotStore(root / "store"))
            _served_request_with_a_worker_kill(root, trace_dir, registry)
    events, skipped = read_trace_dir(trace_dir)
    assert not skipped
    return events, registry


@pytest.fixture(scope="module")
def in_process_run(tmp_path_factory):
    """``(events, registry)`` of the library paths and in-process jobs
    above, traced into one file with a live registry."""
    root = tmp_path_factory.mktemp("replay")
    registry = MetricsRegistry()
    with open(root / "trace.jsonl", "w") as sink:
        with observing(TracingObserver(JsonlTracer(sink), registry=registry)):
            _library_paths()
            _jobs(SnapshotStore(root / "store"))
    return read_trace(str(root / "trace.jsonl")), registry


def documented(section: str) -> list[str]:
    """The backticked names in the first column of *section*'s table."""
    text = DOC.read_text().split(f"\n## {section}\n", 1)[1]
    names = []
    for line in text.split("\n## ", 1)[0].splitlines():
        if line.startswith("| `"):
            names += re.findall(r"`([^`]+)`", line.split("|")[1])
    return names


class TestEventSchema:
    def test_the_run_emits_every_kind(self, run):
        events, _ = run
        assert set(EVENT_KINDS) - {e["kind"] for e in events} == set()

    def test_every_event_matches_its_entry(self, run):
        events, _ = run
        problems = [error for event in events for error in violations(event)]
        assert problems == []

    def test_a_span_close_without_seconds_is_rejected(self):
        close = {
            "kind": "span_close",
            "name": "job_attempt",
            "status": "ok",
            "trace_id": "a" * 16,
            "span_id": "b" * 16,
        }
        assert violations(close) == ["span_close lacks 'seconds'"]
        assert violations({**close, "seconds": 0.5, "attempt": 1}) == []

    def test_unknown_kinds_and_undeclared_fields_are_rejected(self):
        assert violations({"kind": "hom_memo_lookup"}) == [
            "unknown kind 'hom_memo_lookup'"
        ]
        assert violations(
            {"kind": "service_request", "op": "entail", "coalesced": False,
             "extra": 1}
        ) == ["service_request has undeclared 'extra'"]


class TestObservabilityDoc:
    def test_every_kind_has_a_row_in_the_event_table(self):
        assert set(EVENT_KINDS) - set(documented("Event schema")) == set()

    def test_every_registered_metric_has_a_row_in_the_metric_table(self, run):
        _, registry = run
        rows = documented("Metric names")
        patterns = [row[: -len("<name>")] for row in rows if row.endswith("<name>")]
        missing = [
            name
            for name in registry.snapshot()
            if name not in rows
            and not any(name.startswith(prefix) for prefix in patterns)
        ]
        assert missing == []

    def test_every_metric_a_stats_row_reads_has_a_row_in_the_metric_table(self):
        # A misspelled name in the row table would read 0 forever.
        rows = documented("Metric names")
        names = {row.source for row in ROWS if isinstance(row.source, str)}
        assert names - set(rows) == set()


class TestStatsReplay:
    def test_metric_sourced_totals_equal_the_live_registry(self, in_process_run):
        events, registry = in_process_run
        summary = summarize_trace(events)
        live = registry.snapshot()
        fed = set()
        for row in ROWS:
            if not isinstance(row.source, str):
                continue
            snap = live.get(row.source, {})
            assert summary[row.section][row.key] == snap.get(
                "value", snap.get("total", 0)
            ), row
            if row.source in live:
                fed.add(row.section)
        assert fed >= {
            "chase", "core", "core_maintenance", "homomorphism", "treewidth",
            "robust", "planner", "query", "service",
        }
