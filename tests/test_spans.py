"""Tests for :mod:`repro.obs.spans`: trace contexts, span lifecycle,
cross-process trace reconstruction, and the shared latency machinery
behind the live ``stats`` op and offline replay."""

import io
import json
import threading

from repro.obs import (
    JsonlTracer,
    MetricsRegistry,
    RollingLatencies,
    TraceContext,
    TracingObserver,
    activate,
    current_context,
    latency_summary,
    observing,
    read_trace_dir,
    span,
)
from repro.obs.spans import (
    build_trace,
    close_span,
    new_span_id,
    open_span,
    percentile,
    render_trace,
    trace_ids,
    trace_to_obj,
)
from repro.service.executor import JobExecutor, RetryPolicy
from repro.service.faults import FaultPlan
from repro.service.jobs import JobRequest

KB_TEXT = """[rules]
p(X) -> q(X)

[facts]
p(a)
"""


def events_of(buffer: io.StringIO) -> list:
    return [json.loads(line) for line in buffer.getvalue().splitlines()]


def tracing_observer(buffer: io.StringIO) -> TracingObserver:
    return TracingObserver(JsonlTracer(buffer), registry=MetricsRegistry())


class TestTraceContext:
    def test_roundtrip_through_wire_form(self):
        root = TraceContext.new_root()
        child = root.child()
        assert child.trace_id == root.trace_id
        assert child.parent_span_id == root.span_id
        assert child.span_id != root.span_id
        for context in (root, child):
            again = TraceContext.from_obj(context.to_obj())
            assert again == context

    def test_wire_form_tolerates_extra_keys(self):
        root = TraceContext.new_root()
        obj = {**root.to_obj(), "submitted_ts": 123.5}
        assert TraceContext.from_obj(obj) == root

    def test_from_obj_rejects_garbage(self):
        assert TraceContext.from_obj(None) is None
        assert TraceContext.from_obj("not a dict") is None
        assert TraceContext.from_obj({}) is None
        assert TraceContext.from_obj({"trace_id": "t"}) is None
        assert TraceContext.from_obj({"trace_id": 7, "span_id": "s"}) is None

    def test_span_ids_are_fresh(self):
        ids = {new_span_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(len(span_id) == 16 for span_id in ids)


class TestAmbientContext:
    def test_default_is_none(self):
        assert current_context() is None

    def test_activate_nests_and_restores(self):
        outer = TraceContext.new_root()
        inner = outer.child()
        with activate(outer):
            assert current_context() is outer
            with activate(inner):
                assert current_context() is inner
            assert current_context() is outer
        assert current_context() is None

    def test_activate_none_is_a_noop(self):
        outer = TraceContext.new_root()
        with activate(outer):
            with activate(None):
                assert current_context() is outer

    def test_context_is_per_thread(self):
        seen = []
        with activate(TraceContext.new_root()):
            thread = threading.Thread(
                target=lambda: seen.append(current_context())
            )
            thread.start()
            thread.join()
        assert seen == [None]


class TestSpan:
    def test_no_observer_means_no_work(self):
        with span("anything") as context:
            assert context is None
            assert current_context() is None

    def test_open_close_events_and_ambient_stamping(self):
        buffer = io.StringIO()
        observer = tracing_observer(buffer)
        with span("outer", observer=observer, op="entail") as outer:
            observer.emit("service_request", op="entail", coalesced=False)
            with span("inner", observer=observer) as inner:
                pass
        events = events_of(buffer)
        kinds = [e["kind"] for e in events]
        assert kinds == [
            "span_open",
            "service_request",
            "span_open",
            "span_close",
            "span_close",
        ]
        opened, stamped, inner_open, inner_close, outer_close = events
        assert opened["name"] == "outer" and opened["op"] == "entail"
        assert opened["trace_id"] == outer.trace_id
        assert opened.get("parent_span_id") is None
        # the plain event inherits the ambient span's identity
        assert stamped["trace_id"] == outer.trace_id
        assert stamped["span_id"] == outer.span_id
        # the nested span parents under the outer one, same trace
        assert inner.trace_id == outer.trace_id
        assert inner_open["parent_span_id"] == outer.span_id
        assert inner_close["status"] == "ok"
        assert outer_close["status"] == "ok"
        assert outer_close["seconds"] >= 0.0
        # every event carries both clocks
        assert all("t" in e and "ts" in e for e in events)

    def test_exception_closes_with_error_status_and_reraises(self):
        buffer = io.StringIO()
        observer = tracing_observer(buffer)
        try:
            with span("bad", observer=observer):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        else:  # pragma: no cover
            raise AssertionError("span swallowed the exception")
        close = events_of(buffer)[-1]
        assert close["kind"] == "span_close" and close["status"] == "error"

    def test_open_close_span_helpers_tolerate_none(self):
        context = TraceContext.new_root()
        open_span(None, context, "x")
        close_span(None, context, "x", seconds=0.0)
        buffer = io.StringIO()
        observer = tracing_observer(buffer)
        open_span(observer, None, "x")
        close_span(observer, None, "x", seconds=0.0)
        assert buffer.getvalue() == ""
        open_span(observer, context, "x", op="chase")
        close_span(observer, context, "x", status="aborted", seconds=1.5)
        opened, closed = events_of(buffer)
        assert opened["span_id"] == context.span_id
        assert closed["status"] == "aborted" and closed["seconds"] == 1.5


class TestTraceReconstruction:
    def test_read_trace_dir_merges_on_wall_clock(self, tmp_path):
        (tmp_path / "b.jsonl").write_text(
            json.dumps({"kind": "x", "ts": 2.0}) + "\n"
        )
        (tmp_path / "a.jsonl").write_text(
            json.dumps({"kind": "y", "ts": 3.0})
            + "\n"
            + json.dumps({"kind": "z", "ts": 1.0})
            + "\nnot json\n"
        )
        events, skipped = read_trace_dir(tmp_path)
        assert skipped == 1
        assert [e["kind"] for e in events] == ["z", "x", "y"]
        # a single file is accepted too
        events, _ = read_trace_dir(tmp_path / "b.jsonl")
        assert [e["kind"] for e in events] == ["x"]

    def test_build_and_render_a_tree(self):
        buffer = io.StringIO()
        observer = tracing_observer(buffer)
        with span("root", observer=observer) as root:
            observer.emit("service_request", op="entail", coalesced=False)
            with span("leaf", observer=observer, attempt=1):
                pass
        events = events_of(buffer)
        ids = trace_ids(events)
        assert list(ids) == [root.trace_id]
        assert ids[root.trace_id] == len(events)
        tree = build_trace(events, root.trace_id)
        assert tree.spans == 2 and not tree.orphans and not tree.unclosed
        assert tree.roots[0].name == "root"
        assert tree.roots[0].events == 1  # the stamped service_request
        assert tree.roots[0].children[0].name == "leaf"
        rendered = render_trace(tree)
        assert "root" in rendered and "leaf" in rendered
        assert "attempt=1" in rendered
        obj = trace_to_obj(tree)
        json.dumps(obj)  # JSON-able all the way down
        assert obj["spans"] == 2 and obj["roots"][0]["name"] == "root"

    def test_orphans_and_unclosed_are_reported(self):
        trace = "t" * 16
        events = [
            {
                "kind": "span_open",
                "name": "lost",
                "trace_id": trace,
                "span_id": "a" * 16,
                "parent_span_id": "missing!",
                "ts": 1.0,
            },
            {
                "kind": "span_open",
                "name": "never_closed",
                "trace_id": trace,
                "span_id": "b" * 16,
                "parent_span_id": None,
                "ts": 2.0,
            },
        ]
        tree = build_trace(events, trace)
        assert [node.name for node in tree.orphans] == ["lost"]
        assert [node.name for node in tree.unclosed] == [
            "lost",
            "never_closed",
        ]
        rendered = render_trace(tree)
        assert "orphaned spans" in rendered and "UNCLOSED" in rendered


class TestLatencyMachinery:
    def test_percentile_is_nearest_rank(self):
        values = [0.1, 0.2, 0.3, 0.4]
        assert percentile([], 0.5) == 0.0
        assert percentile(values, 0.0) == 0.1
        assert percentile(values, 1.0) == 0.4
        assert percentile(values, 0.5) == 0.3

    def test_latency_summary_splits_classes(self):
        samples = [
            ("entail", False, True, 0.2),
            ("entail", True, True, 0.1),
            ("entail", False, False, 9.0),
            ("chase", False, True, 0.5),
        ]
        summary = latency_summary(samples)
        assert set(summary) == {"entail", "chase"}
        entail = summary["entail"]
        # failed jobs stay out of the ok row and get their own block
        assert entail["ok"]["count"] == 2
        assert entail["warm"]["count"] == 1
        assert entail["cold"]["count"] == 1
        assert entail["failed"]["count"] == 1
        assert entail["failed"]["p50"] == 9.0
        assert entail["ok"]["p95"] == 0.2
        assert "failed" not in summary["chase"]
        for block in (entail["ok"], summary["chase"]["ok"]):
            assert {"count", "mean", "p50", "p95", "p99"} <= set(block)

    def test_rolling_window_evicts_oldest(self):
        window = RollingLatencies(capacity=3)
        for index in range(5):
            window.record("entail", False, True, float(index))
        assert len(window) == 3
        summary = window.summary()
        assert summary["entail"]["ok"]["count"] == 3
        assert summary["entail"]["ok"]["p50"] == 3.0  # 2,3,4 remain

    def test_histogram_quantiles_merge_across_registries(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for value in (0.5, 1.5):
            a.histogram("lat", (1, 2, 5)).observe(value)
        for value in (3.0, 7.0):
            b.histogram("lat", (1, 2, 5)).observe(value)
        merged = MetricsRegistry()
        merged.merge_snapshot(a.snapshot())
        merged.merge_snapshot(b.snapshot())
        histogram = merged.histogram("lat", (1, 2, 5))
        assert histogram.count == 4
        assert histogram.quantile(0.5) == 2.0  # bucket upper bound
        assert histogram.quantile(0.99) == 7.0  # overflow -> observed max
        snap = histogram.snapshot()
        assert snap["p50"] == 2.0 and snap["p95"] == 7.0


class TestExecutorTracing:
    """In-process executor + fault fuse: the span story end to end
    without a process pool (the spawn-pool variant lives in
    ``test_service_chaos.py``)."""

    def test_retried_job_is_one_trace_with_closed_attempts(self, tmp_path):
        plan = FaultPlan(tmp_path / "faults")
        plan.arm("worker.kill_mid_job")
        trace_dir = tmp_path / "trace"
        registry = MetricsRegistry()
        executor = JobExecutor(
            0,
            snapshot_dir=tmp_path / "snaps",
            registry=registry,
            retry_policy=RetryPolicy(max_retries=2, base_delay=0.01, seed=3),
            fault_dir=plan.root,
            trace_dir=trace_dir,
        )
        sink = open(trace_dir / "server.jsonl", "w")
        observer = TracingObserver(JsonlTracer(sink), registry=registry)
        try:
            with observing(observer):
                result = executor.submit(
                    JobRequest(op="entail", kb_text=KB_TEXT, query="q(a)")
                ).result(timeout=60)
        finally:
            executor.shutdown()
            sink.close()
        assert result.ok and result.entailed is True
        assert registry.counter("service.retries").value == 1

        events, skipped = read_trace_dir(trace_dir)
        assert skipped == 0
        ids = trace_ids(events)
        assert len(ids) == 1, "retry must stay inside the original trace"
        tree = build_trace(events, next(iter(ids)))
        assert not tree.orphans and not tree.unclosed
        # the executor owned the job span (no server minted one)
        assert [node.name for node in tree.roots] == ["service_job"]
        children = tree.roots[0].children
        attempts = [node for node in children if node.name == "job_attempt"]
        assert len(attempts) == 2
        assert attempts[0].status == "error"
        assert attempts[1].status == "ok"
        assert [node.name for node in children if node.name == "retry_backoff"]
        # the worker-side phase spans live under the surviving attempt
        phase_names = {node.name for node in attempts[1].children}
        assert {"queue_wait", "snapshot_load", "chase"} <= phase_names

    def test_observer_off_leaves_no_trace_state(self, tmp_path):
        executor = JobExecutor(0, snapshot_dir=tmp_path / "snaps")
        try:
            request = JobRequest(op="entail", kb_text=KB_TEXT, query="q(a)")
            result = executor.submit(request).result(timeout=60)
        finally:
            executor.shutdown()
        assert result.ok
        # no observer -> no context minted, nothing rides the request
        assert request.trace is None
