"""Tests for the job executor (repro.service.executor).

The process-pool paths (workers > 0) use the ``spawn`` start method, so
each test that exercises them pays interpreter startup; the bulk of the
coverage therefore runs in the ``workers=0`` in-process mode, with
real multi-process tests for the fork/spawn-safe metrics protocol and
for the store a pool worker keeps across jobs.
"""

import json
import time

import pytest

import repro.service.executor as executor_module
from repro import staircase_kb
from repro.kbs.witnesses import manager_kb
from repro.logic.serialization import dump_kb
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import Observer, observing
from repro.service.executor import (
    JobExecutor,
    RetryPolicy,
    _run_job_local,
    is_transient,
)
from repro.service.faults import FaultPlan
from repro.service.jobs import JobRequest

STAIRCASE = dump_kb(staircase_kb())
STAIR_QUERY = "v(X, Y), v(Y, Z)"


def entail_request(**overrides):
    fields = dict(
        op="entail", kb_text=STAIRCASE, query=STAIR_QUERY, max_steps=60
    )
    fields.update(overrides)
    return JobRequest(**fields)


class TestInProcessExecutor:
    def test_submit_resolves_to_result(self, tmp_path):
        registry = MetricsRegistry()
        with JobExecutor(0, snapshot_dir=tmp_path, registry=registry) as ex:
            result = ex.submit(entail_request()).result(timeout=60)
        assert result.ok
        assert result.entailed is True
        assert result.seconds > 0

    def test_sequential_repeat_warm_starts(self, tmp_path):
        registry = MetricsRegistry()
        with JobExecutor(0, snapshot_dir=tmp_path, registry=registry) as ex:
            first = ex.submit(entail_request()).result(timeout=60)
            second = ex.submit(entail_request()).result(timeout=60)
        assert not first.warm
        assert second.warm and second.applications == 0

    def test_job_error_resolves_not_raises(self, tmp_path):
        with JobExecutor(0, snapshot_dir=tmp_path) as ex:
            result = ex.submit(
                JobRequest(op="chase", kb_text="garbage")
            ).result(timeout=60)
        assert not result.ok
        assert result.error

    def test_worker_metrics_merged_into_registry(self, tmp_path):
        registry = MetricsRegistry()
        with JobExecutor(0, snapshot_dir=tmp_path, registry=registry) as ex:
            ex.submit(entail_request()).result(timeout=60)
        snap = registry.snapshot()
        assert snap["chase.steps"]["value"] > 0
        assert snap["service.queue_depth"]["value"] == 0

    def test_queue_depth_counts_down_to_zero(self, tmp_path):
        registry = MetricsRegistry()
        with JobExecutor(0, snapshot_dir=tmp_path, registry=registry) as ex:
            futures = [ex.submit(entail_request()) for _ in range(3)]
            for future in futures:
                future.result(timeout=60)
        assert ex.pending == 0
        assert registry.gauge("service.queue_depth").value == 0

    def test_service_job_event_reported(self, tmp_path):
        events = []

        class Spy(Observer):
            def service_job(self, **kw):
                events.append(kw)

        with observing(Spy()):
            with JobExecutor(0, snapshot_dir=tmp_path) as ex:
                ex.submit(entail_request()).result(timeout=60)
                ex.submit(entail_request()).result(timeout=60)
        assert len(events) == 2
        assert events[0]["ok"] and not events[0]["warm"]
        assert events[1]["warm"]
        assert all(event["seconds"] > 0 for event in events)

    def test_rejects_negative_workers(self):
        with pytest.raises(ValueError):
            JobExecutor(-1)


class TestWorkerBody:
    def test_run_job_local_returns_result_and_metrics(self, tmp_path):
        result_obj, metrics = _run_job_local(
            entail_request().to_obj(), str(tmp_path)
        )
        assert result_obj["ok"]
        assert result_obj["entailed"] is True
        assert metrics["chase.steps"]["value"] > 0

    def test_run_job_local_without_store(self):
        result_obj, metrics = _run_job_local(entail_request().to_obj(), None)
        assert result_obj["ok"] and not result_obj["warm"]


class TestStoreLifetime:
    """Workers keep their snapshot store across jobs instead of opening
    one per job."""

    def test_in_process_executor_opens_its_store_once(
        self, tmp_path, monkeypatch
    ):
        opened = []

        class CountingStore(executor_module.SnapshotStore):
            def __init__(self, root, **kwargs):
                opened.append(str(root))
                super().__init__(root, **kwargs)

        monkeypatch.setattr(executor_module, "SnapshotStore", CountingStore)
        with JobExecutor(0, snapshot_dir=tmp_path) as ex:
            results = [
                ex.submit(entail_request()).result(timeout=60) for _ in range(3)
            ]
        assert all(result.ok for result in results)
        assert [result.warm for result in results] == [False, True, True]
        assert opened == [str(tmp_path)]

    def test_worker_plan_cache_memory_tier_outlives_the_job(self, tmp_path):
        # Regression: every job used to open a new store, and the plan
        # cache's in-process tier is keyed by store, so a pool worker's
        # repeated lookups all fell through to the catalog.
        request = JobRequest(
            op="entail",
            kb_text=dump_kb(manager_kb()),
            query="mgr(X, Y)",
            rewrite=True,
        )
        trace_dir = tmp_path / "trace"
        with JobExecutor(
            1, snapshot_dir=tmp_path / "snapshots", trace_dir=trace_dir
        ) as ex:
            for _ in range(2):
                result = ex.submit(request).result(timeout=120)
                assert result.ok and result.method == "ucq-rewrite-hit"
        events = [
            json.loads(line)
            for path in sorted(trace_dir.glob("worker-*.jsonl"))
            for line in path.read_text().splitlines()
        ]
        sources = [e["source"] for e in events if e["kind"] == "query_rewrite"]
        assert sources == ["computed", "memory"]


class TestRetryPolicy:
    def test_rejects_bad_budgets(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-0.1)

    def test_delay_grows_then_caps_with_jitter_bounds(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=0.4, seed=1)
        for attempt in range(6):
            ceiling = min(0.4, 0.1 * (2**attempt))
            delay = policy.delay_for(attempt)
            assert ceiling * 0.5 <= delay <= ceiling

    def test_seed_pins_the_jitter_stream(self):
        first = [RetryPolicy(seed=7).delay_for(n) for n in range(5)]
        second = [RetryPolicy(seed=7).delay_for(n) for n in range(5)]
        assert first == second

    def test_classification(self):
        from concurrent.futures import BrokenExecutor, CancelledError

        assert is_transient(BrokenExecutor("worker died"))
        assert is_transient(OSError("pipe"))
        assert is_transient(EOFError())
        assert is_transient(CancelledError())
        assert not is_transient(TypeError("cannot pickle"))
        assert not is_transient(RuntimeError("after shutdown"))

    def test_deterministic_os_errors_are_permanent(self):
        # A missing or unwritable snapshot/fault directory does not heal
        # on retry — burning the backoff budget only delays the ok=False.
        assert not is_transient(FileNotFoundError("no such snapshot dir"))
        assert not is_transient(PermissionError("snapshot dir unwritable"))
        assert not is_transient(NotADirectoryError("bad fault dir"))
        # … while pipe/connection breakage stays retryable.
        assert is_transient(BrokenPipeError())
        assert is_transient(ConnectionResetError())


FAST_RETRY = dict(max_retries=2, base_delay=0.01, max_delay=0.05, seed=1)


class TestSupervision:
    """Failure classification, retries, and guaranteed resolution
    (in-process mode; the real spawn-pool path lives in the chaos
    suite)."""

    def test_injected_worker_death_is_retried(self, tmp_path):
        plan = FaultPlan(tmp_path / "faults")
        plan.arm("worker.kill_mid_job")
        registry = MetricsRegistry()
        with JobExecutor(
            0,
            snapshot_dir=tmp_path / "snaps",
            registry=registry,
            retry_policy=RetryPolicy(**FAST_RETRY),
            fault_dir=plan.root,
        ) as ex:
            result = ex.submit(entail_request()).result(timeout=60)
        assert result.ok and result.entailed is True
        assert ex.retries == 1
        assert registry.counter("service.retries").value == 1
        assert registry.gauge("service.queue_depth").value == 0
        assert plan.fired("worker.kill_mid_job") == 1

    def test_exhausted_retry_budget_resolves_not_hangs(self, tmp_path):
        plan = FaultPlan(tmp_path / "faults")
        plan.arm("worker.kill_mid_job", times=3)
        registry = MetricsRegistry()
        with JobExecutor(
            0,
            snapshot_dir=tmp_path / "snaps",
            registry=registry,
            retry_policy=RetryPolicy(max_retries=1, base_delay=0.01, seed=1),
            fault_dir=plan.root,
        ) as ex:
            result = ex.submit(entail_request()).result(timeout=60)
        assert not result.ok
        assert "after 1 retries" in result.error
        # the failure path must still balance the queue-depth gauge
        assert registry.gauge("service.queue_depth").value == 0
        assert ex.pending == 0

    def test_service_retry_event_reported(self, tmp_path):
        plan = FaultPlan(tmp_path / "faults")
        plan.arm("worker.kill_mid_job")
        events = []

        class Spy(Observer):
            def service_retry(self, **kw):
                events.append(kw)

        with observing(Spy()):
            with JobExecutor(
                0,
                snapshot_dir=tmp_path / "snaps",
                retry_policy=RetryPolicy(**FAST_RETRY),
                fault_dir=plan.root,
            ) as ex:
                ex.submit(entail_request()).result(timeout=60)
        assert len(events) == 1
        assert events[0]["attempt"] == 1
        assert events[0]["delay"] > 0
        assert "OSError" in events[0]["error"]

    def test_raising_observer_cannot_hang_the_client(self, tmp_path):
        # Regression: an exception thrown by the observer inside the
        # completion callback used to leave the outer future pending
        # forever (the client's await never returned).
        class Hostile(Observer):
            def service_job(self, **kw):
                raise RuntimeError("observer exploded")

        with observing(Hostile()):
            with JobExecutor(0, snapshot_dir=tmp_path) as ex:
                result = ex.submit(entail_request()).result(timeout=60)
        assert not result.ok
        assert "observer failed" in result.error
        assert ex.pending == 0

    def test_metrics_merge_failure_cannot_hang_the_client(self, tmp_path):
        class BadRegistry(MetricsRegistry):
            def merge_snapshot(self, snapshot):
                raise ValueError("incompatible snapshot")

        with JobExecutor(0, snapshot_dir=tmp_path, registry=BadRegistry()) as ex:
            result = ex.submit(entail_request()).result(timeout=60)
        assert not result.ok
        assert "result handling failed" in result.error

    def test_submit_after_shutdown_resolves_not_raises(self, tmp_path):
        ex = JobExecutor(0, snapshot_dir=tmp_path)
        ex.shutdown()
        result = ex.submit(entail_request()).result(timeout=10)
        assert not result.ok
        assert "shut down" in result.error

    def test_shutdown_racing_into_backoff_cannot_deadlock(self, tmp_path):
        # Regression: shutdown() landing between _handle_failure's
        # unlocked closed check and its locked one used to make the
        # supervisor call _resolve() while holding the executor lock —
        # a self-deadlock on the non-reentrant lock that left the outer
        # future pending forever.  delay_for() runs exactly in that
        # window, so a policy that shuts the executor down from inside
        # it reproduces the race deterministically.
        plan = FaultPlan(tmp_path / "faults")
        plan.arm("worker.kill_mid_job")
        holder = {}

        class RacingPolicy(RetryPolicy):
            def delay_for(self, attempt):
                holder["ex"].shutdown(wait=False)
                return super().delay_for(attempt)

        ex = JobExecutor(
            0,
            snapshot_dir=tmp_path / "snaps",
            retry_policy=RacingPolicy(**FAST_RETRY),
            fault_dir=plan.root,
        )
        holder["ex"] = ex
        result = ex.submit(entail_request()).result(timeout=30)
        assert not result.ok
        assert "shut down" in result.error
        assert ex.pending == 0

    def test_last_resort_resolution_keeps_gauge_consistent(self, tmp_path):
        # Regression: _resolve_quietly balanced _pending but left the
        # service.queue_depth gauge at its pre-failure value forever.
        plan = FaultPlan(tmp_path / "faults")
        plan.arm("worker.kill_mid_job")

        class HostileCounters(MetricsRegistry):
            def counter(self, name):
                if name == "service.retries":
                    raise RuntimeError("counter exploded")
                return super().counter(name)

        registry = HostileCounters()
        with JobExecutor(
            0,
            snapshot_dir=tmp_path / "snaps",
            registry=registry,
            retry_policy=RetryPolicy(**FAST_RETRY),
            fault_dir=plan.root,
        ) as ex:
            result = ex.submit(entail_request()).result(timeout=60)
        assert not result.ok
        assert "executor callback failed" in result.error
        assert ex.pending == 0
        assert registry.gauge("service.queue_depth").value == 0

    def test_shutdown_resolves_parked_retries(self, tmp_path):
        plan = FaultPlan(tmp_path / "faults")
        plan.arm("worker.kill_mid_job")
        ex = JobExecutor(
            0,
            snapshot_dir=tmp_path / "snaps",
            retry_policy=RetryPolicy(max_retries=2, base_delay=60, max_delay=60),
            fault_dir=plan.root,
        )
        future = ex.submit(entail_request())
        deadline = time.monotonic() + 30
        while not ex._retry_timers and time.monotonic() < deadline:
            time.sleep(0.01)
        assert ex._retry_timers  # the job is parked in backoff
        ex.shutdown()
        result = future.result(timeout=10)  # resolved now, not in a minute
        assert not result.ok
        assert "shut down" in result.error
        assert ex.pending == 0


class TestProcessPool:
    def test_spawn_workers_answer_and_merge_metrics(self, tmp_path):
        registry = MetricsRegistry()
        with JobExecutor(2, snapshot_dir=tmp_path, registry=registry) as ex:
            futures = [ex.submit(entail_request()) for _ in range(4)]
            results = [future.result(timeout=300) for future in futures]
        assert all(result.ok and result.entailed for result in results)
        # at least one job found the snapshot a sibling saved
        snap = registry.snapshot()
        assert snap["chase.steps"]["value"] > 0  # merged from workers
        assert snap["service.queue_depth"]["value"] == 0
