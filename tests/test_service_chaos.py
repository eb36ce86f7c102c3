"""Chaos suite: injected faults against a live server + process pool.

This is the acceptance test of the fault-tolerance layer: a pool worker
is killed *mid-service* (``os._exit`` from inside the worker, breaking
the ``ProcessPoolExecutor``), and the serving stack must carry on — the
pool rebuilt, the orphaned jobs retried and answered correctly (warm,
because the warm-up phase left a snapshot), and every request line
getting exactly one response.

The suite uses real ``spawn`` workers and real TCP connections, so it
is the slowest test module in the tree; everything deterministic about
the failure path (classification, backoff, budgets, fuse semantics) is
covered by the fast in-process tests in ``test_service_executor.py``.
"""

import asyncio
import json

from repro import staircase_kb
from repro.logic.serialization import dump_kb
from repro.obs import JsonlTracer, TracingObserver, observing
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import build_trace, read_trace_dir, trace_ids
from repro.service.executor import JobExecutor, RetryPolicy
from repro.service.faults import FaultPlan
from repro.service.server import EntailmentServer


def span_names(tree):
    """Every span name in *tree*, duplicates kept."""
    names = []
    stack = list(tree.roots)
    while stack:
        node = stack.pop()
        names.append(node.name)
        stack.extend(node.children)
    return names

STAIRCASE = dump_kb(staircase_kb())

#: Distinct queries (so they do not coalesce) that are all entailed.
QUERIES = [
    "v(X, Y)",
    "v(X, Y), v(Y, Z)",
    "f(X), v(X, Y)",
    "h(X, X)",
]


def entail_line(request_id, query):
    return {
        "op": "entail",
        "kb_text": STAIRCASE,
        "query": query,
        "max_steps": 60,
        "id": request_id,
    }


async def request_lines(port, lines):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    for line in lines:
        writer.write((json.dumps(line) + "\n").encode())
    await writer.drain()
    responses = [json.loads(await reader.readline()) for _ in lines]
    writer.close()
    await writer.wait_closed()
    return responses


class TestWorkerKillRecovery:
    def test_server_survives_a_worker_killed_mid_job(self, tmp_path):
        plan = FaultPlan(tmp_path / "faults")
        registry = MetricsRegistry()
        trace_dir = tmp_path / "trace"
        executor = JobExecutor(
            2,
            snapshot_dir=tmp_path / "snaps",
            registry=registry,
            retry_policy=RetryPolicy(
                max_retries=3, base_delay=0.05, max_delay=0.5, seed=7
            ),
            fault_dir=plan.root,
            trace_dir=trace_dir,
        )
        sink = open(trace_dir / "server.jsonl", "w")
        observer = TracingObserver(JsonlTracer(sink), registry=registry)

        async def scenario():
            server = EntailmentServer(executor, port=0, fault_plan=plan)
            await server.start()
            task = asyncio.ensure_future(server.serve_until_stopped())

            # Phase 1 — warm-up: one clean job files the snapshot the
            # retried jobs will later resume from.
            warm_up = await request_lines(
                server.port, [entail_line("w0", QUERIES[0])]
            )

            # Phase 2 — arm the kill, then four concurrent requests on
            # separate connections.  Whichever worker picks the fuse up
            # dies and poisons the pool; every in-flight job fails at
            # the executor level and must be retried on the rebuilt pool.
            plan.arm("worker.kill_mid_job")
            batches = await asyncio.gather(
                *(
                    request_lines(
                        server.port, [entail_line(f"f{i}", QUERIES[i])]
                    )
                    for i in range(len(QUERIES))
                )
            )

            # Phase 3 — the service is healthy again for new arrivals.
            after = await request_lines(
                server.port, [entail_line("a0", QUERIES[1])]
            )
            stats = (
                await request_lines(server.port, [{"op": "stats", "id": "s"}])
            )[0]

            server.request_stop()
            await asyncio.wait_for(task, timeout=60)
            fault_responses = [batch[0] for batch in batches]
            return warm_up[0], fault_responses, after[0], stats

        try:
            with observing(observer):
                warm_up, fault_responses, after, stats = asyncio.run(scenario())
        finally:
            executor.shutdown()
            sink.close()

        # exactly one response per id, every answer correct
        assert warm_up["id"] == "w0" and warm_up["ok"]
        assert warm_up["entailed"] is True
        assert [r["id"] for r in fault_responses] == [
            f"f{i}" for i in range(len(QUERIES))
        ]
        assert all(r["ok"] for r in fault_responses)
        assert all(r["entailed"] is True for r in fault_responses)
        assert after["id"] == "a0" and after["ok"] and after["entailed"] is True

        # the kill actually happened, and the supervisor recovered
        assert plan.fired("worker.kill_mid_job") == 1
        retries = registry.counter("service.retries").value
        assert retries >= 1
        assert registry.counter("service.pool_rebuilds").value == 1

        # retried jobs resumed warm from the warm-up snapshot; the one
        # repeating the warm-up query maps into the restored instance
        # immediately, so its retry costs zero new rule applications
        assert all(r["warm"] for r in fault_responses)
        assert fault_responses[0]["applications"] == 0
        assert after["warm"]

        # nothing leaked: queue drained, no dangling in-flight entries
        assert executor.pending == 0
        assert registry.gauge("service.queue_depth").value == 0
        assert stats["pending"] == 0 and stats["inflight"] <= 1

        # the kill is visible in the merged trace as ONE causal
        # timeline: the retried request's trace holds the request span,
        # the failed attempt, the pool rebuild, the backoff, and the
        # successful attempt — no orphaned or unclosed spans anywhere.
        events, skipped = read_trace_dir(trace_dir)
        assert skipped == 0
        retried = None
        for trace_id in trace_ids(events):
            tree = build_trace(events, trace_id)
            assert not tree.orphans, f"trace {trace_id} has orphaned spans"
            assert not tree.unclosed, f"trace {trace_id} has unclosed spans"
            names = span_names(tree)
            if names.count("job_attempt") >= 2 and "pool_rebuild" in names:
                retried = retried or tree
        assert retried is not None, "no killed-and-retried trace found"
        names = span_names(retried)
        assert "service_request" in names
        assert "service_job" in names
        assert "retry_backoff" in names

        # live stats carry the supervision counters and the rolling
        # latency summary the dashboard polls
        assert stats["retries"] == retries
        assert stats["pool_rebuilds"] == 1
        assert stats["latency"]["entail"]["ok"]["count"] == stats["jobs"]
        assert stats["latency_window"]["samples"] == stats["jobs"]

    def test_slow_job_rides_out_without_retry(self, tmp_path):
        # A slow worker is not a dead worker: the job must complete with
        # no supervisor involvement.
        plan = FaultPlan(tmp_path / "faults")
        plan.arm("worker.slow_job", payload={"seconds": 0.3})
        registry = MetricsRegistry()
        with JobExecutor(
            2,
            snapshot_dir=tmp_path / "snaps",
            registry=registry,
            retry_policy=RetryPolicy(max_retries=2, base_delay=0.05, seed=7),
            fault_dir=plan.root,
        ) as executor:
            request_obj = entail_line("s0", QUERIES[0])
            del request_obj["id"]
            from repro.service.jobs import JobRequest

            result = executor.submit(
                JobRequest.from_obj(request_obj)
            ).result(timeout=300)
        assert result.ok and result.entailed is True
        assert result.seconds >= 0.3  # the injected stall is in the latency
        assert "service.retries" not in registry
        assert "service.pool_rebuilds" not in registry
        assert plan.fired("worker.slow_job") == 1
