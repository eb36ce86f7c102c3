"""Tests for the asyncio front end (repro.service.server).

No pytest-asyncio here: each test drives its own event loop with
``asyncio.run``.  The concurrency test is the satellite requirement —
at least 32 overlapping requests, answers checked, dedup coalescing
observed, clean shutdown."""

import asyncio
import io
import json

from repro import staircase_kb
from repro.kbs.witnesses import transitive_closure_kb
from repro.logic.serialization import dump_kb
from repro.obs import JsonlTracer, TracingObserver
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import Observer, observing
from repro.service.executor import JobExecutor
from repro.service.faults import FaultPlan
from repro.service.server import EntailmentServer

STAIRCASE = dump_kb(staircase_kb())
TC = dump_kb(transitive_closure_kb(3))
STAIR_QUERY = "v(X, Y), v(Y, Z)"


async def start_server(tmp_path, **server_kwargs):
    registry = MetricsRegistry()
    executor = JobExecutor(0, snapshot_dir=tmp_path, registry=registry)
    server = EntailmentServer(executor, port=0, **server_kwargs)
    await server.start()
    task = asyncio.ensure_future(server.serve_until_stopped())
    return server, executor, task


async def request_lines(port, lines):
    """Send JSON lines on one connection; collect one response each."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    for line in lines:
        writer.write((json.dumps(line) + "\n").encode())
    await writer.drain()
    responses = [json.loads(await reader.readline()) for _ in lines]
    writer.close()
    await writer.wait_closed()
    return responses


async def shut_down(server, executor, task):
    server.request_stop()
    await asyncio.wait_for(task, timeout=30)
    executor.shutdown()


class TestProtocol:
    def test_ping_stats_and_unknown_op(self, tmp_path):
        async def scenario():
            server, executor, task = await start_server(tmp_path)
            responses = await request_lines(
                server.port,
                [
                    {"op": "ping", "id": "p"},
                    {"op": "stats", "id": "s"},
                    {"op": "nope", "id": "u"},
                ],
            )
            await shut_down(server, executor, task)
            return {r["id"]: r for r in responses}

        by_id = asyncio.run(scenario())
        assert by_id["p"]["ok"]
        assert by_id["s"]["ok"] and "metrics" in by_id["s"]
        assert not by_id["u"]["ok"]

    def test_stats_counts_without_an_observer(self, tmp_path):
        # With no observer installed the service events reach the
        # executor's registry through its fallback metrics observer, and
        # the stats op reads every total from there.  The slow_job fuse
        # holds the first job in flight so its twin coalesces onto it.
        plan = FaultPlan(tmp_path / "faults")
        plan.arm("worker.slow_job", payload={"seconds": 0.5})
        line = {
            "op": "entail",
            "kb_text": STAIRCASE,
            "query": STAIR_QUERY,
            "max_steps": 60,
        }

        async def scenario():
            executor = JobExecutor(
                0, snapshot_dir=tmp_path / "snaps", fault_dir=plan.root
            )
            server = EntailmentServer(executor, port=0)
            await server.start()
            task = asyncio.ensure_future(server.serve_until_stopped())
            dispatch = server._dispatch

            async def explode_on_ping(obj):
                if obj.get("op") == "ping":
                    raise RuntimeError("dispatch exploded")
                return await dispatch(obj)

            server._dispatch = explode_on_ping
            await request_lines(
                server.port, [{**line, "id": "r0"}, {**line, "id": "r1"}]
            )
            await request_lines(
                server.port,
                [
                    {"op": "chase", "kb_text": "garbage", "id": "bad"},
                    {"op": "ping", "id": "p"},
                ],
            )
            stats = (await request_lines(server.port, [{"op": "stats"}]))[0]
            await shut_down(server, executor, task)
            return stats

        with observing(None):
            stats = asyncio.run(scenario())
        assert stats["requests"] == 3
        assert stats["coalesced"] == 1
        assert stats["jobs"] == 2
        # one failed job, one internal error
        assert stats["errors"] == 2

    def test_entail_and_chase_round_trip(self, tmp_path):
        async def scenario():
            server, executor, task = await start_server(tmp_path)
            responses = await request_lines(
                server.port,
                [
                    {
                        "op": "entail",
                        "kb_text": STAIRCASE,
                        "query": STAIR_QUERY,
                        "max_steps": 60,
                        "id": "e",
                    },
                    {
                        "op": "chase",
                        "kb_text": TC,
                        "max_steps": 100,
                        "id": "c",
                    },
                ],
            )
            await shut_down(server, executor, task)
            return {r["id"]: r for r in responses}

        by_id = asyncio.run(scenario())
        assert by_id["e"]["ok"] and by_id["e"]["entailed"] is True
        assert by_id["c"]["ok"] and by_id["c"]["terminated"]

    def test_malformed_line_gets_error_response(self, tmp_path):
        async def scenario():
            server, executor, task = await start_server(tmp_path)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(b"this is not json\n")
            await writer.drain()
            response = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            await shut_down(server, executor, task)
            return response

        response = asyncio.run(scenario())
        assert not response["ok"]
        assert "bad request" in response["error"]

    def test_wrongly_typed_fields_are_bad_requests(self, tmp_path):
        # Each field is type-checked where its JobRequest is built, before
        # the dedup hashes it or a job reads it; a JSON boolean is not an
        # integer, nor an integer a boolean.
        wrong = {
            "kb_text": [TC],
            "query": ["e(v0, v3)"],
            "queries": "ep",
            "variant": ["core"],
            "core_every": "1",
            "max_steps": "5",
            "timeout": "1",
            "use_index": 1,
            "model_budget": True,
            "planner": "yes",
            "strategy": "fes-core",
            "rewrite": 0,
            "trace": "abc",
        }

        async def scenario():
            server, executor, task = await start_server(tmp_path)
            responses = await request_lines(
                server.port,
                [
                    {"op": "entail", "kb_text": TC, "query": "e(v0, v3)",
                     name: value, "id": name}
                    for name, value in wrong.items()
                ],
            )
            await shut_down(server, executor, task)
            return {r["id"]: r for r in responses}

        by_id = asyncio.run(scenario())
        for name in wrong:
            assert not by_id[name]["ok"], name
            assert by_id[name]["error"].startswith("bad request: "), by_id[name]
            assert f"'{name}'" in by_id[name]["error"], by_id[name]

    def test_wrongly_typed_strategy_fields_are_bad_requests(self, tmp_path):
        # The strategy override is built where its JobRequest is built, so
        # each of its fields is type-checked before dedup; a non-string
        # name used to be accepted and then break the ``stats`` op, which
        # sorts the per-strategy counts.
        override = {"variant": "core", "core_every": 4, "max_steps": 5,
                    "model_budget": 0}
        wrong = {
            "name": 5,
            "variant": ["core"],
            "core_every": "4",
            "max_steps": "5",
            "model_budget": True,
            "ancestor_resume": "no",
            "rewrite": "yes",
            "reason": 1,
        }

        async def scenario():
            server, executor, task = await start_server(tmp_path)
            responses = await request_lines(
                server.port,
                [
                    {"op": "entail", "kb_text": TC, "query": "e(v0, v3)",
                     "strategy": {**override, name: value}, "id": name}
                    for name, value in wrong.items()
                ]
                + [
                    {"op": "entail", "kb_text": TC, "query": "e(v0, v3)",
                     "strategy": {**override, "name": "pinned"}, "id": "ok"}
                ],
            )
            stats = await request_lines(server.port, [{"op": "stats"}])
            await shut_down(server, executor, task)
            return {r["id"]: r for r in responses}, stats[0]

        by_id, stats = asyncio.run(scenario())
        for name in wrong:
            assert not by_id[name]["ok"], name
            assert by_id[name]["error"].startswith("bad request: "), by_id[name]
            assert f"'{name}'" in by_id[name]["error"], by_id[name]
        assert by_id["ok"]["ok"] and by_id["ok"]["strategy"] == "pinned"
        assert stats["ok"], stats
        assert stats["planner"]["strategies"] == {"pinned": 1}

    def test_batch_op(self, tmp_path):
        async def scenario():
            server, executor, task = await start_server(tmp_path)
            responses = await request_lines(
                server.port,
                [
                    {
                        "op": "batch",
                        "id": "b",
                        "requests": [
                            {
                                "op": "entail",
                                "kb_text": STAIRCASE,
                                "query": STAIR_QUERY,
                                "max_steps": 60,
                                "id": "b1",
                            },
                            {
                                "op": "chase",
                                "kb_text": STAIRCASE,
                                "max_steps": 5,
                                "id": "b2",
                            },
                        ],
                    }
                ],
            )
            await shut_down(server, executor, task)
            return responses[0]

        batch = asyncio.run(scenario())
        assert batch["ok"] and batch["id"] == "b"
        results = {r["id"]: r for r in batch["results"]}
        assert results["b1"]["entailed"] is True
        assert results["b2"]["applications"] == 5

    def test_default_timeout_applies(self, tmp_path):
        async def scenario():
            server, executor, task = await start_server(
                tmp_path, default_timeout=0.0
            )
            responses = await request_lines(
                server.port,
                [
                    {
                        "op": "entail",
                        "kb_text": STAIRCASE,
                        "query": "nosuch(X)",
                        "max_steps": 10**6,
                        "id": "t",
                    }
                ],
            )
            await shut_down(server, executor, task)
            return responses[0]

        response = asyncio.run(scenario())
        assert response["ok"]
        assert response["entailed"] is None
        assert response["incomplete"] and response["deadline_expired"]


class _PoisonOnChase(Observer):
    """Raises from the service_request event for chase ops only — a real
    in-tree path by which an exception can escape ``_answer``."""

    def emit(self, kind, **fields):
        if kind == "service_request" and fields["op"] == "chase":
            raise RuntimeError("poisoned observer")


class TestResponseGuarantee:
    """Every request line gets exactly one reply — including internal
    errors, poisoned batch members, and executor-level failures."""

    def test_internal_error_still_gets_a_reply(self, tmp_path):
        # Regression: an exception escaping the dispatcher used to be
        # swallowed by gather(return_exceptions=True) in the connection
        # task; the client waited forever for this id.
        async def scenario():
            server, executor, task = await start_server(tmp_path)

            async def boom(obj):
                raise RuntimeError("dispatch exploded")

            server._dispatch = boom
            response = (
                await request_lines(server.port, [{"op": "ping", "id": "d"}])
            )[0]
            errors = server.stats_payload()["errors"]
            await shut_down(server, executor, task)
            return response, errors

        response, errors = asyncio.run(scenario())
        assert response["id"] == "d"
        assert not response["ok"]
        assert "internal error: RuntimeError" in response["error"]
        assert errors == 1

    def test_observer_explosion_gets_error_reply_with_id(self, tmp_path):
        async def scenario():
            server, executor, task = await start_server(tmp_path)
            responses = await request_lines(
                server.port,
                [
                    {"op": "chase", "kb_text": STAIRCASE, "max_steps": 5, "id": "x"},
                    {"op": "ping", "id": "p"},
                ],
            )
            await shut_down(server, executor, task)
            return {r["id"]: r for r in responses}

        with observing(_PoisonOnChase()):
            by_id = asyncio.run(scenario())
        assert not by_id["x"]["ok"]
        assert "internal error" in by_id["x"]["error"]
        assert by_id["p"]["ok"]  # the connection survived the explosion

    def test_poisoned_batch_member_does_not_kill_siblings(self, tmp_path):
        async def scenario():
            server, executor, task = await start_server(tmp_path)
            batch = (
                await request_lines(
                    server.port,
                    [
                        {
                            "op": "batch",
                            "id": "b",
                            "requests": [
                                {
                                    "op": "entail",
                                    "kb_text": STAIRCASE,
                                    "query": STAIR_QUERY,
                                    "max_steps": 60,
                                    "id": "good",
                                },
                                {
                                    "op": "chase",
                                    "kb_text": STAIRCASE,
                                    "max_steps": 5,
                                    "id": "bad",
                                },
                            ],
                        }
                    ],
                )
            )[0]
            await shut_down(server, executor, task)
            return batch

        with observing(_PoisonOnChase()):
            batch = asyncio.run(scenario())
        assert batch["ok"] and batch["id"] == "b"
        results = {r["id"]: r for r in batch["results"]}
        assert results["good"]["ok"] and results["good"]["entailed"] is True
        assert not results["bad"]["ok"]
        assert "batch member failed" in results["bad"]["error"]

    def test_executor_submit_failure_becomes_error_result(self, tmp_path):
        async def scenario():
            server, executor, task = await start_server(tmp_path)

            def refuse(request):
                raise RuntimeError("pool is gone")

            executor.submit = refuse
            response = (
                await request_lines(
                    server.port,
                    [
                        {
                            "op": "entail",
                            "kb_text": STAIRCASE,
                            "query": STAIR_QUERY,
                            "max_steps": 60,
                            "id": "e",
                        }
                    ],
                )
            )[0]
            await shut_down(server, executor, task)
            return response

        response = asyncio.run(scenario())
        assert response["id"] == "e"
        assert not response["ok"]
        assert "executor failure" in response["error"]

    def test_drop_connection_fault_aborts_then_recovers(self, tmp_path):
        plan = FaultPlan(tmp_path / "faults")
        plan.arm("server.drop_connection")

        async def scenario():
            server, executor, task = await start_server(
                tmp_path / "snaps", fault_plan=plan
            )
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(b'{"op": "ping", "id": "1"}\n')
            await writer.drain()
            try:
                line = await reader.readline()
            except (ConnectionError, OSError):
                line = b""
            writer.close()
            # second connection: the fuse is spent, service is healthy
            retry = (
                await request_lines(server.port, [{"op": "ping", "id": "2"}])
            )[0]
            await shut_down(server, executor, task)
            return line, retry

        line, retry = asyncio.run(scenario())
        assert line == b""  # aborted before any response bytes
        assert retry["ok"] and retry["id"] == "2"
        assert plan.fired("server.drop_connection") == 1


class TestConcurrency:
    def test_32_overlapping_requests_coalesce_and_shut_down_cleanly(
        self, tmp_path
    ):
        identical = {
            "op": "entail",
            "kb_text": STAIRCASE,
            "query": STAIR_QUERY,
            "max_steps": 60,
        }
        distinct = {
            "op": "entail",
            "kb_text": TC,
            "query": "e(X, Y), e(Y, Z)",
            "max_steps": 100,
        }

        async def scenario():
            server, executor, task = await start_server(tmp_path)
            connections = []
            for conn in range(4):
                lines = []
                for i in range(8):
                    base = identical if i % 2 == 0 else distinct
                    line = dict(base)
                    line["id"] = f"c{conn}-{i}"
                    lines.append(line)
                connections.append(request_lines(server.port, lines))
            batches = await asyncio.gather(*connections)
            responses = [r for batch in batches for r in batch]
            stats = (
                await request_lines(server.port, [{"op": "stats", "id": "s"}])
            )[0]
            await shut_down(server, executor, task)
            return responses, stats, server

        responses, stats, server = asyncio.run(scenario())
        assert len(responses) == 32
        assert {r["id"] for r in responses} == {
            f"c{conn}-{i}" for conn in range(4) for i in range(8)
        }
        assert all(r["ok"] for r in responses)
        assert all(r["entailed"] is True for r in responses)
        coalesced = sum(1 for r in responses if r["coalesced"])
        assert coalesced > 0  # identical in-flight requests shared a job
        assert stats["requests"] == 32
        assert stats["coalesced"] == coalesced
        assert stats["jobs"] + coalesced == 32
        assert stats["errors"] == 0
        # clean shutdown: nothing left in flight, nothing pending
        assert len(server._inflight) == 0
        assert server.executor.pending == 0

    def test_coalesced_requests_trace_separately_but_share_the_job_span(
        self, tmp_path
    ):
        # Satellite: dedup-coalesced requests must each mint their own
        # service_request span (their own trace) while linking to the
        # single shared service_job span via job_trace_id/job_span_id.
        # The slow_job fuse pins the first job in flight long enough for
        # the second, identical request to coalesce deterministically.
        plan = FaultPlan(tmp_path / "faults")
        plan.arm("worker.slow_job", payload={"seconds": 0.5})
        buffer = io.StringIO()
        registry = MetricsRegistry()
        observer = TracingObserver(JsonlTracer(buffer), registry=registry)
        line = {
            "op": "entail",
            "kb_text": STAIRCASE,
            "query": STAIR_QUERY,
            "max_steps": 60,
        }

        async def scenario():
            executor = JobExecutor(
                0,
                snapshot_dir=tmp_path / "snaps",
                registry=registry,
                fault_dir=plan.root,
            )
            server = EntailmentServer(executor, port=0)
            await server.start()
            task = asyncio.ensure_future(server.serve_until_stopped())
            responses = await request_lines(
                server.port,
                [{**line, "id": "r0"}, {**line, "id": "r1"}],
            )
            await shut_down(server, executor, task)
            return responses

        with observing(observer):
            responses = asyncio.run(scenario())

        assert all(r["ok"] and r["entailed"] is True for r in responses)
        assert sum(1 for r in responses if r["coalesced"]) == 1
        assert plan.fired("worker.slow_job") == 1

        events = [
            json.loads(line) for line in buffer.getvalue().splitlines()
        ]
        request_opens = [
            e
            for e in events
            if e["kind"] == "span_open" and e["name"] == "service_request"
        ]
        job_opens = [
            e
            for e in events
            if e["kind"] == "span_open" and e["name"] == "service_job"
        ]
        # each request got its own span in its own trace; one shared job
        assert len(request_opens) == 2
        assert len({e["trace_id"] for e in request_opens}) == 2
        assert len(job_opens) == 1
        job = job_opens[0]
        primary = next(e for e in request_opens if not e["coalesced"])
        follower = next(e for e in request_opens if e["coalesced"])
        # the job span is a child of the primary request's span ...
        assert job["trace_id"] == primary["trace_id"]
        assert job["parent_span_id"] == primary["span_id"]
        # ... and the coalesced request records an explicit link to it
        assert follower["job_trace_id"] == job["trace_id"]
        assert follower["job_span_id"] == job["span_id"]
        # both waiters saw the result: both request spans closed ok
        request_closes = [
            e
            for e in events
            if e["kind"] == "span_close" and e["name"] == "service_request"
        ]
        assert len(request_closes) == 2
        assert all(e["status"] == "ok" for e in request_closes)

    def test_shutdown_op_stops_server(self, tmp_path):
        async def scenario():
            server, executor, task = await start_server(tmp_path)
            response = (
                await request_lines(
                    server.port, [{"op": "shutdown", "id": "x"}]
                )
            )[0]
            await asyncio.wait_for(task, timeout=30)
            executor.shutdown()
            # further connections are refused once stopped
            try:
                await asyncio.open_connection("127.0.0.1", server.port)
                refused = False
            except OSError:
                refused = True
            return response, refused

        response, refused = asyncio.run(scenario())
        assert response["ok"]
        assert refused
