"""The asyncio JSONL-over-TCP front end of the query service.

Protocol (one JSON object per line, responses echo the request ``id``):

========== ===========================================================
op         behaviour
========== ===========================================================
entail     :class:`~repro.service.jobs.JobRequest` fields; answers the
           Boolean CQ (possibly warm from a snapshot)
chase      same fields sans query; returns the (partial) final instance
batch_entail  ``queries`` list instead of ``query``: many *distinct*
           Boolean CQs against one loaded snapshot in a single indexed
           pass (one chase, per-step tests for every open query); the
           response carries a per-query ``results`` list
batch      ``{"op": "batch", "requests": [...]}`` — member requests run
           concurrently, one response with a ``results`` list
ping       liveness check
stats      service totals, read from the executor's metrics
           registry, + the registry snapshot
shutdown   acknowledge, then stop the server gracefully
========== ===========================================================

Responses arrive as soon as each job finishes — possibly out of request
order on a pipelined connection, which is what the ``id`` echo is for.

In-flight dedup: requests with equal
:meth:`~repro.service.jobs.JobRequest.dedup_key` coalesce onto the same
running job — one execution, every waiter gets the result (flagged
``"coalesced": true``).  This is what makes a thundering herd of
identical queries cheap; *sequential* repeats are instead served by the
snapshot store's warm starts.

The server is single-threaded asyncio; the blocking chase work lives in
the :class:`~repro.service.executor.JobExecutor` process pool, bridged
with :func:`asyncio.wrap_future`.

Response guarantee
------------------
Every request line that reaches the dispatcher gets **exactly one**
reply, including executor-level failures (broken pool, shutdown),
partial batch failures, and internal errors: ``_handle_line`` carries a
catch-all that converts any escaping exception into an ``ok=False``
response carrying the request ``id``, and batch members fail
individually without poisoning their siblings.  The only way a client
sees no reply is its own connection dying.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Optional

from ..obs import observer as _observer_state
from ..obs.spans import (
    RollingLatencies,
    TraceContext,
    activate,
    close_span,
    open_span,
)
from .executor import JobExecutor
from .faults import FaultPlan
from .jobs import JobRequest, JobResult

__all__ = ["EntailmentServer", "serve"]

#: Grace period for draining open connections on shutdown, seconds.
SHUTDOWN_GRACE = 5.0


class EntailmentServer:
    """Serve job requests over TCP as JSON lines.

    Parameters
    ----------
    executor:
        The :class:`JobExecutor` doing the actual chasing (owned by the
        caller; the server never shuts it down).
    host, port:
        Bind address; port 0 picks an ephemeral port, readable from
        :attr:`port` after :meth:`start`.
    default_timeout:
        Per-job deadline (seconds) applied to requests that do not set
        their own ``timeout``.
    fault_plan:
        A :class:`~repro.service.faults.FaultPlan` whose armed
        ``server.drop_connection`` fuses abort the connection instead
        of writing a response (chaos testing only; None in production).
    planner:
        When True, requests that neither set ``planner`` themselves nor
        carry an explicit ``strategy`` override are routed through the
        analysis planner (the worker derives a per-ruleset strategy,
        cached by fingerprint).  Clients keep full control: sending
        ``"planner": false`` or a ``strategy`` dict opts a request out.

    Tracing
    -------
    When an observer is installed, every accepted request is minted a
    fresh trace: a ``service_request`` root span for the client-visible
    wait, and — for the request that actually starts the job — a
    ``service_job`` child span whose context rides to the executor on
    ``request.trace``.  Requests that coalesce onto a running job get
    their *own* root span carrying ``job_trace_id``/``job_span_id``
    link attributes pointing at the shared job span (a link, not a
    parent: the job belongs to the first request's trace).  With no
    observer no span is opened.

    Counting
    --------
    Every service total lives in the executor's registry, counted once
    by its event's update: ``service_request`` here, the rest by the
    executor, each sent to :meth:`JobExecutor.observer` (the installed
    observer, or a metrics observer on that registry when none is).  A
    request answered with an internal error is counted directly, as
    ``service.request_errors``: no event carries it.
    """

    def __init__(
        self,
        executor: JobExecutor,
        host: str = "127.0.0.1",
        port: int = 0,
        default_timeout: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
        planner: bool = False,
    ):
        self.executor = executor
        self.host = host
        self.port = port
        self.default_timeout = default_timeout
        self.fault_plan = fault_plan
        self.planner = planner
        self.registry = executor.registry
        self.latencies = RollingLatencies()
        self._inflight: dict[tuple, asyncio.Future] = {}
        #: dedup key -> the running job's span context, for coalesced
        #: requests to link against (cleared with _inflight).
        self._inflight_spans: dict[tuple, TraceContext] = {}
        self._conn_tasks: set[asyncio.Task] = set()
        self._server: Optional[asyncio.base_events.Server] = None
        self._stop: Optional[asyncio.Event] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> "EntailmentServer":
        """Bind and start accepting; resolves the ephemeral port."""
        self._stop = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_until_stopped(self) -> None:
        """Block until a shutdown request (or :meth:`request_stop`),
        then drain open connections and close."""
        if self._server is None or self._stop is None:
            raise RuntimeError("serve_until_stopped() requires start()")
        await self._stop.wait()
        self._server.close()
        await self._server.wait_closed()
        pending = [task for task in self._conn_tasks if not task.done()]
        if pending:
            done, still_open = await asyncio.wait(
                pending, timeout=SHUTDOWN_GRACE
            )
            for task in still_open:
                task.cancel()
            if still_open:
                await asyncio.gather(*still_open, return_exceptions=True)

    def request_stop(self) -> None:
        """Ask :meth:`serve_until_stopped` to wind the server down."""
        if self._stop is not None:
            self._stop.set()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        write_lock = asyncio.Lock()
        line_tasks: set[asyncio.Task] = set()
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                text = line.strip()
                if not text:
                    continue
                # One task per line, so requests on the same connection
                # overlap; responses carry the id for re-pairing.
                lt = asyncio.ensure_future(
                    self._handle_line(text, writer, write_lock)
                )
                line_tasks.add(lt)
                lt.add_done_callback(line_tasks.discard)
            if line_tasks:
                await asyncio.gather(*line_tasks, return_exceptions=True)
        finally:
            for lt in line_tasks:
                lt.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_line(
        self, text: bytes, writer: asyncio.StreamWriter, lock: asyncio.Lock
    ) -> None:
        try:
            obj = json.loads(text)
            if not isinstance(obj, dict):
                raise ValueError("request must be a JSON object")
        except ValueError as exc:
            await self._write(
                writer, lock, {"ok": False, "error": f"bad request: {exc}"}
            )
            return
        try:
            response = await self._dispatch(obj)
        except Exception as exc:  # noqa: BLE001 - the response guarantee
            # Nothing may escape between "request parsed" and "response
            # written": an exception here used to be swallowed by the
            # connection task's gather(return_exceptions=True) and the
            # client would wait forever for this id.
            self._count_request_error()
            response = {
                "ok": False,
                "error": f"internal error: {type(exc).__name__}: {exc}",
            }
            if obj.get("id") is not None:
                response["id"] = obj["id"]
        if (
            self.fault_plan is not None
            and self.fault_plan.consume("server.drop_connection") is not None
        ):
            writer.transport.abort()
            return
        await self._write(writer, lock, response)

    async def _write(
        self, writer: asyncio.StreamWriter, lock: asyncio.Lock, obj: dict
    ) -> None:
        data = (json.dumps(obj) + "\n").encode()
        async with lock:
            try:
                writer.write(data)
                await writer.drain()
            except (ConnectionError, OSError):
                pass  # client went away; the job result still counted

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    async def _dispatch(self, obj: dict) -> dict:
        op = obj.get("op")
        request_id = obj.get("id")
        if op == "ping":
            response: dict = {"ok": True, "op": "ping"}
        elif op == "stats":
            response = self.stats_payload()
        elif op == "shutdown":
            self.request_stop()
            response = {"ok": True, "op": "shutdown"}
        elif op == "batch":
            members = obj.get("requests")
            if not isinstance(members, list):
                response = {
                    "ok": False,
                    "op": "batch",
                    "error": "batch needs a 'requests' list",
                }
            else:
                # return_exceptions: one poisoned member must not kill
                # the whole batch — siblings still answer, and the bad
                # member gets a per-member error object.
                results = await asyncio.gather(
                    *(self._answer(member) for member in members),
                    return_exceptions=True,
                )
                response = {
                    "ok": True,
                    "op": "batch",
                    "results": [
                        result
                        if not isinstance(result, BaseException)
                        else self._member_error(member, result)
                        for member, result in zip(members, results)
                    ],
                }
        elif op in ("entail", "chase", "batch_entail"):
            response = await self._answer(obj)
        else:
            response = {"ok": False, "error": f"unknown op {op!r}"}
        if request_id is not None:
            response["id"] = request_id
        return response

    async def _answer(self, obj) -> dict:
        try:
            if not isinstance(obj, dict):
                raise ValueError("request must be a JSON object")
            request = JobRequest.from_obj(obj)
            if request.timeout is None:
                request.timeout = self.default_timeout
            # Server-level planner default: applied before dedup_key so
            # routed and unrouted forms of the same question never
            # coalesce onto each other's job.
            if (
                self.planner
                and "planner" not in obj
                and request.strategy is None
            ):
                request.planner = True
        except (ValueError, TypeError) as exc:
            return {"ok": False, "error": f"bad request: {exc}"}

        key = request.dedup_key()
        running = self._inflight.get(key)
        coalesced = running is not None
        observer = _observer_state.current
        request_context: Optional[TraceContext] = None
        started: Optional[float] = None
        if observer is not None:
            request_context = TraceContext.new_root()
            started = time.perf_counter()
            attrs: dict = {"op": request.op, "coalesced": coalesced}
            if request.id is not None:
                attrs["request_id"] = request.id
            if coalesced:
                job_context = self._inflight_spans.get(key)
                if job_context is not None:
                    attrs["job_trace_id"] = job_context.trace_id
                    attrs["job_span_id"] = job_context.span_id
            open_span(observer, request_context, "service_request", **attrs)
        with activate(request_context):
            self.executor.observer().emit(
                "service_request", op=request.op, coalesced=coalesced
            )
        if not coalesced:
            job_context = None
            if request_context is not None:
                job_context = request_context.child()
                self._inflight_spans[key] = job_context
            running = asyncio.ensure_future(self._run_job(request, job_context))
            self._inflight[key] = running
            running.add_done_callback(
                lambda fut, key=key: self._clear_inflight(key, fut)
            )
        try:
            # shield(): one waiter giving up (connection dropped) must
            # not cancel the shared job the other waiters coalesced onto.
            result: JobResult = await asyncio.shield(running)
        except asyncio.CancelledError:
            if request_context is not None:
                close_span(
                    _observer_state.current,
                    request_context,
                    "service_request",
                    status="aborted",
                    seconds=round(time.perf_counter() - started, 6),
                )
            raise  # this waiter was cancelled; the shared job lives on
        except Exception as exc:  # noqa: BLE001 - per-request guarantee
            self._count_request_error()
            if request_context is not None:
                close_span(
                    _observer_state.current,
                    request_context,
                    "service_request",
                    status="error",
                    seconds=round(time.perf_counter() - started, 6),
                    error=f"{type(exc).__name__}: {exc}",
                )
            response = {
                "ok": False,
                "error": f"job failed: {type(exc).__name__}: {exc}",
                "coalesced": coalesced,
            }
            if request.id is not None:
                response["id"] = request.id
            return response
        if request_context is not None:
            close_span(
                _observer_state.current,
                request_context,
                "service_request",
                status="ok" if result.ok else "error",
                seconds=round(time.perf_counter() - started, 6),
            )
        response = result.to_obj()
        response["coalesced"] = coalesced
        if request.id is not None:
            response["id"] = request.id
        return response

    @staticmethod
    def _member_error(member, exc: BaseException) -> dict:
        response = {
            "ok": False,
            "error": f"batch member failed: {type(exc).__name__}: {exc}",
        }
        if isinstance(member, dict) and member.get("id") is not None:
            response["id"] = member["id"]
        return response

    def _clear_inflight(self, key: tuple, fut: asyncio.Future) -> None:
        if self._inflight.get(key) is fut:
            del self._inflight[key]
            self._inflight_spans.pop(key, None)

    async def _run_job(
        self, request: JobRequest, context: Optional[TraceContext] = None
    ) -> JobResult:
        if context is not None:
            # The job span context crosses the spawn boundary on
            # request.trace; the executor parents its attempt spans (and
            # any retries/rebuilds) under it, so a killed-and-retried
            # job stays one causal timeline.
            request.trace = context.to_obj()
            open_span(
                _observer_state.current, context, "service_job", op=request.op
            )
        started = time.perf_counter()
        try:
            result: JobResult = await asyncio.wrap_future(
                self.executor.submit(request)
            )
        except Exception as exc:  # noqa: BLE001 - submit-time failures
            # The supervised executor resolves rather than raises, but a
            # waiter must get a well-formed result even if submission
            # itself blows up (e.g. an executor shut down under us).
            self._count_request_error()
            result = JobResult(
                op=request.op,
                ok=False,
                error=f"executor failure: {type(exc).__name__}: {exc}",
            )
        # Always feed the rolling window (the stats op works with no
        # observer installed); result.seconds is the executor's wall
        # clock from first submission, the same number the service_job
        # trace event carries — live and offline percentiles agree.
        self.latencies.record(request.op, result.warm, result.ok, result.seconds)
        if context is not None:
            close_span(
                _observer_state.current,
                context,
                "service_job",
                status="ok" if result.ok else "error",
                seconds=round(time.perf_counter() - started, 6),
                ok=result.ok,
                warm=result.warm,
                ancestor=result.ancestor,
            )
        return result

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------

    def _count_request_error(self) -> None:
        """Count a request answered with an internal error, not by a job
        (no event carries it)."""
        self.registry.counter("service.request_errors").inc()

    def stats_payload(self) -> dict:
        """The stats-op response: the service totals, read from the
        registry, rolling latency percentiles, and the metrics
        snapshot."""
        metrics = self.registry.snapshot()

        def count(name: str) -> int:
            return metrics.get(name, {}).get("value", 0)

        jobs = count("service.jobs")
        warm_hits = count("service.warm_hits")
        strategy = "service.strategy."
        return {
            "ok": True,
            "op": "stats",
            "requests": count("service.requests"),
            "coalesced": count("service.coalesced"),
            "jobs": jobs,
            "warm_hits": warm_hits,
            "warm_hit_ratio": (warm_hits / jobs) if jobs else None,
            "ancestor_hits": count("service.ancestor_resumes"),
            "errors": count("service.job_errors") + count("service.request_errors"),
            "retries": count("service.retries"),
            "pool_rebuilds": count("service.pool_rebuilds"),
            "snapshots_evicted": count("snapshot.evicted"),
            "snapshot_ancestor_hits": count("snapshot.ancestor_hits"),
            "planner": {
                "enabled": self.planner,
                "strategies": {
                    name[len(strategy):]: snap["value"]
                    for name, snap in metrics.items()
                    if name.startswith(strategy)
                },
                "verdicts": count("planner.verdicts"),
                "cache_hits": count("planner.cache_hits"),
            },
            "query": {
                key: count(f"query.{key}")
                for key in (
                    "plan_lookups",
                    "plan_cache_hits",
                    "rewrites",
                    "disjuncts_pruned",
                    "rewrite_fallbacks",
                )
            },
            "pending": self.executor.pending,
            "inflight": len(self._inflight),
            "latency": self.latencies.summary(),
            "latency_window": {
                "capacity": self.latencies.capacity,
                "samples": len(self.latencies),
            },
            "metrics": metrics,
        }


async def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 2,
    snapshot_dir: Optional[str] = None,
    default_timeout: Optional[float] = None,
    executor: Optional[JobExecutor] = None,
    fault_plan: Optional[FaultPlan] = None,
    trace_dir: Optional[str] = None,
    planner: bool = False,
) -> None:
    """Run a server until a shutdown request arrives.

    Prints ``repro serve listening on HOST:PORT`` once ready (the CI
    smoke harness parses this line to find the ephemeral port).
    *trace_dir* is forwarded to an executor this call creates itself
    (per-worker span sinks); it is ignored when *executor* is given.
    *planner* turns on server-level planner routing (see
    :class:`EntailmentServer`)."""
    own_executor = executor is None
    if executor is None:
        executor = JobExecutor(
            workers=workers, snapshot_dir=snapshot_dir, trace_dir=trace_dir
        )
    server = EntailmentServer(
        executor,
        host=host,
        port=port,
        default_timeout=default_timeout,
        fault_plan=fault_plan,
        planner=planner,
    )
    await server.start()
    print(f"repro serve listening on {server.host}:{server.port}", flush=True)
    try:
        await server.serve_until_stopped()
    finally:
        if own_executor:
            executor.shutdown()
