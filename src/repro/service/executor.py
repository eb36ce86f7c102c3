"""A supervised process-pool job executor with retry, backoff, and
fork/spawn-safe metrics.

Chase jobs are CPU-bound pure Python, so real concurrency needs
processes; :class:`JobExecutor` shards :class:`~repro.service.jobs.
JobRequest` work across a :class:`~concurrent.futures.
ProcessPoolExecutor` (``workers=0`` degrades to a single in-process
worker thread — handy for tests and the single-shot CLI paths).

Supervision (the fault-tolerance layer)
---------------------------------------
Worker loss is an *expected* event for this paper's workloads — the
core chase of the inflating elevator never terminates, and real jobs
die on memory or timeout — so the executor treats a broken pool as
routine, not fatal:

1. **Failure classification.**  An exception surfacing at the executor
   level (never from :func:`~repro.service.jobs.execute_job`, which
   converts job-level errors into ``ok=False`` results) is classified
   *transient* (:class:`~concurrent.futures.BrokenExecutor` — a worker
   died and poisoned the pool — plus :class:`OSError`/:class:`EOFError`
   pipe failures) or *permanent* (unpicklable payloads, shutdown,
   anything else deterministic).
2. **Pool rebuild.**  The first transient failure observed against the
   current pool replaces it with a fresh one (the broken pool can never
   accept work again); concurrent failures from the same breakage see
   the already-rebuilt pool and skip the rebuild.
3. **Retry with capped exponential backoff + jitter.**  Transient
   failures re-submit the job under a per-job retry budget
   (:class:`RetryPolicy`); snapshot warm starts make retries cheap by
   construction — a retried job resumes from the last checkpoint the
   dead worker (or a sibling) saved, so the work lost to a crash is at
   most one checkpoint interval.
4. **Guaranteed resolution.**  :meth:`JobExecutor.submit` never raises
   and the returned future always resolves: permanent failures,
   exhausted retry budgets, post-completion bookkeeping errors
   (metrics merge, result decode, a raising observer) and shutdown all
   resolve to well-formed ``ok=False`` :class:`JobResult`\\ s.

Metrics protocol (the fork/spawn hazard)
----------------------------------------
The executor's :class:`~repro.obs.MetricsRegistry` must never be
*shared* with workers: under ``spawn`` the child would not have it,
under ``fork`` it would inherit a dead copy whose updates the parent
never sees — silently dropped telemetry either way.  The protocol here
makes worker metrics explicit instead:

1. the pool initializer clears any inherited process-global observer,
   so a forked worker cannot scribble into the parent's trace file;
2. each job records into a **fresh** registry through a local
   :class:`~repro.obs.MetricsObserver` and ships
   ``registry.snapshot()`` back alongside the result;
3. the parent folds the snapshot into its own registry
   (:meth:`~repro.obs.MetricsRegistry.merge_snapshot`) on completion.

The pool uses the ``spawn`` start method explicitly so worker state is
fresh by construction on every platform (and fork-safety hazards with
the server's event-loop threads never arise).

The registry is the one home of every service total.  The parent keeps
the ``service.queue_depth`` gauge current (submitted-but-unfinished
jobs) and reports completions, retries and rebuilds through the
``service_job``, ``service_retry`` and ``service_pool_rebuild`` events,
with job latency measured from first submission (queueing and retries
included).  Each total is counted once, by its event's update in
:data:`~repro.obs.observer.EVENTS`: the events go to the installed
observer, or, when none is installed, to a
:class:`~repro.obs.MetricsObserver` on the registry
(:meth:`JobExecutor.observer`).
"""

from __future__ import annotations

import contextlib
import functools
import multiprocessing
import os
import random
import threading
import time
from concurrent.futures import (
    BrokenExecutor,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import dataclass
from typing import Optional

from ..obs import observer as _observer_state
from ..obs.metrics import MetricsRegistry
from ..obs.spans import (
    TraceContext,
    activate,
    close_span,
    open_span,
    span as _span,
)
from ..obs.tracer import JsonlTracer, MetricsObserver, TracingObserver
from .faults import FaultPlan, fire_snapshot_corruption, fire_worker_faults
from .jobs import JobRequest, JobResult, execute_job
from .snapshots import SnapshotStore

__all__ = ["JobExecutor", "RetryPolicy", "is_transient"]


def _worker_init() -> None:
    """Pool initializer: drop any observer the worker inherited."""
    _observer_state.set_observer(None)


def _worker_store(
    snapshot_dir: Optional[str], limits: Optional[dict]
) -> Optional[SnapshotStore]:
    """This process's store for *snapshot_dir* / *limits*.

    The first job that names them opens it and later jobs reuse it, so
    a job pays neither the store's construction nor a fresh catalog
    connection.  A failed open is not cached: the next job retries
    it."""
    if not snapshot_dir:
        return None
    limits = limits or {}
    return _open_store(
        snapshot_dir, limits.get("max_entries"), limits.get("max_bytes")
    )


@functools.lru_cache(maxsize=8)
def _open_store(
    snapshot_dir: str, max_entries: Optional[int], max_bytes: Optional[int]
) -> SnapshotStore:
    return SnapshotStore(snapshot_dir, max_entries=max_entries, max_bytes=max_bytes)


def _job_observer(registry: MetricsRegistry, trace_dir: Optional[str]):
    """The per-job observer: metrics-only, or tracing into this worker's
    own JSONL sink (``worker-<pid>.jsonl``, append mode — one file per
    worker process, merged later on the wall-clock ``ts`` field).
    Returns ``(observer, sink)``; the caller closes a non-None sink."""
    if not trace_dir:
        return MetricsObserver(registry), None
    path = os.path.join(trace_dir, f"worker-{os.getpid()}.jsonl")
    sink = open(path, "a")
    return TracingObserver(JsonlTracer(sink), registry=registry), sink


def _note_queue_wait(observer, request: JobRequest) -> None:
    """Record the time this delivery spent between parent-side submit
    and worker pickup as an instant ``queue_wait`` span (the wait
    already happened, so it rides as an attribute, not a duration)."""
    trace = request.trace if isinstance(request.trace, dict) else None
    if trace is None:
        return
    submitted = trace.get("submitted_ts")
    if not isinstance(submitted, (int, float)):
        return
    wait = max(0.0, time.time() - submitted)
    with _span("queue_wait", observer=observer, wait_seconds=round(wait, 6)):
        pass


def _run_job(
    request_obj: dict,
    snapshot_dir: Optional[str],
    fault_dir: Optional[str] = None,
    limits: Optional[dict] = None,
    trace_dir: Optional[str] = None,
    in_process: bool = False,
) -> tuple[dict, dict]:
    """Worker-side body: execute one job, return (result, metrics).

    Only JSON-able dicts cross the boundary.  The request's trace
    context (if any) is activated for the whole job, and the job records
    into a fresh registry.  In a pool worker the job observer is
    installed process-globally for the job's duration, so snapshot
    accesses and engine events — which report to the global observer —
    are traced and stamped too.  *in_process* (``workers=0``) must NOT
    touch the process-global observer: it shares the process with the
    server's event loop.  Events the global observer emits on this
    thread stay stamped, since context variables are per-thread."""
    registry = MetricsRegistry()
    plan = FaultPlan(fault_dir) if fault_dir else None
    fire_worker_faults(plan, in_process=in_process)
    request = JobRequest.from_obj(request_obj)
    store = _worker_store(snapshot_dir, limits)
    observer, sink = _job_observer(registry, trace_dir)
    context = TraceContext.from_obj(request.trace)
    installed = (
        contextlib.nullcontext()
        if in_process
        else _observer_state.observing(observer)
    )
    try:
        with activate(context), installed:
            _note_queue_wait(observer, request)
            result = execute_job(request, store, observer=observer)
            fire_snapshot_corruption(plan, snapshot_dir)
    finally:
        if sink is not None:
            sink.close()
    return result.to_obj(), registry.snapshot()


# ---------------------------------------------------------------------------
# failure classification and retry policy
# ---------------------------------------------------------------------------


#: OSError subclasses that name a deterministic environment problem (a
#: missing or unwritable snapshot/fault path): retrying cannot fix them,
#: it only burns the backoff budget before the client sees ok=False.
_DETERMINISTIC_OS_ERRORS = (
    FileNotFoundError,
    PermissionError,
    FileExistsError,
    IsADirectoryError,
    NotADirectoryError,
)


def is_transient(exc: BaseException) -> bool:
    """Whether *exc* names a failure a retry can plausibly outrun.

    :class:`BrokenExecutor` (a worker died — the canonical recoverable
    event), pipe/connection-level :class:`OSError`/:class:`EOFError` and
    cancelled inner futures are transient; deterministic OSErrors
    (missing files, bad permissions) and everything else (unpicklable
    payloads, ``submit`` after shutdown, programming errors) are
    permanent — the job is deterministic, so re-running it would fail
    identically.
    """
    if isinstance(exc, _DETERMINISTIC_OS_ERRORS):
        return False
    return isinstance(exc, (BrokenExecutor, OSError, EOFError, CancelledError))


@dataclass
class RetryPolicy:
    """Capped exponential backoff with jitter, per-job budgeted.

    Attempt *n* (0-based retry index) sleeps
    ``min(max_delay, base_delay * 2**n)`` scaled by a jitter factor
    drawn uniformly from ``[0.5, 1.0]`` — the decorrelation that keeps a
    herd of jobs orphaned by one dead worker from re-stampeding the
    rebuilt pool in lockstep.  *seed* pins the jitter stream for
    reproducible tests; None uses nondeterministic jitter.
    """

    max_retries: int = 2
    base_delay: float = 0.05
    max_delay: float = 2.0
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        self._rng = random.Random(self.seed)
        self._rng_lock = threading.Lock()

    def delay_for(self, attempt: int) -> float:
        """Backoff before retry *attempt* (0-based), jitter applied."""
        ceiling = min(self.max_delay, self.base_delay * (2**attempt))
        with self._rng_lock:
            jitter = 0.5 + self._rng.random() / 2
        return ceiling * jitter


class _Job:
    """Parent-side bookkeeping for one submitted request."""

    __slots__ = (
        "request",
        "submitted",
        "attempt",
        "pool",
        "context",
        "attempt_context",
        "attempt_started",
        "owns_span",
    )

    def __init__(self, request: JobRequest, submitted: float):
        self.request = request
        self.submitted = submitted
        self.attempt = 0  # retries performed so far
        self.pool = None  # the pool the live attempt went to
        self.context: Optional[TraceContext] = None  # the job span
        self.attempt_context: Optional[TraceContext] = None  # live attempt
        self.attempt_started = 0.0  # when the live attempt span opened
        self.owns_span = False  # we minted (and must close) the job span


class JobExecutor:
    """Shard jobs across worker processes; supervise and retry failures.

    Parameters
    ----------
    workers:
        Process-pool size; ``0`` runs jobs on one background thread in
        this process (no pickling, no interpreter startup — the mode
        unit tests and the single-shot CLI use).
    snapshot_dir:
        Root of the shared :class:`~repro.service.snapshots.
        SnapshotStore`; None disables warm starts.  Each worker process
        (this one, in the in-process mode) opens the store on its first
        job and keeps it for later jobs.
    registry:
        Where every service total is counted and worker metric
        snapshots are merged; None makes a fresh one.
    retry_policy:
        Backoff/budget for transient executor-level failures; None
        installs the default :class:`RetryPolicy` (2 retries).
    fault_dir:
        A :class:`~repro.service.faults.FaultPlan` directory forwarded
        to workers; None (the default) disables fault injection.
    trace_dir:
        A run directory for per-worker JSONL span sinks: each pool
        worker appends its trace to ``trace_dir/worker-<pid>.jsonl``
        (``repro trace`` merges them with the server's file); None
        disables worker-side tracing.
    max_snapshot_entries, max_snapshot_bytes:
        Size bounds forwarded to the worker-side snapshot stores
        (access-counter LRU eviction past either bound); None leaves
        the store unbounded.

    Every job runs the same body, :func:`_run_job`: in a pool worker,
    or (``workers=0``) on the executor's thread with ``in_process=True``.
    Ancestor resume is a per-job choice, the resolved strategy's
    ``ancestor_resume``; a request opts out with a ``strategy`` that
    sets it false.
    """

    def __init__(
        self,
        workers: int = 2,
        snapshot_dir: Optional[str] = None,
        registry: Optional[MetricsRegistry] = None,
        retry_policy: Optional[RetryPolicy] = None,
        fault_dir: Optional[str] = None,
        max_snapshot_entries: Optional[int] = None,
        max_snapshot_bytes: Optional[int] = None,
        trace_dir: Optional[str] = None,
    ):
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.workers = workers
        self.snapshot_dir = str(snapshot_dir) if snapshot_dir else None
        self.registry = registry if registry is not None else MetricsRegistry()
        self._metrics = MetricsObserver(self.registry)
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.fault_dir = str(fault_dir) if fault_dir else None
        self.trace_dir = str(trace_dir) if trace_dir else None
        if self.trace_dir:
            os.makedirs(self.trace_dir, exist_ok=True)
        self._limits = {
            "max_entries": max_snapshot_entries,
            "max_bytes": max_snapshot_bytes,
        }
        self._lock = threading.Lock()
        self._pool = self._make_pool()
        self._pending = 0
        self._closed = False
        #: backoff timers for jobs awaiting re-submission
        self._retry_timers: dict[
            threading.Timer, tuple[_Job, Future, Optional[TraceContext], float]
        ] = {}

    def _make_pool(self):
        if self.workers > 0:
            return ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context("spawn"),
                initializer=_worker_init,
            )
        return ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-job")

    def observer(self):
        """Where the service events go: the installed observer, or, when
        none is installed, a metrics observer on :attr:`registry`."""
        current = _observer_state.current
        return current if current is not None else self._metrics

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    def submit(self, request: JobRequest) -> "Future[JobResult]":
        """Schedule *request*; the returned future always resolves to a
        :class:`JobResult` (never raises — job errors, pool breakage,
        exhausted retries and shutdown all come back as ``ok=False``
        results)."""
        outer: Future = Future()
        job = _Job(request, time.perf_counter())
        job.context = TraceContext.from_obj(request.trace)
        if job.context is None and _observer_state.current is not None:
            # Standalone use (no server minted a trace for this request):
            # the executor owns the job span and must close it itself.
            job.context = TraceContext.new_root()
            job.owns_span = True
            self._span_open(job.context, "service_job", op=request.op)
        with self._lock:
            self._pending += 1
            depth = self._pending
        self.registry.gauge("service.queue_depth").set(depth)
        self._submit_attempt(job, outer)
        return outer

    def _submit_attempt(self, job: _Job, outer: "Future[JobResult]") -> None:
        """Hand *job* to the current pool; on failure, route through the
        supervisor instead of raising."""
        with self._lock:
            closed = self._closed
            pool = self._pool
        if closed:
            self._resolve(
                job, outer, self._error_result(job, "executor is shut down")
            )
            return
        if job.context is not None:
            # Each (re-)submission is its own child span, opened AND
            # closed parent-side: a worker the fault plan kills with
            # os._exit can never close anything, so the attempt span
            # must not depend on worker-side cooperation.  The attempt
            # context rides on request.trace so the worker parents its
            # phase spans under *this* attempt, and submitted_ts lets
            # it measure queue wait.
            job.attempt_context = job.context.child()
            job.request.trace = {
                **job.attempt_context.to_obj(),
                "submitted_ts": round(time.time(), 6),
            }
            job.attempt_started = self._span_open(
                job.attempt_context,
                "job_attempt",
                op=job.request.op,
                attempt=job.attempt,
            )
        try:
            inner = pool.submit(
                _run_job,
                job.request.to_obj(),
                self.snapshot_dir,
                self.fault_dir,
                self._limits,
                self.trace_dir,
                in_process=self.workers == 0,
            )
        except BaseException as exc:  # noqa: BLE001 - supervisor boundary
            job.pool = pool
            self._handle_failure(job, outer, exc)
            return
        job.pool = pool
        inner.add_done_callback(lambda done: self._finish(done, job, outer))

    # ------------------------------------------------------------------
    # completion and supervision
    # ------------------------------------------------------------------

    @staticmethod
    def _span_open(context, name: str, **attrs) -> float:
        """Guarded :func:`~repro.obs.spans.open_span` against the current
        observer — a raising observer must not break supervision.
        Returns the open time, which the matching :meth:`_span_close`
        measures the span's ``seconds`` from."""
        started = time.perf_counter()
        try:
            open_span(_observer_state.current, context, name, **attrs)
        except Exception:  # noqa: BLE001 - observers must not break supervision
            pass
        return started

    @staticmethod
    def _span_close(
        context, name: str, started: float, status: str = "ok", **attrs
    ) -> None:
        try:
            close_span(
                _observer_state.current,
                context,
                name,
                status=status,
                seconds=round(time.perf_counter() - started, 6),
                **attrs,
            )
        except Exception:  # noqa: BLE001 - observers must not break supervision
            pass

    def _close_attempt(
        self, job: _Job, status: str, error: Optional[str] = None
    ) -> None:
        """Close the live attempt span, if one is open (idempotent)."""
        context = job.attempt_context
        if context is None:
            return
        job.attempt_context = None
        attrs: dict = {"attempt": job.attempt}
        if error is not None:
            attrs["error"] = error
        self._span_close(
            context, "job_attempt", job.attempt_started, status=status, **attrs
        )

    def _finish(self, done: Future, job: _Job, outer: "Future[JobResult]") -> None:
        """Inner-future callback.  Every path resolves or re-submits;
        nothing may leave *outer* pending (a client is awaiting it)."""
        try:
            try:
                exc = done.exception()
            except CancelledError as cancelled:
                exc = cancelled
            if exc is not None:
                self._handle_failure(job, outer, exc)
                return
            try:
                result_obj, metrics_snapshot = done.result()
                self.registry.merge_snapshot(metrics_snapshot)
                result = JobResult.from_obj(result_obj)
            except BaseException as post:  # noqa: BLE001 - see docstring
                # Post-completion bookkeeping failed (undecodable result,
                # incompatible metrics snapshot, ...): the job's answer is
                # unusable, but the client still gets a response.
                result = self._error_result(
                    job, f"result handling failed: {type(post).__name__}: {post}"
                )
            self._close_attempt(job, "ok" if result.ok else "error")
            self._resolve(job, outer, result)
        except BaseException as exc:  # noqa: BLE001 - last-resort guard
            if not outer.done():
                self._resolve_quietly(job, outer, exc)

    def _handle_failure(
        self, job: _Job, outer: "Future[JobResult]", exc: BaseException
    ) -> None:
        """Classify an executor-level failure; rebuild/retry or resolve."""
        error = f"{type(exc).__name__}: {exc}"
        self._close_attempt(job, "error", error=error)
        transient = is_transient(exc)
        if isinstance(exc, BrokenExecutor):
            self._rebuild_pool(job.pool, job.context)
        if transient and not self._closed and job.attempt < self.retry_policy.max_retries:
            delay = self.retry_policy.delay_for(job.attempt)
            job.attempt += 1
            attempt = job.attempt
            # The backoff wait is itself a child span of the job, so a
            # merged trace shows the gap between attempts as supervised
            # waiting, not dead air; the service_retry event is emitted
            # under it so both carry the job's trace_id.
            backoff_context = job.context.child() if job.context is not None else None
            backoff_started = self._span_open(
                backoff_context,
                "retry_backoff",
                attempt=attempt,
                delay=round(delay, 6),
                error=error,
            )
            try:
                with activate(backoff_context):
                    self.observer().emit(
                        "service_retry",
                        op=job.request.op,
                        attempt=attempt,
                        delay=delay,
                        error=error,
                    )
            except Exception:  # noqa: BLE001 - observers must not break supervision
                pass
            timer = threading.Timer(delay, lambda: self._fire_retry(timer))
            timer.daemon = True
            # _resolve re-acquires self._lock, so only record the decision
            # under the lock and resolve after releasing it (shutdown()
            # resolves its parked jobs outside the lock the same way).
            with self._lock:
                closed_during_backoff = self._closed
                if closed_during_backoff:
                    timer.cancel()
                else:
                    self._retry_timers[timer] = (
                        job, outer, backoff_context, backoff_started
                    )
            if closed_during_backoff:
                self._span_close(
                    backoff_context,
                    "retry_backoff",
                    backoff_started,
                    status="aborted",
                )
                self._resolve(
                    job,
                    outer,
                    self._error_result(job, "executor shut down during retry backoff"),
                )
                return
            timer.start()
            return
        suffix = f" (after {job.attempt} retries)" if job.attempt else ""
        self._resolve(
            job,
            outer,
            self._error_result(job, f"{type(exc).__name__}: {exc}{suffix}"),
        )

    def _fire_retry(self, timer: threading.Timer) -> None:
        with self._lock:
            entry = self._retry_timers.pop(timer, None)
        if entry is None:
            return  # shutdown already resolved this job
        job, outer, backoff_context, backoff_started = entry
        self._span_close(backoff_context, "retry_backoff", backoff_started)
        self._submit_attempt(job, outer)

    def _rebuild_pool(self, broken_pool, context: Optional[TraceContext] = None) -> None:
        """Replace the broken pool with a fresh one, exactly once per
        breakage: concurrent failures from the same dead worker all name
        the same pool object, and only the first swap wins.  *context*
        (the failing job's span) parents a ``pool_rebuild`` span so the
        rebuild shows up inside that request's timeline."""
        with self._lock:
            if self._closed or self._pool is not broken_pool:
                return
            self._pool = self._make_pool()
            pending = self._pending
        rebuild_context = context.child() if context is not None else None
        started = self._span_open(rebuild_context, "pool_rebuild", pending=pending)
        try:
            with activate(rebuild_context):
                self.observer().emit("service_pool_rebuild", pending=pending)
        except Exception:  # noqa: BLE001 - observers must not break supervision
            pass
        self._span_close(rebuild_context, "pool_rebuild", started)
        if broken_pool is not None:
            broken_pool.shutdown(wait=False)

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------

    def _error_result(self, job: _Job, error: str) -> JobResult:
        return JobResult(op=job.request.op, ok=False, error=error)

    def _resolve(
        self, job: _Job, outer: "Future[JobResult]", result: JobResult
    ) -> None:
        """Account for the job and resolve *outer* — always, even when
        an observer misbehaves."""
        with self._lock:
            self._pending -= 1
            depth = self._pending
        self.registry.gauge("service.queue_depth").set(depth)
        result.seconds = time.perf_counter() - job.submitted
        try:
            with activate(job.context):
                self.observer().emit(
                    "service_job",
                    op=job.request.op,
                    ok=result.ok,
                    warm=result.warm,
                    ancestor=result.ancestor,
                    incomplete=result.incomplete,
                    deadline_expired=result.deadline_expired,
                    applications=result.applications,
                    seconds=result.seconds,
                    strategy=result.strategy,
                )
        except Exception as exc:  # noqa: BLE001 - the client must get a reply
            result = self._error_result(
                job, f"observer failed: {type(exc).__name__}: {exc}"
            )
            result.seconds = time.perf_counter() - job.submitted
        if job.owns_span:
            job.owns_span = False
            self._span_close(
                job.context,
                "service_job",
                job.submitted,
                status="ok" if result.ok else "error",
                ok=result.ok,
                warm=result.warm,
            )
        if not outer.done():
            outer.set_result(result)

    def _resolve_quietly(
        self, job: _Job, outer: "Future[JobResult]", exc: BaseException
    ) -> None:
        """Absolute last resort: resolve without touching any subsystem
        that could itself raise."""
        try:
            with self._lock:
                self._pending -= 1
                depth = self._pending
            try:
                self.registry.gauge("service.queue_depth").set(depth)
            except BaseException:  # noqa: BLE001 - resolving outer comes first
                pass
            outer.set_result(
                self._error_result(
                    job, f"executor callback failed: {type(exc).__name__}: {exc}"
                )
            )
        except BaseException:  # noqa: BLE001 - nothing further to do
            pass

    # ------------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Jobs submitted but not yet finished."""
        with self._lock:
            return self._pending

    def shutdown(self, wait: bool = True) -> None:
        """Stop the pool; with ``wait`` the call blocks until running
        jobs finish.  Jobs parked in a retry backoff resolve immediately
        to ``ok=False`` — nobody is left awaiting a future that can no
        longer be served."""
        with self._lock:
            self._closed = True
            parked = list(self._retry_timers.items())
            self._retry_timers.clear()
            pool = self._pool
        for timer, (job, outer, backoff_context, backoff_started) in parked:
            timer.cancel()
            self._span_close(
                backoff_context, "retry_backoff", backoff_started, status="aborted"
            )
            self._resolve(
                job, outer, self._error_result(job, "executor is shut down")
            )
        pool.shutdown(wait=wait)

    def __enter__(self) -> "JobExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
