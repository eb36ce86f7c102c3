"""What a long-lived worker keeps between jobs.

A pool worker serves job after job, for many tenants, in one process.
State that outlives a job must therefore be bounded by something other
than the number of jobs.  The KBs here are written inline, each job
renames every constant for its own tenant, and jobs run through
:func:`~repro.service.jobs.execute_job` with one store and a
:class:`~repro.obs.tracer.MetricsObserver` installed, as the pool
worker body does.
"""

import gc
import tracemalloc
import weakref

from repro.logic.compiled.interner import reset_symbol_table
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import observing
from repro.obs.tracer import MetricsObserver
from repro.service.jobs import JobRequest, execute_job
from repro.service.snapshots import SnapshotStore

CHAIN_RULES = "[Trans] e(X, Y), e(Y, Z) -> e(X, Z)\n"
MANAGERS_RULES = "[Mgr] emp(X) -> emp(Y), mgr(X, Y)\n"
CHAIN_LENGTH = 4

WARMUP_JOBS = 10
SOAK_JOBS = 40
#: Retained-memory budget per job once warm.  The one unbounded
#: per-worker structure is the symbol-table interner: one code per
#: distinct constant, a few hundred bytes each.
MAX_GROWTH_PER_JOB = 4096


def kb_text(facts, rules):
    return "[facts]\n" + "\n".join(facts) + "\n\n[rules]\n" + rules


def chain_kb(tenant):
    facts = [
        f"e({tenant}_v{i}, {tenant}_v{i + 1})" for i in range(CHAIN_LENGTH)
    ]
    return kb_text(facts, CHAIN_RULES)


def managers_kb(tenant):
    return kb_text([f"emp({tenant}_ann)"], MANAGERS_RULES)


def tenant_job(n):
    """The *n*-th job: four request kinds in turn, each for tenant *n*."""
    tenant = f"t{n}"
    kind = n % 4
    if kind == 0:  # entailed; the chase answers
        return JobRequest(
            op="entail",
            kb_text=chain_kb(tenant),
            query=f"e({tenant}_v0, {tenant}_v{CHAIN_LENGTH})",
            max_steps=40,
        )
    if kind == 1:  # not entailed; the terminated chase says no
        return JobRequest(
            op="entail",
            kb_text=chain_kb(tenant),
            query=f"e({tenant}_v{CHAIN_LENGTH}, {tenant}_v0)",
            max_steps=40,
        )
    if kind == 2:  # planner-routed: rewriting answers from a cached plan
        return JobRequest(
            op="entail",
            kb_text=managers_kb(tenant),
            query="mgr(X, Y), mgr(Y, Z)",
            planner=True,
        )
    return JobRequest(op="chase", kb_text=managers_kb(tenant), max_steps=20)


def run_jobs(store, first, count):
    registry = MetricsRegistry()
    observer = MetricsObserver(registry)
    for n in range(first, first + count):
        registry.reset()
        with observing(observer):
            result = execute_job(tenant_job(n), store, observer=observer)
        assert result.ok, result.error


class TestPlanCacheLifetime:
    def test_dropped_store_is_collected(self, tmp_path):
        # Regression: the per-store plan cache held its store strongly
        # while being the value of a weak mapping keyed by that store,
        # so no store used by a rewrite job was ever collected.
        store = SnapshotStore(tmp_path)
        result = execute_job(
            JobRequest(
                op="entail",
                kb_text=managers_kb("solo"),
                query="mgr(X, Y)",
                rewrite=True,
            ),
            store,
        )
        assert result.ok and result.method == "ucq-rewrite-hit"
        alive = weakref.ref(store)
        del store
        gc.collect()
        assert alive() is None


class TestWorkerSoak:
    def test_retained_memory_is_flat_across_tenants(self, tmp_path):
        # A pool worker starts with an empty symbol table.  One filled
        # by earlier tests could reallocate its big term lists inside
        # the traced window, which would count as growth.
        reset_symbol_table()
        store = SnapshotStore(tmp_path)
        run_jobs(store, 0, WARMUP_JOBS)
        gc.collect()
        # Traced from here on: only what the soak jobs allocate and
        # leave behind counts.
        tracemalloc.start()
        try:
            warm, _ = tracemalloc.get_traced_memory()
            run_jobs(store, WARMUP_JOBS, SOAK_JOBS)
            gc.collect()
            soaked, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        per_job = (soaked - warm) / SOAK_JOBS
        assert per_job <= MAX_GROWTH_PER_JOB, (
            f"retained {per_job:.0f} B per job after warm-up"
        )
