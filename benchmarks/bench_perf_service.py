"""Perf table for the query service: cold vs warm-started jobs.

For each workload the table times the same ``JobRequest`` twice against
a fresh snapshot store: the cold run pays the full chase, the warm run
resumes from the snapshot the cold run saved.  A repeated identical
entailment request must come back with **zero** new rule applications
(the warm-snapshot-hit path), so its row doubles as a correctness gate.

``bench_perf_service_table`` archives ``results/perf_service.json`` —
the artifact the CI ``service-smoke`` job publishes alongside the live
server replay.
"""

import tempfile
import time

from repro.kbs.elevator import elevator_kb
from repro.kbs.generators import layered_kb
from repro.kbs.staircase import staircase_kb
from repro.kbs.witnesses import transitive_closure_kb
from repro.logic.serialization import dump_kb
from repro.service.jobs import JobRequest, execute_job
from repro.service.snapshots import SnapshotStore
from repro.util import Table

from conftest import save_table

#: (workload, request factory) — each request is answered cold then warm.
SERVICE_ROWS = (
    (
        "staircase-entail",
        lambda: JobRequest(
            op="entail",
            kb_text=dump_kb(staircase_kb()),
            query="v(X, Y), v(Y, Z)",
            max_steps=45,
        ),
    ),
    (
        "staircase-core-chase",
        lambda: JobRequest(
            op="chase",
            kb_text=dump_kb(staircase_kb()),
            variant="core",
            max_steps=30,
        ),
    ),
    (
        "elevator-core-chase",
        lambda: JobRequest(
            op="chase",
            kb_text=dump_kb(elevator_kb()),
            variant="core",
            max_steps=25,
        ),
    ),
    (
        "layered-6x2-entail",
        lambda: JobRequest(
            op="entail",
            kb_text=dump_kb(layered_kb(6, fanout=2)),
            query="nosuch(X)",
            max_steps=200,
        ),
    ),
    (
        "transitive-5-entail",
        lambda: JobRequest(
            op="entail",
            kb_text=dump_kb(transitive_closure_kb(5)),
            query="e(v0, v5)",
            max_steps=300,
        ),
    ),
)


def _timed_job(request, store):
    started = time.perf_counter()
    result = execute_job(request, store)
    seconds = time.perf_counter() - started
    assert result.ok, result.error
    return seconds, result


def bench_perf_service_table():
    """Archive the cold-vs-warm timing table for the service job layer."""
    table = Table(
        [
            "workload",
            "op",
            "cold_apps",
            "warm_apps",
            "cold_seconds",
            "warm_seconds",
            "speedup",
        ],
        title="perf: service jobs, cold vs snapshot warm start",
    )
    for workload, make_request in SERVICE_ROWS:
        with tempfile.TemporaryDirectory(prefix="repro-bench-snap-") as scratch:
            store = SnapshotStore(scratch)
            cold_seconds, cold = _timed_job(make_request(), store)
            warm_seconds, warm = _timed_job(make_request(), store)
        assert warm.warm, f"{workload}: second identical job did not warm-start"
        assert warm.applications == 0, (
            f"{workload}: warm job re-applied {warm.applications} rules"
        )
        assert warm.total_applications == cold.total_applications
        if cold.op == "entail":
            assert warm.entailed == cold.entailed
        else:
            assert warm.instance == cold.instance
        table.add_row(
            workload,
            cold.op,
            cold.applications,
            warm.applications,
            round(cold_seconds, 4),
            round(warm_seconds, 4),
            round(cold_seconds / max(warm_seconds, 1e-9), 1),
        )
    save_table(
        "perf_service",
        table,
        "warm rows resume from the cold run's snapshot: zero new rule "
        "applications by construction (the warm-snapshot-hit guarantee).",
    )
