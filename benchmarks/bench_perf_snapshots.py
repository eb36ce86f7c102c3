"""Perf table for snapshots: cold vs exact-warm vs ancestor-incremental.

Each row is one grow-by-k serving scenario: a base KB is chased once
(populating the snapshot store), then the *grown* KB — the same rules
with k new facts — is requested three ways:

* **cold** — no store: the full chase from scratch, the price every
  request paid before ancestor resolution existed;
* **ancestor-incremental** — exact snapshot miss, nearest-ancestor hit:
  the base KB's checkpoint is loaded, the k missing facts injected as a
  delta, and only their consequences derived;
* **exact-warm** — the repeat of the grown request: the incremental
  run's save (one record under the grown KB's key) now hits exactly,
  with zero new rule applications.

Each mode is timed best-of-:data:`REPEATS`.  Every timed incremental
job runs against a freshly primed store: a repetition on the previous
one's store would find the grown KB's own snapshot and time a warm hit.

The terminating chain rows double as a correctness gate (incremental
final instance must equal the cold fixpoint atom-for-atom); the
budget-bounded staircase/elevator rows check the application ledger
(``prior + new == cold``) — two fair schedules of a non-terminating
chase share no final instance to compare.

Archived tables (``benchmarks/results/``):

* ``perf_snapshots.json`` — the combined gate table (committed baseline
  in ``benchmarks/baselines/``; the CI ``snapshot-gate`` job diffs
  ``incr_seconds`` against it);
* ``perf_snapshots_cold.json`` / ``perf_snapshots_incr.json`` — the
  same rows split per mode for same-machine floor/ceiling compares
  (``--min-speedup`` / ``--max-ratio``).
"""

import tempfile
import time

from repro.kbs.elevator import elevator_kb
from repro.kbs.staircase import staircase_kb
from repro.kbs.witnesses import transitive_closure_kb
from repro.logic.serialization import dump_kb
from repro.service.jobs import JobRequest, execute_job
from repro.service.snapshots import SnapshotStore
from repro.util import Table

from conftest import save_table


def _grown(kb_text: str, extra_fact_lines) -> str:
    return kb_text.replace(
        "[facts]", "[facts]\n" + "\n".join(extra_fact_lines), 1
    )


def _chain_text(length: int) -> str:
    return dump_kb(transitive_closure_kb(length))


#: (workload, base KB text, new fact lines, variant, prefix steps,
#:  request budget, terminating) — the grow-by-k scenarios.
SNAPSHOT_ROWS = (
    (
        "staircase-core",
        dump_kb(staircase_kb()),
        ["f(s1)", "h(s1, s1)"],
        "core",
        36,
        42,
        False,
    ),
    (
        "elevator-core",
        dump_kb(elevator_kb()),
        ["d(z9)"],
        "core",
        25,
        30,
        False,
    ),
    (
        "chain-grow-by-1",
        _chain_text(20),
        ["e(v20, v21)"],
        "restricted",
        600,
        600,
        True,
    ),
    (
        "chain-grow-by-3",
        _chain_text(16),
        ["e(v16, v17)", "e(v17, v18)", "e(v5, v16)"],
        "restricted",
        600,
        600,
        True,
    ),
)


#: Timed repetitions per mode; each row reports the fastest.
REPEATS = 5


def _timed_job(request, store=None):
    started = time.perf_counter()
    result = execute_job(request, store)
    seconds = time.perf_counter() - started
    assert result.ok, result.error
    return seconds, result


def _best(timings):
    """The fastest of ``(seconds, result)`` pairs."""
    return min(timings, key=lambda pair: pair[0])


def bench_perf_snapshots_table():
    """Archive the cold/warm/incremental timing tables."""
    combined = Table(
        [
            "workload",
            "variant",
            "max_steps",
            "cold_apps",
            "incr_apps",
            "cold_seconds",
            "incr_seconds",
            "warm_seconds",
            "incr_speedup",
        ],
        title="perf: snapshots, cold vs exact-warm vs ancestor-incremental",
    )
    cold_table = Table(
        ["workload", "variant", "max_steps", "seconds"],
        title="perf: snapshot scenarios, cold chase",
    )
    incr_table = Table(
        ["workload", "variant", "max_steps", "seconds"],
        title="perf: snapshot scenarios, ancestor-incremental resume",
    )

    for (
        workload,
        base_text,
        extra,
        variant,
        prefix_steps,
        budget,
        terminating,
    ) in SNAPSHOT_ROWS:
        grown_text = _grown(base_text, extra)
        base_request = JobRequest(
            op="chase",
            kb_text=base_text,
            variant=variant,
            max_steps=prefix_steps,
        )
        grown_request = JobRequest(
            op="chase",
            kb_text=grown_text,
            variant=variant,
            max_steps=budget,
        )
        colds = [_timed_job(grown_request) for _ in range(REPEATS)]
        incrs, warms = [], []
        for _ in range(REPEATS):
            with tempfile.TemporaryDirectory(prefix="repro-bench-snap-") as scratch:
                store = SnapshotStore(scratch)
                _timed_job(base_request, store)
                incrs.append(_timed_job(grown_request, store))
                warms.append(_timed_job(grown_request, store))
        cold_seconds, cold = _best(colds)
        incr_seconds, incr = _best(incrs)
        warm_seconds, warm = _best(warms)

        for _seconds, each in incrs:
            assert each.ancestor, f"{workload}: grown job did not ancestor-resume"
            assert each.instance == incr.instance
        for _seconds, each in warms:
            assert each.warm and each.applications == 0, (
                f"{workload}: repeat grown job did not exact-warm-hit"
            )
        assert incr.applications < cold.applications
        assert warm.instance == incr.instance
        if terminating:
            # the fixpoint is unique: incremental must equal cold exactly
            assert incr.terminated and cold.terminated
            assert incr.instance == cold.instance, (
                f"{workload}: incremental fixpoint differs from cold"
            )
        else:
            # budget-bounded rows: the application ledger must add up —
            # the resumed prefix plus the new work is the request budget,
            # exactly what the cold run paid.  (Terminating multi-edge
            # growths may take a different application count to the same
            # fixpoint: trigger-satisfaction order is schedule-dependent.)
            assert incr.total_applications == cold.total_applications

        combined.add_row(
            workload,
            variant,
            budget,
            cold.applications,
            incr.applications,
            round(cold_seconds, 4),
            round(incr_seconds, 4),
            round(warm_seconds, 4),
            round(cold_seconds / max(incr_seconds, 1e-9), 1),
        )
        cold_table.add_row(workload, variant, budget, round(cold_seconds, 4))
        incr_table.add_row(workload, variant, budget, round(incr_seconds, 4))

    save_table(
        "perf_snapshots",
        combined,
        "incremental rows resume the base KB's snapshot plus the grown "
        "facts; chain rows additionally assert the incremental fixpoint "
        "equals the cold one atom-for-atom.",
    )
    save_table("perf_snapshots_cold", cold_table)
    save_table("perf_snapshots_incr", incr_table)
