"""P1c — engine performance: chase throughput by variant.

Applications per second across the four variants on terminating and
diverging workloads; the core variant pays per-step core computation,
the restricted variant pays satisfaction checks, the oblivious variants
pay almost nothing — the classical trade-off from the introduction.

``bench_perf_chase_table`` additionally archives a machine-readable
timing table (``results/perf_chase.json``) that the CI perf gate diffs
against the committed baseline (``baselines/perf_chase.json``) with
``compare_results.py``.  ``REPRO_ENGINE=naive|compiled`` selects the
engine path to time (default: compiled, the full engine; the legacy
``REPRO_NAIVE=1`` still means naive) and suffixes the results files
accordingly — the committed ``perf_chase.json`` baseline is a
naive-path table, ``perf_chase_compiled.json`` the per-engine one the
compiled CI gate's drift check uses; see docs/PERFORMANCE.md.
"""

import time

import pytest

from repro.chase.engine import ChaseVariant, run_chase
from repro.kbs.elevator import elevator_kb
from repro.kbs.generators import layered_kb
from repro.kbs.staircase import staircase_kb
from repro.kbs.witnesses import bts_not_fes_kb, transitive_closure_kb
from repro.util import Table

from conftest import current_engine, engine_scope, quiesced_gc, save_table


@pytest.mark.parametrize("variant", ChaseVariant.ALL)
def bench_terminating_datalog(benchmark, variant):
    """Transitive closure of a 5-chain under each variant."""
    kb = transitive_closure_kb(5)
    result = benchmark(lambda: run_chase(kb, variant=variant, max_steps=300))
    assert result.terminated


@pytest.mark.parametrize("variant", [ChaseVariant.RESTRICTED, ChaseVariant.CORE])
def bench_diverging_chain(benchmark, variant):
    """20 applications on the infinite-chain KB."""
    kb = bts_not_fes_kb()
    result = benchmark(lambda: run_chase(kb, variant=variant, max_steps=20))
    assert result.applications == 20


def bench_layered_existentials(benchmark):
    """A 5-layer existential cascade (weakly acyclic, terminating)."""
    kb = layered_kb(5)
    result = benchmark(lambda: run_chase(kb, variant=ChaseVariant.RESTRICTED, max_steps=100))
    assert result.terminated


def bench_staircase_core_chase_short(benchmark):
    """The headline workload: 12 core-chase applications on K_h
    (each step folds a freshly grown staircase fragment)."""
    kb = staircase_kb()
    result = benchmark.pedantic(
        lambda: run_chase(kb, variant=ChaseVariant.CORE, max_steps=12),
        rounds=2,
        iterations=1,
    )
    assert result.applications == 12


# ---------------------------------------------------------------------------
# the perf-gate timing table
# ---------------------------------------------------------------------------

#: (workload, kb factory, variant, step budget) — the gate's row set.
#: The staircase/elevator core rows are the paper's deep-retraction
#: workloads and the ones the compiled engine must keep fast.
PERF_CHASE_ROWS = (
    ("staircase", staircase_kb, ChaseVariant.CORE, 45),
    ("staircase", staircase_kb, ChaseVariant.RESTRICTED, 45),
    ("elevator", elevator_kb, ChaseVariant.CORE, 35),
    ("elevator", elevator_kb, ChaseVariant.RESTRICTED, 30),
    ("layered-6x2", lambda: layered_kb(6, fanout=2), ChaseVariant.RESTRICTED, 200),
    ("transitive-5", lambda: transitive_closure_kb(5), ChaseVariant.CORE, 300),
)


def _timed_chase(make_kb, variant, steps, repeats=3):
    """Best-of-*repeats* wall time."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        kb = make_kb()
        with quiesced_gc():
            started = time.perf_counter()
            result = run_chase(kb, variant=variant, max_steps=steps)
            best = min(best, time.perf_counter() - started)
    return best, result


def bench_perf_chase_table():
    """Archive the timing table the CI perf gate compares (one row per
    workload x variant; metric column: ``seconds``)."""
    engine = current_engine()
    table = Table(
        ["workload", "variant", "steps", "applications", "seconds", "apps_per_sec"],
        title=f"perf: chase wall time per workload ({engine} engine)",
    )
    with engine_scope(engine):
        for workload, make_kb, variant, steps in PERF_CHASE_ROWS:
            seconds, result = _timed_chase(make_kb, variant, steps)
            table.add_row(
                workload,
                variant,
                steps,
                result.applications,
                round(seconds, 4),
                round(result.applications / max(seconds, 1e-9), 1),
            )
    extra = f"engine path: {engine} (REPRO_ENGINE); best of 3."
    save_table("perf_chase", table, extra)
