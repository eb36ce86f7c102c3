"""P1b — engine performance: core computation.

The core chase's per-step cost is dominated by core retraction; these
benches measure it on the canonical foldable/rigid families and on the
paper's own structures.

``bench_perf_cores_table`` additionally archives the core-chase gate
table (``results/perf_cores.json``) the CI perf gate diffs against the
committed baseline (``baselines/perf_cores.json``).  Its rows carry the
run's exactness counts (applications, retractions, atoms out) as
integer identity fields, so the incremental core maintainer can only
pass the gate by being *fast and bit-identical in behaviour*: a count
drift surfaces as semantic drift in ``compare_results.py``, not as a
timing change.  ``REPRO_ENGINE=naive|compiled`` selects the
engine path to time (default: compiled; the legacy ``REPRO_NAIVE=1``
still selects naive, the committed baseline's path); see
docs/PERFORMANCE.md.
"""

import time

import pytest

from repro.chase.engine import ChaseVariant, run_chase
from repro.kbs.elevator import elevator_kb
from repro.kbs.generators import path_with_shortcut, star_instance
from repro.kbs.staircase import staircase_kb
from repro.kbs.staircase import step as staircase_step
from repro.kbs.witnesses import transitive_closure_kb
from repro.logic.cores import core_of, core_retraction, is_core
from repro.util import Table

from conftest import current_engine, engine_scope, quiesced_gc, save_table


@pytest.mark.parametrize("rays", [6, 18])
def bench_core_of_star(benchmark, rays):
    """Maximally foldable: all rays collapse onto one."""
    atoms = star_instance(rays)
    core = benchmark(lambda: core_of(atoms))
    assert len(core) == 1


@pytest.mark.parametrize("length", [4, 8])
def bench_core_of_parallel_paths(benchmark, length):
    """The null path folds onto the constant path edge by edge."""
    atoms = path_with_shortcut(length)
    core = benchmark(lambda: core_of(atoms))
    assert len(core) == length


def bench_is_core_positive(benchmark):
    """Certifying core-ness requires exhausting the search — the
    expensive direction."""
    atoms = staircase_step(2)
    from repro.kbs.staircase import column

    target = column(3)
    assert benchmark(lambda: is_core(target))


def bench_core_retraction_staircase_step(benchmark):
    """The actual operation of the K_h core chase: fold a step S^h_k onto
    its core column C^h_{k+1}."""
    atoms = staircase_step(3)
    retraction = benchmark(lambda: core_retraction(atoms))
    assert retraction.apply(atoms) != atoms or len(retraction) == 0


# ---------------------------------------------------------------------------
# the core-chase perf-gate timing table
# ---------------------------------------------------------------------------

#: (workload, kb factory, step budget) — every row is a CORE-variant run.
#: The elevator row is the fig4 workload the incremental maintainer must
#: keep >=3x faster than the committed naive baseline.
PERF_CORES_ROWS = (
    ("fig4-elevator", elevator_kb, 35),
    ("staircase", staircase_kb, 45),
    ("transitive-5", lambda: transitive_closure_kb(5), 300),
)


def _timed_core_chase(make_kb, steps, repeats=3):
    """Best-of-*repeats* wall time."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        kb = make_kb()
        with quiesced_gc():
            started = time.perf_counter()
            result = run_chase(kb, variant=ChaseVariant.CORE, max_steps=steps)
            best = min(best, time.perf_counter() - started)
    return best, result


def bench_perf_cores_table():
    """Archive the core-chase gate table (one row per workload; metric
    column: ``seconds``; every other column is a row-identity field)."""
    engine = current_engine()
    table = Table(
        ["workload", "steps", "applications", "retractions", "atoms_out", "seconds"],
        title=f"perf: core-chase wall time and exactness counts ({engine} engine)",
    )
    with engine_scope(engine):
        for workload, make_kb, steps in PERF_CORES_ROWS:
            seconds, result = _timed_core_chase(make_kb, steps)
            table.add_row(
                workload,
                steps,
                result.applications,
                result.retractions,
                len(result.final_instance),
                round(seconds, 4),
            )
    extra = (
        f"engine path: {engine} (REPRO_ENGINE); best of 3.  The count "
        "columns are identity fields: a drift fails the gate as semantic "
        "drift, independent of timing."
    )
    save_table("perf_cores", table, extra)
