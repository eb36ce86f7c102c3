"""P1a — engine performance: homomorphism search.

Scaling of the backtracking search (the library's single semantic
primitive) across the shapes that dominate the experiments: body-sized
patterns into growing instances, endomorphism checks on dense instances,
and the all-solutions iterator.

``bench_perf_homomorphism_table`` additionally archives a
machine-readable timing table (``results/perf_homomorphism.json``) for
the CI perf gate; ``REPRO_ENGINE=naive|compiled`` selects the
search path to time (default: compiled; ``REPRO_NAIVE=1`` is a legacy
alias for naive, the committed baseline's path) — see
docs/PERFORMANCE.md.
"""

import time

import pytest

from repro.kbs.elevator import elevator_kb
from repro.kbs.generators import grid_instance, path_instance, random_instance
from repro.kbs.staircase import universal_model_window
from repro.logic.homomorphism import (
    count_homomorphisms,
    find_homomorphism,
    maps_into,
)
from repro.logic.parser import parse_atoms
from repro.util import Table

from conftest import current_engine, engine_scope, quiesced_gc, save_table


@pytest.mark.parametrize("length", [20, 80])
def bench_body_into_path(benchmark, length):
    """Rule-body-sized pattern matched into a growing path instance."""
    body = parse_atoms("e(X, Y), e(Y, Z), e(Z, W)")
    target = path_instance(length)
    result = benchmark(lambda: find_homomorphism(body, target))
    assert result is not None


@pytest.mark.parametrize("n", [4, 6])
def bench_pattern_into_grid(benchmark, n):
    """2x2 grid pattern into an n×n grid (join-heavy search)."""
    pattern = parse_atoms("h(A, B), v(A, C), h(C, D), v(B, D)")
    target = grid_instance(n)
    result = benchmark(lambda: find_homomorphism(pattern, target))
    assert result is not None


def bench_endomorphism_check_staircase(benchmark):
    """Self-homomorphism of an I^h window — the inner loop of the core
    computation."""
    window = universal_model_window(4)
    assert benchmark(lambda: maps_into(window, window))


def bench_count_all_homomorphisms(benchmark):
    """All-solutions enumeration (CQ answer counting)."""
    body = parse_atoms("e(X, Y), e(Y, Z)")
    target = path_instance(40)
    count = benchmark(lambda: count_homomorphisms(body, target))
    assert count == 39  # a 40-edge path has 39 two-edge sub-walks


def bench_failure_detection_random(benchmark):
    """Fast failure: a pattern with an absent predicate must be rejected
    without search."""
    pattern = parse_atoms("missing(X, Y)")
    target = random_instance(150, 40, seed=3)
    result = benchmark(lambda: find_homomorphism(pattern, target))
    assert result is None


# ---------------------------------------------------------------------------
# the perf-gate timing table
# ---------------------------------------------------------------------------


def _search_rows():
    """(name, iterations, thunk) rows for the gate table.  Thunks are
    deterministic; iteration counts keep each row in the millisecond
    range so the 2x gate threshold clears the timer noise floor."""
    body_path = parse_atoms("e(X, Y), e(Y, Z), e(Z, W)")
    path80 = path_instance(80)
    grid_pattern = parse_atoms("h(A, B), v(A, C), h(C, D), v(B, D)")
    grid6 = grid_instance(6)
    window4 = universal_model_window(4)
    two_step = parse_atoms("e(X, Y), e(Y, Z)")
    path40 = path_instance(40)
    elevator_facts = elevator_kb().facts
    two_cycle = parse_atoms("e(X, Y), e(Y, X)")
    path60 = path_instance(60)
    return (
        ("body_into_path_80", 200, lambda: find_homomorphism(body_path, path80)),
        ("pattern_into_grid_6", 50, lambda: find_homomorphism(grid_pattern, grid6)),
        ("endomorphism_staircase_w4", 20, lambda: maps_into(window4, window4)),
        ("endomorphism_elevator_facts", 50, lambda: maps_into(elevator_facts, elevator_facts)),
        ("count_homs_path_40", 50, lambda: count_homomorphisms(two_step, path40)),
        ("failure_no_cycle_path_60", 100, lambda: find_homomorphism(two_cycle, path60)),
    )


def bench_perf_homomorphism_table():
    """Archive the homomorphism-search timing table for the CI perf gate
    (metric column: ``seconds`` — the wall time of the whole iteration
    loop)."""
    engine = current_engine()
    table = Table(
        ["search", "iterations", "seconds", "per_call_us"],
        title=f"perf: homomorphism search wall time ({engine} engine)",
    )
    with engine_scope(engine):
        for name, iterations, thunk in _search_rows():
            thunk()  # warm allocation paths outside the timed loop
            with quiesced_gc():
                started = time.perf_counter()
                for _ in range(iterations):
                    thunk()
                seconds = time.perf_counter() - started
            table.add_row(
                name,
                iterations,
                round(seconds, 4),
                round(seconds / iterations * 1e6, 1),
            )
    extra = f"search path: {engine} (REPRO_ENGINE)."
    save_table("perf_homomorphism", table, extra)
