"""Perf table for planner-routed serving vs. one global chase config.

A mixed fleet of knowledge bases — datalog closure, weakly acyclic
existential layers, guarded/linear infinite-chase witnesses, and the
steepening staircase — is answered twice per query:

* **baseline** — the single conservative global config an operator
  without the analyzer would deploy fleet-wide (``core`` chase, core
  cadence 1, 200 steps, countermodel budget 6): sound everywhere, but
  it pays the core-retraction tax on every terminating workload;
* **planner** — ``JobRequest(planner=True)``: the analyzer classifies
  each ruleset once (verdicts cached by ruleset fingerprint in the
  process-wide planner), and the strategy ladder routes each job to the
  cheapest sound configuration.

The planner side is charged its full cost: the first job per ruleset
pays the ruleset analysis, later jobs hit the verdict cache.  Every row
asserts the two modes return the **identical entailment answer** (the
planner must never trade soundness for speed), and the table asserts
the fleet-aggregate wall-clock speedup stays above
:data:`MIN_FLEET_SPEEDUP` — the headline claim that routed serving
beats any single global config on a heterogeneous fleet.

``bench_perf_analyze_table`` archives ``results/perf_analyze.json``;
the CI ``analyzer-gate`` job diffs it against the committed baseline
with ``compare_results.py`` (strategy names, entailment answers, and
application counts form row identity, so a routing or semantics drift
fails the gate even when timings pass).
"""

import time

from repro.kbs.generators import layered_kb
from repro.kbs.staircase import staircase_kb
from repro.kbs.witnesses import (
    guarded_chain_kb,
    manager_kb,
    transitive_closure_kb,
)
from repro.logic.serialization import dump_kb
from repro.service.jobs import JobRequest, execute_job
from repro.analysis.planner import default_planner
from repro.util import Table

from conftest import save_table

#: The one-size-fits-all config the planner competes against.
GLOBAL_CONFIG = dict(variant="core", core_every=1, max_steps=200, model_budget=6)

#: Fleet-aggregate wall-clock floor: planner-routed serving must finish
#: the whole fleet at least this many times faster than the global
#: config.  Asserted in-bench so the table is self-gating even without
#: the CI diff.
MIN_FLEET_SPEEDUP = 1.5

#: (workload, kb factory, query, strategy the planner must pick).
#: Repeated rulesets are deliberate — later rows per ruleset hit the
#: verdict cache, amortising the ruleset analysis exactly as a serving
#: fleet would.  Staircase rows use entailed-only queries: on a
#: non-entailed staircase query the two modes would answer through
#: different machinery (core fixpoint vs. countermodel search), and
#: this table only compares configurations that agree by construction.
FLEET_ROWS = (
    ("transitive-9", lambda: transitive_closure_kb(9), "e(v0, v8)", "terminating-fast"),
    ("transitive-9", lambda: transitive_closure_kb(9), "e(v8, v0)", "terminating-fast"),
    ("layered-6x2", lambda: layered_kb(6, fanout=2), "l6(X)", "rewrite-first"),
    ("layered-6x2", lambda: layered_kb(6, fanout=2), "nosuch(X)", "rewrite-first"),
    ("guarded-chain", guarded_chain_kb, "q(X, Y)", "rewrite-first"),
    ("managers", manager_kb, "mgr(ann, Y)", "rewrite-first"),
    ("managers", manager_kb, "emp(X)", "rewrite-first"),
    ("staircase", staircase_kb, "v(X, Y)", "frontier-race"),
    ("staircase", staircase_kb, "v(X, Y), v(Y, Z)", "frontier-race"),
)


def _timed_job(request):
    started = time.perf_counter()
    result = execute_job(request, None)
    seconds = time.perf_counter() - started
    assert result.ok, result.error
    return seconds, result


def bench_perf_analyze_table():
    """Archive the planner-routed vs. global-config fleet table."""
    # A cold verdict cache charges the planner side the full analysis
    # cost for the first job of every ruleset (no store is passed).
    default_planner().cache_clear()
    table = Table(
        [
            "workload",
            "query",
            "strategy",
            "entailed",
            "baseline_apps",
            "planner_apps",
            "baseline_seconds",
            "planner_seconds",
            "speedup",
        ],
        title="perf: planner-routed fleet vs one global chase config",
    )
    baseline_total = 0.0
    planner_total = 0.0
    for workload, make_kb, query, expected_strategy in FLEET_ROWS:
        kb_text = dump_kb(make_kb())
        baseline_seconds, baseline = _timed_job(
            JobRequest(op="entail", kb_text=kb_text, query=query, **GLOBAL_CONFIG)
        )
        planner_seconds, routed = _timed_job(
            JobRequest(op="entail", kb_text=kb_text, query=query, planner=True)
        )
        assert routed.strategy == expected_strategy, (
            f"{workload}/{query}: routed to {routed.strategy}, "
            f"expected {expected_strategy}"
        )
        assert routed.entailed == baseline.entailed, (
            f"{workload}/{query}: planner answered {routed.entailed}, "
            f"global config answered {baseline.entailed}"
        )
        baseline_total += baseline_seconds
        planner_total += planner_seconds
        table.add_row(
            workload,
            query,
            routed.strategy,
            baseline.entailed,
            baseline.applications,
            routed.applications,
            round(baseline_seconds, 4),
            round(planner_seconds, 4),
            round(baseline_seconds / max(planner_seconds, 1e-9), 1),
        )
    fleet_speedup = baseline_total / max(planner_total, 1e-9)
    assert fleet_speedup >= MIN_FLEET_SPEEDUP, (
        f"planner-routed fleet only {fleet_speedup:.2f}x faster than the "
        f"global config (floor: {MIN_FLEET_SPEEDUP}x)"
    )
    save_table(
        "perf_analyze",
        table,
        f"fleet aggregate: baseline {baseline_total:.3f}s vs planner-routed "
        f"{planner_total:.3f}s ({fleet_speedup:.1f}x; in-bench floor "
        f"{MIN_FLEET_SPEEDUP}x).  Planner timings include the ruleset "
        "analysis for the first job of each ruleset; identical entailment "
        "answers per row are asserted, not assumed.",
    )
