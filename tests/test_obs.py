"""Tests for the observability layer (repro.obs) and its hooks.

The load-bearing guarantees:

* telemetry is *passive* — a traced run produces exactly the same final
  instance, atom for atom, as an untraced one;
* the trace is *complete* — one ``core_retraction`` event per core
  simplification step, per-step retraction sizes reconstructible;
* off is *free* — no observer, no accounting (and the global observer
  is always restored).
"""

from __future__ import annotations

import io
import json

import pytest

from repro import core_chase, run_chase
from repro.chase.engine import ChaseEngine, ChaseVariant
from repro.kbs.elevator import elevator_kb
from repro.kbs.witnesses import transitive_closure_kb
from repro.logic.cores import core_retraction
from repro.logic.homomorphism import find_homomorphism
from repro.logic.parser import parse_atoms
from repro.logic.atomset import AtomSet
from repro.obs import (
    JsonlTracer,
    MetricsObserver,
    MetricsRegistry,
    Observer,
    TracingObserver,
    get_observer,
    observing,
    read_trace,
    set_observer,
)
from repro.obs.stats import render_summary, retraction_series, summarize_trace
from repro.treewidth import SearchBudgetExceeded, treewidth_exact
from repro.treewidth.graph import Graph


def traced_run(kb, variant=ChaseVariant.CORE, max_steps=12):
    """Run a chase with a TracingObserver; return (result, events)."""
    buf = io.StringIO()
    with observing(TracingObserver(JsonlTracer(buf))):
        result = run_chase(kb, variant=variant, max_steps=max_steps)
    return result, read_trace(io.StringIO(buf.getvalue()))


class TestMetricsRegistry:
    def test_counter_gauge_timer_histogram(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(4)
        reg.gauge("g").set(7)
        reg.timer("t").record(0.5)
        reg.timer("t").record(1.5)
        reg.histogram("h").observe(3)
        snap = reg.snapshot()
        assert snap["c"]["value"] == 5
        assert snap["g"]["value"] == 7
        assert snap["t"]["count"] == 2
        assert snap["t"]["mean"] == pytest.approx(1.0)
        assert snap["h"]["count"] == 1
        assert sum(snap["h"]["buckets"]) == 1

    def test_timer_context_manager(self):
        reg = MetricsRegistry()
        with reg.timer("t"):
            pass
        assert reg.snapshot()["t"]["count"] == 1

    def test_same_instrument_returned(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_kind_clash_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_empty_registry_is_falsy_but_usable(self):
        # regression guard: TracingObserver must not drop an empty
        # registry just because it is falsy
        reg = MetricsRegistry()
        assert not reg
        obs = TracingObserver(JsonlTracer(io.StringIO()), registry=reg)
        assert obs.registry is reg

    def test_snapshot_is_json_serializable(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.histogram("b").observe(1)
        json.dumps(reg.snapshot())


class TestTracer:
    def test_jsonl_well_formed(self):
        buf = io.StringIO()
        tracer = JsonlTracer(buf)
        tracer.emit("chase_step_started", step=1, variant="core", atoms=3)
        tracer.emit("trigger_selected", step=1, rule="R", active=2)
        events = read_trace(io.StringIO(buf.getvalue()))
        assert [e["kind"] for e in events] == [
            "chase_step_started",
            "trigger_selected",
        ]
        assert events[0]["seq"] == 0 and events[1]["seq"] == 1
        assert all("t" in e for e in events)

    def test_torn_final_line_dropped(self):
        lines = ['{"seq":0,"kind":"chase_step_started","step":1}', '{"seq":1,"ki']
        events = read_trace(lines)
        assert len(events) == 1

    def test_malformed_interior_line_raises(self):
        lines = ["not json", '{"seq":1,"kind":"x"}']
        with pytest.raises(json.JSONDecodeError):
            read_trace(lines)


class TestObserverPlumbing:
    def test_global_observer_set_and_restored(self):
        marker = Observer()
        assert get_observer() is None
        with observing(marker):
            assert get_observer() is marker
        assert get_observer() is None

    def test_observing_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with observing(Observer()):
                raise RuntimeError("boom")
        assert get_observer() is None

    def test_set_observer_returns_previous(self):
        first = Observer()
        assert set_observer(first) is None
        try:
            second = Observer()
            assert set_observer(second) is first
        finally:
            set_observer(None)

    def test_engine_accepts_explicit_observer(self):
        reg = MetricsRegistry()
        engine = ChaseEngine(
            transitive_closure_kb(3), observer=MetricsObserver(reg)
        )
        engine.run(max_steps=20)
        assert reg.snapshot()["chase.steps"]["value"] > 0
        # the explicit observer must not leak into the global slot
        assert get_observer() is None


class TestChaseTracing:
    """The ISSUE-1 satellite: tracing must be invisible to the run."""

    def test_elevator_core_chase_identical_with_tracing(self):
        plain = core_chase(elevator_kb(), max_steps=12)
        traced, events = traced_run(elevator_kb(), max_steps=12)
        assert plain.final_instance == traced.final_instance
        plain_atoms = sorted(map(str, plain.final_instance.sorted_atoms()))
        traced_atoms = sorted(map(str, traced.final_instance.sorted_atoms()))
        assert plain_atoms == traced_atoms

    def test_one_retraction_event_per_core_simplification_step(self):
        traced, events = traced_run(elevator_kb(), max_steps=12)
        core_events = [e for e in events if e["kind"] == "core_retraction"]
        # one per application plus the initial simplification of the facts
        assert len(core_events) == traced.applications + 1

    def test_step_events_reconstruct_instance_sizes(self):
        traced, events = traced_run(elevator_kb(), max_steps=12)
        series = retraction_series(events)
        recorded = {
            step.index: len(step.instance)
            for step in traced.derivation.steps
            if step.index > 0
        }
        assert {row["step"]: row["atoms"] for row in series} == recorded
        for row in series:
            assert row["retracted"] == row["atoms_applied"] - row["atoms"]

    def test_chase_result_retraction_accounting(self):
        # The staircase core chase retracts (folds the grown grid back);
        # the per-step events must agree with the ChaseResult totals.
        from repro.kbs.staircase import staircase_kb

        traced, events = traced_run(staircase_kb(), max_steps=12)
        series = retraction_series(events)
        assert traced.retractions >= 1
        assert traced.atoms_retracted == sum(r["retracted"] for r in series)

    def test_trigger_events_present(self):
        _, events = traced_run(transitive_closure_kb(3), max_steps=20)
        kinds = {e["kind"] for e in events}
        assert "trigger_selected" in kinds
        assert "trigger_retired" in kinds
        selected = [e for e in events if e["kind"] == "trigger_selected"]
        assert all(e["active"] >= 1 for e in selected)

    def test_homomorphism_events_carry_backtracks(self):
        _, events = traced_run(elevator_kb(), max_steps=8)
        hom = [e for e in events if e["kind"] == "homomorphism_search"]
        assert hom, "core chase must emit homomorphism_search events"
        assert all(e["backtracks"] >= 0 for e in hom)
        assert any(e["found"] for e in hom)

    def test_robust_steps_traced(self):
        from repro.chase.aggregation import RobustSequence
        from repro.kbs.staircase import staircase_kb

        result = core_chase(staircase_kb(), max_steps=8)
        buf = io.StringIO()
        with observing(TracingObserver(JsonlTracer(buf))):
            RobustSequence(result.derivation)
        events = read_trace(io.StringIO(buf.getvalue()))
        robust = [e for e in events if e["kind"] == "robust_step"]
        assert len(robust) == len(result.derivation.steps)


class TestDirectHookSites:
    def test_core_retraction_event_payload(self):
        atoms = AtomSet(parse_atoms("p(X, Y), p(X, Z), q(Z)"))
        reg = MetricsRegistry()
        buf = io.StringIO()
        with observing(TracingObserver(JsonlTracer(buf), registry=reg)):
            core_retraction(atoms)
        events = [
            e
            for e in read_trace(io.StringIO(buf.getvalue()))
            if e["kind"] == "core_retraction"
        ]
        assert len(events) == 1
        event = events[0]
        assert event["atoms_before"] == 3
        assert event["atoms_after"] < event["atoms_before"]
        assert event["variables_folded"] >= 1
        assert reg.snapshot()["core.retractions"]["value"] == 1

    def test_find_homomorphism_same_answer_traced(self):
        source = AtomSet(parse_atoms("e(X, Y), e(Y, Z)"))
        target = AtomSet(parse_atoms("e(a, b), e(b, c)"))
        plain = find_homomorphism(source, target)
        with observing(TracingObserver(JsonlTracer(io.StringIO()))):
            traced = find_homomorphism(source, target)
        assert plain == traced

    def test_treewidth_search_events(self):
        from repro.treewidth import has_width_at_most

        graph = Graph()
        for i in range(4):
            for j in range(i + 1, 4):
                graph.add_edge(i, j)  # K4: treewidth 3
        reg = MetricsRegistry()
        with observing(MetricsObserver(reg)):
            assert not has_width_at_most(graph, 2)
            assert has_width_at_most(graph, 3)
        snap = reg.snapshot()
        assert snap["tw.searches"]["value"] == 2
        assert snap["tw.budget_consumed"]["value"] >= 2


class TestSearchBudgetExceededDiagnostics:
    def test_message_includes_budget_and_bounds(self):
        graph = Graph()
        # a 4x4 grid is just hard enough to exhaust a 2-state budget
        for x in range(4):
            for y in range(4):
                if x + 1 < 4:
                    graph.add_edge((x, y), (x + 1, y))
                if y + 1 < 4:
                    graph.add_edge((x, y), (x, y + 1))
        with pytest.raises(SearchBudgetExceeded) as excinfo:
            treewidth_exact(graph, state_budget=2)
        exc = excinfo.value
        message = str(exc)
        assert "2 states consumed" in message
        assert "best bounds so far" in message
        assert exc.consumed == 2
        assert exc.k is not None
        assert exc.lower is not None and exc.upper is not None
        assert exc.lower <= exc.upper

    def test_bracket_is_sound(self):
        graph = Graph()
        for x in range(4):
            for y in range(4):
                if x + 1 < 4:
                    graph.add_edge((x, y), (x + 1, y))
                if y + 1 < 4:
                    graph.add_edge((x, y), (x, y + 1))
        true_width = treewidth_exact(graph)
        with pytest.raises(SearchBudgetExceeded) as excinfo:
            treewidth_exact(graph, state_budget=1)
        assert excinfo.value.lower <= true_width <= excinfo.value.upper


class TestStats:
    def test_summarize_and_render(self):
        traced, events = traced_run(elevator_kb(), max_steps=10)
        summary = summarize_trace(events)
        assert summary["chase"]["steps"] == traced.applications
        assert summary["core"]["calls"] == traced.applications + 1
        assert summary["homomorphism"]["searches"] > 0
        rendered = render_summary(summary, step_stride=5)
        assert "Trace events" in rendered
        assert "Chase steps" in rendered
        assert "Totals" in rendered

    def test_summary_is_json_serializable(self):
        _, events = traced_run(transitive_closure_kb(3), max_steps=10)
        json.dumps(summarize_trace(events))

    def test_supervision_events_aggregated_and_rendered(self):
        events = [
            {"kind": "service_request", "op": "entail", "coalesced": False},
            {
                "kind": "service_retry",
                "op": "entail",
                "attempt": 1,
                "delay": 0.05,
                "error": "OSError: pipe",
            },
            {"kind": "service_pool_rebuild", "pending": 3},
            {
                "kind": "service_job",
                "op": "entail",
                "ok": True,
                "warm": True,
                "incomplete": False,
                "deadline_expired": False,
                "applications": 0,
                "seconds": 0.1,
            },
            {"kind": "snapshot_access", "op": "evict", "hit": False},
        ]
        summary = summarize_trace(events)
        service = summary["service"]
        assert service["retries"] == 1
        assert service["pool_rebuilds"] == 1
        assert service["snapshot_evicted"] == 1
        rendered = render_summary(summary)
        assert "retries" in rendered
        assert "pool rebuilds" in rendered
        assert "snapshots evicted (LRU)" in rendered

    def test_events_off_the_table_are_counted_not_totalled(self):
        # An unknown kind and two events that lack a required field of a
        # kind no total reads: none is replayed through a metric update.
        events = [
            {"kind": "hom_memo_lookup", "hit": True},
            {"kind": "trigger_selected", "step": 1, "rule": "R"},
            {"kind": "span_close", "name": "chase", "trace_id": "a" * 16,
             "span_id": "b" * 16},
            {"kind": "chase_step_finished", "step": 1, "rule": "R",
             "atoms_before": 1, "atoms_applied": 3, "atoms_after": 2,
             "retracted": 1},
        ]
        summary = summarize_trace(events)
        assert summary["events"] == 4
        assert summary["counts"] == {
            "hom_memo_lookup": 1,
            "trigger_selected": 1,
            "span_close": 1,
            "chase_step_finished": 1,
        }
        assert summary["chase"]["steps"] == summary["chase"]["retractions"] == 1
        assert summary["homomorphism"]["searches"] == 0
        rendered = render_summary(summary)
        assert "hom_memo_lookup" in rendered and "Totals" in rendered
