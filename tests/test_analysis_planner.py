"""Tests for the analysis planner subsystem: the linear-fragment
termination decider and the verdict → strategy planner (cache tiers,
observability events, routing from the rules alone, and the service
integration)."""

import time

import pytest

from repro.analysis import (
    STRATEGY_NAMES,
    Planner,
    Strategy,
    Verdict,
    default_planner,
    is_linear,
    linear_chase_terminates,
    plan,
    ruleset_fingerprint,
)
from repro.chase.engine import ChaseVariant
from repro.kbs.generators import random_kb
from repro.kbs.witnesses import manager_kb, transitive_closure_kb
from repro.logic.kb import KnowledgeBase
from repro.logic.parser import parse_atoms, parse_rule
from repro.logic.rules import RuleSet
from repro.logic.serialization import dump_kb
from repro.obs import MetricsObserver, MetricsRegistry, observing
from repro.service.jobs import JobRequest, JobResult, execute_job
from repro.service.snapshots import SnapshotStore


def rules_of(*texts):
    return RuleSet(parse_rule(text, name=f"r{i}") for i, text in enumerate(texts))


def kb_of(facts_text, *rule_texts):
    return KnowledgeBase(parse_atoms(facts_text), rules_of(*rule_texts))


# ---------------------------------------------------------------------------
# linear-fragment termination decider
# ---------------------------------------------------------------------------


class TestLinearTermination:
    def test_self_refreshing_loop_diverges(self):
        rules = rules_of("p(X) -> p(Z)")
        assert is_linear(rules)
        assert linear_chase_terminates(rules) is False

    def test_terminating_chain(self):
        rules = rules_of("p(X) -> q(X, Z)", "q(X, Y) -> r(Y)")
        assert linear_chase_terminates(rules) is True

    def test_dead_null_cycle_terminates(self):
        # The fresh null dies at the next edge: p over the critical
        # constant is a duplicate, so the naive "generative edge in an
        # SCC" criterion would wrongly flag this as diverging.
        rules = rules_of("p(X) -> r(X, Z)", "r(X, Y) -> p(X)")
        assert linear_chase_terminates(rules) is True

    def test_alternating_refresh_diverges(self):
        rules = rules_of("p(X) -> q(X, Z)", "q(X, Y) -> p(Y)")
        assert linear_chase_terminates(rules) is False

    def test_non_linear_is_undecided(self):
        rules = rules_of("e(X, Y), e(Y, Z) -> e(X, Z)")
        assert not is_linear(rules)
        assert linear_chase_terminates(rules) is None

    def test_manager_ruleset_diverges(self):
        rules = manager_kb().rules
        assert is_linear(rules)
        assert linear_chase_terminates(rules) is False

    def test_shape_budget_exhaustion_is_undecided(self):
        rules = rules_of("p(X) -> q(X, Z)", "q(X, Y) -> p(Y)")
        assert linear_chase_terminates(rules, max_shapes=1) is None


# ---------------------------------------------------------------------------
# Verdict / Strategy plumbing
# ---------------------------------------------------------------------------


def make_verdict(**overrides):
    base = dict(
        rules_fingerprint="f" * 64,
        rule_count=1,
        weakly_acyclic=False,
        rule_acyclic=False,
        guarded=False,
        frontier_guarded=False,
        sticky=False,
        linear=False,
    )
    base.update(overrides)
    return Verdict(**base)


class TestVerdictStrategy:
    def test_strategy_round_trip(self):
        strategy = plan(make_verdict(guarded=True))
        assert Strategy.from_obj(strategy.to_obj()) == strategy

    def test_strategy_override_defaults_name(self):
        strategy = Strategy.from_obj(
            {"variant": "core", "core_every": 2, "max_steps": 50, "model_budget": 0}
        )
        assert strategy.name == "override"

    def test_strategy_override_rejects_missing_fields(self):
        with pytest.raises(ValueError):
            Strategy.from_obj({"variant": "core"})

    def test_strategy_override_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            Strategy.from_obj(
                {"variant": "turbo", "core_every": 1, "max_steps": 1, "model_budget": 0}
            )

    def test_plan_ladder(self):
        assert plan(make_verdict(weakly_acyclic=True)).name == "terminating-fast"
        assert plan(make_verdict(sticky=True)).name == "bts-core"
        assert plan(make_verdict()).name == "frontier-race"

    def test_plan_rewritable_verdicts_route_rewrite_first(self):
        # Rewritable (linear/guarded) verdicts wrap their chase rung as
        # rewrite-first; the fallback budgets are the rung's own.
        linear = plan(make_verdict(linear=True, linear_terminating=True))
        assert linear.name == "rewrite-first"
        assert linear.rewrite
        assert linear.max_steps == 1000  # terminating-fast fallback
        guarded = plan(make_verdict(guarded=True))
        assert guarded.name == "rewrite-first"
        assert guarded.rewrite
        assert guarded.model_budget == 6  # bts-core fallback
        assert not plan(make_verdict(sticky=True)).rewrite

    def test_plan_names_are_closed(self):
        for verdict in (
            make_verdict(weakly_acyclic=True),
            make_verdict(sticky=True),
            make_verdict(),
        ):
            assert plan(verdict).name in STRATEGY_NAMES

    def test_terminating_fast_disables_model_finder(self):
        strategy = plan(make_verdict(rule_acyclic=True))
        assert strategy.model_budget == 0
        assert strategy.variant == ChaseVariant.RESTRICTED


# ---------------------------------------------------------------------------
# Planner caching
# ---------------------------------------------------------------------------


class TestPlannerCache:
    def test_memory_tier(self):
        planner = Planner()
        kb = transitive_closure_kb(3)
        first, source1 = planner.analyze(kb.rules)
        second, source2 = planner.analyze(kb.rules)
        assert (source1, source2) == ("computed", "memory")
        assert first == second

    def test_cache_clear_recomputes(self):
        planner = Planner()
        kb = transitive_closure_kb(3)
        planner.analyze(kb.rules)
        planner.cache_clear()
        assert planner.analyze(kb.rules)[1] == "computed"

    def test_lru_eviction(self):
        planner = Planner(cache_size=1)
        first = transitive_closure_kb(3)
        second = manager_kb()
        planner.analyze(first.rules)
        planner.analyze(second.rules)  # evicts first
        assert planner.analyze(first.rules)[1] == "computed"

    def test_fingerprint_matches_snapshot_catalog(self, tmp_path):
        import sqlite3

        from repro.chase.engine import ChaseEngine

        kb = manager_kb()
        engine = ChaseEngine(kb, variant=ChaseVariant.RESTRICTED)
        engine.run(2)
        SnapshotStore(tmp_path).save(kb, engine.export_state())
        conn = sqlite3.connect(tmp_path / "catalog.sqlite")
        try:
            rows = conn.execute("SELECT rules_fingerprint FROM snapshots").fetchall()
        finally:
            conn.close()
        assert rows == [(ruleset_fingerprint(kb.rules),)]

    def test_decide_emits_metrics(self):
        registry = MetricsRegistry()
        planner = Planner()
        kb = transitive_closure_kb(3)
        with observing(MetricsObserver(registry)):
            _, strategy, _ = planner.decide(kb.rules)
            planner.decide(kb.rules)
        snapshot = registry.snapshot()
        assert snapshot["planner.verdicts"]["value"] == 1
        assert snapshot["planner.cache_hits"]["value"] == 1
        assert snapshot[f"planner.strategy.{strategy.name}"]["value"] == 2


# ---------------------------------------------------------------------------
# routing spot checks on the witness KBs
# ---------------------------------------------------------------------------


class TestRouting:
    def test_transitive_closure_routes_terminating(self):
        _, strategy, _ = Planner().decide(transitive_closure_kb(3).rules)
        assert strategy.name == "terminating-fast"

    def test_manager_routes_rewrite_first(self):
        verdict, strategy, _ = Planner().decide(manager_kb().rules)
        assert verdict.rewritable
        assert strategy.name == "rewrite-first"
        assert strategy.rewrite

    def test_unknown_ruleset_routes_frontier_race(self):
        # Frontier {X, Z} split across body atoms (not frontier-guarded),
        # Y marked and repeated (not sticky), an existential cycle (not
        # weakly acyclic), two body atoms (not linear) — and diverging.
        kb = kb_of(
            "e(a, b), e(b, c)", "e(X, Y), e(Y, Z) -> e(X, Z), e(Z, W)"
        )
        verdict, strategy, _ = Planner().decide(kb.rules)
        assert not verdict.decidable
        assert strategy.name == "frontier-race"

    def test_route_ignores_arrival_order(self):
        # One rule, two KBs: the first saturates at once, the second
        # chases for ever.  The second must route the same whether the
        # planner saw the first or not.
        rule = "r(X, Y), r(Y, W) -> r(W, Z)"
        saturated = kb_of("r(a, b)", rule)
        diverging = kb_of("r(a, b), r(b, c)", rule)

        def route(kb, query):
            request = JobRequest(
                op="entail", kb_text=dump_kb(kb), query=query, planner=True
            )
            return execute_job(request).strategy

        default_planner().cache_clear()
        route(saturated, "r(a, b)")
        after_saturated = route(diverging, "r(c, X)")
        default_planner().cache_clear()
        fresh = route(diverging, "r(c, X)")
        assert after_saturated == fresh == "bts-core"


# ---------------------------------------------------------------------------
# service integration
# ---------------------------------------------------------------------------


class TestServiceIntegration:
    def entail_request(self, kb, query, **extra):
        return JobRequest(
            op="entail", kb_text=dump_kb(kb), query=query, **extra
        )

    def test_planner_routed_job_reports_strategy(self, tmp_path):
        store = SnapshotStore(tmp_path / "snaps")
        request = self.entail_request(
            transitive_closure_kb(3), "e(v0, v3)", planner=True
        )
        result = execute_job(request, store=store)
        assert result.ok
        assert result.entailed is True
        assert result.strategy == "terminating-fast"

    def test_routing_runs_inside_the_deadline(self):
        # Rules of one random KB with the facts of another: routing
        # reads no facts, so the job's deadline bounds all of its work.
        rules = random_kb(rule_count=2, fact_count=4, seed=81).rules
        facts = random_kb(rule_count=2, fact_count=4, seed=88).facts
        default_planner().cache_clear()
        started = time.perf_counter()
        result = execute_job(
            self.entail_request(
                KnowledgeBase(facts, rules), "e(X, X)", planner=True, timeout=1.0
            )
        )
        assert time.perf_counter() - started < 10
        assert result.ok
        assert result.method == "deadline-expired"

    def test_planner_answers_match_plain_config(self, tmp_path):
        kb = transitive_closure_kb(3)
        for query, want in (("e(v0, v3)", True), ("e(v3, v0)", False)):
            plain = execute_job(self.entail_request(kb, query))
            routed = execute_job(
                self.entail_request(kb, query, planner=True),
                store=SnapshotStore(tmp_path / f"s-{want}"),
            )
            assert plain.entailed == routed.entailed == want

    def test_explicit_strategy_override_wins(self):
        request = self.entail_request(
            transitive_closure_kb(3),
            "e(v0, v3)",
            planner=True,
            strategy={
                "name": "pinned",
                "variant": ChaseVariant.CORE,
                "core_every": 1,
                "max_steps": 100,
                "model_budget": 0,
            },
        )
        result = execute_job(request)
        assert result.ok
        assert result.strategy == "pinned"
        assert result.entailed is True

    def test_bad_strategy_override_fails_cleanly(self):
        # Built where the request is built: a bad override is a bad
        # request (a ValueError), not a job that runs and fails.
        with pytest.raises(ValueError, match="missing fields"):
            self.entail_request(
                transitive_closure_kb(3), "e(v0, v3)", strategy={"variant": "core"}
            )

    def test_plain_path_reports_no_strategy(self):
        result = execute_job(self.entail_request(transitive_closure_kb(3), "e(v0, v3)"))
        assert result.strategy is None
        assert "strategy" not in result.to_obj()

    def test_dedup_key_distinguishes_routing(self):
        kb = transitive_closure_kb(3)
        plain = self.entail_request(kb, "e(v0, v3)")
        routed = self.entail_request(kb, "e(v0, v3)", planner=True)
        pinned = self.entail_request(
            kb,
            "e(v0, v3)",
            strategy={"variant": "core", "core_every": 1, "max_steps": 9, "model_budget": 0},
        )
        keys = {plain.dedup_key(), routed.dedup_key(), pinned.dedup_key()}
        assert len(keys) == 3

    def test_request_wire_shape_is_stable(self):
        plain = self.entail_request(transitive_closure_kb(3), "e(v0, v3)")
        assert "planner" not in plain.to_obj()
        assert "strategy" not in plain.to_obj()
        routed = JobRequest.from_obj(
            {**plain.to_obj(), "planner": True, "strategy": None}
        )
        assert routed.planner is True
        assert routed.to_obj()["planner"] is True

    def test_result_round_trips_strategy(self):
        result = JobResult(op="entail", strategy="bts-core")
        assert JobResult.from_obj(result.to_obj()).strategy == "bts-core"
