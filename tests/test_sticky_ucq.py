"""Tests for stickiness analysis and union queries."""

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.analysis import is_sticky, sticky_marking
from repro.kbs.generators import random_kb
from repro.kbs.staircase import staircase_kb
from repro.kbs.witnesses import bts_not_fes_kb, transitive_closure_kb
from repro.kbs.witnesses import manager_kb
from repro.logic.parser import parse_atoms, parse_rules
from repro.logic.terms import Variable
from repro.query import (
    ConjunctiveQuery,
    UnionQuery,
    boolean_cq,
    decide_entailment,
)


class TestStickyMarking:
    def test_initial_marking_of_dropped_variables(self):
        rules = parse_rules("[R] p(X, Y) -> q(X)")
        marking = sticky_marking(rules)
        assert (0, Variable("Y")) in marking
        assert (0, Variable("X")) not in marking

    def test_propagation_through_positions(self):
        # R2 drops V (marked); V sits at b[1]; R1's head has frontier Y at
        # b[1], so Y gets marked in R1 as well.
        rules = parse_rules(
            """
            [R1] a(X, Y) -> b(X, Y)
            [R2] b(U, V) -> d(U)
            """
        )
        marking = sticky_marking(rules)
        assert (1, Variable("V")) in marking
        assert (0, Variable("Y")) in marking


class TestIsSticky:
    def test_linear_rules_are_sticky(self):
        assert is_sticky(bts_not_fes_kb().rules)

    def test_transitive_closure_not_sticky(self):
        # the join variable Y is dropped from the head and repeats
        assert not is_sticky(transitive_closure_kb(2).rules)

    def test_join_preserved_in_head_is_sticky(self):
        rules = parse_rules("[R] p(X, Y), q(Y, Z) -> s(X, Y, Z)")
        assert is_sticky(rules)

    def test_join_dropped_from_head_not_sticky(self):
        rules = parse_rules("[R] p(X, Y), q(Y, Z) -> s(X, Z)")
        assert not is_sticky(rules)

    def test_staircase_not_sticky(self):
        # K_h's rules join loop variables heavily
        assert not is_sticky(staircase_kb().rules)

    def test_repeated_unmarked_variable_is_fine(self):
        # X repeats in the body but is fully propagated to the head
        rules = parse_rules("[R] p(X, X) -> q(X, X)")
        assert is_sticky(rules)


class TestUnionQuery:
    def test_empty_union_rejected(self):
        with pytest.raises(ValueError):
            UnionQuery([])

    def test_non_boolean_disjunct_rejected(self):
        q = ConjunctiveQuery("p(X)", answer_variables=[Variable("X")])
        with pytest.raises(ValueError):
            UnionQuery([q])

    def test_holds_if_any_disjunct_holds(self):
        union = UnionQuery([boolean_cq("p(X)"), boolean_cq("q(X)")])
        assert union.holds_in(parse_atoms("q(a)"))
        assert not union.holds_in(parse_atoms("r(a)"))

    def test_entailed_union_decided_yes(self):
        union = UnionQuery([boolean_cq("mgr(X, ann)"), boolean_cq("mgr(ann, X)")])
        verdict = decide_entailment(manager_kb(), union, chase_budget=20)
        assert verdict.entailed is True

    def test_refuted_union_needs_joint_countermodel(self):
        union = UnionQuery(
            [boolean_cq("mgr(X, ann)"), boolean_cq("emp(X), mgr(X, X)")]
        )
        verdict = decide_entailment(manager_kb(), union, chase_budget=15)
        assert verdict.entailed is False
        assert verdict.countermodel is not None
        assert not union.holds_in(verdict.countermodel)

    def test_singleton_union_behaves_like_cq(self):
        kb = transitive_closure_kb(3)
        union = UnionQuery([boolean_cq("e(v0, v3)")])
        assert decide_entailment(kb, union).entailed is True


class TestUnionRaceRegressions:
    """Regression tests for the UCQ race bugs: one shared chase per
    union, terminated-fixpoint refutation, deadline hooks, and accurate
    ``chase_steps`` reporting."""

    def test_one_shared_chase_for_all_disjuncts(self):
        # Counting chase runs through the observer: a 3-disjunct union
        # must run exactly ONE chase, not one per disjunct.
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.observer import observing
        from repro.obs.tracer import MetricsObserver

        union = UnionQuery(
            [boolean_cq("nope(X)"), boolean_cq("also(X)"), boolean_cq("mgr(X, Y)")]
        )
        obs = MetricsObserver(MetricsRegistry())
        with observing(obs):
            verdict = decide_entailment(
                manager_kb(), union, chase_budget=12
            )
        assert verdict.entailed is True
        # The shared budget bounds total applications: a per-disjunct
        # re-chase would have recorded up to 3x the steps.
        steps = obs.registry.snapshot().get("chase.steps", {}).get("value", 0)
        assert steps <= 12

    def test_terminated_fixpoint_refutes_whole_union(self):
        # The chase of a terminating KB reaches a finite universal
        # model; a union no disjunct of which maps into it is refuted
        # exactly — with the witness instance, no countermodel search.
        kb = transitive_closure_kb(3)
        union = UnionQuery([boolean_cq("e(v3, v0)"), boolean_cq("e(v2, v0)")])
        verdict = decide_entailment(kb, union, model_domain_budget=0)
        assert verdict.entailed is False
        assert verdict.method == "chase-fixpoint-miss"
        assert verdict.witness_instance is not None
        assert not union.holds_in(verdict.witness_instance)

    def test_should_stop_cuts_union_decision_short(self):
        union = UnionQuery([boolean_cq("nope(X)"), boolean_cq("never(X)")])
        verdict = decide_entailment(
            manager_kb(), union, chase_budget=50, should_stop=lambda: True
        )
        assert verdict.entailed is None
        assert verdict.incomplete
        assert verdict.method == "chase-stopped"

    def test_union_accepts_chase_variant(self):
        from repro.chase.engine import ChaseVariant

        union = UnionQuery([boolean_cq("mgr(X, Y)")])
        verdict = decide_entailment(
            manager_kb(), union, chase_variant=ChaseVariant.CORE
        )
        assert verdict.entailed is True

    def test_union_chase_steps_report_applications_not_budget(self):
        # Undecided verdicts must report the applications the chase
        # actually consumed, not echo the budget constant.
        union = UnionQuery([boolean_cq("nope(X)")])
        budget = 10
        verdict = decide_entailment(
            manager_kb(), union, chase_budget=budget, model_domain_budget=0
        )
        assert verdict.entailed is None
        assert verdict.chase_steps == budget  # manager chase never idles
        # ... and on a terminating KB the count is the real fixpoint
        # size, strictly under the budget.
        kb = transitive_closure_kb(3)
        refuted = decide_entailment(
            kb, UnionQuery([boolean_cq("e(v2, v0)")]), chase_budget=500
        )
        assert refuted.entailed is False
        assert 0 < refuted.chase_steps < 500

    def test_cq_race_chase_steps_report_applications_not_budget(self):
        # Same bug pattern in decide_entailment: the countermodel and
        # race-undecided paths passed the budget constant through.
        verdict = decide_entailment(
            manager_kb(),
            boolean_cq("emp(X), mgr(X, X)"),
            chase_budget=13,
            model_domain_budget=3,
        )
        assert verdict.entailed is False
        assert verdict.method == "finite-countermodel"
        assert verdict.chase_steps == 13  # applications, == budget here
        kb = transitive_closure_kb(3)
        refuted = decide_entailment(kb, boolean_cq("e(v2, v0)"), chase_budget=500)
        assert refuted.entailed is False
        assert 0 < refuted.chase_steps < 500


#: Boolean CQs over random_kb's predicates; with the budgets below the
#: race settles them in all four ways (prefix hit, fixpoint miss, finite
#: countermodel, undecided) across random KBs.
RACE_QUERIES = (
    "e(X, Y)",
    "e(X, X)",
    "p(X, Y), q(Y, Z)",
    "e(X, Y), e(Y, X)",
    "q(c0, X)",
    "p(X, X)",
)

RACE_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

race_seeds = st.integers(min_value=0, max_value=400)


def small_race(seed, query):
    kb = random_kb(rule_count=2, fact_count=4, seed=seed)
    return decide_entailment(kb, query, chase_budget=8, model_domain_budget=4)


class TestOneRaceForBothQueryTypes:
    """``decide_entailment`` is one race for CQs and unions: a singleton
    union answers exactly as its CQ, and an extra disjunct never delays
    a prefix hit."""

    @RACE_SETTINGS
    @given(seed=race_seeds, text=st.sampled_from(RACE_QUERIES))
    def test_singleton_union_answers_as_its_cq(self, seed, text):
        query = boolean_cq(text)
        alone = small_race(seed, query)
        union = small_race(seed, UnionQuery([query]))
        assert (union.entailed, union.method, union.chase_steps, union.incomplete) == (
            alone.entailed,
            alone.method,
            alone.chase_steps,
            alone.incomplete,
        )

    @RACE_SETTINGS
    @given(
        seed=race_seeds,
        first=st.sampled_from(RACE_QUERIES),
        second=st.sampled_from(RACE_QUERIES),
    )
    def test_extra_disjunct_never_delays_a_prefix_hit(self, seed, first, second):
        alone = small_race(seed, boolean_cq(first))
        assume(alone.method == "chase-prefix-hit")
        union = small_race(seed, UnionQuery([boolean_cq(first), boolean_cq(second)]))
        assert union.method == "chase-prefix-hit"
        assert union.chase_steps <= alone.chase_steps
