"""Tests for repro.query: CQs, the model finder, and the decision race."""

import pytest

from repro.kbs.elevator import elevator_kb
from repro.kbs.witnesses import bts_not_fes_kb, manager_kb, transitive_closure_kb
from repro.logic.kb import KnowledgeBase
from repro.logic.parser import parse_atoms, parse_rules
from repro.logic.terms import Constant, Variable
from repro.query import (
    ConjunctiveQuery,
    boolean_cq,
    chase_entails_prefix,
    decide_entailment,
    entails_via_terminating_chase,
    find_countermodel,
    find_finite_model,
)
from repro.service.deadline import Deadline


class TestConjunctiveQuery:
    def test_boolean_holds(self):
        q = boolean_cq("e(X, Y), e(Y, Z)")
        assert q.holds_in(parse_atoms("e(a, b), e(b, c)"))
        assert not q.holds_in(parse_atoms("e(a, b)"))

    def test_answers_enumerated(self):
        X = Variable("X")
        q = ConjunctiveQuery("e(X, Y)", answer_variables=[X])
        answers = set(q.answers(parse_atoms("e(a, b), e(b, c)")))
        assert answers == {(Constant("a"),), (Constant("b"),)}

    def test_answers_deduplicated(self):
        X = Variable("X")
        q = ConjunctiveQuery("e(X, Y)", answer_variables=[X])
        answers = list(q.answers(parse_atoms("e(a, b), e(a, c)")))
        assert answers == [(Constant("a"),)]

    def test_answer_variable_must_occur(self):
        with pytest.raises(ValueError):
            ConjunctiveQuery("e(X, Y)", answer_variables=[Variable("Z")])

    def test_empty_query_rejected(self):
        with pytest.raises(ValueError):
            ConjunctiveQuery([])

    def test_witness_is_homomorphism(self):
        q = boolean_cq("e(X, Y)")
        instance = parse_atoms("e(a, b)")
        witness = q.witness(instance)
        assert witness is not None
        assert witness.is_homomorphism(q.atoms, instance)


class TestTerminatingChaseEntailment:
    def test_entailed_on_terminating_kb(self):
        kb = transitive_closure_kb(3)
        verdict = entails_via_terminating_chase(kb, boolean_cq("e(v0, v3)"))
        assert verdict.entailed is True
        assert verdict.method == "terminating-core-chase"

    def test_non_entailed_on_terminating_kb(self):
        kb = transitive_closure_kb(3)
        verdict = entails_via_terminating_chase(kb, boolean_cq("e(v3, v0)"))
        assert verdict.entailed is False

    def test_undecided_on_divergent_kb(self):
        verdict = entails_via_terminating_chase(
            bts_not_fes_kb(), boolean_cq("r(X, X)"), max_steps=10
        )
        assert verdict.entailed is None


class TestChasePrefix:
    def test_yes_side_fires_quickly(self):
        kb = manager_kb()
        verdict = chase_entails_prefix(
            kb, boolean_cq("mgr(ann, X), mgr(X, Y)"), max_steps=20
        )
        assert verdict.entailed is True
        assert verdict.method == "chase-prefix-hit"

    def test_fixpoint_miss_is_exact_no(self):
        kb = transitive_closure_kb(2)
        verdict = chase_entails_prefix(kb, boolean_cq("e(v2, v0)"), max_steps=50)
        assert verdict.entailed is False
        assert verdict.method == "chase-fixpoint-miss"

    def test_budget_exhaustion_is_open(self):
        verdict = chase_entails_prefix(
            bts_not_fes_kb(), boolean_cq("r(X, X)"), max_steps=8
        )
        assert verdict.entailed is None


class TestModelFinder:
    def test_finds_model_of_divergent_kb(self):
        kb = bts_not_fes_kb()
        result = find_finite_model(kb, domain_budget=4)
        assert result.found
        assert kb.is_model(result.model)

    def test_model_respects_avoid(self):
        kb = bts_not_fes_kb()
        query = boolean_cq("r(X, X)")
        result = find_finite_model(kb, domain_budget=4, avoid=query)
        assert result.found
        assert not query.holds_in(result.model)

    def test_unavoidable_query_exhausts(self):
        kb = transitive_closure_kb(2)
        # e(v0, v1) is a fact: no model avoids it
        result = find_finite_model(
            kb, domain_budget=4, avoid=boolean_cq("e(v0, v1)")
        )
        assert not result.found
        assert result.exhausted

    def test_countermodel_search_deepens(self):
        kb = bts_not_fes_kb()
        result = find_countermodel(kb, boolean_cq("r(X, X)"), max_domain=5)
        assert result.found
        assert kb.is_model(result.model)


class TestDecisionRace:
    def test_entailed_query_decided_yes(self):
        kb = manager_kb()
        verdict = decide_entailment(kb, boolean_cq("mgr(ann, X)"))
        assert verdict.entailed is True

    def test_non_entailed_decided_by_countermodel(self):
        kb = bts_not_fes_kb()
        verdict = decide_entailment(
            kb, boolean_cq("r(X, X)"), chase_budget=10
        )
        assert verdict.entailed is False
        assert verdict.method == "finite-countermodel"
        assert kb.is_model(verdict.countermodel)

    def test_race_on_terminating_kb(self):
        kb = transitive_closure_kb(3)
        assert decide_entailment(kb, boolean_cq("e(v0, v3)")).entailed is True
        assert decide_entailment(kb, boolean_cq("e(v3, v0)")).entailed is False

    def test_deep_chain_query_entailed(self):
        kb = bts_not_fes_kb()
        query = boolean_cq("r(X1, X2), r(X2, X3), r(X3, X4), r(X4, X5)")
        verdict = decide_entailment(kb, query, chase_budget=20)
        assert verdict.entailed is True

    def test_mixed_query_refuted(self):
        # "some element is both source and target of r from b onward with
        # a c-labelled partner" — never derivable from the chain KB
        kb = KnowledgeBase(
            parse_atoms("r(a, b)"),
            parse_rules("[Succ] r(X, Y) -> r(Y, Z)"),
        )
        verdict = decide_entailment(kb, boolean_cq("r(X, a)"), chase_budget=10)
        assert verdict.entailed is False

    def test_deadline_cuts_the_countermodel_search(self):
        # The 5-step chase ends well inside the deadline; the domain-3
        # search after it runs for seconds unless the deadline stops it.
        verdict = decide_entailment(
            elevator_kb(),
            boolean_cq("v(X, X)"),
            chase_budget=5,
            model_domain_budget=3,
            should_stop=Deadline(0.5),
        )
        assert verdict.entailed is None
        assert verdict.method == "chase-stopped"
        assert verdict.incomplete
