"""Tests for repro.analysis: positions, weak acyclicity, guardedness,
structural measures and boundedness."""

import pytest

from repro.analysis import (
    SIZE,
    TERM_COUNT,
    TREEWIDTH,
    Planner,
    certify_fes,
    dependency_graph,
    is_frontier_guarded,
    is_frontier_guarded_rule,
    is_guarded,
    is_guarded_rule,
    is_recurringly_bounded_prefix,
    is_uniformly_bounded,
    is_weakly_acyclic,
    profile_chase,
    recurring_bound_estimate,
    uniform_bound,
)
from repro.analysis.positions import Position, positions_of_ruleset, variable_positions
from repro.chase.engine import ChaseVariant
from repro.kbs.staircase import staircase_kb
from repro.kbs.witnesses import (
    bts_not_fes_kb,
    fes_not_bts_kb,
    guarded_chain_kb,
    transitive_closure_kb,
    weakly_acyclic_kb,
)
from repro.logic.atoms import Predicate
from repro.logic.parser import parse_atoms, parse_rule, parse_rules
from repro.logic.terms import Variable


class TestPositions:
    def test_position_validation(self):
        with pytest.raises(ValueError):
            Position(Predicate("p", 2), 2)

    def test_positions_of_ruleset(self):
        rules = parse_rules("[R] p(X, Y) -> q(X)")
        positions = positions_of_ruleset(rules)
        assert {str(p) for p in positions} == {"p[0]", "p[1]", "q[0]"}

    def test_variable_positions(self):
        atoms = parse_atoms("p(X, Y), q(X, X)")
        found = {str(p) for p in variable_positions(atoms, Variable("X"))}
        assert found == {"p[0]", "q[0]", "q[1]"}


class TestWeakAcyclicity:
    def test_weakly_acyclic_accepts(self):
        assert is_weakly_acyclic(weakly_acyclic_kb().rules)

    def test_self_feeding_existential_rejected(self):
        assert not is_weakly_acyclic(bts_not_fes_kb().rules)

    def test_datalog_always_weakly_acyclic(self):
        assert is_weakly_acyclic(transitive_closure_kb(2).rules)

    def test_fes_witness_is_not_weakly_acyclic(self):
        # fes but not detectable by weak acyclicity — exactly why the
        # semantic class fes is strictly larger than syntactic criteria
        assert not is_weakly_acyclic(fes_not_bts_kb().rules)

    def test_dependency_graph_edges(self):
        rules = parse_rules("[R] p(X) -> q(X, Y)")
        graph = dependency_graph(rules)
        p0 = Position(Predicate("p", 1), 0)
        q0 = Position(Predicate("q", 2), 0)
        q1 = Position(Predicate("q", 2), 1)
        assert q0 in graph.regular[p0]
        assert q1 in graph.special[p0]

    def test_staircase_not_weakly_acyclic(self):
        assert not is_weakly_acyclic(staircase_kb().rules)


class TestGuardedness:
    def test_single_body_atom_is_guarded(self):
        assert is_guarded_rule(parse_rule("p(X, Y) -> q(Y, Z)"))

    def test_unguarded_join(self):
        assert not is_guarded_rule(parse_rule("p(X), q(Y) -> r(X, Y)"))

    def test_frontier_guard_weaker_than_guard(self):
        rule = parse_rule("p(X, Y), q(Y, Z) -> r(Y, W)")
        assert not is_guarded_rule(rule)
        assert is_frontier_guarded_rule(rule)

    def test_guarded_ruleset(self):
        assert is_guarded(guarded_chain_kb().rules)
        assert is_frontier_guarded(guarded_chain_kb().rules)

    def test_staircase_not_guarded(self):
        assert not is_guarded(staircase_kb().rules)


class TestBoundedness:
    def test_uniform_bound_is_max(self):
        assert uniform_bound([1, 3, 2]) == 3

    def test_recurring_estimate_is_tail_min(self):
        assert recurring_bound_estimate([9, 9, 1, 9, 2], tail=3) == 1

    def test_uniformly_bounded_predicate(self):
        assert is_uniformly_bounded([1, 2, 2], 2)
        assert not is_uniformly_bounded([1, 3], 2)

    def test_recurring_prefix_predicate(self):
        # a value <= 2 appears in every window of 3
        assert is_recurringly_bounded_prefix([5, 5, 2, 7, 1, 9, 9, 2], 2, tail=3)
        assert not is_recurringly_bounded_prefix([5, 5, 5, 1], 2, tail=3)

    def test_empty_sequences_rejected(self):
        with pytest.raises(ValueError):
            uniform_bound([])
        with pytest.raises(ValueError):
            recurring_bound_estimate([])
        assert not is_recurringly_bounded_prefix([], 3)


class TestMeasuresAndProfiles:
    def test_size_measure(self):
        assert SIZE(parse_atoms("p(X), q(X)")) == 2

    def test_term_count_measure(self):
        assert TERM_COUNT(parse_atoms("p(X, Y), q(X)")) == 2

    def test_treewidth_measure(self):
        assert TREEWIDTH(parse_atoms("e(X, Y), e(Y, Z)")) == 1

    def test_profile_of_terminating_run(self):
        profile = profile_chase(
            transitive_closure_kb(3),
            variant=ChaseVariant.RESTRICTED,
            measure=SIZE,
            max_steps=100,
        )
        assert profile.terminated
        assert profile.values[0] == 3
        assert profile.uniform == profile.values[-1] == 6

    def test_profile_treewidth_of_chain(self):
        profile = profile_chase(
            bts_not_fes_kb(),
            variant=ChaseVariant.CORE,
            measure=TREEWIDTH,
            max_steps=8,
        )
        assert not profile.terminated
        assert profile.uniform == 1  # the chain stays a path

    def test_certify_fes_positive(self):
        assert certify_fes(fes_not_bts_kb(), max_steps=100) is not None

    def test_certify_fes_unknown_on_divergent(self):
        assert certify_fes(bts_not_fes_kb(), max_steps=10) is None


class TestRulesetVerdict:
    """The planner's :class:`~repro.analysis.planner.Verdict` is the one
    ruleset report."""

    @staticmethod
    def report(kb):
        return Planner().compute(kb.rules)

    def test_academia_report(self):
        from repro.kbs.ontology import academia_kb

        report = self.report(academia_kb())
        assert report.guarded and report.frontier_guarded
        assert not report.weakly_acyclic
        assert report.decidable  # via guardedness

    def test_terminating_report(self):
        report = self.report(transitive_closure_kb(2))
        assert report.rule_acyclic is False  # recursive datalog
        assert report.weakly_acyclic
        assert report.terminating

    def test_staircase_escapes_all_syntactic_criteria(self):
        report = self.report(staircase_kb())
        assert not (report.terminating or report.bts_class)
        assert not report.decidable
        # ... which is exactly why the paper's core-bts class is needed
