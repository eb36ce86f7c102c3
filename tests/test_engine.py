"""Tests for repro.chase.engine and repro.chase.variants."""

import pytest

from repro import elevator_kb, staircase_kb
from repro.chase import (
    ChaseEngine,
    ChaseVariant,
    core_chase,
    oblivious_chase,
    restricted_chase,
    run_chase,
    semi_oblivious_chase,
)
from repro.chase.compiled_index import CompiledTriggerIndex
from repro.kbs.witnesses import (
    bts_not_fes_kb,
    fes_not_bts_kb,
    manager_kb,
    transitive_closure_kb,
    weakly_acyclic_kb,
)
from repro.logic.cores import is_core
from repro.logic.kb import KnowledgeBase
from repro.logic.parser import parse_atoms, parse_rules
from repro.obs.observer import Observer, observing


class TestTermination:
    def test_datalog_terminates_under_all_variants(self):
        kb = transitive_closure_kb(3)
        for variant in ChaseVariant.ALL:
            result = run_chase(kb, variant=variant, max_steps=200)
            assert result.terminated, variant

    def test_transitive_closure_result(self):
        kb = transitive_closure_kb(3)
        result = restricted_chase(kb, max_steps=100)
        # chain v0->v1->v2->v3: closure has 3 + 2 + 1 = 6 edges
        assert len(result.final_instance) == 6

    def test_weakly_acyclic_terminates(self):
        result = core_chase(weakly_acyclic_kb(), max_steps=100)
        assert result.terminated

    def test_infinite_chain_does_not_terminate(self):
        result = restricted_chase(bts_not_fes_kb(), max_steps=15)
        assert not result.terminated
        assert result.applications == 15

    def test_core_chase_terminates_on_fes_witness(self):
        result = core_chase(fes_not_bts_kb(), max_steps=100)
        assert result.terminated

    def test_restricted_diverges_on_fes_witness(self):
        result = restricted_chase(fes_not_bts_kb(), max_steps=15)
        assert not result.terminated

    def test_terminated_core_chase_result_is_model_and_core(self):
        kb = fes_not_bts_kb()
        result = core_chase(kb, max_steps=100)
        assert kb.is_model(result.final_instance)
        assert is_core(result.final_instance)

    def test_terminated_restricted_result_is_model(self):
        kb = manager_kb()
        # managers never terminates; use transitive closure instead
        kb = transitive_closure_kb(2)
        result = restricted_chase(kb, max_steps=50)
        assert result.terminated
        assert kb.is_model(result.final_instance)


class TestVariantSemantics:
    def test_restricted_skips_satisfied_triggers(self):
        kb = KnowledgeBase(
            parse_atoms("p(a), e(a, b)"),
            parse_rules("[R] p(X) -> e(X, Y)"),
        )
        result = restricted_chase(kb, max_steps=10)
        assert result.terminated
        assert result.applications == 0

    def test_oblivious_applies_satisfied_triggers(self):
        kb = KnowledgeBase(
            parse_atoms("p(a), e(a, b)"),
            parse_rules("[R] p(X) -> e(X, Y)"),
        )
        result = oblivious_chase(kb, max_steps=10)
        assert result.applications == 1  # applied despite satisfaction

    def test_semi_oblivious_identifies_frontier(self):
        # Two body matches with the same frontier image: semi-oblivious
        # applies once, oblivious twice.
        kb = KnowledgeBase(
            parse_atoms("e(a, b), e(c, b)"),
            parse_rules("[R] e(X, Y) -> q(Y, Z)"),
        )
        semi = semi_oblivious_chase(kb, max_steps=10)
        full = oblivious_chase(kb, max_steps=10)
        assert semi.applications == 1
        assert full.applications == 2

    def test_core_chase_prunes_redundancy(self):
        # p(a) triggers creation of e(a, Y); a second rule adds e(a, b),
        # making the null redundant: the core chase folds it away.
        kb = KnowledgeBase(
            parse_atoms("p(a), q(a)"),
            parse_rules(
                """
                [MakeNull] p(X) -> e(X, Y)
                [MakeConst] q(X) -> e(X, b)
                """
            ),
        )
        result = core_chase(kb, max_steps=10)
        assert result.terminated
        assert result.final_instance == parse_atoms("p(a), q(a), e(a, b)")

    def test_restricted_monotonic_core_not(self):
        kb = fes_not_bts_kb()
        restricted = restricted_chase(kb, max_steps=10)
        assert restricted.derivation.is_monotonic()

    def test_core_every_parameter(self):
        kb = fes_not_bts_kb()
        result = core_chase(kb, max_steps=100, core_every=3)
        assert result.terminated
        # periodic cores are still a core chase: same final core size
        reference = core_chase(kb, max_steps=100)
        assert len(result.final_instance) == len(reference.final_instance)


class TestFrugalVariant:
    def test_frugal_folds_redundant_fresh_nulls(self):
        # the head invents two nulls where one suffices: frugal keeps one
        kb = KnowledgeBase(
            parse_atoms("p(a)"),
            parse_rules("[R] p(X) -> e(X, Y), e(X, Z)"),
        )
        from repro.chase import frugal_chase, restricted_chase as rc

        frugal = frugal_chase(kb, max_steps=10)
        restricted = rc(kb, max_steps=10)
        assert frugal.terminated and restricted.terminated
        assert len(frugal.final_instance) < len(restricted.final_instance)

    def test_frugal_is_monotonic(self):
        from repro.chase import frugal_chase

        result = frugal_chase(fes_not_bts_kb(), max_steps=12)
        assert result.derivation.is_monotonic()
        result.derivation.validate()

    def test_frugal_never_folds_old_terms(self):
        from repro.chase import frugal_chase

        result = frugal_chase(fes_not_bts_kb(), max_steps=12)
        for index in range(1, len(result.derivation)):
            step = result.derivation.steps[index]
            previous_terms = result.derivation.instance(index - 1).terms()
            assert step.simplification.is_identity_on(previous_terms), index

    def test_frugal_between_restricted_and_core(self):
        # on a terminating KB: |core result| <= |frugal result| <= |restricted result|
        from repro.chase import core_chase as cc, frugal_chase

        kb = KnowledgeBase(
            parse_atoms("p(a), q(a)"),
            parse_rules(
                """
                [TwoNulls] p(X) -> e(X, Y), e(X, Z)
                [Const] q(X) -> e(X, b)
                """
            ),
        )
        core = cc(kb, max_steps=20)
        frugal = frugal_chase(kb, max_steps=20)
        restricted = restricted_chase(kb, max_steps=20)
        assert core.terminated and frugal.terminated and restricted.terminated
        assert len(core.final_instance) <= len(frugal.final_instance)
        assert len(frugal.final_instance) <= len(restricted.final_instance)


class TestDeterminismAndRecord:
    def test_runs_are_reproducible(self):
        kb = fes_not_bts_kb()
        first = core_chase(kb, max_steps=50)
        second = core_chase(kb, max_steps=50)
        assert first.applications == second.applications
        assert first.final_instance == second.final_instance

    def test_derivation_record_validates(self):
        kb = fes_not_bts_kb()
        result = core_chase(kb, max_steps=50)
        result.derivation.validate()

    def test_oblivious_record_validates_relaxed(self):
        kb = KnowledgeBase(
            parse_atoms("p(a), e(a, b)"),
            parse_rules("[R] p(X) -> e(X, Y)"),
        )
        result = oblivious_chase(kb, max_steps=10)
        result.derivation.validate(require_active=False)

    def test_fairness_on_terminating_run(self):
        kb = transitive_closure_kb(3)
        result = restricted_chase(kb, max_steps=100)
        assert result.derivation.check_fairness_prefix() == []

    def test_on_step_hook_sees_every_step(self):
        kb = transitive_closure_kb(3)
        seen = []
        run_chase(kb, max_steps=100, on_step=lambda s: seen.append(s.index))
        assert seen == list(range(len(seen)))
        assert len(seen) >= 2

    def test_engine_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            ChaseEngine(transitive_closure_kb(2), variant="turbo")

    def test_engine_rejects_bad_core_every(self):
        with pytest.raises(ValueError):
            ChaseEngine(transitive_closure_kb(2), core_every=0)

    def test_result_repr_mentions_status(self):
        result = restricted_chase(transitive_closure_kb(2), max_steps=50)
        assert "terminated" in repr(result)


class TestFairScheduling:
    def test_old_triggers_not_starved(self):
        # Rule A keeps producing new work; rule B is enabled from the
        # start.  Fair scheduling must apply B within a bounded number of
        # steps even though A floods the queue.
        kb = KnowledgeBase(
            parse_atoms("p(a), s(a)"),
            parse_rules(
                """
                [Flood] p(X) -> e(X, Y), p(Y)
                [Oldest] s(X) -> done(X)
                """
            ),
        )
        result = restricted_chase(kb, max_steps=10)
        names = [
            step.trigger.rule.name
            for step in result.derivation.steps
            if step.trigger is not None
        ]
        assert "Oldest" in names[:3]


class TestResume:
    def test_resume_matches_single_run(self):
        from repro.chase import ChaseEngine

        kb = fes_not_bts_kb()
        split = ChaseEngine(kb, variant=ChaseVariant.CORE)
        split.run(max_steps=3)
        resumed = split.resume(5)
        whole = ChaseEngine(kb, variant=ChaseVariant.CORE).run(max_steps=8)
        assert resumed.final_instance == whole.final_instance
        assert resumed.applications == whole.applications

    def test_resume_after_termination_is_noop(self):
        from repro.chase import ChaseEngine

        engine = ChaseEngine(transitive_closure_kb(2))
        first = engine.run(max_steps=100)
        assert first.terminated
        again = engine.resume(10)
        assert again.terminated
        assert again.applications == first.applications

    def test_resume_without_run_raises(self):
        from repro.chase import ChaseEngine

        with pytest.raises(RuntimeError):
            ChaseEngine(transitive_closure_kb(2)).resume(1)

    def test_resume_reports_whole_derivation(self):
        from repro.chase import ChaseEngine

        engine = ChaseEngine(bts_not_fes_kb())
        engine.run(max_steps=4)
        result = engine.resume(3)
        assert len(result.derivation) == 8  # initial + 7 applications
        result.derivation.validate()


class TestRestoreBuildsIndexOnFirstStep:
    """``restore_state`` builds no trigger index: the first step of the
    resume does, under that resume's indexing scope, so a resume that
    takes no step pays nothing for it."""

    @staticmethod
    def _checkpoint(kb, variant, steps):
        engine = ChaseEngine(kb, variant=variant)
        engine.run(max_steps=steps)
        return engine.export_state()

    @staticmethod
    def _compile_events(action):
        """The ``compile`` events *action* emits.  A cold run through the
        same observer afterwards must emit some, so an empty list means
        *action* compiled nothing, not that the observer heard nothing."""
        events = []

        class Spy(Observer):
            def emit(self, kind, **fields):
                if kind == "compile":
                    events.append(fields)

        with observing(Spy()):
            action()
            seen = list(events)
            ChaseEngine(staircase_kb(), variant=ChaseVariant.CORE).run(1)
        assert len(events) > len(seen), "the observer missed a cold compile"
        return seen

    def test_restore_alone_builds_nothing(self):
        kb = staircase_kb()
        state = self._checkpoint(kb, ChaseVariant.CORE, 6)
        engine = ChaseEngine(kb, variant=ChaseVariant.CORE)
        assert self._compile_events(lambda: engine.restore_state(state)) == []
        assert engine._index is None
        assert engine.current_instance == state.instance

    @pytest.mark.parametrize(
        "stop", [None, lambda: True], ids=["zero-budget", "query-hit"]
    )
    def test_resume_that_takes_no_step_builds_no_index(self, stop):
        kb = staircase_kb()
        state = self._checkpoint(kb, ChaseVariant.CORE, 6)
        engine = ChaseEngine(kb, variant=ChaseVariant.CORE)

        def restore_and_resume():
            engine.restore_state(state)
            budget = 0 if stop is None else 10
            result = engine.resume(budget, should_stop=stop)
            assert result.applications == 0

        assert self._compile_events(restore_and_resume) == []
        assert engine._index is None
        assert engine.export_state().instance == state.instance

    def test_restored_fixpoint_builds_no_index(self):
        kb = transitive_closure_kb(4)
        state = self._checkpoint(kb, ChaseVariant.RESTRICTED, 100)
        assert state.terminated
        engine = ChaseEngine(kb)
        engine.restore_state(state)
        result = engine.resume(50)
        assert result.terminated and result.applications == 0
        assert engine._index is None

    def test_first_step_builds_the_index(self):
        kb = staircase_kb()
        state = self._checkpoint(kb, ChaseVariant.CORE, 6)
        engine = ChaseEngine(kb, variant=ChaseVariant.CORE)
        engine.restore_state(state)
        events = self._compile_events(lambda: engine.resume(1))
        assert len(events) == len(kb.rules)
        assert isinstance(engine._index, CompiledTriggerIndex)

    @pytest.mark.parametrize(
        "make_kb, variant, prior, extra",
        [
            (staircase_kb, ChaseVariant.CORE, 6, 8),
            (staircase_kb, ChaseVariant.RESTRICTED, 5, 6),
            (elevator_kb, ChaseVariant.CORE, 5, 6),
            (lambda: transitive_closure_kb(5), ChaseVariant.RESTRICTED, 4, 40),
            (bts_not_fes_kb, ChaseVariant.SEMI_OBLIVIOUS, 3, 5),
        ],
        ids=[
            "staircase-core",
            "staircase-restricted",
            "elevator-core",
            "chain-restricted",
            "infinite-chain-semi-oblivious",
        ],
    )
    def test_restore_then_steps_equals_straight_run(
        self, make_kb, variant, prior, extra
    ):
        kb = make_kb()
        self._assert_matches_straight_run(kb, variant, prior, extra)

    def _assert_matches_straight_run(self, kb, variant, prior, extra):
        straight_engine = ChaseEngine(kb, variant=variant)
        straight = straight_engine.run(max_steps=prior + extra)

        state = self._checkpoint(kb, variant, prior)
        engine = ChaseEngine(kb, variant=variant)
        engine.restore_state(state)
        result = engine.resume(extra)

        resumed_steps = [step.instance for step in result.derivation.steps[1:]]
        straight_steps = [
            step.instance for step in straight.derivation.steps[prior + 1 :]
        ]
        assert resumed_steps == straight_steps
        assert engine.current_instance == straight.final_instance
        assert state.applications + result.applications == straight.applications
        assert result.terminated == straight.terminated
        resumed_state = engine.export_state()
        straight_state = straight_engine.export_state()
        assert resumed_state.active == straight_state.active
        assert resumed_state.applied_keys == straight_state.applied_keys
        assert resumed_state.fresh_count == straight_state.fresh_count
