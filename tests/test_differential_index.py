"""Differential tests: the compiled engine against the naive reference.

The evaluation layers must be pure optimisations: for every KB and
variant, a compiled run (``use_index=True``, the default) and a naive
run (``use_index=False``) must select the same rule sequence, perform
the same number of applications, keep the same instance size after
every step, and end in *isomorphic* instances.  (Only isomorphic, not
equal: the two paths may pick different — equally valid — fold
witnesses inside core retractions, so null names can differ.)

The checkpoint differential holds a restore to the same standard: a
state exported at step k, sent through JSON and restored resumes to
exactly the steps of an uninterrupted run, and the index it seeds from
the stored active set equals one rebuilt from the instance.  For the
core variant that includes the core maintainer, which a restore seeds
from the instance minus the state's ``delta_since_core``.

Random KBs come from :func:`repro.kbs.generators.random_kb`; hypothesis
fuzzes the seed and shape (``--hypothesis-seed`` reproduces a CI
failure locally).
"""

import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.chase.compiled_index import CompiledTriggerIndex
from repro.chase.engine import (
    ChaseEngine,
    ChaseVariant,
    merge_facts_into_state,
    run_chase,
)
from repro.kbs.elevator import elevator_kb
from repro.kbs.generators import random_kb
from repro.kbs.staircase import staircase_kb
from repro.logic.isomorphism import isomorphic
from repro.logic.kb import KnowledgeBase
from repro.logic.parser import parse_atoms, parse_rules
from repro.service.snapshots import chase_state_from_obj, chase_state_to_obj

from .test_trigger_index import pool_mismatches

MAX_STEPS = 10

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def kb_strategy(draw):
    return random_kb(
        rule_count=draw(st.integers(min_value=1, max_value=4)),
        fact_count=draw(st.integers(min_value=2, max_value=8)),
        term_pool=draw(st.integers(min_value=2, max_value=5)),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
    )


def _rule_sequence(result):
    return [
        step.trigger.rule.name
        for step in result.derivation.steps
        if step.trigger is not None
    ]


def assert_equivalent_runs(kb, variant, max_steps=MAX_STEPS):
    compiled = run_chase(kb, variant=variant, max_steps=max_steps)
    naive = run_chase(kb, variant=variant, max_steps=max_steps, use_index=False)

    assert compiled.terminated == naive.terminated
    assert compiled.applications == naive.applications
    assert _rule_sequence(compiled) == _rule_sequence(naive)
    for fast_step, slow_step in zip(
        compiled.derivation.steps, naive.derivation.steps
    ):
        assert len(fast_step.instance) == len(slow_step.instance)
    assert isomorphic(compiled.final_instance, naive.final_instance)
    return compiled


@given(kb=kb_strategy(), variant=st.sampled_from(ChaseVariant.ALL))
@SETTINGS
def test_indexed_run_matches_naive_on_random_kbs(kb, variant):
    assert_equivalent_runs(kb, variant)


@given(kb=kb_strategy(), variant=st.sampled_from(ChaseVariant.ALL))
@SETTINGS
def test_trigger_index_pool_matches_rescan_on_random_kbs(kb, variant):
    """After every step of a compiled run, the maintained live pool must
    equal a from-scratch ``triggers()`` rescan of the step's instance —
    the "identical trigger sets" clause — and the active pool must be
    the live triggers the rescan finds unsatisfied, in pool order."""
    engine = ChaseEngine(kb, variant=variant)
    mismatches = []

    def on_step(step):
        for what in pool_mismatches(engine._index, kb.rules, step.instance):
            mismatches.append((step.index, what))

    engine.run(max_steps=MAX_STEPS, on_step=on_step)
    assert mismatches == []


class TestNamedWorkloads:
    """The paper's own examples, which exercise deep core retractions."""

    def test_staircase_core(self):
        assert_equivalent_runs(staircase_kb(), ChaseVariant.CORE, max_steps=14)

    def test_elevator_core(self):
        assert_equivalent_runs(elevator_kb(), ChaseVariant.CORE, max_steps=10)

    def test_elevator_restricted(self):
        assert_equivalent_runs(
            elevator_kb(), ChaseVariant.RESTRICTED, max_steps=12
        )

    def test_staircase_frugal(self):
        assert_equivalent_runs(staircase_kb(), ChaseVariant.FRUGAL, max_steps=12)


# ---------------------------------------------------------------------------
# checkpoints: export, JSON, restore, resume
# ---------------------------------------------------------------------------


def _through_json(state):
    return chase_state_from_obj(json.loads(json.dumps(chase_state_to_obj(state))))


def _active_keys(engine, index):
    """The engine's active set as read off *index*: the pool, less the
    already-applied triggers for the oblivious variants."""
    return {
        key
        for key, trigger in index._pool.items()
        if engine.variant not in (ChaseVariant.OBLIVIOUS, ChaseVariant.SEMI_OBLIVIOUS)
        or engine._memory_key(trigger) not in engine._applied_keys
    }


def _seeded_pool_mismatches(engine, instance):
    """Compare the (seeded) index of *engine* with one rebuilt from
    *instance*: the same active set, and for the tracked variants the
    pool of a rescan."""
    rebuilt = CompiledTriggerIndex(
        engine.kb.rules, instance, track_satisfaction=engine._index.track_satisfaction
    )
    found = []
    if _active_keys(engine, engine._index) != _active_keys(engine, rebuilt):
        found.append("active")
    if engine._index.track_satisfaction:
        found += pool_mismatches(engine._index, engine.kb.rules, instance)
    return found


def resume_through_json(kb, variant, state, extra):
    """Restore *state* (a checkpoint of *kb*'s *variant* chase, or an
    ancestor merge of one) through JSON and resume *extra* steps,
    checking the seeded index against a rebuilt one at the first step.
    Returns the engine and the resumed result."""
    engine = ChaseEngine(kb, variant=variant)
    engine.restore_state(_through_json(state))
    mismatches = []

    def on_step(step):
        if step.index == 1:
            mismatches.extend(_seeded_pool_mismatches(engine, step.instance))

    result = engine.resume(extra, on_step=on_step)
    assert mismatches == []
    return engine, result


def _resumed_with_a_rebuilt_index(kb, variant, state, extra):
    """*state* restored the way it was before restores were seeded:
    the first step enumerates the instance."""
    engine = ChaseEngine(kb, variant=variant)
    engine.restore_state(state)
    engine._seed = None
    return engine, engine.resume(extra)


def _same_steps(result, other, skip=0):
    return [step.instance for step in result.derivation.steps[1:]] == [
        step.instance for step in other.derivation.steps[skip + 1 :]
    ] and _rule_sequence(result) == _rule_sequence(other)[skip:]


@given(
    kb=kb_strategy(),
    variant=st.sampled_from(ChaseVariant.ALL),
    cut=st.integers(min_value=0, max_value=6),
    extra=st.integers(min_value=1, max_value=6),
)
@example(
    # A fresh core maintainer keeps the other of two equivalent copies
    # here unless the restore seeds it with the checkpoint's core.
    kb=random_kb(rule_count=1, fact_count=2, term_pool=5, seed=4155),
    variant=ChaseVariant.CORE,
    cut=1,
    extra=1,
)
@SETTINGS
def test_restored_checkpoint_resumes_like_a_straight_run(kb, variant, cut, extra):
    """Export at step *cut*, round-trip through JSON, restore, resume
    *extra* steps: the seeded index equals a rebuilt one after the
    first step, and the steps equal both those of the same checkpoint
    restored with a rebuilt index and those of ``run(cut + extra)``,
    atom for atom."""
    prefix = ChaseEngine(kb, variant=variant)
    prefix.run(max_steps=cut)
    state = prefix.export_state()
    engine, result = resume_through_json(kb, variant, state, extra)

    rebuilt, expected = _resumed_with_a_rebuilt_index(kb, variant, state, extra)
    assert _same_steps(result, expected)
    assert engine.current_instance == rebuilt.current_instance
    assert result.terminated == expected.terminated
    # the same triggers and ages; a rebuild enumerates in its own order
    assert dict(engine.export_state().active) == dict(
        rebuilt.export_state().active
    )
    straight = run_chase(kb, variant=variant, max_steps=cut + extra)
    done = state.applications
    assert _same_steps(result, straight, skip=done)
    assert done + result.applications == straight.applications
    assert engine.current_instance == straight.final_instance
    assert result.terminated == straight.terminated


def test_mid_cadence_core_state_records_its_delta_on_both_engines():
    """Between two retractions a core chase's state lists the atoms
    added since the last one, on the naive path as on the compiled one:
    a restore seeds its core maintainer with the instance minus them."""
    engines = [
        ChaseEngine(
            staircase_kb(),
            variant=ChaseVariant.CORE,
            core_every=3,
            use_index=use_index,
        )
        for use_index in (True, False)
    ]
    for engine in engines:
        engine.run(max_steps=5)
    compiled, naive = (engine.export_state() for engine in engines)
    assert compiled.applications_since_core == 2
    assert len(compiled.delta_since_core) == 3
    assert naive.delta_since_core == compiled.delta_since_core


class TestSeededRestores:
    #: Two rules produce e(c, _) atoms; R3 fires on each.  Chased alone,
    #: p(c) leaves e(c, _n0) and an active R3 trigger on it; merging
    #: s(c) makes the first resumed step add e(c, c), which folds _n0.
    RULES = "[R1] p(X) -> e(X, Y)\n[R2] s(X) -> e(X, X)\n[R3] e(X, Y) -> t(Y)"

    def _ancestor_and_grown(self):
        rules = parse_rules(self.RULES)
        ancestor = KnowledgeBase(parse_atoms("p(c)"), rules, name="ancestor")
        grown = KnowledgeBase(parse_atoms("p(c), s(c)"), rules, name="grown")
        engine = ChaseEngine(ancestor, variant=ChaseVariant.CORE)
        engine.run(max_steps=1)
        state = engine.export_state()
        assert [key[0] for key, _age in state.active] == ["R3"]
        new_facts = [at for at in grown.facts if at not in state.instance]
        return grown, merge_facts_into_state(state, new_facts)

    def test_first_resumed_step_after_an_ancestor_merge_retracts(self):
        grown, merged = self._ancestor_and_grown()
        engine, result = resume_through_json(
            grown, ChaseVariant.CORE, merged, 10
        )
        first = result.derivation.steps[1]
        assert first.trigger.rule.name == "R2"
        assert not first.is_identity_step()  # a transport right after the seed
        cold = run_chase(grown, variant=ChaseVariant.CORE, max_steps=10)
        assert result.terminated and cold.terminated
        assert engine.current_instance == cold.final_instance
        assert merged.applications + result.applications == cold.applications

    def test_merged_state_exported_before_its_first_step_round_trips(self):
        grown, merged = self._ancestor_and_grown()
        engine = ChaseEngine(grown, variant=ChaseVariant.CORE)
        engine.restore_state(merged)
        stopped = engine.resume(10, should_stop=lambda: True)
        assert stopped.stopped and stopped.applications == 0
        exported = engine.export_state()
        assert exported.active == merged.active
        assert exported.pending == merged.pending
        again, result = resume_through_json(
            grown, ChaseVariant.CORE, exported, 10
        )
        direct = ChaseEngine(grown, variant=ChaseVariant.CORE)
        direct.restore_state(merged)
        expected = direct.resume(10)
        assert again.current_instance == direct.current_instance
        assert _rule_sequence(result) == _rule_sequence(expected)
