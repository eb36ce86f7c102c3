"""Unit tests for the incremental trigger index — in particular its
behaviour under core retraction."""

import pytest

from repro.chase.compiled_index import CompiledTriggerIndex
from repro.chase.engine import ChaseEngine, ChaseVariant
from repro.chase.trigger import Trigger, apply_trigger, triggers
from repro.chase.trigger_index import TriggerIndex
from repro.kbs.elevator import elevator_kb
from repro.kbs.generators import random_kb
from repro.kbs.witnesses import transitive_closure_kb
from repro.logic.kb import KnowledgeBase
from repro.logic.parser import parse_atoms, parse_rules
from repro.logic.substitution import Substitution
from repro.logic.terms import FreshVariableSource
from repro.obs.observer import Observer


def rescan(rules, instance):
    """The naive trigger pool the index must always agree with."""
    return {
        TriggerIndex.key(trigger)
        for rule in rules
        for trigger in triggers(rule, instance)
    }


def rescan_unsatisfied(rules, instance):
    """The active pool of the restricted/frugal/core variants."""
    return {
        TriggerIndex.key(trigger)
        for rule in rules
        for trigger in triggers(rule, instance)
        if not trigger.is_satisfied_in(instance)
    }


def pool_mismatches(index, rules, instance):
    """How the maintained pool differs from a rescan of *instance*.  A
    tracked pool (restricted, frugal, core) must hold exactly the
    triggers the rescan finds unsatisfied, an untracked one (the
    oblivious variants) every trigger; ``unsatisfied_triggers()`` reads
    the pool in order, each trigger under its own key."""
    found = []
    if index.track_satisfaction:
        expected = rescan_unsatisfied(rules, instance)
    else:
        expected = rescan(rules, instance)
    if set(index._pool) != expected:
        found.append("pool")
    keys = [TriggerIndex.key(tr) for tr in index.unsatisfied_triggers()]
    if keys != list(index._pool):
        found.append("keys")
    return found


def grow(index, instance, delta_text):
    """Add the atoms of *delta_text* to *instance*, let *index* (an
    untracked one, which keeps every trigger) absorb them, and return
    the triggers ``apply_delta`` added to the pool."""
    before = set(index._pool)
    delta = list(parse_atoms(delta_text))
    for at in delta:
        instance.add(at)
    stats = index.apply_delta(instance, delta)
    added = [trigger for key, trigger in index._pool.items() if key not in before]
    assert stats["triggers_new"] == len(added)
    return added


class TestTriggersFromDelta:
    """The growth step's discovery: ``apply_delta`` adds exactly the
    triggers whose body image uses a delta atom."""

    def test_finds_exactly_the_delta_touching_triggers(self):
        rules = parse_rules("[R] e(X, Y), e(Y, Z) -> e(X, Z)")
        rule = rules[0]
        instance = parse_atoms("e(a, b), e(b, c)").copy()
        old = {tr.mapping for tr in triggers(rule, instance)}
        index = CompiledTriggerIndex(rules, instance, track_satisfaction=False)
        from_delta = {tr.mapping for tr in grow(index, instance, "e(c, d)")}
        rescanned = {tr.mapping for tr in triggers(rule, instance)}
        assert old | from_delta == rescanned
        assert all(mapping not in old for mapping in from_delta)

    def test_repeated_variable_unification_respects_equality(self):
        rules = parse_rules("[R] e(X, X) -> p(X, X)")
        instance = parse_atoms("e(a, b)").copy()
        index = CompiledTriggerIndex(rules, instance, track_satisfaction=False)
        assert len(index) == 0
        found = grow(index, instance, "e(c, c)")
        assert len(found) == 1
        ((_, image),) = list(found[0].mapping.items())
        assert image.name == "c"


class TestTriggerIndexMaintenance:
    def step_and_check(self, kb, variant, max_steps=8):
        """Drive the index through an actual engine run, rescanning the
        pool from scratch after every recorded step."""
        engine = ChaseEngine(kb, variant=variant)
        mismatches = []

        def on_step(step):
            index = getattr(engine, "_index", None)
            if index is None or step.index == 0:
                return
            for what in pool_mismatches(index, kb.rules, step.instance):
                mismatches.append((step.index, what))

        engine.run(max_steps=max_steps, on_step=on_step)
        assert mismatches == []

    @pytest.mark.parametrize(
        "variant",
        [
            ChaseVariant.OBLIVIOUS,
            ChaseVariant.SEMI_OBLIVIOUS,
            ChaseVariant.RESTRICTED,
            ChaseVariant.FRUGAL,
            ChaseVariant.CORE,
        ],
    )
    def test_pool_tracks_rescan_on_random_kbs(self, variant):
        for seed in range(6):
            kb = random_kb(rule_count=3, fact_count=5, term_pool=3, seed=seed)
            self.step_and_check(kb, variant)

    def test_pool_tracks_rescan_on_elevator_core(self):
        self.step_and_check(elevator_kb(), ChaseVariant.CORE, max_steps=10)

    # The host filter's branches: an old unsatisfied trigger is
    # rechecked only when a delta atom agrees with one of its head atoms
    # at every frontier-image and constant position.
    HOST_FILTER_KBS = {
        # q(a, b) must not host B's head q(X, c) under X = a; q(a, c)
        # then does.
        "head-constant": (
            "s(a, b), s(a, c), p(a)",
            "[A] s(X, Y) -> q(X, Y)\n[B] p(X) -> q(X, c)",
        ),
        # r(b, b) hosts r(Y, Y), which no position fixes, but not
        # r(X, Y) under X = a.
        "repeated-existential": (
            "p(a), r(a, b), t(b)",
            "[A] t(Z) -> r(Z, Z)\n[B] p(X) -> r(X, Y), r(Y, Y)",
        ),
        # u(N, a) hosts the second head atom u(Y, X) under X = a.
        "second-head-atom": (
            "p(a), s(a, N), w(N, a)",
            "[A] w(Z, X) -> u(Z, X)\n[B] p(X) -> s(X, Y), u(Y, X)",
        ),
    }

    @pytest.mark.parametrize("variant", [ChaseVariant.RESTRICTED, ChaseVariant.CORE])
    @pytest.mark.parametrize("name", sorted(HOST_FILTER_KBS))
    def test_pool_tracks_rescan_on_host_filter_kbs(self, name, variant):
        facts, rules = self.HOST_FILTER_KBS[name]
        kb = KnowledgeBase(parse_atoms(facts), parse_rules(rules), name=name)
        self.step_and_check(kb, variant)

    def test_unhosted_delta_rechecks_nothing_old(self):
        rules = parse_rules("[B] p(X) -> q(X, c)")
        instance = parse_atoms("p(a)").copy()
        index = CompiledTriggerIndex(rules, instance)
        assert len(index.unsatisfied_triggers()) == 1
        delta = list(parse_atoms("q(a, b)"))
        instance.update(delta)
        assert index.apply_delta(instance, delta)["satisfaction_rechecks"] == 0
        delta = list(parse_atoms("q(a, c)"))
        instance.update(delta)
        assert index.apply_delta(instance, delta)["satisfaction_rechecks"] == 1
        assert index.unsatisfied_triggers() == []

    def test_rechecks_stay_near_the_new_triggers(self):
        """Restricted to its fixpoint, ``transitive_closure_kb(10)``
        takes 45 applications and finds 156 new triggers.  The host
        filter needs 276 satisfaction checks; a filter on shared head
        predicates alone would recheck every unsatisfied trigger of the
        chain rule at every step, 1,587 checks."""

        class Counts(Observer):
            new = rechecks = 0

            def emit(self, kind, **fields):
                if kind == "trigger_index_update":
                    self.new += fields["triggers_new"]
                    self.rechecks += fields["satisfaction_rechecks"]

        counts = Counts()
        engine = ChaseEngine(
            transitive_closure_kb(10),
            variant=ChaseVariant.RESTRICTED,
            observer=counts,
        )
        result = engine.run(max_steps=1000)
        assert result.terminated and result.applications == 45
        assert counts.new == 156
        assert counts.rechecks <= 2 * counts.new

    def test_transport_collapse_adopts_the_counterpart_satisfaction(self):
        """Folding an active trigger's frontier onto better-served terms
        collapses it onto its satisfied counterpart: the moved trigger
        must leave the pool, exactly as a from-scratch recomputation
        would find, with no satisfaction test."""
        rules = parse_rules("[R] p(X) -> q(X, Y)")
        rule = rules[0]
        instance = parse_atoms("p(N1), p(b), q(b, c)").copy()
        index = CompiledTriggerIndex([rule], instance, track_satisfaction=True)
        assert len(index) == 1  # the N1 trigger; the b one is satisfied
        n1 = next(iter(parse_atoms("p(N1)").variables()))
        b = next(iter(parse_atoms("p(b)").constants()))
        sigma = Substitution({n1: b})
        retracted = sigma.apply(instance)
        stats = index.transport(sigma)
        assert stats["transported"] == 1
        assert stats["collapsed"] == 1
        assert pool_mismatches(index, [rule], retracted) == []
        assert index.unsatisfied_triggers() == []

    def test_transport_keeps_the_active_triggers_it_does_not_move(self):
        """A trigger the retraction fixes stays active, in place, and a
        moved one folding onto it leaves the pool."""
        rules = parse_rules("[R] p(X, Y) -> q(X, Z)")
        rule = rules[0]
        instance = parse_atoms("p(a, N1), p(a, b), p(c, b)").copy()
        index = CompiledTriggerIndex([rule], instance)
        assert len(index) == 3
        n1 = next(iter(parse_atoms("p(N1)").variables()))
        b = next(iter(parse_atoms("p(b)").constants()))
        sigma = Substitution({n1: b})
        kept = [
            TriggerIndex.key(tr)
            for tr in index.unsatisfied_triggers()
            if n1 not in tr.mapping.image()
        ]
        stats = index.transport(sigma)
        assert stats == {"transported": 3, "collapsed": 1}
        assert list(index._pool) == kept
        assert pool_mismatches(index, [rule], sigma.apply(instance)) == []

    def test_apply_delta_matches_manual_application(self):
        kb = random_kb(rule_count=2, fact_count=4, seed=2)
        instance = kb.facts.copy()
        index = CompiledTriggerIndex(kb.rules, instance)
        fresh = FreshVariableSource(prefix="_t")
        pool = index.unsatisfied_triggers()
        assert pool, "seed 2 is known to produce active triggers"
        chosen = sorted(pool, key=Trigger.sort_key)[0]
        grown, pi_safe = apply_trigger(instance, chosen, fresh)
        delta = [
            at
            for at in sorted(
                {pi_safe.apply_atom(h) for h in chosen.rule.head.sorted_atoms()},
                key=lambda a: a.sort_key(),
            )
            if at not in instance
        ]
        stats = index.apply_delta(grown, delta, satisfied_hint=chosen)
        assert stats["delta_atoms"] == len(delta)
        assert pool_mismatches(index, kb.rules, grown) == []
