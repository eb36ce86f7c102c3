"""Incremental maintenance of the trigger pool.

The naive engine re-derives every trigger of every rule from scratch
before each application — a full homomorphism enumeration per rule per
step, plus a satisfaction check per trigger for the restricted/core
variants.  This module replaces the rescan with delta-driven
maintenance of a *pool*: for the restricted, frugal and core variants
(``track_satisfaction``) their active triggers, those not satisfied in
the instance; for the oblivious variants every trigger.  Two
invariants of chase derivations keep the pool exact:

1. **Growth** (``F → F ∪ Δ``): a trigger of the grown instance either
   avoids ``Δ`` (it was already a trigger of ``F``) or sends a body atom
   onto a ``Δ``-atom — found by pinning each body atom onto each
   compatible ``Δ``-atom, re-matching only the rules whose body
   predicates meet ``Δ``'s.  Such a trigger is new, so it was never in
   the pool.  Satisfaction is monotone under growth, so a satisfied
   trigger stays satisfied; an active one needs a recheck only if some
   ``Δ``-atom *hosts* one of its head atoms — has the head atom's
   predicate and agrees with it at every position that the trigger's
   frontier image or a constant fixes.  The test is exact: a head
   witness in ``F ∪ Δ`` that is none in ``F`` sends some head atom onto
   a ``Δ``-atom, and that atom agrees with the frontier image.
2. **Retraction** (``F → σ(F)`` with ``σ`` a retraction of ``F``, i.e.
   an *idempotent* endomorphism): the triggers of ``σ(F)`` are exactly
   the transports ``σ ∘ π`` of the triggers of ``F`` (Section 3's
   transport, before Definition 3), and these are exactly the triggers
   of ``F`` that ``σ`` does not move — a retraction is the identity on
   the terms of its image.  Satisfaction transfers exactly: ``σ ∘ π``
   is satisfied in ``σ(F)`` iff it is satisfied in ``F`` — a witness in
   ``σ(F) ⊆ F`` is already one in ``F``, and conversely composing an
   ``F``-witness ``h ⊇ σ∘π`` with ``σ`` gives ``σ∘h ⊇ σ∘σ∘π = σ∘π``
   into ``σ(F)`` (idempotence).  So the pool of ``σ(F)`` is the pool of
   ``F`` less the triggers ``σ`` moves: a moved trigger folds onto
   ``σ ∘ π``, which is either a pool trigger that ``σ`` fixes (kept in
   place) or a satisfied one.  No homomorphism search is needed.

A trigger that leaves a tracked pool never returns: growth keeps its
witness, a retraction maps the witness ``h`` to ``σ∘h``, and a trigger
whose image a retraction removes holds a moved null, which is never
reused.  So the pool needs no memory of satisfied triggers, and a
checkpoint that stores the pool (``ChaseState.active``) restores it
without enumerating the instance.

:class:`TriggerIndex` keeps the pool and both maintenance rules; the
growth-step *discovery* (which triggers touch ``Δ``) is the compiled
join of its subclass,
:class:`~repro.chase.compiled_index.CompiledTriggerIndex`, the index
the engine builds.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from ..logic.atoms import Atom
from ..logic.atomset import AtomSet
from ..logic.rules import ExistentialRule
from ..logic.substitution import Substitution
from ..logic.terms import Variable
from .trigger import Trigger, triggers

__all__ = ["TriggerIndex"]

TriggerKey = tuple


class TriggerIndex:
    """The incrementally maintained trigger pool of an instance.

    A subclass supplies the growth-step discovery
    (:meth:`_delta_triggers`); everything else lives here.

    Parameters
    ----------
    rules:
        The rule set of the KB (iteration order is preserved; rule names
        must be unique, as :class:`repro.logic.rules.RuleSet` enforces).
    instance:
        The instance the pool belongs to.
    track_satisfaction:
        Keep only the triggers not satisfied in the instance (the
        active pool of the restricted, frugal and core variants);
        otherwise keep every trigger (the oblivious variants).
    active:
        Canonical keys (:meth:`key`) to seed the pool with, in pool
        order — a checkpoint's stored active set — instead of
        enumerating *instance* (:meth:`rebuild`).  Without satisfaction
        tracking the seeded pool holds only the triggers still active
        at the checkpoint; the oblivious memory keeps the applied ones
        inactive for good.
    """

    __slots__ = ("rules", "track_satisfaction", "_pool", "_heads")

    def __init__(
        self,
        rules: Iterable[ExistentialRule],
        instance: AtomSet,
        track_satisfaction: bool = True,
        active: Optional[Iterable[TriggerKey]] = None,
    ):
        self.rules = list(rules)
        self.track_satisfaction = track_satisfaction
        self._heads = {rule.name: _head_patterns(rule) for rule in self.rules}
        self._pool: dict[TriggerKey, Trigger] = {}
        if active is None:
            self.rebuild(instance)
        else:
            by_name = {rule.name: rule for rule in self.rules}
            for key in active:
                rule_name, image = key
                self._pool[key] = Trigger(by_name[rule_name], Substitution(dict(image)))

    @staticmethod
    def key(trigger: Trigger) -> TriggerKey:
        """Canonical identity of a trigger — shared with the engine's
        fair-scheduling age table."""
        return (trigger.rule.name, trigger.full_image())

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._pool)

    def unsatisfied_triggers(self) -> list[Trigger]:
        """The pool in pool order: the active triggers of the
        restricted/frugal/core variants, or every trigger when
        satisfaction is not tracked."""
        return list(self._pool.values())

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def rebuild(self, instance: AtomSet) -> None:
        """Recompute the pool from scratch (a cold start, and the
        correctness oracle differential tests compare against)."""
        self._pool.clear()
        for rule in self.rules:
            # Satisfaction depends on the frontier image alone, which
            # many triggers of a rule share: one head search per image.
            satisfied_frontiers: dict = {}
            for trigger in triggers(rule, instance):
                if self.track_satisfaction:
                    frontier = trigger.frontier_image()
                    satisfied = satisfied_frontiers.get(frontier)
                    if satisfied is None:
                        satisfied = trigger.is_satisfied_in(instance)
                        satisfied_frontiers[frontier] = satisfied
                    if satisfied:
                        continue
                self._pool[self.key(trigger)] = trigger

    def apply_delta(
        self,
        instance: AtomSet,
        delta: list[Atom],
        satisfied_hint: Optional[Trigger] = None,
    ) -> dict:
        """Absorb a growth step: *instance* is the post-application
        instance already containing the *delta* atoms (which must all be
        new).  *satisfied_hint* is a trigger the caller knows is
        satisfied now (the one just applied) — dropping it saves one
        search.  Returns maintenance statistics for telemetry.
        """
        pool = self._pool
        before = len(pool)
        rechecks = 0
        track = self.track_satisfaction
        if track:
            if satisfied_hint is not None:
                pool.pop(self.key(satisfied_hint), None)
            hosts: dict = {}
            for at in delta:
                hosts.setdefault(at.predicate, []).append(at.args)
            # Satisfaction is monotone: a pool trigger can only have
            # flipped if a delta atom hosts one of its head atoms (see
            # the module docstring).
            flipped = []
            for key, trigger in pool.items():
                if self._hosted(trigger, hosts):
                    rechecks += 1
                    if trigger.is_satisfied_in(instance):
                        flipped.append(key)
            for key in flipped:
                del pool[key]
        new = 0
        for trigger in self._delta_triggers(instance, delta):
            new += 1
            if track:
                rechecks += 1
                if trigger.is_satisfied_in(instance):
                    continue
            pool[self.key(trigger)] = trigger
        return {
            "delta_atoms": len(delta),
            "triggers_new": new,
            "triggers_reused": before,
            "satisfaction_rechecks": rechecks,
        }

    def _hosted(self, trigger: Trigger, hosts: dict) -> bool:
        """True iff some delta atom (*hosts*: predicate → argument
        tuples) hosts a head atom of *trigger*'s rule: it agrees with
        the head atom wherever the frontier image or a constant fixes a
        position."""
        mapping = trigger.mapping
        for predicate, fixed in self._heads[trigger.rule.name]:
            candidates = hosts.get(predicate)
            if candidates is None:
                continue
            wanted = [
                (position, mapping[term] if bound else term)
                for position, term, bound in fixed
            ]
            for args in candidates:
                if all(args[position] == term for position, term in wanted):
                    return True
        return False

    def _delta_triggers(
        self, instance: AtomSet, delta: list[Atom]
    ) -> Iterator[Trigger]:
        """The triggers of *instance* that send some body atom onto a
        *delta* atom, each body mapping once — the growth step's
        discovery, which the subclass implements."""
        raise NotImplementedError

    def transport(self, simplification: Substitution) -> dict:
        """Absorb a retraction step: carry the pool through the
        simplification ``σ`` — which must be a genuine retraction
        (idempotent endomorphism) of the pre-instance, as everything the
        engine produces is.  The triggers ``σ`` moves leave the pool and
        the rest stay in order; no matching and no satisfaction test is
        needed — see the module docstring.  Returns statistics.
        """
        moving = simplification.drop_trivial().domain()
        old = self._pool
        self._pool = {
            key: trigger
            for key, trigger in old.items()
            if not any(term in moving for _var, term in key[1])
        }
        return {
            "transported": len(old),
            "collapsed": len(old) - len(self._pool),
        }


def _head_patterns(rule: ExistentialRule) -> list:
    """Per head atom of *rule*: its predicate and the positions a
    trigger fixes, as ``(position, term, bound)`` — *bound* when the
    term is a frontier variable (fixed by the trigger's image), else a
    constant.  Existential positions fix nothing."""
    frontier = rule.frontier
    return [
        (
            at.predicate,
            tuple(
                (position, term, term in frontier)
                for position, term in enumerate(at.args)
                if term in frontier or not isinstance(term, Variable)
            ),
        )
        for at in rule.head.sorted_atoms()
    ]
