"""Incremental maintenance of the live-trigger pool.

The naive engine re-derives every trigger of every rule from scratch
before each application — a full homomorphism enumeration per rule per
step, plus a satisfaction check per trigger for the restricted/core
variants.  This module replaces the rescan with delta-driven
maintenance built on two invariants of chase derivations:

1. **Growth** (``F → F ∪ Δ``): a trigger of the grown instance either
   avoids ``Δ`` (it was already live) or sends a body atom onto a
   ``Δ``-atom — found by pinning each body atom onto each compatible
   ``Δ``-atom, re-matching only the rules whose body predicates meet
   ``Δ``'s.  Satisfaction is monotone under growth, so a satisfied
   trigger stays satisfied; an old unsatisfied one needs a recheck only
   if some ``Δ``-atom *hosts* one of its head atoms — has the head
   atom's predicate and agrees with it at every position that the
   trigger's frontier image or a constant fixes.  The test is exact: a
   head witness in ``F ∪ Δ`` that is none in ``F`` sends some head atom
   onto a ``Δ``-atom, and that atom agrees with the frontier image.
2. **Retraction** (``F → σ(F)`` with ``σ`` a retraction of ``F``, i.e.
   an *idempotent* endomorphism): the triggers of ``σ(F)`` are exactly
   the transports ``σ ∘ π`` of the triggers of ``F`` (Section 3's
   transport, before Definition 3) — a retraction is the identity on
   the terms of its image, so a trigger that already lives inside
   ``σ(F)`` is its own transport, and every transport lands inside
   ``σ(F)``.  Satisfaction transfers exactly, with no re-testing:
   ``σ ∘ π`` is itself an (old) trigger of ``F``, and ``σ ∘ π`` is
   satisfied in ``σ(F)`` iff it was satisfied in ``F`` — a witness in
   ``σ(F) ⊆ F`` is already one in ``F``, and conversely composing an
   ``F``-witness ``h ⊇ σ∘π`` with ``σ`` gives ``σ∘h ⊇ σ∘σ∘π = σ∘π``
   into ``σ(F)`` (idempotence).  Keeping the union of the old satisfied
   marks across key collapses is therefore both sound and complete.

Together these make the live pool — and the unsatisfied subset, the
active pool of the restricted/core variants — maintainable without ever
re-enumerating a rule whose neighbourhood did not change.  The
unsatisfied subset is kept as a map of its own in pool order, so
reading the active pool and absorbing a growth step cost the active
triggers, not the whole live pool.

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
    """The incrementally maintained set of live triggers of an instance.

    A subclass supplies the growth-step discovery
    (:meth:`_delta_triggers`); everything else lives here.

    Parameters
    ----------
    rules:
        The rule set of the KB (iteration order is preserved; rule names
        must be unique, as :class:`repro.logic.rules.RuleSet` enforces).
    instance:
        The instance to build the initial pool from.
    track_satisfaction:
        Maintain the satisfied subset (needed by the restricted, frugal
        and core variants; the oblivious variants never ask).
    """

    __slots__ = (
        "rules", "track_satisfaction", "_live", "_satisfied", "_unsatisfied",
        "_heads",
    )

    def __init__(
        self,
        rules: Iterable[ExistentialRule],
        instance: AtomSet,
        track_satisfaction: bool = True,
    ):
        self.rules = list(rules)
        self.track_satisfaction = track_satisfaction
        self._heads = {rule.name: _head_patterns(rule) for rule in self.rules}
        self._live: dict[TriggerKey, Trigger] = {}
        self._satisfied: set[TriggerKey] = set()
        #: The live triggers not known satisfied, in ``_live`` order
        #: (kept only when tracking satisfaction).
        self._unsatisfied: dict[TriggerKey, Trigger] = {}
        self.rebuild(instance)

    @staticmethod
    def key(trigger: Trigger) -> TriggerKey:
        """Canonical identity of a trigger — shared with the engine's
        fair-scheduling age table."""
        return (trigger.rule.name, trigger.full_image())

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._live)

    def live_triggers(self) -> list[Trigger]:
        """Every trigger of the current instance."""
        return list(self._live.values())

    def unsatisfied_triggers(self) -> list[Trigger]:
        """The live triggers not known satisfied — the active pool of
        the restricted/frugal/core variants — in pool order."""
        if not self.track_satisfaction:
            return list(self._live.values())
        return list(self._unsatisfied.values())

    def is_satisfied(self, trigger: Trigger) -> bool:
        """True iff the index has *trigger* marked satisfied."""
        return self.key(trigger) in self._satisfied

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def rebuild(self, instance: AtomSet) -> None:
        """Recompute the pool from scratch (initialisation, and the
        fallback correctness oracle differential tests compare against).
        """
        self._live.clear()
        self._satisfied.clear()
        self._unsatisfied.clear()
        for rule in self.rules:
            # Satisfaction depends on the frontier image alone, which
            # many triggers of a rule share: one head search per image.
            satisfied_frontiers: dict = {}
            for trigger in triggers(rule, instance):
                key = self.key(trigger)
                self._live[key] = trigger
                if not self.track_satisfaction:
                    continue
                frontier = trigger.frontier_image()
                satisfied = satisfied_frontiers.get(frontier)
                if satisfied is None:
                    satisfied = trigger.is_satisfied_in(instance)
                    satisfied_frontiers[frontier] = satisfied
                if satisfied:
                    self._satisfied.add(key)
                else:
                    self._unsatisfied[key] = trigger

    def apply_delta(
        self,
        instance: AtomSet,
        delta: list[Atom],
        satisfied_hint: Optional[Trigger] = None,
    ) -> dict:
        """Absorb a growth step: *instance* is the post-application
        instance already containing the *delta* atoms (which must all be
        new).  *satisfied_hint* is a trigger the caller knows is
        satisfied now (the one just applied) — marking it saves one
        search.  Returns maintenance statistics for telemetry.
        """
        live = self._live
        before = len(live)
        fresh: list[tuple[TriggerKey, Trigger]] = []
        for trigger in self._delta_triggers(instance, delta):
            key = self.key(trigger)
            if key not in live:
                live[key] = trigger
                fresh.append((key, trigger))
        rechecks = 0
        if self.track_satisfaction:
            satisfied = self._satisfied
            unsatisfied = self._unsatisfied
            if satisfied_hint is not None:
                key = self.key(satisfied_hint)
                satisfied.add(key)
                unsatisfied.pop(key, None)
            hosts: dict = {}
            for at in delta:
                hosts.setdefault(at.predicate, []).append(at.args)
            # Satisfaction is monotone: an old unsatisfied trigger can
            # only have flipped if a delta atom hosts one of its head
            # atoms (see the module docstring).
            flipped = []
            for key, trigger in unsatisfied.items():
                if self._hosted(trigger, hosts):
                    rechecks += 1
                    if trigger.is_satisfied_in(instance):
                        flipped.append(key)
            for key in flipped:
                satisfied.add(key)
                del unsatisfied[key]
            for key, trigger in fresh:
                if key in satisfied:
                    continue
                rechecks += 1
                if trigger.is_satisfied_in(instance):
                    satisfied.add(key)
                else:
                    unsatisfied[key] = trigger
        return {
            "delta_atoms": len(delta),
            "triggers_new": len(fresh),
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
        """Absorb a retraction step: carry every live trigger through the
        simplification ``σ`` — which must be a genuine retraction
        (idempotent endomorphism) of the pre-instance, as everything the
        engine produces is.  No re-matching and no satisfaction
        re-testing is needed — see the module docstring.  Returns
        statistics.
        """
        old_live = self._live
        old_satisfied = self._satisfied
        self._live = {}
        self._satisfied = set()
        for key, trigger in old_live.items():
            moved = trigger.transport(simplification)
            moved_key = self.key(moved)
            if moved_key not in self._live:
                self._live[moved_key] = moved
            if key in old_satisfied:
                self._satisfied.add(moved_key)
        if self.track_satisfaction:
            # Collapsing keys union their marks, so the unsatisfied map
            # is refilled once the marks are final.
            self._unsatisfied = {
                key: trigger
                for key, trigger in self._live.items()
                if key not in self._satisfied
            }
        return {
            "transported": len(old_live),
            "collapsed": len(old_live) - len(self._live),
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
