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
   trigger stays satisfied; an unsatisfied one needs a recheck only if
   the new atoms could host the head image, i.e. only if the rule's
   *head* predicates meet ``Δ``'s.
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

Together these make the live pool — and the satisfied subset the
restricted/core variants filter on — maintainable without ever
re-enumerating a rule whose neighbourhood did not change.

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

    __slots__ = ("rules", "track_satisfaction", "_live", "_satisfied", "_head_preds")

    def __init__(
        self,
        rules: Iterable[ExistentialRule],
        instance: AtomSet,
        track_satisfaction: bool = True,
    ):
        self.rules = list(rules)
        self.track_satisfaction = track_satisfaction
        self._head_preds = {
            rule.name: rule.head.predicates() for rule in self.rules
        }
        self._live: dict[TriggerKey, Trigger] = {}
        self._satisfied: set[TriggerKey] = set()
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
        the restricted/frugal/core variants."""
        satisfied = self._satisfied
        return [
            trigger
            for key, trigger in self._live.items()
            if key not in satisfied
        ]

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
        for rule in self.rules:
            for trigger in triggers(rule, instance):
                key = self.key(trigger)
                self._live[key] = trigger
                if self.track_satisfaction and trigger.is_satisfied_in(instance):
                    self._satisfied.add(key)

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
        before = len(self._live)
        new_keys: set[TriggerKey] = set()
        for trigger in self._delta_triggers(instance, delta):
            key = self.key(trigger)
            if key not in self._live:
                self._live[key] = trigger
                new_keys.add(key)
        rechecks = 0
        if self.track_satisfaction:
            if satisfied_hint is not None:
                self._satisfied.add(self.key(satisfied_hint))
            delta_preds = {at.predicate for at in delta}
            for key, trigger in self._live.items():
                if key in self._satisfied:
                    continue
                fresh = key in new_keys
                if not fresh and not (
                    self._head_preds[key[0]] & delta_preds
                ):
                    # Satisfaction is monotone: an old unsatisfied
                    # trigger can only have flipped if the delta can
                    # host part of its head image.
                    continue
                rechecks += 1
                if trigger.is_satisfied_in(instance):
                    self._satisfied.add(key)
        return {
            "delta_atoms": len(delta),
            "triggers_new": len(new_keys),
            "triggers_reused": before,
            "satisfaction_rechecks": rechecks,
        }

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
        return {
            "transported": len(old_live),
            "collapsed": len(old_live) - len(self._live),
        }
