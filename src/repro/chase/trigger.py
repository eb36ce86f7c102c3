"""Triggers and rule application.

Given an instance ``I`` and a rule ``B → H``, a *trigger* is a pair
``(R, π)`` with ``π`` a homomorphism from ``B`` to ``I``; it is
*satisfied* in ``I`` if ``π`` extends to a homomorphism from ``B ∪ H`` to
``I`` (Section 2).  Applying a trigger produces
``α(I, tr) = I ∪ π_safe(H)`` where ``π_safe`` maps frontier variables
like ``π`` and existential variables to fresh nulls.

Activity notions per chase variant (Section 3) are also defined here:

* oblivious — every not-yet-applied trigger is active;
* semi-oblivious (skolem) — active unless a trigger with the same rule
  and the same *frontier* image was already applied;
* restricted / core — active iff not satisfied in the current instance.
"""

from __future__ import annotations

from typing import Iterator

from ..logic.atomset import AtomSet
from ..logic.homomorphism import find_homomorphism, homomorphisms
from ..logic.rules import ExistentialRule
from ..logic.substitution import Substitution
from ..logic.terms import FreshVariableSource, Term, Variable

__all__ = [
    "Trigger",
    "triggers",
    "unsatisfied_triggers",
    "apply_trigger",
]


class Trigger:
    """A trigger ``(R, π)``; ``mapping`` is ``π`` with exactly the body
    variables of ``R`` in its domain."""

    __slots__ = ("rule", "mapping", "_full", "_frontier", "_sort")

    def __init__(self, rule: ExistentialRule, mapping: Substitution):
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "mapping", mapping.restrict(rule.body.variables()))
        # Image keys are pure functions of (rule, mapping) — both frozen
        # — and the trigger index recomputes them on every maintenance
        # pass, so they are cached on first use.
        object.__setattr__(self, "_full", None)
        object.__setattr__(self, "_frontier", None)
        object.__setattr__(self, "_sort", None)

    def __setattr__(self, key, value):  # pragma: no cover - defensive
        raise AttributeError("Trigger is immutable")

    # ------------------------------------------------------------------

    def is_trigger_for(self, instance: AtomSet) -> bool:
        """True iff ``π`` maps the body into *instance*."""
        return self.mapping.is_homomorphism(self.rule.body, instance)

    def is_satisfied_in(self, instance: AtomSet) -> bool:
        """True iff ``π`` extends to a homomorphism of body ∪ head.

        Only the head needs extending: the body is already mapped by
        ``π``, so we search for a homomorphism of the head with the
        frontier images pinned.
        """
        pinned = self.mapping.restrict(self.rule.frontier)
        return (
            find_homomorphism(self.rule.head, instance, partial=pinned) is not None
        )

    def frontier_image(self) -> tuple[tuple[Variable, Term], ...]:
        """The frontier restriction of ``π`` as a canonical key — the
        identity notion of the semi-oblivious chase."""
        cached = self._frontier
        if cached is None:
            cached = tuple(
                sorted(
                    ((v, self.mapping[v]) for v in self.rule.frontier),
                    key=lambda pair: pair[0].name,
                )
            )
            object.__setattr__(self, "_frontier", cached)
        return cached

    def full_image(self) -> tuple[tuple[Variable, Term], ...]:
        """The whole of ``π`` as a canonical key — the identity notion of
        the oblivious chase."""
        cached = self._full
        if cached is None:
            cached = tuple(
                sorted(self.mapping.items(), key=lambda pair: pair[0].name)
            )
            object.__setattr__(self, "_full", cached)
        return cached

    def transport(self, simplification: Substitution) -> "Trigger":
        """``σ(tr) = (R, σ ∘ π)`` — how triggers travel along
        simplifications (Section 3, before Definition 3)."""
        return Trigger(self.rule, simplification.compose(self.mapping))

    def sort_key(self) -> tuple:
        """Deterministic order for fair scheduling."""
        cached = self._sort
        if cached is None:
            cached = (
                self.rule.name or "",
                tuple((v.name, t.name) for v, t in self.full_image()),
            )
            object.__setattr__(self, "_sort", cached)
        return cached

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Trigger)
            and other.rule == self.rule
            and other.mapping == self.mapping
        )

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return hash((self.rule, self.mapping))

    def __repr__(self) -> str:
        return f"Trigger({self.rule.name}, {self.mapping})"


def triggers(rule: ExistentialRule, instance: AtomSet) -> Iterator[Trigger]:
    """All triggers of *rule* on *instance*, in deterministic order."""
    found = [
        Trigger(rule, hom) for hom in homomorphisms(rule.body, instance)
    ]
    found.sort(key=Trigger.sort_key)
    return iter(found)


def unsatisfied_triggers(
    rule: ExistentialRule, instance: AtomSet
) -> Iterator[Trigger]:
    """The triggers of *rule* on *instance* that are not satisfied there
    (the active triggers of the restricted/core chase)."""
    for trigger in triggers(rule, instance):
        if not trigger.is_satisfied_in(instance):
            yield trigger


def apply_trigger(
    instance: AtomSet,
    trigger: Trigger,
    fresh: FreshVariableSource,
) -> tuple[AtomSet, Substitution]:
    """``α(I, tr)``: apply *trigger* to *instance*.

    Returns the new instance (a fresh :class:`AtomSet`; the input is not
    mutated) and the safe substitution ``π_safe`` used, whose domain is
    frontier ∪ existential variables of the rule.
    """
    rule = trigger.rule
    safe_map: dict[Variable, Term] = {}
    for var in rule.frontier:
        safe_map[var] = trigger.mapping.apply_term(var)
    for var in sorted(rule.existential, key=lambda v: v.name):
        safe_map[var] = fresh.fresh(hint=var)
    pi_safe = Substitution(safe_map)
    result = instance.copy()
    result.update(pi_safe.apply_atom(at) for at in rule.head.sorted_atoms())
    return result, pi_safe
