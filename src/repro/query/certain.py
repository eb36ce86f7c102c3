"""Certain answers under existential rules.

A tuple of constants is a *certain answer* to a CQ with answer variables
iff the Boolean query obtained by instantiating the answer variables
with the tuple is entailed by the KB — equivalently, iff the tuple is an
answer over every model.  Over a (finitely) universal model this reduces
to: the tuple is an answer whose values are all constants (nulls are
model-specific and never certain).

Two evaluation routes are provided:

* :func:`certain_answers_over` — against a *given* universal structure
  (a terminated chase result, or any universal prefix for a sound
  under-approximation): enumerate answers, keep the all-constant ones;
* :func:`certain_answers` — against a KB directly: enumerate candidate
  tuples over the active domain (the constants of facts and rules) and
  decide each instantiated Boolean query with the Theorem-1 race.

The races of :func:`certain_answers` re-chase the *same* KB once per
candidate and share nothing: each pays for its own chase prefix and
query probes.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, Optional

from ..logic.atomset import AtomSet
from ..logic.kb import KnowledgeBase
from ..logic.substitution import Substitution
from ..logic.terms import Constant
from .cq import ConjunctiveQuery
from .entailment import decide_entailment

__all__ = ["certain_answers_over", "certain_answers", "active_domain"]


def active_domain(kb: KnowledgeBase) -> list[Constant]:
    """The constants of the KB (facts and rules), sorted by name."""
    constants = set(kb.facts.constants())
    for rule in kb.rules:
        constants |= rule.constants()
    return sorted(constants, key=lambda c: c.name)


def certain_answers_over(
    query: ConjunctiveQuery, universal: AtomSet
) -> Iterator[tuple[Constant, ...]]:
    """Certain answers read off a universal (or finitely universal)
    structure: answers whose values are all constants.

    If *universal* is only a chase *prefix*, the result is a sound
    under-approximation (prefixes are universal, so every emitted tuple
    is certain; more may appear as the prefix grows).
    """
    if not query.answer_variables:
        raise ValueError("certain answers need answer variables; use holds_in")
    for answer in query.answers(universal):
        if all(isinstance(term, Constant) for term in answer):
            yield answer  # type: ignore[misc]


def certain_answers(
    kb: KnowledgeBase,
    query: ConjunctiveQuery,
    chase_budget: int = 100,
    model_domain_budget: int = 6,
    candidates: Optional[Iterable[tuple[Constant, ...]]] = None,
) -> dict[tuple[Constant, ...], Optional[bool]]:
    """Decide, per candidate tuple, whether it is a certain answer.

    Candidates default to all tuples over the active domain.  Returns a
    mapping tuple -> True / False / None (None when the race stayed
    undecided within its budgets).
    """
    if not query.answer_variables:
        raise ValueError("certain answers need answer variables")
    domain = active_domain(kb)
    if candidates is None:
        candidates = product(domain, repeat=len(query.answer_variables))
    verdicts: dict[tuple[Constant, ...], Optional[bool]] = {}
    for candidate in candidates:
        binding = Substitution(
            dict(zip(query.answer_variables, candidate))
        )
        instantiated = ConjunctiveQuery(
            binding.apply(query.atoms), name=f"{query.name or 'q'}{candidate}"
        )
        verdict = decide_entailment(
            kb,
            instantiated,
            chase_budget=chase_budget,
            model_domain_budget=model_domain_budget,
        )
        verdicts[tuple(candidate)] = verdict.entailed
    return verdicts
