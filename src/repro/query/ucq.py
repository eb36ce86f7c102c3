"""Unions of conjunctive queries.

UCQs are preserved under homomorphisms just like CQs, so everything the
library does with a single CQ lifts disjunct-wise: a UCQ holds in an
instance iff some disjunct does, and ``K ⊨ Q₁ ∨ ... ∨ Qₙ`` over a
universal (or finitely universal) model reduces to per-disjunct tests.

Note the asymmetry for the decision race: the "yes" side is settled by
any single disjunct hitting, while a countermodel must avoid **all**
disjuncts simultaneously — :func:`decide_union_entailment` wires both
sides correctly instead of naively OR-ing per-disjunct verdicts (a
per-disjunct countermodel would be unsound: different disjuncts could be
refuted by different models while the union is still entailed).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..chase.engine import ChaseVariant, run_chase
from ..logic.atomset import AtomSet
from ..logic.kb import KnowledgeBase
from .cq import ConjunctiveQuery
from .entailment import EntailmentVerdict
from .modelfinder import find_countermodel

__all__ = ["UnionQuery", "decide_union_entailment"]


class UnionQuery:
    """A finite union (disjunction) of Boolean conjunctive queries."""

    __slots__ = ("disjuncts", "name")

    def __init__(
        self, disjuncts: Sequence[ConjunctiveQuery], name: Optional[str] = None
    ):
        disjunct_list = list(disjuncts)
        if not disjunct_list:
            raise ValueError("a union query needs at least one disjunct")
        for disjunct in disjunct_list:
            if not disjunct.is_boolean:
                raise ValueError("union queries are Boolean; drop answer variables")
        object.__setattr__(self, "disjuncts", tuple(disjunct_list))
        object.__setattr__(self, "name", name)

    def __setattr__(self, key, value):  # pragma: no cover - defensive
        raise AttributeError("UnionQuery is immutable")

    def __len__(self) -> int:
        return len(self.disjuncts)

    def holds_in(self, instance: AtomSet) -> bool:
        """True iff some disjunct maps into *instance*."""
        return any(disjunct.holds_in(instance) for disjunct in self.disjuncts)

    def __repr__(self) -> str:
        label = f"{self.name}: " if self.name else ""
        return f"UCQ({label}{' OR '.join(str(d.atoms) for d in self.disjuncts)})"


def decide_union_entailment(
    kb: KnowledgeBase,
    query: UnionQuery,
    chase_budget: int = 200,
    model_domain_budget: int = 8,
    chase_variant: str = ChaseVariant.RESTRICTED,
    should_stop: Optional[Callable[[], bool]] = None,
) -> EntailmentVerdict:
    """Decide ``K ⊨ ⋁ disjuncts`` by the Theorem-1 race, lifted to UCQs.

    "Yes" side: ONE fair chase, shared by every disjunct — each step's
    growing aggregation is tested against all still-open disjuncts, so
    the budget (and the per-step observability traffic) does not scale
    with the disjunct count.  A terminated chase is a finite universal
    model: if no disjunct maps into it the whole union is refuted
    exactly, with no countermodel search.  "No" side (budget exhausted
    only): one finite model avoiding **every** disjunct at once refutes
    it — per-disjunct countermodels would be unsound.

    ``should_stop`` (e.g. a service deadline) cuts the run short exactly
    as in :func:`~repro.query.entailment.decide_entailment`: a stop
    before any verdict, in the chase or in the countermodel search,
    returns an undecided result flagged ``incomplete``.
    """
    aggregation = AtomSet()
    hit = [False]
    steps_until_hit = [0]

    def on_step(step) -> None:
        if hit[0]:
            return
        added = aggregation.update(step.instance)
        if added == 0 and step.index > 0:
            # unchanged aggregation: the previous per-disjunct tests
            # still stand (and repeats are memoized anyway)
            return
        if query.holds_in(aggregation):
            hit[0] = True
            steps_until_hit[0] = step.index

    def stopper() -> bool:
        return hit[0] or (should_stop is not None and should_stop())

    result = run_chase(
        kb,
        variant=chase_variant,
        max_steps=chase_budget,
        on_step=on_step,
        should_stop=stopper,
    )
    if hit[0]:
        return EntailmentVerdict(True, "chase-prefix-hit", steps_until_hit[0])
    if result.terminated:
        # The fixpoint is a finite universal model avoiding every
        # disjunct (the per-step test covered them all): exact "no".
        return EntailmentVerdict(
            False,
            "chase-fixpoint-miss",
            result.applications,
            witness_instance=result.final_instance,
        )
    if result.stopped:
        return EntailmentVerdict(
            None, "chase-stopped", result.applications, incomplete=True
        )
    no = find_countermodel(
        kb, query, max_domain=model_domain_budget, should_stop=should_stop
    )
    if no.found:
        return EntailmentVerdict(
            False,
            "finite-countermodel",
            result.applications,
            countermodel=no.model,
        )
    if should_stop is not None and should_stop():
        return EntailmentVerdict(
            None, "chase-stopped", result.applications, incomplete=True
        )
    return EntailmentVerdict(None, "race-undecided", result.applications)
