"""CQ entailment procedures, including the Theorem-1-style race.

Three procedures, in increasing generality:

1. :func:`entails_via_terminating_chase` — when the core chase
   terminates, its result is a finite universal model and entailment is
   a single homomorphism test (the fes situation).
2. :func:`chase_entails_prefix` — the "yes" semi-procedure: run a fair
   chase and test the query against the natural aggregation after every
   step (Proposition 1(3): ``K ⊨ Q`` iff ``Q`` maps into ``D*`` for any
   fair derivation, and a mapping into a finite prefix certifies it).
3. :func:`decide_entailment` — the race of Theorem 1: interleave the
   "yes" side (2) with the "no" side (a bounded finite-countermodel
   search standing in for the Courcelle machinery; see
   :mod:`repro.query.modelfinder` and DESIGN.md for the substitution
   argument).  Returns a verdict with the certificate that settled it.

(2) and (3) take a CQ or a :class:`~repro.query.ucq.UnionQuery`: one
race serves both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from ..chase.engine import ChaseVariant, run_chase
from ..logic.atomset import AtomSet
from ..logic.kb import KnowledgeBase
from .cq import ConjunctiveQuery
from .modelfinder import find_countermodel
from .ucq import UnionQuery

__all__ = [
    "EntailmentVerdict",
    "entails_via_terminating_chase",
    "chase_entails_prefix",
    "decide_entailment",
]


@dataclass
class EntailmentVerdict:
    """The outcome of a decision attempt.

    ``entailed`` is None when neither side settled within its budget
    (a genuine possibility: the procedure simulates two semi-decision
    procedures with finite budgets).  ``incomplete`` marks verdicts cut
    short by a ``should_stop`` deadline rather than by exhausting the
    budgets — a degraded answer in the service sense (a ``True`` is
    still a sound certificate even then).
    """

    entailed: Optional[bool]
    method: str
    chase_steps: int = 0
    countermodel: Optional[AtomSet] = None
    witness_instance: Optional[AtomSet] = None
    incomplete: bool = False

    @property
    def decided(self) -> bool:
        return self.entailed is not None


def entails_via_terminating_chase(
    kb: KnowledgeBase, query: ConjunctiveQuery, max_steps: int = 500
) -> EntailmentVerdict:
    """Decide entailment through a terminating core chase.

    If the core chase reaches a fixpoint, the final instance is the
    (unique, smallest) finite universal model and the answer is exact;
    otherwise the verdict is undecided.
    """
    result = run_chase(kb, variant=ChaseVariant.CORE, max_steps=max_steps)
    if not result.terminated:
        return EntailmentVerdict(None, "core-chase-budget-exhausted", max_steps)
    holds = query.holds_in(result.final_instance)
    return EntailmentVerdict(
        holds,
        "terminating-core-chase",
        result.applications,
        witness_instance=result.final_instance,
    )


def chase_entails_prefix(
    kb: KnowledgeBase,
    query: Union[ConjunctiveQuery, UnionQuery],
    max_steps: int = 200,
    variant: str = ChaseVariant.RESTRICTED,
    should_stop: Optional[Callable[[], bool]] = None,
) -> EntailmentVerdict:
    """The "yes" semi-procedure: chase fairly and test the query against
    the growing natural aggregation.

    A hit certifies ``K ⊨ Q`` (the aggregation prefix is universal —
    Proposition 1(1) — so the query maps onward into every model), and
    the chase halts as soon as one fires — nothing past the certificate
    changes the answer.  No hit within budget leaves the question open
    unless the chase terminated, in which case the answer is an exact
    "no".  ``should_stop`` (e.g. a :class:`repro.service.deadline.
    Deadline`) cuts the run short; a stop before any verdict returns an
    undecided result flagged ``incomplete``.

    A :class:`~repro.query.ucq.UnionQuery` shares the one chase: each
    step's aggregation is tested against every disjunct, so the budget
    does not scale with the disjunct count, and a fixpoint no disjunct
    maps into refutes the whole union.
    """
    aggregation = AtomSet()
    hit = [False]
    steps_until_hit = [0]

    def on_step(step) -> None:
        if hit[0]:
            return
        added = aggregation.update(step.instance)
        if added == 0 and step.index > 0:
            # The aggregation is unchanged, so the previous (negative)
            # query test still stands.
            return
        if query.holds_in(aggregation):
            hit[0] = True
            steps_until_hit[0] = step.index

    def stopper() -> bool:
        return hit[0] or (should_stop is not None and should_stop())

    result = run_chase(
        kb,
        variant=variant,
        max_steps=max_steps,
        on_step=on_step,
        should_stop=stopper,
    )
    if hit[0]:
        return EntailmentVerdict(True, "chase-prefix-hit", steps_until_hit[0])
    if result.terminated:
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
    return EntailmentVerdict(None, "chase-budget-exhausted", result.applications)


def decide_entailment(
    kb: KnowledgeBase,
    query: Union[ConjunctiveQuery, UnionQuery],
    chase_budget: int = 200,
    model_domain_budget: int = 8,
    chase_variant: str = ChaseVariant.RESTRICTED,
    should_stop: Optional[Callable[[], bool]] = None,
) -> EntailmentVerdict:
    """The Theorem-1 race, executably.

    Runs the "yes" semi-procedure (fair chase + query test per step) and,
    if it does not fire, the "no" side (iterative-deepening finite
    countermodel search).  Either side's success is a sound certificate.
    The race can end undecided when both budgets run out — unavoidable,
    since the exact procedure of Theorem 1 is not executable (see
    DESIGN.md).  A ``should_stop`` deadline that fires mid-race returns
    the soundest verdict reached so far, flagged ``incomplete``: the
    countermodel search polls it too, and a search it cuts or skips is
    labelled ``chase-stopped``.

    *query* may be a CQ or a :class:`~repro.query.ucq.UnionQuery`.  For
    a union the "yes" side tests every disjunct on one chase, and the
    "no" side needs one finite model that avoids every disjunct at once
    (per-disjunct countermodels would be unsound).
    """
    yes = chase_entails_prefix(
        kb,
        query,
        max_steps=chase_budget,
        variant=chase_variant,
        should_stop=should_stop,
    )
    if yes.decided or yes.incomplete:
        return yes
    no = find_countermodel(
        kb, query, max_domain=model_domain_budget, should_stop=should_stop
    )
    if no.found:
        return EntailmentVerdict(
            False,
            "finite-countermodel",
            yes.chase_steps,
            countermodel=no.model,
        )
    if should_stop is not None and should_stop():
        return EntailmentVerdict(
            None, "chase-stopped", yes.chase_steps, incomplete=True
        )
    return EntailmentVerdict(None, "race-undecided", yes.chase_steps)
