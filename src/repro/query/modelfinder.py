"""A bounded finite model finder for refuting CQ entailment.

Theorem 1's "no" side checks satisfiability of ``F ∧ Σ ∧ ¬Q`` over
structures of treewidth ≤ k via Courcelle-style MSO machinery — far
beyond what can be executed.  The executable substitute (documented in
DESIGN.md) is a *finite countermodel search*: find a finite model of
``(F, Σ)`` into which ``Q`` does not map.  This is **sound** for
refutation (any model avoiding ``Q`` proves ``K ⊭ Q``) and complete for
the KBs exercised in the experiments, all of which admit small "capped"
finite models (see :mod:`repro.kbs`).

Search strategy: depth-first chase-with-reuse.  States are instances;
the successor relation picks one unsatisfied trigger and satisfies it in
every possible way — by mapping each existential head variable either to
an *existing* term or to a *fresh* one (subject to the domain budget),
reuse-first to bias toward small models.  A branch is pruned as soon as
``Q`` maps into the partial instance (monotone: adding atoms can only
preserve the homomorphism), which is what makes the search a *Q-avoiding*
model finder rather than a generic one.  A fixpoint (no unsatisfied
trigger) is a model, and ``Q`` does not map into it by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Optional

from ..logic.atomset import AtomSet
from ..logic.kb import KnowledgeBase
from ..logic.substitution import Substitution
from ..logic.terms import FreshVariableSource, Term
from ..chase.trigger import Trigger, triggers
from .cq import ConjunctiveQuery

__all__ = ["ModelSearchResult", "find_countermodel", "find_finite_model"]


@dataclass
class ModelSearchResult:
    """Outcome of a model search."""

    model: Optional[AtomSet]
    nodes_explored: int
    exhausted: bool
    """True when the whole bounded search space was exhausted without a
    model — for a countermodel search this certifies that no model within
    the given domain budget avoids the query (not that ``K ⊨ Q``)."""

    @property
    def found(self) -> bool:
        return self.model is not None


def _first_unsatisfied(kb: KnowledgeBase, instance: AtomSet) -> Optional[Trigger]:
    for rule in kb.rules:
        for trigger in triggers(rule, instance):
            if not trigger.is_satisfied_in(instance):
                return trigger
    return None


def _head_completions(
    trigger: Trigger,
    instance: AtomSet,
    fresh: FreshVariableSource,
    domain_budget: int,
) -> Iterable[Substitution]:
    """All ways to satisfy *trigger*'s head: each existential variable is
    mapped to an existing term (reuse) or, if the domain budget allows,
    to a fresh null.  Reuse options come first."""
    rule = trigger.rule
    base = {var: trigger.mapping.apply_term(var) for var in rule.frontier}
    existentials = sorted(rule.existential, key=lambda v: v.name)
    existing = sorted(instance.terms(), key=lambda t: (t.name,))
    budget_left = domain_budget - len(instance.terms())
    option_lists: list[list[Term]] = []
    for var in existentials:
        options: list[Term] = list(existing)
        if budget_left > 0:
            options.append(fresh.fresh(hint=var))
        option_lists.append(options)
    if not existentials:
        yield Substitution(base)
        return
    for combination in product(*option_lists):
        mapping = dict(base)
        for var, term in zip(existentials, combination):
            mapping[var] = term
        yield Substitution(mapping)


def find_finite_model(
    kb: KnowledgeBase,
    domain_budget: int = 6,
    avoid: Optional[ConjunctiveQuery] = None,
    node_budget: int = 20_000,
    should_stop: Optional[Callable[[], bool]] = None,
) -> ModelSearchResult:
    """Search for a finite model of *kb* with at most *domain_budget*
    terms, optionally avoiding a query.

    Returns a :class:`ModelSearchResult`; ``result.model`` (if found) is
    a genuine model — callers can re-verify with
    :meth:`KnowledgeBase.is_model` — into which ``avoid`` does not map.
    ``should_stop`` (e.g. a service deadline) is polled once per search
    node; once it returns True the search ends without a model and not
    ``exhausted``, as when the node budget runs out.
    """
    fresh = FreshVariableSource(prefix="_m")
    nodes = [0]
    cut = [False]

    def q_maps(instance: AtomSet) -> bool:
        return avoid is not None and avoid.holds_in(instance)

    def search(instance: AtomSet) -> Optional[AtomSet]:
        if nodes[0] >= node_budget or (should_stop is not None and should_stop()):
            cut[0] = True
            return None
        nodes[0] += 1
        if q_maps(instance):
            return None
        trigger = _first_unsatisfied(kb, instance)
        if trigger is None:
            return instance
        for completion in _head_completions(
            trigger, instance, fresh, domain_budget
        ):
            extended = instance.copy()
            extended.update(
                completion.apply_atom(at) for at in trigger.rule.head.sorted_atoms()
            )
            if len(extended.terms()) > domain_budget:
                continue
            found = search(extended)
            if found is not None:
                return found
        return None

    model = search(kb.facts.copy())
    return ModelSearchResult(
        model=model,
        nodes_explored=nodes[0],
        exhausted=model is None and not cut[0],
    )


def find_countermodel(
    kb: KnowledgeBase,
    query: ConjunctiveQuery,
    max_domain: int = 8,
    node_budget_per_size: int = 20_000,
    should_stop: Optional[Callable[[], bool]] = None,
) -> ModelSearchResult:
    """Iterative-deepening countermodel search: try growing domain
    budgets until a model of *kb* avoiding *query* is found.

    *query* is anything with a ``holds_in(instance)`` test — a CQ, or a
    :class:`~repro.query.ucq.UnionQuery`, whose countermodel must avoid
    every disjunct at once.  A found model soundly certifies ``K ⊭ Q``.
    ``exhausted`` only means the bounded space held no countermodel —
    ``K ⊨ Q`` must be certified by the chase side of the Theorem-1 race
    instead.  ``should_stop`` is polled once per search node (see
    :func:`find_finite_model`); a search it cuts ends without a model
    and not ``exhausted``.
    """
    total_nodes = 0
    for budget in range(1, max_domain + 1):
        result = find_finite_model(
            kb,
            domain_budget=budget,
            avoid=query,
            node_budget=node_budget_per_size,
            should_stop=should_stop,
        )
        total_nodes += result.nodes_explored
        if result.found:
            return ModelSearchResult(result.model, total_nodes, exhausted=False)
        if should_stop is not None and should_stop():
            return ModelSearchResult(None, total_nodes, exhausted=False)
    return ModelSearchResult(None, total_nodes, exhausted=True)
