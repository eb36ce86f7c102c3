"""Compiled query plans, cached across requests.

A *plan* here is the saturated UCQ rewriting of a Boolean CQ through a
ruleset (:mod:`.rewriting`): evaluating it is a handful of homomorphism
tests against the base facts, each of which routes through the
``repro.logic.compiled`` interner/join-plan machinery and memoizes its
compiled join plan on the disjunct's :class:`~repro.logic.atomset.
AtomSet`.  Holding the disjunct objects across requests therefore reuses
the compiled plans — the point of this cache.

Keying: ``(ruleset_fingerprint, query_shape)``.  The fingerprint is the
same sha256 the verdict cache and snapshot catalog use, so a ruleset
change rolls every dependent plan at once.  The shape is
:func:`~.rewriting.query_shape`, the rewriting's own dedup key,
re-exported here: it renames variables by first occurrence over the
deterministic sorted atom order and sorts the rendered atoms, so equal
shapes imply alpha-equivalent queries — a shared cache entry is always
sound; alpha-variants that sort differently merely miss.

One tier, like the planner's verdict cache: an in-process LRU of plan
objects, whose compiled joins stay warm.  Nothing persists a plan; a
process computes each (ruleset, shape) plan once, in a few milliseconds
on the repo's workloads.  Non-rewritable rulesets are memoized too — a
negative plan spares the fragment check and the budgeted saturation on
every subsequent request.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from ..analysis.planner import ruleset_fingerprint
from ..logic.atomset import AtomSet
from ..logic.kb import KnowledgeBase
from ..obs import observer as _observer_state
from ..obs.spans import span as _span
from .cq import ConjunctiveQuery
from .rewriting import query_shape, rewritable_fragment, rewrite_ucq

__all__ = [
    "CompiledQueryPlan",
    "QueryPlanCache",
    "query_shape",
    "default_plan_cache",
]

#: Default capacity of the in-process plan LRU.
DEFAULT_MEMORY_LIMIT = 256


@dataclass(frozen=True)
class CompiledQueryPlan:
    """A cached rewriting for one ``(ruleset, CQ shape)`` pair.

    ``fragment`` is None when the ruleset is not rewritable (a memoized
    negative).  ``complete`` marks an exact saturation: only then is an
    all-disjunct miss a sound "no".
    """

    fragment: Optional[str]
    complete: bool
    disjuncts: Tuple[ConjunctiveQuery, ...]
    generated: int = 0
    pruned: int = 0

    @property
    def rewritable(self) -> bool:
        return self.fragment is not None

    def evaluate(self, facts: AtomSet) -> Optional[bool]:
        """Answer ``K ⊨ Q`` from base facts alone, or None.

        True on any disjunct hit (sound even when incomplete: one
        backward rewriting step is one forward chase step).  False only
        from a complete saturation.  None demands the Theorem-1 race.
        """
        if self.fragment is None:
            return None
        if any(disjunct.holds_in(facts) for disjunct in self.disjuncts):
            return True
        return False if self.complete else None


class QueryPlanCache:
    """In-process LRU of plans.

    Thread-safe.  Every lookup emits one ``query_rewrite`` observer
    event carrying its source (``memory`` or ``computed``), so `repro
    stats` can report hit ratios without the cache keeping its own
    counters.
    """

    def __init__(self, memory_limit: int = DEFAULT_MEMORY_LIMIT):
        self.memory_limit = memory_limit
        self._memory: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def clear(self) -> None:
        with self._lock:
            self._memory.clear()

    def plan_for(
        self,
        kb: KnowledgeBase,
        query: ConjunctiveQuery,
        observer=None,
    ) -> CompiledQueryPlan:
        """The plan for (*kb*'s ruleset, *query*), computing on miss.

        *observer* overrides the ambient observer for the lookup's
        ``query_rewrite`` event — service jobs pass their per-job
        observer, which in-process executors never install globally.
        """
        key = (ruleset_fingerprint(kb.rules), query_shape(query.atoms))
        source = "computed"

        with self._lock:
            plan = self._memory.get(key)
            if plan is not None:
                self._memory.move_to_end(key)
                source = "memory"
        if plan is None:
            plan = self._compute(kb.rules, query)
            with self._lock:
                self._remember(key, plan)

        if observer is None:
            observer = _observer_state.current
        if observer is not None:
            observer.emit(
                "query_rewrite",
                source=source,
                fragment=plan.fragment or "",
                complete=plan.complete,
                disjuncts=len(plan.disjuncts),
                pruned=plan.pruned,
            )
        return plan

    # -- internals -----------------------------------------------------

    def _remember(self, key, plan: CompiledQueryPlan) -> None:
        self._memory[key] = plan
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_limit:
            self._memory.popitem(last=False)

    def _compute(self, rules, query: ConjunctiveQuery) -> CompiledQueryPlan:
        fragment = rewritable_fragment(rules)
        if fragment is None:
            return CompiledQueryPlan(None, False, ())
        with _span("query-plan", fragment=fragment):
            result = rewrite_ucq(rules, query)
        return CompiledQueryPlan(
            fragment=fragment,
            complete=result.complete,
            disjuncts=result.disjuncts,
            generated=result.generated,
            pruned=result.pruned,
        )


_DEFAULT: Optional[QueryPlanCache] = None


def default_plan_cache() -> QueryPlanCache:
    """The process-wide plan cache every service job uses."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = QueryPlanCache()
    return _DEFAULT
