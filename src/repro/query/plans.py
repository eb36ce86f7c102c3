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

Two tiers, like the PR-9 verdict cache: an in-process LRU (plan objects,
compiled joins warm) in front of a ``query_plans`` table in the snapshot
catalog (JSON, shared across pool workers and restarts).  Non-rewritable
rulesets are memoized too — a negative plan spares the fragment check
and the budgeted saturation on every subsequent request.
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
from .cq import ConjunctiveQuery, boolean_cq
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

    def to_obj(self) -> dict:
        return {
            "fragment": self.fragment,
            "complete": self.complete,
            "generated": self.generated,
            "pruned": self.pruned,
            "disjuncts": [
                ", ".join(str(a) for a in d.atoms.sorted_atoms())
                for d in self.disjuncts
            ],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "CompiledQueryPlan":
        """Rebuild a plan from its catalog JSON; raises ValueError on a
        malformed payload (callers treat that as a cache miss)."""
        try:
            disjuncts = tuple(
                boolean_cq(text) for text in obj.get("disjuncts", ())
            )
            return cls(
                fragment=obj.get("fragment"),
                complete=bool(obj.get("complete", False)),
                disjuncts=disjuncts,
                generated=int(obj.get("generated", 0)),
                pruned=int(obj.get("pruned", 0)),
            )
        except (TypeError, KeyError) as exc:
            raise ValueError(f"malformed query plan payload: {exc}") from exc


class QueryPlanCache:
    """Two-tier plan cache: in-process LRU over the snapshot catalog.

    Thread-safe; the store tier is optional (None keeps the cache purely
    in-process).  Every lookup emits one ``query_rewrite`` observer
    event carrying its source tier, so `repro stats` can report hit
    ratios without the cache keeping its own counters.
    """

    def __init__(
        self,
        store=None,
        memory_limit: int = DEFAULT_MEMORY_LIMIT,
    ):
        self.store = store
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
        rules_fp = ruleset_fingerprint(kb.rules)
        shape = query_shape(query.atoms)
        key = (rules_fp, shape)
        source = "computed"
        plan: Optional[CompiledQueryPlan] = None

        with self._lock:
            cached = self._memory.get(key)
            if cached is not None:
                self._memory.move_to_end(key)
                plan, source = cached, "memory"
        if plan is None and self.store is not None:
            payload = self.store.load_query_plan(rules_fp, shape)
            if payload is not None:
                try:
                    plan = CompiledQueryPlan.from_obj(payload)
                    source = "store"
                except ValueError:
                    plan = None
            if plan is not None:
                with self._lock:
                    self._remember(key, plan)
        if plan is None:
            plan = self._compute(kb.rules, query)
            with self._lock:
                self._remember(key, plan)
            if self.store is not None:
                self.store.save_query_plan(rules_fp, shape, plan.to_obj())

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
    """The process-wide plan cache (no store tier until one is bound)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = QueryPlanCache()
    return _DEFAULT
