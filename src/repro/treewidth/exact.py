"""Exact treewidth by iterative-deepening elimination search.

The solver answers the decision question "does the graph admit an
elimination ordering of width ≤ k?" by depth-first search over
eliminations restricted to vertices of current degree ≤ k, with

* greedy *simplicial* eliminations (always safe: a simplicial vertex can
  be eliminated first in some optimal ordering) — this alone dissolves
  the ladder-shaped staircase structures of Section 6 almost entirely;
* memoization of failed remaining-vertex sets (sound for a fixed k);
* per-component decomposition (treewidth is the max over connected
  components);
* a state budget that raises :class:`SearchBudgetExceeded` instead of
  silently returning a wrong answer — callers fall back to
  (lower bound, upper bound) brackets.

Exact treewidth then climbs k from the MMD lower bound to the min-fill
upper bound.  This is exponential in the worst case (treewidth is
NP-hard) but comfortably handles the per-step chase structures measured
in the experiments (≲ 60 vertices, widths ≤ ~8).
"""

from __future__ import annotations

from typing import Hashable, Optional

from ..obs import observer as _observer_state
from .elimination import treewidth_upper_bound
from .graph import Graph
from .lowerbounds import mmd_lower_bound

__all__ = ["treewidth_exact", "has_width_at_most", "SearchBudgetExceeded"]

Vertex = Hashable

DEFAULT_STATE_BUDGET = 2_000_000


class SearchBudgetExceeded(RuntimeError):
    """The exact solver ran out of its state budget.

    Callers should fall back to the (lower, upper) bracket from
    :func:`repro.treewidth.lowerbounds.mmd_lower_bound` and
    :func:`repro.treewidth.elimination.treewidth_upper_bound` — or use
    the attributes below, which report what the interrupted search had
    already established.

    Attributes
    ----------
    k:
        The width being decided when the budget ran out.
    consumed:
        Search states consumed (equals the configured budget).
    lower / upper:
        Best treewidth bracket certain at interruption time (None when
        the raising call had no bracket in hand, e.g. a bare
        :func:`has_width_at_most`).
    """

    def __init__(
        self,
        message: str,
        *,
        k: Optional[int] = None,
        consumed: Optional[int] = None,
        lower: Optional[int] = None,
        upper: Optional[int] = None,
    ):
        super().__init__(message)
        self.k = k
        self.consumed = consumed
        self.lower = lower
        self.upper = upper


def has_width_at_most(
    graph: Graph, k: int, state_budget: int = DEFAULT_STATE_BUDGET
) -> bool:
    """Decide whether *graph* has an elimination ordering of width ≤ k."""
    if k < 0:
        return len(graph) == 0
    budget = [state_budget]
    failed: set[frozenset] = set()
    observer = _observer_state.current
    try:
        verdict = _search(graph.copy(), k, failed, budget)
    except SearchBudgetExceeded as exc:
        if observer is not None:
            observer.emit(
                "treewidth_search", k=k, verdict=None, budget_consumed=state_budget
            )
        raise SearchBudgetExceeded(
            f"exact treewidth search exhausted its state budget "
            f"({state_budget} states consumed) deciding width <= {k}",
            k=k,
            consumed=state_budget,
        ) from exc
    if observer is not None:
        observer.emit(
            "treewidth_search",
            k=k,
            verdict=verdict,
            budget_consumed=state_budget - budget[0],
        )
    return verdict


def _greedy_safe_eliminations(graph: Graph, k: int) -> bool:
    """Eliminate simplicial vertices (and vertices of degree ≤ 1) while
    possible.  Returns False if a simplicial vertex of degree > k is
    found, in which case no ordering of width ≤ k exists (its clique
    neighborhood of size > k survives into every decomposition)."""
    progress = True
    while progress and len(graph):
        progress = False
        for v in list(graph.vertices()):
            degree = graph.degree(v)
            if degree <= 1 or graph.is_clique(graph.neighbors(v)):
                if degree > k:
                    return False
                graph.eliminate(v)
                progress = True
    return True


def _search(graph: Graph, k: int, failed: set[frozenset], budget: list[int]) -> bool:
    if budget[0] <= 0:
        raise SearchBudgetExceeded(
            f"exact treewidth search exceeded its state budget at k={k}"
        )
    budget[0] -= 1
    if not _greedy_safe_eliminations(graph, k):
        return False
    if len(graph) <= k + 1:
        return True
    state = graph.vertex_set()
    if state in failed:
        return False
    candidates = sorted(
        (v for v in graph.vertices() if graph.degree(v) <= k),
        key=lambda v: (graph.fill_in_count(v), graph.degree(v), repr(v)),
    )
    for v in candidates:
        branch = graph.copy()
        branch.eliminate(v)
        if _search(branch, k, failed, budget):
            return True
    failed.add(state)
    return False


def treewidth_exact(
    graph: Graph,
    state_budget: int = DEFAULT_STATE_BUDGET,
    lower_hint: Optional[int] = None,
    upper_hint: Optional[int] = None,
) -> int:
    """The exact treewidth of *graph*.

    Raises :class:`SearchBudgetExceeded` when the search state budget is
    exhausted before an answer is certain.
    """
    if len(graph) == 0:
        return -1
    components = graph.connected_components()
    if len(components) > 1:
        return max(
            treewidth_exact(
                graph.subgraph(component),
                state_budget=state_budget,
                lower_hint=lower_hint,
                upper_hint=upper_hint,
            )
            for component in components
        )
    lower = lower_hint if lower_hint is not None else mmd_lower_bound(graph)
    upper = (
        upper_hint
        if upper_hint is not None
        else treewidth_upper_bound(graph, "min_fill")[0]
    )
    lower = max(lower, 0)
    for k in range(lower, upper):
        try:
            if has_width_at_most(graph, k, state_budget=state_budget):
                return k
        except SearchBudgetExceeded as exc:
            # Every k' < k already failed, so tw > k-1 is certain; the
            # min-fill upper bound still holds.  Report the bracket.
            raise SearchBudgetExceeded(
                f"exact treewidth search exhausted its state budget "
                f"({exc.consumed} states consumed) at k={k}; "
                f"best bounds so far: treewidth in [{k}, {upper}]",
                k=k,
                consumed=exc.consumed,
                lower=k,
                upper=upper,
            ) from exc
    return upper
