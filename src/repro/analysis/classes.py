"""Structural measures, boundedness notions (Section 5), and the
empirical classifiers behind the Figure 1 experiments.

Section 5 defines a *structural measure* as any map from instances to
``N ∪ {∞}`` and, for sequences, the notions of *uniform* and *recurring*
μ-boundedness.  On the finite chase prefixes the library actually
computes, the faithful readings are:

* uniform bound of a prefix — the max of the measured values;
* recurring bound estimate — the min over a trailing window: if the
  sequence is recurringly bounded by ``k`` then values ``≤ k`` occur in
  every tail, so trailing minima witness (an upper estimate of) the
  recurring bound.

Membership in fes / bts / core-bts is undecidable in general; the
classifiers below are *budgeted empirical* procedures that (i) are exact
whenever the core chase terminates within budget (fes is certified) and
(ii) otherwise report the measured treewidth profile of the chase
prefix, which is what the Figure 1 experiment tabulates for the paper's
witness KBs — for those, the budgets provably suffice to show the
intended behaviour (the staircase's core chase is uniformly 2-bounded at
every length; the elevator's grows monotonically).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..chase.engine import ChaseVariant, run_chase
from ..logic.atomset import AtomSet
from ..logic.kb import KnowledgeBase
from ..treewidth import SearchBudgetExceeded, treewidth, treewidth_bounds

__all__ = [
    "StructuralMeasure",
    "SIZE",
    "TERM_COUNT",
    "TREEWIDTH",
    "uniform_bound",
    "recurring_bound_estimate",
    "is_uniformly_bounded",
    "is_recurringly_bounded_prefix",
    "ChaseProfile",
    "profile_chase",
    "certify_fes",
]


@dataclass(frozen=True)
class StructuralMeasure:
    """A named structural measure (Section 5)."""

    name: str
    compute: Callable[[AtomSet], int]

    def __call__(self, instance: AtomSet) -> int:
        return self.compute(instance)


def _treewidth_or_upper(instance: AtomSet) -> int:
    """Exact treewidth when the solver can afford it, else the min-fill
    upper bound (still sound for *uniform boundedness* claims)."""
    try:
        return treewidth(instance, state_budget=200_000)
    except SearchBudgetExceeded:
        return treewidth_bounds(instance)[1]


SIZE = StructuralMeasure("size", lambda instance: len(instance))
TERM_COUNT = StructuralMeasure("terms", lambda instance: len(instance.terms()))
TREEWIDTH = StructuralMeasure("treewidth", _treewidth_or_upper)


def uniform_bound(values: Sequence[int]) -> int:
    """The least uniform bound of a measured prefix (its maximum)."""
    if not values:
        raise ValueError("empty sequence has no bound")
    return max(values)


def recurring_bound_estimate(values: Sequence[int], tail: int = 5) -> int:
    """An estimate of the recurring bound: the minimum over the last
    *tail* measurements.  If the infinite sequence is recurringly bounded
    by ``k``, values ≤ k recur, so long prefixes yield estimates ≤ k;
    conversely a growing sequence drives the estimate up."""
    if not values:
        raise ValueError("empty sequence has no bound")
    window = values[-tail:] if tail > 0 else values
    return min(window)


def is_uniformly_bounded(values: Sequence[int], k: int) -> bool:
    """Uniform μ-boundedness by ``k`` on the measured prefix."""
    return all(value <= k for value in values)


def is_recurringly_bounded_prefix(
    values: Sequence[int], k: int, tail: int = 5
) -> bool:
    """Finite-prefix reading of recurring μ-boundedness by ``k``: a value
    ≤ k occurs within every trailing window of length *tail*."""
    if not values:
        return False
    for start in range(0, len(values), tail):
        window = values[start : start + tail]
        if window and min(window) > k:
            return False
    return True


@dataclass
class ChaseProfile:
    """Measured profile of one chase run: per-step values of a structural
    measure plus the termination verdict."""

    kb_name: Optional[str]
    variant: str
    measure: str
    values: list[int]
    terminated: bool
    applications: int

    @property
    def uniform(self) -> int:
        return uniform_bound(self.values)

    def recurring(self, tail: int = 5) -> int:
        return recurring_bound_estimate(self.values, tail=tail)


def profile_chase(
    kb: KnowledgeBase,
    variant: str = ChaseVariant.CORE,
    measure: StructuralMeasure = TREEWIDTH,
    max_steps: int = 100,
    core_every: int = 1,
) -> ChaseProfile:
    """Run a chase and measure every step with *measure*."""
    values: list[int] = []

    def on_step(step) -> None:
        values.append(measure(step.instance))

    result = run_chase(
        kb,
        variant=variant,
        max_steps=max_steps,
        core_every=core_every,
        on_step=on_step,
    )
    return ChaseProfile(
        kb_name=kb.name,
        variant=variant,
        measure=measure.name,
        values=values,
        terminated=result.terminated,
        applications=result.applications,
    )


def certify_fes(kb: KnowledgeBase, max_steps: int = 500) -> Optional[int]:
    """Certify that the KB's core chase terminates (the *fes* criterion
    for this instance): returns the number of applications on success,
    None when the budget runs out (unknown / presumed non-terminating).

    The core chase terminates iff the KB has a finite universal model
    [9], so a non-None answer is an exact certificate.
    """
    result = run_chase(kb, variant=ChaseVariant.CORE, max_steps=max_steps)
    return result.applications if result.terminated else None
