"""Unions of conjunctive queries.

UCQs are preserved under homomorphisms just like CQs, so everything the
library does with a single CQ lifts disjunct-wise: a UCQ holds in an
instance iff some disjunct does, and ``K ⊨ Q₁ ∨ ... ∨ Qₙ`` over a
universal (or finitely universal) model reduces to per-disjunct tests.

Note the asymmetry for the decision race: the "yes" side is settled by
any single disjunct hitting, while a countermodel must avoid **all**
disjuncts simultaneously.  The race,
:func:`~repro.query.entailment.decide_entailment`, takes a
:class:`UnionQuery` wherever it takes a CQ and gets both sides right
through :meth:`UnionQuery.holds_in`, instead of naively OR-ing
per-disjunct verdicts (a per-disjunct countermodel would be unsound:
different disjuncts could be refuted by different models while the
union is still entailed).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..logic.atomset import AtomSet
from .cq import ConjunctiveQuery

__all__ = ["UnionQuery"]


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
