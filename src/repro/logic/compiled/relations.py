"""Columnar per-predicate relations over interned atoms.

A :class:`CompiledView` mirrors one :class:`~repro.logic.atomset.AtomSet`
as a family of :class:`Relation` objects — one per predicate — each
storing its atoms as flat int tuples (*rows*) plus:

* ``postings``: ``(position, term code) -> set of rows`` — the
  per-position candidate pools of the search, keyed by a small int
  pair, so a candidate-pool probe is one int-tuple hash instead of
  several object hashes;
* ``sort_keys``: ``row -> per-argument (is_variable, name) tuple`` —
  precomputed at insert time, so ordering a candidate pool costs one
  dict read per member.  Rows of one predicate compare exactly as the
  corresponding atoms compare under :meth:`Atom.sort_key` (predicate
  name and arity are constant within a relation; the remaining
  component is this per-argument tuple), so the compiled evaluator
  tries candidates in a fixed order and its witnesses are
  deterministic.

The view is attached lazily (:func:`compiled_view`) to the atomset's
``_compiled`` slot and maintained *incrementally* from then on:
``AtomSet.add``/``discard`` forward every mutation, so chase deltas and
:class:`~repro.logic.coremaint.CoreMaintainer` retractions translate to
tuple insertions/deletions without a rebuild.  An atomset that never
meets the compiled evaluator pays one ``is None`` test per mutation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .interner import symbol_table

if TYPE_CHECKING:  # pragma: no cover
    from ..atoms import Atom
    from ..atomset import AtomSet

__all__ = ["Relation", "CompiledView", "compiled_view"]

_EMPTY: frozenset = frozenset()


class Relation:
    """The rows of one predicate, with positional postings."""

    __slots__ = ("pred_code", "rows", "postings", "sort_keys")

    def __init__(self, pred_code: int):
        self.pred_code = pred_code
        self.rows: set[tuple[int, ...]] = set()
        self.postings: dict[tuple[int, int], set[tuple[int, ...]]] = {}
        self.sort_keys: dict[tuple[int, ...], tuple] = {}

    def add(self, row: tuple[int, ...], term_sort_keys: list) -> None:
        self.rows.add(row)
        postings = self.postings
        for position, code in enumerate(row):
            key = (position, code)
            bucket = postings.get(key)
            if bucket is None:
                postings[key] = {row}
            else:
                bucket.add(row)
        self.sort_keys[row] = tuple(term_sort_keys[c] for c in row)

    def discard(self, row: tuple[int, ...]) -> None:
        self.rows.discard(row)
        postings = self.postings
        for position, code in enumerate(row):
            key = (position, code)
            bucket = postings.get(key)
            if bucket is not None:
                bucket.discard(row)
                if not bucket:
                    del postings[key]
        self.sort_keys.pop(row, None)

    def clone(self) -> "Relation":
        """An independent copy — C-level container copies only, so
        cloning a relation is far cheaper than re-adding its rows."""
        new = Relation.__new__(Relation)
        new.pred_code = self.pred_code
        new.rows = set(self.rows)
        new.postings = {key: set(bucket) for key, bucket in self.postings.items()}
        new.sort_keys = dict(self.sort_keys)
        return new

    def pool(self, position: int, code: int) -> frozenset:
        """The no-copy posting for (*position*, *code*) — empty when the
        value never occurs there (do not mutate)."""
        return self.postings.get((position, code), _EMPTY)

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"Relation(pred={self.pred_code}, {len(self.rows)} rows)"


class CompiledView:
    """All relations of one atomset, keyed by predicate code."""

    __slots__ = ("relations", "tuples", "generation", "plan", "search_items")

    def __init__(self) -> None:
        self.relations: dict[int, Relation] = {}
        self.tuples = 0
        self.generation = symbol_table().generation
        #: Cached compiled plan of this atomset *as a search source*
        #: (:func:`repro.logic.compiled.plans.source_plan`); dropped on
        #: mutation.  Rule bodies — searched thousands of times, never
        #: mutated — compile exactly once.
        self.plan = None
        #: Per-(source plan) cache of search working items against this
        #: atomset *as a target* — ``id(plan) -> (plan, items)``, the
        #: plan kept to pin its id (see plans.run_plan).  Any mutation
        #: invalidates the whole cache: the items embed pool snapshots.
        self.search_items: dict = {}

    def add(self, at: "Atom") -> None:
        table = symbol_table()
        _, pred_code, row = table.encode_atom(at)
        relation = self.relations.get(pred_code)
        if relation is None:
            relation = self.relations[pred_code] = Relation(pred_code)
        relation.add(row, table.term_sort_keys)
        self.tuples += 1
        self.plan = None
        if self.search_items:
            self.search_items.clear()

    def discard(self, at: "Atom") -> None:
        _, pred_code, row = symbol_table().encode_atom(at)
        relation = self.relations.get(pred_code)
        if relation is not None:
            relation.discard(row)
            self.tuples -= 1
            self.plan = None
            if self.search_items:
                self.search_items.clear()

    def clone(self) -> "CompiledView":
        """An independent copy of the whole view, for ``AtomSet.copy()``:
        the chase snapshots its instance every step, and cloning the
        relations beats rebuilding the view atom by atom on the copy.
        Plan and search-item caches start empty (they embed identities
        of the source view's pools)."""
        new = CompiledView.__new__(CompiledView)
        new.relations = {
            code: relation.clone() for code, relation in self.relations.items()
        }
        new.tuples = self.tuples
        new.generation = self.generation
        new.plan = None
        new.search_items = {}
        return new

    def __repr__(self) -> str:
        return f"CompiledView({self.tuples} tuples, {len(self.relations)} relations)"


def compiled_view(atoms: "AtomSet") -> CompiledView:
    """The compiled view of *atoms*, building and attaching it on first
    use; afterwards the atomset maintains it through its own mutations.

    A view encoded against a retired symbol table (only possible after
    the test-only :func:`~repro.logic.compiled.interner.
    reset_symbol_table`) is discarded and rebuilt.
    """
    view = atoms._compiled
    if view is None or view.generation != symbol_table().generation:
        view = CompiledView()
        for at in atoms._atoms:
            view.add(at)
        atoms._compiled = view
    return view
