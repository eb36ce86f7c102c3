"""Indexed atomsets (instances).

An *atomset* is a countable set of atoms (Section 2 of the paper); a
finite atomset doubles as a database *instance* and as the body/head of a
rule or a Boolean conjunctive query.  :class:`AtomSet` is the one mutable
container of the library; everything else (atoms, terms, substitutions,
rules) is immutable.

Two incremental indexes are maintained:

* by predicate — the candidate pool for homomorphism backtracking and
  trigger enumeration;
* by term — needed to delete all atoms involving a null, to compute
  induced substructures, and to build Gaifman graphs.

The homomorphism searches that need per-position pools run on the
compiled view an atomset carries once a search first touches it
(:mod:`repro.logic.compiled.relations`), kept in step by :meth:`add`
and :meth:`discard`.

Instances compare equal iff they contain the same atoms, regardless of
insertion order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Union

from .atoms import Atom, Predicate
from .terms import Constant, Term, Variable

if TYPE_CHECKING:  # pragma: no cover
    from .substitution import Substitution

__all__ = ["AtomSet"]


class AtomSet:
    """A finite set of atoms with predicate and term indexes.

    Parameters
    ----------
    atoms:
        Initial atoms (any iterable; duplicates collapse).
    """

    __slots__ = (
        "_atoms",
        "_by_predicate",
        "_by_term",
        "_compiled",
        "_sorted",
    )

    def __init__(self, atoms: Iterable[Atom] = ()):
        self._atoms: set[Atom] = set()
        self._by_predicate: dict[Predicate, set[Atom]] = {}
        self._by_term: dict[Term, set[Atom]] = {}
        #: Lazily attached compiled view (repro.logic.compiled.relations);
        #: None until a compiled search first touches this atomset.
        self._compiled = None
        #: Cached result of :meth:`sorted_atoms`, dropped on mutation.
        self._sorted = None
        for at in atoms:
            self.add(at)

    # ------------------------------------------------------------------
    # basic container protocol
    # ------------------------------------------------------------------

    def add(self, at: Atom) -> bool:
        """Insert *at*; return True iff it was not already present."""
        if not isinstance(at, Atom):
            raise TypeError(f"expected Atom, got {at!r}")
        if at in self._atoms:
            return False
        self._atoms.add(at)
        self._by_predicate.setdefault(at.predicate, set()).add(at)
        for term in at.term_set():
            self._by_term.setdefault(term, set()).add(at)
        if self._compiled is not None:
            self._compiled.add(at)
        self._sorted = None
        return True

    def update(self, atoms: Iterable[Atom]) -> int:
        """Insert many atoms; return how many were new."""
        added = 0
        for at in atoms:
            if self.add(at):
                added += 1
        return added

    def discard(self, at: Atom) -> bool:
        """Remove *at* if present; return True iff it was present."""
        if at not in self._atoms:
            return False
        self._atoms.remove(at)
        bucket = self._by_predicate[at.predicate]
        bucket.remove(at)
        if not bucket:
            del self._by_predicate[at.predicate]
        for term in at.term_set():
            bucket = self._by_term[term]
            bucket.remove(at)
            if not bucket:
                del self._by_term[term]
        if self._compiled is not None:
            self._compiled.discard(at)
        self._sorted = None
        return True

    def remove_term(self, term: Term) -> int:
        """Remove every atom mentioning *term*; return how many."""
        doomed = list(self._by_term.get(term, ()))
        for at in doomed:
            self.discard(at)
        return len(doomed)

    def __contains__(self, at: object) -> bool:
        return at in self._atoms

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._atoms)

    def __len__(self) -> int:
        return len(self._atoms)

    def __bool__(self) -> bool:
        return bool(self._atoms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, AtomSet):
            return self._atoms == other._atoms
        if isinstance(other, (set, frozenset)):
            return self._atoms == other
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    __hash__ = None  # type: ignore[assignment]  # mutable container

    def __le__(self, other: "AtomSet") -> bool:
        """Subset test ``A ⊆ B``."""
        return self._atoms <= _atom_view(other)

    def __lt__(self, other: "AtomSet") -> bool:
        return self._atoms < _atom_view(other)

    def __ge__(self, other: "AtomSet") -> bool:
        return self._atoms >= _atom_view(other)

    def __gt__(self, other: "AtomSet") -> bool:
        return self._atoms > _atom_view(other)

    def issubset(self, other: Union["AtomSet", set, frozenset]) -> bool:
        """``A ⊆ B`` (Fact 1 of the paper makes this the key relation for
        treewidth monotonicity)."""
        return self._atoms <= _atom_view(other)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------

    def atoms(self) -> frozenset[Atom]:
        """A frozen snapshot of the atoms."""
        return frozenset(self._atoms)

    def sorted_atoms(self) -> list[Atom]:
        """The atoms in the deterministic order of :meth:`Atom.sort_key`.

        The order is cached until the next mutation — homomorphism
        searches sort their source on every call, and re-sorting an
        unchanged instance used to show up in core-chase profiles.  A
        fresh list is returned each time (callers mutate their copies).
        """
        cached = self._sorted
        if cached is None:
            cached = self._sorted = sorted(self._atoms)
        return list(cached)

    def predicates(self) -> frozenset[Predicate]:
        """All predicates with at least one atom."""
        return frozenset(self._by_predicate)

    def with_predicate(self, predicate: Predicate) -> frozenset[Atom]:
        """All atoms over *predicate* (the homomorphism candidate pool)."""
        return frozenset(self._by_predicate.get(predicate, frozenset()))

    def count_with_predicate(self, predicate: Predicate) -> int:
        """Number of atoms over *predicate*."""
        return len(self._by_predicate.get(predicate, ()))

    def containing(self, term: Term) -> frozenset[Atom]:
        """All atoms whose argument list mentions *term*."""
        return frozenset(self._by_term.get(term, frozenset()))

    _EMPTY: frozenset = frozenset()

    def _containing_raw(self, term: Term) -> set[Atom]:
        """Internal no-copy view of the term index (do not mutate)."""
        return self._by_term.get(term, AtomSet._EMPTY)  # type: ignore[return-value]

    def _with_predicate_raw(self, predicate: Predicate) -> set[Atom]:
        """Internal no-copy view of the predicate index (do not mutate)."""
        return self._by_predicate.get(predicate, AtomSet._EMPTY)  # type: ignore[return-value]

    def terms(self) -> frozenset[Term]:
        """``terms(A)`` — all terms occurring in the atomset."""
        return frozenset(self._by_term)

    def variables(self) -> frozenset[Variable]:
        """``vars(A)`` — all variables (labeled nulls) occurring."""
        return frozenset(t for t in self._by_term if isinstance(t, Variable))

    def constants(self) -> frozenset[Constant]:
        """All constants occurring."""
        return frozenset(t for t in self._by_term if isinstance(t, Constant))

    # ------------------------------------------------------------------
    # structural operations
    # ------------------------------------------------------------------

    def copy(self) -> "AtomSet":
        """An independent copy.  Indexes are copied container-by-container
        (C-level set/dict copies) rather than rebuilt atom-by-atom, and an
        attached compiled view is cloned the same way — the chase
        snapshots its instance every step, so copy cost is on the
        per-application path of every engine."""
        new = AtomSet.__new__(AtomSet)
        new._atoms = set(self._atoms)
        new._by_predicate = {
            pred: set(bucket) for pred, bucket in self._by_predicate.items()
        }
        new._by_term = {term: set(bucket) for term, bucket in self._by_term.items()}
        new._compiled = (
            self._compiled.clone() if self._compiled is not None else None
        )
        new._sorted = self._sorted
        return new

    def union(self, *others: Union["AtomSet", Iterable[Atom]]) -> "AtomSet":
        """A new atomset containing this one and all *others*."""
        result = self.copy()
        for other in others:
            result.update(other)
        return result

    def intersection(self, other: Union["AtomSet", Iterable[Atom]]) -> "AtomSet":
        """A new atomset with the atoms common to both."""
        other_atoms = _atom_view(other)
        return AtomSet(at for at in self._atoms if at in other_atoms)

    def difference(self, other: Union["AtomSet", Iterable[Atom]]) -> "AtomSet":
        """A new atomset with the atoms of self not in *other*."""
        other_atoms = _atom_view(other)
        return AtomSet(at for at in self._atoms if at not in other_atoms)

    def induced(self, terms: Iterable[Term]) -> "AtomSet":
        """The substructure induced by a set of terms: all atoms whose
        terms are *all* drawn from the given set.

        This is the operation behind the paper's window constructions
        (``P^h_k``, ``C^h_k``, ``S^h_k`` in Section 6 and the elevator
        family ``I^v_n`` in Section 7 before its extra pruning).
        """
        keep = set(terms)
        return AtomSet(
            at for at in self._atoms if all(t in keep for t in at.term_set())
        )

    def apply(self, substitution: "Substitution") -> "AtomSet":
        """``σ(A)``: a new atomset with the substitution applied."""
        return AtomSet(substitution.apply_atom(at) for at in self._atoms)

    def restrict_predicates(self, predicates: Iterable[Predicate]) -> "AtomSet":
        """A new atomset keeping only atoms over the given predicates."""
        wanted = set(predicates)
        return AtomSet(
            at
            for pred, bucket in self._by_predicate.items()
            if pred in wanted
            for at in bucket
        )

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def predicate_histogram(self) -> dict[str, int]:
        """Mapping ``predicate name -> atom count`` (for experiment logs)."""
        return {
            str(pred): len(bucket)
            for pred, bucket in sorted(
                self._by_predicate.items(), key=lambda item: item[0]
            )
        }

    def __repr__(self) -> str:
        return f"AtomSet({len(self._atoms)} atoms, {len(self._by_term)} terms)"

    def __str__(self) -> str:
        return "{" + ", ".join(str(a) for a in self.sorted_atoms()) + "}"


def _atom_view(value: Union[AtomSet, set, frozenset, Iterable[Atom]]) -> set:
    """Normalize *value* to a set of atoms for set-algebra helpers."""
    if isinstance(value, AtomSet):
        return value._atoms
    if isinstance(value, (set, frozenset)):
        return value  # type: ignore[return-value]
    return set(value)
