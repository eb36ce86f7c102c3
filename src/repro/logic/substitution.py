"""Substitutions, homomorphism objects, and retraction predicates.

A *substitution* of a set of variables ``Y`` is a mapping from ``Y`` to
terms (Section 2).  Applying a substitution to an atom applies the
extension ``σ+`` that is the identity outside ``Y``.  Composition follows
the paper's convention: ``(σ' ∘ σ)(Y) = σ'+(σ+(Y))`` — first ``σ``, then
``σ'``.

Substitutions are the uniform currency for homomorphisms, endomorphisms,
retractions, and the robust renamings of Section 8, so the class carries
the corresponding predicates (:meth:`Substitution.is_homomorphism`,
:meth:`is_retraction_of`, ...) and utilities (fibers, inverse, folding to
idempotence) used throughout the chase machinery.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Optional, Union

from .atoms import Atom
from .atomset import AtomSet
from .terms import Term, Variable

__all__ = ["Substitution"]

AtomsLike = Union[AtomSet, Iterable[Atom]]


def _iter_atoms(atoms: AtomsLike) -> Iterable[Atom]:
    return atoms


class Substitution:
    """An immutable mapping from variables to terms.

    Only *variables* may be remapped (constants are rigid under the unique
    name assumption); attempting to bind a constant raises.
    """

    __slots__ = ("_map", "_hash")

    def __init__(self, mapping: Optional[Mapping[Variable, Term]] = None):
        clean: dict[Variable, Term] = {}
        if mapping:
            for var, term in mapping.items():
                if not isinstance(var, Variable):
                    raise TypeError(f"substitution keys must be variables: {var!r}")
                if not isinstance(term, Term):
                    raise TypeError(f"substitution values must be terms: {term!r}")
                clean[var] = term
        object.__setattr__(self, "_map", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, key, value):  # pragma: no cover - defensive
        raise AttributeError("Substitution is immutable")

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def identity(cls) -> "Substitution":
        """The empty substitution (identity on every term)."""
        return cls()

    def bind(self, var: Variable, term: Term) -> "Substitution":
        """A new substitution with one extra (or overridden) binding."""
        updated = dict(self._map)
        updated[var] = term
        return Substitution(updated)

    def restrict(self, variables: Iterable[Variable]) -> "Substitution":
        """The restriction of the substitution to the given variables."""
        keep = set(variables)
        return Substitution({v: t for v, t in self._map.items() if v in keep})

    def without(self, variables: Iterable[Variable]) -> "Substitution":
        """Drop bindings for the given variables."""
        drop = set(variables)
        return Substitution({v: t for v, t in self._map.items() if v not in drop})

    def drop_trivial(self) -> "Substitution":
        """Drop bindings of the form ``X ↦ X``."""
        return Substitution({v: t for v, t in self._map.items() if t != v})

    # ------------------------------------------------------------------
    # mapping protocol
    # ------------------------------------------------------------------

    def __contains__(self, var: object) -> bool:
        return var in self._map

    def __getitem__(self, var: Variable) -> Term:
        return self._map[var]

    def get(self, var: Variable, default: Optional[Term] = None) -> Optional[Term]:
        return self._map.get(var, default)

    def __len__(self) -> int:
        return len(self._map)

    def __iter__(self) -> Iterator[Variable]:
        return iter(self._map)

    def items(self):
        return self._map.items()

    def domain(self) -> frozenset[Variable]:
        """The set of variables with an explicit binding."""
        return frozenset(self._map)

    def image(self) -> frozenset[Term]:
        """The set of terms in the image of the explicit bindings."""
        return frozenset(self._map.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Substitution):
            return NotImplemented
        return self._map == other._map

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        # Cached: substitutions key the escape scan's pin dedup, where
        # the same (immutable) object is hashed over and over.
        h = self._hash
        if h is None:
            h = hash(frozenset(self._map.items()))
            object.__setattr__(self, "_hash", h)
        return h

    # ------------------------------------------------------------------
    # application (the σ+ extension)
    # ------------------------------------------------------------------

    def apply_term(self, term: Term) -> Term:
        """``σ+(t)``: the bound value for a bound variable, else ``t``."""
        if isinstance(term, Variable):
            return self._map.get(term, term)
        return term

    def apply_atom(self, at: Atom) -> Atom:
        """``σ(at)``."""
        new_args = tuple(self.apply_term(t) for t in at.args)
        if new_args == at.args:
            return at
        return Atom(at.predicate, new_args)

    def apply(self, atoms: AtomsLike) -> AtomSet:
        """``σ(A)`` for an atomset (returns a new :class:`AtomSet`).

        The identity substitution short-circuits to :meth:`AtomSet.copy`
        — the chase applies a per-step retraction that is usually the
        identity, and a copy preserves the set's indexes (and compiled
        view) instead of rebuilding them."""
        if not self._map and isinstance(atoms, AtomSet):
            return atoms.copy()
        return AtomSet(self.apply_atom(at) for at in _iter_atoms(atoms))

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------

    def compose(self, first: "Substitution") -> "Substitution":
        """``self ∘ first``: apply *first*, then *self* (paper convention
        ``σ' • σ : Y ↦ σ'+(σ+(Y))`` with ``σ' = self`` and ``σ = first``).

        The domain of the result is the union of both domains.
        """
        combined: dict[Variable, Term] = {}
        for var, term in first._map.items():
            combined[var] = self.apply_term(term)
        for var, term in self._map.items():
            if var not in combined:
                combined[var] = term
        return Substitution(combined)

    def then(self, second: "Substitution") -> "Substitution":
        """``second ∘ self`` — often more readable at call sites."""
        return second.compose(self)

    def compatible_with(self, other: "Substitution") -> bool:
        """Two substitutions are compatible if they agree on the shared
        variables (Section 2)."""
        small, large = (
            (self._map, other._map)
            if len(self._map) <= len(other._map)
            else (other._map, self._map)
        )
        return all(large.get(v, t) == t for v, t in small.items())

    def merge(self, other: "Substitution") -> "Substitution":
        """Union of two *compatible* substitutions; raises otherwise."""
        if not self.compatible_with(other):
            raise ValueError("cannot merge incompatible substitutions")
        merged = dict(self._map)
        merged.update(other._map)
        return Substitution(merged)

    def fibers(self) -> dict[Term, set[Variable]]:
        """``σ⁻¹``: map each image term to the set of variables landing on
        it.  Every *bound* variable contributes; additionally any image
        term that is itself an unbound variable is in its own fiber (since
        ``σ+`` fixes it).  This is the fiber notion required by the robust
        renaming (Definition 14), where ``ρ_σ(X)`` is the ``<_X``-smallest
        variable of ``σ⁻¹(X)``.
        """
        fibers: dict[Term, set[Variable]] = {}
        for var, term in self._map.items():
            fibers.setdefault(term, set()).add(var)
        for term in list(fibers):
            if isinstance(term, Variable) and term not in self._map:
                fibers[term].add(term)
        return fibers

    def is_injective_on(self, variables: Iterable[Variable]) -> bool:
        """True iff ``σ+`` restricted to *variables* is injective."""
        seen: set[Term] = set()
        for var in variables:
            value = self.apply_term(var)
            if value in seen:
                return False
            seen.add(value)
        return True

    def inverse_on(self, variables: Iterable[Variable]) -> "Substitution":
        """The inverse of an injective variable-to-variable mapping,
        restricted to *variables*.  Raises if not invertible there."""
        inverse: dict[Variable, Term] = {}
        for var in variables:
            value = self.apply_term(var)
            if not isinstance(value, Variable):
                raise ValueError(f"{var} maps to constant {value}; not invertible")
            if value in inverse:
                raise ValueError(f"mapping is not injective at {value}")
            inverse[value] = var
        return Substitution(inverse)

    # ------------------------------------------------------------------
    # semantic predicates
    # ------------------------------------------------------------------

    def is_homomorphism(self, source: AtomsLike, target: AtomSet) -> bool:
        """True iff ``σ(source) ⊆ target``."""
        target_atoms = target if isinstance(target, AtomSet) else AtomSet(target)
        return all(
            self.apply_atom(at) in target_atoms for at in _iter_atoms(source)
        )

    def is_endomorphism_of(self, atoms: AtomSet) -> bool:
        """True iff the substitution maps *atoms* into itself."""
        return self.is_homomorphism(atoms, atoms)

    def is_retraction_of(self, atoms: AtomSet) -> bool:
        """True iff this is a retraction of *atoms*: an endomorphism whose
        restriction to the terms of its image is the identity
        (Section 2)."""
        if not self.is_endomorphism_of(atoms):
            return False
        image = self.apply(atoms)
        return all(
            self.apply_term(t) == t
            for t in image.terms()
            if isinstance(t, Variable)
        )

    def is_identity_on(self, terms: Iterable[Term]) -> bool:
        """True iff ``σ+`` fixes every given term."""
        return all(self.apply_term(t) == t for t in terms)

    def fold_to_retraction(self, atoms: AtomSet) -> "Substitution":
        """Fold an endomorphism of *atoms* into a retraction with the same
        eventual image structure.

        Iterating a finite endomorphism eventually permutes a stable term
        set; composing with the right power of that permutation yields an
        idempotent endomorphism, i.e. a retraction.  This is how the core
        machinery (and Lemma-2-style constructions) turn "some
        endomorphism that shrinks the instance" into the *simplification*
        retractions Definition 1 demands.
        """
        if not self.is_endomorphism_of(atoms):
            raise ValueError("fold_to_retraction requires an endomorphism")
        current = self
        # Iterate until the variable support stops shrinking.  At most
        # |vars| iterations are needed for the image terms to stabilize.
        for _ in range(len(atoms.variables()) + 1):
            if current.is_retraction_of(atoms):
                return current.drop_trivial()
            current = current.compose(current)
        # current now has a stable image on which it acts as a permutation
        # of finite order; exponentiate to the identity on the image.
        image_vars = [
            t for t in current.apply(atoms).terms() if isinstance(t, Variable)
        ]
        result = current
        for _ in range(_permutation_order_bound(current, image_vars)):
            if result.is_retraction_of(atoms):
                return result.drop_trivial()
            result = current.compose(result)
        raise RuntimeError("failed to fold endomorphism to a retraction")

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{v} -> {t}" for v, t in sorted(self._map.items(), key=lambda x: x[0].name)
        )
        return f"Substitution({{{inner}}})"


def _permutation_order_bound(mapping: Substitution, variables: list[Variable]) -> int:
    """An upper bound on the order of *mapping* seen as a permutation of
    *variables* (product of cycle lengths is a crude but safe bound)."""
    seen: set[Variable] = set()
    bound = 1
    for var in variables:
        if var in seen:
            continue
        length = 0
        cursor: Term = var
        while isinstance(cursor, Variable) and cursor not in seen:
            seen.add(cursor)
            cursor = mapping.apply_term(cursor)
            length += 1
        bound *= max(length, 1)
    return bound + 1
