"""Cores and retractions of finite atomsets.

A finite atomset ``A`` is a *core* if its only retraction is the identity
(Section 2).  Every finite atomset retracts to a core, unique up to
isomorphism, called *the* core of ``A``.

The core chase (Section 3) needs more than the core itself: Definition 1
requires each simplification ``σ_i`` to be a genuine *retraction* — an
endomorphism that is the identity on the terms of its image — and the
robust renaming of Definition 14 consumes the fibers ``σ⁻¹(X)`` of that
retraction.  :func:`core_retraction` therefore returns the folding
retraction, not just the retract.

Algorithm
---------
``core_retraction`` walks the variables once, in a deterministic order,
looking for an endomorphism of the current retract that avoids the
variable (found via homomorphism search with a forbidden image); the
composition of all such steps is an endomorphism of the original atomset
onto a retract from which no null can be removed — a core.  The
composition is then folded to idempotence (see
:meth:`Substitution.fold_to_retraction`), which makes it a retraction.

A *single* pass suffices because unremovability persists downward
through retractions: if no endomorphism of ``A`` avoids ``v`` and
``ρ`` is any retraction of ``A`` with ``v`` in its image, then no
endomorphism of ``ρ(A)`` avoids ``v`` either — such a ``g`` would make
``g ∘ ρ`` an endomorphism of ``A`` avoiding ``v``.  So a variable whose
search failed never needs retrying after later folds, and a variable
folded away needs no search at all.  (The incremental maintainer in
:mod:`repro.logic.coremaint` leans on the same lemma.)

The search is exponential in the worst case (deciding core-ness is
co-NP-hard) but behaves well on chase-sized instances.
"""

from __future__ import annotations

import time
from typing import Optional

from ..obs import observer as _observer_state
from .atomset import AtomSet
from .homomorphism import find_homomorphism
from .substitution import Substitution
from .terms import Variable

__all__ = ["is_core", "core_retraction", "core_of", "retracts_to"]


def _variable_order(atoms: AtomSet) -> list[Variable]:
    """The deterministic candidate order (by rank, then name) that makes
    core computation — and with it every core chase run — reproducible."""
    return sorted(atoms.variables(), key=lambda v: (v.rank, v.name))


def _removable_variable(atoms: AtomSet) -> Optional[Substitution]:
    """Find an endomorphism of *atoms* whose image avoids some variable."""
    for var in _variable_order(atoms):
        hom = find_homomorphism(atoms, atoms, forbidden_images=[var])
        if hom is not None:
            return hom
    return None


def is_core(atoms: AtomSet) -> bool:
    """True iff *atoms* is a core (no proper retraction exists).

    A finite atomset has a proper retraction iff it has an endomorphism
    missing some term of the atomset in its image; constants are always in
    the image (they are fixed), so only variables need checking.
    """
    return _removable_variable(atoms) is None


def core_retraction(atoms: AtomSet) -> Substitution:
    """A retraction of *atoms* whose image is a core of *atoms*.

    Returns the identity substitution when *atoms* is already a core.
    The result ``σ`` satisfies:

    * ``σ`` is a retraction of *atoms* (idempotent endomorphism);
    * ``σ(atoms)`` is a core.
    """
    observer = _observer_state.current
    started = time.perf_counter() if observer is not None else 0.0
    total, current = _fold_pass(atoms)
    if observer is not None:
        observer.emit(
            "core_retraction",
            atoms_before=len(atoms),
            atoms_after=len(current),
            variables_folded=len(atoms.variables()) - len(current.variables()),
            seconds=time.perf_counter() - started,
        )
    if not total:
        return total
    return total.fold_to_retraction(atoms)


def _fold_pass(
    atoms: AtomSet,
    candidates: Optional[list[Variable]] = None,
    stats: Optional[dict] = None,
) -> tuple[Substitution, AtomSet]:
    """One deterministic pass of variable folds over *atoms*.

    Returns ``(total, retract)`` where ``total`` is the raw composition
    of all fold endomorphisms (not yet idempotent) and ``retract`` is its
    image.  The candidate order is hoisted out of the loop: by downward
    persistence (module docstring) a variable whose search fails stays
    unremovable in every later retract, and a variable folded away is
    simply skipped — no variable is ever searched twice.  With the
    default *candidates* (every variable, in :func:`_variable_order`)
    the retract is a core of *atoms*; the incremental maintainer passes
    the fresh nulls of a step, then the old variables its scan could
    not prove.

    ``stats`` (when a dict) receives ``candidates_tried`` and ``folds``
    increments — the incremental maintainer's telemetry hook.
    """
    current = atoms
    total = Substitution.identity()
    if candidates is None:
        candidates = _variable_order(atoms)
    for var in candidates:
        if var not in current.variables():
            continue  # folded away by an earlier step
        if stats is not None:
            stats["candidates_tried"] += 1
        shrink = find_homomorphism(current, current, forbidden_images=[var])
        if shrink is None:
            continue  # unremovable — for good, by downward persistence
        if stats is not None:
            stats["folds"] += 1
        total = shrink.compose(total)
        current = shrink.apply(current)
    return total, current


def core_of(atoms: AtomSet) -> AtomSet:
    """The core of *atoms* (the retract of :func:`core_retraction`)."""
    return core_retraction(atoms).apply(atoms)


def retracts_to(atoms: AtomSet, target: AtomSet) -> Optional[Substitution]:
    """A retraction of *atoms* with image exactly *target*, or None.

    *target* must be a subset of *atoms*.  Used by tests to verify the
    paper's concrete claims of the form "``S^h_k`` retracts to
    ``C^h_{k+1}``" (Section 6).
    """
    if not target.issubset(atoms):
        return None
    fixed = Substitution(
        {t: t for t in target.terms() if isinstance(t, Variable)}
    )
    hom = find_homomorphism(atoms, target, partial=fixed)
    if hom is None:
        return None
    retraction = hom.drop_trivial()
    if retraction.apply(atoms) == target:
        return retraction
    return None
