"""Homomorphism search between atomsets.

A homomorphism from atomset ``A`` to atomset ``B`` is a substitution ``π``
with ``π(A) ⊆ B`` (Section 2).  Homomorphisms are the single semantic
primitive of the paper: modelhood, universality, CQ entailment, trigger
existence and trigger satisfaction, cores — all reduce to (variants of)
the search implemented here.

The search is plain backtracking over the atoms of the source, made
practical by:

* candidate pools narrowed by every already-decided argument of a
  pattern atom to the target atoms that contain its image;
* a selectivity-driven atom order (most-constrained atom first, i.e.
  smallest current candidate pool), which keeps the partial assignment
  propagating instead of guessing;
* cheap pre-checks (every source predicate must occur in the target).

Three extra knobs cover every use in the library:

``partial``
    A substitution fixing the images of some source variables — trigger
    satisfaction (extend ``π`` from the body to body ∪ head) and CQ
    answering with distinguished variables use this.
``forbidden_images``
    Target terms that may not be used as images — the core computation
    asks for endomorphisms avoiding a given null.
``injective``
    Demand an injective term mapping — the isomorphism search builds on
    this.  The source's constants are images from the start: every
    homomorphism fixes them, so no variable may share their image.

Every search runs on the compiled kernel (:mod:`repro.logic.compiled`),
which runs this search over interned int tuples with per-position
pools.  The object search below is the naive reference: it runs only
inside :func:`repro.logic.indexing.no_index`, where the differential
suites compare the kernel against it.
"""

from __future__ import annotations

import time
from typing import Iterable, Iterator, Optional, Union

from ..obs import observer as _observer_state
from . import indexing as _indexing
from .atoms import Atom
from .compiled import plans as _plans
from .atomset import AtomSet
from .substitution import Substitution
from .terms import Constant, Term, Variable

__all__ = [
    "find_homomorphism",
    "homomorphisms",
    "count_homomorphisms",
    "maps_into",
    "homomorphically_equivalent",
]

AtomsLike = Union[AtomSet, Iterable[Atom]]


def _as_atom_list(atoms: AtomsLike) -> list[Atom]:
    if isinstance(atoms, AtomSet):
        return atoms.sorted_atoms()
    return sorted(set(atoms))


def homomorphisms(
    source: AtomsLike,
    target: AtomSet,
    partial: Optional[Substitution] = None,
    forbidden_images: Iterable[Term] = (),
    injective: bool = False,
    _stats: Optional[dict] = None,
) -> Iterator[Substitution]:
    """Iterate over all homomorphisms from *source* into *target*.

    Every yielded substitution has exactly the variables of *source* in
    its domain: bindings of *partial* for variables outside the source
    are dropped, so a caller that needs them merges them back itself.

    ``_stats`` is the telemetry hook: when a dict is passed, the search
    records its problem sizes and counts every undo of a tentative atom
    match under ``"backtracks"`` (:mod:`repro.obs`); when None — the
    default — the only cost is one identity check per undo.
    """
    if not isinstance(target, AtomSet):
        target = AtomSet(target)
    source_atoms = _as_atom_list(source)
    forbidden = set(forbidden_images)
    if _stats is not None:
        _stats.setdefault("backtracks", 0)
        _stats["source_atoms"] = len(source_atoms)
        _stats["target_atoms"] = len(target)

    # Every search runs on the compiled kernel, except under
    # ``no_index()``, where the object search below is the reference.
    if _indexing.atom_index_enabled():
        yield from _plans.compiled_homomorphisms(
            source_atoms,
            target,
            partial=partial,
            forbidden_images=forbidden,
            _stats=_stats,
            source_set=source if isinstance(source, AtomSet) else None,
            injective=injective,
        )
        return

    assignment: dict[Variable, Term] = {}
    if partial is not None:
        for var, term in partial.items():
            assignment[var] = term
    if forbidden and any(t in forbidden for t in assignment.values()):
        return

    used_images: set[Term] = set()
    if injective:
        # The images already taken: the source's constants, then each
        # image ``partial`` fixes.
        used_images = {
            t for at in source_atoms for t in at.args if isinstance(t, Constant)
        }
        for term in assignment.values():
            if term in used_images:
                return
            used_images.add(term)

    # Fail fast: a predicate of the source absent from the target kills
    # every candidate branch.
    for at in source_atoms:
        if target.count_with_predicate(at.predicate) == 0:
            return

    source_vars = set()
    for at in source_atoms:
        source_vars.update(at.variables())

    def candidates(at: Atom) -> list[Atom]:
        """The target atoms *at* may map to under the current
        assignment: the term-containment index narrowed by every
        decided argument, filtered to the predicate, in sorted order."""
        pool: Optional[set[Atom]] = None
        for src_term in at.args:
            if isinstance(src_term, Constant):
                image: Optional[Term] = src_term
            else:
                image = assignment.get(src_term)
            if image is None:
                continue
            bucket = target._containing_raw(image)
            pool = bucket if pool is None else (pool & bucket)
            if not pool:
                return []
        if pool is None:
            pool = target._with_predicate_raw(at.predicate)
        matching = [cand for cand in pool if cand.predicate == at.predicate]
        matching.sort(key=Atom.sort_key)
        return matching

    def match_atom(at: Atom, candidate: Atom) -> Optional[list[Variable]]:
        """Try to extend the assignment so that ``at ↦ candidate``.
        Return the list of newly bound variables, or None on clash."""
        newly_bound: list[Variable] = []
        for src_term, tgt_term in zip(at.args, candidate.args):
            if isinstance(src_term, Constant):
                if src_term != tgt_term:
                    _undo(newly_bound)
                    return None
                continue
            bound_value = assignment.get(src_term)
            if bound_value is not None:
                if bound_value != tgt_term:
                    _undo(newly_bound)
                    return None
                continue
            if tgt_term in forbidden:
                _undo(newly_bound)
                return None
            if injective and tgt_term in used_images:
                _undo(newly_bound)
                return None
            assignment[src_term] = tgt_term
            if injective:
                used_images.add(tgt_term)
            newly_bound.append(src_term)
        return newly_bound

    def _undo(newly_bound: list[Variable]) -> None:
        if _stats is not None:
            _stats["backtracks"] += 1
        for var in newly_bound:
            value = assignment.pop(var)
            if injective:
                used_images.discard(value)

    remaining = list(source_atoms)

    def search() -> Iterator[Substitution]:
        if not remaining:
            yield Substitution(
                {v: t for v, t in assignment.items() if v in source_vars}
            )
            return
        # Most-constrained-first: pick the remaining atom with the
        # smallest candidate pool (recomputed under the current
        # assignment — this is what makes dense instances tractable).
        best_index = 0
        best_pool = None
        for index, at in enumerate(remaining):
            pool = candidates(at)
            if best_pool is None or len(pool) < len(best_pool):
                best_index, best_pool = index, pool
                if not pool:
                    return  # dead end, no candidate for some atom
                if len(pool) == 1:
                    break
        chosen = remaining.pop(best_index)
        assert best_pool is not None
        for candidate in best_pool:
            newly_bound = match_atom(chosen, candidate)
            if newly_bound is None:
                continue
            yield from search()
            _undo(newly_bound)
        remaining.insert(best_index, chosen)

    yield from search()


def find_homomorphism(
    source: AtomsLike,
    target: AtomSet,
    partial: Optional[Substitution] = None,
    forbidden_images: Iterable[Term] = (),
    injective: bool = False,
) -> Optional[Substitution]:
    """Return one homomorphism from *source* to *target*, or None.

    The search is deterministic, so repeated calls return the same
    witness — the chase engine depends on this for reproducible runs.
    """
    observer = _observer_state.current
    if observer is None:
        return next(
            homomorphisms(source, target, partial, forbidden_images, injective),
            None,
        )
    stats: dict = {}
    started = time.perf_counter()
    found = next(
        homomorphisms(
            source, target, partial, forbidden_images, injective, _stats=stats
        ),
        None,
    )
    observer.emit(
        "homomorphism_search",
        found=found is not None,
        backtracks=stats.get("backtracks", 0),
        source_atoms=stats.get("source_atoms", 0),
        target_atoms=stats.get("target_atoms", 0),
        seconds=time.perf_counter() - started,
    )
    return found


def count_homomorphisms(source: AtomsLike, target: AtomSet) -> int:
    """Count all homomorphisms from *source* to *target*."""
    return sum(1 for _ in homomorphisms(source, target))


def maps_into(source: AtomsLike, target: AtomSet) -> bool:
    """True iff *source* (homomorphically) maps to *target* — i.e.
    ``target ⊨ source`` when both are read as existentially closed
    conjunctions (Section 2)."""
    return find_homomorphism(source, target) is not None


def homomorphically_equivalent(left: AtomSet, right: AtomSet) -> bool:
    """True iff the two atomsets map into each other.

    Homomorphic equivalence is the right notion of "same content" for
    universal models: any two universal models of a KB are equivalent in
    this sense (used, e.g., in the proof of Proposition 5).
    """
    return maps_into(left, right) and maps_into(right, left)
