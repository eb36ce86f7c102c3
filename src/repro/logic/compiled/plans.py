"""The compiled join evaluator.

:func:`compiled_assignments` runs the backtracking search of
:func:`repro.logic.homomorphism.homomorphisms` over the int tuples of a
:class:`~repro.logic.compiled.relations.CompiledView`:

* candidate pools are per-(position, image) postings intersected over
  every already-decided argument, the whole relation when none is
  decided, empty on a missing posting;
* selection is most-constrained-first (first strictly smaller pool
  wins, scan stops at a singleton, dead end on an empty pool);
* candidates are tried in row order under the per-argument
  ``(is_variable, name)`` key — the argument component of
  :meth:`Atom.sort_key`, whose predicate component is constant inside a
  relation — so a search is deterministic;
* every clash or exhausted subtree bumps ``_stats["backtracks"]``
  exactly once, like the reference's ``_undo``.

The naive reference (the object search inside
:func:`repro.logic.indexing.no_index`) uses coarser pools, so it may
enumerate in another order; the differential suite checks that both
find the same witnesses as a set, and that chase runs apply the same
rule sequence.

``injective`` (the isomorphism search) blocks every image already
taken, the way ``forbidden_images`` blocks images: the images
``partial`` fixes, the source's constants (every homomorphism fixes
them, so no variable may share their image), and each new binding until
it is undone.

Two structural choices make the search fast without changing what it
enumerates:

* **Compilation.**  A source pattern is *compiled* once
  (:func:`encode_source`): per atom, the constant argument positions are
  split from the variable ones.  Each search then pre-intersects the
  constant postings a single time (they never change while the
  assignment evolves), so the inner candidates() loop touches only
  variable positions; and the matcher skips constant positions entirely
  (any row drawn from a pool intersected with the constant postings
  carries them by construction, so a check there could not fail).
  Plans are cached on the source's
  :class:`~repro.logic.compiled.relations.CompiledView` and invalidated
  by mutation, so rule bodies compile exactly once per process.
* **An explicit frame stack** (descend = select an atom and push,
  advance = try the top frame's next candidate, exhaustion = reinsert
  the atom and pop) replaces the recursion, removing the
  nested-generator bubbling that dominates deep searches.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from ..substitution import Substitution
from .interner import symbol_table
from .relations import compiled_view

if TYPE_CHECKING:  # pragma: no cover
    from ..atoms import Atom
    from ..atomset import AtomSet
    from ..terms import Term

__all__ = [
    "compiled_assignments",
    "compiled_homomorphisms",
    "encode_source",
    "source_plan",
    "run_plan",
]

_EMPTY: frozenset = frozenset()


def encode_source(
    source_atoms: "list[Atom]",
) -> tuple[list[tuple], frozenset]:
    """Compile a source pattern: ``(plan atoms, variable codes)``.

    Each plan atom is ``(pred_code, arg_codes, var_positions,
    const_positions)`` with the two position tuples holding
    ``(position, code)`` pairs in argument order; the frozenset holds the
    codes of every variable occurring in the pattern.  The split is what
    lets a search probe constant postings once instead of every time an
    atom's pool is recomputed.
    """
    table = symbol_table()
    is_var = table.is_variable_code
    encoded: list[tuple] = []
    var_codes: set[int] = set()
    for at in source_atoms:
        enc = table.encode_atom(at)
        args = enc[2]
        var_positions = []
        const_positions = []
        for position, code in enumerate(args):
            if is_var[code]:
                var_positions.append((position, code))
                var_codes.add(code)
            else:
                const_positions.append((position, code))
        encoded.append(
            (enc[1], args, tuple(var_positions), tuple(const_positions))
        )
    return encoded, frozenset(var_codes)


def source_plan(
    source_set: "AtomSet", source_atoms: "list[Atom]"
) -> tuple[list[tuple], frozenset]:
    """The compiled plan of *source_set*, cached on its view.

    *source_atoms* must be ``source_set.sorted_atoms()`` (the caller
    usually has the list already).  Rule bodies and repeatedly searched
    instances hit the cache; any mutation of the atomset drops it.
    """
    view = compiled_view(source_set)
    plan = view.plan
    if plan is None:
        plan = view.plan = encode_source(source_atoms)
    return plan


def compiled_assignments(
    source_atoms: "list[Atom]",
    target: "AtomSet",
    partial: Optional[Substitution] = None,
    forbidden_images: "Iterable[Term]" = (),
    _stats: Optional[dict] = None,
    source_set: "Optional[AtomSet]" = None,
    injective: bool = False,
) -> Iterator[tuple[dict[int, int], frozenset]]:
    """Enumerate homomorphism assignments in int space.

    Yields ``(assignment, source_var_codes)`` pairs where ``assignment``
    maps variable codes to term codes and ``source_var_codes`` is the
    (constant) frozenset of variable codes occurring in *source_atoms*.
    **The yielded dict is live** — it is mutated as the search backtracks,
    so consumers must read it before advancing the iterator (this is what
    lets the core maintainer's escape scan test properness without
    materializing a :class:`Substitution` per endomorphism).

    *source_atoms* must already be in canonical sorted order (as produced
    by the caller's ``_as_atom_list``), which fixes the search's
    tie-breaks.  Pass the originating atomset as *source_set* to reuse
    its cached plan.  With *injective*, two images ``partial`` fixes that
    collide, or one that is a constant of the source, leave no witness.
    """
    if not isinstance(source_atoms, list):
        # Direct callers may hand an AtomSet (or any iterable) straight
        # in; its raw-set iteration order is hash-dependent, and the
        # branch order below must not be, so normalize exactly as
        # ``_as_atom_list`` would.
        from ..atomset import AtomSet

        if isinstance(source_atoms, AtomSet):
            if source_set is None:
                source_set = source_atoms
            source_atoms = source_atoms.sorted_atoms()
        else:
            source_atoms = sorted(set(source_atoms))

    table = symbol_table()
    encode_term = table.encode_term

    assignment: dict[int, int] = {}
    if partial is not None:
        for var, term in partial.items():
            assignment[encode_term(var)] = encode_term(term)
    forbidden_codes = frozenset(encode_term(t) for t in forbidden_images)
    if forbidden_codes and any(c in forbidden_codes for c in assignment.values()):
        return

    if source_set is not None:
        encoded, source_var_codes = source_plan(source_set, source_atoms)
    else:
        encoded, source_var_codes = encode_source(source_atoms)
    if injective:
        # The images already taken: the source's constants, then each
        # image ``partial`` fixes; they join the forbidden images.
        taken = {code for entry in encoded for _, code in entry[3]}
        for code in assignment.values():
            if code in taken:
                return
            taken.add(code)
        forbidden_codes = forbidden_codes | taken

    view = compiled_view(target)
    relations = view.relations
    # Fail fast: a source predicate with no rows kills every branch
    # (the compiled twin of ``count_with_predicate(...) == 0``).
    for entry in encoded:
        rel = relations.get(entry[0])
        if rel is None or not rel.rows:
            return

    for assignment in run_plan(
        encoded, view, assignment, forbidden_codes, _stats, injective
    ):
        yield assignment, source_var_codes


def _search_items(encoded: list[tuple], view) -> list[tuple]:
    """The per-(plan, target) working items, cached on the target view.

    One item per plan atom: ``(var_positions, const_pool, postings,
    sort_keys)``.  The constant postings are intersected here, once —
    they do not depend on the assignment — so the selection loop only
    probes variable positions.  The pools snapshot the view's current
    contents; any mutation clears the cache (relations.py), and the
    cached plan object is stored alongside to pin its ``id``.
    """
    cache = view.search_items
    entry = cache.get(id(encoded))
    if entry is not None and entry[0] is encoded:
        return entry[1]
    relations = view.relations
    items = []
    for pred_code, _args, var_positions, const_positions in encoded:
        rel = relations[pred_code]
        pool = None
        postings = rel.postings
        for position, code in const_positions:
            bucket = postings.get((position, code))
            if bucket is None:
                pool = _EMPTY
                break
            pool = bucket if pool is None else (pool & bucket)
            if not pool:
                pool = _EMPTY
                break
        if pool is None:
            pool = rel.rows
        items.append((var_positions, pool, postings, rel.sort_keys))
    cache[id(encoded)] = (encoded, items)
    return items


def run_plan(
    encoded: list[tuple],
    view,
    assignment: dict[int, int],
    forbidden_codes: frozenset,
    _stats: Optional[dict] = None,
    injective: bool = False,
) -> Iterator[dict[int, int]]:
    """The compiled search core over a pre-compiled source plan.

    *encoded* is read-only (plan atoms from :func:`encode_source`, whose
    relations must all be present in *view* — run the fail-fast first).
    Yields the live *assignment* dict at every solution; see
    :func:`compiled_assignments` for the aliasing caveat.  Callers that
    skip :func:`compiled_assignments` (the escape scan) must have
    performed its prechecks themselves or know they hold vacuously.
    With *injective*, each new binding's image is blocked like
    *forbidden_codes* until the binding is undone; the caller puts the
    images already taken into *forbidden_codes*.
    """
    stats_on = _stats is not None
    assignment_get = assignment.get
    remaining = list(_search_items(encoded, view))
    blocked = set(forbidden_codes) if injective else forbidden_codes

    def undo(newly_bound: list[int]) -> None:
        if stats_on:
            _stats["backtracks"] += 1
        if injective:
            blocked.difference_update([assignment[code] for code in newly_bound])
        for code in newly_bound:
            del assignment[code]

    def match(var_positions: tuple, row: tuple[int, ...]) -> Optional[list[int]]:
        # Constant positions are guaranteed by the pool (it was
        # intersected with their postings) — only variable positions can
        # clash.
        newly_bound: list[int] = []
        for position, code in var_positions:
            tgt = row[position]
            bound = assignment_get(code)
            if bound is not None:
                if bound != tgt:
                    undo(newly_bound)
                    return None
                continue
            if tgt in blocked:
                undo(newly_bound)
                return None
            assignment[code] = tgt
            if injective:
                blocked.add(tgt)
            newly_bound.append(code)
        return newly_bound

    # Frames mirror one level of the reference search's recursion:
    # [chosen item, its index in ``remaining``, ordered candidates,
    #  next candidate position, bindings of the current match (or None)].
    stack: list[list] = []
    descending = True
    while True:
        if descending:
            if not remaining:
                yield assignment
                descending = False
                continue
            best_index = 0
            best_pool = None
            best_len = -1
            dead = False
            for index, item in enumerate(remaining):
                # Inlined candidates(): start from the constant pool,
                # narrow through every *bound* variable position.
                pool = item[1]
                postings = item[2]
                for position, code in item[0]:
                    image = assignment_get(code)
                    if image is None:
                        continue
                    bucket = postings.get((position, image))
                    if bucket is None:
                        pool = _EMPTY
                        break
                    pool = pool & bucket
                    if not pool:
                        break
                size = len(pool)
                if best_pool is None or size < best_len:
                    best_index, best_pool, best_len = index, pool, size
                    if not size:
                        dead = True
                        break
                    if size == 1:
                        break
            if dead:
                descending = False
                continue
            chosen = remaining.pop(best_index)
            ordered = sorted(best_pool, key=chosen[3].__getitem__)
            stack.append([chosen, best_index, ordered, 0, None])
            descending = False
            continue
        # Advance the top frame: undo the subtree we are returning from
        # (if any), then try its next candidate.
        if not stack:
            return
        frame = stack[-1]
        newly_bound = frame[4]
        if newly_bound is not None:
            undo(newly_bound)
            frame[4] = None
        chosen, best_index, ordered, position = frame[0], frame[1], frame[2], frame[3]
        var_positions = chosen[0]
        matched = False
        while position < len(ordered):
            row = ordered[position]
            position += 1
            bound = match(var_positions, row)
            if bound is not None:
                frame[3] = position
                frame[4] = bound
                matched = True
                break
        if matched:
            descending = True
        else:
            stack.pop()
            remaining.insert(best_index, chosen)
            # stay in advance mode: return to the caller frame


def compiled_homomorphisms(
    source_atoms: "list[Atom]",
    target: "AtomSet",
    partial: Optional[Substitution] = None,
    forbidden_images: "Iterable[Term]" = (),
    _stats: Optional[dict] = None,
    source_set: "Optional[AtomSet]" = None,
    injective: bool = False,
) -> Iterator[Substitution]:
    """Enumerate homomorphisms as :class:`Substitution` objects — the
    decompiled form of :func:`compiled_assignments`."""
    decode = symbol_table().decode_term
    for assignment, source_var_codes in compiled_assignments(
        source_atoms,
        target,
        partial=partial,
        forbidden_images=forbidden_images,
        _stats=_stats,
        source_set=source_set,
        injective=injective,
    ):
        yield Substitution(
            {
                decode(var): decode(term)
                for var, term in assignment.items()
                if var in source_var_codes
            }
        )
