"""Incremental, exact maintenance of per-step core retractions.

The core chase retracts to a core after every rule application
(Definition 1), yet between two consecutive retractions the instance
changes only by the freshly applied trigger's atoms Δ.  Recomputing
``core_retraction(pre_instance)`` from scratch each step therefore
re-proves, for *every* variable of the instance, a fact that was already
proven one step earlier.  :class:`CoreMaintainer` keeps the previous
step's core to avoid that — while remaining **exact**: its result is a
genuine idempotent retraction onto a core, bit-for-bit a valid
simplification, differentially tested against the naive path (which
stays reachable via ``--no-index`` / :func:`repro.logic.indexing.
no_index`).

Three lemmas
------------
After step ``n`` the maintainer holds the core ``F_n``.  On the next
call with ``pre = F_n ∪ Δ`` three lemmas make the incremental pass
exact rather than heuristic:

**(L1) Cores are rigid.**  Every endomorphism of a finite core is an
automorphism (fold it to a retraction: on a core that retraction is the
identity, so some power of the endomorphism is the identity — it is
injective and surjective on terms).

**(L2) Escapes go through the delta.**  Let ``pre = F ∪ Δ`` with ``F`` a
core, and let ``h`` be an endomorphism of ``pre`` avoiding a variable
``v ∈ vars(F)``.  Then ``h`` maps some atom of ``F`` onto an atom of
``Δ \\ F``: otherwise ``h(F) ⊆ F``, so ``h|F`` is an endomorphism of the
core ``F``, by (L1) an automorphism — whose image contains every
variable of ``F``, contradicting that ``h`` avoids ``v``.  So to decide
removability of *all* old variables at once it suffices to enumerate,
for every (old atom ``a``, delta atom ``δ``) pair that unifies,
the endomorphisms of ``pre`` pinned with ``a ↦ δ``: if none of them is
*proper* (misses some variable), no old variable is removable — a
wholesale proof that replaces ``|vars(F)|`` individual searches with a
scan of the (usually tiny, often empty) set of unifiable pairs.

**(L3) Unremovability persists downward.**  If no endomorphism of ``A``
avoids ``v`` and ``B = g(A) ⊆ A`` for an endomorphism ``g`` with ``v``
in ``vars(B)``, then no endomorphism of ``B`` avoids ``v`` either
(compose with ``g``).  A failed search is therefore never repeated
within a call.

The incremental pass
--------------------
A call ``retract(pre, delta)`` whose delta extends the stored core
``F`` runs three steps:

1. **Fresh nulls.**  One unrestricted fold search per variable of
   ``pre`` outside ``F``, in the deterministic candidate order of
   :func:`repro.logic.cores.core_retraction`.  By (L3) a fresh null
   whose search failed stays unremovable for the rest of the call.
2. **The escape scan (L2).**  If the folds of step 1 fixed every
   variable of ``F``, ``F`` is still part of the instance, and the
   scan enumerates the endomorphisms pinned by every unifiable (old
   atom, delta atom) pair, up to :data:`PAIR_ENUM_CAP` per pair.
   Exhausting every pair without a proper one proves every variable of
   ``F`` unremovable at once: the common "instance is already a core"
   step costs O(|Δ| · pairs), not O(vars × hom-search).
3. **The exact pass on a clean break.**  When a fold moved a variable
   of ``F`` — in step 1, or the fold the scan found — or a pair hit the
   cap, the variables of ``F`` that are left get the exact single pass
   of ``core_retraction``; the fresh nulls step 1 proved are skipped.

A cold start, or a delta inconsistent with the stored core, runs the
full single pass, so the worst case is the naive cost.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from ..obs import observer as _observer_state
from .atoms import Atom
from .atomset import AtomSet
from . import compiled as _compiled
from .compiled import plans as _compiled_plans
from .cores import _fold_pass, _variable_order
from .substitution import Substitution
from .terms import Constant, Term, Variable

__all__ = ["CoreMaintainer", "PAIR_ENUM_CAP"]

#: Endomorphism-enumeration budget per pinned (old, delta) atom pair in
#: the escape scan; hitting it abandons the wholesale proof for this
#: step and falls back to the exact pass.
PAIR_ENUM_CAP = 64


def _unify_onto(source: Atom, target: Atom) -> Optional[Substitution]:
    """The substitution pinning ``source ↦ target`` argument-wise, or
    None when the two atoms do not unify that way (mirrors the trigger
    index's delta pinning)."""
    if source.predicate != target.predicate:
        return None
    binding: dict[Variable, Term] = {}
    for src_term, tgt_term in zip(source.args, target.args):
        if isinstance(src_term, Constant):
            if src_term != tgt_term:
                return None
            continue
        bound = binding.get(src_term)
        if bound is None:
            binding[src_term] = tgt_term
        elif bound != tgt_term:
            return None
    return Substitution(binding)


class CoreMaintainer:
    """Delta-aware core retraction (module docstring).  One maintainer
    serves one monotone-between-retractions instance sequence — the
    chase engine owns one per run."""

    def __init__(self) -> None:
        #: The core the previous call retracted to: None before the
        #: first call, unless the engine seeds it after a restore.
        self.core: Optional[AtomSet] = None
        #: Telemetry of the most recent :meth:`retract` call.
        self.last_stats: dict = {}

    # ------------------------------------------------------------------

    def retract(
        self,
        pre_instance: AtomSet,
        delta: Optional[Sequence[Atom]] = None,
    ) -> Substitution:
        """An exact core retraction of *pre_instance* (same contract as
        :func:`repro.logic.cores.core_retraction`), incremental when
        *delta* extends the previously stored core.

        *delta* are the atoms added since the last call (in application
        order); pass None — or anything inconsistent with the stored
        state — and the maintainer transparently runs the full pass.
        """
        observer = _observer_state.current
        started = time.perf_counter() if observer is not None else 0.0
        stats = {
            "mode": "full",
            "candidates_tried": 0,
            "pairs_checked": 0,
            "folds": 0,
            "clean_broken": False,
        }

        if (
            delta is not None
            and self.core is not None
            and self._delta_extends_core(pre_instance, delta)
        ):
            stats["mode"] = "incremental"
            total = self._incremental_pass(pre_instance, stats)
        else:
            total, _retract = _fold_pass(pre_instance, stats=stats)

        if total:
            sigma = total.fold_to_retraction(pre_instance)
            core = sigma.apply(pre_instance)
        else:
            sigma = total
            core = pre_instance
        self.core = core
        self.last_stats = stats

        if observer is not None:
            seconds = time.perf_counter() - started
            observer.emit(
                "core_retraction",
                atoms_before=len(pre_instance),
                atoms_after=len(core),
                variables_folded=len(pre_instance.variables())
                - len(core.variables()),
                seconds=seconds,
            )
            observer.emit(
                "core_maintenance",
                mode=stats["mode"],
                atoms_before=len(pre_instance),
                atoms_after=len(core),
                folds=stats["folds"],
                candidates_tried=stats["candidates_tried"],
                pairs_checked=stats["pairs_checked"],
                clean_broken=stats["clean_broken"],
                seconds=seconds,
            )
        return sigma

    # ------------------------------------------------------------------
    # state validation
    # ------------------------------------------------------------------

    def _delta_extends_core(
        self, pre_instance: AtomSet, delta: Sequence[Atom]
    ) -> bool:
        """True iff ``pre_instance = stored core ⊎ delta`` — the
        precondition of every incremental lemma."""
        core = self.core
        fresh = [at for at in delta if at not in core]
        if len(core) + len(fresh) != len(pre_instance):
            return False
        if len(set(fresh)) != len(fresh):
            return False
        return core.issubset(pre_instance) and all(
            at in pre_instance for at in fresh
        )

    # ------------------------------------------------------------------
    # the incremental pass
    # ------------------------------------------------------------------

    def _incremental_pass(
        self, pre_instance: AtomSet, stats: dict
    ) -> Substitution:
        """The three steps of the module docstring; returns the
        composition of their folds (not yet idempotent)."""
        clean = self.core
        clean_vars = clean.variables()
        fresh_nulls = [
            v for v in _variable_order(pre_instance) if v not in clean_vars
        ]
        total, current = _fold_pass(pre_instance, fresh_nulls, stats)
        if total.is_identity_on(clean_vars):
            shrink, certified = self._escape_scan(current, clean, stats)
            if certified:
                return total
            if shrink is not None:
                stats["folds"] += 1
                total = shrink.compose(total)
                current = shrink.apply(current)
        stats["clean_broken"] = True
        rest = [v for v in _variable_order(current) if v in clean_vars]
        exact, _retract = _fold_pass(current, rest, stats)
        return exact.compose(total)

    def _escape_scan(
        self, current: AtomSet, clean: AtomSet, stats: dict
    ) -> tuple[Optional[Substitution], bool]:
        """Search for a proper endomorphism of *current* through every
        unifiable (old atom, delta atom) pin (L2); *clean* must be a
        subset of *current*.

        Returns ``(fold, certified)``: a proper endomorphism and False,
        or ``(None, True)`` when the exhaustive scan proves no variable
        of *clean* removable, or ``(None, False)`` when a pair exceeded
        :data:`PAIR_ENUM_CAP` enumerated endomorphisms.  A fold it
        returns always moves a variable of *clean*: the fresh nulls
        left in *current* are already proven unremovable.
        """
        dirty = sorted(at for at in current if at not in clean)
        if not dirty:
            return None, True

        # The scan runs one endomorphism search per pin against the
        # *same* source, so the pattern is encoded once, at the first
        # pin (a step with no pin encodes nothing), and each pinned
        # search runs in int space, testing properness on the live
        # assignment (a proper endomorphism has some variable code
        # outside its own image) — a Substitution is materialized only
        # for the one fold actually returned.
        table = _compiled.symbol_table()
        encode_term = table.encode_term
        decode_term = table.decode_term
        view = None

        seen_pins: set[Substitution] = set()
        for delta_atom in dirty:
            pool = clean._with_predicate_raw(delta_atom.predicate)
            for old_atom in sorted(pool, key=Atom.sort_key):
                if not old_atom.variables():
                    continue  # ground atoms never witness an escape
                pin = _unify_onto(old_atom, delta_atom)
                if pin is None or pin in seen_pins:
                    continue
                seen_pins.add(pin)
                stats["pairs_checked"] += 1
                if view is None:
                    encoded, var_codes = _compiled_plans.source_plan(
                        current, current.sorted_atoms()
                    )
                    view = _compiled.compiled_view(current)
                enumerated = 0
                seed = {encode_term(v): encode_term(t) for v, t in pin.items()}
                for assignment in _compiled_plans.run_plan(
                    encoded, view, seed, frozenset()
                ):
                    enumerated += 1
                    image = {assignment[vc] for vc in var_codes}
                    if any(vc not in image for vc in var_codes):
                        endo = Substitution(
                            {
                                decode_term(v): decode_term(t)
                                for v, t in assignment.items()
                                if v in var_codes
                            }
                        )
                        return endo, False
                    if enumerated >= PAIR_ENUM_CAP:
                        return None, False  # budget blown: fall back
        return None, True
