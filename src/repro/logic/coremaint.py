"""Incremental, exact maintenance of per-step core retractions.

The core chase retracts to a core after every rule application
(Definition 1), yet between two consecutive retractions the instance
changes only by the freshly applied trigger's atoms Δ.  Recomputing
``core_retraction(pre_instance)`` from scratch each step therefore
re-proves, for *every* variable of the instance, a fact that was already
certified one step earlier.  :class:`CoreMaintainer` keeps enough state
across steps to avoid that — while remaining **exact**: its result is a
genuine idempotent retraction onto a core, bit-for-bit a valid
simplification, differentially tested against the naive path (which
stays reachable via ``--no-index`` / :func:`repro.logic.indexing.
no_index`).

Invariant and certificates
--------------------------
After step ``n`` the maintainer holds the certified core ``F_n`` and one
*certificate* per variable ``v`` of ``F_n``: the fingerprint of ``v``'s
atom neighborhood ``{a ∈ F_n : v ∈ a}`` at certification time.  On the
next call with ``pre = F_n ∪ Δ`` the certificates drive scheduling, and
three lemmas make the scheduling *sound* rather than heuristic:

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
wholesale certification that replaces ``|vars(F)|`` individual searches
with a scan of the (usually tiny, often empty) set of unifiable pairs.

**(L3) Unremovability persists downward.**  If no endomorphism of ``A``
avoids ``v`` and ``B = g(A) ⊆ A`` for an endomorphism ``g`` with ``v``
in ``vars(B)``, then no endomorphism of ``B`` avoids ``v`` either
(compose with ``g``).  Failed searches are therefore never repeated
within a call, and certificates survive folds.

The scheduler
-------------
A call ``retract(pre, delta)`` with usable state runs three phases,
restarting after every fold (each fold strictly shrinks the variable
set, so the loop terminates):

1. **Fresh nulls first.**  Variables of ``Δ`` outside the certified core
   are the likely-removable ones.  Each search is first *seeded* with
   the identity on the certified variables (the untouched-atoms seed —
   typically succeeding or failing almost immediately), then, if the
   seeded attempt fails, repeated unrestricted — exactness is never
   entrusted to the seed.
2. **Delta-neighborhood probes.**  Certified variables whose Gaifman
   neighborhood intersects ``Δ`` get a cheap *seeded* probe (identity on
   the certified variables outside the delta neighborhood).  A failed
   probe proves nothing and is not trusted — phase 3 provides the proof.
3. **The escape scan (L2).**  Enumerate pinned endomorphisms per
   unifiable (old, delta) atom pair, up to :data:`PAIR_ENUM_CAP` per
   pair.  A proper one is a fold; exhausting every pair without one
   certifies **all** certified variables unremovable at once — the
   common "instance is already a core" step costs O(|Δ| · pairs), not
   O(vars × hom-search).

Whenever the certified part stops being pinned — a fold moves a
certified variable, the cap is hit, or the caller's delta does not match
the stored core — the maintainer falls back to exact unrestricted
per-variable search for everything not already proven under (L3).  The
fallback is the same single pass :func:`repro.logic.cores.core_retraction`
runs, so the worst case is the naive cost plus the cheap probes.

Retraction transport
--------------------
When the final retraction σ fires, certificates are σ-transported rather
than recomputed: if the certified part was never moved, a surviving
variable's neighborhood changed only where a surviving delta atom (or an
entry invalidation) touched it, so only those certificates are
refreshed; the rest carry over verbatim.  If the certified part *was*
moved, every certificate of the new core is recomputed — the regression
tests pin down the case where a certificate must be invalidated by a
retraction rather than an addition.
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
from .homomorphism import find_homomorphism
from .substitution import Substitution
from .terms import Constant, Term, Variable

__all__ = ["CoreMaintainer", "PAIR_ENUM_CAP"]

#: Endomorphism-enumeration budget per pinned (old, delta) atom pair in
#: the escape scan; hitting it abandons wholesale certification for this
#: step and falls back to exact per-variable search.
PAIR_ENUM_CAP = 64

#: Mask keeping a neighborhood fingerprint's sum in one machine word.
_FP_MASK = (1 << 64) - 1


def _neighborhood_fingerprint(atoms: AtomSet, var: Variable) -> tuple:
    """Order-independent digest of ``{a ∈ atoms : var ∈ a}`` — the
    certificate a variable's unremovability proof is filed under."""
    count = 0
    fp_xor = 0
    fp_sum = 0
    for at in atoms._containing_raw(var):
        h = at._hash
        count += 1
        fp_xor ^= h
        fp_sum = (fp_sum + h) & _FP_MASK
    return (count, fp_xor, fp_sum)


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
    """Delta-aware, certificate-carrying core retraction (module
    docstring).  One maintainer serves one monotone-between-retractions
    instance sequence — the chase engine owns one per run."""

    def __init__(self) -> None:
        #: The core certified by the previous call (None before that).
        self.core: Optional[AtomSet] = None
        #: var -> neighborhood fingerprint it was certified under.
        self.certificates: dict[Variable, tuple] = {}
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
        *delta* extends the previously certified core.

        *delta* are the atoms added since the last call (in application
        order); pass None — or anything inconsistent with the stored
        state — and the maintainer transparently runs the full pass.
        """
        observer = _observer_state.current
        started = time.perf_counter() if observer is not None else 0.0
        stats = {
            "mode": "full",
            "candidates_tried": 0,
            "seeded_searches": 0,
            "pairs_checked": 0,
            "pair_endomorphisms": 0,
            "cert_invalidated": 0,
            "skip_hits": 0,
            "folds": 0,
            "clean_broken": False,
        }

        usable = (
            delta is not None
            and self.core is not None
            and self._delta_extends_core(pre_instance, delta)
        )
        if usable:
            stats["mode"] = "incremental"
            total, current = self._incremental_pass(
                pre_instance, list(delta), stats
            )
        else:
            total, current = _fold_pass(pre_instance, _stats=stats)

        if total:
            sigma = total.fold_to_retraction(pre_instance)
            core = sigma.apply(pre_instance)
        else:
            sigma = total
            core = pre_instance
        # `core` equals `current` as a set: the idempotent fold of an
        # endomorphism onto a core retracts onto that same core (the
        # fold restricted to the core is a retraction of a core, hence
        # the identity).  Certificates are filed against `core`.
        self._refresh_certificates(core, stats)
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
                skip_hits=stats["skip_hits"],
                seeded_searches=stats["seeded_searches"],
                pairs_checked=stats["pairs_checked"],
                cert_invalidated=stats["cert_invalidated"],
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
        self, pre_instance: AtomSet, delta: list[Atom], stats: dict
    ) -> tuple[Substitution, AtomSet]:
        clean = self.core
        clean_vars = frozenset(clean.variables())
        dirty_atoms = [at for at in delta if at not in clean]

        # Entry invalidation: a certified variable occurring in a delta
        # atom no longer matches its certificate.  (Variables merely
        # *adjacent* to the delta keep valid certificates but are still
        # probed first — their neighborhood's neighborhood changed.)
        hot: set[Variable] = set()
        for at in dirty_atoms:
            hot.update(at.variables())
        invalidated = {v for v in hot if v in clean_vars}
        stats["cert_invalidated"] = len(invalidated)
        adjacent: set[Variable] = set()
        for at in dirty_atoms:
            for term in at.args:
                for neighbor in pre_instance._containing_raw(term):
                    adjacent.update(neighbor.variables())
        hot_clean = sorted(
            (adjacent | invalidated) & clean_vars,
            key=lambda v: (v.rank, v.name),
        )

        fresh_nulls = sorted(
            (v for v in pre_instance.variables() if v not in clean_vars),
            key=lambda v: (v.rank, v.name),
        )

        current = pre_instance
        total = Substitution.identity()
        proven: set[Variable] = set()  # unremovable, by (L3) forever
        probed: set[Variable] = set()  # certified vars given a phase-2 probe
        clean_ok = True  # certified part still untouched and pinned
        clean_seed = Substitution({v: v for v in clean_vars})
        probe_seed = clean_seed.without(hot_clean)

        def fold(shrink: Substitution) -> None:
            nonlocal current, total, clean_ok
            total = shrink.compose(total)
            current = shrink.apply(current)
            stats["folds"] += 1
            if clean_ok and not all(
                shrink.apply_term(v) == v for v in clean_vars
            ):
                clean_ok = False
                stats["clean_broken"] = True

        while True:
            shrink = None
            live = current.variables()

            # Phase 1: fresh nulls — seeded first, then unrestricted.
            for var in fresh_nulls:
                if var in proven or var not in live:
                    continue
                stats["candidates_tried"] += 1
                hom = None
                if clean_ok:
                    stats["seeded_searches"] += 1
                    hom = find_homomorphism(
                        current,
                        current,
                        partial=clean_seed,
                        forbidden_images=[var],
                    )
                if hom is None:
                    hom = find_homomorphism(
                        current, current, forbidden_images=[var]
                    )
                if hom is None:
                    proven.add(var)
                else:
                    shrink = hom
                    break

            # Phase 2: certified variables adjacent to the delta — a
            # cheap seeded probe each; failure proves nothing (phase 3
            # carries the proof), success is a fold like any other.
            if shrink is None and clean_ok:
                for var in hot_clean:
                    if var in proven or var not in live:
                        continue
                    stats["candidates_tried"] += 1
                    stats["seeded_searches"] += 1
                    probed.add(var)
                    # Pin everything outside the delta neighborhood; the
                    # probed region stays free to move.
                    hom = find_homomorphism(
                        current,
                        current,
                        partial=probe_seed,
                        forbidden_images=[var],
                    )
                    if hom is not None:
                        shrink = hom
                        break

            # Phase 3: the escape scan (L2) — certifies every certified
            # variable wholesale, or finds the fold phase 2's seed hid.
            if shrink is None and clean_ok:
                shrink, certified = self._escape_scan(
                    current, clean, stats
                )
                if shrink is None:
                    if certified:
                        stats["skip_hits"] += sum(
                            1
                            for v in clean_vars
                            if v in live
                            and v not in proven
                            and v not in probed
                        )
                        break  # all fresh proven + all clean certified
                    clean_ok = False
                    stats["clean_broken"] = True

            # Fallback: the certified part moved or the scan gave up —
            # finish with exact unrestricted searches, skipping (L3)
            # facts already proven.
            if shrink is None and not clean_ok:
                for var in _variable_order(current):
                    if var in proven:
                        continue
                    stats["candidates_tried"] += 1
                    hom = find_homomorphism(
                        current, current, forbidden_images=[var]
                    )
                    if hom is None:
                        proven.add(var)
                    else:
                        shrink = hom
                        break
                if shrink is None:
                    break  # every variable proven unremovable

            if shrink is None:
                break
            fold(shrink)

        return total, current

    def _escape_scan(
        self, current: AtomSet, clean: AtomSet, stats: dict
    ) -> tuple[Optional[Substitution], bool]:
        """Search for a proper endomorphism of *current* through every
        unifiable (old atom, delta atom) pin (L2).

        Returns ``(fold, certified)``: a proper endomorphism and False,
        or ``(None, True)`` when the exhaustive scan proves no certified
        variable removable, or ``(None, False)`` when a pair exceeded
        :data:`PAIR_ENUM_CAP` enumerated endomorphisms.
        """
        dirty = [at for at in current.sorted_atoms() if at not in clean]
        if not dirty:
            return None, True

        # The scan runs one endomorphism search per pin against the
        # *same* source, so the pattern is encoded once and each pinned
        # search runs in int space, testing properness on the live
        # assignment (a proper endomorphism has some variable code
        # outside its own image) — a Substitution is materialized only
        # for the one fold actually returned.
        table = _compiled.symbol_table()
        encode_term = table.encode_term
        decode_term = table.decode_term
        encoded, var_codes = _compiled_plans.source_plan(
            current, current.sorted_atoms()
        )
        view = _compiled.compiled_view(current)

        seen_pins: set[Substitution] = set()
        for delta_atom in dirty:
            pool = clean._with_predicate_raw(delta_atom.predicate)
            for old_atom in sorted(pool, key=Atom.sort_key):
                if old_atom not in current:
                    continue  # folded away earlier in this call
                if not old_atom.variables():
                    continue  # ground atoms never witness an escape
                pin = _unify_onto(old_atom, delta_atom)
                if pin is None or pin in seen_pins:
                    continue
                seen_pins.add(pin)
                stats["pairs_checked"] += 1
                enumerated = 0
                seed = {encode_term(v): encode_term(t) for v, t in pin.items()}
                for assignment in _compiled_plans.run_plan(
                    encoded, view, seed, frozenset()
                ):
                    enumerated += 1
                    stats["pair_endomorphisms"] += 1
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

    # ------------------------------------------------------------------
    # certificate transport
    # ------------------------------------------------------------------

    def _refresh_certificates(self, core: AtomSet, stats: dict) -> None:
        """File certificates for the new *core*, recomputing only where
        the step could have changed a neighborhood.

        With the certified part untouched end-to-end (``clean_broken``
        False and an incremental pass), a surviving variable's
        neighborhood differs from its certificate only if a surviving
        non-clean atom mentions it — the clean atoms all survived
        verbatim.  Everything else transports.  Any other outcome
        (full pass, moved clean part) recomputes from scratch, which is
        exactly the retraction-invalidation rule the regression tests
        pin down.
        """
        transportable = (
            stats["mode"] == "incremental"
            and not stats["clean_broken"]
            and self.core is not None
        )
        refreshed: dict[Variable, tuple] = {}
        if transportable:
            clean = self.core
            touched: set[Variable] = set()
            for at in core:
                if at not in clean:
                    touched.update(at.variables())
            for var in core.variables():
                cert = self.certificates.get(var)
                if cert is not None and var not in touched:
                    refreshed[var] = cert  # σ-transported verbatim
                else:
                    refreshed[var] = _neighborhood_fingerprint(core, var)
        else:
            for var in core.variables():
                refreshed[var] = _neighborhood_fingerprint(core, var)
        self.certificates = refreshed
