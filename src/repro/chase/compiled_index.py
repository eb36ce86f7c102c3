"""The compiled trigger index: semi-naive delta joins in int space.

:class:`CompiledTriggerIndex` is the compiled kernel's drop-in
replacement for :class:`~repro.chase.trigger_index.TriggerIndex`.  The
object index already maintains the live-trigger pool incrementally
(growth deltas + retraction transports — see its module docstring); what
it still pays per step is the *discovery join*: for every rule whose
body predicates meet the delta's, unify each body atom with each delta
atom at the object level, build a pinned :class:`Substitution`, and run
the homomorphism search from it.

This subclass compiles that join once per rule:

* at construction every rule body is compiled to a join plan over the
  interned relations (:func:`repro.logic.compiled.plans.source_plan` —
  shared with the homomorphism layer, so a body is encoded exactly once
  per process), reported as one ``compile`` event per rule;
* ``apply_delta`` encodes the delta atoms to int rows once, unifies
  body atoms against them in int space (no ``Substitution`` until a
  genuinely new trigger is found), seeds the compiled evaluator's
  :func:`~repro.logic.compiled.plans.run_plan` directly, and dedups
  homomorphisms on the raw int assignment — one ``join_plan`` event per
  absorbed delta summarises the round.

The discovery replays the object index's loops exactly — body atoms in
sorted order, delta atoms in arrival order, the evaluator's canonical
witness order — so the pool is populated in the **same order with the
same keys** as the object index would produce: the engine's fair
scheduler cannot tell the difference.  When the compiled layer is
scoped off mid-run (:func:`repro.logic.indexing.no_compiled`), every
maintenance call bails back to the inherited object path — same
answers, object speed.

Retractions need no compiled counterpart: the inherited
:meth:`~repro.chase.trigger_index.TriggerIndex.transport` carries
triggers through a simplification without any matching, and the
underlying :class:`~repro.logic.compiled.relations.CompiledView`
absorbs the corresponding tuple deletions through ``AtomSet.discard``
forwarding (plus delta invalidation of the cached per-plan pools).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from ..logic import indexing as _indexing
from ..logic.atoms import Atom
from ..logic.atomset import AtomSet
from ..logic.compiled import compiled_view, symbol_table
from ..logic.compiled.plans import run_plan, source_plan
from ..logic.rules import ExistentialRule
from ..logic.substitution import Substitution
from ..obs import observer as _observer_state
from .trigger import Trigger
from .trigger_index import TriggerIndex

__all__ = ["CompiledTriggerIndex"]


class CompiledTriggerIndex(TriggerIndex):
    """A :class:`TriggerIndex` whose delta re-matching runs as compiled
    join plans over the instance's interned relations."""

    __slots__ = ("_plans", "_plans_generation")

    def __init__(
        self,
        rules: Iterable[ExistentialRule],
        instance: AtomSet,
        track_satisfaction: bool = True,
    ):
        self._plans: dict = {}
        self._plans_generation: Optional[int] = None
        super().__init__(rules, instance, track_satisfaction=track_satisfaction)
        self._compile_plans()

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------

    def _compile_plans(self) -> None:
        """(Re)compile every rule body to a join plan, emitting one
        ``compile`` event per rule.  Recompilation only happens after
        the test-only symbol-table reset (generation mismatch)."""
        table = symbol_table()
        if self._plans_generation == table.generation:
            return
        observer = _observer_state.current
        self._plans = {}
        for rule in self.rules:
            encoded, var_codes = source_plan(rule.body, rule.body.sorted_atoms())
            self._plans[rule.name] = (encoded, var_codes)
            if observer is not None:
                observer.emit(
                    "compile",
                    rule=rule.name or "",
                    body_atoms=len(encoded),
                    variables=len(var_codes),
                )
        self._plans_generation = table.generation

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def apply_delta(
        self,
        instance: AtomSet,
        delta: list[Atom],
        satisfied_hint: Optional[Trigger] = None,
    ) -> dict:
        """Absorb a growth step through the compiled join plans.

        Semantics (pool contents, key order, satisfaction marks) are
        identical to the inherited object version; only the discovery
        join runs in int space.  Bails to the object path when the
        compiled layer is scoped off.
        """
        if not (_indexing.compiled_enabled() and _indexing.atom_index_enabled()):
            return super().apply_delta(
                instance, delta, satisfied_hint=satisfied_hint
            )
        self._compile_plans()
        table = symbol_table()
        encode_atom = table.encode_atom
        view = compiled_view(instance)
        delta_rows = [encode_atom(at) for at in delta]
        delta_preds = {enc[1] for enc in delta_rows}

        before = len(self._live)
        new_keys: set = set()
        plan_runs = 0
        if delta_preds:
            for rule in self.rules:
                encoded, var_codes = self._plans[rule.name]
                if not any(entry[0] in delta_preds for entry in encoded):
                    continue
                plan_runs += 1
                for trigger in self._delta_triggers(
                    rule, encoded, var_codes, view, delta_rows
                ):
                    key = self.key(trigger)
                    if key not in self._live:
                        self._live[key] = trigger
                        new_keys.add(key)
        rechecks = 0
        if self.track_satisfaction:
            if satisfied_hint is not None:
                self._satisfied.add(self.key(satisfied_hint))
            delta_pred_objs = {at.predicate for at in delta}
            for key, trigger in self._live.items():
                if key in self._satisfied:
                    continue
                fresh = key in new_keys
                if not fresh and not (
                    self._head_preds[key[0]] & delta_pred_objs
                ):
                    continue
                rechecks += 1
                if trigger.is_satisfied_in(instance):
                    self._satisfied.add(key)

        observer = _observer_state.current
        if observer is not None:
            observer.emit(
                "join_plan",
                delta_atoms=len(delta),
                plans_run=plan_runs,
                triggers_new=len(new_keys),
                tuples=view.tuples,
            )
        return {
            "delta_atoms": len(delta),
            "triggers_new": len(new_keys),
            "triggers_reused": before,
            "satisfaction_rechecks": rechecks,
        }

    def _delta_triggers(
        self,
        rule: ExistentialRule,
        encoded: list[tuple],
        var_codes: frozenset,
        view,
        delta_rows: list[tuple],
    ) -> Iterator[Trigger]:
        """The compiled twin of
        :func:`repro.chase.trigger.triggers_from_delta`: pin each body
        atom onto each compatible delta row in turn, run the body plan
        from the pinned seed, dedup on the int assignment.  Loop order
        (sorted body atoms outer, delta arrival order inner) and the
        evaluator's witness order match the object code, so triggers
        are yielded in the identical sequence."""
        relations = view.relations
        for entry in encoded:
            rel = relations.get(entry[0])
            if rel is None or not rel.rows:
                return  # some body predicate has no rows: no triggers
        table = symbol_table()
        is_var = table.is_variable_code
        decode = table.decode_term
        seen: set = set()
        for pred_code, args, _var_positions, _const_positions in encoded:
            for enc in delta_rows:
                if enc[1] != pred_code:
                    continue
                row = enc[2]
                # Int unification of the body atom onto the delta row —
                # the compiled _unify_body_atom.
                pinned: Optional[dict] = {}
                for code, tgt in zip(args, row):
                    if is_var[code]:
                        bound = pinned.get(code)
                        if bound is None:
                            pinned[code] = tgt
                        elif bound != tgt:
                            pinned = None
                            break
                    elif code != tgt:
                        pinned = None
                        break
                if pinned is None:
                    continue
                for assignment in run_plan(encoded, view, pinned, frozenset()):
                    key = frozenset(assignment.items())
                    if key in seen:
                        continue
                    seen.add(key)
                    mapping = Substitution(
                        {decode(v): decode(t) for v, t in assignment.items()}
                    )
                    yield Trigger(rule, mapping)
