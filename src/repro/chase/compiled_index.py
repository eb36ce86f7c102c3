"""The compiled trigger index: semi-naive delta joins in int space.

:class:`CompiledTriggerIndex` is the trigger index the chase engine
builds.  Its base, :class:`~repro.chase.trigger_index.TriggerIndex`,
keeps the trigger pool (growth absorption and retraction transports —
see its module docstring); this subclass supplies the one
step the base leaves open, the *discovery join* of a growth step: which
triggers send some body atom onto a delta atom.  It compiles that join
once per rule:

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

The discovery runs its loops in a fixed order — body atoms in sorted
order, delta atoms in arrival order, the evaluator's canonical witness
order — so the pool is populated in the same order on every run, and
the engine's fair scheduler makes the same choices.

Retractions need no compiled counterpart: the inherited
:meth:`~repro.chase.trigger_index.TriggerIndex.transport` carries
triggers through a simplification without any matching, and the
underlying :class:`~repro.logic.compiled.relations.CompiledView`
absorbs the corresponding tuple deletions through ``AtomSet.discard``
forwarding (plus delta invalidation of the cached per-plan pools).

A restore builds the index from a checkpoint's active set (the
``active`` keys): the rule plans are compiled, the pool is seeded, and
the instance is neither enumerated nor encoded until the first delta.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

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

    __slots__ = ("_plans", "_plans_generation", "_plans_run")

    def __init__(
        self,
        rules: Iterable[ExistentialRule],
        instance: AtomSet,
        track_satisfaction: bool = True,
        active: Optional[Iterable[tuple]] = None,
    ):
        self._plans: dict = {}
        self._plans_generation: Optional[int] = None
        #: Plans run by the current apply_delta (its join_plan event).
        self._plans_run = 0
        super().__init__(
            rules, instance, track_satisfaction=track_satisfaction, active=active
        )
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
        """Absorb a growth step (see :meth:`TriggerIndex.apply_delta`),
        discovering the new triggers through the compiled join plans,
        and emit the round's ``join_plan`` event."""
        self._plans_run = 0
        stats = super().apply_delta(
            instance, delta, satisfied_hint=satisfied_hint
        )
        observer = _observer_state.current
        if observer is not None:
            observer.emit(
                "join_plan",
                delta_atoms=len(delta),
                plans_run=self._plans_run,
                triggers_new=stats["triggers_new"],
                tuples=compiled_view(instance).tuples,
            )
        return stats

    def _delta_triggers(
        self, instance: AtomSet, delta: list[Atom]
    ) -> Iterator[Trigger]:
        """Run the body plan of every rule whose body predicates meet
        the delta's, from each pin of a body atom onto a delta row."""
        self._compile_plans()
        encode_atom = symbol_table().encode_atom
        view = compiled_view(instance)
        delta_rows = [encode_atom(at) for at in delta]
        delta_preds = {enc[1] for enc in delta_rows}
        for rule in self.rules:
            encoded, _var_codes = self._plans[rule.name]
            if not any(entry[0] in delta_preds for entry in encoded):
                continue
            self._plans_run += 1
            yield from self._pinned_triggers(rule, encoded, view, delta_rows)

    def _pinned_triggers(
        self,
        rule: ExistentialRule,
        encoded: list[tuple],
        view,
        delta_rows: list[tuple],
    ) -> Iterator[Trigger]:
        """The triggers of *rule* touching the delta: pin each body atom
        onto each compatible delta row in turn (sorted body atoms outer,
        delta arrival order inner), run the body plan from the pinned
        seed, dedup on the int assignment."""
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
                # Int unification of the body atom onto the delta row: a
                # repeated variable must meet one value, a constant
                # must match.
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
