"""The generic chase engine.

One engine drives all four variants (Section 3 / the introduction):

=================  =============================  =========================
variant            activity of a trigger          simplification σ_i
=================  =============================  =========================
oblivious          never applied before (same π)  identity
semi-oblivious     never applied before with the  identity
                   same frontier image (skolem)
restricted         not satisfied in current F_i   identity
core               not satisfied in current F_i   retraction to a core
=================  =============================  =========================

Fair scheduling
---------------
Definition 3 requires every trigger to be eventually satisfied.  The
engine enumerates the active triggers of the current instance before
every application and picks the *oldest* one (age = step at which a
trigger with that canonical key was first seen, keys transported through
simplifications), breaking ties deterministically.  An unsatisfied
trigger therefore cannot be postponed forever: only the finitely many
older triggers can precede it, and each selection either satisfies or
retires one of them.

Termination
-----------
A chase run terminates when no active trigger remains; for the restricted
and core variants the final instance then satisfies all triggers, i.e. it
is a (finite) model of the KB — and, being the result of a fair
derivation, a universal one (Proposition 1).  The core chase terminates
exactly when the KB has a finite universal model (Deutsch, Nash & Remmel
2008), which is what the fes experiments check.

Checkpoint / resume and cooperative cancellation
------------------------------------------------
The engine's run state is a small, explicit value: the current instance,
the oblivious memory, the fair-scheduling ages, the fresh-null counter,
and the core-cadence bookkeeping.  :meth:`ChaseEngine.export_state`
captures it as a :class:`ChaseState`; :meth:`ChaseEngine.restore_state`
rebuilds a fresh engine from one (the trigger index, homomorphism memo
and core-maintenance certificates are *derived* structures, built on
the first step, so they never need to be persisted — and a restore
whose resume takes no step never builds them at all).  A
restored run continues the original derivation exactly: ages carry the
absolute birth steps via an internal offset, so fair scheduling makes
the same choices it would have made without the checkpoint, and the
restored fresh source invents the same nulls.  The service layer
(:mod:`repro.service`) persists these states as chase snapshots so
repeated queries against the same KB warm-start instead of re-chasing.

``run``/``resume`` also accept a ``should_stop`` callable, polled once
per iteration *before* any work for that step begins — the cooperative
cancellation checkpoint the service's per-job deadlines rely on.  A run
halted this way reports ``stopped=True`` on its result; its state is a
valid checkpoint (no step is ever half-applied).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..logic import homcache as _homcache
from ..logic import indexing as _indexing
from ..logic.atomset import AtomSet
from ..logic.coremaint import CoreMaintainer
from ..logic.cores import core_retraction
from ..logic.kb import KnowledgeBase
from ..logic.substitution import Substitution
from ..logic.terms import FreshVariableSource
from ..obs import observer as _observer_state
from ..obs.observer import Observer
from .derivation import Derivation, DerivationStep
from .trigger import Trigger, apply_trigger, triggers
from .compiled_index import CompiledTriggerIndex
from .trigger_index import TriggerIndex

__all__ = [
    "ChaseVariant",
    "ChaseResult",
    "ChaseState",
    "ChaseStateDelta",
    "ChaseEngine",
    "diff_chase_states",
    "apply_chase_state_delta",
    "merge_facts_into_state",
    "run_chase",
]


class ChaseVariant:
    """String constants naming the chase variants.

    ``FRUGAL`` is the variant of Konstantinidis & Ambite (reference [15]
    of the paper) that Section 3 points out also fits the derivation
    framework: it applies unsatisfied triggers like the restricted chase,
    but each simplification retracts only the *freshly created* nulls
    (never touching older terms).  It removes some — not all —
    redundancy, sitting strictly between the restricted and core chases,
    and its derivations are monotonic.
    """

    OBLIVIOUS = "oblivious"
    SEMI_OBLIVIOUS = "semi_oblivious"
    RESTRICTED = "restricted"
    FRUGAL = "frugal"
    CORE = "core"

    ALL = (OBLIVIOUS, SEMI_OBLIVIOUS, RESTRICTED, FRUGAL, CORE)


@dataclass
class ChaseResult:
    """Outcome of a chase run.

    Attributes
    ----------
    derivation:
        The full Definition-1 record of the run.
    terminated:
        True iff a fixpoint was reached (no active trigger left) within
        the step budget.
    variant:
        Which chase variant ran.
    stopped:
        True iff the run was halted by its ``should_stop`` callback (a
        deadline or cancellation) rather than by termination or the step
        budget.  A stopped run left a consistent state behind — no step
        is half-applied — so it can be checkpointed and resumed.
    applications:
        Number of rule applications performed (= len(derivation) - 1).
    """

    derivation: Derivation
    terminated: bool
    variant: str
    stopped: bool = False

    @property
    def applications(self) -> int:
        return len(self.derivation) - 1

    @property
    def final_instance(self) -> AtomSet:
        """The last instance — for a terminated restricted/core run this
        is a finite universal model of the KB."""
        return self.derivation.last_instance

    @property
    def retractions(self) -> int:
        """Steps whose simplification was a proper retraction (including
        the initial simplification of the facts when non-trivial)."""
        return sum(
            1 for step in self.derivation.steps if not step.is_identity_step()
        )

    @property
    def atoms_retracted(self) -> int:
        """Total atoms removed by simplifications over the whole run —
        the integral of the paper's per-step retraction series."""
        return sum(
            len(step.pre_instance) - len(step.instance)
            for step in self.derivation.steps
        )

    def __repr__(self) -> str:
        status = "terminated" if self.terminated else "budget-exhausted"
        return (
            f"ChaseResult({self.variant}, {status}, "
            f"{self.applications} applications, "
            f"{len(self.final_instance)} atoms)"
        )


@dataclass
class ChaseState:
    """A resumable checkpoint of a chase run (see the module docstring).

    Everything here is *primary* state: the derived accelerators
    (trigger index, positional atom index, homomorphism memo,
    core-maintenance certificates) are built on the first step after a
    restore.  ``ages`` and ``applied_keys`` use the engine's canonical
    trigger keys — ``(rule_name, image)`` with ``image`` a sorted tuple
    of ``(Variable, Term)`` pairs — so a state is meaningful only
    together with the KB it was exported from;
    :mod:`repro.service.snapshots` pairs it with a KB fingerprint on
    disk for exactly that reason.
    """

    variant: str
    core_every: int
    fresh_prefix: str
    fresh_count: int
    instance: AtomSet
    applied_keys: set = field(default_factory=set)
    ages: dict = field(default_factory=dict)
    terminated: bool = False
    applications: int = 0
    applications_since_core: int = 0
    delta_since_core: list = field(default_factory=list)

    def __repr__(self) -> str:  # the default would dump whole instances
        return (
            f"ChaseState({self.variant}, {self.applications} applications, "
            f"{len(self.instance)} atoms, "
            f"{'terminated' if self.terminated else 'resumable'})"
        )


@dataclass
class ChaseStateDelta:
    """The difference between two checkpoints of one derivation.

    Produced by :func:`diff_chase_states` and undone by
    :func:`apply_chase_state_delta`; the snapshot store persists these
    instead of full states, so a run that advanced a few steps costs a
    few atoms on disk rather than a whole instance.  Scalars are stored
    as the *child's* values (they do not compress); collections are
    stored as set differences.  ``delta_since_core`` is replaced
    wholesale — it is bounded by the core cadence and usually tiny.
    """

    fresh_count: int
    terminated: bool
    applications: int
    applications_since_core: int
    added_atoms: list = field(default_factory=list)
    removed_atoms: list = field(default_factory=list)
    added_applied_keys: list = field(default_factory=list)
    removed_applied_keys: list = field(default_factory=list)
    ages_set: list = field(default_factory=list)
    ages_removed: list = field(default_factory=list)
    delta_since_core: list = field(default_factory=list)

    def __repr__(self) -> str:
        return (
            f"ChaseStateDelta(+{len(self.added_atoms)}/"
            f"-{len(self.removed_atoms)} atoms, "
            f"-> {self.applications} applications)"
        )


def diff_chase_states(parent: ChaseState, child: ChaseState) -> ChaseStateDelta:
    """The delta taking *parent* to *child* (two checkpoints of the same
    configured derivation); ``apply_chase_state_delta(parent, delta)``
    reconstructs *child* exactly.

    The two states must agree on the configuration fields (variant,
    core cadence, fresh prefix) — a delta never crosses configurations.
    """
    for attr in ("variant", "core_every", "fresh_prefix"):
        if getattr(parent, attr) != getattr(child, attr):
            raise ValueError(
                f"cannot diff states with different {attr}: "
                f"{getattr(parent, attr)!r} vs {getattr(child, attr)!r}"
            )
    return ChaseStateDelta(
        fresh_count=child.fresh_count,
        terminated=child.terminated,
        applications=child.applications,
        applications_since_core=child.applications_since_core,
        added_atoms=child.instance.difference(parent.instance).sorted_atoms(),
        removed_atoms=parent.instance.difference(child.instance).sorted_atoms(),
        added_applied_keys=list(child.applied_keys - parent.applied_keys),
        removed_applied_keys=list(parent.applied_keys - child.applied_keys),
        ages_set=[
            (key, age)
            for key, age in child.ages.items()
            if parent.ages.get(key) != age
        ],
        ages_removed=[key for key in parent.ages if key not in child.ages],
        delta_since_core=list(child.delta_since_core),
    )


def apply_chase_state_delta(
    parent: ChaseState, delta: ChaseStateDelta
) -> ChaseState:
    """Reconstruct the child checkpoint from *parent* and *delta*.

    Pure: *parent* is not mutated, so a chain of deltas can be replayed
    against a base checkpoint read from disk.
    """
    instance = parent.instance.copy()
    for atom in delta.removed_atoms:
        instance.discard(atom)
    for atom in delta.added_atoms:
        instance.add(atom)
    applied = set(parent.applied_keys)
    applied.difference_update(delta.removed_applied_keys)
    applied.update(delta.added_applied_keys)
    ages = dict(parent.ages)
    for key in delta.ages_removed:
        ages.pop(key, None)
    ages.update(delta.ages_set)
    return ChaseState(
        variant=parent.variant,
        core_every=parent.core_every,
        fresh_prefix=parent.fresh_prefix,
        fresh_count=delta.fresh_count,
        instance=instance,
        applied_keys=applied,
        ages=ages,
        terminated=delta.terminated,
        applications=delta.applications,
        applications_since_core=delta.applications_since_core,
        delta_since_core=list(delta.delta_since_core),
    )


def merge_facts_into_state(state: ChaseState, atoms) -> ChaseState:
    """Graft extra input facts onto a checkpoint: the ancestor-resume
    primitive.

    Returns a new state whose instance additionally contains *atoms*;
    the checkpointed derivation prefix is untouched, so restoring the
    merged state and resuming is a fair continuation of a chase of the
    *grown* KB — the ancestor's applications happened against a subset
    of the facts (every trigger body that mapped into ``F_i`` still maps
    into ``F_i ∪ atoms``), and the rebuilt trigger index enumerates the
    new facts' triggers alongside the surviving old ones.  Soundness
    preconditions (the injected atoms share no nulls with the ancestor's
    facts or state) are the caller's responsibility —
    :meth:`repro.service.snapshots.SnapshotStore.resolve_ancestor`
    enforces them before handing out a state.

    ``terminated`` is cleared when anything was actually new (the old
    fixpoint says nothing about the grown instance), and the additions
    are appended to ``delta_since_core`` so the incremental core
    maintainer folds them into its next cadence retraction.
    """
    fresh = [atom for atom in atoms if atom not in state.instance]
    instance = state.instance.copy()
    for atom in fresh:
        instance.add(atom)
    return ChaseState(
        variant=state.variant,
        core_every=state.core_every,
        fresh_prefix=state.fresh_prefix,
        fresh_count=state.fresh_count,
        instance=instance,
        applied_keys=set(state.applied_keys),
        ages=dict(state.ages),
        terminated=state.terminated and not fresh,
        applications=state.applications,
        applications_since_core=state.applications_since_core,
        delta_since_core=list(state.delta_since_core) + fresh,
    )


class ChaseEngine:
    """A configurable chase driver.

    Parameters
    ----------
    kb:
        The knowledge base to chase.
    variant:
        One of :class:`ChaseVariant`.
    core_every:
        For the core variant: retract to a core after every ``k``-th rule
        application (default 1 — the canonical "each σ_i produces a core"
        reading; any finite value is a legitimate core chase per
        Section 3).
    fresh_prefix:
        Name prefix for invented nulls.
    observer:
        An :class:`repro.obs.Observer` receiving the engine's telemetry
        events.  Defaults to the process-global observer
        (:func:`repro.obs.set_observer`); pass one explicitly for scoped
        instrumentation.  When no observer is installed the engine pays
        a single identity check per event site.
    use_index:
        When True (the default) the engine maintains the live-trigger
        pool incrementally with a :class:`~repro.chase.trigger_index.
        TriggerIndex`, lets the homomorphism layer use its positional
        atom index and memo cache, and — for the core variant, unless
        :func:`repro.logic.indexing.set_core_maintenance` switched it
        off — computes per-step retractions with the incremental
        :class:`~repro.logic.coremaint.CoreMaintainer`.  When False the
        engine re-enumerates every trigger from scratch each step
        **and** scopes off the atom index, memo cache and core
        maintainer for the duration of the run — the fully naive
        reference path the differential tests compare against.
    use_compiled:
        When True (the default) and the index is on, the engine runs the
        compiled kernel (ISSUE 7): homomorphism searches evaluate as
        join plans over interned int tuples and the trigger pool is
        maintained by a :class:`~repro.chase.compiled_index.
        CompiledTriggerIndex` with semi-naive delta joins.  When False
        the compiled layer is scoped off for the duration of the run and
        the object-level indexed engine — the kernel's differential
        oracle, with identical witnesses and application counts — runs
        instead.  (``--no-compiled`` on the CLI.)
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        variant: str = ChaseVariant.RESTRICTED,
        core_every: int = 1,
        fresh_prefix: str = "_n",
        observer: Optional[Observer] = None,
        use_index: bool = True,
        use_compiled: bool = True,
    ):
        if variant not in ChaseVariant.ALL:
            raise ValueError(f"unknown chase variant {variant!r}")
        if core_every < 1:
            raise ValueError("core_every must be >= 1")
        self.kb = kb
        self.variant = variant
        self.core_every = core_every
        self.observer = observer
        self.use_index = use_index
        self.use_compiled = use_compiled
        self._fresh = FreshVariableSource(prefix=fresh_prefix)

    # ------------------------------------------------------------------

    def run(
        self,
        max_steps: int = 1000,
        on_step: Optional[Callable[[DerivationStep], None]] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> ChaseResult:
        """Run up to *max_steps* rule applications from the facts.

        ``on_step`` (if given) is invoked with every recorded step —
        the experiment harness uses it to measure per-step treewidths
        without retaining anything extra.  ``should_stop`` (if given) is
        polled before every step; once it returns True the run halts
        with ``stopped=True`` on the result.  The engine keeps its state
        afterward, so :meth:`resume` can continue the same derivation.
        """
        with self._index_scope():
            raw_facts = self.kb.facts.copy()
            self._maintainer = self._make_maintainer()
            self._delta_since_core: list = []
            if self.variant == ChaseVariant.CORE:
                if self._maintainer is not None:
                    sigma0 = self._maintainer.retract(raw_facts)
                else:
                    sigma0 = core_retraction(raw_facts)
            else:
                sigma0 = Substitution.identity()
            current = sigma0.apply(raw_facts)
            self._steps = [DerivationStep(0, None, raw_facts, sigma0, current)]
            self._current = current
            self._applied_keys: set = set()  # oblivious / semi-oblivious memory
            self._ages: dict = {}  # canonical trigger key -> birth step
            self._terminated = False
            self._applications_since_core = 0
            #: Applications recorded before this engine's own _steps —
            #: nonzero only after restore_state(); keeps ages and totals
            #: absolute across checkpoints.
            self.applications_offset = 0
            self._install_index(current)
            if on_step is not None:
                on_step(self._steps[0])
            return self._advance(max_steps, on_step, should_stop)

    def resume(
        self,
        extra_steps: int,
        on_step: Optional[Callable[[DerivationStep], None]] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> ChaseResult:
        """Continue the previous :meth:`run` (or :meth:`restore_state`)
        for *extra_steps* more rule applications; the returned result
        covers the derivation since the last run/restore.

        The continuation is seamless: fresh-variable numbering, fair
        scheduling ages, and the oblivious memory all carry over, so
        ``run(a); resume(b)`` records the same derivation as
        ``run(a + b)``.
        """
        if not hasattr(self, "_steps"):
            raise RuntimeError("resume() requires a prior run()")
        with self._index_scope():
            return self._advance(extra_steps, on_step, should_stop)

    # ------------------------------------------------------------------
    # checkpoint / restore
    # ------------------------------------------------------------------

    @property
    def current_instance(self) -> AtomSet:
        """The latest ``F_i`` of the run in progress (read-only use)."""
        if not hasattr(self, "_steps"):
            raise RuntimeError("current_instance requires a prior run()")
        return self._current

    def export_state(self) -> ChaseState:
        """Capture the run as a resumable :class:`ChaseState`.

        The state is a deep-enough copy: mutating the engine afterwards
        (more :meth:`resume` steps) does not corrupt it.
        """
        if not hasattr(self, "_steps"):
            raise RuntimeError("export_state() requires a prior run()")
        return ChaseState(
            variant=self.variant,
            core_every=self.core_every,
            fresh_prefix=self._fresh.prefix,
            fresh_count=self._fresh.count,
            instance=self._current.copy(),
            applied_keys=set(self._applied_keys),
            ages=dict(self._ages),
            terminated=self._terminated,
            applications=len(self._steps) - 1 + self.applications_offset,
            applications_since_core=self._applications_since_core,
            delta_since_core=list(self._delta_since_core),
        )

    def restore_state(self, state: ChaseState) -> None:
        """Adopt *state* as this engine's run state; :meth:`resume`
        then continues the checkpointed derivation exactly.

        The engine must have been constructed with the same KB, variant
        and core cadence the state was exported under (the KB pairing is
        the caller's responsibility — see
        :mod:`repro.service.snapshots`, which enforces it with a
        fingerprint).  Derived structures (trigger index, core
        certificates) are built on the first step, from the instance
        current then: a resume that stops before computing an active
        pool — a zero budget, a restored fixpoint, a query that already
        holds — never pays for them.
        """
        if state.variant != self.variant:
            raise ValueError(
                f"state is a {state.variant!r} checkpoint, engine runs "
                f"{self.variant!r}"
            )
        if state.core_every != self.core_every:
            raise ValueError(
                f"state was exported at core_every={state.core_every}, "
                f"engine uses {self.core_every}"
            )
        with self._index_scope():
            current = state.instance.copy()
            self._fresh = FreshVariableSource(
                prefix=state.fresh_prefix, start=state.fresh_count
            )
            self._maintainer = self._make_maintainer()
            self._delta_since_core = list(state.delta_since_core)
            self._steps = [
                DerivationStep(
                    0, None, current, Substitution.identity(), current
                )
            ]
            self._current = current
            self._applied_keys = set(state.applied_keys)
            self._ages = dict(state.ages)
            self._terminated = state.terminated
            self._applications_since_core = state.applications_since_core
            self.applications_offset = state.applications
            self._index = None

    def _make_maintainer(self) -> Optional[CoreMaintainer]:
        # The incremental maintainer needs the per-step delta, which
        # only the indexed engine computes; the naive path keeps the
        # from-scratch core_retraction (the differential reference).
        if (
            self.variant == ChaseVariant.CORE
            and self.use_index
            and _indexing.core_maintenance_enabled()
        ):
            return CoreMaintainer()
        return None

    def _install_index(self, current: AtomSet) -> None:
        if self.use_index:
            # The compiled index engages only when the compiled layer is
            # actually on in the ambient configuration (it may be scoped
            # off by ``no_compiled()`` or ``use_compiled=False``); its
            # pool contents and ordering are identical either way.
            cls = (
                CompiledTriggerIndex
                if (
                    self.use_compiled
                    and _indexing.compiled_enabled()
                    and _indexing.atom_index_enabled()
                )
                else TriggerIndex
            )
            self._index: Optional[TriggerIndex] = cls(
                self.kb.rules,
                current,
                track_satisfaction=self.variant
                not in (ChaseVariant.OBLIVIOUS, ChaseVariant.SEMI_OBLIVIOUS),
            )
        else:
            self._index = None

    def _index_scope(self):
        """The indexing configuration a run executes under: the ambient
        one normally, the compiled layer scoped off for
        ``use_compiled=False``, everything scoped off for the naive
        path."""
        if not self.use_index:
            return _indexing.no_index()
        if not self.use_compiled:
            return _indexing.configured(compiled=False)
        return nullcontext()

    def _advance(
        self,
        budget: int,
        on_step: Optional[Callable[[DerivationStep], None]],
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> ChaseResult:
        observer = (
            self.observer
            if self.observer is not None
            else _observer_state.current
        )
        performed = 0
        stopped = False
        while performed < budget and not self._terminated:
            # Cooperative cancellation checkpoint: between steps the
            # engine state is always consistent, so a deadline can halt
            # the run here and the state remains checkpointable.
            if should_stop is not None and should_stop():
                stopped = True
                break
            step_index = len(self._steps)
            birth = step_index + self.applications_offset
            if observer is not None:
                observer.chase_step_started(
                    step=step_index,
                    variant=self.variant,
                    atoms=len(self._current),
                )
            if self._index is None and self.use_index:
                # First pool computation after a restore: build the
                # index now, under this resume's indexing scope.
                self._install_index(self._current)
            if self._index is not None:
                active = self._indexed_active_triggers()
            else:
                active = self._active_triggers(
                    self._current, self._applied_keys
                )
            if not active:
                self._terminated = True
                break
            for trigger in active:
                self._ages.setdefault(self._age_key(trigger), birth)
            chosen = min(
                active,
                key=lambda tr: (self._ages[self._age_key(tr)], tr.sort_key()),
            )
            if observer is not None:
                observer.trigger_selected(
                    step=step_index,
                    rule=chosen.rule.name,
                    active=len(active),
                )
            atoms_before = len(self._current)
            pre_instance, pi_safe = apply_trigger(
                self._current, chosen, self._fresh
            )
            self._applied_keys.add(self._memory_key(chosen))
            delta: list = []
            if self._index is not None:
                seen_delta: set = set()
                for head_atom in chosen.rule.head.sorted_atoms():
                    atom = pi_safe.apply_atom(head_atom)
                    if atom not in seen_delta and atom not in self._current:
                        seen_delta.add(atom)
                        delta.append(atom)

            self._applications_since_core += 1
            if self._maintainer is not None:
                self._delta_since_core.extend(delta)
            if (
                self.variant == ChaseVariant.CORE
                and self._applications_since_core >= self.core_every
            ):
                if self._maintainer is not None:
                    sigma = self._maintainer.retract(
                        pre_instance, self._delta_since_core
                    )
                    self._delta_since_core = []
                else:
                    sigma = core_retraction(pre_instance)
                self._applications_since_core = 0
            elif self.variant == ChaseVariant.FRUGAL:
                sigma = _frugal_retraction(pre_instance, self._current.terms())
            else:
                sigma = Substitution.identity()
            self._current = sigma.apply(pre_instance)
            proper_retraction = len(sigma.drop_trivial()) > 0
            if self._index is not None:
                delta_stats = self._index.apply_delta(
                    pre_instance, delta, satisfied_hint=chosen
                )
                transport_stats = {"transported": 0, "collapsed": 0}
                if proper_retraction:
                    transport_stats = self._index.transport(sigma)
                    if _indexing.hom_memo_enabled():
                        # The pre-application instance is superseded for
                        # good once a proper retraction fires.
                        _homcache.get_cache().invalidate(
                            pre_instance.fingerprint()
                        )
                if observer is not None:
                    observer.trigger_index_update(
                        step=step_index,
                        delta_atoms=delta_stats["delta_atoms"],
                        triggers_new=delta_stats["triggers_new"],
                        triggers_reused=delta_stats["triggers_reused"],
                        satisfaction_rechecks=delta_stats[
                            "satisfaction_rechecks"
                        ],
                        transported=transport_stats["transported"],
                        collapsed=transport_stats["collapsed"],
                    )
            step = DerivationStep(
                step_index, chosen, pre_instance, sigma, self._current
            )
            self._steps.append(step)
            performed += 1
            if observer is not None:
                observer.trigger_retired(
                    step=step_index, rule=chosen.rule.name, reason="applied"
                )
                observer.chase_step_finished(
                    step=step_index,
                    rule=chosen.rule.name,
                    atoms_before=atoms_before,
                    atoms_applied=len(pre_instance),
                    atoms_after=len(self._current),
                    retracted=len(pre_instance) - len(self._current),
                )
            if on_step is not None:
                on_step(step)
            if proper_retraction:
                before_transport = len(self._ages)
                self._ages = self._transport_ages(self._ages, sigma)
                if observer is not None:
                    collapsed = before_transport - len(self._ages)
                    if collapsed:
                        observer.trigger_retired(
                            step=step_index,
                            rule=None,
                            reason="collapsed",
                            count=collapsed,
                        )

        derivation = Derivation(self.kb, list(self._steps))
        return ChaseResult(
            derivation, self._terminated, self.variant, stopped=stopped
        )

    # ------------------------------------------------------------------
    # variant plumbing
    # ------------------------------------------------------------------

    def _indexed_active_triggers(self) -> list[Trigger]:
        """The active pool, read off the incremental index: the same set
        :meth:`_active_triggers` enumerates from scratch."""
        if self.variant in (ChaseVariant.OBLIVIOUS, ChaseVariant.SEMI_OBLIVIOUS):
            return [
                trigger
                for trigger in self._index.live_triggers()
                if self._memory_key(trigger) not in self._applied_keys
            ]
        return self._index.unsatisfied_triggers()

    def _active_triggers(self, instance: AtomSet, applied_keys: set) -> list[Trigger]:
        active: list[Trigger] = []
        for rule in self.kb.rules:
            for trigger in triggers(rule, instance):
                if self.variant == ChaseVariant.OBLIVIOUS:
                    if self._memory_key(trigger) not in applied_keys:
                        active.append(trigger)
                elif self.variant == ChaseVariant.SEMI_OBLIVIOUS:
                    if self._memory_key(trigger) not in applied_keys:
                        active.append(trigger)
                else:  # restricted / core
                    if not trigger.is_satisfied_in(instance):
                        active.append(trigger)
        return active

    def _memory_key(self, trigger: Trigger):
        """What the oblivious variants remember about an application."""
        if self.variant == ChaseVariant.SEMI_OBLIVIOUS:
            return (trigger.rule.name, trigger.frontier_image())
        return (trigger.rule.name, trigger.full_image())

    @staticmethod
    def _age_key(trigger: Trigger):
        """Canonical identity of a trigger for age tracking."""
        return (trigger.rule.name, trigger.full_image())

    @staticmethod
    def _transport_ages(ages: dict, sigma: Substitution) -> dict:
        """Carry trigger ages across a simplification: the transported
        trigger ``σ(tr)`` inherits the age of ``tr`` (keeping the oldest
        when several collapse onto the same key)."""
        transported: dict = {}
        for (rule_name, image), age in ages.items():
            new_image = tuple(
                (var, sigma.apply_term(term)) for var, term in image
            )
            key = (rule_name, new_image)
            if key not in transported or transported[key] > age:
                transported[key] = age
        return transported


def _frugal_retraction(pre_instance: AtomSet, old_terms) -> Substitution:
    """The frugal simplification: a retraction of the post-application
    instance that is the identity on the pre-existing terms and folds
    away redundant *fresh* nulls (greedily, one at a time).

    Because old terms are pinned, frugal derivations are monotonic; they
    remove strictly less redundancy than a core retraction (which may
    fold old structure onto new, as the staircase shows)."""
    from ..logic.homomorphism import find_homomorphism
    from ..logic.terms import Variable

    old_variables = {t for t in old_terms if isinstance(t, Variable)}
    pinned = Substitution({v: v for v in old_variables})
    current = pre_instance
    total = Substitution.identity()
    fresh = sorted(
        (v for v in pre_instance.variables() if v not in old_variables),
        key=lambda v: (v.rank, v.name),
    )
    for null in fresh:
        hom = find_homomorphism(
            current, current, partial=pinned, forbidden_images=[null]
        )
        if hom is None:
            continue
        total = hom.compose(total)
        current = hom.apply(current)
    if not total:
        return total
    return total.fold_to_retraction(pre_instance)


def run_chase(
    kb: KnowledgeBase,
    variant: str = ChaseVariant.RESTRICTED,
    max_steps: int = 1000,
    core_every: int = 1,
    on_step: Optional[Callable[[DerivationStep], None]] = None,
    observer: Optional[Observer] = None,
    use_index: bool = True,
    use_compiled: bool = True,
    should_stop: Optional[Callable[[], bool]] = None,
) -> ChaseResult:
    """One-shot convenience wrapper around :class:`ChaseEngine`."""
    engine = ChaseEngine(
        kb,
        variant=variant,
        core_every=core_every,
        observer=observer,
        use_index=use_index,
        use_compiled=use_compiled,
    )
    return engine.run(
        max_steps=max_steps, on_step=on_step, should_stop=should_stop
    )
