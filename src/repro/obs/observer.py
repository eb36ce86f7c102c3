"""The :class:`Observer` protocol the instrumented hot paths report into.

Design constraints (ISSUE 1 / the telemetry tentpole):

* **Zero-cost when off.**  Every instrumented module keeps a reference
  to this module and tests ``observer.current is not None`` — a single
  attribute load and identity check — before doing any accounting.  The
  chase engine resolves the observer once per :meth:`~ChaseEngine.run`.
* **Injectable.**  :class:`~repro.chase.engine.ChaseEngine` accepts an
  ``observer=`` argument for scoped use; the module-global ``current``
  (managed by :func:`set_observer` / :func:`observing`) reaches the
  functional hot paths (homomorphism search, core retraction, exact
  treewidth) that have no object to hang state on.
* **No-op base class.**  Subclasses override only the callbacks they
  care about; every callback takes keyword arguments only, so adding a
  payload field later never breaks an observer.

The callbacks mirror the paper's quantities: per-step retraction sizes
(Section 7), homomorphism search effort (the single semantic primitive),
treewidth search budgets (Section 4), robust-renaming churn (Section 8).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Sequence

__all__ = [
    "Observer",
    "CompositeObserver",
    "current",
    "get_observer",
    "set_observer",
    "observing",
]


class Observer:
    """No-op base observer; override the callbacks you need.

    All callbacks are keyword-only.  Implementations must not mutate the
    engine's state and should be fast — they run inline on hot paths.
    """

    __slots__ = ()

    # -- chase engine (repro.chase.engine) -----------------------------

    def chase_step_started(self, *, step: int, variant: str, atoms: int) -> None:
        """A chase iteration began: the engine is about to enumerate the
        active triggers of the current ``F_{step-1}`` (*atoms* atoms)."""

    def trigger_selected(
        self, *, step: int, rule: Optional[str], active: int
    ) -> None:
        """Fair scheduling picked the oldest of *active* triggers."""

    def trigger_retired(
        self,
        *,
        step: int,
        rule: Optional[str],
        reason: str,
        count: int = 1,
    ) -> None:
        """*count* triggers left the active pool: ``applied`` (the
        selected trigger was applied / is now satisfied) or
        ``collapsed`` (a simplification folded distinct trigger keys
        together)."""

    def chase_step_finished(
        self,
        *,
        step: int,
        rule: Optional[str],
        atoms_before: int,
        atoms_applied: int,
        atoms_after: int,
        retracted: int,
    ) -> None:
        """Step *step* is recorded: ``F_{step-1}`` had *atoms_before*
        atoms, the application ``A_step`` has *atoms_applied*, the
        simplified ``F_step`` has *atoms_after*; *retracted* is the
        difference (the paper's per-step retraction size)."""

    # -- core retraction (repro.logic.cores) ---------------------------

    def core_retraction(
        self,
        *,
        atoms_before: int,
        atoms_after: int,
        variables_folded: int,
        seconds: float,
    ) -> None:
        """One :func:`~repro.logic.cores.core_retraction` call finished
        (identity retractions report ``atoms_before == atoms_after``)."""

    # -- incremental core maintenance (repro.logic.coremaint) ----------

    def core_maintenance(
        self,
        *,
        mode: str,
        atoms_before: int,
        atoms_after: int,
        folds: int,
        candidates_tried: int,
        skip_hits: int,
        seeded_searches: int,
        pairs_checked: int,
        cert_invalidated: int,
        clean_broken: bool,
        seconds: float,
    ) -> None:
        """One :meth:`~repro.logic.coremaint.CoreMaintainer.retract`
        finished.  *mode* is ``incremental`` or ``full``;
        *candidates_tried* counts per-variable fold searches launched
        (*seeded_searches* of which carried an identity seed),
        *skip_hits* counts certified variables skipped wholesale by the
        escape scan, *pairs_checked* the pinned (old, delta) atom pairs
        that scan enumerated, *cert_invalidated* the certificates
        invalidated on entry by the step's delta, and *clean_broken*
        whether a fold moved the previously certified part (forcing the
        exact fallback and a full certificate recompute)."""

    # -- homomorphism search (repro.logic.homomorphism) ----------------

    def homomorphism_search(
        self,
        *,
        found: bool,
        backtracks: int,
        source_atoms: int,
        target_atoms: int,
        seconds: float,
    ) -> None:
        """One single-witness search finished; *backtracks* counts undo
        operations of tentative atom matches (the search effort)."""

    # -- trigger index (repro.chase.trigger_index) ---------------------

    def trigger_index_update(
        self,
        *,
        step: int,
        delta_atoms: int,
        triggers_new: int,
        triggers_reused: int,
        satisfaction_rechecks: int,
        transported: int,
        collapsed: int,
    ) -> None:
        """The incremental trigger index absorbed one chase step:
        *delta_atoms* atoms entered the instance, *triggers_new* triggers
        were discovered by delta re-matching while *triggers_reused* were
        carried over unchanged, *satisfaction_rechecks* satisfaction
        tests actually ran, and — when the step retracted — *transported*
        live triggers travelled through the simplification with
        *collapsed* of them folding onto identical keys."""

    # -- compiled kernel (repro.logic.compiled / repro.chase.compiled_index)

    def compile(self, *, rule: str, body_atoms: int, variables: int) -> None:
        """One rule body was compiled to a join plan over the interned
        relations (:class:`~repro.chase.compiled_index.
        CompiledTriggerIndex` construction, or recompilation after a
        symbol-table reset)."""

    def join_plan(
        self,
        *,
        delta_atoms: int,
        plans_run: int,
        triggers_new: int,
        tuples: int,
    ) -> None:
        """One semi-naive delta round finished: *plans_run* compiled
        body plans were seeded from *delta_atoms* new tuples, yielding
        *triggers_new* previously unseen triggers; *tuples* is the
        instance's current interned-tuple count."""

    # -- query service (repro.service) ---------------------------------

    def service_request(self, *, op: str, coalesced: bool) -> None:
        """The server accepted one request; *coalesced* is True when an
        identical in-flight job absorbed it (no new work scheduled)."""

    def service_job(
        self,
        *,
        op: str,
        ok: bool,
        warm: bool,
        incomplete: bool,
        deadline_expired: bool,
        applications: int,
        seconds: float,
        ancestor: bool = False,
    ) -> None:
        """One service job finished: *warm* iff it resumed from an exact
        chase snapshot, *ancestor* iff it resumed incrementally from a
        nearest-ancestor snapshot, *incomplete* iff it degraded to
        partial sound answers, *applications* the new rule applications
        it performed, *seconds* its wall-clock latency (queueing
        included)."""

    def service_retry(
        self,
        *,
        op: str,
        attempt: int,
        delay: float,
        error: str,
    ) -> None:
        """The supervised executor scheduled retry *attempt* (1-based)
        of a job after a transient failure (*error*), to fire after
        *delay* seconds of jittered exponential backoff."""

    def service_pool_rebuild(self, *, pending: int) -> None:
        """The executor replaced a broken worker pool (a worker died and
        poisoned it); *pending* jobs were in flight at the swap."""

    def planner_decision(
        self,
        *,
        strategy: str,
        cached: str,
        rules_fingerprint: str = "",
        terminating: bool = False,
        bts: bool = False,
        k_bound: Optional[int] = None,
    ) -> None:
        """The planner routed one job: *strategy* is the chosen strategy
        name (one of :data:`repro.analysis.planner.STRATEGY_NAMES`),
        *cached* where the verdict came from (``memory`` / ``store`` /
        ``computed``), *terminating* / *bts* / *k_bound* the headline
        verdict fields, *rules_fingerprint* a 16-hex prefix of the
        verdict-cache key."""

    def query_rewrite(
        self,
        *,
        source: str,
        fragment: str = "",
        complete: bool = False,
        disjuncts: int = 0,
        pruned: int = 0,
    ) -> None:
        """The query-plan cache served one lookup: *source* is where the
        plan came from (``memory`` / ``store`` / ``computed``),
        *fragment* the rewritable fragment (``linear`` / ``guarded``, or
        ``""`` when the ruleset is not rewritable), *complete* whether
        the piece-rewriting saturation reached its fixpoint within
        budget (an incomplete plan forces the Theorem-1 race fallback
        on a miss), *disjuncts* the kept UCQ size, *pruned* how many
        candidates dedup/subsumption dropped."""

    def snapshot_access(
        self,
        *,
        op: str,
        hit: bool,
        corrupt: bool = False,
        atoms: int = 0,
        seconds: float = 0.0,
        chain_depth: int = 0,
        chain_broken: bool = False,
        bytes_saved: int = 0,
        ancestor: bool = False,
    ) -> None:
        """The snapshot store served one access: *op* is ``load``,
        ``save``, ``resolve`` (an ancestor-resolution probe after an
        exact miss), or ``evict`` (an LRU eviction by a size-bounded
        store); on loads *hit* reports whether a usable state came back
        and *corrupt* whether an unreadable entry was discarded.
        ``chain_depth`` is the delta-chain length served or written,
        ``chain_broken`` marks a damaged chain dropped for a cold
        fallback, ``bytes_saved`` is the full-state size minus the
        delta record a save actually wrote, and ``ancestor`` marks a
        resolve that produced a usable ancestor entry."""

    # -- spans (repro.obs.spans) ---------------------------------------

    def span_open(
        self,
        *,
        name: str,
        trace_id: str,
        span_id: str,
        parent_span_id: Optional[str] = None,
        **attrs,
    ) -> None:
        """A request-lifecycle span opened (:func:`repro.obs.spans.span`).

        *name* is the phase (``service_request``, ``service_job``,
        ``job_attempt``, ``retry_backoff``, ``pool_rebuild``,
        ``queue_wait``, ``snapshot_load``, ``chase``, ...); *attrs* are
        span-specific annotations (``op``, ``attempt``, ``coalesced``,
        link fields, ...)."""

    def span_close(
        self,
        *,
        name: str,
        trace_id: str,
        span_id: str,
        parent_span_id: Optional[str] = None,
        status: str = "ok",
        seconds: float = 0.0,
        **attrs,
    ) -> None:
        """The matching close: *status* is ``ok``, ``error`` (the phase
        raised or the attempt failed — *attrs* then carries ``error``)
        or ``aborted`` (shutdown cancelled a parked retry backoff)."""

    # -- exact treewidth (repro.treewidth.exact) -----------------------

    def treewidth_search(
        self,
        *,
        k: int,
        verdict: Optional[bool],
        budget_consumed: int,
    ) -> None:
        """One "width ≤ k?" decision finished; *verdict* is None when the
        state budget ran out after *budget_consumed* states."""

    # -- robust aggregation (repro.chase.aggregation) ------------------

    def robust_step(
        self,
        *,
        step: int,
        renamed: int,
        atoms: int,
        stable_terms: int,
    ) -> None:
        """The robust sequence advanced to ``G_step`` (*atoms* atoms);
        *renamed* variables were rewritten by ``ρ_{σ'}`` and
        *stable_terms* terms of ``G_step`` are stable so far."""


class CompositeObserver(Observer):
    """Fan events out to several observers, in order."""

    __slots__ = ("observers",)

    def __init__(self, observers: Sequence[Observer]):
        self.observers = list(observers)

    def chase_step_started(self, **kw) -> None:
        for obs in self.observers:
            obs.chase_step_started(**kw)

    def trigger_selected(self, **kw) -> None:
        for obs in self.observers:
            obs.trigger_selected(**kw)

    def trigger_retired(self, **kw) -> None:
        for obs in self.observers:
            obs.trigger_retired(**kw)

    def chase_step_finished(self, **kw) -> None:
        for obs in self.observers:
            obs.chase_step_finished(**kw)

    def core_retraction(self, **kw) -> None:
        for obs in self.observers:
            obs.core_retraction(**kw)

    def core_maintenance(self, **kw) -> None:
        for obs in self.observers:
            obs.core_maintenance(**kw)

    def homomorphism_search(self, **kw) -> None:
        for obs in self.observers:
            obs.homomorphism_search(**kw)

    def trigger_index_update(self, **kw) -> None:
        for obs in self.observers:
            obs.trigger_index_update(**kw)

    def compile(self, **kw) -> None:
        for obs in self.observers:
            obs.compile(**kw)

    def join_plan(self, **kw) -> None:
        for obs in self.observers:
            obs.join_plan(**kw)

    def service_request(self, **kw) -> None:
        for obs in self.observers:
            obs.service_request(**kw)

    def service_job(self, **kw) -> None:
        for obs in self.observers:
            obs.service_job(**kw)

    def service_retry(self, **kw) -> None:
        for obs in self.observers:
            obs.service_retry(**kw)

    def service_pool_rebuild(self, **kw) -> None:
        for obs in self.observers:
            obs.service_pool_rebuild(**kw)

    def planner_decision(self, **kw) -> None:
        for obs in self.observers:
            obs.planner_decision(**kw)

    def query_rewrite(self, **kw) -> None:
        for obs in self.observers:
            obs.query_rewrite(**kw)

    def snapshot_access(self, **kw) -> None:
        for obs in self.observers:
            obs.snapshot_access(**kw)

    def span_open(self, **kw) -> None:
        for obs in self.observers:
            obs.span_open(**kw)

    def span_close(self, **kw) -> None:
        for obs in self.observers:
            obs.span_close(**kw)

    def treewidth_search(self, **kw) -> None:
        for obs in self.observers:
            obs.treewidth_search(**kw)

    def robust_step(self, **kw) -> None:
        for obs in self.observers:
            obs.robust_step(**kw)


#: The process-global observer.  ``None`` means telemetry is off and the
#: instrumented paths skip all accounting after one identity check.
current: Optional[Observer] = None


def get_observer() -> Optional[Observer]:
    """The process-global observer, or None when telemetry is off."""
    return current


def set_observer(observer: Optional[Observer]) -> Optional[Observer]:
    """Install *observer* as the process-global observer.

    Returns the previous observer so callers can restore it; prefer the
    :func:`observing` context manager for scoped installation.
    """
    global current
    previous = current
    current = observer
    return previous


@contextmanager
def observing(observer: Optional[Observer]) -> Iterator[Optional[Observer]]:
    """Temporarily install *observer* as the process-global observer."""
    previous = set_observer(observer)
    try:
        yield observer
    finally:
        set_observer(previous)
