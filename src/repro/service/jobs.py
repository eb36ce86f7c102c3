"""Service jobs: wire dataclasses and the worker-side entry point.

:class:`JobRequest` / :class:`JobResult` are deliberately primitive —
strings, numbers, bools — so they cross process boundaries (and the TCP
wire) as plain JSON-able dicts; the first-order objects (KB, query,
chase state) are materialized only inside the worker.

:func:`execute_job` is the single entry point both executor paths
(process pool and in-process) go through, and every op runs one body
over a list of queries — none for ``chase``, one for ``entail``, the
request's list for ``batch_entail`` — so warm-start, deadline, and
degradation semantics are defined once and only the shape of the
:class:`JobResult` depends on the op.  (``repro chase`` and ``repro
entail`` call :func:`~repro.chase.engine.run_chase` and
:func:`~repro.query.entailment.decide_entailment` directly, with or
without ``--timeout``.)

* **Rewriting first.**  When the resolved strategy says ``rewrite``,
  each query's UCQ plan, from the process's one plan cache
  (:func:`~repro.query.plans.default_plan_cache`), is evaluated on the
  base facts; a conclusive plan settles its query with no chase.
* **One chase for the open queries.**  The chase runs if any query
  is still open (always, for ``chase``); each step's instance is tested
  against every open query, and the run stops once all are settled.
  Queries the chase leaves open are settled by the fixpoint, the
  deadline, the finite-countermodel search or the exhausted budget.
* **Planner routing.**  A request flagged ``planner=True`` has its
  chase configuration (variant, core cadence, step budget, model-finder
  budget, ancestor-resume eligibility) replaced by the strategy the
  analysis planner derives from the KB's ruleset verdict
  (:meth:`repro.analysis.planner.Planner.decide`, cached by ruleset
  fingerprint in the process).  An explicit ``strategy`` dict on the
  request overrides the planner entirely; it is also how a request
  opts out of ancestor resume.
* **Warm start.**  With a :class:`~repro.service.snapshots.SnapshotStore`
  attached, the job first tries to restore the checkpointed chase for
  (KB, variant, core cadence) and resume it; since restore continues
  the derivation exactly, warm answers equal cold ones.  An ``entail``
  job whose query already maps into the restored instance answers with
  **zero** new rule applications.
* **Ancestor resume.**  On an exact snapshot miss the job probes for
  the nearest *ancestor* snapshot — same rules and chase config, facts
  a subset of this KB's — injects the missing facts as a delta
  (:func:`repro.chase.engine.merge_facts_into_state`) and resumes
  incrementally instead of chasing cold.  The resumed derivation is a
  fair prefix of a chase of the grown KB (every ancestor trigger body
  still maps into the grown instance), so answers carry the same
  soundness guarantees as warm ones and are gated by the same step
  budget.  Such results report ``ancestor=True`` (never ``warm``).
* **Deadline.**  ``timeout`` seconds (measured inside the job) arm a
  :class:`~repro.service.deadline.Deadline` polled by the engine's
  cooperative cancellation checkpoint between rule applications and by
  the finite-countermodel search once per search node; a search the
  deadline cuts or skips leaves its query to expiry.
* **Graceful degradation.**  On expiry the job returns what the partial
  model soundly supports — a query hit found before the deadline is a
  certified "yes"; otherwise ``entailed`` is None — with
  ``incomplete=True`` and ``deadline_expired=True`` set.  A sound
  partial instance is likewise returned for ``chase`` jobs.

Soundness of the per-step query test: a Boolean CQ that maps into any
``F_i`` of a fair derivation prefix maps into the natural aggregation,
which is universal (Proposition 1), so ``K ⊨ Q`` — this is the same
argument :func:`repro.query.chase_entails_prefix` rests on.  Exact
"no" answers come only from a terminated chase (finite universal
model).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional

import json

from ..analysis.planner import Strategy, default_planner
from ..chase.engine import ChaseEngine, ChaseVariant, merge_facts_into_state
from ..logic.serialization import load_kb
from ..obs.observer import Observer
from ..obs.spans import span as _span
from ..query import boolean_cq
from ..query.modelfinder import find_countermodel
from ..query.plans import default_plan_cache
from .deadline import Deadline
from .snapshots import SnapshotStore

__all__ = ["JobRequest", "JobResult", "execute_job"]

_NULL = type(None)

#: The exact types each :class:`JobRequest` field takes on the wire (a
#: JSON boolean is not an integer); ``id`` is an unchecked client echo.
_FIELD_TYPES = {
    "op": (str,),
    "kb_text": (str,),
    "query": (str, _NULL),
    "queries": (list, _NULL),
    "variant": (str,),
    "core_every": (int,),
    "max_steps": (int,),
    "timeout": (int, float, _NULL),
    "use_index": (bool,),
    "model_budget": (int,),
    "planner": (bool,),
    "strategy": (dict, _NULL),
    "rewrite": (bool, _NULL),
    "trace": (dict, _NULL),
}


@dataclass
class JobRequest:
    """One unit of work: a chase or an entailment question over a KB.

    ``op`` is ``"entail"`` (requires a ``query`` string),
    ``"batch_entail"`` (requires ``queries``, a nonempty list of
    strings) or ``"chase"``.
    ``kb_text`` is the sectioned KB serialization
    (:func:`repro.logic.serialization.dump_kb`).  ``model_budget`` > 0
    additionally arms the finite-countermodel "no" side when the chase
    budget runs out undecided.  ``id`` is an opaque client echo and does
    not participate in :meth:`dedup_key`.

    ``trace`` is the request's trace context
    (:meth:`repro.obs.spans.TraceContext.to_obj`, plus a
    ``submitted_ts`` epoch stamp) riding across the spawn boundary so
    worker-side events join the caller's trace; it identifies *this
    delivery*, not the answer, so — like ``id`` — it stays out of
    :meth:`dedup_key` and coalesced requests share one job.

    ``planner`` routes the job through the analysis planner
    (:class:`repro.analysis.planner.Planner`), replacing the request's
    chase configuration with the verdict-derived
    :class:`~repro.analysis.planner.Strategy`.  ``strategy`` is an
    explicit per-request override (a ``Strategy.to_obj`` dict, or any
    dict with the required config fields) and wins over the planner.
    Both shape the answer, so both participate in :meth:`dedup_key`.
    """

    op: str
    kb_text: str
    query: Optional[str] = None
    #: For ``batch_entail``: the distinct Boolean CQ texts to evaluate
    #: against one loaded snapshot in a single indexed pass.
    queries: Optional[list] = None
    variant: str = ChaseVariant.RESTRICTED
    core_every: int = 1
    max_steps: int = 200
    timeout: Optional[float] = None
    use_index: bool = True
    model_budget: int = 0
    planner: bool = False
    strategy: Optional[dict] = None
    #: UCQ-rewriting control: True forces the rewrite attempt, False
    #: disables it, None follows the resolved strategy's ``rewrite``
    #: flag (i.e. planner routing).
    rewrite: Optional[bool] = None
    id: Optional[str] = None
    trace: Optional[dict] = None

    def __post_init__(self) -> None:
        # Checked once, where a request is built: the server's dedup
        # hashes these fields before any job runs, and a ValueError here
        # is its "bad request".
        for name, kinds in _FIELD_TYPES.items():
            value = getattr(self, name)
            if type(value) not in kinds:
                expected = " or ".join(
                    "null" if kind is _NULL else kind.__name__ for kind in kinds
                )
                raise ValueError(
                    f"job request field {name!r} must be {expected}, "
                    f"not {type(value).__name__}"
                )
        if self.queries is not None and not all(
            isinstance(text, str) for text in self.queries
        ):
            raise ValueError("job request field 'queries' must be a list of strings")
        if self.strategy is not None:
            Strategy.from_obj(self.strategy)

    def dedup_key(self) -> tuple:
        """The coalescing identity: everything that shapes the answer.

        ``queries`` enters as JSON text, since a list is not hashable."""
        return (
            self.op,
            self.kb_text,
            self.query,
            json.dumps(self.queries),
            self.variant,
            self.core_every,
            self.max_steps,
            self.timeout,
            self.use_index,
            self.model_budget,
            self.planner,
            (
                json.dumps(self.strategy, sort_keys=True)
                if self.strategy is not None
                else None
            ),
            self.rewrite,
        )

    def to_obj(self) -> dict:
        obj = {
            "op": self.op,
            "kb_text": self.kb_text,
            "query": self.query,
            "variant": self.variant,
            "core_every": self.core_every,
            "max_steps": self.max_steps,
            "timeout": self.timeout,
            "use_index": self.use_index,
            "model_budget": self.model_budget,
            "id": self.id,
            "trace": self.trace,
        }
        # Emitted only when set, keeping the wire shape of pre-planner
        # requests byte-stable.
        if self.planner:
            obj["planner"] = True
        if self.strategy is not None:
            obj["strategy"] = self.strategy
        if self.queries is not None:
            obj["queries"] = self.queries
        if self.rewrite is not None:
            obj["rewrite"] = self.rewrite
        return obj

    @classmethod
    def from_obj(cls, obj: dict) -> "JobRequest":
        known = {f: obj[f] for f in cls.__dataclass_fields__ if f in obj}
        if "op" not in known or "kb_text" not in known:
            raise ValueError("job request needs at least 'op' and 'kb_text'")
        return cls(**known)


@dataclass
class JobResult:
    """The outcome of one job, primitive enough for JSON and pickling.

    ``applications`` counts *new* rule applications this job performed
    (zero on a pure warm hit); ``total_applications`` includes the
    snapshot prefix it resumed from.  ``incomplete`` marks degraded
    answers (deadline expiry before an exact verdict); a ``True``
    ``entailed`` is sound even then.  ``warm`` marks an exact snapshot
    resume; ``ancestor`` marks an incremental resume from a nearest-
    ancestor snapshot (the missing facts were injected as a delta) —
    the two are mutually exclusive.  ``strategy`` names the planner (or
    override) strategy the job ran under, None on the plain config path.
    """

    op: str
    ok: bool = True
    error: Optional[str] = None
    entailed: Optional[bool] = None
    method: Optional[str] = None
    incomplete: bool = False
    warm: bool = False
    ancestor: bool = False
    applications: int = 0
    total_applications: int = 0
    atoms: int = 0
    terminated: bool = False
    deadline_expired: bool = False
    seconds: float = 0.0
    strategy: Optional[str] = None
    instance: Optional[list] = field(default=None, repr=False)
    #: For ``batch_entail``: one primitive dict per input query (in
    #: order) with ``query`` / ``entailed`` / ``method`` /
    #: ``chase_steps`` / ``incomplete`` keys.
    results: Optional[list] = None

    def to_obj(self) -> dict:
        obj = {
            "op": self.op,
            "ok": self.ok,
            "error": self.error,
            "entailed": self.entailed,
            "method": self.method,
            "incomplete": self.incomplete,
            "warm": self.warm,
            "ancestor": self.ancestor,
            "applications": self.applications,
            "total_applications": self.total_applications,
            "atoms": self.atoms,
            "terminated": self.terminated,
            "deadline_expired": self.deadline_expired,
            "seconds": self.seconds,
        }
        if self.strategy is not None:
            obj["strategy"] = self.strategy
        if self.instance is not None:
            obj["instance"] = self.instance
        if self.results is not None:
            obj["results"] = self.results
        return obj

    @classmethod
    def from_obj(cls, obj: dict) -> "JobResult":
        known = {f: obj[f] for f in cls.__dataclass_fields__ if f in obj}
        return cls(**known)


def execute_job(
    request: JobRequest,
    store: Optional[SnapshotStore] = None,
    observer: Optional[Observer] = None,
) -> JobResult:
    """Run one job to completion (or deadline); never raises.

    *store* enables warm starts and checkpoint saves; *observer* is
    handed to the chase engine (process-pool workers pass their local
    metrics observer here instead of mutating process-global state).
    """
    started = time.perf_counter()
    try:
        result = _execute(request, store, observer)
    except Exception as exc:  # noqa: BLE001 - the job boundary
        result = JobResult(
            op=request.op,
            ok=False,
            error=f"{type(exc).__name__}: {exc}",
        )
    result.seconds = time.perf_counter() - started
    return result


def _resolve_strategy(request: JobRequest, kb) -> tuple:
    """Strategy resolution: an explicit per-request override wins, then
    planner routing (verdict → strategy, cached by ruleset fingerprint),
    then the request's own chase configuration.  Returns ``(strategy,
    reported)``: the :class:`Strategy` to run, its ``rewrite`` replaced
    by ``request.rewrite`` when that is set, and the one the result
    names (None on the plain path)."""
    reported: Optional[Strategy] = None
    if request.strategy is not None:
        reported = Strategy.from_obj(request.strategy)
    elif request.planner:
        _, reported, _ = default_planner().decide(kb.rules)
    if reported is not None:
        strategy = reported
    else:
        strategy = Strategy(
            name="request",
            variant=request.variant,
            core_every=request.core_every,
            max_steps=request.max_steps,
            model_budget=request.model_budget,
        )
    if request.rewrite is not None:
        strategy = replace(strategy, rewrite=request.rewrite)
    return strategy, reported


def _restore_from_store(
    engine: ChaseEngine,
    kb,
    store: Optional[SnapshotStore],
    strategy: Strategy,
) -> tuple:
    """Warm-start *engine* from the store if a usable snapshot exists.

    Returns ``(entry, resumed, ancestor, warm, prior)`` — the exact
    semantics documented on :func:`execute_job`."""
    variant, core_every = strategy.variant, strategy.core_every
    entry = None
    ancestor = False
    if store is not None:
        # Spans here use the ambient observer (the worker's tracer, or
        # the server's in workers=0 mode) so the store's own
        # snapshot_access events land inside the snapshot_load span.
        with _span("snapshot_load", variant=variant):
            entry = store.load_entry(kb, variant, core_every)
        if entry is None and strategy.ancestor_resume:
            # Exact miss: probe for the nearest ancestor whose facts are
            # a subset of this KB; resuming it plus the missing facts is
            # a fair-derivation prefix of the grown KB (the resolve gate
            # documents the soundness conditions it enforces).
            with _span("snapshot_resolve", variant=variant):
                entry = store.resolve_ancestor(
                    kb,
                    variant,
                    core_every,
                    max_applications=strategy.max_steps,
                )
            ancestor = entry is not None
    snapshot = entry.state if entry is not None else None
    # A snapshot deeper than this job's budget is left alone: resuming
    # it would answer for a larger budget than the client asked for
    # (and differ from the cold run the budget defines).
    resumed = snapshot is not None and snapshot.applications <= strategy.max_steps
    if not resumed:
        ancestor = False
    warm = resumed and not ancestor
    prior = snapshot.applications if resumed else 0
    if resumed:
        if ancestor:
            engine.restore_state(
                merge_facts_into_state(snapshot, entry.missing_atoms)
            )
        else:
            engine.restore_state(snapshot)
    return entry, resumed, ancestor, warm, prior


def _query_texts(request: JobRequest) -> list:
    """The Boolean CQ texts *request* asks about: none for ``chase``,
    one for ``entail``, the request's list for ``batch_entail``."""
    if request.op == "chase":
        return []
    if request.op == "entail":
        if not request.query:
            raise ValueError("entail jobs need a query")
        return [request.query]
    if request.op == "batch_entail":
        if not request.queries:
            raise ValueError("batch_entail jobs need a nonempty 'queries' list")
        return request.queries
    raise ValueError(f"unknown job op {request.op!r}")


def _execute(
    request: JobRequest,
    store: Optional[SnapshotStore],
    observer: Optional[Observer],
) -> JobResult:
    """Answer the request's queries (none for ``chase``) in one pass.

    The KB is parsed once, the snapshot loaded once, and at most ONE
    chase runs — each step's instance is tested against every
    still-open query, so the chase budget and the per-step
    observability traffic are paid once however many queries there
    are.  Only the shape of the result depends on the op."""
    texts = _query_texts(request)
    kb = load_kb(request.kb_text)
    queries = [boolean_cq(text) for text in texts]
    strategy, reported = _resolve_strategy(request, kb)

    verdicts: list = [None] * len(queries)
    open_queries = set(range(len(queries)))

    def settle(
        index: int, entailed, method: str, steps: int, incomplete: bool = False
    ) -> None:
        verdicts[index] = {
            "query": texts[index],
            "entailed": entailed,
            "method": method,
            "chase_steps": steps,
            "incomplete": incomplete,
        }
        open_queries.discard(index)

    if strategy.rewrite:
        # Backward-rewriting fast path: a query whose cached plan is
        # conclusive is answered from the base facts with no chase; the
        # rest fall through to the race (incomplete saturation, or a
        # non-rewritable ruleset behind an explicit rewrite=True).
        plan_cache = default_plan_cache()
        for i, query in enumerate(queries):
            qplan = plan_cache.plan_for(kb, query, observer=observer)
            with _span("rewrite_eval", disjuncts=len(qplan.disjuncts)):
                answer = qplan.evaluate(kb.facts)
            if answer is not None:
                method = "ucq-rewrite-hit" if answer else "ucq-rewrite-miss"
                settle(i, answer, method, 0)

    deadline = Deadline(request.timeout)
    warm = ancestor = terminated = expired = False
    new_apps = total = 0
    final = kb.facts

    if open_queries or not queries:
        engine = ChaseEngine(
            kb,
            variant=strategy.variant,
            core_every=strategy.core_every,
            observer=observer,
            use_index=request.use_index,
        )
        entry, resumed, ancestor, warm, prior = _restore_from_store(
            engine, kb, store, strategy
        )
        if resumed:
            restored = engine.current_instance
            method = "warm-snapshot-hit" if warm else "ancestor-snapshot-hit"
            for i in sorted(open_queries):
                if queries[i].holds_in(restored):
                    settle(i, True, method, prior)

        def on_step(step) -> None:
            for i in sorted(open_queries):
                if queries[i].holds_in(step.instance):
                    settle(i, True, "chase-prefix-hit", prior + step.index)

        def settled() -> bool:
            # A chase job has nothing to settle: only its budget, the
            # fixpoint or the deadline ends it.
            return bool(queries) and not open_queries

        def stopper() -> bool:
            return settled() or deadline.expired()

        step_hook = on_step if open_queries else None
        advance = engine.resume if resumed else engine.run
        with _span("chase", variant=strategy.variant, warm=warm, ancestor=ancestor):
            chase = advance(
                strategy.max_steps - prior, on_step=step_hook, should_stop=stopper
            )
        new_apps = chase.applications
        total = prior + new_apps
        terminated = chase.terminated
        expired = chase.stopped and not settled()
        final = engine.current_instance

        snapshot = entry.state if entry is not None else None
        if store is not None and (
            snapshot is None or ancestor or total > snapshot.applications
        ):
            # An ancestor save files the grown KB's own (new) key; a
            # resumed save replaces its key's record.
            with _span("snapshot_save"):
                store.save(kb, engine.export_state())

    for i in sorted(open_queries):
        counter = None
        if not terminated and strategy.model_budget > 0 and not deadline.expired():
            with _span("countermodel", budget=strategy.model_budget):
                counter = find_countermodel(
                    kb,
                    queries[i],
                    max_domain=strategy.model_budget,
                    should_stop=deadline.expired,
                )
        if terminated:
            # The fixpoint is a finite universal model: every open
            # query is exactly refuted by it at once.
            settle(i, False, "chase-fixpoint-miss", total)
        elif counter is not None and counter.found:
            settle(i, False, "finite-countermodel", total)
        elif expired or (strategy.model_budget > 0 and deadline.expired()):
            # The deadline cut the chase, or cut or skipped this search.
            expired = True
            settle(i, None, "deadline-expired", total, incomplete=True)
        elif counter is not None:
            settle(i, None, "race-undecided", total)
        else:
            settle(i, None, "chase-budget-exhausted", total)

    result = JobResult(
        op=request.op,
        warm=warm,
        ancestor=ancestor,
        strategy=reported.name if reported is not None else None,
        applications=new_apps,
        total_applications=total,
        atoms=len(final),
        terminated=terminated,
        deadline_expired=expired,
        incomplete=expired,
    )
    if request.op == "chase":
        result.method = "chase-deadline" if expired else "chase"
        result.instance = [str(at) for at in final.sorted_atoms()]
    elif request.op == "entail":
        (verdict,) = verdicts
        result.entailed = verdict["entailed"]
        result.method = verdict["method"]
    else:
        result.results = verdicts
    return result
