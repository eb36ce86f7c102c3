"""The routing brain: ruleset verdicts → per-job execution strategy.

The paper's Prop. 13 landscape (fes / bts / core-bts and their
separations) is a routing signal: which chase variant, core-maintenance
cadence, and step budget a KB deserves depends on where its ruleset
sits.  This module turns that observation into machinery:

* :class:`Verdict` — the structured outcome of analyzing one ruleset:
  every syntactic class the library detects (weakly acyclic, rule
  acyclic, guarded, frontier guarded, sticky, linear) and the linear-
  fragment termination decision (:mod:`.linearity`).  It reads the
  rules alone, never the facts.

* :class:`Strategy` — a named execution recipe: chase variant, core
  cadence, step budget, model-finder budget, ancestor-resume safety.
  :func:`plan` maps a Verdict to a Strategy deterministically, so the
  same ruleset fingerprint always routes the same way.

* :class:`Planner` — verdict computation behind an in-process LRU
  keyed by the canonical ruleset fingerprint.  Nothing persists a
  verdict: each process computes a ruleset's verdict once, in under a
  millisecond on the repo's rulesets (docs/PERFORMANCE.md, "One cache
  tier for verdicts and plans").

Soundness note: a poor route ends "undecided within budget"
(``ok=True, entailed=None``), never wrong — answers always come from
the chase/model-finder race itself.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, fields, replace
from typing import Optional, get_type_hints

from ..chase.engine import ChaseVariant
from ..logic.rules import RuleSet
from ..logic.serialization import dump_ruleset
from ..obs import observer as _observer_state
from ..obs.spans import span as _span
from .guardedness import is_frontier_guarded, is_guarded
from .linearity import is_linear, linear_chase_terminates
from .rule_dependencies import is_rule_acyclic
from .sticky import is_sticky
from .weak_acyclicity import is_weakly_acyclic

__all__ = [
    "Verdict",
    "Strategy",
    "Planner",
    "plan",
    "ruleset_fingerprint",
    "default_planner",
    "STRATEGY_NAMES",
]


def ruleset_fingerprint(rules: RuleSet) -> str:
    """Canonical content hash of *rules* alone — the verdict-cache key.

    The one definition (sha256 of the deterministic ruleset
    serialization): the snapshot catalog files its ``rules_fingerprint``
    column and the query-plan cache its keys under it too, so verdicts,
    snapshots and plans of one ruleset share an identity."""
    return hashlib.sha256(dump_ruleset(rules).encode()).hexdigest()


@dataclass(frozen=True)
class Verdict:
    """Everything the analyzers concluded about one ruleset."""

    rules_fingerprint: str
    rule_count: int
    weakly_acyclic: bool
    rule_acyclic: bool
    guarded: bool
    frontier_guarded: bool
    sticky: bool
    linear: bool
    #: Linear-fragment decision: True = all variants terminate on all
    #: instances, False = oblivious chase diverges, None = undecided
    #: (not linear, or shape budget exhausted).
    linear_terminating: Optional[bool] = None

    @property
    def terminating(self) -> bool:
        """All chase variants terminate on all instances (certified)."""
        return bool(
            self.weakly_acyclic or self.rule_acyclic or self.linear_terminating is True
        )

    @property
    def bts_class(self) -> bool:
        """Membership in a known bounded-treewidth-set class (decidable
        CQ entailment even without termination)."""
        return bool(
            self.guarded or self.frontier_guarded or self.linear or self.sticky
        )

    @property
    def rewritable(self) -> bool:
        """The ruleset is a UCQ-rewriting candidate (see
        :mod:`repro.query.rewriting`): linear rulesets rewrite exactly
        (a finite unification set), guarded ones soundly under budget
        with a race fallback."""
        return bool(self.linear or self.guarded)

    @property
    def decidable(self) -> bool:
        return self.terminating or self.bts_class

    def to_obj(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


#: The planner's closed set of strategy names (metrics use them as
#: counter suffixes: ``planner.strategy.<name>``).
STRATEGY_NAMES = (
    "terminating-fast",
    "bts-core",
    "frontier-race",
    "rewrite-first",
)


@dataclass(frozen=True)
class Strategy:
    """A per-job execution recipe the service applies wholesale."""

    name: str
    variant: str
    core_every: int
    max_steps: int
    model_budget: int
    ancestor_resume: bool = True
    #: Attempt the UCQ-rewriting fast path before the chase race; the
    #: remaining fields are the sound fallback when the rewriting is
    #: incomplete or inconclusive.
    rewrite: bool = False
    reason: str = ""

    def to_obj(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_obj(cls, obj: dict) -> "Strategy":
        kinds = get_type_hints(cls)
        picked = {key: value for key, value in obj.items() if key in kinds}
        picked.setdefault("name", "override")
        missing = {"variant", "core_every", "max_steps", "model_budget"} - set(picked)
        if missing:
            raise ValueError(f"strategy override missing fields: {sorted(missing)}")
        for key, value in picked.items():
            # Exact types, as on the wire: a JSON boolean is not an integer.
            if type(value) is not kinds[key]:
                raise ValueError(
                    f"strategy field {key!r} must be {kinds[key].__name__}, "
                    f"not {type(value).__name__}"
                )
        if picked["variant"] not in ChaseVariant.ALL:
            raise ValueError(f"unknown chase variant {picked['variant']!r}")
        return cls(**picked)


def plan(verdict: Verdict) -> Strategy:
    """Map a :class:`Verdict` to a :class:`Strategy` — a pure function,
    so equal verdicts (hence equal ruleset fingerprints) always route
    identically.

    The ladder mirrors Prop. 13's landscape, cheapest certainty first:

    1. Certified terminating (weakly/rule-acyclic or linear-terminating)
       → restricted chase, no core maintenance mid-run, generous steps,
       model finder off: the restricted chase reaches a finite universal
       model by itself.
    2. bts-class but not terminating (guarded/linear/sticky with an
       infinite chase) → core chase with relaxed cadence under a
       moderate budget, racing a real model-finder budget: the
       countermodel side is what can answer "no" here.
    3. Unknown territory → the frontier race: restricted chase under a
       tight budget against the model finder, ancestor resume on.

    On top of the ladder: when the verdict is *rewritable* (linear or
    guarded — see :mod:`repro.query.rewriting`) the chosen rung is
    wrapped as ``rewrite-first``: entailment jobs try the backward
    UCQ-rewriting fast path before chasing, with the rung's own budgets
    as the sound fallback when the rewriting is incomplete.
    """
    base = _chase_ladder(verdict)
    if verdict.rewritable:
        fragment = "linear" if verdict.linear else "guarded"
        return replace(
            base,
            name="rewrite-first",
            rewrite=True,
            reason=(
                f"{fragment} ruleset: backward UCQ rewriting first, "
                f"falling back to {base.name} ({base.reason})"
            ),
        )
    return base


def _chase_ladder(verdict: Verdict) -> Strategy:
    if verdict.terminating:
        cause = (
            "weak acyclicity"
            if verdict.weakly_acyclic
            else "rule acyclicity" if verdict.rule_acyclic else "linear termination"
        )
        return Strategy(
            name="terminating-fast",
            variant=ChaseVariant.RESTRICTED,
            core_every=1,
            max_steps=1000,
            model_budget=0,
            reason=f"all-variant termination certified by {cause}",
        )
    if verdict.bts_class:
        return Strategy(
            name="bts-core",
            variant=ChaseVariant.CORE,
            core_every=4,
            max_steps=200,
            model_budget=6,
            reason="bts-class ruleset with no termination certificate: "
            "core chase raced against the model finder",
        )
    return Strategy(
        name="frontier-race",
        variant=ChaseVariant.RESTRICTED,
        core_every=1,
        max_steps=150,
        model_budget=6,
        reason="no certificate: tight restricted chase raced against "
        "the model finder",
    )


class Planner:
    """Compute, cache, and apply verdicts.

    ``decide(rules)`` is the single entry point the service uses: it
    returns ``(verdict, strategy, source)`` where *source* is
    ``"memory"`` or ``"computed"``, and emits the ``planner_decision``
    observability event.
    """

    def __init__(self, cache_size: int = 128):
        self.cache_size = cache_size
        self._cache: OrderedDict[str, Verdict] = OrderedDict()

    # ------------------------------------------------------------------

    def analyze(self, rules: RuleSet) -> tuple[Verdict, str]:
        """The cached analysis: memory LRU, else compute."""
        fingerprint = ruleset_fingerprint(rules)
        cached = self._cache.get(fingerprint)
        if cached is not None:
            self._cache.move_to_end(fingerprint)
            return cached, "memory"
        with _span("analysis", rules_fingerprint=fingerprint[:16]):
            verdict = self.compute(rules, fingerprint)
        self._remember(fingerprint, verdict)
        return verdict, "computed"

    def compute(self, rules: RuleSet, fingerprint: Optional[str] = None) -> Verdict:
        """Uncached analysis of *rules*."""
        if fingerprint is None:
            fingerprint = ruleset_fingerprint(rules)
        linear = is_linear(rules)
        return Verdict(
            rules_fingerprint=fingerprint,
            rule_count=len(rules),
            weakly_acyclic=is_weakly_acyclic(rules),
            rule_acyclic=is_rule_acyclic(rules),
            guarded=is_guarded(rules),
            frontier_guarded=is_frontier_guarded(rules),
            sticky=is_sticky(rules),
            linear=linear,
            linear_terminating=linear_chase_terminates(rules) if linear else None,
        )

    def decide(self, rules: RuleSet) -> tuple[Verdict, Strategy, str]:
        """Analyze (cached) and plan; emits ``planner_decision``."""
        verdict, source = self.analyze(rules)
        strategy = plan(verdict)
        observer = _observer_state.current
        if observer is not None:
            observer.emit(
                "planner_decision",
                rules_fingerprint=verdict.rules_fingerprint[:16],
                strategy=strategy.name,
                cached=source,
                terminating=verdict.terminating,
                bts=verdict.bts_class,
            )
        return verdict, strategy, source

    # ------------------------------------------------------------------

    def _remember(self, fingerprint: str, verdict: Verdict) -> None:
        self._cache[fingerprint] = verdict
        self._cache.move_to_end(fingerprint)
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)

    def cache_clear(self) -> None:
        self._cache.clear()


#: Process-wide default planner (one per worker process): its verdict
#: LRU persists across jobs.
_default: Optional[Planner] = None


def default_planner() -> Planner:
    global _default
    if _default is None:
        _default = Planner()
    return _default
