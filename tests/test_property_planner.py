"""Property-based tests (hypothesis) for the analyzer and planner over
randomly generated rulesets.

Three invariant families:

* **Monotonicity under rule deletion** — every syntactic class the
  analyzer detects (guardedness, linearity, stickiness, weak
  acyclicity) is closed under taking subsets of the ruleset, so a class
  that holds for the full set must hold after deleting any single rule.
* **Planner determinism** — the planner is a pure function of the
  ruleset fingerprint: equal fingerprints always route to the identical
  strategy, whatever the facts.
* **Submission order** — KBs that share a ruleset, served as routed
  jobs in one order and then the other, get the same route and the
  same decided answers, and those answers agree with the naive
  reference race wherever it decides too.
"""

import time

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import (
    Planner,
    default_planner,
    is_guarded,
    is_linear,
    is_sticky,
    is_weakly_acyclic,
    plan,
    ruleset_fingerprint,
)
from repro.kbs.generators import random_kb
from repro.logic.indexing import no_index
from repro.logic.kb import KnowledgeBase
from repro.logic.rules import RuleSet
from repro.logic.serialization import dump_kb
from repro.query.cq import boolean_cq
from repro.query.entailment import decide_entailment
from repro.service.jobs import JobRequest, execute_job

from .test_sticky_ucq import RACE_QUERIES

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

kb_seeds = st.integers(min_value=0, max_value=400)


def generated_kb(seed: int) -> KnowledgeBase:
    return random_kb(rule_count=4, fact_count=6, seed=seed)


def without_rule(kb: KnowledgeBase, index: int) -> RuleSet:
    rules = list(kb.rules)
    del rules[index % len(rules)]
    return RuleSet(rules)


MONOTONE_CLASSES = (is_guarded, is_linear, is_sticky, is_weakly_acyclic)


@SETTINGS
@given(seed=kb_seeds, index=st.integers(min_value=0, max_value=3))
def test_classes_preserved_under_rule_deletion(seed, index):
    kb = generated_kb(seed)
    smaller = without_rule(kb, index)
    for criterion in MONOTONE_CLASSES:
        if criterion(kb.rules):
            assert criterion(smaller), (
                f"{criterion.__name__} lost by deleting rule {index}"
            )


@SETTINGS
@given(seed=kb_seeds)
def test_planner_is_deterministic_per_fingerprint(seed):
    kb = generated_kb(seed)
    twin = KnowledgeBase(
        generated_kb(seed + 1).facts, RuleSet(list(kb.rules)), name="renamed-twin"
    )
    assert ruleset_fingerprint(kb.rules) == ruleset_fingerprint(twin.rules)
    first = Planner().decide(kb.rules)
    second = Planner().decide(twin.rules)
    assert first[0] == second[0]  # verdict
    assert first[1] == second[1]  # strategy
    # plan() itself is pure: replanning the cached verdict changes nothing
    assert plan(first[0]) == first[1]


#: Seconds each routed job, and each reference race, may run.
ORDER_TIMEOUT = 0.5


def small_kb(seed: int) -> KnowledgeBase:
    return random_kb(rule_count=2, fact_count=4, seed=seed)


def reference_race(kb: KnowledgeBase, text: str, strategy):
    """The naive-engine race under *strategy*'s budgets and variant."""
    stop_at = time.monotonic() + ORDER_TIMEOUT
    with no_index():
        return decide_entailment(
            kb,
            boolean_cq(text),
            chase_budget=strategy.max_steps,
            model_domain_budget=strategy.model_budget,
            chase_variant=strategy.variant,
            should_stop=lambda: time.monotonic() > stop_at,
        )


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    rules_seed=kb_seeds,
    offsets=st.lists(
        st.integers(min_value=1, max_value=400), min_size=2, max_size=3, unique=True
    ),
    text=st.sampled_from(RACE_QUERIES),
)
def test_routes_and_answers_ignore_submission_order(rules_seed, offsets, text):
    rules = small_kb(rules_seed).rules
    kbs = [
        KnowledgeBase(small_kb(rules_seed + offset).facts, rules) for offset in offsets
    ]
    verdict, strategy, _ = Planner().decide(rules)
    assert plan(verdict) == strategy

    def serve(order):
        default_planner().cache_clear()
        results = {}
        for i in order:
            request = JobRequest(
                op="entail",
                kb_text=dump_kb(kbs[i]),
                query=text,
                planner=True,
                timeout=ORDER_TIMEOUT,
            )
            results[i] = execute_job(request)
        return results

    forward = serve(range(len(kbs)))
    backward = serve(reversed(range(len(kbs))))
    for i, kb in enumerate(kbs):
        answers = (forward[i], backward[i])
        assert all(result.ok for result in answers)
        assert forward[i].strategy == backward[i].strategy == strategy.name
        decided = {result.entailed for result in answers} - {None}
        assert len(decided) <= 1
        if decided:
            reference = reference_race(kb, text, strategy)
            if reference.entailed is not None:
                assert decided == {reference.entailed}
