"""Differential tests: the compiled engine against the naive reference.

The evaluation layers must be pure optimisations: for every KB and
variant, a compiled run (``use_index=True``, the default) and a naive
run (``use_index=False``) must select the same rule sequence, perform
the same number of applications, keep the same instance size after
every step, and end in *isomorphic* instances.  (Only isomorphic, not
equal: the two paths may pick different — equally valid — fold
witnesses inside core retractions, so null names can differ.)

Random KBs come from :func:`repro.kbs.generators.random_kb`; hypothesis
fuzzes the seed and shape (``--hypothesis-seed`` reproduces a CI
failure locally).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chase.engine import ChaseEngine, ChaseVariant, run_chase
from repro.kbs.elevator import elevator_kb
from repro.kbs.generators import random_kb
from repro.kbs.staircase import staircase_kb
from repro.logic.isomorphism import isomorphic

from .test_trigger_index import pool_mismatches

MAX_STEPS = 10

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def kb_strategy(draw):
    return random_kb(
        rule_count=draw(st.integers(min_value=1, max_value=4)),
        fact_count=draw(st.integers(min_value=2, max_value=8)),
        term_pool=draw(st.integers(min_value=2, max_value=5)),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
    )


def _rule_sequence(result):
    return [
        step.trigger.rule.name
        for step in result.derivation.steps
        if step.trigger is not None
    ]


def assert_equivalent_runs(kb, variant, max_steps=MAX_STEPS):
    compiled = run_chase(kb, variant=variant, max_steps=max_steps)
    naive = run_chase(kb, variant=variant, max_steps=max_steps, use_index=False)

    assert compiled.terminated == naive.terminated
    assert compiled.applications == naive.applications
    assert _rule_sequence(compiled) == _rule_sequence(naive)
    for fast_step, slow_step in zip(
        compiled.derivation.steps, naive.derivation.steps
    ):
        assert len(fast_step.instance) == len(slow_step.instance)
    assert isomorphic(compiled.final_instance, naive.final_instance)
    return compiled


@given(kb=kb_strategy(), variant=st.sampled_from(ChaseVariant.ALL))
@SETTINGS
def test_indexed_run_matches_naive_on_random_kbs(kb, variant):
    assert_equivalent_runs(kb, variant)


@given(kb=kb_strategy(), variant=st.sampled_from(ChaseVariant.ALL))
@SETTINGS
def test_trigger_index_pool_matches_rescan_on_random_kbs(kb, variant):
    """After every step of a compiled run, the maintained live pool must
    equal a from-scratch ``triggers()`` rescan of the step's instance —
    the "identical trigger sets" clause — and the active pool must be
    the live triggers the rescan finds unsatisfied, in pool order."""
    engine = ChaseEngine(kb, variant=variant)
    mismatches = []

    def on_step(step):
        for what in pool_mismatches(engine._index, kb.rules, step.instance):
            mismatches.append((step.index, what))

    engine.run(max_steps=MAX_STEPS, on_step=on_step)
    assert mismatches == []


class TestNamedWorkloads:
    """The paper's own examples, which exercise deep core retractions."""

    def test_staircase_core(self):
        assert_equivalent_runs(staircase_kb(), ChaseVariant.CORE, max_steps=14)

    def test_elevator_core(self):
        assert_equivalent_runs(elevator_kb(), ChaseVariant.CORE, max_steps=10)

    def test_elevator_restricted(self):
        assert_equivalent_runs(
            elevator_kb(), ChaseVariant.RESTRICTED, max_steps=12
        )

    def test_staircase_frugal(self):
        assert_equivalent_runs(staircase_kb(), ChaseVariant.FRUGAL, max_steps=12)
