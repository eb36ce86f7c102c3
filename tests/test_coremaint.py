"""Differential and unit tests for the incremental core maintainer.

The maintainer (:mod:`repro.logic.coremaint`) must be a pure
acceleration of :func:`repro.logic.cores.core_retraction`: for every
growth sequence its per-step result is a genuine idempotent retraction
(``σ∘σ = σ``, identity on its image) whose image is isomorphic to the
naive core.  The unit tests pin the load-bearing cases: the escape-scan
lemma (a delta can make an *untouched* old variable removable), the
wholesale proof on already-core steps, a fold that moves an old
variable the delta does not touch, and the scan's fallback to the exact
pass when a pin exceeds its enumeration cap.
"""

from types import SimpleNamespace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chase.engine import ChaseVariant, run_chase
from repro.kbs.elevator import elevator_kb
from repro.kbs.generators import random_kb
from repro.kbs.staircase import staircase_kb
from repro.kbs.witnesses import transitive_closure_kb
from repro.logic import compiled, coremaint
from repro.logic.compiled import plans
from repro.logic.coremaint import CoreMaintainer
from repro.logic.cores import core_of, is_core
from repro.logic.isomorphism import isomorphic
from repro.logic.parser import parse_atoms
from repro.obs.observer import Observer, observing

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def variable(atoms, name):
    (var,) = [v for v in atoms.variables() if v.name == name]
    return var


def assert_valid_simplification(sigma, pre_instance):
    """σ is an idempotent retraction of *pre_instance* whose image is a
    core isomorphic to the naive one."""
    assert sigma.is_retraction_of(pre_instance)
    assert sigma.compose(sigma).drop_trivial() == sigma.drop_trivial()
    image = sigma.apply(pre_instance)
    assert sigma.is_identity_on(image.terms())
    assert is_core(image)
    assert isomorphic(image, core_of(pre_instance))


class TestMaintainerDifferential:
    """Maintainer vs naive ``core_retraction``, step by step."""

    def _check_run(self, kb, max_steps):
        steps = []
        result = run_chase(
            kb,
            variant=ChaseVariant.CORE,
            max_steps=max_steps,
            on_step=steps.append,
        )
        assert steps, "the run recorded no steps"
        for step in steps:
            assert_valid_simplification(step.simplification, step.pre_instance)
        return result

    def test_staircase_steps(self):
        self._check_run(staircase_kb(), max_steps=12)

    def test_elevator_steps(self):
        self._check_run(elevator_kb(), max_steps=10)

    @given(
        kb=st.builds(
            random_kb,
            rule_count=st.integers(min_value=1, max_value=4),
            fact_count=st.integers(min_value=2, max_value=8),
            term_pool=st.integers(min_value=2, max_value=5),
            seed=st.integers(min_value=0, max_value=10_000),
        )
    )
    @SETTINGS
    def test_random_kbs(self, kb):
        self._check_run(kb, max_steps=8)

    @given(
        kb=st.builds(
            random_kb,
            rule_count=st.integers(min_value=1, max_value=3),
            fact_count=st.integers(min_value=2, max_value=6),
            term_pool=st.integers(min_value=2, max_value=4),
            seed=st.integers(min_value=0, max_value=10_000),
        )
    )
    @SETTINGS
    def test_random_kbs_match_naive_engine(self, kb):
        """Whole-run equivalence: same rule sequence and isomorphic
        per-step instances as the fully naive engine."""
        fast = run_chase(kb, variant=ChaseVariant.CORE, max_steps=6)
        slow = run_chase(
            kb, variant=ChaseVariant.CORE, max_steps=6, use_index=False
        )
        assert fast.applications == slow.applications
        assert fast.retractions == slow.retractions
        fast_rules = [
            s.trigger.rule.name
            for s in fast.derivation.steps
            if s.trigger is not None
        ]
        slow_rules = [
            s.trigger.rule.name
            for s in slow.derivation.steps
            if s.trigger is not None
        ]
        assert fast_rules == slow_rules
        for fast_step, slow_step in zip(
            fast.derivation.steps, slow.derivation.steps
        ):
            assert isomorphic(fast_step.instance, slow_step.instance)


class TestMaintainerUnit:
    def test_cold_start_is_a_full_retraction(self):
        atoms = parse_atoms(
            "e(hub, R0), e(hub, R1), e(hub, R2), e(hub, c)"
        )
        maintainer = CoreMaintainer()
        sigma = maintainer.retract(atoms)
        assert_valid_simplification(sigma, atoms)
        assert maintainer.core == sigma.apply(atoms)
        assert maintainer.last_stats["mode"] == "full"

    def test_already_core_step_certifies_wholesale(self):
        """The common core-chase step: the delta keeps the instance a
        core; the escape scan certifies every old variable without a
        single per-variable search on them."""
        atoms = parse_atoms("p(a, V1), q(V1, V2), r(V2, b)")
        maintainer = CoreMaintainer()
        maintainer.retract(atoms)
        delta = parse_atoms("s(b, c)").sorted_atoms()
        pre = maintainer.core.copy()
        for at in delta:
            pre.add(at)
        sigma = maintainer.retract(pre, delta)
        assert not sigma.drop_trivial()  # identity: pre is already a core
        assert maintainer.last_stats["mode"] == "incremental"
        # No fresh null to search, and no old s-atom to pin onto the
        # delta: the scan proves V1 and V2 unremovable without a search.
        assert maintainer.last_stats["candidates_tried"] == 0
        assert not maintainer.last_stats["clean_broken"]

    def test_escape_through_the_delta_folds_untouched_variables(self):
        """The (L2) soundness case: ``{e(X, Y)}`` is a core and the
        delta ``{e(a, b)}`` shares no term with it, yet it makes *both*
        old variables removable.  A skip-list keyed on neighborhood
        fingerprints alone would wrongly skip them; the escape scan must
        find the fold."""
        atoms = parse_atoms("e(X, Y)")
        maintainer = CoreMaintainer()
        sigma0 = maintainer.retract(atoms)
        assert not sigma0.drop_trivial()
        delta = parse_atoms("e(a, b)").sorted_atoms()
        pre = maintainer.core.copy()
        for at in delta:
            pre.add(at)
        sigma = maintainer.retract(pre, delta)
        assert_valid_simplification(sigma, pre)
        assert maintainer.core == parse_atoms("e(a, b)")
        assert maintainer.last_stats["mode"] == "incremental"
        assert maintainer.last_stats["pairs_checked"] >= 1
        assert maintainer.last_stats["clean_broken"]

    def test_fold_moves_a_variable_the_delta_does_not_touch(self):
        """The delta ``{g(U)}`` only touches ``U``, yet it makes the old
        variable ``V2`` removable: the fold ``V2 ↦ U`` erases
        ``q(V1, V2)`` from ``V1``'s neighborhood, and ``V1`` survives."""
        atoms = parse_atoms(
            "p(a, V1), q(V1, V2), q(V1, U), r(V2, b), r(U, b), g(V2), s(U)"
        )
        maintainer = CoreMaintainer()
        sigma0 = maintainer.retract(atoms)
        assert not sigma0.drop_trivial()  # the first instance is a core

        delta = parse_atoms("g(U)").sorted_atoms()
        pre = maintainer.core.copy()
        for at in delta:
            pre.add(at)
        sigma = maintainer.retract(pre, delta)
        assert_valid_simplification(sigma, pre)
        # V2 folded onto U; V1 survived with a smaller neighborhood.
        assert variable(atoms, "V2") not in maintainer.core.variables()
        assert variable(atoms, "V1") in maintainer.core.variables()
        assert maintainer.last_stats["clean_broken"]

    def test_mismatched_delta_falls_back_to_the_full_pass(self):
        atoms = parse_atoms("p(a, V1), q(V1, V2), r(V2, b)")
        maintainer = CoreMaintainer()
        maintainer.retract(atoms)
        unrelated = parse_atoms("e(hub, R0), e(hub, c)")
        sigma = maintainer.retract(
            unrelated, delta=parse_atoms("e(hub, R0)").sorted_atoms()
        )
        assert maintainer.last_stats["mode"] == "full"
        assert_valid_simplification(sigma, unrelated)

    def test_growth_sequence_keeps_the_stored_core_a_core(self):
        """Drive one maintainer along a random growth sequence and
        check, after every step, the invariant everything rests on:
        the stored core is a core."""
        import random

        rng = random.Random(7)
        maintainer = CoreMaintainer()
        atoms = parse_atoms("e(c0, V0), p(V0, V1)")
        maintainer.retract(atoms)
        predicates = ("e", "p", "q")
        next_null = [2]
        for _ in range(12):
            pre = maintainer.core.copy()
            terms = sorted(
                (str(t) for t in pre.terms()),
                key=str,
            )
            delta = []
            for _ in range(rng.randint(1, 2)):
                pred = rng.choice(predicates)
                left = rng.choice(terms)
                if rng.random() < 0.5:
                    right = f"V{next_null[0]}"
                    next_null[0] += 1
                else:
                    right = rng.choice(terms + [f"c{next_null[0]}"])
                atom = parse_atoms(f"{pred}({left}, {right})").sorted_atoms()[0]
                if pre.add(atom):
                    delta.append(atom)
            if not delta:
                continue
            sigma = maintainer.retract(pre, delta)
            assert_valid_simplification(sigma, pre)
            assert is_core(maintainer.core)

    def test_pair_enum_cap_overflow_falls_back_to_the_exact_pass(
        self, monkeypatch
    ):
        """The delta ``{e(Y, X)}`` closes the core ``{e(X, Y)}`` into a
        2-cycle.  The one pin ``e(X, Y) ↦ e(Y, X)`` has a single
        endomorphism, the swap automorphism, so a cap of 1 overflows on
        it; the exact pass then proves the 2-cycle a core."""
        monkeypatch.setattr(coremaint, "PAIR_ENUM_CAP", 1)
        atoms = parse_atoms("e(X, Y)")
        maintainer = CoreMaintainer()
        maintainer.retract(atoms)
        pre = parse_atoms("e(X, Y), e(Y, X)")
        delta = [at for at in pre if at not in atoms]
        sigma = maintainer.retract(pre, delta)
        assert not sigma.drop_trivial()
        assert maintainer.core == pre
        assert maintainer.last_stats["mode"] == "incremental"
        assert maintainer.last_stats["pairs_checked"] == 1
        assert maintainer.last_stats["clean_broken"]
        assert maintainer.last_stats["candidates_tried"] == 2

    def test_scan_encodes_its_source_only_at_a_pin(self, monkeypatch):
        """Every maintained step of the transitive-5 core chase meets no
        (old atom, delta atom) pin, its instance being ground, so its
        escape scans encode nothing; one pin encodes once."""
        encodes = []

        def spy(real):
            def counted(*args):
                encodes.append(real.__name__)
                return real(*args)

            return counted

        monkeypatch.setattr(
            coremaint,
            "_compiled_plans",
            SimpleNamespace(
                source_plan=spy(plans.source_plan), run_plan=plans.run_plan
            ),
        )
        monkeypatch.setattr(
            coremaint,
            "_compiled",
            SimpleNamespace(
                symbol_table=compiled.symbol_table,
                compiled_view=spy(compiled.compiled_view),
            ),
        )
        steps = []

        class Steps(Observer):
            def emit(self, kind, **fields):
                if kind == "core_maintenance":
                    steps.append(fields)

        with observing(Steps()):
            run_chase(
                transitive_closure_kb(5), variant=ChaseVariant.CORE, max_steps=300
            )
        assert [s["mode"] for s in steps].count("incremental") >= 9
        assert sum(s["pairs_checked"] for s in steps) == 0
        assert encodes == []

        maintainer = CoreMaintainer()
        maintainer.retract(parse_atoms("e(X, Y)"))
        pre = parse_atoms("e(X, Y), e(a, b)")
        maintainer.retract(pre, parse_atoms("e(a, b)").sorted_atoms())
        assert maintainer.last_stats["pairs_checked"] == 1
        assert encodes == ["source_plan", "compiled_view"]
