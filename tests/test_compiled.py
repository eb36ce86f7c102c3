"""The compiled kernel (ISSUE 7): interning, columnar views, join
plans, and the semi-naive trigger index.

Complements ``test_differential_index.py`` (which fuzzes whole runs of
the compiled engine against the naive one) with targeted unit tests of
the compiled layer's own invariants:

* the symbol table is injective across term *kinds* and stable across
  KB merges and re-encodings;
* a compiled view maintained incrementally through adds/discards/copies
  equals one rebuilt from scratch;
* the compiled evaluator returns the naive search's witnesses, including
  under partial assignments and forbidden images, and ``injective``
  searches run on it (outside ``no_index()``) and agree with the naive
  ones;
* the semi-naive ``CompiledTriggerIndex`` survives mid-chase
  ``CoreMaintainer`` retractions with a live pool identical to a
  from-scratch rescan;
* ``compile``/``join_plan`` events and ``compiled.*`` metrics flow
  through :mod:`repro.obs`.
"""

import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chase.compiled_index import CompiledTriggerIndex
from repro.chase.engine import ChaseEngine, ChaseVariant, run_chase
from repro.chase.trigger import triggers
from repro.kbs.elevator import elevator_kb
from repro.kbs.staircase import staircase_kb
from repro.logic import indexing
from repro.logic.atoms import Atom, Predicate
from repro.logic.atomset import AtomSet
from repro.logic.compiled import compiled_homomorphisms, compiled_view, plans
from repro.logic.compiled.interner import reset_symbol_table, symbol_table
from repro.logic.homomorphism import homomorphisms
from repro.logic.isomorphism import find_isomorphism, isomorphic
from repro.logic.parser import parse_atoms
from repro.logic.substitution import Substitution
from repro.logic.terms import Constant, FreshVariableSource, Variable
from repro.obs import (
    JsonlTracer,
    MetricsObserver,
    MetricsRegistry,
    TracingObserver,
    observing,
)
from repro.service.snapshots import SnapshotStore


# ---------------------------------------------------------------------------
# interning
# ---------------------------------------------------------------------------


class TestSymbolTable:
    def test_same_name_different_kind_gets_distinct_codes(self):
        """``Variable("a")`` and ``Constant("a")`` are different terms
        and must never collapse to one code."""
        table = symbol_table()
        var_code = table.encode_term(Variable("a"))
        const_code = table.encode_term(Constant("a"))
        assert var_code != const_code
        assert table.decode_term(var_code) == Variable("a")
        assert table.decode_term(const_code) == Constant("a")
        assert table.is_variable_code[var_code]
        assert not table.is_variable_code[const_code]

    def test_codes_stable_across_kb_merges(self):
        """Interning the atoms of two KBs that share constant and null
        *names* must assign one code per (kind, name) — the codes a KB's
        atoms got before a merge are the codes they keep after it."""
        table = symbol_table()
        first = sorted(parse_atoms("edge(a, b), edge(b, N1)"))
        before = [table.encode_atom(at)[1:] for at in first]
        for at in parse_atoms("edge(N1, a), label(b, c)"):
            table.encode_atom(at)
        # Re-encoding the first KB's atoms (fresh Atom objects, same
        # names) reproduces the original codes exactly.
        again = [
            table.encode_atom(at)[1:]
            for at in sorted(parse_atoms("edge(a, b), edge(b, N1)"))
        ]
        assert before == again

    def test_encode_decode_round_trip(self):
        table = symbol_table()
        for at in parse_atoms("r(X, a, Y), s(b), t(X, X)"):
            _, pred_code, row = table.encode_atom(at)
            rebuilt = Atom(
                table.decode_predicate(pred_code),
                tuple(table.decode_term(code) for code in row),
            )
            assert rebuilt == at

    def test_fresh_nulls_from_independent_sources_stay_distinct(self):
        """Two engines' fresh-null streams reuse names only when the
        names really are equal — the interner must key on the name, not
        the object, so equal names collide (same code) and distinct
        names never do."""
        table = symbol_table()
        src_a, src_b = FreshVariableSource(), FreshVariableSource()
        null_a, null_b = src_a.fresh(), src_b.fresh()
        if null_a == null_b:
            assert table.encode_term(null_a) == table.encode_term(null_b)
        else:
            assert table.encode_term(null_a) != table.encode_term(null_b)

    def test_reset_retires_old_views(self):
        """After the (test-only) global reset, previously attached views
        carry a stale generation and are rebuilt, not trusted."""
        atoms = AtomSet(parse_atoms("p(a, b), p(b, c)"))
        view = compiled_view(atoms)
        reset_symbol_table()
        fresh = compiled_view(atoms)
        assert fresh is not view
        assert fresh.generation == symbol_table().generation
        assert fresh.tuples == 2


# ---------------------------------------------------------------------------
# columnar views
# ---------------------------------------------------------------------------


def _view_state(view):
    return {
        code: (
            set(rel.rows),
            {k: set(v) for k, v in rel.postings.items()},
            dict(rel.sort_keys),
        )
        for code, rel in view.relations.items()
        if rel.rows
    }


class TestCompiledView:
    def test_incremental_maintenance_matches_rebuild(self):
        """A view maintained through adds and discards equals a view
        built from scratch over the final atom set."""
        atoms = AtomSet(parse_atoms("e(a, b), e(b, c)"))
        view = compiled_view(atoms)
        extra = list(parse_atoms("e(c, d), f(a), f(d)"))
        for at in extra:
            atoms.add(at)
        atoms.discard(extra[0])
        atoms.discard(next(iter(parse_atoms("e(a, b)"))))
        rebuilt = compiled_view(AtomSet(atoms))
        assert view.tuples == rebuilt.tuples == len(atoms)
        assert _view_state(view) == _view_state(rebuilt)

    def test_copy_clones_the_view_independently(self):
        """``AtomSet.copy`` hands the copy its own cloned view: mutating
        either set afterwards must not leak into the other."""
        atoms = AtomSet(parse_atoms("e(a, b), e(b, c)"))
        compiled_view(atoms)
        copy = atoms.copy()
        assert copy._compiled is not None
        assert copy._compiled is not atoms._compiled
        copy.add(next(iter(parse_atoms("e(c, d)"))))
        atoms.discard(next(iter(parse_atoms("e(a, b)"))))
        assert _view_state(compiled_view(copy)) == _view_state(
            compiled_view(AtomSet(copy))
        )
        assert _view_state(compiled_view(atoms)) == _view_state(
            compiled_view(AtomSet(atoms))
        )


# ---------------------------------------------------------------------------
# the compiled evaluator vs the naive search
# ---------------------------------------------------------------------------


def _naive_witnesses(source, target, **kw):
    with indexing.no_index():
        return set(homomorphisms(source, target, **kw))


_SOURCE_TERMS = [Variable("X"), Variable("Y"), Variable("Z"), Constant("a"), Constant("b")]
_TARGET_TERMS = [Variable("U"), Variable("V"), Variable("X"), Constant("a"), Constant("c")]


def _atom_lists(terms, min_size):
    term = st.sampled_from(terms)
    return st.lists(
        st.one_of(
            st.builds(lambda t: Atom(Predicate("p", 1), (t,)), term),
            st.builds(lambda s, t: Atom(Predicate("e", 2), (s, t)), term, term),
        ),
        min_size=min_size,
        max_size=4,
    )


@st.composite
def injective_problems(draw):
    """A small source over nulls and constants; a target holding a
    random image of it plus random atoms; a ``partial`` whose images
    often collide with each other or with a constant of the source (it
    may also bind a variable outside the source); random forbidden
    images."""
    source = AtomSet(draw(_atom_lists(_SOURCE_TERMS, 1)))
    variables = sorted(source.variables(), key=lambda v: v.name)
    image = Substitution(
        {v: draw(st.sampled_from(_TARGET_TERMS)) for v in variables}
    )
    target = image.apply(source)
    target.update(draw(_atom_lists(_TARGET_TERMS, 0)))
    partial = draw(
        st.dictionaries(
            st.sampled_from(variables + [Variable("Q")]),
            st.sampled_from(_TARGET_TERMS),
            max_size=2,
        )
    )
    forbidden = draw(st.lists(st.sampled_from(_TARGET_TERMS), max_size=2))
    return source, target, Substitution(partial), forbidden


class TestWitnessParity:
    def test_witness_lists_identical_in_order(self):
        source = AtomSet(parse_atoms("e(X, Y), e(Y, Z)"))
        target = AtomSet(
            parse_atoms("e(a, b), e(b, c), e(c, a), e(b, d), e(d, b)")
        )
        compiled = list(homomorphisms(source, target))
        assert len(compiled) == len(set(compiled))
        assert set(compiled) == _naive_witnesses(source, target)

    def test_witness_lists_identical_under_partial(self):
        source = AtomSet(parse_atoms("e(X, Y), e(Y, Z)"))
        target = AtomSet(parse_atoms("e(a, b), e(b, c), e(c, a)"))
        partial = Substitution({Variable("X"): Constant("a")})
        assert set(
            homomorphisms(source, target, partial=partial)
        ) == _naive_witnesses(source, target, partial=partial)

    def test_witness_lists_identical_under_forbidden_images(self):
        source = AtomSet(parse_atoms("e(X, Y)"))
        target = AtomSet(parse_atoms("e(a, b), e(b, c)"))
        forbidden = (Constant("b"),)
        assert set(
            homomorphisms(source, target, forbidden_images=forbidden)
        ) == _naive_witnesses(source, target, forbidden_images=forbidden)

    def test_compiled_homomorphisms_direct_entry_point(self):
        source = AtomSet(parse_atoms("e(X, Y), e(Y, X)"))
        target = AtomSet(parse_atoms("e(a, b), e(b, a), e(b, c)"))
        assert set(
            compiled_homomorphisms(source, target)
        ) == _naive_witnesses(source, target)

    def test_injective_search_matches_naive(self):
        """Injective (isomorphism-style) searches run on the kernel,
        which blocks every image already taken: its witnesses reuse no
        image and equal the naive reference's."""
        source = AtomSet(parse_atoms("e(X, Y), e(Y, Z)"))
        target = AtomSet(parse_atoms("e(a, b), e(b, c), e(c, a), e(a, a)"))
        found = set(homomorphisms(source, target, injective=True))
        assert all(
            len({term for _, term in hom.items()}) == len(hom) for hom in found
        ), "an injective witness reused an image"
        assert found == _naive_witnesses(source, target, injective=True)

    @given(problem=injective_problems())
    @settings(max_examples=300, deadline=None)
    def test_injective_witnesses_equal_naive_on_random_atomsets(self, problem):
        source, target, partial, forbidden = problem
        kw = dict(partial=partial, forbidden_images=forbidden, injective=True)
        found = list(homomorphisms(source, target, **kw))
        assert len(found) == len(set(found))
        assert set(found) == _naive_witnesses(source, target, **kw)
        terms = source.terms()
        for hom in found:
            assert len({hom.apply_term(t) for t in terms}) == len(terms)

    def test_injective_searches_run_on_the_kernel(self, monkeypatch):
        """``find_isomorphism`` reaches the kernel outside ``no_index()``
        and never inside it."""
        calls = []
        kernel = plans.compiled_homomorphisms

        def counting(*args, **kwargs):
            calls.append(kwargs["injective"])
            return kernel(*args, **kwargs)

        monkeypatch.setattr(plans, "compiled_homomorphisms", counting)
        left = parse_atoms("e(X, Y), e(Y, c)")
        right = parse_atoms("e(U, V), e(V, c)")
        assert find_isomorphism(left, right) is not None
        assert calls == [True]
        with indexing.no_index():
            assert find_isomorphism(left, right) is not None
        assert calls == [True]


# ---------------------------------------------------------------------------
# the semi-naive trigger index
# ---------------------------------------------------------------------------


class TestCompiledTriggerIndex:
    def test_pool_matches_rescan_after_core_retractions(self):
        """The deep-retraction workload: a staircase core chase folds
        freshly grown fragments every step (CoreMaintainer retractions
        mid-chase), and the semi-naive pool must still equal a
        from-scratch rescan of the final instance: its active pool is
        exactly the triggers the rescan finds unsatisfied."""
        engine = ChaseEngine(staircase_kb(), variant=ChaseVariant.CORE)
        result = engine.run(max_steps=12)
        assert result.retractions > 0, "workload must exercise retractions"
        assert isinstance(engine._index, CompiledTriggerIndex)
        final = result.final_instance
        rescanned = {
            (rule.name, trigger.full_image())
            for rule in engine.kb.rules
            for trigger in triggers(rule, final)
            if not trigger.is_satisfied_in(final)
        }
        assert set(engine._index._pool) == rescanned

    def test_core_run_equals_indexed_oracle_after_retractions(self):
        """The compiled core run against the naive reference: same
        applications and retractions, isomorphic final instance."""
        compiled = run_chase(
            elevator_kb(), variant=ChaseVariant.CORE, max_steps=10
        )
        naive = run_chase(
            elevator_kb(),
            variant=ChaseVariant.CORE,
            max_steps=10,
            use_index=False,
        )
        assert compiled.applications == naive.applications
        assert compiled.retractions == naive.retractions
        assert isomorphic(compiled.final_instance, naive.final_instance)

    def test_default_engine_installs_compiled_index(self):
        engine = ChaseEngine(elevator_kb(), variant=ChaseVariant.RESTRICTED)
        engine.run(max_steps=2)
        assert isinstance(engine._index, CompiledTriggerIndex)

    def test_no_index_disables_both_layers(self):
        engine = ChaseEngine(
            elevator_kb(), variant=ChaseVariant.RESTRICTED, use_index=False
        )
        engine.run(max_steps=4)
        assert engine._index is None


# ---------------------------------------------------------------------------
# snapshot round trip
# ---------------------------------------------------------------------------


class TestSnapshotRoundTrip:
    def test_symbol_table_survives_save_load_resume(self, tmp_path):
        """A compiled run checkpointed through the snapshot store and
        restored in a fresh symbol-table world must resume to the same
        instances as an uninterrupted compiled run — the interner is
        process-local state the snapshot format must not depend on."""
        kb = staircase_kb()
        straight = run_chase(kb, variant=ChaseVariant.CORE, max_steps=10)

        engine = ChaseEngine(kb, variant=ChaseVariant.CORE)
        engine.run(max_steps=6)
        store = SnapshotStore(tmp_path)
        store.save(kb, engine.export_state())

        # A fresh process: new interner codes, nothing shared.
        reset_symbol_table()
        state = store.load(kb, ChaseVariant.CORE)
        assert state is not None
        resumed_engine = ChaseEngine(kb, variant=ChaseVariant.CORE)
        resumed_engine.restore_state(state)
        resumed_engine.resume(extra_steps=4)
        assert resumed_engine.current_instance == straight.final_instance


# ---------------------------------------------------------------------------
# observability
# ---------------------------------------------------------------------------


class TestCompiledTelemetry:
    def test_metrics_flow(self):
        registry = MetricsRegistry()
        with observing(MetricsObserver(registry)):
            run_chase(elevator_kb(), variant=ChaseVariant.RESTRICTED, max_steps=6)
        assert registry.counter("compiled.plans").value > 0
        assert registry.counter("compiled.delta_rounds").value > 0
        assert registry.gauge("compiled.tuples").value > 0

    def test_compile_and_join_plan_events_traced(self):
        buffer = io.StringIO()
        with observing(TracingObserver(JsonlTracer(buffer))):
            run_chase(elevator_kb(), variant=ChaseVariant.RESTRICTED, max_steps=4)
        kinds = {
            json.loads(line)["kind"]
            for line in buffer.getvalue().splitlines()
            if line.strip()
        }
        assert "compile" in kinds
        assert "join_plan" in kinds

    def test_no_events_when_compiled_disabled(self):
        buffer = io.StringIO()
        with observing(TracingObserver(JsonlTracer(buffer))):
            run_chase(
                elevator_kb(),
                variant=ChaseVariant.RESTRICTED,
                max_steps=4,
                use_index=False,
            )
        kinds = {
            json.loads(line)["kind"]
            for line in buffer.getvalue().splitlines()
            if line.strip()
        }
        assert "compile" not in kinds
        assert "join_plan" not in kinds
