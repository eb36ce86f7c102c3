"""Delta snapshots and incremental re-serving (repro.service.snapshots).

Three load-bearing suites:

* the **delta algebra** — ``diff_chase_states`` / ``apply_chase_state_delta``
  round-trip every checkpoint field, so a chain of delta records replays
  to exactly the state a full blob would have stored;
* the **ancestor differential** — on terminating grow-by-k workloads, a
  chase resumed from the nearest ancestor snapshot plus the missing
  facts reaches the *same fixpoint* as a cold chase of the grown KB
  (atom-for-atom equal, same application count), which is what makes
  incremental re-serving sound to ship;
* the **chaos path** — a corrupt mid-chain record is classified broken
  (``snapshot.chain_broken``), dropped once, and the store falls back
  to a clean cold save, never a crash.

The non-terminating paper families (staircase, elevator) appear in the
delta-chain tests — their checkpoints are the realistic payloads — but
the differential only asserts fixpoint equality on terminating KBs: two
fair schedules of an unbounded chase share no common final instance to
compare.
"""

import json

import pytest

from repro import elevator_kb, staircase_kb
from repro.chase.engine import (
    ChaseEngine,
    apply_chase_state_delta,
    diff_chase_states,
    merge_facts_into_state,
    run_chase,
)
from repro.kbs.witnesses import transitive_closure_kb, weakly_acyclic_kb
from repro.logic.atoms import Atom
from repro.logic.isomorphism import isomorphic
from repro.logic.kb import KnowledgeBase
from repro.logic.parser import parse_atoms
from repro.logic.serialization import dump_kb, load_kb
from repro.logic.terms import Variable
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import Observer, observing
from repro.obs.tracer import MetricsObserver
from repro.service.snapshots import (
    SNAPSHOT_SCHEMA,
    SnapshotStore,
    chase_state_to_obj,
    kb_fingerprint,
    state_delta_from_obj,
    state_delta_to_obj,
)


def grow(kb, extra_fact_lines):
    """The KB with *extra_fact_lines* appended to its facts section."""
    text = dump_kb(kb)
    return load_kb(
        text.replace("[facts]", "[facts]\n" + "\n".join(extra_fact_lines), 1)
    )


def _states_equal(a, b):
    assert a.variant == b.variant
    assert a.core_every == b.core_every
    assert a.fresh_prefix == b.fresh_prefix
    assert a.fresh_count == b.fresh_count
    assert a.instance == b.instance
    assert a.applied_keys == b.applied_keys
    assert a.ages == b.ages
    assert a.terminated == b.terminated
    assert a.applications == b.applications
    assert a.applications_since_core == b.applications_since_core
    assert a.delta_since_core == b.delta_since_core


DELTA_FAMILIES = [
    ("staircase", staircase_kb, "core", 6, 12),
    ("staircase", staircase_kb, "restricted", 6, 12),
    ("elevator", elevator_kb, "core", 5, 10),
    ("tclosure", lambda: transitive_closure_kb(4), "restricted", 3, 9),
]


class TestStateDelta:
    @pytest.mark.parametrize(
        "label, make_kb, variant, cut, total",
        DELTA_FAMILIES,
        ids=[f"{f[0]}-{f[2]}" for f in DELTA_FAMILIES],
    )
    def test_diff_apply_round_trip(self, label, make_kb, variant, cut, total):
        engine = ChaseEngine(make_kb(), variant=variant)
        engine.run(cut)
        parent = engine.export_state()
        engine.resume(total - cut)
        child = engine.export_state()
        delta = diff_chase_states(parent, child)
        _states_equal(apply_chase_state_delta(parent, delta), child)

    def test_delta_survives_json(self):
        engine = ChaseEngine(staircase_kb(), variant="core")
        engine.run(5)
        parent = engine.export_state()
        engine.resume(4)
        child = engine.export_state()
        delta = diff_chase_states(parent, child)
        obj = json.loads(json.dumps(state_delta_to_obj(delta)))
        back = state_delta_from_obj(obj)
        _states_equal(apply_chase_state_delta(parent, back), child)

    def test_apply_does_not_mutate_parent(self):
        engine = ChaseEngine(staircase_kb(), variant="restricted")
        engine.run(4)
        parent = engine.export_state()
        atoms_before = parent.instance.copy()
        engine.resume(4)
        delta = diff_chase_states(parent, engine.export_state())
        apply_chase_state_delta(parent, delta)
        assert parent.instance == atoms_before
        assert parent.applications == 4

    def test_config_mismatch_rejected(self):
        a = ChaseEngine(staircase_kb(), variant="restricted")
        a.run(3)
        b = ChaseEngine(staircase_kb(), variant="core")
        b.run(3)
        with pytest.raises(ValueError):
            diff_chase_states(a.export_state(), b.export_state())


class TestMergeFacts:
    def test_merge_injects_only_novel_atoms(self):
        kb = transitive_closure_kb(4)
        engine = ChaseEngine(kb, variant="restricted")
        engine.run(3)
        state = engine.export_state()
        grown = grow(kb, ["e(v4, v5)"])
        novel = [at for at in grown.facts if at not in state.instance]
        merged = merge_facts_into_state(state, grown.facts.sorted_atoms())
        assert set(novel) <= set(merged.instance)
        assert len(merged.instance) == len(state.instance) + len(novel)
        assert merged.applications == state.applications
        # the injected facts join the pending core-maintenance delta …
        assert set(novel) <= set(merged.delta_since_core)
        # … and un-terminate a finished chase (new triggers may exist)
        assert not merged.terminated or not novel

    def test_merge_of_known_atoms_is_identity_shaped(self):
        kb = transitive_closure_kb(3)
        engine = ChaseEngine(kb, variant="restricted")
        engine.run(200)
        state = engine.export_state()
        assert state.terminated
        merged = merge_facts_into_state(state, kb.facts.sorted_atoms())
        assert merged.instance == state.instance
        assert merged.terminated  # nothing new: still a fixpoint


class TestDeltaChains:
    def _advance(self, store, kb, variant, steps, parent=None):
        engine = ChaseEngine(kb, variant=variant)
        if parent is not None:
            engine.restore_state(parent.state)
            engine.resume(steps)
        else:
            engine.run(steps)
        store.save(kb, engine.export_state(), parent=parent)
        return store.load_entry(kb, variant, 1)

    def test_resumed_save_appends_delta_record(self, tmp_path):
        kb = staircase_kb()
        store = SnapshotStore(tmp_path)
        entry = self._advance(store, kb, "core", 5)
        assert entry.chain_depth == 1
        entry = self._advance(store, kb, "core", 3, parent=entry)
        assert entry.chain_depth == 2
        head = json.loads(store.path_for(entry.key).read_text())
        assert head["kind"] == "delta"
        # the replayed chain equals an uninterrupted export
        straight = ChaseEngine(kb, variant="core")
        straight.run(8)
        _states_equal(entry.state, straight.export_state())

    def test_chain_recheckpoints_at_depth_budget(self, tmp_path):
        kb = staircase_kb()
        store = SnapshotStore(tmp_path, max_chain_depth=3)
        entry = self._advance(store, kb, "core", 4)
        depths = [entry.chain_depth]
        for _ in range(4):
            entry = self._advance(store, kb, "core", 2, parent=entry)
            depths.append(entry.chain_depth)
        # grows to the budget, then re-checkpoints to a fresh base
        assert depths[:3] == [1, 2, 3]
        assert 1 in depths[3:]
        assert max(depths) <= 3

    def test_delta_saves_report_bytes_saved(self, tmp_path):
        events = []

        class Spy(Observer):
            def emit(self, kind, **fields):
                if kind == "snapshot_access":
                    events.append(fields)

        kb = staircase_kb()
        store = SnapshotStore(tmp_path)
        with observing(Spy()):
            entry = self._advance(store, kb, "core", 5)
            self._advance(store, kb, "core", 2, parent=entry)
        saves = [e for e in events if e["op"] == "save"]
        assert saves[0]["bytes_saved"] == 0  # base record
        assert saves[1]["bytes_saved"] > 0  # delta: smaller than a full blob
        assert saves[1]["chain_depth"] == 2

    def test_evicting_one_chain_leaves_siblings_loadable(self, tmp_path):
        store = SnapshotStore(tmp_path, max_entries=1)
        kb1 = staircase_kb()
        entry = self._advance(store, kb1, "core", 4)
        self._advance(store, kb1, "core", 2, parent=entry)
        kb2 = elevator_kb()
        self._advance(store, kb2, "core", 4)
        assert store.load(kb1, "core", 1) is None  # evicted, whole chain
        assert store.load(kb2, "core", 1) is not None
        assert store.entry_count() == 1
        # no orphaned record blobs survive the evicted chain
        live_records = len(list(store.objects.glob("*.json")))
        assert live_records == store.entry_count() or live_records == 1


#: Terminating grow-by-k families: (label, base KB, new fact lines,
#: variant, prefix steps to snapshot, generous fixpoint budget).
GROW_FAMILIES = [
    (
        "tclosure",
        lambda: transitive_closure_kb(5),
        ["e(v5, v6)"],
        "restricted",
        4,
        200,
    ),
    (
        "tclosure-core",
        lambda: transitive_closure_kb(5),
        ["e(v5, v6)"],
        "core",
        4,
        200,
    ),
    (
        "weak-acyclic",
        weakly_acyclic_kb,
        ["person(carol)"],
        "restricted",
        2,
        200,
    ),
    (
        "weak-acyclic-core",
        weakly_acyclic_kb,
        ["person(carol)"],
        "core",
        2,
        200,
    ),
]


class TestAncestorResolution:
    def _snapshot(self, store, kb, variant, steps):
        engine = ChaseEngine(kb, variant=variant)
        engine.run(steps)
        store.save(kb, engine.export_state())

    def test_grown_kb_resolves_to_ancestor(self, tmp_path):
        kb = transitive_closure_kb(5)
        store = SnapshotStore(tmp_path)
        self._snapshot(store, kb, "restricted", 4)
        grown = grow(kb, ["e(v5, v6)"])
        assert store.load(grown, "restricted", 1) is None  # exact miss
        entry = store.resolve_ancestor(grown, "restricted", 1)
        assert entry is not None and entry.ancestor
        assert sorted(map(str, entry.missing_atoms)) == ["e(v5, v6)"]
        assert entry.state.applications == 4

    def test_nearest_ancestor_wins(self, tmp_path):
        kb4 = transitive_closure_kb(4)
        kb5 = transitive_closure_kb(5)
        store = SnapshotStore(tmp_path)
        self._snapshot(store, kb4, "restricted", 2)
        self._snapshot(store, kb5, "restricted", 4)
        grown = grow(kb5, ["e(v5, v6)"])
        entry = store.resolve_ancestor(grown, "restricted", 1)
        assert entry is not None
        # kb5 shares more facts than kb4: one missing atom, not two
        assert sorted(map(str, entry.missing_atoms)) == ["e(v5, v6)"]

    def test_different_rules_never_match(self, tmp_path):
        kb = transitive_closure_kb(5)
        store = SnapshotStore(tmp_path)
        self._snapshot(store, kb, "restricted", 4)
        grown_text = dump_kb(grow(kb, ["e(v5, v6)"]))
        grown = load_kb(grown_text + "[Extra] e(X, Y) -> e(Y, X)\n")
        assert store.resolve_ancestor(grown, "restricted", 1) is None

    def test_config_participates(self, tmp_path):
        kb = transitive_closure_kb(5)
        store = SnapshotStore(tmp_path)
        self._snapshot(store, kb, "restricted", 4)
        grown = grow(kb, ["e(v5, v6)"])
        assert store.resolve_ancestor(grown, "core", 1) is None
        assert store.resolve_ancestor(grown, "restricted", 2) is None

    def test_budget_gate_filters_deep_prefixes(self, tmp_path):
        kb = transitive_closure_kb(5)
        store = SnapshotStore(tmp_path)
        self._snapshot(store, kb, "restricted", 10)
        grown = grow(kb, ["e(v5, v6)"])
        assert (
            store.resolve_ancestor(grown, "restricted", 1, max_applications=3)
            is None
        )
        assert (
            store.resolve_ancestor(grown, "restricted", 1, max_applications=50)
            is not None
        )

    def test_superset_snapshot_is_not_an_ancestor(self, tmp_path):
        # The grown KB's snapshot must never serve the *base* KB: its
        # derivation saw facts the smaller KB does not have.
        kb = transitive_closure_kb(5)
        grown = grow(kb, ["e(v5, v6)"])
        store = SnapshotStore(tmp_path)
        self._snapshot(store, grown, "restricted", 4)
        assert store.resolve_ancestor(kb, "restricted", 1) is None

    def test_shared_input_nulls_rejected(self, tmp_path):
        # Staircase facts carry nulls (uppercase terms); a new fact
        # mentioning one of them could have been decoupled by the
        # ancestor's core simplifications, so the candidate must be
        # rejected, not resumed.
        kb = staircase_kb()
        store = SnapshotStore(tmp_path)
        self._snapshot(store, kb, "core", 5)
        grown = grow(kb, ["f(Xh_0_0)", "c(Xh_0_0)"])
        # the new fact c(Xh_0_0) shares the null Xh_0_0 with f/h facts
        assert store.resolve_ancestor(grown, "core", 1) is None

    def test_disjoint_constants_accepted(self, tmp_path):
        # The common serving case: new ground facts about new entities.
        kb = staircase_kb()
        store = SnapshotStore(tmp_path)
        self._snapshot(store, kb, "core", 5)
        grown = grow(kb, ["f(s9)", "h(s9, s9)"])
        entry = store.resolve_ancestor(grown, "core", 1)
        assert entry is not None
        assert sorted(map(str, entry.missing_atoms)) == [
            "f(s9)",
            "h(s9, s9)",
        ]

    @staticmethod
    def _tenant_chain(rules, tenant, edges):
        facts = ", ".join(f"e({tenant}{i}, {tenant}{i + 1})" for i in range(edges))
        return KnowledgeBase(parse_atoms(facts), rules, name=tenant)

    def test_ancestor_found_past_many_larger_entries(self, tmp_path):
        # 33 other tenants' entries of the same rules, each with more
        # facts than the request's ancestor (and fewer than the request),
        # must not crowd the ancestor out of the candidates.
        kb = transitive_closure_kb(3)
        store = SnapshotStore(tmp_path)
        self._snapshot(store, kb, "restricted", 2)
        for tenant in range(33):
            other = self._tenant_chain(kb.rules, f"t{tenant}x", 4)
            self._snapshot(store, other, "restricted", 1)
        grown = grow(kb, ["e(v3, v4)", "e(v4, v5)"])
        entry = store.resolve_ancestor(grown, "restricted", 1)
        assert entry is not None
        assert sorted(map(str, entry.missing_atoms)) == [
            "e(v3, v4)",
            "e(v4, v5)",
        ]

    def test_request_sharing_no_fact_reads_no_manifest(
        self, tmp_path, monkeypatch
    ):
        kb = transitive_closure_kb(3)
        store = SnapshotStore(tmp_path)
        for tenant in range(5):
            other = self._tenant_chain(kb.rules, f"t{tenant}x", 2)
            self._snapshot(store, other, "restricted", 1)
        stranger = self._tenant_chain(kb.rules, "stranger", 4)
        parsed = []
        real_loads = json.loads

        def counting_loads(text, *args, **kwargs):
            parsed.append(text)
            return real_loads(text, *args, **kwargs)

        monkeypatch.setattr(json, "loads", counting_loads)
        assert store.resolve_ancestor(stranger, "restricted", 1) is None
        assert parsed == []

    def test_fresh_prefix_collision_rejected(self, tmp_path):
        # A delta fact whose null uses the engine's fresh prefix could
        # conflate with an invented null of the resumed derivation.
        kb = transitive_closure_kb(4)
        store = SnapshotStore(tmp_path)
        self._snapshot(store, kb, "restricted", 3)
        probe = next(iter(kb.facts))
        hostile = Atom(
            probe.predicate, (Variable("_n0"),) + probe.args[1:]
        )
        grown = KnowledgeBase(
            list(kb.facts) + [hostile], kb.rules, name="hostile"
        )
        assert store.resolve_ancestor(grown, "restricted", 1) is None


class TestAncestorColdDifferential:
    """Ancestor-incremental re-serving equals a cold chase of the grown
    KB: same fixpoint (atom-for-atom), same application count."""

    @pytest.mark.parametrize(
        "label, make_kb, extra, variant, cut, budget",
        GROW_FAMILIES,
        ids=[f[0] for f in GROW_FAMILIES],
    )
    def test_incremental_equals_cold(
        self, tmp_path, label, make_kb, extra, variant, cut, budget
    ):
        kb = make_kb()
        grown = grow(kb, extra)
        cold = run_chase(grown, variant=variant, max_steps=budget)
        assert cold.terminated

        store = SnapshotStore(tmp_path)
        prefix = ChaseEngine(kb, variant=variant)
        prefix.run(cut)
        store.save(kb, prefix.export_state())

        entry = store.resolve_ancestor(grown, variant, 1)
        assert entry is not None and entry.ancestor
        engine = ChaseEngine(grown, variant=variant)
        engine.restore_state(
            merge_facts_into_state(entry.state, entry.missing_atoms)
        )
        result = engine.resume(budget - entry.state.applications)

        assert result.terminated
        assert engine.current_instance == cold.final_instance
        assert isomorphic(engine.current_instance, cold.final_instance)
        assert (
            entry.state.applications + result.applications
            == cold.applications
        )

    def test_incremental_chain_of_growths(self, tmp_path):
        # Grow twice: the second request's nearest ancestor is the
        # *first grown* KB's snapshot, and its save chains on it.
        kb = transitive_closure_kb(4)
        store = SnapshotStore(tmp_path)
        engine = ChaseEngine(kb, variant="restricted")
        engine.run(200)
        assert engine.export_state().terminated
        store.save(kb, engine.export_state())

        grown1 = grow(kb, ["e(v4, v5)"])
        entry1 = store.resolve_ancestor(grown1, "restricted", 1)
        assert entry1 is not None
        eng1 = ChaseEngine(grown1, variant="restricted")
        eng1.restore_state(
            merge_facts_into_state(entry1.state, entry1.missing_atoms)
        )
        eng1.resume(200)
        store.save(grown1, eng1.export_state(), parent=entry1)
        cold1 = run_chase(grown1, variant="restricted", max_steps=200)
        assert eng1.current_instance == cold1.final_instance

        grown2 = grow(grown1, ["e(v5, v6)"])
        entry2 = store.resolve_ancestor(grown2, "restricted", 1)
        assert entry2 is not None
        assert sorted(map(str, entry2.missing_atoms)) == ["e(v5, v6)"]
        eng2 = ChaseEngine(grown2, variant="restricted")
        eng2.restore_state(
            merge_facts_into_state(entry2.state, entry2.missing_atoms)
        )
        eng2.resume(200)
        cold2 = run_chase(grown2, variant="restricted", max_steps=200)
        assert eng2.current_instance == cold2.final_instance


class TestV1Migration:
    def _v1_file(self, root, kb, variant="restricted", steps=3):
        engine = ChaseEngine(kb, variant=variant)
        engine.run(steps)
        state_obj = chase_state_to_obj(engine.export_state())
        payload = {
            "schema": 1,
            "kb_fingerprint": kb_fingerprint(kb),
            "state": state_obj,
        }
        path = root / "legacy-entry.json"
        path.write_text(json.dumps(payload))
        return path

    def test_v1_snapshot_loads_after_migration(self, tmp_path):
        kb = staircase_kb()
        path = self._v1_file(tmp_path, kb)
        store = SnapshotStore(tmp_path)
        assert store.migrated >= 1
        assert not path.exists()  # consumed
        state = store.load(kb, "restricted", 1)
        assert state is not None
        assert state.applications == 3

    def test_corrupt_v1_file_discarded_quietly(self, tmp_path):
        (tmp_path / "junk.json").write_text("{ not a snapshot")
        store = SnapshotStore(tmp_path)
        assert store.migrated >= 1
        assert not (tmp_path / "junk.json").exists()
        assert store.entry_count() == 0

    def test_migrated_entry_is_not_an_ancestor_candidate(self, tmp_path):
        # v1 payloads carry no KB text, so no facts manifest can be
        # recomputed: exact hits work, ancestor candidacy returns only
        # after the entry's next (v2) save.
        kb = transitive_closure_kb(5)
        self._v1_file(tmp_path, kb, steps=4)
        store = SnapshotStore(tmp_path)
        assert store.load(kb, "restricted", 1) is not None
        grown = grow(kb, ["e(v5, v6)"])
        assert store.resolve_ancestor(grown, "restricted", 1) is None
        # a fresh save fills the manifest in
        engine = ChaseEngine(kb, variant="restricted")
        engine.run(4)
        store.save(kb, engine.export_state())
        assert store.resolve_ancestor(grown, "restricted", 1) is not None


class TestChainCorruptionChaos:
    def _chained(self, store, kb, variant="core"):
        engine = ChaseEngine(kb, variant=variant)
        engine.run(5)
        store.save(kb, engine.export_state())
        entry = store.load_entry(kb, variant, 1)
        engine.resume(3)
        store.save(kb, engine.export_state(), parent=entry)
        return store.load_entry(kb, variant, 1)

    def test_corrupt_mid_chain_record_falls_back_cold(self, tmp_path):
        kb = staircase_kb()
        store = SnapshotStore(tmp_path)
        entry = self._chained(store, kb)
        assert entry.chain_depth == 2
        head = json.loads(store.path_for(entry.key).read_text())
        base_blob = store._object_path(head["parent"])
        base_blob.write_text("\x00 torn base record \x00")

        registry = MetricsRegistry()
        with observing(MetricsObserver(registry)):
            assert store.load(kb, "core", 1) is None  # broken chain: miss
        assert registry.counter("snapshot.chain_broken").value == 1
        assert registry.counter("snapshot.corrupt").value == 1
        assert store.entry_count() == 0  # dropped transactionally

        # the store recovers: a cold save works and loads cleanly
        engine = ChaseEngine(kb, variant="core")
        engine.run(4)
        store.save(kb, engine.export_state())
        assert store.load(kb, "core", 1) is not None

    def test_broken_ancestor_chain_skipped(self, tmp_path):
        kb = transitive_closure_kb(5)
        store = SnapshotStore(tmp_path)
        engine = ChaseEngine(kb, variant="restricted")
        engine.run(4)
        store.save(kb, engine.export_state())
        key_path = store.path_for(
            store.load_entry(kb, "restricted", 1).key
        )
        key_path.write_text("garbage")
        grown = grow(kb, ["e(v5, v6)"])
        registry = MetricsRegistry()
        with observing(MetricsObserver(registry)):
            assert store.resolve_ancestor(grown, "restricted", 1) is None
        assert registry.counter("snapshot.chain_broken").value == 1
        assert store.entry_count() == 0


class TestDeltaSinceCoreAcrossSymbolReset:
    def test_mid_cadence_state_round_trips_after_interner_reset(
        self, tmp_path
    ):
        """A checkpoint cut mid-way through a core cadence carries a
        non-empty ``delta_since_core``; stored as a delta chain and
        restored after a symbol-table reset (a fresh process), it must
        resume to the same instance as an uninterrupted run."""
        from repro.logic.compiled.interner import reset_symbol_table

        kb = staircase_kb()
        straight = run_chase(kb, variant="core", core_every=3, max_steps=10)

        engine = ChaseEngine(kb, variant="core", core_every=3)
        engine.run(5)
        store = SnapshotStore(tmp_path)
        store.save(kb, engine.export_state())
        entry = store.load_entry(kb, "core", 3)
        engine.resume(2)  # 7 applications: mid-cadence (7 % 3 != 0)
        cut_state = engine.export_state()
        assert cut_state.delta_since_core  # the satellite's premise
        store.save(kb, cut_state, parent=entry)

        # A fresh process: new interner codes, nothing shared.
        reset_symbol_table()
        restored = store.load(kb, "core", 3)
        assert restored is not None
        assert restored.delta_since_core == cut_state.delta_since_core
        assert restored.applications_since_core == (
            cut_state.applications_since_core
        )
        resumed = ChaseEngine(kb, variant="core", core_every=3)
        resumed.restore_state(restored)
        resumed.resume(3)
        assert resumed.current_instance == straight.final_instance


class TestSchemaConstant:
    def test_schema_is_two(self):
        # The content-addressed delta layout is schema 2; bumping it
        # orphans these chains by key, so it must be deliberate.
        assert SNAPSHOT_SCHEMA == 2
