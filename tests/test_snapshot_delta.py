"""Single-record snapshots and incremental re-serving
(repro.service.snapshots).

Three load-bearing suites:

* **single records** — every save writes one content-addressed record
  holding the whole state (instance, active triggers with their ages,
  bookkeeping); a resumed save replaces its key's record, and eviction
  leaves no record behind that no entry reaches;
* the **ancestor differential** — on terminating grow-by-k workloads, a
  chase resumed from the nearest ancestor snapshot plus the missing
  facts reaches the *same fixpoint* as a cold chase of the grown KB
  (atom-for-atom equal, same application count), which is what makes
  incremental re-serving sound to ship;
* the **chaos path** — a corrupt record, a broken ancestor record and an
  older store's files are classified, dropped once, and the store falls
  back to a clean cold save, never a crash.

The differential only asserts fixpoint equality on terminating KBs: two
fair schedules of an unbounded chase share no common final instance to
compare.
"""

import hashlib
import json
import sqlite3
import threading

import pytest

from repro import elevator_kb, staircase_kb
from repro.analysis.planner import ruleset_fingerprint
from repro.chase.engine import (
    ChaseEngine,
    merge_facts_into_state,
    run_chase,
)
from repro.kbs.witnesses import transitive_closure_kb, weakly_acyclic_kb
from repro.logic.atoms import Atom
from repro.logic.isomorphism import isomorphic
from repro.logic.kb import KnowledgeBase
from repro.logic.parser import parse_atoms, parse_rules
from repro.logic.serialization import dump_kb, load_kb
from repro.logic.terms import Variable
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import observing
from repro.obs.tracer import MetricsObserver
from repro.service.jobs import JobRequest, execute_job
from repro.service.snapshots import (
    SNAPSHOT_SCHEMA,
    SnapshotStore,
    chase_state_to_obj,
    kb_fingerprint,
    snapshot_key,
)


def grow(kb, extra_fact_lines):
    """The KB with *extra_fact_lines* appended to its facts section."""
    text = dump_kb(kb)
    return load_kb(
        text.replace("[facts]", "[facts]\n" + "\n".join(extra_fact_lines), 1)
    )


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
        assert merged.pending == []

    def test_merge_leaves_the_active_set_and_records_pending_facts(self):
        kb = transitive_closure_kb(4)
        engine = ChaseEngine(kb, variant="restricted")
        engine.run(3)
        state = engine.export_state()
        assert state.pending == [] and state.active
        merged = merge_facts_into_state(state, parse_atoms("e(v4, v5)"))
        # the stored active set stays; the restored index absorbs the
        # new fact as one delta at its first step
        assert merged.active == state.active
        assert [str(at) for at in merged.pending] == ["e(v4, v5)"]
        again = merge_facts_into_state(merged, parse_atoms("e(v5, v6)"))
        assert [str(at) for at in again.pending] == ["e(v4, v5)", "e(v5, v6)"]


class TestSingleRecords:
    def _advance(self, store, kb, variant, steps, parent=None):
        engine = ChaseEngine(kb, variant=variant)
        if parent is not None:
            engine.restore_state(parent.state)
            engine.resume(steps)
        else:
            engine.run(steps)
        store.save(kb, engine.export_state())
        return store.load_entry(kb, variant, 1)

    def test_resumed_save_replaces_the_record(self, tmp_path):
        kb = staircase_kb()
        store = SnapshotStore(tmp_path)
        first = self._advance(store, kb, "core", 5)
        first_path = store.path_for(first.key)
        entry = self._advance(store, kb, "core", 3, parent=first)
        path = store.path_for(entry.key)
        assert path != first_path
        record = json.loads(path.read_bytes())
        assert set(record) == {"schema", "state"}
        assert record["schema"] == SNAPSHOT_SCHEMA
        # one record per snapshot: the replaced one is gone
        assert list(store.objects.glob("*.json")) == [path]
        # and it holds exactly what an uninterrupted run exports
        straight = ChaseEngine(kb, variant="core")
        straight.run(8)
        assert entry.state.instance == straight.export_state().instance
        assert entry.state.active == straight.export_state().active
        assert chase_state_to_obj(entry.state) == chase_state_to_obj(
            straight.export_state()
        )

    def test_record_keeps_only_the_active_triggers(self, tmp_path):
        kb = transitive_closure_kb(10)
        engine = ChaseEngine(kb, variant="restricted")
        engine.run(20)
        state = engine.export_state()
        active = {key for key, _age in state.active}
        assert active == {
            ChaseEngine._age_key(tr)
            for tr in engine._active_triggers(engine.current_instance, set())
        }
        assert state.applied_keys == set()
        # ages: stamped triggers carry their birth step, new ones none
        assert all(age is None or 1 <= age <= 20 for _key, age in state.active)

    def test_evicting_one_entry_leaves_siblings_loadable(self, tmp_path):
        store = SnapshotStore(tmp_path, max_entries=1)
        kb1 = staircase_kb()
        entry = self._advance(store, kb1, "core", 4)
        self._advance(store, kb1, "core", 2, parent=entry)
        kb2 = elevator_kb()
        self._advance(store, kb2, "core", 4)
        assert store.load(kb1, "core", 1) is None  # evicted
        assert store.load(kb2, "core", 1) is not None
        assert store.entry_count() == 1
        # no record blob of the evicted entry survives
        assert len(list(store.objects.glob("*.json"))) == 1


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

    def test_resolve_trying_several_candidates_parses_no_manifest(
        self, tmp_path, monkeypatch
    ):
        # Three ancestors qualify by their facts; the two nearest share
        # the input null N1 with the missing facts and are refused
        # before their records are read.  A candidate's facts come from
        # its catalog rows, so the one JSON parsed is the record of the
        # candidate the resolve loads.
        rules = parse_rules("[R] p(X) -> q(X, Y)")
        store = SnapshotStore(tmp_path)
        for facts in ("p(N1), r(a)", "p(N1)", "r(a)"):
            kb = KnowledgeBase(parse_atoms(facts), rules, name=facts)
            self._snapshot(store, kb, "restricted", 1)
        grown = KnowledgeBase(
            parse_atoms("p(N1), r(a), s(N1)"), rules, name="grown"
        )
        parsed = []
        real_loads = json.loads

        def counting_loads(text, *args, **kwargs):
            parsed.append(text)
            return real_loads(text, *args, **kwargs)

        monkeypatch.setattr(json, "loads", counting_loads)
        entry = store.resolve_ancestor(grown, "restricted", 1)
        assert entry is not None
        assert sorted(map(str, entry.missing_atoms)) == ["p(N1)", "s(N1)"]
        assert len(parsed) == 1
        assert store.path_for(entry.key).read_bytes() == parsed[0]

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
        # *first grown* KB's snapshot, saved under its own key.
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
        store.save(grown1, eng1.export_state())
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


#: The catalog tables of the schema-2 store (delta chains), as a store
#: of that schema created them.
SCHEMA_2_CATALOG = """
CREATE TABLE meta (k TEXT PRIMARY KEY, v INTEGER NOT NULL);
CREATE TABLE records (
    hash TEXT PRIMARY KEY, kind TEXT NOT NULL, parent TEXT,
    bytes INTEGER NOT NULL, full_bytes INTEGER NOT NULL
);
CREATE TABLE snapshots (
    key TEXT PRIMARY KEY, kb_fingerprint TEXT NOT NULL,
    rules_fingerprint TEXT, variant TEXT NOT NULL,
    core_every INTEGER NOT NULL, head TEXT NOT NULL,
    applications INTEGER NOT NULL, atoms INTEGER NOT NULL,
    terminated INTEGER NOT NULL, chain_depth INTEGER NOT NULL,
    chain_bytes INTEGER NOT NULL, fact_count INTEGER,
    facts_manifest TEXT, last_access INTEGER NOT NULL
);
CREATE TABLE snapshot_facts (
    line_hash TEXT NOT NULL, key TEXT NOT NULL,
    PRIMARY KEY (line_hash, key)
) WITHOUT ROWID;
CREATE TABLE verdicts (
    rules_fingerprint TEXT PRIMARY KEY, verdict TEXT NOT NULL,
    created REAL NOT NULL
);
CREATE TABLE query_plans (
    rules_fingerprint TEXT NOT NULL, query_shape TEXT NOT NULL,
    plan TEXT NOT NULL, created REAL NOT NULL,
    PRIMARY KEY (rules_fingerprint, query_shape)
);
"""


#: The catalog tables of the schema-3 store (one record per snapshot,
#: verdict and query-plan rows beside the snapshots), as a store of that
#: schema created them.
SCHEMA_3_CATALOG = """
CREATE TABLE meta (k TEXT PRIMARY KEY, v INTEGER NOT NULL);
CREATE TABLE snapshots (
    key TEXT PRIMARY KEY, kb_fingerprint TEXT NOT NULL,
    rules_fingerprint TEXT NOT NULL, variant TEXT NOT NULL,
    core_every INTEGER NOT NULL, record TEXT NOT NULL,
    bytes INTEGER NOT NULL, applications INTEGER NOT NULL,
    atoms INTEGER NOT NULL, terminated INTEGER NOT NULL,
    fact_count INTEGER NOT NULL, last_access INTEGER NOT NULL
);
CREATE TABLE snapshot_facts (
    line_hash TEXT NOT NULL, key TEXT NOT NULL,
    PRIMARY KEY (line_hash, key)
) WITHOUT ROWID;
CREATE TABLE verdicts (
    rules_fingerprint TEXT PRIMARY KEY, verdict TEXT NOT NULL,
    created REAL NOT NULL
);
CREATE TABLE query_plans (
    rules_fingerprint TEXT NOT NULL, query_shape TEXT NOT NULL,
    plan TEXT NOT NULL, created REAL NOT NULL,
    PRIMARY KEY (rules_fingerprint, query_shape)
);
"""


class TestOldStores:
    """Snapshots are a cache: a store of an older schema is recreated
    empty when it opens, its requests miss once and chase cold, and
    none of its files survive."""

    @staticmethod
    def _old_store(root, kb):
        """A schema-2 store holding *kb*'s restricted snapshot as a
        base record plus a delta record, with a schema-1 file beside
        it."""
        objects = root / "objects"
        objects.mkdir(parents=True)
        (objects / ("b" * 64 + ".json")).write_text(
            json.dumps({"schema": 2, "kind": "base", "state": {}})
        )
        (objects / ("d" * 64 + ".json")).write_text(
            json.dumps({"schema": 2, "kind": "delta", "parent": "b" * 64})
        )
        (root / "legacy-entry.json").write_text(
            json.dumps(
                {"schema": 1, "kb_fingerprint": kb_fingerprint(kb), "state": {}}
            )
        )
        conn = sqlite3.connect(root / "catalog.sqlite")
        conn.executescript(SCHEMA_2_CATALOG)
        conn.execute("INSERT INTO meta VALUES ('tick', 7)")
        conn.execute(
            "INSERT INTO records VALUES (?, 'base', NULL, 10, 10), "
            "(?, 'delta', ?, 5, 10)",
            ("b" * 64, "d" * 64, "b" * 64),
        )
        conn.execute(
            "INSERT INTO snapshots VALUES (?, ?, NULL, 'restricted', 1, ?, "
            "3, 9, 0, 2, 15, 4, '[]', 7)",
            ("k" * 64, kb_fingerprint(kb), "d" * 64),
        )
        conn.commit()
        conn.close()

    def test_old_store_opens_misses_and_answers_cold(self, tmp_path):
        kb = transitive_closure_kb(4)
        self._old_store(tmp_path, kb)
        store = SnapshotStore(tmp_path)
        assert store.entry_count() == 0
        assert store.load(kb, "restricted", 1) is None
        assert list(store.objects.glob("*.json")) == []
        assert list(tmp_path.glob("*.json")) == []
        request = JobRequest(op="chase", kb_text=dump_kb(kb), max_steps=50)
        result = execute_job(request, store)
        assert result.ok and not result.warm and not result.ancestor
        cold = run_chase(kb, max_steps=50)
        assert result.applications == cold.applications
        # only the cold job's own record is left, and the catalog has it
        key = snapshot_key(kb, "restricted", 1)
        assert list(store.objects.glob("*.json")) == [store.path_for(key)]
        assert execute_job(request, store).warm

    def test_schema_3_store_is_never_read(self, tmp_path):
        """A schema-3 store opens empty and its record goes, so its
        requests chase cold.  The record is a mid-cadence core
        checkpoint with the empty ``delta_since_core`` an older build's
        naive path wrote; restored, it would seed core maintenance with
        a non-core instance."""
        kb = staircase_kb()
        engine = ChaseEngine(kb, variant="core", core_every=3)
        engine.run(4)
        state = chase_state_to_obj(engine.export_state())
        state["delta_since_core"] = []
        blob = json.dumps(
            {"schema": 3, "state": state}, sort_keys=True, separators=(",", ":")
        ).encode()
        record = hashlib.sha256(blob).hexdigest()
        (tmp_path / "objects").mkdir()
        (tmp_path / "objects" / f"{record}.json").write_bytes(blob)
        kb_fp = kb_fingerprint(kb)
        key = hashlib.sha256(f"3|core|3|{kb_fp}".encode()).hexdigest()
        rules_fp = ruleset_fingerprint(kb.rules)
        conn = sqlite3.connect(tmp_path / "catalog.sqlite")
        conn.executescript(SCHEMA_3_CATALOG)
        conn.execute("INSERT INTO meta VALUES ('schema', 3), ('tick', 1)")
        conn.execute(
            "INSERT INTO snapshots VALUES (?, ?, ?, 'core', 3, ?, ?, 4, ?, 0, ?, 1)",
            (key, kb_fp, rules_fp, record, len(blob), len(state["instance"]),
             len(kb.facts)),
        )
        conn.execute("INSERT INTO verdicts VALUES (?, '{}', 0)", (rules_fp,))
        conn.execute(
            "INSERT INTO query_plans VALUES (?, 'shape', '{}', 0)", (rules_fp,)
        )
        conn.commit()
        conn.close()

        store = SnapshotStore(tmp_path)
        with store._db() as conn:
            tables = {
                name
                for (name,) in conn.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table'"
                )
            }
        assert tables == {"meta", "snapshots", "snapshot_facts"}
        assert store.entry_count() == 0
        assert list(store.objects.glob("*.json")) == []
        request = JobRequest(
            op="chase", kb_text=dump_kb(kb), variant="core", core_every=3,
            max_steps=20,
        )
        result = execute_job(request, store)
        assert result.ok and not result.warm and not result.ancestor
        cold = run_chase(kb, variant="core", core_every=3, max_steps=20)
        assert result.applications == cold.applications
        assert result.instance == [
            str(at) for at in cold.final_instance.sorted_atoms()
        ]

    def test_two_stores_open_one_old_catalog(self, tmp_path):
        kb = transitive_closure_kb(4)
        self._old_store(tmp_path, kb)
        errors = []
        stores = []

        def open_store():
            try:
                stores.append(SnapshotStore(tmp_path))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=open_store) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == [] and len(stores) == 2
        assert all(store.entry_count() == 0 for store in stores)
        assert list(tmp_path.rglob("*.json")) == []

    def test_corrupt_v1_file_discarded_quietly(self, tmp_path):
        (tmp_path / "junk.json").write_text("{ not a snapshot")
        store = SnapshotStore(tmp_path)
        assert not (tmp_path / "junk.json").exists()
        assert store.entry_count() == 0

    def test_current_store_reopens_intact(self, tmp_path):
        kb = staircase_kb()
        store = SnapshotStore(tmp_path)
        engine = ChaseEngine(kb, variant="core")
        engine.run(4)
        store.save(kb, engine.export_state())
        reopened = SnapshotStore(tmp_path)
        assert reopened.load(kb, "core", 1) is not None


class TestRecordCorruptionChaos:
    def test_corrupt_record_falls_back_cold(self, tmp_path):
        kb = staircase_kb()
        store = SnapshotStore(tmp_path)
        engine = ChaseEngine(kb, variant="core")
        engine.run(5)
        path = store.save(kb, engine.export_state())
        path.write_text("\x00 torn record \x00")

        registry = MetricsRegistry()
        with observing(MetricsObserver(registry)):
            assert store.load(kb, "core", 1) is None  # damaged: a miss
        assert registry.counter("snapshot.corrupt").value == 1
        assert store.entry_count() == 0  # dropped transactionally
        assert not path.exists()

        # the store recovers: a cold save works and loads cleanly
        engine = ChaseEngine(kb, variant="core")
        engine.run(4)
        store.save(kb, engine.export_state())
        assert store.load(kb, "core", 1) is not None

    def test_broken_ancestor_record_skipped(self, tmp_path):
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
        assert registry.counter("snapshot.corrupt").value == 1
        assert store.entry_count() == 0


class TestDeltaSinceCoreAcrossSymbolReset:
    def test_mid_cadence_state_round_trips_after_interner_reset(
        self, tmp_path
    ):
        """A checkpoint cut mid-way through a core cadence carries a
        non-empty ``delta_since_core``; stored, re-saved after a resume
        and restored after a symbol-table reset (a fresh process), it
        must resume to the same instance as an uninterrupted run."""
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
        assert entry is not None
        store.save(kb, cut_state)

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
    def test_schema_is_four(self):
        # A catalog without verdict and query-plan tables is schema 4;
        # bumping it orphans every stored entry by key (and recreates
        # the catalog), so it must be deliberate.
        assert SNAPSHOT_SCHEMA == 4
