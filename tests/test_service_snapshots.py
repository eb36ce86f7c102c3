"""Tests for the chase-snapshot store (repro.service.snapshots).

The differential suite at the bottom is the load-bearing part: on every
KB family it proves that a chase warm-started from a snapshot produces
the same final instance as an uninterrupted cold chase — atom-for-atom
equal (fresh-null numbering resumes exactly), hence in particular
isomorphic.
"""

import json
import multiprocessing
import os
import sqlite3
import threading
import time

import pytest

from repro import elevator_kb, staircase_kb
from repro.chase.engine import ChaseEngine, ChaseVariant, run_chase
from repro.kbs.generators import random_kb
from repro.logic.isomorphism import isomorphic
from repro.logic.serialization import dump_kb, load_kb
from repro.obs.observer import Observer, observing
from repro.service.snapshots import (
    SNAPSHOT_SCHEMA,
    SnapshotStore,
    chase_state_from_obj,
    chase_state_to_obj,
    kb_fingerprint,
    snapshot_key,
)


class TestKbFingerprint:
    def test_reparse_invariant(self):
        kb = staircase_kb()
        reparsed = load_kb(dump_kb(kb))
        assert kb_fingerprint(kb) == kb_fingerprint(reparsed)

    def test_name_does_not_participate(self):
        from repro.logic.kb import KnowledgeBase

        kb = staircase_kb()
        renamed = KnowledgeBase(kb.facts, kb.rules, name="other")
        assert kb_fingerprint(kb) == kb_fingerprint(renamed)

    def test_distinct_kbs_distinct_fingerprints(self):
        assert kb_fingerprint(staircase_kb()) != kb_fingerprint(elevator_kb())

    def test_key_depends_on_configuration(self):
        kb = staircase_kb()
        assert snapshot_key(kb, "core", 1) != snapshot_key(kb, "restricted", 1)
        assert snapshot_key(kb, "core", 1) != snapshot_key(kb, "core", 2)


class TestChaseStateJson:
    @pytest.mark.parametrize("variant", ["restricted", "core", "oblivious"])
    def test_round_trip_preserves_everything(self, variant):
        engine = ChaseEngine(staircase_kb(), variant=variant)
        engine.run(8)
        state = engine.export_state()
        obj = json.loads(json.dumps(chase_state_to_obj(state)))
        back = chase_state_from_obj(obj)
        assert back.variant == state.variant
        assert back.core_every == state.core_every
        assert back.fresh_prefix == state.fresh_prefix
        assert back.fresh_count == state.fresh_count
        assert back.instance == state.instance
        assert back.applied_keys == state.applied_keys
        assert back.ages == state.ages
        assert back.terminated == state.terminated
        assert back.applications == state.applications
        assert back.applications_since_core == state.applications_since_core
        assert back.delta_since_core == state.delta_since_core

    def test_round_trip_is_deterministic(self):
        engine = ChaseEngine(staircase_kb(), variant="core")
        engine.run(6)
        state = engine.export_state()
        assert json.dumps(chase_state_to_obj(state)) == json.dumps(
            chase_state_to_obj(state)
        )


class TestSnapshotStore:
    def test_save_then_load(self, tmp_path):
        kb = staircase_kb()
        engine = ChaseEngine(kb, variant="restricted")
        engine.run(5)
        store = SnapshotStore(tmp_path)
        store.save(kb, engine.export_state())
        loaded = store.load(kb, "restricted", 1)
        assert loaded is not None
        assert loaded.instance == engine.current_instance
        assert loaded.applications == 5

    def test_miss_returns_none(self, tmp_path):
        store = SnapshotStore(tmp_path)
        assert store.load(staircase_kb(), "restricted", 1) is None

    def test_wrong_config_misses(self, tmp_path):
        kb = staircase_kb()
        engine = ChaseEngine(kb, variant="restricted")
        engine.run(5)
        store = SnapshotStore(tmp_path)
        store.save(kb, engine.export_state())
        assert store.load(kb, "core", 1) is None
        assert store.load(elevator_kb(), "restricted", 1) is None

    def test_corrupt_record_discarded(self, tmp_path):
        kb = staircase_kb()
        engine = ChaseEngine(kb, variant="restricted")
        engine.run(3)
        store = SnapshotStore(tmp_path)
        path = store.save(kb, engine.export_state())
        path.write_text("{ torn mid-wri")
        assert store.load(kb, "restricted", 1) is None
        assert store.entry_count() == 0  # paid for only once
        assert not path.exists()

    def test_tampered_record_discarded(self, tmp_path):
        # Records are content-addressed: any byte that changes no
        # longer hashes to the file's name, so tampering is detected
        # even when the result is perfectly well-formed JSON.
        kb = staircase_kb()
        engine = ChaseEngine(kb, variant="restricted")
        engine.run(3)
        store = SnapshotStore(tmp_path)
        path = store.save(kb, engine.export_state())
        payload = json.loads(path.read_text())
        payload["state"]["fresh_count"] = 999
        path.write_text(json.dumps(payload))
        assert store.load(kb, "restricted", 1) is None
        assert not path.exists()

    def test_schema_mismatch_discarded(self, tmp_path):
        # A record written by a *future* store hashes correctly but
        # carries an unknown schema number; reading it must classify
        # it as broken, not crash or mis-decode.
        import hashlib

        from repro.service.snapshots import _ChainBroken, _dump_record

        store = SnapshotStore(tmp_path)
        blob = _dump_record(
            {"schema": SNAPSHOT_SCHEMA + 1, "kind": "base", "state": {}}
        )
        record_hash = hashlib.sha256(blob).hexdigest()
        store._write_blob(record_hash, blob)
        with pytest.raises(_ChainBroken):
            store._read_record(record_hash)


def _saved(store, make_kb, steps=4, variant="restricted"):
    kb = make_kb()
    engine = ChaseEngine(kb, variant=variant)
    engine.run(steps)
    return kb, store.save(kb, engine.export_state())


def _backdate(path, seconds_ago):
    stamp = time.time() - seconds_ago
    os.utime(path, (stamp, stamp))


class TestAdversarialCorruption:
    def test_out_of_family_decoder_exception_is_a_miss(
        self, tmp_path, monkeypatch
    ):
        # Regression: the load path used to catch only (ValueError,
        # KeyError, TypeError, IndexError); an adversarially-shaped
        # state can raise essentially anything out of the decoder, and
        # that exception crashed the worker instead of missing.
        kb = staircase_kb()
        engine = ChaseEngine(kb, variant="restricted")
        engine.run(3)
        store = SnapshotStore(tmp_path)
        path = store.save(kb, engine.export_state())

        def hostile(obj):
            raise AttributeError("mistyped node")

        monkeypatch.setattr(
            "repro.service.snapshots.instance_from_obj", hostile
        )
        assert store.load(kb, "restricted", 1) is None
        assert not path.exists()  # paid for only once

    def test_corrupt_load_reported_to_observer(self, tmp_path):
        events = []

        class Spy(Observer):
            def snapshot_access(self, **kw):
                events.append(kw)

        kb = staircase_kb()
        engine = ChaseEngine(kb, variant="restricted")
        engine.run(3)
        store = SnapshotStore(tmp_path)
        path = store.save(kb, engine.export_state())
        path.write_text("{}")
        with observing(Spy()):
            assert store.load(kb, "restricted", 1) is None
        assert events[-1]["op"] == "load"
        assert events[-1]["corrupt"] and not events[-1]["hit"]
        assert events[-1]["chain_broken"]


class TestStoreHygiene:
    def test_orphan_tmp_files_collected_on_startup(self, tmp_path):
        old = tmp_path / ".dead-writer.tmp"
        old.write_text("half a snapshot")
        _backdate(old, seconds_ago=3600)
        young = tmp_path / ".live-writer.tmp"
        young.write_text("a save in progress")
        SnapshotStore(tmp_path)
        assert not old.exists()  # crashed writer's droppings collected
        assert young.exists()  # a sibling mid-save is left alone

    def test_entry_bound_evicts_least_recently_used(self, tmp_path):
        # Recency is the catalog's monotonic access counter — save
        # order alone determines the victim, no clock involved.
        store = SnapshotStore(tmp_path, max_entries=2)
        kb1, _ = _saved(store, staircase_kb)
        kb2, _ = _saved(store, elevator_kb)
        kb3, _ = _saved(store, lambda: random_kb(seed=0))
        assert store.load(kb1, "restricted", 1) is None  # LRU, evicted
        assert store.load(kb2, "restricted", 1) is not None
        assert store.load(kb3, "restricted", 1) is not None

    def test_byte_bound_evicts_down_to_size(self, tmp_path):
        probe = SnapshotStore(tmp_path / "probe")
        _, probe_path = _saved(probe, staircase_kb)
        size = probe_path.stat().st_size

        store = SnapshotStore(tmp_path / "real", max_bytes=int(size * 1.5))
        kb1, _ = _saved(store, staircase_kb)
        kb2, _ = _saved(store, elevator_kb)
        assert store.load(kb1, "restricted", 1) is None
        assert store.load(kb2, "restricted", 1) is not None

    def test_load_refreshes_recency(self, tmp_path):
        store = SnapshotStore(tmp_path, max_entries=2)
        kb1, _ = _saved(store, staircase_kb)
        kb2, _ = _saved(store, elevator_kb)
        # kb1 was saved first, but a load bumps its access counter …
        assert store.load(kb1, "restricted", 1) is not None
        kb3, _ = _saved(store, lambda: random_kb(seed=0))
        # … so the eviction falls on kb2 instead.
        assert store.load(kb1, "restricted", 1) is not None
        assert store.load(kb2, "restricted", 1) is None
        assert store.load(kb3, "restricted", 1) is not None

    def test_evictions_reported_to_observer(self, tmp_path):
        events = []

        class Spy(Observer):
            def snapshot_access(self, **kw):
                events.append(kw)

        store = SnapshotStore(tmp_path, max_entries=1)
        with observing(Spy()):
            _saved(store, staircase_kb)
            _saved(store, elevator_kb)
        assert sum(1 for e in events if e["op"] == "evict") == 1

    def test_oversized_snapshot_is_not_self_evicted(self, tmp_path):
        # Regression: a single snapshot larger than max_bytes used to be
        # evicted immediately after every save (it is the newest file
        # and the store is still over the bound), silently disabling
        # warm starts for that store.  The just-written entry is now
        # protected; the unmeetable bound is counted instead.
        store = SnapshotStore(tmp_path, max_bytes=1)
        kb, path = _saved(store, staircase_kb)
        assert path.exists()
        assert store.load(kb, "restricted", 1) is not None
        assert store.eviction_shortfalls == 1

    def test_oversized_newest_still_evicts_older_entries(self, tmp_path):
        # The protection covers only the newest file — older snapshots
        # still drain out so the store gets as close to the bound as it
        # can.
        store = SnapshotStore(tmp_path, max_bytes=1)
        kb1, _ = _saved(store, staircase_kb)
        kb2, _ = _saved(store, elevator_kb)
        assert store.load(kb1, "restricted", 1) is None  # older: evicted
        assert store.load(kb2, "restricted", 1) is not None  # newest: kept

    def test_unbounded_store_never_evicts(self, tmp_path):
        store = SnapshotStore(tmp_path)
        kbs = [
            _saved(store, make)[0]
            for make in (staircase_kb, elevator_kb, lambda: random_kb(seed=0))
        ]
        for kb in kbs:
            assert store.load(kb, "restricted", 1) is not None


def _save_in_child(root):
    """Spawned-process body: save the ``_saved(staircase_kb)`` state."""
    _saved(SnapshotStore(root), staircase_kb)


class TestLongLivedStore:
    """A store lives as long as its worker: one reused WAL connection
    per thread, hygiene on the save path, cross-process visibility."""

    def test_catalog_runs_in_wal_mode(self, tmp_path):
        SnapshotStore(tmp_path)
        conn = sqlite3.connect(tmp_path / "catalog.sqlite")
        try:
            mode = conn.execute("PRAGMA journal_mode").fetchone()[0]
        finally:
            conn.close()
        assert mode == "wal"

    def test_operations_reuse_one_connection_per_thread(self, tmp_path):
        store = SnapshotStore(tmp_path)
        with store._db() as first:
            pass
        kb, _ = _saved(store, staircase_kb)
        assert store.load(kb, "restricted", 1) is not None
        with store._db() as again:
            assert again is first
            assert again.execute("PRAGMA synchronous").fetchone()[0] == 1

    def test_orphan_tmp_collected_by_a_later_save(self, tmp_path):
        store = SnapshotStore(tmp_path, tmp_grace_seconds=0)
        orphan = store.objects / ".dead-writer.tmp"
        orphan.write_text("half a record")
        _saved(store, staircase_kb)
        assert not orphan.exists()

    def test_save_sweeps_tmp_at_most_once_per_grace_period(self, tmp_path):
        store = SnapshotStore(tmp_path)  # construction just swept
        orphan = store.objects / ".dead-writer.tmp"
        orphan.write_text("half a record")
        _backdate(orphan, seconds_ago=3600)
        _saved(store, staircase_kb)
        assert orphan.exists()  # next sweep is due a grace period later

    def test_exception_inside_transaction_leaves_connection_usable(
        self, tmp_path, monkeypatch
    ):
        store = SnapshotStore(tmp_path)
        with store._db() as conn:
            pass

        def failing_tick(conn):
            conn.execute("UPDATE meta SET v = v + 100 WHERE k = 'tick'")
            raise sqlite3.OperationalError("injected mid-transaction")

        with monkeypatch.context() as patch:
            patch.setattr(SnapshotStore, "_tick", staticmethod(failing_tick))
            with pytest.raises(sqlite3.OperationalError):
                _saved(store, staircase_kb)
        with store._db() as again:
            assert again is conn and not again.in_transaction
            tick = again.execute(
                "SELECT v FROM meta WHERE k = 'tick'"
            ).fetchone()[0]
        assert tick < 100  # the partial transaction was rolled back
        assert store.entry_count() == 0
        # No write lock leaked: this store and a sibling both commit.
        kb, _ = _saved(store, staircase_kb)
        other, _ = _saved(SnapshotStore(tmp_path), elevator_kb)
        assert store.load(kb, "restricted", 1) is not None
        assert store.load(other, "restricted", 1) is not None

    def test_one_store_used_from_two_threads(self, tmp_path):
        store = SnapshotStore(tmp_path)
        states = {}
        for make in (staircase_kb, elevator_kb):
            kb = make()
            engine = ChaseEngine(kb, variant="restricted")
            engine.run(4)
            states[make.__name__] = (kb, engine.export_state())
        connections, errors = [], []
        barrier = threading.Barrier(2)

        def work(kb, state):
            try:
                barrier.wait(timeout=30)
                for _ in range(5):
                    store.save(kb, state)
                    assert store.load(kb, "restricted", 1) is not None
                with store._db() as conn:
                    connections.append(conn)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=pair) for pair in states.values()
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert len(connections) == 2
        assert connections[0] is not connections[1]
        assert store.entry_count() == 2

    def test_save_in_spawned_process_visible_to_parent(self, tmp_path):
        store = SnapshotStore(tmp_path)
        kb = staircase_kb()
        assert store.load(kb, "restricted", 1) is None  # connection open
        child = multiprocessing.get_context("spawn").Process(
            target=_save_in_child, args=(str(tmp_path),)
        )
        child.start()
        child.join(timeout=120)
        assert child.exitcode == 0
        loaded = store.load(kb, "restricted", 1)
        assert loaded is not None and loaded.applications == 4

    def test_kb_fingerprinted_once_per_load_and_save(
        self, tmp_path, monkeypatch
    ):
        import repro.service.snapshots as snapshots

        calls = []
        real = snapshots.kb_fingerprint

        def counting(kb):
            calls.append(kb)
            return real(kb)

        monkeypatch.setattr(snapshots, "kb_fingerprint", counting)
        store = SnapshotStore(tmp_path)
        kb = staircase_kb()
        engine = ChaseEngine(kb, variant="restricted")
        engine.run(4)
        store.save(kb, engine.export_state())
        assert len(calls) == 1
        calls.clear()
        assert store.load_entry(kb, "restricted", 1) is not None
        assert len(calls) == 1


FAMILIES = [
    ("staircase", staircase_kb, "core", 6, 14),
    ("staircase", staircase_kb, "restricted", 6, 14),
    ("elevator", elevator_kb, "core", 5, 12),
    ("random-0", lambda: random_kb(seed=0), "restricted", 3, 10),
    ("random-7", lambda: random_kb(seed=7), "core", 3, 10),
    ("random-13", lambda: random_kb(seed=13), "restricted", 4, 12),
]


class TestWarmColdDifferential:
    """Snapshot-resumed chases match uninterrupted cold ones exactly."""

    @pytest.mark.parametrize(
        "label, make_kb, variant, cut, total",
        FAMILIES,
        ids=[f"{f[0]}-{f[2]}-{f[3]}+{f[4]}" for f in FAMILIES],
    )
    def test_resume_equals_cold(self, tmp_path, label, make_kb, variant, cut, total):
        kb = make_kb()
        cold = run_chase(kb, variant=variant, max_steps=total)

        store = SnapshotStore(tmp_path)
        first = ChaseEngine(kb, variant=variant)
        first.run(cut)
        store.save(kb, first.export_state())

        warm = ChaseEngine(kb, variant=variant)
        state = store.load(kb, variant, 1)
        assert state is not None
        warm.restore_state(state)
        result = warm.resume(total - cut)

        assert warm.current_instance == cold.final_instance
        assert isomorphic(warm.current_instance, cold.final_instance)
        assert state.applications + result.applications == cold.applications
        assert result.terminated == cold.terminated

    @pytest.mark.parametrize("variant", ["restricted", "core"])
    def test_terminated_snapshot_resumes_to_zero_work(self, tmp_path, variant):
        kb = random_kb(seed=3)
        cold = run_chase(kb, variant=variant, max_steps=400)
        assert cold.terminated

        store = SnapshotStore(tmp_path)
        engine = ChaseEngine(kb, variant=variant)
        engine.run(400)
        store.save(kb, engine.export_state())

        warm = ChaseEngine(kb, variant=variant)
        warm.restore_state(store.load(kb, variant, 1))
        result = warm.resume(100)
        assert result.applications == 0
        assert result.terminated
        assert warm.current_instance == cold.final_instance
