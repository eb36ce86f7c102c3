"""A content-addressed delta store of resumable chase checkpoints.

The serving system's warm-start path: after answering a job the worker
exports the engine's :class:`~repro.chase.engine.ChaseState` and files
it here; the next job over the same KB (and chase configuration)
restores it and resumes instead of re-chasing from the facts.  Because
:meth:`~repro.chase.engine.ChaseEngine.restore_state` continues the
derivation *exactly*, answers computed from a snapshot are
indistinguishable from cold ones (the differential suites in
``tests/test_service_snapshots.py`` and ``tests/test_snapshot_delta.py``
check this on every KB family).

Keys and invalidation
---------------------
A snapshot is valid only for the precise KB it was exported under, so
the key bakes in everything that shapes the derivation:

``key = sha256(schema | variant | core_every | kb_fingerprint)``

where :func:`kb_fingerprint` hashes the canonical text of the facts
(sorted atoms) and rules.  Editing a fact or a rule changes the
fingerprint, which changes the key — stale snapshots are never *read*.
A schema-version bump orphans older snapshots the same way (schema-1
full-blob files are additionally *migrated* in place, see below).

Storage format (schema 2)
-------------------------
Two pieces under the store root:

``catalog.sqlite``
    The index: one ``snapshots`` row per key (fingerprints, chain head,
    sizes, a **monotonic access counter** for LRU) and one ``records``
    row per stored object.  Startup no longer stats the directory — the
    catalog is the directory — and eviction is a transaction, so a
    crash can orphan at most blob *files* (cleaned opportunistically),
    never catalog state.  The catalog runs in WAL mode with
    ``synchronous=NORMAL`` (sidecar files ``catalog.sqlite-wal`` and
    ``-shm``): a commit is durable once the process that made it dies,
    and an OS crash or power loss can drop only the last commits — a
    lost row is a snapshot miss, paid for with a cold chase, never a
    wrong answer.  WAL needs a local filesystem.

``objects/<sha256>.json``
    Content-addressed records.  A ``base`` record carries a full
    serialized state; a ``delta`` record carries a
    :class:`~repro.chase.engine.ChaseStateDelta` against its ``parent``
    record.  A snapshot is the chain ``head → … → base`` replayed
    oldest-first.  Saves that resume a loaded snapshot append a delta
    (tiny: the atoms and bookkeeping that changed); chains re-checkpoint
    to a fresh base when they exceed :attr:`SnapshotStore.max_chain_depth`
    records or :data:`CHAIN_BYTES_FACTOR` times the full-state size.
    Records are verified against their name's hash on read; any broken
    link discards the whole entry (counted as ``snapshot.chain_broken``)
    and the job falls back to a cold chase.

Ancestor resolution
-------------------
Every schema-2 entry stores a *facts manifest*: the per-fact hashes of
the KB's sorted fact lines.  On an exact-key miss,
:meth:`SnapshotStore.resolve_ancestor` scans same-rules/same-config
entries whose manifest is a proper subset of the incoming KB's facts,
loads the nearest one (most shared facts, then deepest prefix), and
hands back the state plus the missing facts;
:func:`~repro.chase.engine.merge_facts_into_state` grafts them on and
the engine resumes incrementally.  Soundness gates (refusing shared or
colliding nulls) are documented on :meth:`~SnapshotStore.resolve_ancestor`.

Migration from schema 1
-----------------------
Schema-1 stores kept one full-blob JSON file per key at the store root.
Construction imports each such file as a ``base`` record under its
schema-2 key (the v1 payload carries the KB fingerprint and config) and
unlinks the file; corrupt v1 files are discarded.  Migrated entries
have no facts manifest, so they serve exact hits but are not ancestor
candidates until their next save refreshes them.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pathlib
import sqlite3
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from ..chase.engine import (
    ChaseState,
    ChaseStateDelta,
    apply_chase_state_delta,
    diff_chase_states,
)
from ..logic.atomset import AtomSet
from ..logic.kb import KnowledgeBase
from ..logic.serialization import (
    atom_from_obj,
    atom_to_obj,
    dump_instance,
    dump_ruleset,
    instance_from_obj,
    instance_to_obj,
    term_from_obj,
    term_to_obj,
)
from ..obs import observer as _observer_state

__all__ = [
    "SNAPSHOT_SCHEMA",
    "TMP_ORPHAN_GRACE",
    "DEFAULT_MAX_CHAIN_DEPTH",
    "CHAIN_BYTES_FACTOR",
    "kb_fingerprint",
    "rules_fingerprint",
    "facts_manifest",
    "snapshot_key",
    "chase_state_to_obj",
    "chase_state_from_obj",
    "state_delta_to_obj",
    "state_delta_from_obj",
    "SnapshotEntry",
    "SnapshotStore",
]

#: Bump when the on-disk layout changes; old snapshots are then orphaned
#: (never mis-read) because the schema participates in the key.
#: Schema 1 (full-blob files) is special-cased: migrated, not orphaned.
SNAPSHOT_SCHEMA = 2

#: Chains longer than this re-checkpoint to a fresh base record on the
#: next save (overridable per store).  Bounds both load-time replay work
#: and the blast radius of a corrupt mid-chain record.
DEFAULT_MAX_CHAIN_DEPTH = 8

#: A chain also re-checkpoints when its accumulated record bytes would
#: exceed this multiple of the full-state size — past that, replaying
#: deltas stops being cheaper than reading a fresh base.
CHAIN_BYTES_FACTOR = 2.0

PathLike = Union[str, pathlib.Path]


def kb_fingerprint(kb: KnowledgeBase) -> str:
    """A canonical content hash of *kb* (facts + rules, order-free).

    The fingerprint is over the deterministic text serialization —
    sorted atoms, rules in declaration order — so two KBs with the same
    facts and rules hash identically however they were constructed.
    The KB's display ``name`` deliberately does not participate.
    """
    text = dump_instance(kb.facts) + "\n" + dump_ruleset(kb.rules)
    return hashlib.sha256(text.encode()).hexdigest()


def rules_fingerprint(kb: KnowledgeBase) -> str:
    """Hash of the rules alone — the part ancestor candidates must share
    exactly (a fact delta can be injected, a rule delta cannot)."""
    return hashlib.sha256(dump_ruleset(kb.rules).encode()).hexdigest()


def facts_manifest(kb: KnowledgeBase) -> list:
    """Per-fact content hashes of *kb*'s sorted fact lines.

    The manifest makes subset probing cheap: KB A's facts are a subset
    of KB B's iff A's manifest is a subset of B's (the line is the
    canonical atom text, so equal lines are equal atoms).  16 hex chars
    (64 bits) per fact keeps manifests compact in the catalog.
    """
    return [
        hashlib.sha256(str(atom).encode()).hexdigest()[:16]
        for atom in kb.facts.sorted_atoms()
    ]


def snapshot_key(kb: KnowledgeBase, variant: str, core_every: int = 1) -> str:
    """The store key for chasing *kb* with *variant* / *core_every*."""
    return _v2_key(variant, core_every, kb_fingerprint(kb))


def _v2_key(variant, core_every, kb_fp: str) -> str:
    tag = f"{SNAPSHOT_SCHEMA}|{variant}|{core_every}|{kb_fp}"
    return hashlib.sha256(tag.encode()).hexdigest()


# ---------------------------------------------------------------------------
# ChaseState / ChaseStateDelta <-> JSON objects
# ---------------------------------------------------------------------------


def _trigger_key_to_obj(key) -> list:
    rule_name, image = key
    return [rule_name, [[var.name, term_to_obj(term)] for var, term in image]]


def _trigger_key_from_obj(obj):
    from ..logic.terms import Variable

    rule_name, image = obj
    return (
        rule_name,
        tuple((Variable(name), term_from_obj(term)) for name, term in image),
    )


def chase_state_to_obj(state: ChaseState) -> dict:
    """Serialize a :class:`ChaseState` as a JSON-ready dict.

    Trigger keys (``applied_keys`` entries and ``ages`` keys) are
    ``(rule_name, ((Variable, Term), ...))`` tuples; they serialize
    through the tagged term objects and are emitted in sorted order so
    the output is deterministic."""
    applied = sorted(map(_trigger_key_to_obj, state.applied_keys))
    ages = sorted(
        [_trigger_key_to_obj(key), age] for key, age in state.ages.items()
    )
    return {
        "variant": state.variant,
        "core_every": state.core_every,
        "fresh_prefix": state.fresh_prefix,
        "fresh_count": state.fresh_count,
        "instance": instance_to_obj(state.instance),
        "applied_keys": applied,
        "ages": ages,
        "terminated": state.terminated,
        "applications": state.applications,
        "applications_since_core": state.applications_since_core,
        "delta_since_core": [atom_to_obj(at) for at in state.delta_since_core],
    }


def chase_state_from_obj(obj: dict) -> ChaseState:
    """Parse a state serialized by :func:`chase_state_to_obj`."""
    return ChaseState(
        variant=obj["variant"],
        core_every=obj["core_every"],
        fresh_prefix=obj["fresh_prefix"],
        fresh_count=obj["fresh_count"],
        instance=instance_from_obj(obj["instance"]),
        applied_keys={
            _trigger_key_from_obj(item) for item in obj["applied_keys"]
        },
        ages={
            _trigger_key_from_obj(key): age for key, age in obj["ages"]
        },
        terminated=obj["terminated"],
        applications=obj["applications"],
        applications_since_core=obj["applications_since_core"],
        delta_since_core=[
            atom_from_obj(item) for item in obj["delta_since_core"]
        ],
    )


def state_delta_to_obj(delta: ChaseStateDelta) -> dict:
    """Serialize a :class:`ChaseStateDelta`; collections are emitted in
    sorted order so equal deltas produce byte-equal (hence
    content-address-equal) records."""
    return {
        "fresh_count": delta.fresh_count,
        "terminated": delta.terminated,
        "applications": delta.applications,
        "applications_since_core": delta.applications_since_core,
        "added_atoms": [atom_to_obj(at) for at in delta.added_atoms],
        "removed_atoms": [atom_to_obj(at) for at in delta.removed_atoms],
        "added_applied_keys": sorted(
            map(_trigger_key_to_obj, delta.added_applied_keys)
        ),
        "removed_applied_keys": sorted(
            map(_trigger_key_to_obj, delta.removed_applied_keys)
        ),
        "ages_set": sorted(
            [_trigger_key_to_obj(key), age] for key, age in delta.ages_set
        ),
        "ages_removed": sorted(
            map(_trigger_key_to_obj, delta.ages_removed)
        ),
        "delta_since_core": [
            atom_to_obj(at) for at in delta.delta_since_core
        ],
    }


def state_delta_from_obj(obj: dict) -> ChaseStateDelta:
    """Parse a delta serialized by :func:`state_delta_to_obj`."""
    return ChaseStateDelta(
        fresh_count=obj["fresh_count"],
        terminated=obj["terminated"],
        applications=obj["applications"],
        applications_since_core=obj["applications_since_core"],
        added_atoms=[atom_from_obj(item) for item in obj["added_atoms"]],
        removed_atoms=[atom_from_obj(item) for item in obj["removed_atoms"]],
        added_applied_keys=[
            _trigger_key_from_obj(item) for item in obj["added_applied_keys"]
        ],
        removed_applied_keys=[
            _trigger_key_from_obj(item)
            for item in obj["removed_applied_keys"]
        ],
        ages_set=[
            (_trigger_key_from_obj(key), age) for key, age in obj["ages_set"]
        ],
        ages_removed=[
            _trigger_key_from_obj(item) for item in obj["ages_removed"]
        ],
        delta_since_core=[
            atom_from_obj(item) for item in obj["delta_since_core"]
        ],
    )


# ---------------------------------------------------------------------------
# the store
# ---------------------------------------------------------------------------


#: A ``.tmp`` file older than this (seconds) is an orphan from a crashed
#: writer, never a live write in progress, and is garbage-collected (at
#: store construction, then from ``save`` at most once per period).
#: Young ``.tmp`` files are left alone — a sibling worker may be
#: mid-save.
TMP_ORPHAN_GRACE = 300.0

_CATALOG_NAME = "catalog.sqlite"
_OBJECTS_DIR = "objects"

_SCHEMA_SQL = """
CREATE TABLE IF NOT EXISTS meta (
    k TEXT PRIMARY KEY,
    v INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS records (
    hash TEXT PRIMARY KEY,
    kind TEXT NOT NULL,
    parent TEXT,
    bytes INTEGER NOT NULL,
    full_bytes INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS snapshots (
    key TEXT PRIMARY KEY,
    kb_fingerprint TEXT NOT NULL,
    rules_fingerprint TEXT,
    variant TEXT NOT NULL,
    core_every INTEGER NOT NULL,
    head TEXT NOT NULL,
    applications INTEGER NOT NULL,
    atoms INTEGER NOT NULL,
    terminated INTEGER NOT NULL,
    chain_depth INTEGER NOT NULL,
    chain_bytes INTEGER NOT NULL,
    fact_count INTEGER,
    facts_manifest TEXT,
    last_access INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS snapshots_ancestry
    ON snapshots (rules_fingerprint, variant, core_every, fact_count);
CREATE TABLE IF NOT EXISTS verdicts (
    rules_fingerprint TEXT PRIMARY KEY,
    verdict TEXT NOT NULL,
    created REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS query_plans (
    rules_fingerprint TEXT NOT NULL,
    query_shape TEXT NOT NULL,
    plan TEXT NOT NULL,
    created REAL NOT NULL,
    PRIMARY KEY (rules_fingerprint, query_shape)
);
"""


@dataclass
class SnapshotEntry:
    """A loaded snapshot plus the catalog context a resumed save needs.

    ``state`` is the pristine checkpoint as stored (callers must not
    mutate it — :meth:`~repro.chase.engine.ChaseEngine.restore_state`
    copies, and :func:`~repro.chase.engine.merge_facts_into_state`
    returns a new state).  Passing the entry back to
    :meth:`SnapshotStore.save` as ``parent`` lets the store append a
    delta record to this entry's chain instead of writing a full base.

    For ancestor hits (:meth:`SnapshotStore.resolve_ancestor`),
    ``ancestor`` is True and ``missing_atoms`` holds the incoming KB's
    facts absent from the ancestor — the delta to inject before
    resuming.
    """

    state: ChaseState
    key: str
    head: str
    chain_depth: int
    chain_bytes: int
    missing_atoms: list = field(default_factory=list)
    ancestor: bool = False


class _ChainBroken(Exception):
    """A chain record is missing, corrupt, or hash-mismatched."""


class SnapshotStore:
    """Content-addressed snapshot store: sqlite catalog + record blobs.

    Safe for concurrent use by multiple worker processes and threads:
    the catalog serializes index updates (each operation is one
    transaction with a generous busy timeout), record blobs are
    immutable once written (temp file + :func:`os.replace`), and loads
    treat anything unreadable as a miss — a broken chain is dropped
    transactionally and the caller falls back to a cold chase.  A store
    is meant to live as long as its process: each thread opens one
    catalog connection on first use and reuses it.

    Hygiene (the store must survive crashing writers and run forever):

    * orphaned ``.tmp`` files — the droppings of workers killed
      mid-save — are garbage-collected once they are older than
      *tmp_grace_seconds*: at construction, and from :meth:`save` at
      most once per *tmp_grace_seconds*;
    * construction migrates any schema-1 full-blob snapshots into the
      catalog;
    * *max_entries* / *max_bytes* bound the store; past either bound,
      saves evict the least-recently-used snapshot — recency is the
      catalog's **monotonic access counter**, bumped inside the same
      transaction as the load or save it records, so eviction order is
      exact even on filesystems with coarse mtimes.  Each eviction
      deletes the catalog row and then any chain records no surviving
      entry reaches (chains may share suffixes, so eviction works at
      record granularity without orphaning members); it is reported via
      the ``snapshot_access`` telemetry event (``op="evict"``, the
      ``snapshot.evicted`` metric).  The just-written snapshot is never
      evicted, even when it alone exceeds *max_bytes* — such saves are
      counted in :attr:`eviction_shortfalls` instead.
    """

    def __init__(
        self,
        root: PathLike,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
        tmp_grace_seconds: float = TMP_ORPHAN_GRACE,
        max_chain_depth: int = DEFAULT_MAX_CHAIN_DEPTH,
        ancestor_resume: bool = True,
    ):
        self.root = pathlib.Path(root)
        self.objects = self.root / _OBJECTS_DIR
        self.objects.mkdir(parents=True, exist_ok=True)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.max_chain_depth = max(1, int(max_chain_depth))
        self.ancestor_resume = ancestor_resume
        self.tmp_grace_seconds = tmp_grace_seconds
        #: saves after which a bound could not be met because eviction
        #: never removes the most-recently-written snapshot
        self.eviction_shortfalls = 0
        #: schema-1 files imported (or discarded as corrupt) at startup
        self.migrated = 0
        self._catalog = self.root / _CATALOG_NAME
        #: each thread's catalog connection; see _connection
        self._local = threading.local()
        with self._db() as conn:
            conn.execute("PRAGMA journal_mode = WAL")
            conn.executescript(_SCHEMA_SQL)
            conn.execute(
                "INSERT OR IGNORE INTO meta (k, v) VALUES ('tick', 0)"
            )
        self._gc_orphan_tmp_files(tmp_grace_seconds)
        self._last_tmp_gc = time.monotonic()
        self._migrate_v1()

    # -- catalog plumbing ---------------------------------------------

    def _connection(self) -> sqlite3.Connection:
        """This thread's catalog connection, opened on first use (it
        lives in a thread-local slot, so it closes when its thread
        ends)."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = sqlite3.connect(self._catalog, timeout=30.0)
            conn.isolation_level = None  # explicit BEGIN/COMMIT in callers
            conn.execute("PRAGMA busy_timeout = 30000")
            conn.execute("PRAGMA synchronous = NORMAL")
            self._local.conn = conn
        return conn

    @contextlib.contextmanager
    def _db(self) -> Iterator[sqlite3.Connection]:
        """This thread's reused autocommit connection, for one
        operation.  An exception rolls back any transaction it left
        open, so the connection stays usable; one that cannot even roll
        back is dropped and the next operation reconnects."""
        conn = self._connection()
        try:
            yield conn
            conn.commit()
        except BaseException:
            try:
                if conn.in_transaction:
                    conn.rollback()
            except sqlite3.Error:
                self._local.conn = None
                with contextlib.suppress(sqlite3.Error):
                    conn.close()
            raise

    @staticmethod
    def _tick(conn: sqlite3.Connection) -> int:
        """Advance and return the monotonic access counter; must be
        called inside an open transaction."""
        conn.execute("UPDATE meta SET v = v + 1 WHERE k = 'tick'")
        return conn.execute(
            "SELECT v FROM meta WHERE k = 'tick'"
        ).fetchone()[0]

    def _object_path(self, record_hash: str) -> pathlib.Path:
        return self.objects / f"{record_hash}.json"

    def path_for(self, key: str) -> pathlib.Path:
        """The blob holding *key*'s chain head (for cataloged keys), or
        the legacy schema-1 location otherwise."""
        with self._db() as conn:
            row = conn.execute(
                "SELECT head FROM snapshots WHERE key = ?", (key,)
            ).fetchone()
        if row is not None:
            return self._object_path(row[0])
        return self.root / f"{key}.json"

    def entry_count(self) -> int:
        with self._db() as conn:
            return conn.execute(
                "SELECT COUNT(*) FROM snapshots"
            ).fetchone()[0]

    def total_bytes(self) -> int:
        """Bytes held in record blobs (the catalog file is overhead,
        not content, and does not count against *max_bytes*)."""
        with self._db() as conn:
            return conn.execute(
                "SELECT COALESCE(SUM(bytes), 0) FROM records"
            ).fetchone()[0]

    # -- hygiene -------------------------------------------------------

    def _gc_orphan_tmp_files(self, grace_seconds: float) -> int:
        """Unlink crashed writers' temp files older than the grace
        period; returns how many were collected."""
        cutoff = time.time() - grace_seconds
        collected = 0
        for directory in (self.root, self.objects):
            for path in directory.glob("*.tmp"):
                try:
                    if path.stat().st_mtime <= cutoff:
                        path.unlink()
                        collected += 1
                except OSError:
                    continue  # a racing GC or the writer finishing; fine
        return collected

    def _migrate_v1(self) -> int:
        """Import schema-1 full-blob files into the catalog.

        Each becomes a ``base`` record under its schema-2 key (the v1
        payload carries the fingerprint and config).  The original KB
        text is not recoverable from a v1 payload, so migrated entries
        get no facts manifest — exact hits work immediately, ancestor
        candidacy returns with the entry's next save.  Unparseable v1
        files are discarded.  Returns how many files were consumed.
        """
        consumed = 0
        for path in self.root.glob("*.json"):
            try:
                payload = json.loads(path.read_text())
                if (
                    not isinstance(payload, dict)
                    or payload.get("schema") != 1
                ):
                    raise ValueError("not a schema-1 snapshot")
                state_obj = payload["state"]
                kb_fp = payload["kb_fingerprint"]
                key = _v2_key(
                    state_obj["variant"], state_obj["core_every"], kb_fp
                )
                blob = _dump_record(
                    {"schema": SNAPSHOT_SCHEMA, "kind": "base",
                     "state": state_obj}
                )
                record_hash = hashlib.sha256(blob).hexdigest()
                self._write_blob(record_hash, blob)
                with self._db() as conn:
                    conn.execute("BEGIN IMMEDIATE")
                    conn.execute(
                        "INSERT OR IGNORE INTO records "
                        "(hash, kind, parent, bytes, full_bytes) "
                        "VALUES (?, 'base', NULL, ?, ?)",
                        (record_hash, len(blob), len(blob)),
                    )
                    tick = self._tick(conn)
                    conn.execute(
                        "INSERT OR REPLACE INTO snapshots (key, "
                        "kb_fingerprint, rules_fingerprint, variant, "
                        "core_every, head, applications, atoms, "
                        "terminated, chain_depth, chain_bytes, "
                        "fact_count, facts_manifest, last_access) "
                        "VALUES (?, ?, NULL, ?, ?, ?, ?, ?, ?, 1, ?, "
                        "NULL, NULL, ?)",
                        (
                            key,
                            kb_fp,
                            state_obj["variant"],
                            state_obj["core_every"],
                            record_hash,
                            int(state_obj.get("applications", 0)),
                            len(state_obj.get("instance", [])),
                            1 if state_obj.get("terminated") else 0,
                            len(blob),
                            tick,
                        ),
                    )
                    conn.execute("COMMIT")
            except Exception:  # noqa: BLE001 - hostile files must not wedge startup
                pass
            try:
                path.unlink()
            except OSError:
                pass
            consumed += 1
        self.migrated += consumed
        return consumed

    # -- record blobs --------------------------------------------------

    def _write_blob(self, record_hash: str, blob: bytes) -> pathlib.Path:
        """Write a content-addressed record if absent (idempotent — the
        name is the hash, so a racing writer produced identical bytes)."""
        path = self._object_path(record_hash)
        if path.exists():
            return path
        handle = tempfile.NamedTemporaryFile(
            mode="wb",
            dir=self.objects,
            prefix=f".{record_hash[:16]}-",
            suffix=".tmp",
            delete=False,
        )
        try:
            with handle:
                handle.write(blob)
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
        return path

    def _read_record(self, record_hash: str) -> dict:
        """Read and verify one record; raises :class:`_ChainBroken` on
        any damage (missing file, torn write, content/hash mismatch)."""
        try:
            blob = self._object_path(record_hash).read_bytes()
        except OSError as exc:
            raise _ChainBroken(f"record {record_hash[:12]} missing") from exc
        if hashlib.sha256(blob).hexdigest() != record_hash:
            raise _ChainBroken(f"record {record_hash[:12]} hash mismatch")
        try:
            payload = json.loads(blob)
        except ValueError as exc:
            raise _ChainBroken(f"record {record_hash[:12]} unparseable") from exc
        if not isinstance(payload, dict) or payload.get("schema") != SNAPSHOT_SCHEMA:
            raise _ChainBroken(f"record {record_hash[:12]} schema mismatch")
        return payload

    def _load_chain(self, head: str) -> ChaseState:
        """Materialize the state at *head*: walk to the base, then
        replay the deltas oldest-first.  Raises :class:`_ChainBroken`
        on any damaged or malformed link."""
        chain = []
        record_hash: Optional[str] = head
        for _ in range(self.max_chain_depth + 1):
            payload = self._read_record(record_hash)
            chain.append(payload)
            if payload.get("kind") == "base":
                break
            if payload.get("kind") != "delta":
                raise _ChainBroken(f"record {record_hash[:12]} bad kind")
            record_hash = payload.get("parent")
            if not isinstance(record_hash, str):
                raise _ChainBroken("delta record without parent")
        else:
            raise _ChainBroken("chain exceeds depth bound (cycle?)")
        try:
            state = chase_state_from_obj(chain[-1]["state"])
            for payload in reversed(chain[:-1]):
                state = apply_chase_state_delta(
                    state, state_delta_from_obj(payload["delta"])
                )
        except _ChainBroken:
            raise
        except Exception as exc:  # noqa: BLE001 - adversarial payloads raise anything
            raise _ChainBroken(f"chain decode failed: {exc}") from exc
        return state

    def _drop_entry(self, key: str) -> None:
        """Transactionally forget *key* and any records only it reached;
        blob files are unlinked after the commit."""
        with self._db() as conn:
            conn.execute("BEGIN IMMEDIATE")
            conn.execute("DELETE FROM snapshots WHERE key = ?", (key,))
            dead = self._gc_unreachable(conn)
            conn.execute("COMMIT")
        self._unlink_blobs(dead)

    @staticmethod
    def _gc_unreachable(conn: sqlite3.Connection) -> set:
        """Delete record rows no snapshot chain reaches; returns their
        hashes.  Must run inside an open transaction."""
        parent_of = dict(
            conn.execute("SELECT hash, parent FROM records").fetchall()
        )
        live: set = set()
        for (head,) in conn.execute("SELECT head FROM snapshots"):
            record_hash = head
            while record_hash is not None and record_hash not in live:
                live.add(record_hash)
                record_hash = parent_of.get(record_hash)
        dead = set(parent_of) - live
        if dead:
            conn.executemany(
                "DELETE FROM records WHERE hash = ?",
                [(item,) for item in dead],
            )
        return dead

    def _unlink_blobs(self, hashes) -> None:
        for record_hash in hashes:
            try:
                self._object_path(record_hash).unlink()
            except OSError:
                pass  # racing GC, or the blob never hit disk

    def _evict_lru(self, protect_key: str) -> int:
        """Evict least-recently-used snapshots until within bounds.

        Called after every save; a no-op for unbounded stores.  Each
        round is one catalog transaction: pick the stalest entry (by
        access counter) other than *protect_key*, drop its row, GC the
        records only it reached.  Racing evictors are harmless — the
        transactions serialize.  Saves that leave the store over a
        bound because only the protected entry remains are counted in
        :attr:`eviction_shortfalls`."""
        if self.max_entries is None and self.max_bytes is None:
            return 0
        evicted = 0
        observer = _observer_state.current
        while True:
            with self._db() as conn:
                conn.execute("BEGIN IMMEDIATE")
                count = conn.execute(
                    "SELECT COUNT(*) FROM snapshots"
                ).fetchone()[0]
                total = conn.execute(
                    "SELECT COALESCE(SUM(bytes), 0) FROM records"
                ).fetchone()[0]
                over_entries = (
                    self.max_entries is not None and count > self.max_entries
                )
                over_bytes = (
                    self.max_bytes is not None and total > self.max_bytes
                )
                if not (over_entries or over_bytes):
                    conn.execute("COMMIT")
                    return evicted
                victim = conn.execute(
                    "SELECT key FROM snapshots WHERE key != ? "
                    "ORDER BY last_access ASC LIMIT 1",
                    (protect_key,),
                ).fetchone()
                if victim is None:
                    conn.execute("COMMIT")
                    self.eviction_shortfalls += 1
                    return evicted
                conn.execute(
                    "DELETE FROM snapshots WHERE key = ?", (victim[0],)
                )
                dead = self._gc_unreachable(conn)
                conn.execute("COMMIT")
            self._unlink_blobs(dead)
            evicted += 1
            if observer is not None:
                observer.snapshot_access(op="evict", hit=False)

    # -- save ----------------------------------------------------------

    def save(
        self,
        kb: KnowledgeBase,
        state: ChaseState,
        parent: Optional[SnapshotEntry] = None,
    ) -> pathlib.Path:
        """File *state* under the key for (*kb*, its chase config).

        With *parent* — the :class:`SnapshotEntry` this job resumed
        from — the save appends a compact delta record to the parent's
        chain instead of writing a full base, unless the chain budget
        (:attr:`max_chain_depth` records, :data:`CHAIN_BYTES_FACTOR`
        × full size bytes) says to re-checkpoint, the delta would not
        actually be smaller, or the parent record was evicted in the
        meantime.  Returns the path of the written head record.
        """
        started = time.perf_counter()
        now = time.monotonic()
        if now - self._last_tmp_gc >= self.tmp_grace_seconds:
            self._last_tmp_gc = now
            self._gc_orphan_tmp_files(self.tmp_grace_seconds)
        kb_fp = kb_fingerprint(kb)
        key = _v2_key(state.variant, state.core_every, kb_fp)
        state_obj = chase_state_to_obj(state)
        base_blob = _dump_record(
            {"schema": SNAPSHOT_SCHEMA, "kind": "base", "state": state_obj}
        )
        full_bytes = len(base_blob)

        delta_blob = None
        if parent is not None and parent.chain_depth < self.max_chain_depth:
            try:
                delta = diff_chase_states(parent.state, state)
            except ValueError:
                delta = None  # config mismatch: never chain across configs
            if delta is not None:
                candidate = _dump_record(
                    {
                        "schema": SNAPSHOT_SCHEMA,
                        "kind": "delta",
                        "parent": parent.head,
                        "delta": state_delta_to_obj(delta),
                    }
                )
                within_budget = (
                    len(candidate) < full_bytes
                    and parent.chain_bytes + len(candidate)
                    <= CHAIN_BYTES_FACTOR * full_bytes
                )
                if within_budget:
                    delta_blob = candidate

        manifest = facts_manifest(kb)
        row_common = (
            kb_fp,
            rules_fingerprint(kb),
            state.variant,
            state.core_every,
            state.applications,
            len(state.instance),
            1 if state.terminated else 0,
            len(manifest),
            json.dumps(manifest),
        )

        def _commit(blob, kind, parent_hash, depth, chain_bytes):
            record_hash = hashlib.sha256(blob).hexdigest()
            self._write_blob(record_hash, blob)
            with self._db() as conn:
                conn.execute("BEGIN IMMEDIATE")
                if parent_hash is not None:
                    still_there = conn.execute(
                        "SELECT 1 FROM records WHERE hash = ?",
                        (parent_hash,),
                    ).fetchone()
                    if still_there is None:
                        conn.execute("ROLLBACK")
                        return None  # parent evicted under us
                conn.execute(
                    "INSERT OR IGNORE INTO records "
                    "(hash, kind, parent, bytes, full_bytes) "
                    "VALUES (?, ?, ?, ?, ?)",
                    (record_hash, kind, parent_hash, len(blob), full_bytes),
                )
                tick = self._tick(conn)
                conn.execute(
                    "INSERT OR REPLACE INTO snapshots (key, "
                    "kb_fingerprint, rules_fingerprint, variant, "
                    "core_every, head, applications, atoms, terminated, "
                    "chain_depth, chain_bytes, fact_count, "
                    "facts_manifest, last_access) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (key, *row_common[:4], record_hash, *row_common[4:7],
                     depth, chain_bytes, *row_common[7:], tick),
                )
                conn.execute("COMMIT")
            return self._object_path(record_hash)

        path = None
        chain_depth = 1
        bytes_saved = 0
        if delta_blob is not None:
            path = _commit(
                delta_blob,
                "delta",
                parent.head,
                parent.chain_depth + 1,
                parent.chain_bytes + len(delta_blob),
            )
            if path is not None:
                chain_depth = parent.chain_depth + 1
                bytes_saved = full_bytes - len(delta_blob)
        if path is None:
            path = _commit(base_blob, "base", None, 1, full_bytes)
        self._evict_lru(protect_key=key)
        observer = _observer_state.current
        if observer is not None:
            observer.snapshot_access(
                op="save",
                hit=True,
                atoms=len(state.instance),
                seconds=time.perf_counter() - started,
                chain_depth=chain_depth,
                bytes_saved=bytes_saved,
            )
        return path

    # -- load ----------------------------------------------------------

    def load_entry(
        self, kb: KnowledgeBase, variant: str, core_every: int = 1
    ) -> Optional[SnapshotEntry]:
        """The stored entry for (*kb*, *variant*, *core_every*), or None.

        Misses, fingerprint/config mismatches, and damaged chains all
        come back as None; a damaged chain is dropped transactionally
        (``snapshot.chain_broken``) so it is paid for only once."""
        started = time.perf_counter()
        kb_fp = kb_fingerprint(kb)
        key = _v2_key(variant, core_every, kb_fp)
        with self._db() as conn:
            row = conn.execute(
                "SELECT head, chain_depth, chain_bytes, kb_fingerprint "
                "FROM snapshots WHERE key = ?",
                (key,),
            ).fetchone()
        entry: Optional[SnapshotEntry] = None
        corrupt = False
        if row is not None:
            head, chain_depth, chain_bytes, row_fp = row
            try:
                if row_fp != kb_fp:
                    raise _ChainBroken("catalog fingerprint mismatch")
                state = self._load_chain(head)
                if state.variant != variant or state.core_every != core_every:
                    raise _ChainBroken("snapshot config mismatch")
                entry = SnapshotEntry(
                    state=state,
                    key=key,
                    head=head,
                    chain_depth=chain_depth,
                    chain_bytes=chain_bytes,
                )
            except _ChainBroken:
                corrupt = True
                self._drop_entry(key)
        if entry is not None:
            with self._db() as conn:
                conn.execute("BEGIN IMMEDIATE")
                tick = self._tick(conn)
                conn.execute(
                    "UPDATE snapshots SET last_access = ? WHERE key = ?",
                    (tick, key),
                )
                conn.execute("COMMIT")
        observer = _observer_state.current
        if observer is not None:
            observer.snapshot_access(
                op="load",
                hit=entry is not None,
                corrupt=corrupt,
                atoms=len(entry.state.instance) if entry is not None else 0,
                seconds=time.perf_counter() - started,
                chain_depth=entry.chain_depth if entry is not None else 0,
                chain_broken=corrupt,
            )
        return entry

    def load(
        self, kb: KnowledgeBase, variant: str, core_every: int = 1
    ) -> Optional[ChaseState]:
        """The stored state for (*kb*, *variant*, *core_every*), or
        None — :meth:`load_entry` without the chain context."""
        entry = self.load_entry(kb, variant, core_every)
        return entry.state if entry is not None else None

    # -- analysis verdicts ---------------------------------------------

    def load_verdict(self, rules_fp: str) -> Optional[dict]:
        """The persisted analysis verdict for a ruleset fingerprint, or
        None.  Verdicts are pure functions of the rules (plus advisory
        instance probes), so the catalog shares them across workers and
        restarts; an unparseable row is treated as a miss."""
        with self._db() as conn:
            row = conn.execute(
                "SELECT verdict FROM verdicts WHERE rules_fingerprint = ?",
                (rules_fp,),
            ).fetchone()
        if row is None:
            return None
        try:
            payload = json.loads(row[0])
        except ValueError:
            return None
        return payload if isinstance(payload, dict) else None

    def save_verdict(self, rules_fp: str, obj: dict) -> None:
        """Persist an analysis verdict keyed by ruleset fingerprint.
        Last writer wins; racing writers computed the same verdict, so
        the replace is harmless."""
        with self._db() as conn:
            conn.execute(
                "INSERT OR REPLACE INTO verdicts "
                "(rules_fingerprint, verdict, created) VALUES (?, ?, ?)",
                (rules_fp, json.dumps(obj, sort_keys=True), time.time()),
            )

    # -- compiled query plans ------------------------------------------

    def load_query_plan(self, rules_fp: str, query_shape: str) -> Optional[dict]:
        """The persisted rewriting plan for a ``(ruleset fingerprint,
        canonical CQ shape)`` pair, or None.  Plans are pure functions of
        the two keys, so the catalog shares them across pool workers and
        restarts; an unparseable row is treated as a miss."""
        with self._db() as conn:
            row = conn.execute(
                "SELECT plan FROM query_plans "
                "WHERE rules_fingerprint = ? AND query_shape = ?",
                (rules_fp, query_shape),
            ).fetchone()
        if row is None:
            return None
        try:
            payload = json.loads(row[0])
        except ValueError:
            return None
        return payload if isinstance(payload, dict) else None

    def save_query_plan(
        self, rules_fp: str, query_shape: str, obj: dict
    ) -> None:
        """Persist a rewriting plan.  Last writer wins; racing writers
        computed the same deterministic plan, so the replace is
        harmless."""
        with self._db() as conn:
            conn.execute(
                "INSERT OR REPLACE INTO query_plans "
                "(rules_fingerprint, query_shape, plan, created) "
                "VALUES (?, ?, ?, ?)",
                (rules_fp, query_shape, json.dumps(obj, sort_keys=True), time.time()),
            )

    # -- ancestor resolution -------------------------------------------

    def resolve_ancestor(
        self,
        kb: KnowledgeBase,
        variant: str,
        core_every: int = 1,
        max_applications: Optional[int] = None,
    ) -> Optional[SnapshotEntry]:
        """On an exact miss: the nearest stored ancestor of *kb*, or None.

        An ancestor is an entry with the **same rules** (by fingerprint)
        and chase configuration whose facts are a *proper subset* of
        *kb*'s — probed via the facts manifests, so the scan is a
        catalog query plus set algebra, never a directory walk.
        Candidates are tried nearest-first (most shared facts, then
        deepest chase prefix); *max_applications* (the job's step
        budget) filters out prefixes too deep to resume under it.

        Soundness — the returned state plus ``missing_atoms`` must be a
        fair-derivation prefix of the *grown* KB, so a candidate is
        rejected when injecting the missing facts could conflate or
        decouple existentials:

        * the missing facts must share no nulls (variables) with the
          ancestor's facts — the ancestor's simplifications may have
          folded its copy of a shared null away, silently decoupling
          the two occurrences;
        * the missing facts' nulls must not collide with the loaded
          state's terms, nor use its fresh-null prefix — a collision
          would conflate an input existential with an invented one.

        Constants are rigid and never folded, so shared constants are
        fine — the common serving case (new ground facts about known
        entities) always qualifies.
        """
        if not self.ancestor_resume:
            return None
        started = time.perf_counter()
        incoming = {
            hashlib.sha256(str(atom).encode()).hexdigest()[:16]: atom
            for atom in kb.facts.sorted_atoms()
        }
        rules_fp = rules_fingerprint(kb)
        query = (
            "SELECT key, head, chain_depth, chain_bytes, facts_manifest "
            "FROM snapshots WHERE rules_fingerprint = ? AND variant = ? "
            "AND core_every = ? AND facts_manifest IS NOT NULL "
            "AND fact_count < ?"
        )
        params = [rules_fp, variant, core_every, len(incoming)]
        if max_applications is not None:
            query += " AND applications <= ?"
            params.append(max_applications)
        query += " ORDER BY fact_count DESC, applications DESC LIMIT 32"
        with self._db() as conn:
            candidates = conn.execute(query, params).fetchall()

        observer = _observer_state.current
        for key, head, chain_depth, chain_bytes, manifest_json in candidates:
            try:
                manifest = set(json.loads(manifest_json))
            except ValueError:
                continue
            if not manifest <= set(incoming):
                continue
            missing = [
                atom
                for line_hash, atom in incoming.items()
                if line_hash not in manifest
            ]
            ancestor_facts = AtomSet(
                atom
                for line_hash, atom in incoming.items()
                if line_hash in manifest
            )
            missing_vars = AtomSet(missing).variables()
            if missing_vars & ancestor_facts.variables():
                continue  # shared input nulls: folding may have decoupled them
            try:
                state = self._load_chain(head)
                if state.variant != variant or state.core_every != core_every:
                    raise _ChainBroken("snapshot config mismatch")
            except _ChainBroken:
                self._drop_entry(key)
                if observer is not None:
                    observer.snapshot_access(
                        op="load",
                        hit=False,
                        corrupt=True,
                        seconds=0.0,
                        chain_depth=0,
                        chain_broken=True,
                    )
                continue
            prefix = state.fresh_prefix
            if any(var.name.startswith(prefix) for var in missing_vars):
                continue  # could collide with invented nulls
            if missing_vars & state.instance.variables():
                continue
            with self._db() as conn:
                conn.execute("BEGIN IMMEDIATE")
                tick = self._tick(conn)
                conn.execute(
                    "UPDATE snapshots SET last_access = ? WHERE key = ?",
                    (tick, key),
                )
                conn.execute("COMMIT")
            if observer is not None:
                observer.snapshot_access(
                    op="resolve",
                    hit=True,
                    atoms=len(state.instance),
                    seconds=time.perf_counter() - started,
                    chain_depth=chain_depth,
                    ancestor=True,
                )
            return SnapshotEntry(
                state=state,
                key=key,
                head=head,
                chain_depth=chain_depth,
                chain_bytes=chain_bytes,
                missing_atoms=missing,
                ancestor=True,
            )
        if observer is not None:
            observer.snapshot_access(
                op="resolve",
                hit=False,
                seconds=time.perf_counter() - started,
            )
        return None


def _dump_record(payload: dict) -> bytes:
    """The canonical record serialization (hashed to form the address)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
