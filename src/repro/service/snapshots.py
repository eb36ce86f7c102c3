"""A content-addressed store of resumable chase checkpoints.

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

Storage format (schema 4)
-------------------------
Two pieces under the store root:

``catalog.sqlite``
    The index: one ``snapshots`` row per key (fingerprints, record
    hash and size, counts, a **monotonic access counter** for LRU) and
    one ``snapshot_facts`` row per fact of each entry.  Startup never
    stats the directory — the catalog is the directory — and eviction
    is a transaction, so a crash can orphan at most blob *files*, never
    catalog state.  The catalog runs in WAL mode with
    ``synchronous=NORMAL`` (sidecar files ``catalog.sqlite-wal`` and
    ``-shm``): a commit is durable once the process that made it dies,
    and an OS crash or power loss can drop only the last commits — a
    lost row is a snapshot miss, paid for with a cold chase, never a
    wrong answer.  WAL needs a local filesystem.

``objects/<sha256>.json``
    Content-addressed records, one per snapshot:
    ``{"schema": 4, "state": ...}`` with the whole serialized state —
    the instance, its active triggers with their ages, and the
    bookkeeping (:func:`chase_state_to_obj`).  A record is verified
    against its name's hash on every read; a damaged one discards its
    entry (``snapshot.corrupt``) and the job falls back to a cold chase.

Snapshots are a cache, so an older store is not migrated: a catalog of
another schema is recreated empty when the store opens and the old
store's files are removed; its requests miss once and chase cold.

Ancestor resolution
-------------------
The ``snapshot_facts`` rows hold the per-fact hashes of each entry's
KB.  On an exact-key miss, :meth:`SnapshotStore.resolve_ancestor` finds
the same-rules/same-config entries whose facts are a proper subset of
the incoming KB's, loads the nearest one (most shared facts, then
deepest prefix), and hands back the state plus the missing facts;
:func:`~repro.chase.engine.merge_facts_into_state` grafts them on and
the engine resumes incrementally.  Soundness gates (refusing shared or
colliding nulls) are documented on :meth:`~SnapshotStore.resolve_ancestor`.
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

from ..analysis.planner import ruleset_fingerprint
from ..chase.engine import ChaseState
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
    "kb_fingerprint",
    "facts_manifest",
    "snapshot_key",
    "chase_state_to_obj",
    "chase_state_from_obj",
    "SnapshotEntry",
    "SnapshotStore",
]

#: Bump when the on-disk layout changes; old snapshots are then orphaned
#: (never mis-read) because the schema participates in the key, and a
#: catalog of another schema is recreated when the store opens.
SNAPSHOT_SCHEMA = 4

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


def facts_manifest(kb: KnowledgeBase) -> list:
    """Per-fact content hashes of *kb*'s sorted fact lines.

    The manifest makes subset probing cheap: KB A's facts are a subset
    of KB B's iff A's manifest is a subset of B's (the line is the
    canonical atom text, so equal lines are equal atoms).  16 hex chars
    (64 bits) per fact keeps the catalog's fact rows compact.
    """
    return list(_fact_hashes(kb))


def _fact_hashes(kb: KnowledgeBase) -> dict:
    """:func:`facts_manifest` as a map from each hash to its fact."""
    return {
        hashlib.sha256(str(atom).encode()).hexdigest()[:16]: atom
        for atom in kb.facts.sorted_atoms()
    }


def snapshot_key(kb: KnowledgeBase, variant: str, core_every: int = 1) -> str:
    """The store key for chasing *kb* with *variant* / *core_every*."""
    return _key(variant, core_every, kb_fingerprint(kb))


def _key(variant, core_every, kb_fp: str) -> str:
    tag = f"{SNAPSHOT_SCHEMA}|{variant}|{core_every}|{kb_fp}"
    return hashlib.sha256(tag.encode()).hexdigest()


# ---------------------------------------------------------------------------
# ChaseState <-> JSON objects
# ---------------------------------------------------------------------------


def _trigger_key_to_obj(key) -> list:
    rule_name, image = key
    return [rule_name, [[var.name, term_to_obj(term)] for var, term in image]]


def _trigger_key_from_obj(obj, terms: dict):
    """Parse a trigger key.  *terms* memoizes the decoded terms across
    one record's keys, which repeat a few rule variables and instance
    terms many times over."""
    rule_name, image = obj
    return (
        rule_name,
        tuple(
            (_memo_term(terms, "v", name), _memo_term(terms, *term))
            for name, term in image
        ),
    )


def _memo_term(terms: dict, tag: str, name: str):
    term = terms.get((tag, name))
    if term is None:
        term = terms[(tag, name)] = term_from_obj((tag, name))
    return term


def chase_state_to_obj(state: ChaseState) -> dict:
    """Serialize a :class:`ChaseState` as a JSON-ready dict.

    Trigger keys (``active`` entries and ``applied_keys``) are
    ``(rule_name, ((Variable, Term), ...))`` tuples; they serialize
    through the tagged term objects.  ``active`` keeps its pool order
    and ``applied_keys`` is emitted sorted, so the output is
    deterministic."""
    return {
        "variant": state.variant,
        "core_every": state.core_every,
        "fresh_prefix": state.fresh_prefix,
        "fresh_count": state.fresh_count,
        "instance": instance_to_obj(state.instance),
        "active": [
            [_trigger_key_to_obj(key), age] for key, age in state.active
        ],
        "pending": [atom_to_obj(at) for at in state.pending],
        "applied_keys": sorted(map(_trigger_key_to_obj, state.applied_keys)),
        "terminated": state.terminated,
        "applications": state.applications,
        "applications_since_core": state.applications_since_core,
        "delta_since_core": [atom_to_obj(at) for at in state.delta_since_core],
    }


def chase_state_from_obj(obj: dict) -> ChaseState:
    """Parse a state serialized by :func:`chase_state_to_obj`."""
    terms: dict = {}
    return ChaseState(
        variant=obj["variant"],
        core_every=obj["core_every"],
        fresh_prefix=obj["fresh_prefix"],
        fresh_count=obj["fresh_count"],
        instance=instance_from_obj(obj["instance"]),
        active=[
            (_trigger_key_from_obj(key, terms), age) for key, age in obj["active"]
        ],
        pending=[atom_from_obj(item) for item in obj["pending"]],
        applied_keys={
            _trigger_key_from_obj(item, terms) for item in obj["applied_keys"]
        },
        terminated=obj["terminated"],
        applications=obj["applications"],
        applications_since_core=obj["applications_since_core"],
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

#: Seconds a catalog operation waits for another connection's lock.
_BUSY_TIMEOUT = 30.0

_SCHEMA_SQL = """
CREATE TABLE meta (
    k TEXT PRIMARY KEY,
    v INTEGER NOT NULL
);
CREATE TABLE snapshots (
    key TEXT PRIMARY KEY,
    kb_fingerprint TEXT NOT NULL,
    rules_fingerprint TEXT NOT NULL,
    variant TEXT NOT NULL,
    core_every INTEGER NOT NULL,
    record TEXT NOT NULL,
    bytes INTEGER NOT NULL,
    applications INTEGER NOT NULL,
    atoms INTEGER NOT NULL,
    terminated INTEGER NOT NULL,
    fact_count INTEGER NOT NULL,
    last_access INTEGER NOT NULL
);
CREATE INDEX snapshots_ancestry
    ON snapshots (rules_fingerprint, variant, core_every, fact_count);
CREATE INDEX snapshots_by_record ON snapshots (record);
CREATE TABLE snapshot_facts (
    line_hash TEXT NOT NULL,
    key TEXT NOT NULL,
    PRIMARY KEY (line_hash, key)
) WITHOUT ROWID;
CREATE INDEX snapshot_facts_by_key ON snapshot_facts (key);
"""


@dataclass
class SnapshotEntry:
    """A loaded snapshot and the key it is filed under.

    ``state`` is the pristine checkpoint as stored (callers must not
    mutate it — :meth:`~repro.chase.engine.ChaseEngine.restore_state`
    copies, and :func:`~repro.chase.engine.merge_facts_into_state`
    returns a new state).

    For ancestor hits (:meth:`SnapshotStore.resolve_ancestor`),
    ``ancestor`` is True and ``missing_atoms`` holds the incoming KB's
    facts absent from the ancestor — the delta to inject before
    resuming.
    """

    state: ChaseState
    key: str
    missing_atoms: list = field(default_factory=list)
    ancestor: bool = False


class _DamagedRecord(Exception):
    """A record is missing, corrupt, hash-mismatched or undecodable."""


class SnapshotStore:
    """Content-addressed snapshot store: sqlite catalog + record blobs.

    Safe for concurrent use by multiple worker processes and threads:
    the catalog serializes index updates (each operation is one
    transaction with a generous busy timeout), record blobs are
    immutable once written (temp file + :func:`os.replace`), and loads
    treat anything unreadable as a miss — a damaged record's entry is
    dropped transactionally and the caller falls back to a cold chase.
    A store is meant to live as long as its process: each thread opens
    one catalog connection on first use and reuses it.

    Hygiene (the store must survive crashing writers and run forever):

    * orphaned ``.tmp`` files — the droppings of workers killed
      mid-save — are garbage-collected once they are older than
      *tmp_grace_seconds*: at construction, and from :meth:`save` at
      most once per *tmp_grace_seconds*;
    * construction recreates a catalog of an older schema, and removes
      the old store's record files, in one transaction that two
      workers opening the same old store can race through;
    * *max_entries* / *max_bytes* bound the store; past either bound,
      saves evict the least-recently-used snapshot — recency is the
      catalog's **monotonic access counter**, bumped inside the same
      transaction as the load or save it records, so eviction order is
      exact even on filesystems with coarse mtimes.  Each eviction
      deletes the catalog row and its record unless another entry
      shares it; it is reported via the ``snapshot_access`` telemetry
      event (``op="evict"``, the ``snapshot.evicted`` metric).  The
      just-written snapshot is never evicted, even when it alone
      exceeds *max_bytes* — such saves are counted in
      :attr:`eviction_shortfalls` instead.
    """

    def __init__(
        self,
        root: PathLike,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
        tmp_grace_seconds: float = TMP_ORPHAN_GRACE,
    ):
        self.root = pathlib.Path(root)
        self.objects = self.root / _OBJECTS_DIR
        self.objects.mkdir(parents=True, exist_ok=True)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.tmp_grace_seconds = tmp_grace_seconds
        #: saves after which a bound could not be met because eviction
        #: never removes the most-recently-written snapshot
        self.eviction_shortfalls = 0
        self._catalog = self.root / _CATALOG_NAME
        #: each thread's catalog connection; see _connection
        self._local = threading.local()
        with self._db() as conn:
            _enable_wal(conn)
            stale = self._create_catalog(conn)
        for path in stale:
            with contextlib.suppress(OSError):
                path.unlink()
        self._gc_orphan_tmp_files(tmp_grace_seconds)
        self._last_tmp_gc = time.monotonic()

    # -- catalog plumbing ---------------------------------------------

    def _connection(self) -> sqlite3.Connection:
        """This thread's catalog connection, opened on first use (it
        lives in a thread-local slot, so it closes when its thread
        ends)."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = sqlite3.connect(self._catalog, timeout=_BUSY_TIMEOUT)
            conn.isolation_level = None  # explicit BEGIN/COMMIT in callers
            conn.execute(f"PRAGMA busy_timeout = {int(_BUSY_TIMEOUT * 1000)}")
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

    def _create_catalog(self, conn: sqlite3.Connection) -> list:
        """Create the catalog tables unless the catalog already has this
        schema; a catalog of an older schema is dropped and recreated
        empty.  Returns the files the old store left — its record blobs
        and any schema-1 files in the root — to unlink once committed.

        One ``BEGIN IMMEDIATE`` transaction, so a sibling worker opening
        the same store waits for it and then finds the new schema."""
        conn.execute("BEGIN IMMEDIATE")
        tables = [
            name
            for (name,) in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table' "
                "AND name NOT LIKE 'sqlite_%'"
            )
        ]
        if "meta" in tables:
            row = conn.execute(
                "SELECT v FROM meta WHERE k = 'schema'"
            ).fetchone()
            if row is not None and row[0] == SNAPSHOT_SCHEMA:
                conn.execute("COMMIT")
                return []
        for name in tables:
            conn.execute(f'DROP TABLE "{name}"')
        for statement in _SCHEMA_SQL.split(";"):
            if statement.strip():
                conn.execute(statement)
        conn.execute(
            "INSERT INTO meta (k, v) VALUES ('schema', ?), ('tick', 0)",
            (SNAPSHOT_SCHEMA,),
        )
        # No writer of this schema can have existed before this commit,
        # so every record file here is the old store's.
        stale = [*self.objects.glob("*.json"), *self.root.glob("*.json")]
        conn.execute("COMMIT")
        return stale

    @staticmethod
    def _tick(conn: sqlite3.Connection) -> int:
        """Advance and return the monotonic access counter; must be
        called inside an open transaction."""
        conn.execute("UPDATE meta SET v = v + 1 WHERE k = 'tick'")
        return conn.execute(
            "SELECT v FROM meta WHERE k = 'tick'"
        ).fetchone()[0]

    def _touch(self, key: str) -> None:
        """Record an access to *key* for the LRU order."""
        with self._db() as conn:
            conn.execute("BEGIN IMMEDIATE")
            tick = self._tick(conn)
            conn.execute(
                "UPDATE snapshots SET last_access = ? WHERE key = ?",
                (tick, key),
            )
            conn.execute("COMMIT")

    def _object_path(self, record_hash: str) -> pathlib.Path:
        return self.objects / f"{record_hash}.json"

    def path_for(self, key: str) -> Optional[pathlib.Path]:
        """The record file holding *key*'s snapshot, or None when the
        catalog has no entry for *key*."""
        with self._db() as conn:
            row = conn.execute(
                "SELECT record FROM snapshots WHERE key = ?", (key,)
            ).fetchone()
        return self._object_path(row[0]) if row is not None else None

    def entry_count(self) -> int:
        with self._db() as conn:
            return conn.execute(
                "SELECT COUNT(*) FROM snapshots"
            ).fetchone()[0]

    def total_bytes(self) -> int:
        """Bytes held in record blobs (the catalog file is overhead,
        not content, and does not count against *max_bytes*)."""
        with self._db() as conn:
            return self._record_bytes(conn)

    @staticmethod
    def _record_bytes(conn: sqlite3.Connection) -> int:
        """Bytes of the distinct records the catalog references."""
        return conn.execute(
            "SELECT COALESCE(SUM(bytes), 0) FROM "
            "(SELECT MAX(bytes) AS bytes FROM snapshots GROUP BY record)"
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

    def _read_state(
        self, record_hash: str, variant: str, core_every: int
    ) -> ChaseState:
        """Read, verify and decode one record into the state of a
        (*variant*, *core_every*) chase; raises :class:`_DamagedRecord`
        on any damage (missing file, torn write, content/hash mismatch,
        undecodable or mismatched state)."""
        name = record_hash[:12]
        try:
            blob = self._object_path(record_hash).read_bytes()
        except OSError as exc:
            raise _DamagedRecord(f"record {name} missing") from exc
        if hashlib.sha256(blob).hexdigest() != record_hash:
            raise _DamagedRecord(f"record {name} hash mismatch")
        try:
            payload = json.loads(blob)
            if payload.get("schema") != SNAPSHOT_SCHEMA:
                raise ValueError("schema mismatch")
            state = chase_state_from_obj(payload["state"])
        except Exception as exc:  # noqa: BLE001 - adversarial payloads raise anything
            raise _DamagedRecord(f"record {name} undecodable: {exc}") from exc
        if state.variant != variant or state.core_every != core_every:
            raise _DamagedRecord(f"record {name} config mismatch")
        return state

    def _drop_entry(self, key: str) -> None:
        """Transactionally forget *key*, and its record unless another
        entry shares it; the blob file is unlinked after the commit."""
        with self._db() as conn:
            conn.execute("BEGIN IMMEDIATE")
            dead = self._delete_row(conn, key)
            conn.execute("COMMIT")
        self._unlink_blobs(dead)

    @classmethod
    def _delete_row(cls, conn: sqlite3.Connection, key: str) -> list:
        """Delete *key*'s catalog row and its fact rows; returns its
        record's hash if no other entry shares the record.  Must run
        inside an open transaction."""
        row = conn.execute(
            "SELECT record FROM snapshots WHERE key = ?", (key,)
        ).fetchone()
        conn.execute("DELETE FROM snapshots WHERE key = ?", (key,))
        conn.execute("DELETE FROM snapshot_facts WHERE key = ?", (key,))
        if row is None or cls._referenced(conn, row[0]):
            return []
        return [row[0]]

    @staticmethod
    def _referenced(conn: sqlite3.Connection, record_hash: str) -> bool:
        return (
            conn.execute(
                "SELECT 1 FROM snapshots WHERE record = ? LIMIT 1",
                (record_hash,),
            ).fetchone()
            is not None
        )

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
        access counter) other than *protect_key*, drop its row and the
        record only it held.  Racing evictors are harmless — the
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
                over_entries = (
                    self.max_entries is not None and count > self.max_entries
                )
                over_bytes = (
                    self.max_bytes is not None
                    and self._record_bytes(conn) > self.max_bytes
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
                dead = self._delete_row(conn, victim[0])
                conn.execute("COMMIT")
            self._unlink_blobs(dead)
            evicted += 1
            if observer is not None:
                observer.emit("snapshot_access", op="evict", hit=False)

    # -- save ----------------------------------------------------------

    def save(self, kb: KnowledgeBase, state: ChaseState) -> pathlib.Path:
        """File *state* under the key for (*kb*, its chase config), as
        one record; the key's previous record goes unless another entry
        shares it.  Returns the path of the written record."""
        started = time.perf_counter()
        now = time.monotonic()
        if now - self._last_tmp_gc >= self.tmp_grace_seconds:
            self._last_tmp_gc = now
            self._gc_orphan_tmp_files(self.tmp_grace_seconds)
        kb_fp = kb_fingerprint(kb)
        key = _key(state.variant, state.core_every, kb_fp)
        blob = _dump_record(
            {"schema": SNAPSHOT_SCHEMA, "state": chase_state_to_obj(state)}
        )
        record_hash = hashlib.sha256(blob).hexdigest()
        path = self._write_blob(record_hash, blob)
        manifest = facts_manifest(kb)
        rules_fp = ruleset_fingerprint(kb.rules)
        dead: list = []
        with self._db() as conn:
            conn.execute("BEGIN IMMEDIATE")
            previous = conn.execute(
                "SELECT record FROM snapshots WHERE key = ?", (key,)
            ).fetchone()
            tick = self._tick(conn)
            conn.execute(
                "INSERT OR REPLACE INTO snapshots (key, kb_fingerprint, "
                "rules_fingerprint, variant, core_every, record, bytes, "
                "applications, atoms, terminated, fact_count, last_access) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    key,
                    kb_fp,
                    rules_fp,
                    state.variant,
                    state.core_every,
                    record_hash,
                    len(blob),
                    state.applications,
                    len(state.instance),
                    1 if state.terminated else 0,
                    len(manifest),
                    tick,
                ),
            )
            if previous is None:
                # A key fixes the KB, so its facts never change.
                conn.executemany(
                    "INSERT OR IGNORE INTO snapshot_facts (line_hash, key) "
                    "VALUES (?, ?)",
                    [(line_hash, key) for line_hash in manifest],
                )
            elif previous[0] != record_hash and not self._referenced(
                conn, previous[0]
            ):
                dead.append(previous[0])
            conn.execute("COMMIT")
        self._unlink_blobs(dead)
        self._evict_lru(protect_key=key)
        observer = _observer_state.current
        if observer is not None:
            observer.emit(
                "snapshot_access",
                op="save",
                hit=True,
                atoms=len(state.instance),
                seconds=time.perf_counter() - started,
            )
        return path

    # -- load ----------------------------------------------------------

    def load_entry(
        self, kb: KnowledgeBase, variant: str, core_every: int = 1
    ) -> Optional[SnapshotEntry]:
        """The stored entry for (*kb*, *variant*, *core_every*), or None.

        Misses, fingerprint/config mismatches, and damaged records all
        come back as None; a damaged record's entry is dropped
        transactionally (``snapshot.corrupt``) so it is paid for only
        once."""
        started = time.perf_counter()
        kb_fp = kb_fingerprint(kb)
        key = _key(variant, core_every, kb_fp)
        with self._db() as conn:
            row = conn.execute(
                "SELECT record, kb_fingerprint FROM snapshots WHERE key = ?",
                (key,),
            ).fetchone()
        entry: Optional[SnapshotEntry] = None
        corrupt = False
        if row is not None:
            record_hash, row_fp = row
            try:
                if row_fp != kb_fp:
                    raise _DamagedRecord("catalog fingerprint mismatch")
                state = self._read_state(record_hash, variant, core_every)
                entry = SnapshotEntry(state=state, key=key)
            except _DamagedRecord:
                corrupt = True
                self._drop_entry(key)
        if entry is not None:
            self._touch(key)
        observer = _observer_state.current
        if observer is not None:
            observer.emit(
                "snapshot_access",
                op="load",
                hit=entry is not None,
                corrupt=corrupt,
                atoms=len(entry.state.instance) if entry is not None else 0,
                seconds=time.perf_counter() - started,
            )
        return entry

    def load(
        self, kb: KnowledgeBase, variant: str, core_every: int = 1
    ) -> Optional[ChaseState]:
        """The stored state for (*kb*, *variant*, *core_every*), or
        None — :meth:`load_entry` without the catalog context."""
        entry = self.load_entry(kb, variant, core_every)
        return entry.state if entry is not None else None

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
        *kb*'s.  The catalog's ``snapshot_facts`` table maps each fact
        line hash to the entries holding that fact, so one indexed query
        finds exactly the entries every one of whose facts is among
        *kb*'s: an entry that shares no fact with *kb* is never read,
        and no entry is missed however many others its ruleset has.
        (An entry with no facts is no candidate: its chase is the cold
        one.)  Candidates are tried nearest-first (most shared facts,
        then deepest chase prefix); *max_applications* (the job's step
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
        started = time.perf_counter()
        incoming = _fact_hashes(kb)
        rules_fp = ruleset_fingerprint(kb.rules)
        query = (
            "SELECT s.key, s.record FROM (SELECT key, COUNT(*) AS shared "
            "FROM snapshot_facts WHERE line_hash IN "
            "(SELECT value FROM json_each(?)) GROUP BY key) AS m "
            # CROSS JOIN keeps the shared-fact keys the outer loop.
            "CROSS JOIN snapshots AS s ON s.key = m.key "
            "WHERE m.shared = s.fact_count AND s.rules_fingerprint = ? "
            "AND s.variant = ? AND s.core_every = ? AND s.fact_count < ?"
        )
        params = [
            json.dumps(list(incoming)), rules_fp, variant, core_every,
            len(incoming),
        ]
        if max_applications is not None:
            query += " AND s.applications <= ?"
            params.append(max_applications)
        query += " ORDER BY s.fact_count DESC, s.applications DESC"
        with self._db() as conn:
            candidates = conn.execute(query, params).fetchall()

        observer = _observer_state.current
        for key, record_hash in candidates:
            with self._db() as conn:
                held = {
                    line_hash
                    for (line_hash,) in conn.execute(
                        "SELECT line_hash FROM snapshot_facts WHERE key = ?",
                        (key,),
                    )
                }
            missing = [
                atom
                for line_hash, atom in incoming.items()
                if line_hash not in held
            ]
            ancestor_facts = AtomSet(
                atom
                for line_hash, atom in incoming.items()
                if line_hash in held
            )
            missing_vars = AtomSet(missing).variables()
            if missing_vars & ancestor_facts.variables():
                continue  # shared input nulls: folding may have decoupled them
            try:
                state = self._read_state(record_hash, variant, core_every)
            except _DamagedRecord:
                self._drop_entry(key)
                if observer is not None:
                    observer.emit(
                        "snapshot_access", op="load", hit=False, corrupt=True
                    )
                continue
            prefix = state.fresh_prefix
            if any(var.name.startswith(prefix) for var in missing_vars):
                continue  # could collide with invented nulls
            if missing_vars & state.instance.variables():
                continue
            self._touch(key)
            if observer is not None:
                observer.emit(
                    "snapshot_access",
                    op="resolve",
                    hit=True,
                    atoms=len(state.instance),
                    seconds=time.perf_counter() - started,
                    ancestor=True,
                )
            return SnapshotEntry(
                state=state, key=key, missing_atoms=missing, ancestor=True
            )
        if observer is not None:
            observer.emit(
                "snapshot_access",
                op="resolve",
                hit=False,
                seconds=time.perf_counter() - started,
            )
        return None


def _enable_wal(conn: sqlite3.Connection) -> None:
    """Switch the catalog to WAL mode, waiting out a lock like every
    other catalog operation does.

    The switch needs an exclusive lock, and SQLite fails it at once
    instead of calling the busy handler, so a store opened while another
    connection holds the catalog (a sibling worker creating the same
    fresh store) retries until :data:`_BUSY_TIMEOUT`.
    """
    deadline = time.monotonic() + _BUSY_TIMEOUT
    while True:
        try:
            conn.execute("PRAGMA journal_mode = WAL")
            return
        except sqlite3.OperationalError as exc:
            if "locked" not in str(exc) or time.monotonic() >= deadline:
                raise
            time.sleep(0.01)


def _dump_record(payload: dict) -> bytes:
    """The canonical record serialization (hashed to form the address)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
