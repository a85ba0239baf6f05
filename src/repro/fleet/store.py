"""Durable verifier state: pluggable persistence for the registry.

The registry docstring always promised to "stay a plain data structure
that a later PR can persist or shard without touching the wire logic";
this module is that persistence.  A :class:`RegistryStore` snapshots
:class:`~repro.fleet.registry.DeviceRecord` documents -- including the
freshness counters the replay defences depend on (``nonce_high_water``,
monotonic ``last_seen``) -- plus one fleet-level *meta* document (the
registry's logical clock and the log of applied update packages, so a
restarted simulation can fast-forward its device replicas).

Every store is a keyed, last-write-wins view over the one record log
(:mod:`repro.recordlog`: file formats, durability points, the
torn-line rule, and the path dispatch ``open_store(path)`` uses):

* :class:`MemoryStore`  -- dicts; the default, zero I/O.
* :class:`JsonlStore`   -- the same dicts over a JSON-lines log: every
  save is one appended line, the open folds the log last-wins, and the
  log compacts to one line per live document.  A line a kill tore is
  skipped, and ended before the next append, so every document before
  and after it survives.
* :class:`SqliteStore`  -- one table per document kind, upserts inside
  a transaction that ``flush()`` commits (campaigns flush per wave).

Both documents are checked field by field as they load
(:func:`record_from_dict`, :func:`check_meta`): a malformed one raises
:class:`~repro.fleet.registry.FleetError` naming the field, never a
``KeyError`` or ``TypeError`` from deeper in a restore.
"""

import json
import threading
from typing import Dict, Optional

from repro.casu.update import UpdateKey
from repro.device import SECURITY_LEVELS
from repro.fleet.registry import DeviceRecord, FleetError, Lifecycle
from repro.memory.bus import ADDRESS_SPACE
from repro.recordlog import JsonlLog, RecordLog, SqliteLog, open_view
from repro.snapshot import (
    WIRE_VERSION,
    state_counts,
    state_dict,
    state_int,
    state_list,
    state_str,
    state_value,
)

META_CLOCK = "clock"
META_PACKAGES = "packages"  # version(str) -> {"target": int, "payload": hex}
META_FIRMWARE = "firmware"  # the FirmwareSpec dict the fleet was built on


# ---- the record codec ------------------------------------------------------


def record_to_dict(record: DeviceRecord) -> dict:
    """A JSON-safe snapshot of one record: the store's document.

    The ``codec`` field versions the format (shared with the
    device-snapshot codec, :data:`repro.snapshot.WIRE_VERSION`): a
    store written by a build with a different codec fails loudly in
    :func:`record_from_dict` instead of misreading fields.
    """
    return {
        "codec": WIRE_VERSION,
        "device_id": record.device_id,
        "key": record.key.secret.hex(),
        "platform": record.platform,
        "security": record.security,
        "state": record.state.value,
        "firmware_version": record.firmware_version,
        "firmware_hash": record.firmware_hash,
        "enrolled_at": record.enrolled_at,
        "last_seen": record.last_seen,
        "attest_count": record.attest_count,
        "reset_count": record.reset_count,
        "update_failures": record.update_failures,
        "nonce_high_water": record.nonce_high_water,
        "applied_versions": list(record.applied_versions),
        "violation_totals": dict(record.violation_totals),
    }


# What a record document written before a field existed holds for it.
# A document's ``violation_count``, written before the count became the
# sum of ``violation_totals``, is ignored like any unknown field.
_RECORD_DEFAULTS = {
    "firmware_hash": None, "enrolled_at": 0, "last_seen": None,
    "attest_count": 0, "reset_count": 0,
    "update_failures": 0, "nonce_high_water": 0, "applied_versions": [],
    "violation_totals": {},
}
_LIFECYCLE_VALUES = {state.value for state in Lifecycle}


def record_from_dict(doc: dict) -> DeviceRecord:
    """The record a document holds, each field type-checked as it is
    adopted (the ``state_*`` helpers); a malformed one raises
    :class:`FleetError` naming the field."""
    # Docs that predate the codec field are grandfathered in (their
    # layout is codec-1 compatible); an explicit mismatch -- a store
    # a build with a different codec wrote -- is an error, and a
    # *clear* one rather than a KeyError three fields later.
    codec = doc.get("codec", WIRE_VERSION)
    if codec != WIRE_VERSION:
        raise FleetError(
            f"device record codec version {codec!r} is not supported by "
            f"this build (expected {WIRE_VERSION}); a different build "
            f"wrote this store")
    doc = {**_RECORD_DEFAULTS, **doc}
    try:
        return DeviceRecord(
            device_id=state_str(doc, "device_id"),
            key=UpdateKey(bytes.fromhex(state_str(doc, "key"))),
            platform=state_str(doc, "platform"),
            security=state_str(doc, "security", SECURITY_LEVELS),
            state=Lifecycle(state_str(doc, "state", _LIFECYCLE_VALUES)),
            firmware_version=state_int(doc, "firmware_version"),
            firmware_hash=state_value(doc, "firmware_hash", (str, type(None))),
            enrolled_at=state_int(doc, "enrolled_at"),
            last_seen=state_int(doc, "last_seen", optional=True),
            attest_count=state_int(doc, "attest_count"),
            reset_count=state_int(doc, "reset_count"),
            update_failures=state_int(doc, "update_failures"),
            nonce_high_water=state_int(doc, "nonce_high_water"),
            applied_versions=list(state_list(doc, "applied_versions", int)),
            violation_totals=state_counts(doc, "violation_totals"),
        )
    except (KeyError, ValueError) as error:
        raise FleetError(f"malformed stored device record: {error}") from None


def check_meta(meta) -> dict:
    """*meta*, the stored fleet meta document, if each field it holds
    has its shape: ``clock`` a non-negative integer, ``firmware`` an
    object, and ``packages`` an object mapping decimal version strings
    to ``{"target": int, "payload": hex}`` whose bytes fit the address
    space.  Anything else raises :class:`FleetError` naming the field."""
    try:
        if type(meta) is not dict:
            raise ValueError(f"must be an object, got {meta!r}")
        if META_CLOCK in meta and state_int(meta, META_CLOCK) < 0:
            raise ValueError(f"field {META_CLOCK!r} must be >= 0, "
                             f"got {meta[META_CLOCK]}")
        if META_FIRMWARE in meta:
            state_dict(meta, META_FIRMWARE)
        if META_PACKAGES in meta:
            for version, package in state_dict(meta, META_PACKAGES).items():
                _check_package(version, package)
    except (KeyError, ValueError) as error:
        raise FleetError(f"malformed stored fleet meta: {error}") from None
    return meta


def _check_package(version: str, package):
    """One ``packages`` entry: a decimal version string keying an
    object whose ``payload`` bytes fit the address space at
    ``target`` (a restore loads them there)."""
    if not (version.isascii() and version.isdigit()):
        raise ValueError(f"field {META_PACKAGES!r} must be keyed by "
                         f"decimal versions, got {version!r}")
    if type(package) is not dict:
        raise ValueError(f"field {META_PACKAGES!r} must map {version} to "
                         f"an object, got {package!r}")
    target = state_int(package, "target")
    payload = state_str(package, "payload")
    try:
        size = len(bytes.fromhex(payload))
    except ValueError:
        raise ValueError(f"field 'payload' must be hex, "
                         f"got {payload!r}") from None
    if not 0 <= target <= ADDRESS_SPACE - size:
        raise ValueError(f"field 'target' must place package {version}'s "
                         f"{size} bytes in the address space, got {target}")


# ---- the backend contract --------------------------------------------------


class RegistryStore(RecordLog):
    """Persistence contract the registry talks to.

    One document per device (last write wins) plus one meta document.
    Implementations must make ``flush()`` a durability point: anything
    saved before a flush survives a process kill after it.  Stores are
    context managers (``with open_store(...) as store:``).
    """

    backend = "abstract"

    def load_records(self) -> Dict[str, dict]:
        raise NotImplementedError

    def save_record(self, doc: dict):
        raise NotImplementedError

    def load_meta(self) -> dict:
        raise NotImplementedError

    def save_meta(self, meta: dict):
        raise NotImplementedError


class MemoryStore(RegistryStore):
    """Dict-backed store: the process-local default, zero I/O.

    Round-trips through the same document codec as the durable
    backends, so swapping a path in changes durability and nothing
    else.
    """

    backend = "memory"

    def __init__(self):
        self._lock = threading.Lock()
        self._records: Dict[str, dict] = {}
        self._meta: dict = {}

    def load_records(self) -> Dict[str, dict]:
        with self._lock:
            return {device_id: dict(doc)
                    for device_id, doc in self._records.items()}

    def save_record(self, doc: dict):
        with self._lock:
            self._records[doc["device_id"]] = dict(doc)

    def load_meta(self) -> dict:
        with self._lock:
            return json.loads(json.dumps(self._meta))

    def save_meta(self, meta: dict):
        with self._lock:
            self._meta = json.loads(json.dumps(meta))


class JsonlStore(JsonlLog, MemoryStore):
    """The memory store's dicts over an append-only JSON-lines log.

    Every ``save_record`` appends one ``{"kind": "record", ...}`` line;
    ``save_meta`` appends a ``{"kind": "meta", ...}`` line; the open
    folds the log last-wins.  ``compact()`` rewrites the file to one
    line per live document; it runs on close (when the log holds more
    lines than live documents; otherwise close only syncs), at open,
    and live -- mid-session, whenever redundancy crosses
    ``COMPACT_FACTOR`` -- so a verifier that re-saves its records every
    wave for weeks never grows an unbounded log.
    """

    # Compact when the log holds this many times more lines than live
    # documents.  Checked at open (long-lived append-only verifiers --
    # cron heartbeats -- rarely close cleanly, so open is the reliable
    # hook) AND after every append, so a long-running session (many
    # campaigns over one open store) keeps its log bounded instead of
    # growing until the next restart.
    COMPACT_FACTOR = 4

    def __init__(self, path: str):
        MemoryStore.__init__(self)
        JsonlLog.__init__(self, path)
        docs = self._read()
        for doc in docs:
            if doc.pop("kind", "record") == "meta":
                self._meta = doc
            elif "device_id" in doc:
                try:
                    self._records[state_str(doc, "device_id")] = doc
                except ValueError as error:
                    self._file.close()
                    raise FleetError(
                        f"malformed stored device record: {error}") from None
        self._lines = len(docs)
        if self._over_threshold():
            self.compact()

    def _live(self) -> int:
        return len(self._records) + (1 if self._meta else 0)

    def _over_threshold(self) -> bool:
        return self._lines > max(64, self.COMPACT_FACTOR * self._live())

    def save_record(self, doc: dict):
        with self._lock:
            self._records[doc["device_id"]] = dict(doc)
            # The line reaches the kernel before this returns, so a
            # SIGKILL loses nothing (only power loss needs the fsync
            # flush() adds).  Nonce high-water saves rely on this.
            self._append({"kind": "record", **doc})

    def save_meta(self, meta: dict):
        with self._lock:
            self._meta = json.loads(json.dumps(meta))
            self._append({"kind": "meta", **self._meta})

    def _append(self, doc: dict):
        self._write(doc)
        self._lines += 1
        # Live compaction: a long-running verifier re-saves the same
        # records every sweep/wave; once redundancy crosses the
        # threshold, rewrite in place instead of waiting for a
        # close/reopen that may never come.
        if self._over_threshold():
            self._compact_locked()

    def flush(self):
        with self._lock:
            self._sync()

    def compact(self):
        """Rewrite the log to one line per live document.

        Atomically (:func:`repro.recordlog.write_atomic`): a kill at any
        point leaves either the full old log or the full new one --
        never a truncated registry (the records ARE the device keys).
        """
        with self._lock:
            self._compact_locked()

    def _compact_locked(self):
        docs = [{"kind": "meta", **self._meta}] if self._meta else []
        docs.extend({"kind": "record", **doc}
                    for doc in self._records.values())
        self._rewrite(docs)
        self._lines = len(docs)

    def close(self):
        with self._lock:
            if self._lines > self._live():
                self._compact_locked()
            JsonlLog.close(self)


class SqliteStore(SqliteLog, RegistryStore):
    """SQLite-backed store: upserts batched until ``flush()`` commits.

    Campaigns flush once per wave, so a kill mid-wave rolls back to the
    previous wave's committed state -- the resume path then re-offers
    only that wave, and the device-side monotonic version check makes
    the re-offers idempotent.
    """

    SCHEMA = (
        "CREATE TABLE IF NOT EXISTS records ("
        " device_id TEXT PRIMARY KEY, doc TEXT NOT NULL)",
        "CREATE TABLE IF NOT EXISTS meta ("
        " id INTEGER PRIMARY KEY CHECK (id = 0), doc TEXT NOT NULL)",
    )

    def __init__(self, path: str):
        super().__init__(path, self.SCHEMA)

    def load_records(self) -> Dict[str, dict]:
        return {device_id: json.loads(doc) for device_id, doc
                in self._rows("SELECT device_id, doc FROM records")}

    def save_record(self, doc: dict):
        self._upsert("records", "device_id", doc["device_id"], doc)

    def load_meta(self) -> dict:
        rows = self._rows("SELECT doc FROM meta WHERE id = 0")
        return json.loads(rows[0][0]) if rows else {}

    def save_meta(self, meta: dict):
        self._upsert("meta", "id", 0, meta)

    def _upsert(self, table: str, key_column: str, key, doc: dict):
        with self._lock:
            self._conn.execute(
                f"INSERT INTO {table} ({key_column}, doc) VALUES (?, ?) "
                f"ON CONFLICT({key_column}) DO UPDATE SET doc = excluded.doc",
                (key, json.dumps(doc, sort_keys=True)))


def open_store(path: Optional[str]) -> RegistryStore:
    """Pick a backend from *path*: memory, SQLite, or JSON lines."""
    return open_view(path, MemoryStore, JsonlStore, SqliteStore)
