"""One durable record log under the registry store, event log and tails.

The one module that knows how the fleet's durable files sit on disk.
Views give the documents meaning: the registry store folds them keyed
(:mod:`repro.fleet.store`), the event log keeps them in seq order
(:mod:`repro.obs.events`), and a :class:`Cursor` follows one from
another process (:func:`repro.obs.bus.open_event_tail`).

:func:`backend_for` picks the backend from the path: ``None`` /
``":memory:"`` -> memory (nothing to persist), ``.db`` / ``.sqlite`` /
``.sqlite3`` -> :class:`SqliteLog` (writes batch in a transaction until
``flush()`` commits), anything else -> :class:`JsonlLog` (one JSON
object per line, each pushed to the kernel at once so a SIGKILL loses
nothing; ``flush()`` fsyncs what was appended since the last sync,
against power loss, and skips the fsync when nothing was).

**The torn-line rule.**  A kill mid-append can tear a JSON-lines file's
last line.  Every reader skips any line that is not a complete JSON
object, and a writer reopening a torn file ends the fragment with a
newline before its first append (never truncating: live tails hold
offsets into the file), so the fragment cannot swallow the next line.
A whole JSON object is not yet an event: every event reader (the event
log's index and scans, and the tail :class:`Cursor`) also skips a
document that fails :func:`is_event`.
"""

import json
import os
import sqlite3
import threading
from typing import Iterable, Iterator, List, Optional, Sequence

SQLITE_SUFFIXES = (".db", ".sqlite", ".sqlite3")


def backend_for(path: Optional[str]) -> str:
    """``"memory"``, ``"sqlite"`` or ``"jsonl"``: the backend *path* selects."""
    if path is None or path == ":memory:":
        return "memory"
    return "sqlite" if path.endswith(SQLITE_SUFFIXES) else "jsonl"


def open_view(path: Optional[str], memory, jsonl, sqlite):
    """``memory()``, ``jsonl(path)`` or ``sqlite(path)``, by backend."""
    backend = backend_for(path)
    if backend == "memory":
        return memory()
    return (sqlite if backend == "sqlite" else jsonl)(path)


def read_lines(lines: Iterable) -> Iterator[dict]:
    """The JSON objects among raw *lines*, in order.  Blank, torn and
    non-UTF-8 lines all fail ``json.loads`` with a ``ValueError``."""
    for line in lines:
        try:
            doc = json.loads(line)
        except ValueError:
            continue
        if isinstance(doc, dict):
            yield doc


def is_event(doc: dict) -> bool:
    """Whether a stored document is a whole event, the one test every
    event reader applies: an integer ``seq`` that fits the 64-bit seq
    column, a number ``ts``, a string ``kind``, ``device`` and
    ``campaign`` each a string or null, and an object ``data``."""
    seq = doc.get("seq")
    return (type(seq) is int and -(1 << 63) <= seq < 1 << 63
            and type(doc.get("ts")) in (int, float)
            and type(doc.get("kind")) is str
            and "device" in doc and type(doc["device"]) in _TAGS
            and "campaign" in doc and type(doc["campaign"]) in _TAGS
            and type(doc.get("data")) is dict)


_TAGS = (str, type(None))  # what an event's device and campaign may be


def write_atomic(path: str, text: str):
    """Replace *path* with *text*: a kill leaves all of the old file or
    all of the new one (fsynced temp file, then ``os.replace``)."""
    _make_parent(path)
    temp_path = path + ".tmp"
    with open(temp_path, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp_path, path)


def _make_parent(path: str):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)


def _ends_mid_line(path: str) -> bool:
    with open(path, "rb") as handle:
        if handle.seek(0, os.SEEK_END) == 0:
            return False
        handle.seek(-1, os.SEEK_END)
        return handle.read(1) != b"\n"


class RecordLog:
    """The lifecycle every log, view and cursor shares: ``flush()`` is a
    durability point, ``close()`` flushes, releases, and is idempotent."""

    def flush(self):
        pass

    def close(self):
        self.flush()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class JsonlLog(RecordLog):
    """The JSON-lines backend; its views lock around these calls."""

    backend = "jsonl"

    def __init__(self, path: str):
        self.path = path
        _make_parent(path)
        self._file = open(path, "a", encoding="utf-8")
        self._torn = _ends_mid_line(path)  # end it before the next append
        self._unsynced = False  # a line was appended since the last sync

    def _read(self) -> List[dict]:
        with open(self.path, "rb") as handle:
            return list(read_lines(handle))

    def _write(self, doc: dict):
        if self._torn:
            self._file.write("\n")
            self._torn = False
        self._file.write(json.dumps(doc, sort_keys=True) + "\n")
        self._file.flush()
        self._unsynced = True

    def _sync(self):
        """Fsync the lines appended since the last sync, if any."""
        if self._unsynced and not self._file.closed:
            self._file.flush()
            os.fsync(self._file.fileno())
            self._unsynced = False

    def _rewrite(self, docs: Iterable[dict]):
        if self._file.closed:
            return
        self._file.close()
        write_atomic(self.path, "".join(
            json.dumps(doc, sort_keys=True) + "\n" for doc in docs))
        self._file = open(self.path, "a", encoding="utf-8")
        self._torn = False
        self._unsynced = False  # write_atomic fsynced the new file

    def close(self):
        self._sync()
        self._file.close()


class SqliteLog(RecordLog):
    """The SQLite backend: *schema* runs (and commits) at open, writes
    batch until ``flush()`` commits; *readonly* opens ``mode=ro``, so a
    follower can never take the writer's lock."""

    backend = "sqlite"

    def __init__(self, path: str, schema: Sequence[str] = (),
                 readonly: bool = False):
        self.path = path
        if not readonly and path != ":memory:":
            _make_parent(path)
        self._lock = threading.Lock()
        self._closed = False
        self._conn = sqlite3.connect(
            f"file:{path}?mode=ro" if readonly else path, uri=readonly,
            check_same_thread=False)
        with self._conn:
            for statement in schema:
                self._conn.execute(statement)

    def _rows(self, query: str, params: Sequence = ()) -> list:
        with self._lock:
            return self._conn.execute(query, params).fetchall()

    def flush(self):
        with self._lock:
            if not self._closed:
                self._conn.commit()

    def close(self):
        with self._lock:
            if not self._closed:
                self._conn.commit()
                self._conn.close()
                self._closed = True


class Cursor(RecordLog):
    """Follow a durable seq-ordered log from another process.

    ``read()`` returns what became durable since the last call, in seq
    order, each document once; ``last_seq`` is the resume token.  JSON
    lines are followed by file offset, a line caught mid-write held
    back until its newline arrives; SQLite by seq over the event log's
    ``events`` table, read-only.  Missing or locked reads as nothing yet.
    """

    def __init__(self, path: str, since_seq: int = 0):
        self.path = path
        self.last_seq = since_seq
        self._sqlite = backend_for(path) == "sqlite"
        self._source = None
        self._partial = b""

    def read(self) -> List[dict]:
        fresh = []
        for doc in self._read_sqlite() if self._sqlite else self._read_jsonl():
            if is_event(doc) and doc["seq"] > self.last_seq:
                self.last_seq = doc["seq"]
                fresh.append(doc)
        return fresh

    def _read_jsonl(self) -> Iterable[dict]:
        if self._source is None:
            try:
                self._source = open(self.path, "rb")
            except FileNotFoundError:
                return ()
        lines = (self._partial + self._source.read()).split(b"\n")
        self._partial = lines.pop()  # b"" when the read ended on a newline
        return read_lines(lines)

    def _read_sqlite(self) -> Iterable[dict]:
        try:
            if self._source is None:
                self._source = SqliteLog(self.path, readonly=True)
            rows = self._source._rows(
                "SELECT doc FROM events WHERE seq > ? ORDER BY seq",
                (self.last_seq,))
        except sqlite3.OperationalError:
            return ()  # no database, no schema, or the writer's lock: yet
        return [json.loads(raw) for (raw,) in rows]

    def close(self):
        if self._source is not None:
            self._source.close()
            self._source = None
