"""The one record log under the registry store, the event log and tails.

The properties this file guards:

* the torn-line rule: a writer reopening a JSON-lines file whose last
  line a kill tore ends the fragment before its first append, so what
  it writes after the restart survives the next kill -- in the
  registry store, the event log and a live tail alike -- and the file
  never shrinks under a tail;
* every reader skips any line that is not a complete JSON object, and
  every event reader any object that is not a whole event;
* the in-process tail is a cursor read that returns exactly what the
  full ``since`` query does, on every backend, across a reopen, and
  under concurrent emitters; the memory store loads while threads save;
* the path dispatch, the atomic rewrite and the on-disk formats
  (JSON-line shapes, SQLite tables) stay what earlier builds wrote.
"""

import json
import os
import sqlite3
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.fleet import JsonlStore, MemoryStore, SqliteStore
from repro.obs import (
    EVENT_KINDS,
    JsonlEventLog,
    MemoryEventLog,
    SqliteEventLog,
    open_event_log,
    open_event_tail,
)
from repro.recordlog import Cursor, backend_for, read_lines, write_atomic

TORN_RECORD = '{"kind": "record", "device_id": "t'
TORN_EVENT = '{"seq": 2, "kind": "att'


def record(device_id, **fields):
    return {"device_id": device_id, "key": "00" * 16, **fields}


def make_log(kind, tmp_path):
    if kind == "memory":
        return MemoryEventLog()
    if kind == "jsonl":
        return JsonlEventLog(str(tmp_path / "events.jsonl"))
    return SqliteEventLog(str(tmp_path / "events.db"))


def append_raw(path, text):
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(text)


# ---- the torn-line rule ------------------------------------------------------


class TestTornTail:
    def test_store_save_after_a_torn_restart_survives_the_next_kill(
            self, tmp_path):
        path = str(tmp_path / "fleet.jsonl")
        store = JsonlStore(path)
        store.save_record(record("a"))
        store.close()
        append_raw(path, TORN_RECORD)  # killed mid-append
        restarted = JsonlStore(path)
        restarted.save_record(record("b", nonce_high_water=7))
        restarted.flush()
        # Killed again: the next process reads the file as it stands,
        # without the compaction a clean close() would run first.
        survivor = JsonlStore(path)
        assert sorted(survivor.load_records()) == ["a", "b"]
        assert survivor.load_records()["b"]["nonce_high_water"] == 7
        survivor.close()
        restarted.close()

    def test_event_after_a_torn_restart_survives_the_next_kill(
            self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = JsonlEventLog(path)
        log.emit("enroll", device="d1")
        log.close()
        append_raw(path, TORN_EVENT)
        restarted = JsonlEventLog(path)
        restarted.emit("attest", device="d1", ok=True)
        restarted.flush()
        survivor = JsonlEventLog(path)
        assert [(doc["seq"], doc["kind"]) for doc in survivor.events()] \
            == [(1, "enroll"), (2, "attest")]
        survivor.close()
        restarted.close()

    def test_tail_delivers_the_first_event_after_a_torn_restart(
            self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = open_event_log(path)
        log.emit("enroll", device="d1")
        log.close()
        append_raw(path, TORN_EVENT)
        with open_event_tail(path) as tail:
            assert [doc["seq"] for doc in tail.read()] == [1]
            restarted = open_event_log(path)
            restarted.emit("attest", device="d1", ok=True)
            restarted.flush()
            assert [(doc["seq"], doc["kind"]) for doc in tail.read()] \
                == [(2, "attest")]
            restarted.close()

    def test_fragment_is_terminated_never_truncated(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = JsonlEventLog(path)
        log.emit("enroll", device="d1")
        log.close()
        append_raw(path, TORN_EVENT)
        with open(path, "rb") as handle:
            before = handle.read()
        reopened = JsonlEventLog(path)
        with open(path, "rb") as handle:
            assert handle.read() == before  # opening alone writes nothing
        reopened.emit("attest", device="d1", ok=True)
        reopened.close()
        with open(path, "rb") as handle:
            after = handle.read()
        assert after.startswith(before + b"\n")
        assert after.count(b"\n") == 3


# ---- one rule for every reader -------------------------------------------------


NON_OBJECTS = (b"[1, 2]", b"7", b'"x"', b"null", b"\xff\xfe{garbage")


def _store_reader(path):
    store = JsonlStore(path)
    try:
        return sorted(store.load_records())
    finally:
        store.close()


def _event_log_reader(path):
    log = JsonlEventLog(path)
    try:
        return [doc["seq"] for doc in log.events()]
    finally:
        log.close()


def _tail_reader(path):
    with open_event_tail(path) as tail:
        return [doc["seq"] for doc in tail.read()]


def event(seq, **fields):
    """A whole event document (see :func:`repro.recordlog.is_event`)."""
    return {"seq": seq, "ts": 0.0, "kind": "enroll", "device": None,
            "campaign": None, "data": {}, **fields}


READERS = {
    "store": (_store_reader, [record("a"), record("b")], ["a", "b"]),
    "event-log": (_event_log_reader, [event(1), event(2)], [1, 2]),
    "tail": (_tail_reader, [event(1), event(2)], [1, 2]),
}


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("line", NON_OBJECTS)
def test_every_reader_skips_lines_that_are_not_json_objects(
        tmp_path, reader, line):
    read, (first, second), expected = READERS[reader]
    path = str(tmp_path / "log.jsonl")
    with open(path, "wb") as handle:
        handle.write(json.dumps(first).encode() + b"\n" + line + b"\n"
                     + json.dumps(second).encode() + b"\n")
    assert read(path) == expected


def test_read_lines_skips_blank_torn_and_garbage_lines():
    lines = [b'{"a": 1}\n', b"", b"  \r\n", b'{"b": 2}', b"\xff{", b'{"c"']
    assert list(read_lines(lines)) == [{"a": 1}, {"b": 2}]


# Right-typed and wrongly typed values for each event field; ``data``
# is only ever an empty object, since how the rollups read the fields
# inside it is another boundary.
JUNK = (st.none() | st.booleans() | st.integers() | st.floats()
        | st.text(max_size=4) | st.lists(st.integers(), max_size=2))
EVENT_FIELDS = {
    "seq": st.integers(-2 ** 64, 2 ** 64) | JUNK,
    "ts": st.floats() | st.integers() | JUNK,
    "kind": st.sampled_from(EVENT_KINDS) | JUNK,
    "device": st.sampled_from((None, "d1")) | JUNK,
    "campaign": st.sampled_from((None, "c1", "c9", "x")) | JUNK,
    "data": st.just({}) | JUNK,
}
STORED_LINES = st.one_of(
    st.builds(lambda doc, drop: {key: value for key, value in doc.items()
                                 if key != drop},
              st.fixed_dictionaries(EVENT_FIELDS, optional={"other": JUNK}),
              st.sampled_from((None, *EVENT_FIELDS))),
    st.dictionaries(st.sampled_from(sorted(EVENT_FIELDS)), JUNK, max_size=3),
)


def test_readers_skip_stored_lines_that_are_not_whole_events(tmp_path):
    """Whatever JSON objects land in an event log's file, its rollups
    and a tail of it raise nothing, and the events the log wrote come
    back first, unchanged."""
    path = str(tmp_path / "events.jsonl")

    @settings(max_examples=150, derandomize=True, database=None,
              deadline=None)
    @given(lines=st.lists(STORED_LINES, min_size=1, max_size=4))
    def readers_skip(lines):
        if os.path.exists(path):
            os.remove(path)
        with JsonlEventLog(path) as log:
            campaign = log.start_campaign(target_version=1)
            log.emit("offer", device="d1", campaign=campaign,
                     status="applied")
            log.emit("violation-delta", device="d1", deltas={"x": 1})
            written = log.events()
        append_raw(path, "".join(json.dumps(line) + "\n" for line in lines))
        with JsonlEventLog(path) as log:
            log.device_rollup()
            log.fleet_rollup()
            log.campaign_rollup()
            assert log.events()[:3] == written
        with open_event_tail(path) as tail:
            assert tail.read()[:3] == written

    readers_skip()


# ---- the in-process tail -------------------------------------------------------


@pytest.mark.parametrize("kind", ("memory", "jsonl", "sqlite"))
def test_tail_matches_the_since_query(tmp_path, kind):
    log = make_log(kind, tmp_path)
    campaign = log.start_campaign(target_version=1)
    for n in range(40):
        log.emit("offer", device=f"d{n}", campaign=campaign, status="applied")
    log.flush()
    for since in (0, 1, 17, 40, 41, 42):
        assert log.tail(since) == log.events(since=since)
    assert [doc["seq"] for doc in log.tail(38)] == [39, 40, 41]
    if kind == "memory":
        return
    log.close()
    if kind == "jsonl":
        append_raw(log.path, TORN_EVENT)
    reopened = open_event_log(log.path)
    reopened.emit("attest", device="d0", ok=True)
    for since in (0, 40, 41, 42):
        assert reopened.tail(since) == reopened.events(since=since)
    assert [doc["kind"] for doc in reopened.tail(41)] == ["attest"]
    reopened.close()


@pytest.mark.parametrize("kind", ("memory", "jsonl"))
def test_tail_under_concurrent_emitters_delivers_every_seq_once(
        tmp_path, kind):
    log = make_log(kind, tmp_path)
    writers, per_writer = 6, 300
    seen = []
    done = threading.Event()

    def emit():
        for n in range(per_writer):
            log.emit("attest", device=f"d{n}", ok=True)

    def follow():
        cursor = 0
        while not done.is_set() or log.tail(cursor):
            docs = log.tail(cursor)
            if docs:
                cursor = docs[-1]["seq"]
                seen.extend(doc["seq"] for doc in docs)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        reader = threading.Thread(target=follow)
        threads = [threading.Thread(target=emit) for _ in range(writers)]
        reader.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        done.set()
        reader.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not reader.is_alive()
    assert not any(thread.is_alive() for thread in threads)
    assert seen == list(range(1, writers * per_writer + 1))
    log.close()


def test_memory_store_loads_while_threads_save():
    store = MemoryStore()
    failures = []

    def save(worker):
        for n in range(500):
            store.save_record(record(f"w{worker}-{n}"))

    def load():
        try:
            for _ in range(200):
                store.load_records()
        except RuntimeError as error:  # dict changed size during iteration
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=save, args=(worker,))
                   for worker in range(4)] + [threading.Thread(target=load)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures
    assert len(store.load_records()) == 4 * 500


@pytest.mark.parametrize("kind", ("memory", "jsonl", "sqlite"))
def test_has_campaign(tmp_path, kind):
    log = make_log(kind, tmp_path)
    log.emit("enroll", device="d1")
    started = log.start_campaign(target_version=1)
    log.emit("alert", campaign="c3", rule="x")  # tagged, never started
    assert log.has_campaign(started) and log.has_campaign("c3")
    assert not log.has_campaign("c1")
    # A tag before its id's start seq cannot belong to it, and a
    # malformed id is never one.
    log.emit("alert", campaign="c9", rule="x")
    log.emit("alert", campaign="bogus", rule="x")
    assert not log.has_campaign("c9") and not log.has_campaign("bogus")
    log.close()


@pytest.mark.parametrize("kind", ("memory", "jsonl"))
def test_has_campaign_scans_from_the_start_seq(tmp_path, kind):
    log = make_log(kind, tmp_path)
    for index in range(40):
        log.emit("enroll", device=f"d{index}")
    started = log.start_campaign(target_version=1)
    log.emit("offer", device="d1", campaign=started, status="applied")
    scanned = []
    scan = log._scan
    log._scan = lambda since=None: (scanned.append(since) or scan(since))
    start = int(started[1:])
    assert log.has_campaign(started)
    assert not log.has_campaign(f"c{start + 5}")
    assert not log.has_campaign("bogus") and not log.has_campaign("c")
    assert scanned == [start - 1, start + 4]
    log.close()


def test_a_stored_seq_that_does_not_ascend_counts_for_nothing(tmp_path):
    """A whole event whose seq does not exceed the last one read back
    is skipped, as a Cursor skips it: the next emit continues past the
    highest seq, and ``tail`` and ``since`` read seqs in order."""
    path = tmp_path / "events.jsonl"
    log = JsonlEventLog(str(path))
    first = log.emit("enroll", device="d1")
    log.emit("enroll", device="d2")
    log.emit("enroll", device="d3")
    log.close()
    append_raw(path, json.dumps(first) + "\n")
    log = JsonlEventLog(str(path))
    assert log.emit("attest", device="d1", ok=True)["seq"] == 4
    assert [doc["seq"] for doc in log.tail(3)] == [4]
    assert [doc["seq"] for doc in log.events(since=2)] == [3, 4]
    assert [doc["seq"] for doc in log.events()] == [1, 2, 3, 4]
    log.close()
    cursor = Cursor(str(path))
    assert [doc["seq"] for doc in cursor.read()] == [1, 2, 3, 4]
    cursor.close()


@pytest.mark.parametrize("kind", ("memory", "jsonl", "sqlite"))
def test_single_campaign_rollup_is_its_full_rollup_entry(tmp_path, kind):
    # Two interleaved campaigns, the second resumed across a reopen of
    # the log, and a third still in flight; untagged events between.
    log = make_log(kind, tmp_path)
    log.emit("enroll", device="d1")
    first = log.start_campaign(target_version=1)
    second = log.start_campaign(target_version=2)
    for wave in range(3):
        device = f"d{wave}"
        log.emit("offer", device=device, campaign=first, status="applied")
        log.emit("offer", device=device, campaign=second,
                 status="rejected-bad-mac")
        log.emit("quarantine", device=device, campaign=second,
                 reason="bad-mac")
        log.emit("wave-commit", campaign=first, index=wave)
        log.emit("attest", device="d9", ok=True)
    log.emit("alert", campaign=second, rule="replay-burst")
    log.emit("campaign-end", campaign=first, status="complete", applied=3)
    if kind != "memory":
        log.close()
        log = make_log(kind, tmp_path)
    log.emit("offer", device="d5", campaign=second, status="applied")
    log.emit("campaign-end", campaign=second, status="complete",
             applied=1, resumed=3)
    in_flight = log.start_campaign(target_version=3)
    log.emit("offer", device="d1", campaign=in_flight, status="applied")

    full = log.campaign_rollup()
    assert [entry["campaign"] for entry in full] == \
        [first, second, in_flight]
    for entry in full:
        assert log.campaign_rollup(entry["campaign"]) == [entry]
    for unknown in ("c1", "c999", "c", "x2", "c-2", "c2.0", "C2", "",
                    "c\u0662"):
        assert log.campaign_rollup(unknown) == []
    log.close()


# ---- dispatch, rewrite, formats -------------------------------------------------


def test_backend_for_dispatches_on_the_path():
    assert backend_for(None) == backend_for(":memory:") == "memory"
    for path in ("a.db", "a.sqlite", "a.sqlite3"):
        assert backend_for(path) == "sqlite"
    for path in ("a.jsonl", "a.log", "a.db.jsonl", "a"):
        assert backend_for(path) == "jsonl"


def test_jsonl_flush_fsyncs_only_what_was_appended(tmp_path, monkeypatch):
    synced = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync",
                        lambda fd: (synced.append(fd), real_fsync(fd)))
    store = JsonlStore(str(tmp_path / "fleet.jsonl"))
    log = JsonlEventLog(str(tmp_path / "events.jsonl"))
    store.flush()
    log.flush()
    assert synced == []  # nothing appended yet
    store.save_record(record("a"))
    log.emit("enroll", device="a")
    store.flush()
    log.flush()
    assert len(synced) == 2
    store.flush()
    log.flush()
    assert len(synced) == 2  # nothing appended since
    store.save_record(record("a", attest_count=1))
    store.compact()  # the atomic rewrite fsyncs what it writes
    assert len(synced) == 3
    store.flush()
    assert len(synced) == 3
    store.close()
    log.close()
    assert len(synced) == 3  # nothing to compact or sync at close
    with JsonlStore(str(tmp_path / "fleet.jsonl")) as reopened:
        assert reopened.load_records()["a"] == record("a", attest_count=1)


def test_jsonl_close_compacts_only_a_redundant_log(tmp_path, monkeypatch):
    path = str(tmp_path / "fleet.jsonl")
    rewrites = []
    real_replace = os.replace
    monkeypatch.setattr(os, "replace", lambda *paths: (
        rewrites.append(paths), real_replace(*paths)))

    def lines():
        with open(path, encoding="utf-8") as handle:
            return [json.loads(line) for line in handle]

    store = JsonlStore(path)
    store.save_record(record("a"))
    store.save_record(record("b"))
    store.close()  # one line per live document already
    assert rewrites == []
    assert [line["device_id"] for line in lines()] == ["a", "b"]
    store = JsonlStore(path)
    store.save_record(record("a", attest_count=1))
    store.close()  # a's first line is dead now: the log is rewritten
    assert len(rewrites) == 1
    assert sorted((line["device_id"], line.get("attest_count"))
                  for line in lines()) == [("a", 1), ("b", None)]


def test_write_atomic_replaces_the_file_and_leaves_no_temp(tmp_path):
    path = str(tmp_path / "nested" / "out.json")
    write_atomic(path, "old\n")
    write_atomic(path, "new\n")
    with open(path, encoding="utf-8") as handle:
        assert handle.read() == "new\n"
    assert os.listdir(tmp_path / "nested") == ["out.json"]


def test_jsonl_line_shapes_are_unchanged(tmp_path):
    store = JsonlStore(str(tmp_path / "fleet.jsonl"))
    store.save_record(record("a", nonce_high_water=3))
    store.save_meta({"clock": 2})
    log = JsonlEventLog(str(tmp_path / "events.jsonl"))
    doc = log.emit("enroll", device="a")
    store.flush()
    log.flush()
    with open(store.path, encoding="utf-8") as handle:
        assert handle.read().splitlines() == [
            json.dumps({"kind": "record", **record("a", nonce_high_water=3)},
                       sort_keys=True),
            json.dumps({"kind": "meta", "clock": 2}, sort_keys=True)]
    with open(log.path, encoding="utf-8") as handle:
        assert handle.read().splitlines() == [json.dumps(doc, sort_keys=True)]
    store.close()
    log.close()


def test_sqlite_tables_are_unchanged(tmp_path):
    SqliteStore(str(tmp_path / "fleet.db")).close()
    SqliteEventLog(str(tmp_path / "events.db")).close()

    def columns(path):
        conn = sqlite3.connect(path)
        try:
            tables = [name for (name,) in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
                " ORDER BY name")]
            return {table: [row[1] for row in conn.execute(
                f"PRAGMA table_info({table})")] for table in tables}
        finally:
            conn.close()

    assert columns(str(tmp_path / "fleet.db")) == {
        "meta": ["id", "doc"], "records": ["device_id", "doc"]}
    assert columns(str(tmp_path / "events.db")) == {
        "events": ["seq", "ts", "kind", "device", "campaign", "doc"]}
