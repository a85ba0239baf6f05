"""Append-only event log: the fleet's longitudinal memory.

The registry, protocol and campaign layers emit one document per
operational fact -- a device enrolled, a heartbeat verified, a device
quarantined, an offer answered, a wave committed, a campaign started
or ended, a violation delta folded -- and the log replays them later:
per-device timelines, per-campaign rollups, cross-campaign trends.
It is the one account of what the verifier observed: ``fleet status``
folds the events a fleet's log received since the fleet opened it
(:meth:`EventLog.fleet_rollup`), and ``fleet history`` folds the whole
log -- "what happened to this fleet, ever".

Event documents are flat and JSON-safe::

    {"seq": 17, "ts": 1754556000.0, "kind": "attest",
     "device": "dev-00003", "campaign": null, "data": {...}}

``seq`` is a per-log monotonic counter (the replay order), ``ts`` is
wall-clock, ``campaign`` tags events belonging to one rollout
(campaign ids are minted by :meth:`EventLog.start_campaign`).

Every event log is a seq-ordered view over the same record log as the
registry store (:mod:`repro.recordlog`: file formats, durability
points, the torn-line rule, and the path dispatch ``open_event_log``
shares with ``open_store``):

* :class:`MemoryEventLog` -- a list; the default, zero I/O.
* :class:`JsonlEventLog`  -- the same list over a JSON-lines log, one
  appended line per event.
* :class:`SqliteEventLog` -- one indexed table, inserts batched until
  ``flush()`` commits.

Durability rides the registry's: :meth:`~repro.fleet.registry.
FleetRegistry.flush` flushes its event log in the same call, so every
registry durability point (per attest sweep, per campaign wave) is an
event-log durability point too.
"""

import json
import threading
import time
from array import array
from bisect import bisect_right
from collections import Counter
from typing import Dict, Iterable, List, Optional

from repro.errors import ReproError
from repro.obs.bus import EventBus
from repro.recordlog import (
    JsonlLog, RecordLog, SqliteLog, is_event, open_view, read_lines)

__all__ = [
    "EVENT_KINDS",
    "EventLog",
    "JsonlEventLog",
    "MemoryEventLog",
    "ObsError",
    "SqliteEventLog",
    "open_event_log",
]


class ObsError(ReproError):
    """Event-log / metrics-layer failure."""


# The closed vocabulary of operational facts.  A closed set keeps the
# queries honest: a rollup can enumerate what it folds, and a typo'd
# kind fails at emit time instead of vanishing from every timeline.
EVENT_KINDS = (
    "enroll",
    "attest",
    "quarantine",
    "offer",
    "wave-commit",
    "campaign-start",
    "campaign-end",
    "violation-delta",
    "alert",
    "fault-inject",
    "fault-outcome",
    "analysis-finding",
)


class EventLog(RecordLog):
    """Backend contract + the query layer shared by every backend.

    Subclasses implement ``_append`` (store one document) and
    ``_scan`` (the documents in seq order, optionally only those past
    a seq), recover ``_seq`` at open, and may override :meth:`events`
    with an indexed scan.  ``flush()`` must be a durability point:
    every event emitted before it survives a kill after it.
    """

    backend = "abstract"

    def __init__(self):
        self._lock = threading.Lock()
        self._seq = 0
        # The live half: every stored document also fans out to this
        # bus's subscribers (alert engine, watchers).  Publication
        # happens OUTSIDE self._lock so a subscriber may emit follow-up
        # events (an alert) without deadlocking the log.
        self.bus = EventBus()

    # ---- emission --------------------------------------------------------

    def emit(self, kind: str, device: Optional[str] = None,
             campaign: Optional[str] = None, **data) -> dict:
        """Append one event; returns the stored document."""
        if kind not in EVENT_KINDS:
            raise ObsError(f"unknown event kind {kind!r}; "
                           f"one of {', '.join(EVENT_KINDS)}")
        with self._lock:
            self._seq += 1
            doc = {"seq": self._seq, "ts": time.time(), "kind": kind,
                   "device": device, "campaign": campaign, "data": data}
            self._append(doc)
        self.bus.publish(doc)
        return doc

    def start_campaign(self, **data) -> str:
        """Mint a campaign id and emit its ``campaign-start`` event.

        Ids are derived from the start event's own sequence number
        (``c<seq>``), so they are unique per log and sort in start
        order across process restarts without any extra state.
        """
        with self._lock:
            self._seq += 1
            campaign_id = f"c{self._seq}"
            doc = {"seq": self._seq, "ts": time.time(),
                   "kind": "campaign-start", "device": None,
                   "campaign": campaign_id, "data": data}
            self._append(doc)
        self.bus.publish(doc)
        return campaign_id

    def _append(self, doc: dict):
        raise NotImplementedError

    # ---- scanning --------------------------------------------------------

    def events(self, kind: Optional[str] = None, device: Optional[str] = None,
               campaign: Optional[str] = None,
               since: Optional[int] = None) -> List[dict]:
        """Every matching event in seq order (filters are ANDed)."""
        return [dict(doc) for doc in self._scan(since)
                if (kind is None or doc["kind"] == kind)
                and (device is None or doc["device"] == device)
                and (campaign is None or doc["campaign"] == campaign)]

    def _scan(self, since: Optional[int] = None) -> Iterable[dict]:
        raise NotImplementedError

    @property
    def last_seq(self) -> int:
        """The newest event's seq (0 for an empty log): the cursor to
        pass as ``since`` to read only what arrives after now."""
        return self._seq

    def tail(self, since_seq: int = 0) -> List[dict]:
        """Every event with ``seq > since_seq``, in seq order.

        The in-process follow cursor: call with the last seq you saw
        and you get exactly the events you missed, read from the seq
        position rather than by scanning the log.  (A *different*
        process follows the durable file instead, via
        :func:`repro.obs.bus.open_event_tail`.)
        """
        return self.events(since=since_seq)

    def has_campaign(self, campaign_id: str) -> bool:
        """Whether any event carries *campaign_id* (stops at the first).

        Its id is ``c<start seq>``, so only events from that seq on are
        scanned, and a malformed id is unknown without a scan.
        """
        start = campaign_start_seq(campaign_id)
        return start is not None and any(
            doc["campaign"] == campaign_id for doc in self._scan(start - 1))

    # ---- queries ---------------------------------------------------------

    def device_timeline(self, device_id: str) -> List[dict]:
        """Every event about one device, oldest first."""
        return self.events(device=device_id)

    def device_rollup(self) -> Dict[str, dict]:
        """Per-device triage summary folded from the whole log.

        ``last_seen_ts`` is the newest event about the device,
        ``quarantine_reason`` the most recent quarantine's reason (None
        for healthy devices), ``campaigns`` the number of distinct
        campaigns that offered to it -- the exit-code-2 triage view,
        answerable without re-running any attestation.
        """
        rollup: Dict[str, dict] = {}
        for doc in self._scan():
            device_id = doc["device"]
            if device_id is None:
                continue
            entry = rollup.get(device_id)
            if entry is None:
                entry = rollup[device_id] = {
                    "first_seen_ts": doc["ts"],
                    "last_seen_ts": doc["ts"],
                    "last_seen_seq": doc["seq"],
                    "events": 0,
                    "attests": 0,
                    "attest_failures": 0,
                    "offers": 0,
                    "campaigns": 0,
                    "quarantine_reason": None,
                    "violations": 0,
                    "_campaigns": set(),
                }
            entry["events"] += 1
            entry["last_seen_ts"] = doc["ts"]
            entry["last_seen_seq"] = doc["seq"]
            kind = doc["kind"]
            data = doc["data"]
            if kind == "attest":
                entry["attests"] += 1
                if not data.get("ok", False):
                    entry["attest_failures"] += 1
            elif kind == "offer":
                entry["offers"] += 1
                if doc["campaign"] is not None:
                    entry["_campaigns"].add(doc["campaign"])
            elif kind == "quarantine":
                entry["quarantine_reason"] = data.get("reason", "")
            elif kind == "violation-delta":
                entry["violations"] += sum(
                    count for count in data.get("deltas", {}).values())
        for entry in rollup.values():
            entry["campaigns"] = len(entry.pop("_campaigns"))
        return rollup

    def fleet_rollup(self, since: Optional[int] = None) -> dict:
        """What the verifier observed across the fleet, folded from the
        events past seq *since* (all of them by default).

        ``attest`` events count by outcome (their ``detail``, or
        ``ok``) and add their ``malformed`` violation-total entries;
        ``offer`` events count by status label; both add their
        round-trip attempts to one histogram; ``violation-delta``
        events add their per-reason deltas and resets.  Mappings keep
        the order in which their keys first appeared.
        """
        outcomes, statuses, violations, attempts = (
            Counter(), Counter(), Counter(), Counter())
        attestations = resets = malformed = 0
        for doc in self._scan(since):
            kind = doc["kind"]
            data = doc["data"]
            if kind == "attest":
                attestations += 1
                outcomes[data.get("detail") or "ok"] += 1
                attempts[data.get("attempts", 0)] += 1
                malformed += data.get("malformed", 0)
            elif kind == "offer":
                statuses[data.get("status", "unreachable")] += 1
                attempts[data.get("attempts", 0)] += 1
            elif kind == "violation-delta":
                violations.update(data.get("deltas", {}))
                resets += data.get("resets", 0)
        return {
            "attestations": attestations,
            "attest_outcomes": dict(outcomes),
            "update_statuses": dict(statuses),
            "violations": dict(violations),
            "resets": resets,
            "malformed_totals": malformed,
            "attempts": dict(attempts),
        }

    def campaign_rollup(self, campaign: Optional[str] = None) -> List[dict]:
        """One summary per campaign, in start order.

        Folds the campaign's start/end bracket, its offer outcomes by
        status label, its wave commits, and every quarantine tagged
        with its id (incl. the per-reason breakdown the security triage
        wants).  With *campaign*, folds that campaign alone: its id is
        ``c<start seq>``, so only events from its start on are scanned,
        and the list holds its one entry, or none for an unknown or
        malformed id.
        """
        if campaign is None:
            docs = self._scan()
        else:
            start = campaign_start_seq(campaign)
            if start is None:
                return []
            docs = self.events(campaign=campaign, since=start - 1)
        campaigns: Dict[str, dict] = {}
        for doc in docs:
            campaign_id = doc["campaign"]
            if campaign_id is None:
                continue
            entry = campaigns.get(campaign_id)
            if entry is None:
                if campaign_start_seq(campaign_id) is None:
                    continue  # not an id start_campaign minted
                entry = campaigns[campaign_id] = {
                    "campaign": campaign_id,
                    "target_version": None,
                    "started_ts": None,
                    "ended_ts": None,
                    "status": None,
                    "offers": {},
                    "applied": 0,
                    "failed": 0,
                    "skipped": 0,
                    "resumed": 0,
                    "waves": 0,
                    "quarantined": 0,
                    "quarantine_reasons": {},
                    "alerts": 0,
                    "alert_rules": {},
                    "devices_per_sec": None,
                    "elapsed_s": None,
                }
            kind = doc["kind"]
            data = doc["data"]
            if kind == "campaign-start":
                entry["started_ts"] = doc["ts"]
                entry["target_version"] = data.get("target_version")
            elif kind == "campaign-end":
                entry["ended_ts"] = doc["ts"]
                entry["status"] = data.get("status")
                entry["applied"] = data.get("applied", 0)
                entry["failed"] = data.get("failed", 0)
                entry["skipped"] = data.get("skipped", 0)
                entry["resumed"] = data.get("resumed", 0)
                entry["devices_per_sec"] = data.get("devices_per_sec")
                entry["elapsed_s"] = data.get("elapsed_s")
            elif kind == "offer":
                label = data.get("status", "unreachable")
                entry["offers"][label] = entry["offers"].get(label, 0) + 1
            elif kind == "wave-commit":
                entry["waves"] += 1
            elif kind == "quarantine":
                entry["quarantined"] += 1
                reason = data.get("reason", "")
                reasons = entry["quarantine_reasons"]
                reasons[reason] = reasons.get(reason, 0) + 1
            elif kind == "alert":
                entry["alerts"] += 1
                rule = data.get("rule", "")
                rules = entry["alert_rules"]
                rules[rule] = rules.get(rule, 0) + 1
        return sorted(campaigns.values(),
                      key=lambda entry: campaign_start_seq(entry["campaign"]))

    def trends(self) -> dict:
        """Cross-campaign series (one entry per campaign, start order).

        Always well-formed: an empty log yields empty (not missing)
        series, and a campaign without an end event yet -- in flight,
        or killed mid-run -- contributes ``0.0`` throughput rather
        than ``None`` so the series stay numeric and plottable.
        """
        rollups = self.campaign_rollup()
        return {
            "campaigns": [entry["campaign"] for entry in rollups],
            "target_versions": [entry["target_version"] for entry in rollups],
            "devices_per_sec": [entry["devices_per_sec"] or 0.0
                                for entry in rollups],
            "applied": [entry["applied"] for entry in rollups],
            "failed": [entry["failed"] for entry in rollups],
            "quarantined": [entry["quarantined"] for entry in rollups],
            "alerts": [entry["alerts"] for entry in rollups],
        }


def campaign_start_seq(campaign_id: str) -> Optional[int]:
    """The seq of a ``c<seq>`` campaign id's start event, else None.
    No stored seq exceeds 2**63 - 1 (:func:`~repro.recordlog.is_event`),
    so a run of more than 19 digits names no campaign."""
    digits = campaign_id[1:]
    if (campaign_id[:1] != "c" or len(digits) > 19
            or not (digits.isascii() and digits.isdigit())):
        return None
    return int(digits)


class MemoryEventLog(EventLog):
    """List-backed log: the in-process default, zero I/O."""

    backend = "memory"

    def __init__(self):
        super().__init__()
        self._events: List[dict] = []
        self._seqs = array("q")  # emission appends in seq order: bisect it

    def _append(self, doc: dict):
        self._events.append(doc)
        self._seqs.append(doc["seq"])

    def _scan(self, since: Optional[int] = None):
        if since is None:
            return self._events
        return self._events[bisect_right(self._seqs, since):]


class JsonlEventLog(JsonlLog, EventLog):
    """A JSON-lines log, one line per event, read back from the file:
    memory keeps each event's seq and the offset its line ends at, so a
    long-running verifier's footprint does not grow with its history.
    A stored line counts only when it is a whole event
    (:func:`~repro.recordlog.is_event`) whose seq exceeds the last one
    counted -- the rule :meth:`repro.recordlog.Cursor.read` applies --
    so the seqs read back always ascend and the next one emitted is one
    past the highest.  The log is append-only by nature, so unlike the
    registry's JsonlStore there is nothing to compact -- growth is the
    point.
    """

    def __init__(self, path: str):
        EventLog.__init__(self)
        JsonlLog.__init__(self, path)
        self._seqs, self._ends = array("q"), array("q")
        with open(path, "rb") as handle:
            for line in handle:
                for doc in read_lines((line,)):
                    if is_event(doc) and doc["seq"] > self._seq:
                        self._seq = doc["seq"]
                        self._seqs.append(self._seq)
                        self._ends.append(handle.tell())

    def _append(self, doc: dict):
        self._write(doc)
        self._seqs.append(doc["seq"])
        self._ends.append(self._file.buffer.tell())  # _write flushed

    def _scan(self, since: Optional[int] = None) -> List[dict]:
        with self._lock:
            first = 0 if since is None else bisect_right(self._seqs, since)
            if first == len(self._seqs):
                return []
            start, last = ((self._ends[first - 1], self._seqs[first - 1])
                           if first else (0, 0))
            end = self._ends[-1]  # every line before it is whole
        with open(self.path, "rb") as handle:
            handle.seek(start)
            lines = handle.read(end - start).split(b"\n")
        docs = []
        for doc in read_lines(lines):  # the index's rule, from *start* on
            if is_event(doc) and doc["seq"] > last:
                last = doc["seq"]
                docs.append(doc)
        return docs

    def flush(self):
        with self._lock:
            self._sync()


class SqliteEventLog(SqliteLog, EventLog):
    """SQLite-backed log: inserts batched until ``flush()`` commits.

    The scale backend: events stay on disk, not in a Python list, and
    :meth:`events` filters with indexed SQL.  The uncommitted window
    matches the registry's (campaigns flush both per wave).
    """

    SCHEMA = (
        "CREATE TABLE IF NOT EXISTS events ("
        " seq INTEGER PRIMARY KEY, ts REAL NOT NULL,"
        " kind TEXT NOT NULL, device TEXT, campaign TEXT,"
        " doc TEXT NOT NULL)",
        "CREATE INDEX IF NOT EXISTS events_device ON events (device)",
        "CREATE INDEX IF NOT EXISTS events_campaign ON events (campaign)",
    )

    def __init__(self, path: str):
        EventLog.__init__(self)
        SqliteLog.__init__(self, path, self.SCHEMA)
        last = self._rows("SELECT MAX(seq) FROM events")[0][0]
        self._seq = int(last) if last is not None else 0

    def _append(self, doc: dict):
        self._conn.execute(
            "INSERT INTO events (seq, ts, kind, device, campaign, doc)"
            " VALUES (?, ?, ?, ?, ?, ?)",
            (doc["seq"], doc["ts"], doc["kind"], doc["device"],
             doc["campaign"], json.dumps(doc, sort_keys=True)))

    def events(self, kind: Optional[str] = None, device: Optional[str] = None,
               campaign: Optional[str] = None,
               since: Optional[int] = None) -> List[dict]:
        clauses, params = [], []
        for column, value in (("kind", kind), ("device", device),
                              ("campaign", campaign)):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        if since is not None:
            clauses.append("seq > ?")
            params.append(since)
        query = "SELECT doc FROM events"
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY seq"
        return [json.loads(row[0]) for row in self._rows(query, params)]

    def _scan(self, since: Optional[int] = None):
        return self.events(since=since)

    def has_campaign(self, campaign_id: str) -> bool:
        start = campaign_start_seq(campaign_id)
        return start is not None and bool(self._rows(
            "SELECT 1 FROM events WHERE campaign = ? AND seq >= ? LIMIT 1",
            (campaign_id, start)))


def open_event_log(path: Optional[str]) -> EventLog:
    """Pick a backend from *path*: memory, SQLite, or JSON lines."""
    return open_view(path, MemoryEventLog, JsonlEventLog, SqliteEventLog)
