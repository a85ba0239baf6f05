"""Append-only event log: the fleet's longitudinal memory.

The registry, protocol and campaign layers emit one document per
operational fact -- a device enrolled, a heartbeat verified, a device
quarantined, an offer answered, a wave committed, a campaign started
or ended, a violation delta folded -- and the log replays them later:
per-device timelines, per-campaign rollups, cross-campaign trends.
One-shot aggregates (``FleetTelemetry``) answer "what happened this
process"; the event log answers "what happened to this fleet, ever".

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
from typing import Dict, Iterable, List, Optional

from repro.errors import ReproError
from repro.obs.bus import EventBus
from repro.recordlog import JsonlLog, RecordLog, SqliteLog, open_view

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
        """Whether any event carries *campaign_id* (stops at the first)."""
        return any(doc["campaign"] == campaign_id for doc in self._scan())

    def __len__(self):
        return len(self.events())

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
            start = _campaign_start_seq(campaign)
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
                entry = campaigns[campaign_id] = {
                    "campaign": campaign_id,
                    "target_version": None,
                    "backend": None,
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
                entry["backend"] = data.get("backend")
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
                      key=lambda entry: int(entry["campaign"][1:]))

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


def _campaign_start_seq(campaign_id: str) -> Optional[int]:
    """The seq of a ``c<seq>`` campaign id's start event, else None."""
    digits = campaign_id[1:]
    if campaign_id[:1] != "c" or not (digits.isascii() and digits.isdigit()):
        return None
    return int(digits)


class MemoryEventLog(EventLog):
    """List-backed log: the in-process default, zero I/O."""

    backend = "memory"

    def __init__(self):
        super().__init__()
        self._events: List[dict] = []

    def _append(self, doc: dict):
        self._events.append(doc)

    def _scan(self, since: Optional[int] = None):
        events = self._events
        if since is None:
            return events
        # Emission appends in seq order, so binary-search the first
        # event past *since* (bisect has no key= before Python 3.10).
        low, high = 0, len(events)
        while low < high:
            middle = (low + high) // 2
            if events[middle]["seq"] > since:
                high = middle
            else:
                low = middle + 1
        return events[low:]


class JsonlEventLog(JsonlLog, MemoryEventLog):
    """The memory log's list over a JSON-lines log, one line per event.

    The log is append-only by nature (events never rewrite), so unlike
    the registry's JsonlStore there is nothing to compact -- growth is
    the point.
    """

    def __init__(self, path: str):
        MemoryEventLog.__init__(self)
        JsonlLog.__init__(self, path)
        self._events = [doc for doc in self._read() if "seq" in doc]
        if self._events:
            self._seq = self._events[-1]["seq"]

    def _append(self, doc: dict):
        self._events.append(doc)
        self._write(doc)

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
        return bool(self._rows(
            "SELECT 1 FROM events WHERE campaign = ? LIMIT 1",
            (campaign_id,)))


def open_event_log(path: Optional[str]) -> EventLog:
    """Pick a backend from *path*: memory, SQLite, or JSON lines."""
    return open_view(path, MemoryEventLog, JsonlEventLog, SqliteEventLog)
