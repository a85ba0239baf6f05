"""Observability: stored history, live streams, alerts, exporters.

Four pieces, all consumed by the fleet stack and the scenario API:

* :mod:`repro.obs.events`  -- the append-only event log that
  registry, protocol and campaign layers write their operational facts
  to, and that ``fleet history`` replays into timelines, rollups and
  trends: a seq-ordered view (memory / JSONL / SQLite behind
  ``open_event_log``) over the same record log as the registry store,
  :mod:`repro.recordlog`.
* :mod:`repro.obs.bus`     -- the live half: every log fans its
  emissions out on an in-process :class:`EventBus`, and a second
  process follows the durable file with an ``open_event_tail``
  cursor over that record log (what ``fleet watch --follow`` polls).
  A line a kill tore is skipped by every reader and ended on the
  writer's next append, so no later event is lost to it.
* :mod:`repro.obs.alerts`  -- declarative rules over sliding event
  windows (quarantine-rate, wave-stall, violation-surge,
  replay-burst) firing ``alert`` events back into the same log.
* :mod:`repro.obs.metrics` / :mod:`repro.obs.export` -- the
  process-global :class:`MetricsRegistry` of counters / gauges /
  histograms plus causal span trees (near-zero disabled path), and
  its Prometheus / JSON exporters.
"""

from repro.obs.alerts import AlertEngine, AlertRule, build_rules, default_rules
from repro.obs.bus import EventBus, EventTail, open_event_tail
from repro.obs.events import (
    EVENT_KINDS,
    EventLog,
    JsonlEventLog,
    MemoryEventLog,
    ObsError,
    SqliteEventLog,
    open_event_log,
)
from repro.obs.export import (
    parse_prometheus,
    to_json_doc,
    to_prometheus,
    write_snapshot,
)
from repro.obs.metrics import METRICS, Histogram, MetricsRegistry, get_metrics

__all__ = [
    "EVENT_KINDS",
    "AlertEngine",
    "AlertRule",
    "EventBus",
    "EventLog",
    "EventTail",
    "Histogram",
    "JsonlEventLog",
    "METRICS",
    "MemoryEventLog",
    "MetricsRegistry",
    "ObsError",
    "SqliteEventLog",
    "build_rules",
    "default_rules",
    "get_metrics",
    "open_event_log",
    "open_event_tail",
    "parse_prometheus",
    "to_json_doc",
    "to_prometheus",
    "write_snapshot",
]
