"""Metrics exporters: Prometheus text format and JSON snapshots.

The bridge from the in-process :class:`~repro.obs.metrics.
MetricsRegistry` to anything outside it.  Two formats, one source of
truth (``registry.snapshot()``):

* :func:`to_prometheus` -- the Prometheus text exposition format
  (``# TYPE`` lines plus ``name value`` samples).  Counters and
  gauges map directly; histograms export as summaries
  (``_count``/``_sum``) plus ``_min``/``_max``/``_mean`` gauges,
  which is everything the count/total/min/max histogram carries.
  Metric names are prefixed (``eilid_`` by default) and sanitised to
  the Prometheus grammar.
* :func:`to_json_doc` -- the snapshot wrapped in the repo's usual
  schema/version envelope shape, for files and ``--json`` pipes.

:func:`parse_prometheus` is the matching line-format lint: it parses
an exposition back into ``{name: [(labels, value), ...]}`` and raises
:class:`~repro.obs.events.ObsError` on any malformed line -- CI runs
the export of a real campaign through it as a smoke check.

:func:`write_snapshot` writes either format atomically (tmp +
rename), which is what long campaigns use for periodic dumps: a
scraper never reads a half-written file.
"""

import json
import re
import time
from typing import Dict, List, Optional, Tuple

from repro.obs.events import ObsError
from repro.recordlog import write_atomic

__all__ = ["to_prometheus", "to_json_doc", "parse_prometheus",
           "write_snapshot", "EXPORT_FORMATS"]

EXPORT_FORMATS = ("prom", "json")

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SANITISE = re.compile(r"[^a-zA-Z0-9_:]")
# One exposition sample: name, optional {labels}, numeric value.
_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)$")


def _prom_name(name: str, prefix: str) -> str:
    flat = _SANITISE.sub("_", name)
    return f"{prefix}_{flat}" if prefix else flat


def _prom_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(float(value))


def to_prometheus(snapshot: dict, prefix: str = "eilid") -> str:
    """Render a registry ``snapshot()`` as Prometheus text exposition."""
    lines: List[str] = []
    for name, value in snapshot.get("counters", {}).items():
        flat = _prom_name(name, prefix)
        lines.append(f"# TYPE {flat} counter")
        lines.append(f"{flat} {_prom_value(value)}")
    for name, value in snapshot.get("gauges", {}).items():
        flat = _prom_name(name, prefix)
        lines.append(f"# TYPE {flat} gauge")
        lines.append(f"{flat} {_prom_value(value)}")
    for name, summary in snapshot.get("histograms", {}).items():
        flat = _prom_name(name, prefix)
        lines.append(f"# TYPE {flat} summary")
        lines.append(f"{flat}_count {_prom_value(summary['count'])}")
        lines.append(f"{flat}_sum {_prom_value(summary['total'])}")
        for stat in ("min", "max", "mean"):
            lines.append(f"# TYPE {flat}_{stat} gauge")
            lines.append(f"{flat}_{stat} {_prom_value(summary[stat])}")
    return "\n".join(lines) + "\n"


def to_json_doc(snapshot: dict, source: Optional[str] = None) -> dict:
    """The snapshot in the repo's schema/version envelope shape."""
    doc = {"schema": "metrics-snapshot", "version": 1,
           "generated_ts": round(time.time(), 6), "metrics": snapshot}
    if source is not None:
        doc["source"] = source
    return doc


def parse_prometheus(text: str) -> Dict[str, List[Tuple[str, float]]]:
    """Lint/parse an exposition; raises :class:`ObsError` on bad lines.

    Returns ``{metric_name: [(labels_or_empty, value), ...]}``.  This
    is a *format* check (the thing a scraper's parser would reject),
    not a semantic one -- CI feeds real exports through it.
    """
    samples: Dict[str, List[Tuple[str, float]]] = {}
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("TYPE", "HELP"):
                raise ObsError(f"line {number}: malformed comment {raw!r}")
            if parts[1] == "TYPE" and not _NAME_OK.match(parts[2]):
                raise ObsError(f"line {number}: bad metric name {parts[2]!r}")
            continue
        match = _SAMPLE.match(line)
        if not match:
            raise ObsError(f"line {number}: malformed sample {raw!r}")
        try:
            value = float(match.group("value"))
        except ValueError:
            raise ObsError(f"line {number}: non-numeric value "
                           f"{match.group('value')!r}") from None
        samples.setdefault(match.group("name"), []).append(
            (match.group("labels") or "", value))
    return samples


def write_snapshot(path: str, snapshot: dict, fmt: str = "json",
                   source: Optional[str] = None):
    """Atomically write *snapshot* to *path* in *fmt* (json|prom)."""
    if fmt not in EXPORT_FORMATS:
        raise ObsError(f"unknown export format {fmt!r}; "
                       f"one of {', '.join(EXPORT_FORMATS)}")
    if fmt == "prom":
        payload = to_prometheus(snapshot)
    else:
        payload = json.dumps(to_json_doc(snapshot, source=source),
                             indent=2, sort_keys=True) + "\n"
    write_atomic(path, payload)
