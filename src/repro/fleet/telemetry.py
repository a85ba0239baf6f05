"""Fleet-level telemetry: fold per-device evidence into aggregates.

Devices report :class:`~repro.casu.monitor.Violation` reasons inside
their attestation reports; campaigns report per-device update
outcomes; the transport reports channel counters.  This module folds
all of it into counters and histograms, rendered through the same
:mod:`repro.eval.report` helpers the paper tables use, so ``fleet
status`` output sits next to Table IV output without a new renderer.
"""

import threading
from collections import Counter
from typing import Dict, Optional, Tuple

from repro.casu.update import UpdateStatus
from repro.eval.report import render_bars, render_table
from repro.obs.metrics import METRICS


def parse_violation_totals(items) -> Tuple[Dict[str, int], int]:
    """Decode 'reason=count' cumulative totals; count malformed entries.

    Returns ``(totals, malformed)``.  The entries are MAC'd, so a
    malformed one is defensive-only -- but silently dropping it would
    hide a device-side encoder bug, so callers surface the count.
    """
    totals: Dict[str, int] = {}
    malformed = 0
    for item in items:
        reason, _, count = item.partition("=")
        try:
            totals[reason] = int(count)
        except ValueError:
            malformed += 1
    return totals, malformed


class FleetTelemetry:
    """Thread-safe aggregation: the serve daemon's pump threads feed it
    concurrently.

    Besides its own counters, every fold mirrors into the process
    metrics registry (:data:`repro.obs.metrics.METRICS`) and -- when an
    event log is attached -- emits ``violation-delta`` events, so the
    one-shot aggregate, the metrics surface and the longitudinal DB
    never disagree about what was observed.
    """

    def __init__(self, events=None):
        self._lock = threading.Lock()
        self.events = events  # optional repro.obs.events.EventLog
        self.violations = Counter()  # ViolationReason.value -> count
        self.update_statuses = Counter()  # UpdateStatus.value / "unreachable"
        self.attest_outcomes = Counter()  # "ok" / "unreachable" / ...
        self.attempt_histogram = Counter()  # round-trip attempts -> count
        self.resets = 0
        self.attestations = 0
        # Entries in a report's violation_totals that failed to parse
        # as 'reason=count'.  The drop is defensive (the list is MAC'd)
        # but must stay observable -- see parse_violation_totals.
        self.malformed_totals = 0
        # Reports carry *cumulative* per-reason violation totals (the
        # reasons window itself is a bounded ring on the device); fold
        # only the delta we have not seen from that device yet.
        self._seen = {}  # device_id -> (per-reason totals dict, resets_seen)

    # ---- ingestion -------------------------------------------------------

    def seed_baseline(self, device_id: str, totals: Dict[str, int],
                      resets: int):
        """Re-sync one device's delta baseline from a durable record.

        A restored fleet's devices report the same cumulative totals
        they always did; without this, the first post-restart heartbeat
        would re-fold the device's entire violation history as if it
        just happened.  Never overwrites a baseline learned live.
        """
        with self._lock:
            if device_id not in self._seen:
                self._seen[device_id] = (dict(totals), resets)

    def record_attest(self, device_id: str, result):
        """Fold one AttestResult (protocol calls this per heartbeat)."""
        deltas: Dict[str, int] = {}
        reset_delta = 0
        with self._lock:
            self.attestations += 1
            self.attest_outcomes[result.detail or "ok"] += 1
            self.attempt_histogram[result.attempts] += 1
            if result.report is not None:
                report = result.report
                totals, malformed = parse_violation_totals(
                    report.violation_totals)
                self.malformed_totals += malformed
                seen_totals, seen_resets = self._seen.get(device_id, ({}, 0))
                for reason, count in totals.items():
                    delta = max(0, count - seen_totals.get(reason, 0))
                    if delta:
                        self.violations[reason] += delta
                        deltas[reason] = delta
                reset_delta = max(0, report.reset_count - seen_resets)
                self.resets += reset_delta
                self._seen[device_id] = (totals, report.reset_count)
                if malformed and METRICS.enabled:
                    METRICS.inc("fleet.malformed_totals", malformed)
        if METRICS.enabled:
            METRICS.inc("fleet.attestations")
            if not result.ok:
                METRICS.inc("fleet.attest_failures")
            if deltas:
                METRICS.inc("fleet.violations", sum(deltas.values()))
        if self.events is not None and (deltas or reset_delta):
            self.events.emit("violation-delta", device=device_id,
                             deltas=deltas, resets=reset_delta)

    def record_update(self, device_id: str, status: Optional[UpdateStatus],
                      attempts: int, detail: str = ""):
        """Fold one offer outcome.  *detail* labels the status-less
        failures: "unreachable", "bad-ack-mac" (forged ack MAC --
        counted separately so an active attacker on the link is never
        mistaken for packet loss) or "replay"."""
        with self._lock:
            label = status.value if status else (detail or "unreachable")
            self.update_statuses[label] += 1
            self.attempt_histogram[attempts] += 1
        if METRICS.enabled:
            METRICS.inc("fleet.updates")
            if status is not UpdateStatus.APPLIED:
                METRICS.inc("fleet.update_failures")

    # ---- aggregates ------------------------------------------------------

    def rejection_count(self) -> int:
        """Every non-applied outcome, including unreachable devices."""
        return sum(count for status, count in self.update_statuses.items()
                   if status != UpdateStatus.APPLIED.value)

    def device_rejection_count(self) -> int:
        """Rejections issued by the device's own ROM checks (MAC/version)."""
        by_value = {status.value: status for status in UpdateStatus}
        return sum(count for value, count in self.update_statuses.items()
                   if value in by_value and by_value[value].rejected)

    def as_dict(self) -> dict:
        return {
            "attestations": self.attestations,
            "attest_outcomes": dict(self.attest_outcomes),
            "update_statuses": dict(self.update_statuses),
            "violations": dict(self.violations),
            "resets": self.resets,
            "malformed_totals": self.malformed_totals,
            "attempts": dict(self.attempt_histogram),
        }

    # ---- rendering -------------------------------------------------------

    def render(self, registry=None) -> str:
        blocks = []
        if registry is not None:
            summary = registry.summary()
            rows = [(state, count) for state, count in
                    sorted(summary["states"].items())]
            blocks.append(render_table(
                ("state", "devices"), rows,
                title=f"fleet of {summary['devices']} devices"))
            versions = sorted(registry.version_histogram().items())
            if versions:
                blocks.append(render_bars(
                    [f"v{version}" for version, _ in versions],
                    [count for _, count in versions],
                    title="firmware versions"))
        if self.update_statuses:
            rows = sorted(self.update_statuses.items())
            blocks.append(render_table(("update status", "count"), rows,
                                       title="update outcomes"))
        if self.attest_outcomes:
            rows = sorted(self.attest_outcomes.items())
            blocks.append(render_table(("attest outcome", "count"), rows,
                                       title=f"attestations ({self.attestations})"))
        if self.violations:
            reasons = sorted(self.violations.items())
            blocks.append(render_bars(
                [reason for reason, _ in reasons],
                [count for _, count in reasons],
                title="monitor violations by reason"))
        if self.malformed_totals:
            blocks.append(f"{self.malformed_totals} malformed violation-total "
                          f"entr{'y' if self.malformed_totals == 1 else 'ies'} "
                          f"dropped (defensive parse)")
        if not blocks:
            return "no telemetry recorded"
        return "\n\n".join(blocks)
