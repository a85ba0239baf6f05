"""The observability layer: event-log DB, metrics/spans, telemetry folds.

The properties this file guards:

* every event-log backend round-trips the same documents, recovers
  its sequence counter across reopen, and answers the longitudinal
  queries (device timeline, device rollup, campaign rollup, trends)
  identically;
* the metrics registry is genuinely off when disabled -- no series
  mutate -- and spans time their blocks when enabled;
* telemetry delta-folding stays correct across device resets,
  concurrent (process-backend-shaped) feeding, and a fleet restored
  from a durable store whose ``_seen`` baselines must re-sync so the
  first post-restart heartbeat does not re-fold old history;
* malformed ``reason=count`` entries are counted, surfaced in
  ``fleet status``, and never crash the fold.
"""

import json
import threading

import pytest

from repro.fleet import CampaignStatus, FleetSimulation
from repro.fleet.telemetry import FleetTelemetry, parse_violation_totals
from repro.obs import (
    EVENT_KINDS,
    JsonlEventLog,
    METRICS,
    MemoryEventLog,
    MetricsRegistry,
    ObsError,
    SqliteEventLog,
    open_event_log,
)

BACKENDS = ("memory", "jsonl", "sqlite")


def make_log(kind, tmp_path, name="events"):
    if kind == "memory":
        return MemoryEventLog()
    if kind == "jsonl":
        return JsonlEventLog(str(tmp_path / f"{name}.jsonl"))
    return SqliteEventLog(str(tmp_path / f"{name}.db"))


def emit_fixture(log):
    """A tiny two-campaign history every query test folds."""
    log.emit("enroll", device="d1", platform="TI MSP430")
    log.emit("enroll", device="d2", platform="TI MSP430")
    first = log.start_campaign(target_version=1, backend="serial")
    log.emit("offer", device="d1", campaign=first, status="applied")
    log.emit("offer", device="d2", campaign=first, status="rejected-bad-mac")
    log.emit("quarantine", device="d2", campaign=first,
             reason="rejected-bad-mac")
    log.emit("wave-commit", campaign=first, index=0, size=2)
    log.emit("campaign-end", campaign=first, status="complete", applied=1,
             failed=1, devices_per_sec=100.0, elapsed_s=0.02)
    second = log.start_campaign(target_version=2, backend="serial")
    log.emit("offer", device="d1", campaign=second, status="applied")
    log.emit("attest", device="d1", campaign=second, ok=True, detail="")
    log.emit("attest", device="d2", ok=False, detail="quarantined")
    log.emit("violation-delta", device="d1", deltas={"cfi-return": 2},
             resets=1)
    log.emit("campaign-end", campaign=second, status="complete", applied=1,
             failed=0, devices_per_sec=200.0, elapsed_s=0.01)
    log.flush()
    return first, second


# ---- the event log ----------------------------------------------------------


class TestEventLog:
    @pytest.mark.parametrize("kind", BACKENDS)
    def test_emit_validates_kind_and_sequences(self, kind, tmp_path):
        log = make_log(kind, tmp_path)
        with pytest.raises(ObsError, match="unknown event kind"):
            log.emit("reboot", device="d1")
        first = log.emit("enroll", device="d1")
        second = log.emit("attest", device="d1", ok=True)
        assert (first["seq"], second["seq"]) == (1, 2)
        assert second["kind"] == "attest"
        assert second["data"] == {"ok": True}
        assert len(log) == 2
        log.close()

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_filters_are_anded(self, kind, tmp_path):
        log = make_log(kind, tmp_path)
        first, second = emit_fixture(log)
        assert len(log.events(kind="offer")) == 3
        assert len(log.events(kind="offer", device="d1")) == 2
        assert len(log.events(kind="offer", device="d1",
                              campaign=second)) == 1
        offers = log.events(kind="offer")
        assert len(log.events(since=offers[0]["seq"])) == len(log) - offers[0]["seq"]
        log.close()

    @pytest.mark.parametrize("kind", ("jsonl", "sqlite"))
    def test_durable_backends_recover_seq_across_reopen(self, kind, tmp_path):
        log = make_log(kind, tmp_path)
        path = log.path
        log.emit("enroll", device="d1")
        campaign = log.start_campaign(target_version=1)
        log.close()
        again = open_event_log(path)
        assert again.backend == kind
        # The next event and the next campaign id continue the old
        # sequence -- that is what keeps ids unique across restarts.
        doc = again.emit("attest", device="d1", ok=True)
        assert doc["seq"] == 3
        assert again.start_campaign(target_version=2) == "c4"
        assert campaign == "c2"
        again.close()

    def test_jsonl_ignores_torn_tail_line(self, tmp_path):
        log = make_log("jsonl", tmp_path)
        log.emit("enroll", device="d1")
        log.close()
        with open(log.path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 2, "kind": "att')  # kill mid-append
        again = JsonlEventLog(log.path)
        assert [doc["kind"] for doc in again.events()] == ["enroll"]
        assert again.emit("attest", device="d1", ok=True)["seq"] == 2
        again.close()

    def test_sqlite_batches_until_flush(self, tmp_path):
        path = str(tmp_path / "events.db")
        log = SqliteEventLog(path)
        log.emit("enroll", device="d1")
        log.flush()
        log.emit("enroll", device="d2")  # uncommitted
        other = SqliteEventLog(path)
        assert len(other.events()) == 1  # only the flushed event landed
        other.close()
        log.close()  # close commits the rest
        final = SqliteEventLog(path)
        assert len(final.events()) == 2
        final.close()

    def test_open_event_log_dispatches_on_suffix(self, tmp_path):
        assert open_event_log(None).backend == "memory"
        assert open_event_log(":memory:").backend == "memory"
        sqlite_log = open_event_log(str(tmp_path / "a.db"))
        jsonl_log = open_event_log(str(tmp_path / "a.log"))
        assert sqlite_log.backend == "sqlite"
        assert jsonl_log.backend == "jsonl"
        sqlite_log.close()
        jsonl_log.close()

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_queries_agree_across_backends(self, kind, tmp_path):
        log = make_log(kind, tmp_path)
        first, second = emit_fixture(log)

        timeline = [doc["kind"] for doc in log.device_timeline("d1")]
        assert timeline == ["enroll", "offer", "offer", "attest",
                            "violation-delta"]

        rollup = log.device_rollup()
        assert rollup["d1"]["offers"] == 2
        assert rollup["d1"]["campaigns"] == 2
        assert rollup["d1"]["violations"] == 2
        assert rollup["d1"]["quarantine_reason"] is None
        assert rollup["d2"]["quarantine_reason"] == "rejected-bad-mac"
        assert rollup["d2"]["attest_failures"] == 1
        assert rollup["d2"]["last_seen_ts"] >= rollup["d2"]["first_seen_ts"]
        assert rollup["d2"]["last_seen_seq"] > 0

        campaigns = log.campaign_rollup()
        assert [entry["campaign"] for entry in campaigns] == [first, second]
        assert campaigns[0]["offers"] == {"applied": 1,
                                          "rejected-bad-mac": 1}
        assert campaigns[0]["quarantined"] == 1
        assert campaigns[0]["quarantine_reasons"] == {"rejected-bad-mac": 1}
        assert campaigns[0]["waves"] == 1
        assert campaigns[1]["quarantined"] == 0

        trends = log.trends()
        assert trends["target_versions"] == [1, 2]
        assert trends["devices_per_sec"] == [100.0, 200.0]
        log.close()


# ---- the metrics registry ---------------------------------------------------


class TestMetrics:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.inc("a", 4)
        registry.set_gauge("g", 2.5)
        for value in (1.0, 3.0):
            registry.observe("h", value)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"a": 5}
        assert snapshot["gauges"] == {"g": 2.5}
        assert snapshot["histograms"]["h"] == {
            "count": 2, "total": 4.0, "min": 1.0, "max": 3.0, "mean": 2.0}
        registry.reset()
        assert registry.counter("a") == 0
        assert registry.histogram("h")["count"] == 0

    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry(enabled=False)
        registry.inc("a")
        registry.set_gauge("g", 1.0)
        registry.observe("h", 1.0)
        with registry.span("s"):
            pass
        snapshot = registry.snapshot()
        assert snapshot == {"counters": {}, "gauges": {}, "histograms": {},
                            "spans": []}
        # The disabled span is the shared no-op singleton: zero alloc.
        assert registry.span("x") is registry.span("y")

    def test_span_times_its_block(self):
        registry = MetricsRegistry()
        with registry.span("phase"):
            pass
        with registry.span("phase"):
            pass
        histogram = registry.histogram("phase.ms")
        assert histogram["count"] == 2
        assert histogram["min"] >= 0.0

    def test_run_steps_batch_instrumentation(self):
        from repro.api.firmware import build_firmware
        from repro.device import build_device
        from repro.fleet.simulation import fleet_firmware_spec

        program = build_firmware(fleet_firmware_spec()).program
        was_enabled = METRICS.enabled
        try:
            METRICS.enable(True)
            before = METRICS.counter("interpreter.steps")
            device = build_device(program, security="none")
            device.run_steps(100, stop_on_done=False)
            assert METRICS.counter("interpreter.steps") == before + 100
            # Disabled: the loop still runs, nothing is recorded.
            METRICS.enable(False)
            device.run_steps(50, stop_on_done=False)
            METRICS.enable(True)
            assert METRICS.counter("interpreter.steps") == before + 100
        finally:
            METRICS.enable(was_enabled)


# ---- telemetry folding ------------------------------------------------------


class _Report:
    def __init__(self, violation_totals=(), reset_count=0):
        self.violation_totals = list(violation_totals)
        self.reset_count = reset_count
        self.firmware_version = 1


class _Result:
    def __init__(self, ok=True, detail="", attempts=1, report=None):
        self.ok = ok
        self.detail = detail
        self.attempts = attempts
        self.report = report


class TestTelemetryFolding:
    def test_parse_violation_totals_counts_malformed(self):
        totals, malformed = parse_violation_totals(
            ["cfi-return=3", "garbage", "stack-tamper=notanint", "x=1"])
        assert totals == {"cfi-return": 3, "x": 1}
        assert malformed == 2

    def test_malformed_totals_counted_and_rendered(self):
        telemetry = FleetTelemetry()
        telemetry.record_attest("d1", _Result(
            report=_Report(violation_totals=["cfi-return=1", "broken"])))
        assert telemetry.malformed_totals == 1
        assert telemetry.as_dict()["malformed_totals"] == 1
        assert "1 malformed violation-total entry" in telemetry.render()

    def test_deltas_fold_across_device_resets(self):
        # Cumulative totals never reset on the device; reset_count
        # climbs independently.  The fold must track both as deltas.
        telemetry = FleetTelemetry()
        telemetry.record_attest("d1", _Result(report=_Report(
            ["cfi-return=2"], reset_count=1)))
        telemetry.record_attest("d1", _Result(report=_Report(
            ["cfi-return=5", "stack-tamper=1"], reset_count=3)))
        telemetry.record_attest("d1", _Result(report=_Report(
            ["cfi-return=5", "stack-tamper=1"], reset_count=3)))  # no change
        assert telemetry.violations == {"cfi-return": 5, "stack-tamper": 1}
        assert telemetry.resets == 3
        assert telemetry.attestations == 3

    def test_violation_delta_events_emitted_only_on_change(self):
        log = MemoryEventLog()
        telemetry = FleetTelemetry(events=log)
        telemetry.record_attest("d1", _Result(report=_Report(
            ["cfi-return=2"], reset_count=0)))
        telemetry.record_attest("d1", _Result(report=_Report(
            ["cfi-return=2"], reset_count=0)))
        deltas = log.events(kind="violation-delta")
        assert len(deltas) == 1
        assert deltas[0]["data"] == {"deltas": {"cfi-return": 2}, "resets": 0}

    def test_concurrent_workers_fold_exactly_once(self):
        # The process backend's shape: many worker threads feed one
        # FleetTelemetry.  Each device's cumulative series arrives in
        # order per device but interleaved across devices.
        telemetry = FleetTelemetry()
        devices = [f"d{i}" for i in range(8)]

        def feed(device_id):
            for count in range(1, 26):
                telemetry.record_attest(device_id, _Result(report=_Report(
                    [f"cfi-return={count}"], reset_count=0)))

        threads = [threading.Thread(target=feed, args=(device_id,))
                   for device_id in devices]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Per device the cumulative max was 25, so exactly 25 fold.
        assert telemetry.violations == {"cfi-return": 25 * len(devices)}
        assert telemetry.attestations == 25 * len(devices)

    def test_seed_baseline_never_overwrites_live_state(self):
        telemetry = FleetTelemetry()
        telemetry.record_attest("d1", _Result(report=_Report(
            ["cfi-return=4"], reset_count=1)))
        telemetry.seed_baseline("d1", {"cfi-return": 1}, 0)  # stale record
        telemetry.record_attest("d1", _Result(report=_Report(
            ["cfi-return=4"], reset_count=1)))
        assert telemetry.violations == {"cfi-return": 4}

    def test_restored_fleet_does_not_refold_old_violations(self, tmp_path):
        # The cross-layer property: protocol persists the accepted
        # report's totals on the record, the store round-trips them,
        # and the restored fleet seeds its telemetry baselines -- so a
        # restart never re-counts violations the old process folded.
        store_path = str(tmp_path / "fleet.db")
        fleet = FleetSimulation(size=3, store=store_path)
        victim = fleet.registry.ids()[0]
        fleet.corrupt_firmware(victim)
        device = fleet.devices[victim]
        assert device.violation_totals  # the fault fired
        fleet.session(victim).attest()
        old_violations = dict(fleet.telemetry.violations)
        assert old_violations  # the live fold saw the delta
        assert fleet.registry.get(victim).violation_totals
        fleet.registry.flush()
        fleet.registry.store.close()

        restored = FleetSimulation(store=store_path)
        # The replica reports the same cumulative totals; a seeded
        # baseline means zero *new* violations fold on the heartbeat.
        restored.attest_all()
        assert dict(restored.telemetry.violations) == {}
        restored.registry.store.close()


# ---- end-to-end: events flow from every layer -------------------------------


class TestFleetEventFlow:
    def test_rollout_emits_full_history(self):
        fleet = FleetSimulation(size=10)
        report = fleet.rollout(version=1)
        assert report.status is CampaignStatus.COMPLETE
        log = fleet.events
        kinds = {doc["kind"] for doc in log.events()}
        assert {"enroll", "campaign-start", "offer", "wave-commit",
                "campaign-end"} <= kinds
        campaigns = log.campaign_rollup()
        assert len(campaigns) == 1
        assert campaigns[0]["applied"] == 10
        assert campaigns[0]["status"] == "complete"
        assert campaigns[0]["waves"] == len(report.waves)
        assert campaigns[0]["devices_per_sec"] > 0

    def test_tampered_offers_quarantine_with_campaign_tag(self):
        fleet = FleetSimulation(size=10, seed=3)
        from repro.fleet import CampaignConfig

        report = fleet.rollout(version=1, tamper_fraction=0.2,
                               config=CampaignConfig(failure_threshold=0.9))
        assert report.failed > 0
        quarantines = fleet.events.events(kind="quarantine")
        assert len(quarantines) == report.failed
        assert all(doc["campaign"] is not None for doc in quarantines)
        rollup = fleet.events.campaign_rollup()[0]
        assert rollup["quarantined"] == report.failed
        assert sum(rollup["quarantine_reasons"].values()) == report.failed

    def test_process_backend_emits_merge_quarantines_once(self):
        # Workers have no event log; the parent emits quarantine events
        # while merging shard outcomes -- exactly one per quarantined
        # device, tagged with the campaign.
        from repro.fleet import CampaignConfig

        fleet = FleetSimulation(size=12, seed=5)
        report = fleet.rollout(version=1, tamper_fraction=0.25,
                               config=CampaignConfig(
                                   backend="process", workers=2,
                                   failure_threshold=0.9))
        assert report.failed > 0
        quarantines = fleet.events.events(kind="quarantine")
        assert len(quarantines) == report.failed
        assert len({doc["device"] for doc in quarantines}) == report.failed
        assert all(doc["campaign"] is not None for doc in quarantines)

    def test_events_are_json_safe(self, tmp_path):
        fleet = FleetSimulation(size=4,
                                events=str(tmp_path / "events.jsonl"))
        fleet.rollout(version=1)
        fleet.attest_all()
        for doc in fleet.events.events():
            assert doc == json.loads(json.dumps(doc))
        assert doc["kind"] in EVENT_KINDS
        fleet.events.close()
