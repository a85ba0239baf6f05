"""The observability layer: event-log DB, metrics/spans, telemetry folds.

The properties this file guards:

* every event-log backend round-trips the same documents, recovers
  its sequence counter across reopen, and answers the longitudinal
  queries (device timeline, device rollup, campaign rollup, trends)
  identically;
* the metrics registry is genuinely off when disabled -- no series
  mutate -- and spans time their blocks when enabled;
* violation deltas fold against the device record's last verified
  totals, correctly across device resets and across a verifier
  restart (the record is the only baseline, so a restored fleet never
  re-folds old history), and ``fleet status`` reads them back from the
  event log; counters that go down quarantine the device and fold
  nothing, and a campaign's attests tag their deltas with it;
* malformed ``reason=count`` entries are counted on the attest event,
  surfaced in ``fleet status``, and never crash the fold.
"""

import dataclasses
import json
import tracemalloc
from collections import Counter

import pytest

from repro.fleet import CampaignConfig, CampaignStatus, FleetSimulation
from repro.fleet.registry import Lifecycle
from repro.fleet.protocol import parse_violation_totals
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
    first = log.start_campaign(target_version=1)
    log.emit("offer", device="d1", campaign=first, status="applied")
    log.emit("offer", device="d2", campaign=first, status="rejected-bad-mac")
    log.emit("quarantine", device="d2", campaign=first,
             reason="rejected-bad-mac")
    log.emit("wave-commit", campaign=first, index=0, size=2)
    log.emit("campaign-end", campaign=first, status="complete", applied=1,
             failed=1, devices_per_sec=100.0, elapsed_s=0.02)
    second = log.start_campaign(target_version=2)
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
        assert len(log.events()) == 2
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
        assert (len(log.events(since=offers[0]["seq"]))
                == len(log.events()) - offers[0]["seq"])
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

    def test_jsonl_reads_its_own_lines_past_a_terminated_fragment(
            self, tmp_path):
        """The log keeps line offsets, not documents: its own scans must
        land on the lines it wrote after ending a torn fragment,
        non-ASCII text included."""
        log = make_log("jsonl", tmp_path)
        log.emit("enroll", device="d1")
        log.close()
        with open(log.path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 18446744073709551616, "kind": "attest"}\n')
            handle.write('{"seq": 2, "kind": "att')  # kill mid-append
        again = JsonlEventLog(log.path)  # neither line is an event
        again.emit("attest", device="d1", ok=True, detail="naïve")
        again.emit("attest", device="d2", ok=False)
        assert [(doc["seq"], doc["device"]) for doc in again.events()] \
            == [(1, "d1"), (2, "d1"), (3, "d2")]
        assert [doc["seq"] for doc in again.tail(since_seq=2)] == [3]
        assert again.events(since=1)[0]["data"]["detail"] == "naïve"
        assert len(again.events()) == 3
        again.close()

    def test_jsonl_log_does_not_keep_its_events(self, tmp_path):
        """A durable log's memory does not grow with its history: 5000
        events keep their seqs and offsets, not their documents."""
        log = make_log("jsonl", tmp_path)
        tracemalloc.start()
        try:
            for index in range(5000):
                log.emit("attest", device=f"dev-{index:05d}", ok=True,
                         attempts=1)
            retained, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(log.tail(since_seq=4990)) == 10
        # Two 64-bit columns are ~80 KB; the documents were ~3 MB.
        assert retained < 400_000
        log.close()

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


# ---- violation folding ------------------------------------------------------


def _scripted_fleet(*series):
    """A one-device fleet whose attests report the scripted cumulative
    ``(violation_totals, reset_count)`` pairs, one per heartbeat.  The
    agent MACs whatever the device reports, so the verifier sees them
    as authentic evidence."""
    fleet = FleetSimulation(size=1)
    device_id = fleet.registry.ids()[0]
    device = fleet.devices[device_id]
    honest = device.attestation_report
    script = iter(series)

    def scripted():
        totals, resets = next(script)
        return dataclasses.replace(honest(), violation_totals=tuple(totals),
                                   reset_count=resets)

    device.attestation_report = scripted
    return fleet, device_id


class TestTelemetryFolding:
    def test_parse_violation_totals_counts_malformed(self):
        totals, malformed = parse_violation_totals(
            ["cfi-return=3", "garbage", "stack-tamper=notanint", "x=1"])
        assert totals == {"cfi-return": 3, "x": 1}
        assert malformed == 2

    def test_malformed_totals_counted_and_rendered(self):
        fleet, device_id = _scripted_fleet((["cfi-return=1", "broken"], 0),
                                           (["cfi-return=1"], 0))
        fleet.attest_all()
        fleet.attest_all()
        first, second = fleet.events.events(kind="attest")
        assert first["data"]["malformed"] == 1
        assert "malformed" not in second["data"]  # only when nonzero
        assert fleet.observed()["malformed_totals"] == 1
        assert fleet.observed()["violations"] == {"cfi-return": 1}
        assert "1 malformed violation-total entry" in fleet.status()

    def test_deltas_fold_across_device_resets(self):
        # Cumulative totals never reset on the device; reset_count
        # climbs independently.  The fold must track both as deltas.
        fleet, device_id = _scripted_fleet(
            (["cfi-return=2"], 1),
            (["cfi-return=5", "stack-tamper=1"], 3),
            (["cfi-return=5", "stack-tamper=1"], 3))  # no change
        for _ in range(3):
            assert fleet.session(device_id).attest().ok
        observed = fleet.observed()
        assert observed["violations"] == {"cfi-return": 5, "stack-tamper": 1}
        assert observed["resets"] == 3
        assert observed["attestations"] == 3
        record = fleet.registry.get(device_id)
        assert record.violation_totals == {"cfi-return": 5, "stack-tamper": 1}
        assert record.reset_count == 3

    def test_violation_delta_events_emitted_only_on_change(self):
        fleet, device_id = _scripted_fleet((["cfi-return=2"], 0),
                                           (["cfi-return=2"], 0))
        fleet.attest_all()
        fleet.attest_all()
        deltas = fleet.events.events(kind="violation-delta")
        assert len(deltas) == 1
        assert deltas[0]["data"] == {"deltas": {"cfi-return": 2}, "resets": 0}

    @pytest.mark.parametrize("rolled_back", [
        ([], 0),  # both counters down: the report leaves the reason out
        (["cfi-return=5"], 1),  # the reset count alone
        (["cfi-return=4"], 2),  # one per-reason total alone
    ])
    def test_counters_that_go_down_quarantine_and_fold_nothing(
            self, rolled_back):
        fleet, device_id = _scripted_fleet((["cfi-return=5"], 2),
                                           rolled_back,
                                           (["cfi-return=5"], 2))
        results = [fleet.session(device_id).attest() for _ in range(3)]
        assert [result.ok for result in results] == [True, False, True]
        assert results[1].detail == "counter-rollback"
        record = fleet.registry.get(device_id)
        assert record.state is Lifecycle.QUARANTINED
        assert record.violation_totals == {"cfi-return": 5}
        assert record.reset_count == 2
        observed = fleet.observed()
        assert observed["violations"] == {"cfi-return": 5}
        assert observed["resets"] == 2
        assert observed["attest_outcomes"] == {"ok": 2,
                                               "counter-rollback": 1}

    def test_violation_delta_carries_its_campaign(self):
        fleet = FleetSimulation(size=3)
        victim = fleet.registry.ids()[1]
        fleet.corrupt_firmware(victim)
        fleet.rollout(version=1, config=CampaignConfig(
            verify_after_wave=True, failure_threshold=1.0))
        (delta,) = fleet.events.events(kind="violation-delta")
        attest = fleet.events.device_timeline(victim)[-1]
        assert attest["kind"] == "attest"
        assert delta["device"] == victim
        assert delta["campaign"] is not None
        assert delta["campaign"] == attest["campaign"]

    def test_quarantine_then_violation_delta_then_attest(self):
        # A report that quarantines still advances the record's totals,
        # and the attest's events keep the verdict's causal order.
        fleet = FleetSimulation(size=3)
        victim = fleet.registry.ids()[1]
        fleet.corrupt_firmware(victim)
        fleet.attest_all([victim])
        kinds = [doc["kind"] for doc in fleet.events.device_timeline(victim)]
        assert kinds[-3:] == ["quarantine", "violation-delta", "attest"]
        delta = fleet.events.events(kind="violation-delta")[-1]["data"]
        assert delta["deltas"] == fleet.registry.get(victim).violation_totals

    def test_restored_fleet_does_not_refold_old_violations(self, tmp_path):
        # The cross-layer property: protocol folds each verified
        # report against the record's persisted totals, and the store
        # round-trips them -- so a restart never re-counts violations
        # the old process folded, with no baseline to seed.
        store_path = str(tmp_path / "fleet.db")
        fleet = FleetSimulation(size=3, store=store_path)
        victim = fleet.registry.ids()[0]
        fleet.corrupt_firmware(victim)
        device = fleet.devices[victim]
        assert device.violation_totals  # the fault fired
        fleet.attest_all([victim])  # saves the record, then flushes
        old_violations = fleet.observed()["violations"]
        assert old_violations  # the live fold saw the delta
        assert fleet.registry.get(victim).violation_totals
        counters = device.attestation_report()
        assert counters.violation_totals and counters.reset_count
        fleet.registry.store.close()

        restored = FleetSimulation(store=store_path)
        # The real device's RoT counters outlive the verifier restart,
        # while a rebuilt replica counts from zero: make it report the
        # same cumulative totals.  The record's baseline means zero
        # *new* violations fold on the heartbeat.
        replica = restored.devices[victim]
        honest = replica.attestation_report
        replica.attestation_report = lambda: dataclasses.replace(
            honest(), violation_totals=counters.violation_totals,
            reset_count=counters.reset_count)
        assert all(result.ok for result in restored.attest_all().values())
        assert restored.observed()["violations"] == {}
        assert restored.observed()["resets"] == 0
        assert restored.events.events(kind="violation-delta") == []
        restored.registry.store.close()

    def test_a_restored_fleet_reads_ok_on_its_first_sweep(self, tmp_path):
        # A replica rebuilt from its record carries the record's RoT
        # counters, so it never reports them going down.  The totals
        # are the record's one violation counter: the quarantining
        # attest folded them, and the summary reads their sum.
        store_path = str(tmp_path / "fleet.db")
        fleet = FleetSimulation(size=3, store=store_path)
        victim = fleet.registry.ids()[0]
        fleet.corrupt_firmware(victim)
        assert not fleet.attest_all([victim])[victim].ok
        record = fleet.registry.get(victim)
        assert record.violation_totals and record.reset_count
        assert record.violation_count == sum(record.violation_totals.values())
        assert fleet.registry.summary()["violations"] == record.violation_count
        fleet.registry.store.close()

        restored = FleetSimulation(store=store_path)
        replica = restored.devices[victim]
        assert replica.violation_totals == record.violation_totals
        assert replica.reset_count == record.reset_count
        assert replica.violation_count == record.violation_count
        results = restored.attest_all()
        assert all(result.ok for result in results.values())
        assert restored.observed()["violations"] == {}
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
        report = fleet.rollout(version=1, tamper_fraction=0.2,
                               config=CampaignConfig(failure_threshold=0.9))
        assert report.failed > 0
        quarantines = fleet.events.events(kind="quarantine")
        assert len(quarantines) == report.failed
        assert all(doc["campaign"] is not None for doc in quarantines)
        rollup = fleet.events.campaign_rollup()[0]
        assert rollup["quarantined"] == report.failed
        assert sum(rollup["quarantine_reasons"].values()) == report.failed

    def test_a_sweep_after_a_campaign_is_not_booked_to_it(self):
        # Sessions live for one exchange: a heartbeat sweep after a
        # finished rollout logs its attests, deltas and quarantines
        # outside any campaign, and the rollout's rollup counts none.
        fleet = FleetSimulation(size=6, verify_traces=True)
        report = fleet.rollout(version=1)
        assert report.status is CampaignStatus.COMPLETE
        (rollout,) = fleet.events.campaign_rollup()
        forged, corrupted = fleet.registry.ids()[:2]
        fleet.forge_trace(forged)
        fleet.corrupt_firmware(corrupted)
        since = fleet.events.last_seq
        results = fleet.attest_all()
        assert results[forged].detail == "trace-forged"
        sweep = fleet.events.events(since=since)
        assert {"attest", "violation-delta", "quarantine"} == {
            doc["kind"] for doc in sweep}
        assert [doc["campaign"] for doc in sweep] == [None] * len(sweep)
        (after,) = fleet.events.campaign_rollup(rollout["campaign"])
        assert after["quarantined"] == rollout["quarantined"] == 0

    def test_each_quarantine_is_logged_once_with_its_campaign(self):
        # The engine logs a device-side BAD_MAC rejection, the session
        # a verdict it reaches itself (here the post-wave attest of a
        # forged trace): one event per quarantined device either way,
        # tagged with the campaign.
        fleet = FleetSimulation(size=12, seed=5, verify_traces=True)
        forged = fleet.registry.ids()[0]  # not one of the tampered
        fleet.forge_trace(forged)
        report = fleet.rollout(version=1, tamper_fraction=0.25,
                               config=CampaignConfig(
                                   wave_fractions=(0.5, 1.0),
                                   verify_after_wave=True,
                                   failure_threshold=1.0))
        quarantined = sorted(record.device_id for record in
                             fleet.registry.by_state(Lifecycle.QUARANTINED))
        quarantines = fleet.events.events(kind="quarantine")
        assert len(quarantined) == report.failed == 4
        assert sorted(doc["device"] for doc in quarantines) == quarantined
        (campaign,) = {doc["campaign"] for doc in quarantines}
        assert campaign == fleet.events.campaign_rollup()[0]["campaign"]
        assert Counter(doc["data"]["reason"] for doc in quarantines) == {
            "rejected-bad-mac": 3, "trace-forged": 1}

    def test_events_are_json_safe(self, tmp_path):
        fleet = FleetSimulation(size=4,
                                events=str(tmp_path / "events.jsonl"))
        fleet.rollout(version=1)
        fleet.attest_all()
        for doc in fleet.events.events():
            assert doc == json.loads(json.dumps(doc))
        assert doc["kind"] in EVENT_KINDS
        fleet.events.close()
