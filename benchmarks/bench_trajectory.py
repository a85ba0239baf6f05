"""Longitudinal trajectory: N successive campaigns over one event DB.

The other fleet benchmarks measure one campaign in one process.  This
one measures the observability PR's actual promise: a verifier that
runs *successive* campaigns over the same durable store + SQLite event
DB -- with a full process "restart" (close, reopen, restore) between
campaigns -- and can then answer the longitudinal questions from the
event DB alone, through the real ``fleet history --json`` CLI:

* per-device timeline (enroll + one offer per campaign);
* per-campaign quarantine rollup (the tampered wave shows up);
* cross-campaign devices/sec trend.

Emits ``BENCH_fleet_trajectory.json`` to the working directory (CI
uploads it as an artifact) and asserts a conservative throughput
floor: the restart + SQLite + event-log overhead is part of the
measured path, so the floor sits well under the single-campaign
bench_fleet floor.
"""

import contextlib
import io
import json
import os
import time

from repro.cli import main as cli_main
from repro.fleet import CampaignConfig, CampaignStatus, FleetSimulation
from repro.obs import METRICS, parse_prometheus, write_snapshot

FLEET_SIZE = 300
CAMPAIGNS = 3
# Campaign 2's MITM share: small enough that the campaign still
# completes under a raised failure threshold, large enough that the
# quarantine rollup has something to show.
TAMPER_FRACTION = 0.05
# Conservative: the reference machine clears ~700 dev/s through this
# path; the floor only catches a broken batch loop or a store/event
# layer gone quadratic.
TRAJECTORY_FLOOR_DPS = 100


def _history_json(events_path, *flags):
    """Run the real CLI (``fleet history --json ...``) and parse it."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli_main(["fleet", "history", "--events", events_path,
                         "--json", *flags])
    assert code == 0
    return json.loads(stdout.getvalue())


def _run_trajectory(store_path, events_path):
    """CAMPAIGNS successive rollouts, each in a "fresh process"."""
    METRICS.reset()  # the exported snapshot covers just this trajectory
    reports = []
    for number in range(1, CAMPAIGNS + 1):
        fleet = FleetSimulation(size=FLEET_SIZE, store=store_path,
                                events=events_path)
        tamper = TAMPER_FRACTION if number == 2 else 0.0
        report = fleet.rollout(
            version=number,
            config=CampaignConfig(failure_threshold=0.5),
            tamper_fraction=tamper)
        reports.append(report)
        # The restart: close the durable layers so the next iteration
        # restores from disk, exactly like a new verifier process.
        fleet.registry.flush()
        fleet.registry.store.close()
        fleet.events.close()
    return reports


def test_bench_fleet_trajectory(benchmark, tmp_path, seeded_history):
    store_path = str(tmp_path / "registry.db")
    events_path = str(tmp_path / "events.db")

    started = time.perf_counter()
    reports = benchmark.pedantic(
        _run_trajectory, args=(store_path, events_path),
        rounds=1, iterations=1)
    elapsed = time.perf_counter() - started

    offers = sum(report.applied + report.failed for report in reports)
    devices_per_sec = offers / elapsed
    quarantined_total = FLEET_SIZE - reports[-1].applied

    assert all(report.status is CampaignStatus.COMPLETE
               for report in reports)
    assert reports[0].applied == FLEET_SIZE
    assert 0 < reports[1].failed <= FLEET_SIZE * TAMPER_FRACTION + 1
    # Quarantined devices are out of campaign 3's manageable set.
    assert reports[2].applied == FLEET_SIZE - reports[1].failed

    # ---- the longitudinal questions, through the real CLI ----------------

    campaigns = _history_json(events_path, "--campaigns")["campaigns"]
    assert len(campaigns) == CAMPAIGNS
    tampered = campaigns[1]
    assert tampered["quarantined"] == reports[1].failed
    assert tampered["quarantine_reasons"]  # per-reason breakdown present
    assert campaigns[0]["quarantined"] == 0

    trends = _history_json(events_path, "--trends")["trends"]
    assert trends["target_versions"] == [1, 2, 3]
    assert len(trends["devices_per_sec"]) == CAMPAIGNS
    assert all(dps > 0 for dps in trends["devices_per_sec"])

    devices = _history_json(events_path)["devices"]
    assert len(devices) == FLEET_SIZE
    clean = next(device_id for device_id, entry in sorted(devices.items())
                 if entry["quarantine_reason"] is None)
    timeline = _history_json(events_path, "--device", clean)["timeline"]
    kinds = [event["kind"] for event in timeline]
    assert kinds.count("enroll") == 1
    assert kinds.count("offer") == CAMPAIGNS  # one offer per campaign

    # ---- artifact + floor ------------------------------------------------

    doc = {
        "schema": "eilid.bench.fleet-trajectory",
        "version": 1,
        "devices": FLEET_SIZE,
        "campaigns": CAMPAIGNS,
        "tamper_fraction": TAMPER_FRACTION,
        "elapsed_s": round(elapsed, 3),
        "devices_per_sec": round(devices_per_sec, 1),
        "quarantined": quarantined_total,
        "campaign_rollup": campaigns,
        "trends": trends,
    }
    artifact = os.path.join(os.getcwd(), "BENCH_fleet_trajectory.json")
    doc["history"] = seeded_history(artifact, {
        "ts": round(time.time(), 3),
        "devices": FLEET_SIZE,
        "campaigns": CAMPAIGNS,
        "elapsed_s": round(elapsed, 3),
        "devices_per_sec": round(devices_per_sec, 1),
        "quarantined": quarantined_total,
    })
    assert doc["history"]  # the trajectory is never empty
    with open(artifact, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=False)

    # The Prometheus exposition of the span-derived metrics the three
    # campaigns recorded (CI uploads it next to the JSON artifact) --
    # and the smoke check that the exporter's line format stays
    # parseable (every sample line, one value, numeric).
    prom_artifact = os.path.join(os.getcwd(), "BENCH_fleet_trajectory.prom")
    snapshot = METRICS.snapshot()
    write_snapshot(prom_artifact, snapshot, fmt="prom",
                   source="bench_trajectory")
    with open(prom_artifact, encoding="utf-8") as handle:
        families = parse_prometheus(handle.read())
    assert "eilid_campaign_offer_ms_count" in families
    offer_count = families["eilid_campaign_offer_ms_count"][0][1]
    assert offer_count == offers, (
        f"prom export shows {offer_count} offer spans, campaigns "
        f"reported {offers} offers")

    benchmark.extra_info["devices_per_sec"] = round(devices_per_sec)
    benchmark.extra_info["quarantined"] = quarantined_total
    assert devices_per_sec >= TRAJECTORY_FLOOR_DPS
