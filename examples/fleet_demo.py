#!/usr/bin/env python3
"""The verifier's day: enroll a fleet, watch it, update it, survive attacks.

Walks the whole fleet subsystem end to end on a few hundred simulated
EILID devices, driven through the public scenario API: one declarative
``ScenarioSpec`` with a ``fleet`` section, one ``Session`` managing the
population across every phase.

1. enroll devices over a lossy, reordering channel;
2. collect authenticated heartbeats (firmware hash + violation log),
   streamed one device at a time -- no materialised result lists;
3. stage a firmware rollout in canary waves -- every device runs the
   real authenticated update path, ROM copy included;
4. let a man-in-the-middle tamper with a fleet-wide share of packages
   and watch the device-side MAC check reject every one;
5. push hard enough that the campaign's failure threshold halts it;
6. corrupt one device's firmware and watch attestation quarantine it;
7. roll the next version out to the devices still manageable;
8. kill the verifier (well, drop the Session) and restart it on the
   durable store: devices restore instead of re-enrolling, nonce
   high-water marks persist, and ``resume`` re-offers nothing.
"""

import os
import tempfile

from repro.api import FleetSpec, RolloutSpec, ScenarioSpec, Session

FLEET = 200


def main():
    store = os.path.join(tempfile.mkdtemp(prefix="eilid-fleet-"),
                         "registry.jsonl")
    spec = ScenarioSpec(
        name="fleet-demo",
        security="casu",
        fleet=FleetSpec(size=FLEET, loss=0.05, reorder=0.10, seed=42,
                        max_attempts=8, store=store),
    )
    print(f"1. enrolling {FLEET} devices (5% loss, 10% reordering; "
          f"durable registry at {store}):")
    session = Session(spec)
    outcome = session.run()
    print(f"   -> {outcome.fleet.enrolled}/{FLEET} enrolled, "
          f"golden hashes pinned")

    print("2. heartbeat sweep (streamed, one device at a time):")
    retried = ok = 0
    for record in session.attest_stream():
        ok += record.ok
        retried += record.attempts > 1
    print(f"   -> {ok}/{FLEET} attested ok ({retried} needed retries)")

    print("3. staged rollout to v1 (5% canary, 25%, 100%):")
    rollout = session.rollout(RolloutSpec(version=1))
    print("   " + session.campaign_report.render().replace("\n", "\n   "))
    assert not rollout.halted

    print("4. rollout to v2 with a MITM tampering 8% of packages:")
    rollout = session.rollout(RolloutSpec(
        version=2, tamper_fraction=0.08, failure_threshold=0.20))
    report = session.campaign_report
    print("   " + report.render().replace("\n", "\n   "))
    assert report.waves and not rollout.halted
    rejected = sum(wave.statuses["rejected-bad-mac"] for wave in report.waves)
    print(f"   -> every tampered package rejected by the device MAC check "
          f"({rejected} rejections, offenders quarantined)")
    assert rollout.to_dict()["status"] == "complete"  # JSON-clean outcome

    print("5. rollout to v3 with 50% tampering -- the canary wave trips:")
    rollout = session.rollout(RolloutSpec(version=3, tamper_fraction=0.5))
    print("   " + session.campaign_report.render().replace("\n", "\n   "))
    assert rollout.halted and rollout.skipped > 0

    fleet = session.fleet  # the underlying simulation, for fault injection
    print("6. post-rollout heartbeat sweep re-pins the new firmware hashes:")
    ids = fleet.registry.manageable_ids()
    results = fleet.attest_all(ids)
    print(f"   -> {sum(1 for r in results.values() if r.ok)}/{len(results)} ok")

    print("7. one device's firmware gets corrupted in the field:")
    victim = ids[7]
    fleet.corrupt_firmware(victim)
    result = fleet.attest_all([victim])[victim]
    print(f"   -> attest({victim}): {result.detail}; "
          f"violations={list(result.report.violation_reasons)}")
    assert not result.ok

    print("8. rollout to v4 across the remaining healthy devices:")
    rollout = session.rollout(RolloutSpec(version=4))
    print("   " + session.campaign_report.render().replace("\n", "\n   "))
    assert not rollout.halted and rollout.applied > 0

    print("9. the verifier dies; a new one restarts on the durable store:")
    fleet.registry.store.close()
    reborn = Session(spec)
    restored = reborn.fleet.registry
    print(f"   -> {len(restored)} devices restored (no re-enrollment), "
          f"lifecycle and nonce high-water marks intact")
    assert {record.device_id for record in restored} \
        == {record.device_id for record in fleet.registry}
    assert all(record.nonce_high_water > 0 for record in restored)
    resumed = reborn.rollout(RolloutSpec(version=4, resume=True))
    print(f"   -> resume of the v4 campaign: {resumed.status}, "
          f"{resumed.resumed} devices already applied, "
          f"{resumed.applied} re-offered")
    assert resumed.applied == 0 and resumed.resumed > 0
    results = reborn.fleet.attest_all(restored.manageable_ids())
    print(f"   -> post-restart heartbeats: "
          f"{sum(1 for r in results.values() if r.ok)}/{len(results)} ok")
    assert all(result.ok for result in results.values())

    print("\nfleet telemetry:")
    print(fleet.status())
    print("\nfleet demo OK: authenticated updates, staged waves, "
          "threshold halts, quarantine on bad evidence, resumable "
          "campaigns.")


if __name__ == "__main__":
    main()
