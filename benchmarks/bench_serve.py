"""Control-plane gates: the daemon at fleet scale.

One 10,000-device fleet persisted over two registry shards, served by
:class:`repro.serve.daemon.DaemonThread`, driven end to end through
:class:`repro.serve.client.FleetClient` -- every number below crosses
the real HTTP path, not the in-process seam:

* ``POST /attest`` over a 2,500-device sample must clear 500
  attests/s -- the async pump running the request's HMAC exchanges in
  one executor call, one durability flush per request;
* ``GET /campaigns/<id>/events`` must deliver its first event within
  1s of emission and surface a wave commit while the campaign is still
  running (the stream is live status, not a post-hoc transcript).

Reference numbers (2-vCPU container, CPython 3.11): the 2,500-device
``POST /attest`` runs ~8,200 attests/s (~3,200/s when every device
took its own executor hop and the request its own connection), about
the ~8-10k devices/s of a synchronous sweep, so the 500/s floor only
trips if the control plane itself (HTTP + asyncio + shard routing)
eats an order of magnitude.  The first streamed campaign event lands
within ~3-90 ms of its emission.

Emits ``BENCH_serve.json`` with a seeded ``history`` list folding in
previous runs, like the other trajectory artifacts.
"""

import gc
import json
import time

import pytest

from repro.fleet.simulation import FleetSimulation
from repro.serve import DaemonThread, FleetClient, open_sharded_store

FLEET_SIZE = 10_000
SHARDS = 2
ATTEST_SAMPLE = 2_500
ATTEST_FLOOR_PER_SEC = 500
WAVES = (0.02, 0.25, 1.0)
FIRST_EVENT_LATENCY_CEILING_S = 1.0
ARTIFACT = "BENCH_serve.json"

# Filled by the gates, written by the last one.
_RESULTS = {}


@pytest.fixture(scope="module")
def control_plane(tmp_path_factory):
    base = tmp_path_factory.mktemp("serve-bench")
    store = open_sharded_store(
        [str(base / f"shard-{n}.jsonl") for n in range(SHARDS)])
    # The build allocates one simulated device per record and no
    # garbage; keep the collector out of it, then freeze the result.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        fleet = FleetSimulation(size=FLEET_SIZE, store=store)
    finally:
        gc.freeze()
        if gc_was_enabled:
            gc.enable()
    thread = DaemonThread(fleet)
    try:
        yield fleet, FleetClient(thread.url, timeout=600.0)
    finally:
        thread.stop()
        store.close()


def test_bench_serve_concurrent_attest_throughput(benchmark, control_plane):
    fleet, client = control_plane
    status = client.status()
    assert status["devices"] == FLEET_SIZE
    assert status["store"]["shards"] == SHARDS
    device_ids = fleet.registry.ids()[:ATTEST_SAMPLE]

    def measure():
        started = time.perf_counter()
        doc = client.attest(device_ids)
        elapsed = time.perf_counter() - started
        assert doc["ok"] and doc["attested"] == len(device_ids)
        return len(device_ids) / elapsed

    rate = benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info["devices"] = FLEET_SIZE
    benchmark.extra_info["attest_sample"] = ATTEST_SAMPLE
    benchmark.extra_info["attests_per_sec"] = round(rate, 1)
    _RESULTS["attests_per_sec"] = round(rate, 1)
    assert rate >= ATTEST_FLOOR_PER_SEC, (
        f"control-plane attest ran {rate:.0f}/s "
        f"(floor {ATTEST_FLOOR_PER_SEC}/s)")


def test_bench_serve_campaign_stream_is_live(benchmark, control_plane,
                                              seeded_history):
    fleet, client = control_plane

    def measure():
        doc = client.rollout(1, waves=list(WAVES))
        campaign_id = doc["campaign"]
        assert campaign_id and doc["running"]
        first_latency = None
        commit_seen_live = False
        kinds = []
        for event in client.campaign_events(campaign_id, timeout=600.0):
            arrived = time.time()
            if first_latency is None:
                first_latency = arrived - event["ts"]
            if event["kind"] == "wave-commit" and not commit_seen_live:
                # Live status: the campaign must still be in flight
                # when its first wave commit reaches a subscriber.
                commit_seen_live = client.campaign(campaign_id)["running"]
            kinds.append(event["kind"])
        final = client.wait_campaign(campaign_id)
        return first_latency, commit_seen_live, kinds, final

    first_latency, commit_seen_live, kinds, final = benchmark.pedantic(
        measure, rounds=1, iterations=1)
    report = final["report"]
    assert report["status"] == "complete"
    assert report["applied"] == FLEET_SIZE
    assert kinds[0] == "campaign-start" and kinds[-1] == "campaign-end"
    assert kinds.count("wave-commit") == len(WAVES)
    assert fleet.registry.version_histogram() == {1: FLEET_SIZE}

    benchmark.extra_info["first_event_latency_ms"] = \
        round(first_latency * 1e3, 1)
    benchmark.extra_info["rollout_devices_per_sec"] = \
        round(report["devices_per_sec"])
    benchmark.extra_info["wave_commit_seen_live"] = commit_seen_live

    entry = {
        "ts": round(time.time(), 3),
        "devices": FLEET_SIZE,
        "shards": SHARDS,
        "attests_per_sec": _RESULTS.get("attests_per_sec"),
        "rollout_devices_per_sec": round(report["devices_per_sec"]),
        "first_event_latency_ms": round(first_latency * 1e3, 1),
    }
    doc = {
        "schema": "eilid.bench.serve",
        "version": 1,
        "fleet": {"devices": FLEET_SIZE, "shards": SHARDS,
                  "waves": list(WAVES)},
        "attests_per_sec": _RESULTS.get("attests_per_sec"),
        "rollout": report,
        "history": seeded_history(ARTIFACT, entry),
    }
    with open(ARTIFACT, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2)

    assert first_latency <= FIRST_EVENT_LATENCY_CEILING_S, (
        f"first streamed event arrived {first_latency:.2f}s after "
        f"emission (ceiling {FIRST_EVENT_LATENCY_CEILING_S}s)")
    assert commit_seen_live, (
        "no wave-commit reached the stream while the campaign was "
        "still running")
