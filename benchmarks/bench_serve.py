"""Control-plane gates: the daemon at fleet scale.

One 10,000-device fleet persisted over two registry shards, served by
:class:`repro.serve.daemon.DaemonThread`, driven end to end through
:class:`repro.serve.client.FleetClient` -- every number below crosses
the real HTTP path, not the in-process seam:

* ``POST /attest`` over a 2,500-device sample must clear 500
  attests/s -- the async pump running the request's HMAC exchanges on
  the event loop, one durability flush per request;
* single-device ``POST /attest``: over ``SINGLE_ATTESTS`` requests,
  the HTTP p50 may exceed the p50 of the same work done in-process
  (``fleet.attest_all([id])``: one exchange, one save, one flush) by
  at most ``SINGLE_OVERHEAD_CEILING_MS`` -- the control plane's own
  per-request cost (client, socket, parse, dispatch, answer);
* ``GET /campaigns/<id>/events`` must deliver its first event within
  1s of emission and surface a wave commit while the campaign is still
  running (the stream is live status, not a post-hoc transcript).

Reference numbers (2-vCPU container, CPython 3.11, host speed varying
run to run): the 2,500-device ``POST /attest`` read 5,200-7,300
attests/s when each request's exchanges took an executor hop and the
client was ``http.client`` (3 runs), and 4,100-7,200/s with the
exchanges on the loop and one write per request (11 runs) -- either
way about an in-process ``attest_all`` sweep, so the 500/s floor only
trips if the control plane itself (HTTP + asyncio + shard routing)
eats an order of magnitude.  The single-device overhead read
1.09-1.76 ms with the executor hop (3 runs, every one over the
ceiling) and 0.45-0.72 ms without it (11 runs).  The first streamed
campaign event lands within ~3-90 ms of its emission.

Emits ``BENCH_serve.json`` with a seeded ``history`` list folding in
previous runs, like the other trajectory artifacts.
"""

import gc
import json
import random
import statistics
import time

import pytest

from repro.fleet.simulation import FleetSimulation
from repro.serve import DaemonThread, FleetClient, open_sharded_store

FLEET_SIZE = 10_000
SHARDS = 2
ATTEST_SAMPLE = 2_500
ATTEST_FLOOR_PER_SEC = 500
SINGLE_ATTESTS = 500
SINGLE_OVERHEAD_CEILING_MS = 1.0
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


def _p99(samples):
    return sorted(samples)[int(0.99 * (len(samples) - 1))]


def test_bench_serve_single_attest_overhead(benchmark, control_plane):
    fleet, client = control_plane
    sample = random.Random(7).sample(fleet.registry.ids(), SINGLE_ATTESTS)

    def measure():
        # Interleaved, so both paths see the same machine.
        http_ms, local_ms = [], []
        for device_id in sample:
            started = time.perf_counter()
            doc = client.attest([device_id])
            http_ms.append((time.perf_counter() - started) * 1e3)
            assert doc["ok"], doc["failed"]
            started = time.perf_counter()
            result = fleet.attest_all([device_id])[device_id]
            local_ms.append((time.perf_counter() - started) * 1e3)
            assert result.ok, result.detail
        return http_ms, local_ms

    http_ms, local_ms = benchmark.pedantic(measure, rounds=1, iterations=1)
    overhead = statistics.median(http_ms) - statistics.median(local_ms)
    single = {
        "requests": SINGLE_ATTESTS,
        "http_p50_ms": round(statistics.median(http_ms), 3),
        "http_p99_ms": round(_p99(http_ms), 3),
        "local_p50_ms": round(statistics.median(local_ms), 3),
        "local_p99_ms": round(_p99(local_ms), 3),
        "overhead_ms": round(overhead, 3),
    }
    benchmark.extra_info.update(
        {f"single_attest_{key}": value for key, value in single.items()})
    _RESULTS["single_attest"] = single
    assert overhead <= SINGLE_OVERHEAD_CEILING_MS, (
        f"a single-device POST /attest took {overhead:.2f} ms over the "
        f"same work in-process (ceiling {SINGLE_OVERHEAD_CEILING_MS} ms)")


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
        "single_attest_overhead_ms":
            _RESULTS.get("single_attest", {}).get("overhead_ms"),
        "rollout_devices_per_sec": round(report["devices_per_sec"]),
        "first_event_latency_ms": round(first_latency * 1e3, 1),
    }
    doc = {
        "schema": "eilid.bench.serve",
        "version": 1,
        "fleet": {"devices": FLEET_SIZE, "shards": SHARDS,
                  "waves": list(WAVES)},
        "attests_per_sec": _RESULTS.get("attests_per_sec"),
        "single_attest": _RESULTS.get("single_attest"),
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
