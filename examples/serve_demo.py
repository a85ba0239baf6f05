#!/usr/bin/env python3
"""The fleet control plane: a verifier daemon driven over HTTP.

``fleet_demo.py`` runs the verifier as a library call; this demo runs
it as a *service*.  A daemon process owns the fleet -- devices, HMAC
sessions, two registry shards, the event log -- and everything below
talks to it through :class:`repro.serve.client.FleetClient`, the same
stdlib client behind ``fleet status --url``:

1. start ``serve run`` as a subprocess and read its readiness line
   (the JSON envelope carries the bound ephemeral port);
2. enroll extra devices and attest a slice over ``POST /attest`` --
   the daemon fans the exchanges out concurrently, decisions identical
   to the synchronous verifier's;
3. launch a staged rollout and follow ``GET /campaigns/<id>/events``
   live: wave commits stream while later waves are still rolling;
4. scrape ``GET /metrics`` (Prometheus text) for the request counters;
5. SIGTERM the daemon: it drains, flushes both shards and exits 0 --
   then reopen the shards offline to prove the state survived.
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time

from repro.fleet.simulation import FleetSimulation
from repro.serve import FleetClient, open_sharded_store

FLEET = 120
WAVES = (0.1, 0.5, 1.0)


def main():
    workdir = tempfile.mkdtemp(prefix="eilid-serve-")
    shards = [os.path.join(workdir, "shard-a.jsonl"),
              os.path.join(workdir, "shard-b.db")]
    events = os.path.join(workdir, "events.db")

    print("1. a verifier daemon starts in another process:")
    env = dict(os.environ)
    env["PYTHONPATH"] = env.get("PYTHONPATH", "src") or "src"
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "run",
         "--devices", str(FLEET),
         "--store-shard", shards[0], "--store-shard", shards[1],
         "--events", events, "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    ready = json.loads(daemon.stdout.readline())
    assert ready["schema"] == "eilid.serve.ready"
    print(f"   pid {daemon.pid}, {ready['devices']} devices at "
          f"{ready['url']} ({ready['shards']} shards)")

    client = FleetClient(ready["url"])

    print("2. enroll + attest over HTTP:")
    doc = client.enroll(count=30)
    assert doc["ok"] and doc["devices"] == FLEET + 30
    sample = [f"dev-{n:05d}" for n in range(40)]
    started = time.perf_counter()
    doc = client.attest(sample)
    elapsed = time.perf_counter() - started
    assert doc["ok"] and doc["attested"] == len(sample)
    print(f"   enrolled 30 (fleet now {FLEET + 30}), attested "
          f"{doc['attested']} in {elapsed * 1e3:.0f}ms "
          f"({len(sample) / elapsed:.0f}/s through the control plane)")

    print("3. a staged rollout, watched live off the event stream:")
    campaign = client.rollout(1, waves=list(WAVES))["campaign"]
    commits = 0
    for event in client.campaign_events(campaign, timeout=120):
        if event["kind"] == "wave-commit":
            commits += 1
            data = event["data"]
            still = client.campaign(campaign)["running"]
            print(f"   #{event['seq']:<4} wave {data['index']}: "
                  f"applied={data['applied']} "
                  f"({'campaign still running' if still else 'final wave'})")
        elif event["kind"] == "campaign-end":
            print(f"   #{event['seq']:<4} campaign-end")
    assert commits == len(WAVES)
    report = client.wait_campaign(campaign)["report"]
    assert report["status"] == "complete"
    assert report["applied"] == FLEET + 30

    print("4. the daemon's own request metrics (Prometheus text):")
    for line in client.metrics().splitlines():
        if line.startswith("eilid_serve_requests") and "{" not in line:
            print(f"   {line}")
    client.close()

    print("5. SIGTERM -> drain, flush every shard, exit 0:")
    daemon.send_signal(signal.SIGTERM)
    out, err = daemon.communicate(timeout=120)
    assert daemon.returncode == 0, err
    bye = json.loads(out.splitlines()[-1])
    assert bye["schema"] == "eilid.serve.shutdown" and bye["ok"]
    store = open_sharded_store(shards)
    fleet = FleetSimulation(store=store, events=events)
    histogram = dict(fleet.registry.version_histogram())
    assert len(fleet.registry) == FLEET + 30
    assert histogram == {1: FLEET + 30}
    store.close()
    print(f"   exit {daemon.returncode}, shards reopened offline: "
          f"{len(fleet.registry)} devices, versions {histogram}")

    print("ok: drove a live verifier daemon end to end over HTTP")


if __name__ == "__main__":
    main()
