#!/usr/bin/env python3
"""Live observability: watch a tampered rollout trip an alert.

``obs_demo.py`` replays history after the fact; this demo watches it
happen.  A verifier process runs a staged rollout under a MITM that
tampers a slice of the update packages, with the alert-rule engine
attached -- while a *separate* interpreter follows the event DB
through a tail cursor (exactly what ``fleet watch --follow`` does):

1. start a second process on a tampered, alert-enabled rollout;
2. follow its event DB live: offers, quarantines, wave commits and
   the ``quarantine-rate`` alert stream in seq order as they happen;
3. show the alert fired mid-campaign (before campaign-end), landed in
   the same log, and latched (one firing, many quarantines);
4. replay the finished log offline and fire the same alert again --
   rules window on event timestamps, not wall clock;
5. export the watcher-side view of the campaign metrics as
   Prometheus text.
"""

import json
import os
import subprocess
import sys
import tempfile
import time

from repro.obs import (
    AlertEngine,
    build_rules,
    open_event_log,
    open_event_tail,
    parse_prometheus,
    to_prometheus,
)

FLEET = 150
TAMPER = 0.10


def main():
    workdir = tempfile.mkdtemp(prefix="eilid-watch-")
    store = os.path.join(workdir, "registry.db")
    events = os.path.join(workdir, "events.db")

    print("1. a tampered rollout starts in another process:")
    env = dict(os.environ)
    env["PYTHONPATH"] = env.get("PYTHONPATH", "src") or "src"
    writer = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "fleet", "rollout",
         "--devices", str(FLEET), "--tamper-fraction", str(TAMPER),
         "--failure-threshold", "0.5", "--alerts",
         "--store", store, "--events", events, "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    print(f"   pid {writer.pid}, events -> {events}")

    print("2. following the event DB live (the fleet-watch loop):")
    docs = []
    shown = 0
    deadline = time.monotonic() + 120
    with open_event_tail(events) as tail:
        while time.monotonic() < deadline:
            batch = tail.read()
            docs.extend(batch)
            for doc in batch:
                interesting = doc["kind"] in ("campaign-start", "wave-commit",
                                              "alert", "campaign-end")
                if interesting or (doc["kind"] == "quarantine" and shown < 3):
                    shown += doc["kind"] == "quarantine"
                    data = doc["data"]
                    detail = data.get("message") or data.get("reason") or \
                        " ".join(f"{key}={data[key]}"
                                 for key in ("index", "target_version",
                                             "applied", "failed")
                                 if data.get(key) is not None)
                    print(f"   #{doc['seq']:<4} {doc['kind']:<14} "
                          f"{doc['device'] or '-':<12} {detail}")
            if any(doc["kind"] == "campaign-end" for doc in docs):
                break
            time.sleep(0.05)
    out, err = writer.communicate(timeout=60)
    assert writer.returncode == 0, err
    seqs = [doc["seq"] for doc in docs]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs), \
        "tail must deliver every event exactly once, in order"

    print("3. the alert fired mid-campaign and latched:")
    alerts = [doc for doc in docs if doc["kind"] == "alert"]
    quarantines = [doc for doc in docs if doc["kind"] == "quarantine"]
    end_seq = next(doc["seq"] for doc in docs
                   if doc["kind"] == "campaign-end")
    assert alerts, "the tampered slice must trip the default panel"
    first = alerts[0]
    assert first["data"]["rule"] == "quarantine-rate"
    assert first["seq"] < end_seq, "an alert after the fact is a post-mortem"
    rate_alerts = [doc for doc in alerts
                   if doc["data"]["rule"] == "quarantine-rate"]
    assert len(rate_alerts) == 1 and len(quarantines) > 1, \
        "one firing per (rule, campaign), however many quarantines"
    print(f"   #{first['seq']} [{first['data']['severity']}] "
          f"{first['data']['message']}")
    print(f"   ({len(quarantines)} quarantines, "
          f"{len(rate_alerts)} quarantine-rate firing, "
          f"campaign-end at #{end_seq})")

    print("4. offline replay fires the same alert (ts windows, not clocks):")
    log = open_event_log(events)
    replayed = AlertEngine(build_rules(None)).replay(log)
    log.close()
    replayed_rules = {record["rule"] for record in replayed}
    assert "quarantine-rate" in replayed_rules
    print(f"   replayed rules fired: {sorted(replayed_rules)}")

    print("5. the writer's envelope carries the same alerts + metrics:")
    envelope = json.loads(out)
    rollout = envelope["fleet"]["rollout"]
    assert rollout["alerts"] and \
        rollout["alerts"][0]["rule"] == "quarantine-rate"
    offers = rollout["metrics"]["campaign.offer.ms"]
    prom = to_prometheus({"counters": {}, "gauges": {},
                          "histograms": rollout["metrics"], "spans": []})
    families = parse_prometheus(prom)
    print(f"   {offers['count']:.0f} offers, "
          f"{len(families)} prometheus families, e.g.:")
    for line in prom.splitlines():
        if line.startswith("eilid_campaign_offer_ms"):
            print(f"     {line}")

    print("ok: watched a live rollout, caught the attack as it happened")


if __name__ == "__main__":
    main()
