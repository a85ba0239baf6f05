"""The ``fleet-ops`` workload: one closed-loop client against the
verifier daemon.

A ``FLEET_SIZE``-device ``casu`` fleet with trace verification on,
persisted over two JSONL registry shards and a JSONL event log, served
by :class:`repro.serve.DaemonThread` and driven by one sequential
:class:`repro.serve.FleetClient` (one request in flight, so one
connection at a time).  Each round is

1. ``POST /rollout`` of the next version, waited to campaign-end on the
   campaign's event stream (write-heavy: package MAC, device ROM copy,
   store flush, events);
2. an attest sweep of the whole fleet in ``ATTEST_BATCH``-device
   ``POST /attest`` requests (read-mostly: report MAC, trace replay,
   one flush per request);
3. ``SINGLE_ATTESTS`` single-device ``POST /attest`` requests, one at a
   time, in an order drawn from the seed.

Rounds repeat until the time is up.  The seed also seeds the fleet
(its transport); the channel is lossless, so every offer and attest
must succeed.
"""

import random
import shutil
import statistics
import time
from typing import Dict, List, Optional

from common import (
    WORK,
    Ledger,
    finish_setup,
    fresh_workdir,
    live_pool_threads,
    median_setup,
    nproc,
)
from tracer import percentile, tail_percentile

FLEET_SIZE = 2000
SHARDS = 2
ATTEST_BATCH = 100
SINGLE_ATTESTS = 1000


class FleetOps:
    name = "fleet-ops"

    def __init__(self, seed: int, ledger: Ledger, goldens: dict):
        self.seed = seed
        self.ledger = ledger
        self.goldens = goldens["fleet-ops"]
        self.fleet = None
        self.store = None
        self.daemon = None
        self.client = None
        self.version = 0
        self.max_campaign_threads = 0
        # Client (start_ns, end_ns) of the traced round's single attests.
        self.requests: List = []

    def workers(self) -> Dict[str, int]:
        from repro.fleet import CampaignConfig

        return {"serve.pump": nproc(),
                "campaign": CampaignConfig().effective_workers}

    # ---- setup / teardown ------------------------------------------------

    def _build(self):
        from repro.fleet.simulation import FleetSimulation
        from repro.serve import open_sharded_store

        workdir = fresh_workdir("fleet-ops")
        store = open_sharded_store(
            [str(workdir / f"shard-{n}.jsonl") for n in range(SHARDS)])
        fleet = FleetSimulation(size=FLEET_SIZE, security="casu",
                                verify_traces=True, seed=self.seed,
                                store=store,
                                events=str(workdir / "events.jsonl"))
        return fleet, store

    @staticmethod
    def _close(product):
        fleet, store = product
        store.close()
        fleet.events.close()

    def setup(self, probe) -> float:
        from repro.serve import DaemonThread, FleetClient

        seconds, (self.fleet, self.store) = median_setup(
            self._build, self._close, probe)
        finish_setup()
        self.daemon = DaemonThread(self.fleet, max_workers=nproc())
        self.client = FleetClient(self.daemon.url, timeout=120.0)
        return seconds

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None
        if self.fleet is not None:
            self._close((self.fleet, self.store))
            self.fleet = None
            shutil.rmtree(WORK / "fleet-ops", ignore_errors=True)

    # ---- one round -------------------------------------------------------

    def _request(self, call, *args):
        """One HTTP request: an operation that fails on any error."""
        from repro.serve import ServeError

        try:
            doc = call(*args)
        except (ServeError, OSError, ValueError) as error:
            self.ledger.op(False, f"HTTP {call.__name__}: {error}")
            return None
        self.ledger.op(True)
        return doc

    def _cycles(self) -> int:
        return sum(device.cycle for device in self.fleet.devices.values())

    def round(self, requests: Optional[List] = None, probe=None) -> dict:
        """Rollout, batched attest sweep, single attests; checked.

        *requests*, when given, collects each single attest's client
        ``(start_ns, end_ns)``; *probe* samples host speed between
        requests, when nothing is in flight.
        """
        ledger = self.ledger
        self.version += 1
        version = self.version
        cycles_before = self._cycles()

        if probe is not None:
            probe.sample()
        rollout_start = start = time.perf_counter()
        doc = self._request(self.client.rollout, version)
        report = None
        if doc is not None and doc.get("campaign"):
            for event in self.client.campaign_events(doc["campaign"],
                                                     timeout=120.0):
                self.max_campaign_threads = max(
                    self.max_campaign_threads,
                    live_pool_threads("ThreadPoolExecutor"))
                if event["kind"] == "campaign-end":
                    break
            rollout_s = time.perf_counter() - start
            final = self._request(self.client.wait_campaign, doc["campaign"])
            report = (final or {}).get("report")
        else:
            rollout_s = time.perf_counter() - start
        applied = 0
        if report is not None:
            applied = report["applied"]
            ledger.op(report["status"] == "complete",
                      f"rollout v{version}: {report['status']}")
        for index in range(FLEET_SIZE):
            ledger.op(index < applied, f"rollout v{version}: "
                                       f"{FLEET_SIZE - applied} not applied")
        rollout_cycles = self._cycles() - cycles_before

        ids = self.fleet.registry.ids()
        batches = []
        for offset in range(0, len(ids), ATTEST_BATCH):
            batch = ids[offset:offset + ATTEST_BATCH]
            sent = time.perf_counter()
            doc = self._request(self.client.attest, batch)
            batches.append((time.perf_counter() - sent, sent))
            self._count_attests(doc, len(batch))
            if probe is not None:
                probe.maybe()

        order = random.Random(self.seed * 7919 + version).sample(
            ids, SINGLE_ATTESTS)
        latencies = []
        for device_id in order:
            sent = time.perf_counter_ns()
            doc = self._request(self.client.attest, [device_id])
            done = time.perf_counter_ns()
            latencies.append(((done - sent) / 1e9, sent / 1e9))
            if requests is not None:
                requests.append((sent, done))
            self._count_attests(doc, 1)
            if probe is not None:
                probe.maybe()

        self.check_fleet(version, rollout_cycles)
        # Host-time samples are (seconds, start) pairs.
        return {"version": version, "rollout": (rollout_s, rollout_start),
                "batches": batches, "singles": latencies,
                "seconds": rollout_s + sum(b for b, _ in batches)
                + sum(t for t, _ in latencies),
                "rollout_cycles": rollout_cycles}

    def _count_attests(self, doc, expected: int) -> None:
        results = (doc or {}).get("results", [])
        ok = sum(1 for result in results if result["ok"])
        for index in range(expected):
            self.ledger.op(index < ok, "attest failed or missing")

    def check_fleet(self, version: int, rollout_cycles: int) -> None:
        from repro.fleet.registry import Lifecycle

        registry = self.fleet.registry
        self.ledger.same(f"version histogram after v{version}",
                         {version: FLEET_SIZE},
                         dict(registry.version_histogram()))
        self.ledger.same("quarantined devices", 0,
                         len(registry.by_state(Lifecycle.QUARANTINED)))
        self.ledger.same("rollout simulated cycles",
                         self.goldens["rollout_cycles"], rollout_cycles)
        threads = live_pool_threads("serve-pump")
        if threads > nproc() or self.max_campaign_threads > nproc():
            self.ledger.problems.append(
                f"load cap: {threads} pump / {self.max_campaign_threads} "
                f"campaign threads > nproc {nproc()}")
            self.ledger.failed += 1

    # ---- metrics ---------------------------------------------------------

    @staticmethod
    def headline(rounds: List[dict], probe=None) -> Dict[str, float]:
        """Medians per request kind across the rounds, and the round
        they add up to: one rollout, the batched sweep, the singles.
        With *probe*, every sample is first scaled to reference speed."""
        def scaled(samples):
            return [probe.seconds(elapsed, start) if probe is not None
                    else elapsed for elapsed, start in samples]

        rollout_s = statistics.median(scaled(r["rollout"] for r in rounds))
        batch_s = statistics.median(
            scaled(b for r in rounds for b in r["batches"]))
        singles_ms = [1e3 * t for t in
                      scaled(t for r in rounds for t in r["singles"])]
        single_ms = percentile(singles_ms, 50)
        pct, tail = tail_percentile(singles_ms)
        return {
            "rollout_dev_per_s": FLEET_SIZE / rollout_s,
            "attest_dev_per_s": ATTEST_BATCH / batch_s,
            "attest_p50_ms": single_ms,
            "attest_tail_ms": tail,
            "attest_tail_pct": pct,
            "attest_samples": len(singles_ms),
            "round_s": rollout_s + len(rounds[0]["batches"]) * batch_s
            + SINGLE_ATTESTS * single_ms / 1e3,
        }

    def measure(self, seconds: float, probe) -> Dict[str, tuple]:
        rounds: List[dict] = []
        start = time.perf_counter()
        # Start another unit only if one more fits in the window.
        while not rounds or (time.perf_counter() - start
                             + rounds[-1]["seconds"] <= seconds):
            rounds.append(self.round(probe=probe))
        probe.sample()
        head = self.headline(rounds, probe)
        print(f"fleet-ops: {len(rounds)} rounds; rollout "
              f"{head['rollout_dev_per_s']:.0f} dev/s, attest sweep "
              f"{head['attest_dev_per_s']:.0f} dev/s, single attest p50 "
              f"{head['attest_p50_ms']:.2f} ms, p{head['attest_tail_pct']} "
              f"{head['attest_tail_ms']:.2f} ms "
              f"({head['attest_samples']} samples)")
        return {
            "sim_cycles": (self.goldens["rollout_cycles"], "cycles"),
            "sim_cycles_per_s": (self.goldens["rollout_cycles"]
                                 / head["round_s"], "1/s"),
            "ops_per_s": ((2 * FLEET_SIZE + SINGLE_ATTESTS)
                          / head["round_s"], "1/s"),
        }

    # ---- traced run ------------------------------------------------------

    def traced(self, tracer, install) -> Dict[str, float]:
        from devices import ladder
        from repro.api import build_firmware
        from repro.fleet.simulation import fleet_firmware_spec

        untraced = self.round()
        program = build_firmware(fleet_firmware_spec()).program
        # The node idles after DONE; its idle loop is what the rungs run.
        out = ladder([(program, _FleetNode)], stop_on_done=False)
        out["eilid.extra_instr_frac"] = 0.0  # the fleet image is not instrumented
        with install():
            traced = self.round(self.requests)
        self.ledger.same("rollout cycles traced vs untraced",
                         untraced["rollout_cycles"], traced["rollout_cycles"])
        counters = tracer.counters()
        self.ledger.same("sim.cycles", untraced["rollout_cycles"],
                         counters.get("sim.cycles", 0))
        stats = tracer.stats()
        self.ledger.same("offers", FLEET_SIZE,
                         stats.get("protocol.offer", {}).get("count", 0))
        self.ledger.same("attests", FLEET_SIZE + SINGLE_ATTESTS,
                         stats.get("protocol.attest", {}).get("count", 0))
        head = self.headline([untraced])
        out.update({
            "unit.rollout_dev_per_s": head["rollout_dev_per_s"],
            "unit.attest_dev_per_s": head["attest_dev_per_s"],
            "unit.attest_p50_ms": head["attest_p50_ms"],
            "unit.attest_p99_ms": head["attest_tail_ms"],
            "tracing.overhead_frac": traced["seconds"] / untraced["seconds"] - 1,
        })
        return out


class _FleetNode:
    """Ladder stand-in for an app spec: the fleet node has no stimulus."""

    max_cycles = 2_000_000

    @staticmethod
    def make_peripherals():
        return None
