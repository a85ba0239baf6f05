"""Control-plane tests: shard routing, async pump parity with the
synchronous verifier, the HTTP daemon + client, graceful shutdown.

The parity class is the load-bearing one: the daemon interleaves
thousands of HMAC exchanges on one event loop, and nothing about that
concurrency may change a single security decision -- quarantine
verdicts, accept decisions and nonce high-water marks must match the
synchronous ``attest_stream`` path device for device, including a
captured report replayed into the stream mid-sweep.
"""

import asyncio
import gc
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.fleet.campaign import CampaignConfig, CampaignStatus
from repro.fleet.protocol import (
    VERIFIER_ID,
    MsgKind,
    SignedReport,
    VerifierSession,
)
from repro.fleet.registry import Lifecycle
from repro.fleet.simulation import FleetSimulation
from repro.fleet.store import META_PACKAGES, JsonlStore, SqliteStore
from repro.obs.metrics import METRICS
from repro.serve import (
    AsyncFleetPump,
    DaemonThread,
    FleetClient,
    PumpBusy,
    ServeError,
    ShardedStore,
    ShardRouter,
    open_sharded_store,
)
from repro.serve import daemon as daemon_module
from repro.serve.client import collect


# ---- shard routing ----------------------------------------------------------


class TestShardRouter:
    def test_routing_is_stable_across_instances(self):
        ids = [f"dev-{n:05d}" for n in range(500)]
        first = ShardRouter(4)
        second = ShardRouter(4)
        assert [first.shard_for(i) for i in ids] == \
               [second.shard_for(i) for i in ids]

    def test_every_shard_owns_a_reasonable_share(self):
        ids = [f"dev-{n:05d}" for n in range(2000)]
        groups = ShardRouter(4).partition(ids)
        assert sorted(groups) == [0, 1, 2, 3]
        shares = [len(groups[shard]) / len(ids) for shard in sorted(groups)]
        # Consistent hashing is not perfectly uniform; vnodes keep the
        # skew bounded well inside what load balancing needs.
        assert all(0.10 <= share <= 0.45 for share in shares), shares

    def test_growing_the_ring_moves_few_ids(self):
        ids = [f"dev-{n:05d}" for n in range(2000)]
        four, five = ShardRouter(4), ShardRouter(5)
        moved = sum(1 for device_id in ids
                    if four.shard_for(device_id) != five.shard_for(device_id))
        # Ideal movement is 1/5 of the fleet; allow generous slack but
        # stay far from the ~4/5 a naive modulo hash would reshuffle.
        assert moved / len(ids) <= 0.40, moved

    def test_partition_preserves_order(self):
        ids = [f"dev-{n:05d}" for n in range(64)]
        groups = ShardRouter(3).partition(ids)
        for shard, members in groups.items():
            assert members == [i for i in ids
                               if ShardRouter(3).shard_for(i) == shard]

    def test_rejects_empty_ring(self):
        with pytest.raises(ValueError):
            ShardRouter(0)


class TestShardedStore:
    def _docs(self, count):
        return [{"device_id": f"dev-{n:05d}", "n": n} for n in range(count)]

    def test_records_route_and_merge(self, tmp_path):
        store = ShardedStore([JsonlStore(str(tmp_path / "a.jsonl")),
                              SqliteStore(str(tmp_path / "b.db"))])
        for doc in self._docs(40):
            store.save_record(doc)
        store.flush()
        assert len(store.load_records()) == 40
        counts = store.counts()
        assert sum(counts) == 40 and all(count > 0 for count in counts)
        store.close()

    def test_meta_lives_on_shard_zero(self, tmp_path):
        shard0 = JsonlStore(str(tmp_path / "a.jsonl"))
        shard1 = JsonlStore(str(tmp_path / "b.jsonl"))
        store = ShardedStore([shard0, shard1])
        store.save_meta({"clock": 7})
        store.flush()
        assert shard0.load_meta() == {"clock": 7}
        assert shard1.load_meta() == {}
        assert store.load_meta() == {"clock": 7}
        store.close()

    def test_open_sharded_store_dispatch(self, tmp_path):
        assert open_sharded_store(None).backend == "memory"
        single = open_sharded_store([str(tmp_path / "one.db")])
        assert single.backend == "sqlite"  # no ring for one shard
        single.close()
        multi = open_sharded_store([str(tmp_path / "a.jsonl"),
                                    str(tmp_path / "b.db")])
        assert multi.backend == "sharded"
        assert [store.backend for store in multi.stores] == \
               ["jsonl", "sqlite"]
        multi.close()

    def test_fleet_persists_and_restores_across_shards(self, tmp_path):
        paths = [str(tmp_path / "a.jsonl"), str(tmp_path / "b.db")]
        store = open_sharded_store(paths)
        fleet = FleetSimulation(size=12, store=store)
        fleet.attest_all()
        report = fleet.rollout(1, config=CampaignConfig(
            wave_fractions=(0.5, 1.0)))
        assert report.status is CampaignStatus.COMPLETE
        store.close()
        # Both shard files hold live state.
        assert os.path.getsize(paths[0]) > 0
        assert os.path.getsize(paths[1]) > 0
        reopened = open_sharded_store(paths)
        restored = FleetSimulation(store=reopened)
        assert len(restored.registry) == 12
        assert restored.registry.version_histogram() == {1: 12}
        # Restored devices still attest cleanly (replicas rebuilt with
        # the rolled-out payload; nonces advanced past the slack).
        results = restored.attest_all()
        assert all(result.ok for result in results.values())
        reopened.close()


# ---- campaign stop hook -----------------------------------------------------


class TestCampaignStop:
    def test_stop_observed_at_wave_boundary_then_resume(self, tmp_path):
        store = open_sharded_store([str(tmp_path / "a.jsonl"),
                                    str(tmp_path / "b.jsonl")])
        fleet = FleetSimulation(size=40, store=store)
        stop = threading.Event()
        # Trip the stop the moment the first wave commits: the second
        # wave must never be offered.
        subscription = fleet.events.bus.subscribe(
            lambda doc: stop.set(), kinds=("wave-commit",))
        report = fleet.rollout(1, config=CampaignConfig(
            wave_fractions=(0.1, 0.5, 1.0)), stop=stop)
        fleet.events.bus.unsubscribe(subscription)
        assert report.status is CampaignStatus.STOPPED
        assert report.stopped and not report.halted
        assert report.applied == 4 and report.skipped == 36
        assert "stop requested" in report.halt_reason
        # The flushed wave is durable; resume finishes the rest.
        resumed = fleet.rollout(1, resume=True)
        assert resumed.status is CampaignStatus.COMPLETE
        assert resumed.resumed == 4 and resumed.applied == 36
        assert fleet.registry.version_histogram() == {1: 40}
        store.close()

    def test_stop_set_before_run_offers_nothing(self):
        fleet = FleetSimulation(size=8)
        stop = threading.Event()
        stop.set()
        report = fleet.rollout(1, stop=stop)
        assert report.status is CampaignStatus.STOPPED
        assert report.applied == 0 and report.skipped == 8
        assert fleet.registry.version_histogram() == {0: 8}


# ---- async/sync decision parity ---------------------------------------------


FLEET_KW = dict(size=24, loss=0.15, seed=7)


def _decisions(results_by_id, fleet):
    """(ok, detail, state, nonce high-water) per device."""
    out = {}
    for device_id, (ok, detail) in results_by_id.items():
        record = fleet.registry.get(device_id)
        out[device_id] = (ok, detail, record.state.value,
                         record.nonce_high_water)
    return out


def _pump_sweep(fleet, sweeps=1):
    """Run N fully concurrent attest sweeps on a fresh event loop."""

    async def _run():
        pump = AsyncFleetPump(fleet)
        try:
            last = None
            for _ in range(sweeps):
                last = await pump.attest()
            return last
        finally:
            pump.close()

    results = asyncio.run(_run())
    return {doc["device"]: (doc["ok"], doc["detail"]) for doc in results}


class TestAsyncSyncParity:
    def test_concurrent_attest_matches_attest_all(self):
        sync_fleet = FleetSimulation(**FLEET_KW)
        async_fleet = FleetSimulation(**FLEET_KW)
        # Two sweeps: the second starts from advanced nonces/cycles, so
        # ordering bugs that only surface after state moves would show.
        sync_last = None
        for _ in range(2):
            sync_last = fleet_results = {
                device_id: (result.ok, result.detail)
                for device_id, result in sync_fleet.attest_all().items()}
        async_last = _pump_sweep(async_fleet, sweeps=2)
        assert _decisions(async_last, async_fleet) == \
               _decisions(sync_last, sync_fleet)

    def test_concurrent_attest_matches_api_attest_stream(self):
        from repro.api import FleetSpec, ScenarioSpec, Session

        spec = ScenarioSpec(name="fleet", security="casu",
                            fleet=FleetSpec(run_cycles=0, **FLEET_KW))
        session = Session(spec)
        stream = {
            attestation.device_id: (attestation.ok, attestation.detail)
            for attestation in session.attest_stream()}
        sync = _decisions(stream, session.fleet)

        async_fleet = FleetSimulation(**FLEET_KW)
        concurrent = _decisions(_pump_sweep(async_fleet), async_fleet)
        assert concurrent == sync

    def test_replayed_report_mid_stream_quarantines_identically(self):
        """A captured (authentically MAC'd, stale-nonce) report sitting
        in one device's uplink while the whole fleet attests
        concurrently must quarantine that device with 'replay' -- the
        same verdict the synchronous sweep reaches."""
        fleets = [FleetSimulation(**FLEET_KW), FleetSimulation(**FLEET_KW)]
        sync_fleet, async_fleet = fleets
        victim = sync_fleet.registry.ids()[5]
        captured = {}
        for fleet in fleets:
            # Sweep once so the victim has a consumed nonce to replay.
            results = fleet.attest_all()
            assert results[victim].ok, "pick a reachable victim"
            record = fleet.registry.get(victim)
            captured[fleet] = SignedReport.make(
                record.key, b"attest", victim, record.nonce_high_water,
                results[victim].report)
            link = fleet.transport.link(victim)
            # Partition the device and inject the capture: the only
            # reply the verifier can see is the attacker's.
            link.down.loss = 1.0
            link.up.send(victim, VERIFIER_ID,
                         MsgKind.ATTEST_REPORT.value, captured[fleet])
        sync = _decisions(
            {device_id: (result.ok, result.detail)
             for device_id, result in sync_fleet.attest_all().items()},
            sync_fleet)
        concurrent = _decisions(_pump_sweep(async_fleet), async_fleet)
        assert concurrent == sync
        assert concurrent[victim][1] == "replay"
        assert concurrent[victim][2] == Lifecycle.QUARANTINED.value

    def test_per_device_ordering_is_preserved(self):
        """Many concurrent attest requests against ONE device
        serialise: every exchange consumes a fresh nonce, none
        collide."""
        fleet = FleetSimulation(size=3)
        device_id = fleet.registry.ids()[0]

        async def _run():
            pump = AsyncFleetPump(fleet)
            try:
                return await asyncio.gather(
                    *(pump.attest([device_id]) for _ in range(8)))
            finally:
                pump.close()

        outcomes = asyncio.run(_run())
        assert all(doc["ok"] for (doc,) in outcomes)
        record = fleet.registry.get(device_id)
        # enroll + 8 attests, each exactly one nonce
        assert record.nonce_high_water == 9
        assert record.attest_count == 8

    def test_crossed_requests_do_not_deadlock(self):
        """[a, b] and [b, a] at once, on more pump threads than cores
        and a short switch interval: each request holds one device lock
        at a time, so neither waits on the other forever, and each
        device's nonce advances exactly once per request."""
        fleet = FleetSimulation(size=3)
        first, second = fleet.registry.ids()[:2]

        async def _run():
            pump = AsyncFleetPump(fleet, max_workers=8)
            try:
                return await asyncio.wait_for(asyncio.gather(
                    *(pump.attest(ids) for ids in
                      [[first, second], [second, first]] * 8)), 60)
            finally:
                pump.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            outcomes = asyncio.run(_run())
        finally:
            sys.setswitchinterval(interval)
        assert all(doc["ok"] for docs in outcomes for doc in docs)
        for device_id in (first, second):
            record = fleet.registry.get(device_id)
            assert record.attest_count == 16
            assert record.nonce_high_water == 17

    def test_sweep_overlapping_single_attests(self):
        fleet = FleetSimulation(size=12)
        ids = fleet.registry.ids()
        singles = ids[::3]

        async def _run():
            pump = AsyncFleetPump(fleet, max_workers=4)
            try:
                return await asyncio.wait_for(asyncio.gather(
                    pump.attest(), *(pump.attest([device_id])
                                     for device_id in singles)), 60)
            finally:
                pump.close()

        sweep, *single_docs = asyncio.run(_run())
        assert [doc["device"] for doc in sweep] == ids
        assert all(doc["ok"] for doc in sweep)
        assert all(docs[0]["ok"] for docs in single_docs)
        for device_id in ids:
            record = fleet.registry.get(device_id)
            expected = 2 if device_id in singles else 1
            assert record.attest_count == expected
            assert record.nonce_high_water == 1 + expected

    def test_rollout_holds_the_fleet_exclusively(self):
        fleet = FleetSimulation(size=4)

        async def _run():
            pump = AsyncFleetPump(fleet)
            try:
                pump._campaign_future = asyncio.get_running_loop(
                    ).create_future()  # a campaign that never finishes
                with pytest.raises(PumpBusy):
                    await pump.attest()
                with pytest.raises(PumpBusy):
                    await pump.enroll(count=1)
                pump._campaign_future.cancel()
            finally:
                pump.close()

        asyncio.run(_run())


# ---- the HTTP daemon + client -----------------------------------------------


@pytest.fixture()
def daemon_fleet():
    fleet = FleetSimulation(size=16)
    with DaemonThread(fleet) as thread, FleetClient(thread.url) as client:
        yield fleet, client


class TestDaemonApi:
    def test_status_envelope(self, daemon_fleet):
        fleet, client = daemon_fleet
        doc = client.status()
        assert doc["schema"] == "eilid.serve.status" and doc["version"] == 1
        assert doc["ready"] is True and doc["devices"] == 16
        assert doc["states"] == {"enrolled": 16}
        assert doc["store"] == {"backend": "none", "shards": 1}

    def test_enroll_by_count_and_by_id(self, daemon_fleet):
        fleet, client = daemon_fleet
        doc = client.enroll(count=3)
        assert doc["schema"] == "eilid.serve.enroll"
        assert doc["ok"] and doc["enrolled"] == 3 and doc["devices"] == 19
        doc = client.enroll(device_ids=["sensor-a", "sensor-b"])
        assert doc["ok"] and set(doc["device_ids"]) == \
               {"sensor-a", "sensor-b"}
        assert len(fleet.registry) == 21

    def test_enroll_needs_a_body(self, daemon_fleet):
        _fleet, client = daemon_fleet
        with pytest.raises(ServeError) as excinfo:
            client.enroll()
        assert excinfo.value.status == 400

    def test_attest_full_and_subset(self, daemon_fleet):
        fleet, client = daemon_fleet
        doc = client.attest()
        assert doc["schema"] == "eilid.serve.attest"
        assert doc["ok"] and doc["attested"] == 16 and doc["failed"] == []
        subset = fleet.registry.ids()[:4]
        doc = client.attest(subset)
        assert doc["attested"] == 4
        assert [entry["device"] for entry in doc["results"]] == subset
        assert all(entry["nonce_high_water"] >= 2
                   for entry in doc["results"])

    def test_attest_unknown_device_is_404(self, daemon_fleet):
        _fleet, client = daemon_fleet
        with pytest.raises(ServeError) as excinfo:
            client.attest(["no-such-device"])
        assert excinfo.value.status == 404

    def test_rollout_campaign_and_streaming_events(self, daemon_fleet):
        fleet, client = daemon_fleet
        doc = client.rollout(1, waves=[0.25, 1.0])
        assert doc["schema"] == "eilid.serve.rollout"
        campaign_id = doc["campaign"]
        assert campaign_id
        streamed = collect(client.campaign_events(campaign_id))
        kinds = [event["kind"] for event in streamed]
        assert kinds[0] == "campaign-start" and kinds[-1] == "campaign-end"
        assert kinds.count("wave-commit") == 2
        assert all(event["campaign"] == campaign_id for event in streamed)
        seqs = [event["seq"] for event in streamed]
        assert seqs == sorted(seqs)
        final = client.wait_campaign(campaign_id)
        assert final["report"]["status"] == "complete"
        assert final["report"]["applied"] == 16
        assert final["rollup"]["campaign"] == campaign_id
        assert fleet.registry.version_histogram() == {1: 16}

    def test_campaign_stream_replays_finished_campaigns(self, daemon_fleet):
        _fleet, client = daemon_fleet
        campaign_id = client.rollout(1)["campaign"]
        client.wait_campaign(campaign_id)
        # A second stream over the same (finished) campaign serves the
        # backlog and terminates -- it must not hang waiting for more.
        streamed = collect(client.campaign_events(campaign_id))
        assert streamed and streamed[-1]["kind"] == "campaign-end"

    def test_unknown_campaign_is_404(self, daemon_fleet):
        _fleet, client = daemon_fleet
        with pytest.raises(ServeError) as excinfo:
            client.campaign("c999")
        assert excinfo.value.status == 404
        with pytest.raises(ServeError) as excinfo:
            collect(client.campaign_events("c999"))
        assert excinfo.value.status == 404

    def test_malformed_campaign_id_is_404(self, daemon_fleet):
        _fleet, client = daemon_fleet
        for campaign_id in ("bogus", "c", "c-1", "cx1"):
            with pytest.raises(ServeError) as excinfo:
                client.campaign(campaign_id)
            assert excinfo.value.status == 404

    def test_events_backlog_and_since_cursor(self, daemon_fleet):
        _fleet, client = daemon_fleet
        client.attest()
        docs = collect(client.events())
        assert len(docs) >= 16
        seqs = [doc["seq"] for doc in docs]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        later = collect(client.events(since=seqs[-4]))
        assert [doc["seq"] for doc in later] == seqs[-3:]

    def test_metrics_exposition(self, daemon_fleet):
        _fleet, client = daemon_fleet
        client.attest()
        text = client.metrics()
        assert "eilid_serve_requests" in text
        assert "eilid_serve_request_attest_ms" in text

    def test_unknown_route_and_wrong_method(self, daemon_fleet):
        _fleet, client = daemon_fleet
        with pytest.raises(ServeError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404
        with pytest.raises(ServeError) as excinfo:
            client._request("GET", "/enroll")
        assert excinfo.value.status == 405

    def test_malformed_body_is_400(self, daemon_fleet):
        import http.client

        _fleet, client = daemon_fleet
        connection = http.client.HTTPConnection(client.host, client.port,
                                                timeout=30)
        try:
            connection.request("POST", "/attest", body="{not json",
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            doc = json.loads(response.read())
            assert response.status == 400
            assert doc["schema"] == "eilid.serve.error"
        finally:
            connection.close()

    def test_rollout_requires_version(self, daemon_fleet):
        _fleet, client = daemon_fleet
        with pytest.raises(ServeError) as excinfo:
            client._request("POST", "/rollout", {"waves": [1.0]})
        assert excinfo.value.status == 400

    def test_bad_campaign_config_is_400(self, daemon_fleet):
        _fleet, client = daemon_fleet
        with pytest.raises(ServeError) as excinfo:
            client.rollout(1, waves=[0.5])  # must end at 1.0
        assert excinfo.value.status == 400

    def test_thread_backend_is_400(self, daemon_fleet):
        _fleet, client = daemon_fleet
        with pytest.raises(ServeError, match="serial, process") as excinfo:
            client.rollout(1, backend="thread")
        assert excinfo.value.status == 400


class TestRolloutBodyRules:
    """``POST /rollout`` knobs pass CampaignConfig's rules and the
    target-version rule: a bad value answers 400 naming its field, and
    no campaign is minted, no package recorded, no device touched."""

    @pytest.fixture()
    def daemon(self):
        daemon = daemon_module.VerifierDaemon(FleetSimulation(size=20))
        yield daemon
        daemon.pump.close()

    @pytest.mark.parametrize("body,field", [
        ({"waves": [-2.0, 1.0]}, "waves"),
        ({"waves": [0.0, 1.0]}, "waves"),
        ({"waves": [0.0, 0.0, 1.0]}, "waves"),
        ({"waves": "abc"}, "waves"),
        ({"max_attempts": 0}, "max_attempts"),
        ({"max_attempts": -1}, "max_attempts"),
        ({"workers": 1.5}, "workers"),
        ({"workers": -1}, "workers"),
        ({"failure_threshold": True}, "failure_threshold"),
        ({"backend": "thread"}, "backend"),
        ({"resume": "yes"}, "resume"),
        ({"version": 0}, "version"),
        ({"version": -5}, "version"),
        ({"metrics_dump": "metrics.prom"}, "metrics_dump"),
        ({"colour": "blue"}, "colour"),
    ])
    def test_bad_knob_is_400_and_starts_nothing(self, daemon, body, field):
        fleet = daemon.fleet
        states = fleet.registry.state_histogram()
        response = asyncio.run(daemon.dispatch(
            "POST", "/rollout", body=dict({"version": 1}, **body)))
        assert response.status == 400
        assert field in response.doc["error"]
        assert daemon.campaigns == {}
        assert fleet.events.events(kind="campaign-start") == []
        assert META_PACKAGES not in fleet.registry.meta
        assert fleet.registry.state_histogram() == states


def _raw_exchange(port: int, payload: bytes, timeout: float = 10.0
                  ) -> bytes:
    """Send *payload*, half-close, and read until the daemon closes.
    A reset (ConnectionResetError) is never a clean close: it fails."""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=timeout) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def _parse_responses(data: bytes):
    """Split a connection's bytes into well-formed responses:
    ``[(status, headers, body)]``; an AssertionError if any is not."""
    responses = []
    while data:
        head, separator, rest = data.partition(b"\r\n\r\n")
        assert separator, f"truncated response head {data[:80]!r}"
        lines = head.decode("latin-1").split("\r\n")
        version, status, _reason = lines[0].split(" ", 2)
        assert version == "HTTP/1.1"
        headers = {name.strip().lower(): value.strip() for name, _, value
                   in (line.partition(":") for line in lines[1:])}
        if "content-length" in headers:
            length = int(headers["content-length"])
            body, data = rest[:length], rest[length:]
            assert len(body) == length, "truncated response body"
            if headers["content-type"] == "application/json":
                json.loads(body)  # raises unless well formed
        else:  # a close-delimited JSONL stream
            assert headers["connection"] == "close"
            body, data = rest, b""
            for line in body.splitlines():
                json.loads(line)
        responses.append((int(status), headers, body))
    return responses


def _http(path: str, body: bytes = b"", method: str = "POST",
          headers: str = "") -> bytes:
    length = f"Content-Length: {len(body)}\r\n" if body else ""
    return (f"{method} {path} HTTP/1.1\r\nHost: x\r\n{headers}{length}"
            f"\r\n").encode() + body


class TestMalformedRequests:
    """Each of these once closed the socket with no status line (or,
    for the string ids, enrolled ``a``, ``b``, ``c``).  Every one is a
    400 now, the connection closes only when its framing is bad, and
    the daemon keeps serving."""

    def _answer(self, daemon_fleet, payload: bytes):
        _fleet, client = daemon_fleet
        (status, headers, body), = _parse_responses(
            _raw_exchange(client.port, payload))
        assert json.loads(body)["schema"] == "eilid.serve.error"
        assert client.status()["ready"] is True
        return status, headers.get("connection")

    def test_non_numeric_content_length(self, daemon_fleet):
        payload = _http("/attest", headers="Content-Length: abc\r\n")
        assert self._answer(daemon_fleet, payload) == (400, "close")

    def test_negative_content_length(self, daemon_fleet):
        payload = _http("/attest", headers="Content-Length: -5\r\n")
        assert self._answer(daemon_fleet, payload) == (400, "close")

    def test_header_over_the_reader_limit(self, daemon_fleet):
        payload = _http("/status", method="GET",
                        headers=f"X-Big: {'a' * 70_000}\r\n")
        assert self._answer(daemon_fleet, payload) == (400, "close")

    def test_oversized_body_still_gets_its_400(self, daemon_fleet):
        """The body is refused unread; closing on that unread input
        must not reset the connection before the 400 is read."""
        payload = _http("/attest", b"x" * (daemon_module.MAX_BODY_BYTES + 1))
        assert self._answer(daemon_fleet, payload) == (400, "close")

    def test_body_that_is_not_an_object(self, daemon_fleet):
        payload = _http("/attest", b"[1,2]")
        assert self._answer(daemon_fleet, payload) == (400, None)

    def test_device_ids_not_a_list(self, daemon_fleet):
        payload = _http("/attest", b'{"device_ids": 5}')
        assert self._answer(daemon_fleet, payload) == (400, None)

    def test_waves_not_a_list(self, daemon_fleet):
        payload = _http("/rollout", b'{"version": 2, "waves": 5}')
        assert self._answer(daemon_fleet, payload) == (400, None)

    def test_string_device_ids_enroll_nothing(self, daemon_fleet):
        fleet, _client = daemon_fleet
        payload = _http("/enroll", b'{"device_ids": "abc"}')
        assert self._answer(daemon_fleet, payload) == (400, None)
        assert len(fleet.registry) == 16

    def test_string_device_ids_on_attest(self, daemon_fleet):
        payload = _http("/attest", b'{"device_ids": "abc"}')
        assert self._answer(daemon_fleet, payload) == (400, None)


class TestPersistentConnections:
    def test_json_calls_share_one_connection(self, daemon_fleet):
        fleet, client = daemon_fleet
        connections = METRICS.counter("serve.connections")
        requests = METRICS.counter("serve.requests")
        client.status()
        client.attest(fleet.registry.ids()[:2])
        client.attest()
        client.metrics()
        client.status()
        assert METRICS.counter("serve.requests") - requests == 5
        assert METRICS.counter("serve.connections") - connections == 1

    def test_stop_with_an_idle_client_is_prompt(self):
        thread = DaemonThread(FleetSimulation(size=4))
        with FleetClient(thread.url) as client:
            client.status()  # leaves the kept-alive connection idle
            started = time.perf_counter()
            thread.stop()
            assert time.perf_counter() - started < 1.0

    def test_idle_closed_connection_is_retried_once(self, monkeypatch):
        monkeypatch.setattr(daemon_module, "REQUEST_TIMEOUT_S", 0.2)
        with DaemonThread(FleetSimulation(size=4)) as thread, \
                FleetClient(thread.url) as client:
            connections = METRICS.counter("serve.connections")
            assert client.status()["ready"] is True
            time.sleep(0.6)  # the daemon closes the idle connection
            assert client.status()["ready"] is True
            assert METRICS.counter("serve.connections") - connections == 2

    def test_only_a_reused_connection_is_retried(self):
        """A server that answers one request, then reads each request
        and hangs up unanswered: the reused connection's failure is
        resent once on a fresh connection, which fails and is not
        resent again; a fresh connection's failure is not resent."""
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(0.05)
        stop = threading.Event()
        accepted = []
        answer = (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                  b"Content-Length: 2\r\n\r\n{}")

        def _serve():
            while not stop.is_set():
                try:
                    conn, _ = listener.accept()
                except socket.timeout:
                    continue
                with conn:
                    conn.settimeout(5)
                    accepted.append(conn)
                    conn.recv(1 << 16)
                    if len(accepted) == 1:
                        conn.sendall(answer)
                        conn.recv(1 << 16)

        server = threading.Thread(target=_serve, daemon=True)
        server.start()
        url = f"http://127.0.0.1:{listener.getsockname()[1]}"
        try:
            with FleetClient(url, timeout=10) as client:
                assert client.status() == {}
                with pytest.raises(ConnectionError):
                    client.status()
                assert len(accepted) == 2
            with FleetClient(url, timeout=10) as client, \
                    pytest.raises(ConnectionError):
                client.status()
            assert len(accepted) == 3
        finally:
            stop.set()
            server.join(5)
            listener.close()


class TestCampaignStreamCursor:
    def test_stream_starts_at_the_campaign_start(self):
        fleet = FleetSimulation(size=8)
        for _ in range(5):
            fleet.attest_all()  # earlier events the stream must skip
        with DaemonThread(fleet) as thread, \
                FleetClient(thread.url) as client:
            asked = []
            tail = fleet.events.tail
            fleet.events.tail = lambda since_seq=0: (
                asked.append(since_seq) or tail(since_seq=since_seq))
            campaign_id = client.rollout(1, waves=[0.5, 1.0])["campaign"]
            streamed = collect(client.campaign_events(campaign_id))
            client.wait_campaign(campaign_id)
        start_seq = int(campaign_id[1:])
        assert start_seq > 40
        assert streamed == fleet.events.events(campaign=campaign_id)
        assert streamed[0]["seq"] == start_seq
        assert asked and min(asked) == start_seq - 1

    def test_stream_of_a_campaign_an_earlier_daemon_started(self):
        fleet = FleetSimulation(size=8)
        for _ in range(5):
            fleet.attest_all()  # earlier events the stream must skip
        with DaemonThread(fleet) as thread, \
                FleetClient(thread.url) as client:
            campaign_id = client.rollout(1, waves=[0.5, 1.0])["campaign"]
            client.wait_campaign(campaign_id)
        with DaemonThread(fleet) as thread, \
                FleetClient(thread.url) as client:
            asked = []
            tail = fleet.events.tail
            fleet.events.tail = lambda since_seq=0: (
                asked.append(since_seq) or tail(since_seq=since_seq))
            streamed = collect(client.campaign_events(campaign_id))
        start_seq = int(campaign_id[1:])
        assert start_seq > 40
        assert streamed == fleet.events.events(campaign=campaign_id)
        assert streamed[-1]["kind"] == "campaign-end"
        assert asked and min(asked) == start_seq - 1


def _pump_threads():
    return {thread for thread in threading.enumerate()
            if thread.name.startswith("serve-pump")}


class TestWhereExchangesRun:
    """An attest is answered on the loop thread that read it, one
    device at a time, yielding to the loop between devices once a
    millisecond of exchange work has run; the pump's executor runs only
    enrollments and campaigns, and a campaign never starts while an
    exchange is in flight."""

    def test_a_long_attest_yields_by_elapsed_time(self, monkeypatch):
        """A 100-device attest whose exchanges each take 0.25 ms (on
        the pump's clock, not the host's) yields about once per
        millisecond of work, not once per device."""
        from repro.serve import pump as pump_module

        fleet = FleetSimulation(size=100)
        clock = [0.0]
        yields = []
        attest = VerifierSession.attest
        sleep = asyncio.sleep

        def timed(session):
            clock[0] += 0.00025
            return attest(session)

        async def counting_sleep(delay, *args):
            yields.append(delay)
            return await sleep(delay, *args)

        monkeypatch.setattr(pump_module, "perf_counter", lambda: clock[0],
                            raising=False)
        monkeypatch.setattr(VerifierSession, "attest", timed)
        monkeypatch.setattr(asyncio, "sleep", counting_sleep)

        async def run():
            pump = AsyncFleetPump(fleet)
            try:
                return await pump.attest()
            finally:
                pump.close()

        docs = asyncio.run(run())
        assert len(docs) == 100 and all(doc["ok"] for doc in docs)
        # 25 ms of exchange work: a yield after every fourth device.
        assert 20 <= len(yields) <= 25

    def test_attest_exchanges_run_on_the_loop_thread(self, monkeypatch):
        fleet = FleetSimulation(size=6)
        threads = []
        attest = VerifierSession.attest
        monkeypatch.setattr(VerifierSession, "attest", lambda session: (
            threads.append(threading.current_thread().name)
            or attest(session)))
        with DaemonThread(fleet) as thread, \
                FleetClient(thread.url) as client:
            client.attest()
            client.attest(fleet.registry.ids()[:2])
            client.enroll(count=1)
            client.attest(fleet.registry.ids()[-1:])
        assert threads == ["serve-daemon"] * 9

    def test_attest_only_traffic_starts_no_pump_thread(self):
        before = _pump_threads()
        fleet = FleetSimulation(size=6)
        with DaemonThread(fleet) as thread, \
                FleetClient(thread.url) as client:
            client.attest()
            for device_id in fleet.registry.ids():
                client.attest([device_id])
            assert not _pump_threads() - before
            client.enroll(count=1)
            assert _pump_threads() - before

    def test_status_is_answered_while_a_long_attest_runs(self, monkeypatch):
        fleet = FleetSimulation(size=500)
        exchanges = []
        first = threading.Event()
        attest = VerifierSession.attest

        def counting(session):
            # Each exchange takes at least 0.2 ms, so the sweep outlasts
            # a /status round trip however fast an attest is.
            first.set()
            started = time.perf_counter()
            result = attest(session)
            time.sleep(max(0.0, started + 0.0002 - time.perf_counter()))
            exchanges.append(result)
            return result

        monkeypatch.setattr(VerifierSession, "attest", counting)
        with DaemonThread(fleet) as thread, \
                FleetClient(thread.url) as sweeper, \
                FleetClient(thread.url) as prober:
            sweep = threading.Thread(target=sweeper.attest)
            sweep.start()
            try:
                assert first.wait(60)
                assert prober.status()["ready"] is True
                answered_after = len(exchanges)
            finally:
                sweep.join(120)
        assert len(exchanges) == 500
        assert answered_after < 500

    def test_rollout_starts_only_with_no_attest_in_flight(self):
        """An attest that starts between the idle signal and a waiting
        rollout's wake-up finishes before the campaign launches, and of
        two rollouts that waited together only one launches."""
        fleet = FleetSimulation(size=8)
        ids = fleet.registry.ids()

        async def _run():
            pump = AsyncFleetPump(fleet)
            inflight_at_launch = []
            run_blocking = pump._run_blocking

            def recording(func, *args):
                if func == fleet.rollout:
                    inflight_at_launch.append(pump._inflight)
                return run_blocking(func, *args)

            pump._run_blocking = recording

            async def between():
                await pump._idle.wait()
                return await pump.attest(ids[:3])

            try:
                first = asyncio.ensure_future(pump.attest())
                await asyncio.sleep(0)  # the sweep is in flight
                later = asyncio.ensure_future(between())
                await asyncio.sleep(0)
                rollouts = [asyncio.ensure_future(pump.start_rollout(1))
                            for _ in range(2)]
                await asyncio.wait_for(asyncio.gather(first, later), 60)
                outcomes = await asyncio.wait_for(asyncio.gather(
                    *rollouts, return_exceptions=True), 60)
                launched = [outcome for outcome in outcomes
                            if not isinstance(outcome, PumpBusy)]
                assert len(launched) == 1
                (_start, future), = launched
                await asyncio.wait_for(future, 60)
                return inflight_at_launch
            finally:
                pump.close()

        assert asyncio.run(_run()) == [0]
        assert fleet.registry.version_histogram() == {1: 8}


# ---- the socket boundary, fuzzed ---------------------------------------------


_TOKEN = st.text(st.characters(min_codepoint=33, max_codepoint=126),
                 max_size=12)
_LINE = st.text(st.characters(min_codepoint=32, max_codepoint=255),
                max_size=40)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(["dev-00000", "dev-00003", "nope"]) | _LINE,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_TOKEN, inner, max_size=3),
    max_leaves=8)
# Bodies that name the fields the handlers read, with any JSON values.
_BODY = st.fixed_dictionaries({"device_ids": _JSON}, optional={
    key: _JSON for key in ("count", "version", "waves")}) | _JSON


@st.composite
def _requests(draw):
    """Arbitrary request lines, headers, Content-Length values and
    bodies -- never a POST to /enroll or /rollout, never a follow.
    Each part is well formed but one time in eight, so many requests
    reach a handler with a hostile body."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=300))

    def part(usual, arbitrary):
        corrupt = draw(st.sampled_from([False] * 7 + [True]))
        return draw(arbitrary if corrupt else usual)

    method = part(st.sampled_from(["POST", "GET", "PUT"]), _TOKEN)
    path = part(st.sampled_from(
        ["/attest", "/status", "/events", "/metrics", "/campaigns/c1",
         "/campaigns/c1/events", "/enroll", "/rollout", "/nope"]), _TOKEN)
    if method == "POST" and path in ("/enroll", "/rollout"):
        path = "/attest"
    target = path + part(st.just(""), st.sampled_from(
        ["?since=0", "?since=abc", "?since=-3", "?x=%zz&y", "?" + "a" * 9]))
    version = part(st.just("HTTP/1.1"),
                   st.sampled_from(["HTTP/1.0", "HTTP/9", ""]))
    body = part(_BODY.map(lambda doc: json.dumps(doc).encode()),
                st.binary(max_size=80))
    headers = part(st.just([]), st.lists(st.tuples(
        st.sampled_from(["Connection", "Content-Type", "Host",
                         "Transfer-Encoding"]) | _TOKEN, _LINE),
        max_size=3))
    length = part(st.just("exact"), st.sampled_from(
        ["none", "short", "long", "-5", "abc", "+1", " 1"]) | _LINE)
    if length != "none":
        value = {"exact": len(body), "short": max(0, len(body) - 3),
                 "long": len(body) + 3}.get(length, length)
        headers.append(("Content-Length", str(value)))
    head = f"{method} {target} {version}\r\n" + "".join(
        f"{name}: {value}\r\n" for name, value in headers)
    return head.encode("latin-1") + b"\r\n" + body


def test_socket_boundary_fuzz():
    """Whatever bytes arrive, every connection gets well-formed
    responses (200/400/404/405/409) or a clean close, nothing reaches
    the loop's exception handler, and the daemon keeps serving."""
    errors = []
    with DaemonThread(FleetSimulation(size=4)) as thread, \
            FleetClient(thread.url) as client:
        thread.daemon._loop.set_exception_handler(
            lambda _loop, context: errors.append(context))

        @settings(max_examples=300, deadline=None, derandomize=True,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(payload=_requests())
        def check(payload):
            if b"follow" in payload:
                return  # a followed stream never ends
            for status, _headers, _body in _parse_responses(
                    _raw_exchange(client.port, payload)):
                assert status in (200, 400, 404, 405, 409), payload

        check()
        gc.collect()
        assert client.status()["ready"] is True
    assert errors == []


class TestDurabilityPoint:
    def test_single_attest_syncs_only_the_logs_it_wrote(self, tmp_path,
                                                          monkeypatch):
        """One single-device attest request is one durability point:
        it fsyncs the device's shard and the event log, not the other
        shard, and appends no meta line (an attest changes no meta)."""
        paths = [str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")]
        events = str(tmp_path / "events.jsonl")
        store = open_sharded_store(paths)
        fleet = FleetSimulation(size=8, store=store, events=events)
        fleet.registry.flush()
        inodes = {os.stat(path).st_ino: path for path in (*paths, events)}
        synced = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            synced.append(inodes.get(os.fstat(fd).st_ino, fd))
            real_fsync(fd)

        async def attest(device_id):
            pump = AsyncFleetPump(fleet)
            try:
                return await pump.attest([device_id])
            finally:
                pump.close()

        monkeypatch.setattr(os, "fsync", counting_fsync)
        for device_id in fleet.registry.ids()[:4]:
            sizes = [os.path.getsize(path) for path in paths]
            synced.clear()
            (doc,) = asyncio.run(attest(device_id))
            assert doc["ok"]
            shard = paths[store.router.shard_for(device_id)]
            assert sorted(synced) == sorted([shard, events])
            for path, size in zip(paths, sizes):
                with open(path, encoding="utf-8") as handle:
                    handle.seek(size)
                    added = [json.loads(line) for line in handle]
                assert all(line["kind"] == "record" for line in added)
                assert bool(added) == (path == shard)
        store.close()
        fleet.events.close()


class TestDaemonShutdown:
    def test_graceful_stop_flushes_every_shard(self, tmp_path):
        paths = [str(tmp_path / "a.jsonl"), str(tmp_path / "b.db")]
        store = open_sharded_store(paths)
        fleet = FleetSimulation(size=10, store=store,
                                events=str(tmp_path / "events.jsonl"))
        thread = DaemonThread(fleet)
        with FleetClient(thread.url) as client:
            client.attest()
        thread.stop()
        store.close()
        fleet.events.close()
        reopened = open_sharded_store(paths)
        docs = reopened.load_records()
        assert len(docs) == 10
        assert all(doc["attest_count"] == 1 for doc in docs.values())
        reopened.close()

    def test_status_reports_shutting_down(self, tmp_path):
        fleet = FleetSimulation(size=4)
        thread = DaemonThread(fleet)
        try:
            with FleetClient(thread.url) as client:
                assert client.status()["ready"] is True
        finally:
            thread.stop()


# ---- CLI + subprocess regression --------------------------------------------


def _spawn_daemon(tmp_path, devices, extra=()):
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "run",
         "--devices", str(devices),
         "--store-shard", str(tmp_path / "shard-a.jsonl"),
         "--store-shard", str(tmp_path / "shard-b.db"),
         "--events", str(tmp_path / "events.db"), "--json", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        cwd=os.getcwd())
    ready = json.loads(proc.stdout.readline())
    assert ready["schema"] == "eilid.serve.ready"
    return proc, ready


class TestServeCli:
    def test_sigterm_mid_rollout_exits_zero_and_resumes(self, tmp_path):
        """THE shutdown regression: kill the daemon between waves, get
        exit 0 with every flushed wave durable, then finish the same
        campaign offline via rollout(resume=True) on the same shards."""
        proc, ready = _spawn_daemon(tmp_path, devices=400)
        client = FleetClient(ready["url"])
        # 25 eight-device waves, then the other half of the fleet: the
        # signal sent at the first wave-commit has two dozen wave
        # boundaries to land on before the last wave starts.
        waves = [round(0.02 * step, 2) for step in range(1, 26)] + [1.0]
        try:
            doc = client.rollout(2, waves=waves)
            campaign_id = doc["campaign"]
            # A second rollout while one is in flight conflicts.
            with pytest.raises(ServeError) as excinfo:
                client.rollout(3)
            assert excinfo.value.status == 409
            for event in client.campaign_events(campaign_id, timeout=120):
                if event["kind"] == "wave-commit":
                    proc.send_signal(signal.SIGTERM)
                    break
        finally:
            client.close()
            out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        assert json.loads(out.splitlines()[-1])["schema"] == \
            "eilid.serve.shutdown"
        store = open_sharded_store([str(tmp_path / "shard-a.jsonl"),
                                    str(tmp_path / "shard-b.db")])
        fleet = FleetSimulation(store=store,
                                events=str(tmp_path / "events.db"))
        assert len(fleet.registry) == 400
        report = fleet.rollout(2, resume=True)
        assert report.status is CampaignStatus.COMPLETE
        # At least the committed first wave (8 devices) was durable and
        # skipped; the rest applied now.
        assert report.resumed >= 8
        assert report.resumed + report.applied == 400
        assert fleet.registry.version_histogram() == {2: 400}
        store.close()
        fleet.events.close()

    def test_fleet_status_and_watch_against_daemon(self, tmp_path, capsys):
        from repro.cli import main

        fleet = FleetSimulation(size=6)
        with DaemonThread(fleet) as thread:
            code = main(["fleet", "status", "--url", thread.url, "--json"])
            doc = json.loads(capsys.readouterr().out)
            assert code == 0
            assert doc["daemon"]["devices"] == 6
            assert doc["attested"] == 6
            code = main(["fleet", "watch", "--url", thread.url, "--json"])
            lines = [json.loads(line) for line
                     in capsys.readouterr().out.splitlines() if line.strip()]
            assert code == 0
            assert len(lines) >= 12  # enrolls + attests
            assert all("seq" in doc and "kind" in doc for doc in lines)

    def test_fleet_status_url_exit_2_on_quarantine(self, capsys):
        from repro.cli import main

        fleet = FleetSimulation(size=4)
        victim = fleet.registry.ids()[0]
        fleet.transport.link(victim).down.loss = 1.0  # partition one
        with DaemonThread(fleet) as thread:
            code = main(["fleet", "status", "--url", thread.url, "--json"])
            doc = json.loads(capsys.readouterr().out)
        assert code == 2
        assert [entry["device"] for entry in doc["failed"]] == [victim]

    def test_watch_url_unreachable_is_usage_error(self, capsys):
        from repro.cli import main

        assert main(["fleet", "watch",
                     "--url", "http://127.0.0.1:1", "--json"]) == 1
        assert "cannot stream" in capsys.readouterr().err

    def test_serve_run_rejects_bad_flags(self, capsys):
        from repro.cli import main

        assert main(["serve", "run", "--devices", "-1"]) == 1
        assert main(["serve", "run", "--loss", "1.5"]) == 1
        capsys.readouterr()
