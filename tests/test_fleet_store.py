"""Durable verifier state + process-sharded campaigns.

The properties this file guards:

* every store backend round-trips DeviceRecord documents (including
  the freshness counters the replay defences depend on) and a
  simulation restarted on the store *restores* devices instead of
  re-enrolling them;
* a campaign killed mid-way resumes from the store without
  re-offering applied devices;
* the process backend produces the same fleet end-state as the serial
  backend -- applied versions, adversarial rejections, quarantines --
  and a seeded loss x reorder grid shows updates stay idempotent and
  no healthy device is ever quarantined on either backend.
"""

import gc
import json
import os
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from repro.fleet import (
    CampaignConfig,
    CampaignStatus,
    FleetRegistry,
    FleetSimulation,
    JsonlStore,
    Lifecycle,
    MemoryStore,
    SqliteStore,
    open_store,
    record_from_dict,
    record_to_dict,
)
from repro.fleet.registry import NONCE_RESTART_SLACK, DeviceRecord, FleetError
from repro.casu.update import UpdateKey

BACKENDS = ("serial", "process")


def make_store(kind, tmp_path, name="fleet"):
    if kind == "memory":
        return MemoryStore()
    if kind == "jsonl":
        return JsonlStore(str(tmp_path / f"{name}.jsonl"))
    return SqliteStore(str(tmp_path / f"{name}.db"))


# ---- the codec and the backends --------------------------------------------


class TestStoreBackends:
    def test_record_codec_round_trips_every_field(self):
        record = DeviceRecord(
            device_id="dev-1", key=UpdateKey.derive("dev-1"),
            platform="TI MSP430", security="casu",
            state=Lifecycle.QUARANTINED, firmware_version=7,
            firmware_hash="ab" * 32, enrolled_at=3, last_seen=123456,
            attest_count=9, reset_count=1,
            update_failures=4, nonce_high_water=41,
            violation_totals={"stack-tamper": 2, "cfi-return": 1})
        clone = record_from_dict(record_to_dict(record))
        assert clone == record

    def test_a_document_with_a_stored_violation_count_still_loads(self):
        # Documents written while the record stored its violation count
        # apart from its totals carry the field; the totals rule.
        record = DeviceRecord("dev-1", UpdateKey.derive("dev-1"),
                              "TI MSP430", "casu",
                              violation_totals={"w-xor-x": 2})
        doc = dict(record_to_dict(record), violation_count=0)
        assert "violation_count" not in record_to_dict(record)
        assert record_from_dict(doc) == record
        assert record_from_dict(doc).violation_count == 2

    @pytest.mark.parametrize("kind", ("memory", "jsonl", "sqlite"))
    def test_save_load_last_wins(self, kind, tmp_path):
        store = make_store(kind, tmp_path)
        doc = record_to_dict(DeviceRecord("d", UpdateKey.derive("d"),
                                          "TI MSP430", "casu"))
        store.save_record(doc)
        doc2 = dict(doc, firmware_version=3, nonce_high_water=17)
        store.save_record(doc2)
        store.save_meta({"clock": 5, "packages": {"1": {"target": 1,
                                                        "payload": "beef"}}})
        store.flush()
        assert store.load_records() == {"d": doc2}
        assert store.load_meta()["clock"] == 5
        store.close()

    @pytest.mark.parametrize("kind", ("jsonl", "sqlite"))
    def test_durable_backends_survive_reopen(self, kind, tmp_path):
        store = make_store(kind, tmp_path)
        path = store.path
        doc = record_to_dict(DeviceRecord("d", UpdateKey.derive("d"),
                                          "TI MSP430", "casu",
                                          nonce_high_water=12))
        store.save_record(doc)
        store.save_meta({"clock": 2})
        store.close()
        again = open_store(path)
        assert again.backend == kind
        assert again.load_records()["d"]["nonce_high_water"] == 12
        assert again.load_meta() == {"clock": 2}
        again.close()

    def test_jsonl_ignores_torn_tail_line(self, tmp_path):
        store = make_store("jsonl", tmp_path)
        doc = record_to_dict(DeviceRecord("d", UpdateKey.derive("d"),
                                          "TI MSP430", "casu"))
        store.save_record(doc)
        store.close()
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "record", "device_id": "t')  # kill mid-append
        again = JsonlStore(store.path)
        assert list(again.load_records()) == ["d"]
        again.close()

    def test_jsonl_compaction_folds_the_log(self, tmp_path):
        store = make_store("jsonl", tmp_path)
        doc = record_to_dict(DeviceRecord("d", UpdateKey.derive("d"),
                                          "TI MSP430", "casu"))
        for version in range(10):
            store.save_record(dict(doc, firmware_version=version))
        store.close()  # compacts
        with open(store.path, encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
        assert len(lines) == 1
        again = JsonlStore(store.path)
        assert again.load_records()["d"]["firmware_version"] == 9
        again.close()

    def test_jsonl_compacts_on_open_past_redundancy_factor(self, tmp_path):
        # Verifiers driven by cron never close() cleanly; the open
        # path folds a bloated log so it cannot grow without bound.
        path = str(tmp_path / "bloated.jsonl")
        doc = record_to_dict(DeviceRecord("d", UpdateKey.derive("d"),
                                          "TI MSP430", "casu"))
        import json

        with open(path, "w", encoding="utf-8") as handle:
            for version in range(200):
                handle.write(json.dumps(
                    {"kind": "record", **dict(doc, firmware_version=version)})
                    + "\n")
        store = JsonlStore(path)
        with open(path, encoding="utf-8") as handle:
            assert len([line for line in handle if line.strip()]) == 1
        assert store.load_records()["d"]["firmware_version"] == 199
        store.close()

    def test_jsonl_live_compaction_bounds_a_long_session(self, tmp_path):
        # A long-running verifier (many campaigns, one open store)
        # re-saves every record each sweep; the in-process compaction
        # must keep the log bounded without any close/reopen.
        store = make_store("jsonl", tmp_path)
        doc = record_to_dict(DeviceRecord("d", UpdateKey.derive("d"),
                                          "TI MSP430", "casu"))
        for version in range(1000):
            store.save_record(dict(doc, firmware_version=version))
        with open(store.path, encoding="utf-8") as handle:
            lines = len([line for line in handle if line.strip()])
        # 1 live record: the threshold is max(64, 4 * live) appends.
        assert lines <= 65
        assert store.load_records()["d"]["firmware_version"] == 999
        # The reopened handle keeps appending correctly post-compact.
        store.save_record(dict(doc, firmware_version=1000))
        store.close()
        again = JsonlStore(store.path)
        assert again.load_records()["d"]["firmware_version"] == 1000
        again.close()

    def test_jsonl_live_compaction_during_multi_campaign_run(self, tmp_path):
        # Regression for the observability PR: successive campaigns
        # over one open JSONL store must not grow the log unboundedly.
        path = str(tmp_path / "fleet.jsonl")
        fleet = FleetSimulation(size=6, store=path)
        for version in range(1, 9):
            report = fleet.rollout(version=version)
            assert report.status is CampaignStatus.COMPLETE
        fleet.registry.flush()
        with open(path, encoding="utf-8") as handle:
            lines = len([line for line in handle if line.strip()])
        # 7 live documents (6 records + meta): bounded by the
        # open-handle threshold, not by campaigns * devices.
        assert lines <= max(64, 4 * 7) + 7
        fleet.registry.store.close()

    def test_store_close_is_idempotent(self, tmp_path):
        for kind in ("jsonl", "sqlite"):
            store = make_store(kind, tmp_path, name=f"close-{kind}")
            store.save_record(record_to_dict(DeviceRecord(
                "d", UpdateKey.derive("d"), "TI MSP430", "casu")))
            store.close()
            store.close()  # must be a no-op, not a crash
            with make_store(kind, tmp_path, name=f"ctx-{kind}") as ctx:
                ctx.close()  # __exit__ after an explicit close

    def test_open_store_dispatches_on_suffix(self, tmp_path):
        assert open_store(None).backend == "memory"
        assert open_store(":memory:").backend == "memory"
        sqlite_store = open_store(str(tmp_path / "a.db"))
        jsonl_store = open_store(str(tmp_path / "a.jsonl"))
        assert sqlite_store.backend == "sqlite"
        assert jsonl_store.backend == "jsonl"
        sqlite_store.close()
        jsonl_store.close()


# ---- registry persistence ---------------------------------------------------


class TestRegistryPersistence:
    @pytest.mark.parametrize("kind", ("jsonl", "sqlite"))
    def test_registry_round_trips_through_store(self, kind, tmp_path):
        store = make_store(kind, tmp_path)
        registry = FleetRegistry(store=store)
        registry.enroll("a")
        record = registry.enroll("b")
        record.firmware_version = 4
        record.nonce_high_water = 99
        record.last_seen = 1234
        registry.save(record)
        registry.quarantine("a")
        registry.flush()
        store.close()

        with open_store(store.path) as reopened:
            reloaded = FleetRegistry(store=reopened)
            assert reloaded.ids() == ["a", "b"]
            assert reloaded.clock == registry.clock
            b = reloaded.get("b")
            # nonce high water reloads with the restart reservation added
            assert (b.firmware_version, b.nonce_high_water, b.last_seen) \
                == (4, 99 + NONCE_RESTART_SLACK, 1234)
            assert b.key.secret == record.key.secret
            assert reloaded.get("a").state is Lifecycle.QUARANTINED

    @pytest.mark.parametrize("kind", ("jsonl", "sqlite"))
    def test_meta_survives_a_reopen_after_attests(self, kind, tmp_path):
        # Attests leave the meta document as it was, so their flushes
        # save no meta; a reopened registry still restores the clock,
        # the package log and the firmware pin.
        store = make_store(kind, tmp_path)
        fleet = FleetSimulation(size=5, seed=3, store=store)
        assert fleet.rollout(version=1).applied == 5
        meta = dict(fleet.registry.meta)
        assert {"clock", "packages", "firmware"} <= set(meta)
        for _ in range(3):
            assert all(result.ok for result in fleet.attest_all().values())
        assert fleet.registry.meta == meta
        store.close()

        reopened = FleetRegistry(store=open_store(store.path))
        assert reopened.meta == meta
        assert reopened.clock == meta["clock"]
        reopened.store.close()

    def test_registry_without_store_stays_plain(self):
        registry = FleetRegistry()
        record = registry.enroll("a")
        registry.save(record)  # no-op, must not blow up
        registry.flush()
        assert not registry.durable


# ---- simulation restart -----------------------------------------------------


class TestSimulationRestart:
    @pytest.mark.parametrize("kind", ("jsonl", "sqlite"))
    def test_restart_preserves_lifecycle_versions_and_freshness(
            self, kind, tmp_path):
        store = make_store(kind, tmp_path)
        path = store.path
        fleet = FleetSimulation(size=6, seed=2, store=store)
        fleet.attest_all()
        assert fleet.rollout(version=1).applied == 6
        results = fleet.attest_all()  # re-pins post-update hashes
        assert all(result.ok for result in results.values())
        snapshot = {record.device_id: (record.state, record.firmware_version,
                                       record.firmware_hash,
                                       record.nonce_high_water,
                                       record.last_seen)
                    for record in fleet.registry}
        fleet.registry.store.close()

        # "New process": everything rebuilt from disk, nothing
        # re-enrolled.  Nonce high-water marks come back with the
        # restart reservation added -- ahead, never behind.
        restarted = FleetSimulation(size=6, seed=2, store=path)
        for record in restarted.registry:
            assert snapshot[record.device_id] == (
                record.state, record.firmware_version, record.firmware_hash,
                record.nonce_high_water - NONCE_RESTART_SLACK,
                record.last_seen)
        results = restarted.attest_all()
        assert all(result.ok for result in results.values())
        for record in restarted.registry:
            # Freshness kept counting forward, never backwards.
            device_id = record.device_id
            assert record.nonce_high_water > snapshot[device_id][3]
            assert record.last_seen >= snapshot[device_id][4]
            assert record.firmware_version == 1
        # And the restored replicas still accept the next real update.
        assert restarted.rollout(version=2).applied == 6
        restarted.registry.store.close()

    def test_restart_reserves_nonces_past_uncommitted_saves(self, tmp_path):
        """Regression: a SQLite save lost to a kill before the commit
        must not let the next run reissue the consumed nonce."""
        store = make_store("sqlite", tmp_path)
        path = store.path
        fleet = FleetSimulation(size=1, store=store)
        victim = fleet.registry.ids()[0]
        committed = fleet.registry.get(victim).nonce_high_water
        # Consume nonces after the last commit, then "SIGKILL": close
        # the connection without committing the saves.
        fleet.attest_all([victim])  # saves, flushes -> committed
        committed = fleet.registry.get(victim).nonce_high_water
        fleet.session(victim).attest()  # consumed but never saved
        fleet.registry.store._conn.close()  # kill: rollback to `committed`
        fleet.registry.store._closed = True

        restarted = FleetSimulation(size=1, store=path)
        floor = restarted.registry.get(victim).nonce_high_water
        assert floor >= committed + NONCE_RESTART_SLACK > committed + 1
        # The reservation is committed write-ahead at load: a SECOND
        # crash-without-commit still restarts above this run's base,
        # never reissuing its challenges.
        restarted.registry.store._conn.close()
        restarted.registry.store._closed = True
        again = FleetSimulation(size=1, store=path)
        assert again.registry.get(victim).nonce_high_water \
            >= floor + NONCE_RESTART_SLACK
        again.registry.store.close()

    def test_firmware_spec_mismatch_refused_on_restore(self, tmp_path):
        from repro.api.spec import FirmwareSpec
        from repro.fleet.registry import FleetError

        store = make_store("jsonl", tmp_path)
        path = store.path
        fleet = FleetSimulation(size=2, store=store)
        fleet.registry.store.close()
        other = FirmwareSpec(kind="asm", source=".text\n.global main\n"
                             "main:\n jmp main\n", variant="original",
                             name="other-node", link_rom=True)
        with pytest.raises(FleetError):
            FleetSimulation(size=2, store=path, firmware=other)
        # The original spec restores fine.
        restored = FleetSimulation(size=2, store=path)
        assert all(result.ok for result in restored.attest_all().values())
        restored.registry.store.close()

    def test_a_refused_restore_closes_what_it_opened(self, tmp_path):
        """A fleet that raises while loading closes the store and the
        event log it opened from their paths, so neither is left for
        the garbage collector to warn about."""
        from repro.api.spec import FirmwareSpec

        path = str(tmp_path / "fleet.jsonl")
        FleetSimulation(size=1, store=path).registry.store.close()
        other = FirmwareSpec(kind="asm", source=".text\n.global main\n"
                             "main:\n jmp main\n", variant="original",
                             name="other-node", link_rom=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(FleetError):
                FleetSimulation(store=path, firmware=other,
                                events=str(tmp_path / "events.jsonl"))
            gc.collect()
        assert [str(warning.message) for warning in caught
                if issubclass(warning.category, ResourceWarning)] == []

    def test_restore_replays_only_versions_the_device_applied(self,
                                                              tmp_path):
        """Regression: a device that skipped v1 (targeted campaign)
        must not get v1's bytes on restore -- with a longer v1 payload
        its hash would diverge and a healthy device would quarantine."""
        store = make_store("sqlite", tmp_path)
        path = store.path
        fleet = FleetSimulation(size=4, seed=3, store=store)
        ids = fleet.registry.ids()
        # v1 (long payload) goes to half the fleet only; v2 (short) to all.
        report = fleet.rollout(version=1, payload=bytes([0xAA]) * 64,
                               device_ids=ids[:2])
        assert report.applied == 2
        assert fleet.rollout(version=2, payload=bytes(range(16))).applied == 4
        assert all(result.ok for result in fleet.attest_all().values())
        skipped = fleet.registry.get(ids[2])
        assert skipped.applied_versions == [2]  # never saw v1
        fleet.registry.store.close()

        restarted = FleetSimulation(size=4, seed=3, store=path)
        results = restarted.attest_all()
        assert all(result.ok for result in results.values()), \
            {k: v.detail for k, v in results.items() if not v.ok}
        assert not restarted.registry.by_state(Lifecycle.QUARANTINED)
        restarted.registry.store.close()

    def test_rollout_rejects_rebinding_a_version_to_new_bytes(self,
                                                              tmp_path):
        from repro.fleet.registry import FleetError

        fleet = FleetSimulation(size=4, seed=3,
                                store=make_store("jsonl", tmp_path))
        fleet.rollout(version=1, payload=bytes(16), device_ids=fleet.registry.ids()[:2])
        with pytest.raises(FleetError):
            fleet.rollout(version=1, payload=bytes(range(16)), resume=True)
        # Same bytes resume cleanly.
        report = fleet.rollout(version=1, payload=bytes(16), resume=True)
        assert report.applied == 2 and report.resumed == 2
        fleet.registry.store.close()

    def test_enroll_command_accepts_a_restored_post_rollout_fleet(
            self, tmp_path):
        """Regression: after a rollout clears golden hashes pending
        re-attestation, `fleet enroll --store` must not report the
        restored (healthy) fleet as an enrollment failure."""
        from repro.cli import main as cli_main

        path = str(tmp_path / "fleet.db")
        assert cli_main(["fleet", "enroll", "--devices", "6",
                         "--store", path]) == 0
        assert cli_main(["fleet", "rollout", "--devices", "6",
                         "--store", path]) == 0
        assert cli_main(["fleet", "enroll", "--devices", "6",
                         "--store", path]) == 0

    def test_restart_across_real_processes_via_cli(self, tmp_path):
        """save -> NEW interpreter -> load -> attest, end to end."""
        path = str(tmp_path / "cli-fleet.db")
        env = dict(os.environ, PYTHONPATH="src")
        enroll = subprocess.run(
            [sys.executable, "-m", "repro.cli", "fleet", "enroll",
             "--devices", "5", "--store", path],
            capture_output=True, text=True, env=env, cwd=os.getcwd())
        assert enroll.returncode == 0, enroll.stderr
        status = subprocess.run(
            [sys.executable, "-m", "repro.cli", "fleet", "status",
             "--devices", "5", "--store", path],
            capture_output=True, text=True, env=env, cwd=os.getcwd())
        assert status.returncode == 0, status.stderr
        assert "fleet of 5 devices" in status.stdout

    def test_replay_from_previous_process_rejected(self, tmp_path):
        """Acceptance: a report captured in run 1 does not verify in a
        run-2 session resumed from the durable store."""
        from repro.fleet.protocol import (
            VERIFIER_ID,
            Challenge,
            MsgKind,
            VerifierSession,
        )

        store = make_store("sqlite", tmp_path)
        path = store.path
        fleet = FleetSimulation(size=1, store=store)
        victim = fleet.registry.ids()[0]
        record = fleet.registry.get(victim)
        link = fleet.transport.link(victim)
        nonce = record.nonce_high_water + 1
        record.nonce_high_water = nonce
        link.down.send(VERIFIER_ID, victim, MsgKind.ATTEST_REQ.value,
                       Challenge(nonce))
        fleet.agents[victim].pump()
        captured = [envelope.body for envelope in link.up.drain()
                    if envelope.kind == MsgKind.ATTEST_REPORT.value][0]
        fleet.registry.save(record)
        fleet.registry.flush()
        store.close()

        restarted = FleetSimulation(size=1, store=path)
        rerecord = restarted.registry.get(victim)
        # Persisted high water plus the restart reservation: strictly
        # ahead of every nonce the previous run ever issued.
        assert rerecord.nonce_high_water == nonce + NONCE_RESTART_SLACK

        class SilentAgent:
            def pump(self):
                pass

        relink = restarted.transport.link(victim)
        session = VerifierSession(rerecord, SilentAgent(), relink,
                                  max_attempts=2)
        relink.up.send(victim, VERIFIER_ID, MsgKind.ATTEST_REPORT.value,
                       captured)
        result = session.attest()
        assert not result.ok and result.detail == "replay"
        assert rerecord.state is Lifecycle.QUARANTINED
        restarted.registry.store.close()


# ---- resumable campaigns ----------------------------------------------------


# ---- stored records with wrongly typed fields ----------------------------------

# One wrong value per JSON type, and out-of-range integers.
BAD_VALUES = (None, "x", -1, [], {}, 1.5, True, 2 ** 40)


@pytest.fixture(scope="module")
def stored_lines(tmp_path_factory):
    """A JSONL store's lines after a rollout, a corrupted device's
    violation and an attest sweep, and the index of its last record: a
    device with applied versions and violation totals."""
    path = str(tmp_path_factory.mktemp("stored") / "fleet.jsonl")
    fleet = FleetSimulation(size=2, security="casu", store=path)
    fleet.rollout(1)
    fleet.corrupt_firmware(sorted(fleet.devices)[-1])
    fleet.attest_all()
    fleet.registry.store.close()
    with open(path) as handle:
        lines = [json.loads(line) for line in handle]
    last = max(index for index, line in enumerate(lines)
               if line["kind"] == "record")
    assert lines[last]["applied_versions"] and \
        lines[last]["violation_totals"]
    return lines, last


def _leaf_paths(node, path=()):
    """Paths to every leaf of a record: its scalar fields and the items
    of its lists and objects (an empty one is a leaf itself)."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    items = list(items)
    if not items:
        yield path
    for key, value in items:
        yield from _leaf_paths(value, path + (key,))


def _open_and_attest(tmp_path, lines, last, path, value):
    """Store the record at *last* with its leaf at *path* replaced, then
    open a fleet on the store and attest every device."""
    doc = json.loads(json.dumps(lines[last]))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    store_path = str(tmp_path / "mutant.jsonl")
    with open(store_path, "w") as handle:
        for index, line in enumerate(lines):
            handle.write(json.dumps(doc if index == last else line) + "\n")
    store = open_store(store_path)
    try:
        FleetSimulation(security="casu", store=store).attest_all()
    finally:
        store.close()


class TestStoredRecordTypes:
    # Each escaped a fleet's open or its first attest sweep as a
    # TypeError, AttributeError or ValueError.
    @pytest.mark.parametrize("field,value", [
        ("device_id", []),  # unhashable as the store's key
        ("device_id", None),  # unsortable against the other ids
        ("key", None),
        ("security", "x"),
        ("last_seen", "x"),
        ("nonce_high_water", None),
        ("attest_count", None),
        ("reset_count", None),
        ("applied_versions", None),
        ("violation_totals", None),
    ])
    def test_wrongly_typed_field_raises_fleet_error(self, stored_lines,
                                                    tmp_path, field, value):
        lines, last = stored_lines
        with pytest.raises(FleetError, match=repr(field)):
            _open_and_attest(tmp_path, lines, last, (field,), value)

    def test_every_single_leaf_mutant_raises_only_fleet_error(
            self, stored_lines, tmp_path):
        lines, last = stored_lines
        paths = [path for path in _leaf_paths(lines[last])
                 if path != ("kind",)]

        @settings(max_examples=150, derandomize=True, database=None,
                  deadline=None)
        @given(path=st.sampled_from(paths), value=st.sampled_from(BAD_VALUES))
        def mutant_raises_only_fleet_error(path, value):
            try:
                _open_and_attest(tmp_path, lines, last, path, value)
            except FleetError:
                pass

        mutant_raises_only_fleet_error()


class TestResume:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_killed_campaign_resumes_without_reoffering(self, backend,
                                                        tmp_path):
        store = make_store("sqlite", tmp_path)
        path = store.path
        fleet = FleetSimulation(size=20, seed=7, store=store)
        config = CampaignConfig(backend=backend, workers=2)
        # "Kill" after 60% of the fleet: offer to a subset, then the
        # process dies (we close the store without finishing).
        partial_ids = fleet.registry.manageable_ids()[:12]
        partial = fleet.rollout(version=1, config=config,
                                device_ids=partial_ids)
        assert partial.applied == 12
        fleet.registry.store.close()

        restarted = FleetSimulation(size=20, seed=7, store=path)
        resumed = restarted.rollout(version=1, config=config, resume=True)
        assert resumed.resumed == 12  # applied devices never re-offered
        assert resumed.applied == 8
        assert resumed.status is CampaignStatus.COMPLETE
        assert restarted.registry.version_histogram() == {1: 20}
        # Re-running the finished campaign is a durable no-op.
        done = restarted.rollout(version=1, config=config, resume=True)
        assert done.status is CampaignStatus.EMPTY
        assert done.resumed == 20 and done.applied == 0
        restarted.registry.store.close()


# ---- process backend parity + the loss x reorder sweep ----------------------


class TestProcessBackend:
    def test_process_rollout_matches_thread_end_state(self):
        outcomes = {}
        for backend in BACKENDS:
            fleet = FleetSimulation(size=24, seed=9)
            report = fleet.rollout(
                version=1, tamper_fraction=0.125, rollback_fraction=0.125,
                config=CampaignConfig(backend=backend, workers=2,
                                      failure_threshold=0.5))
            outcomes[backend] = (
                report.status, report.applied, report.failed,
                dict(fleet.registry.state_histogram()),
                dict(fleet.registry.version_histogram()),
            )
        assert outcomes["serial"] == outcomes["process"]

    def test_process_quarantines_propagate_to_parent(self):
        # A worker-side ROM rejection (tampered package -> BAD_MAC ack)
        # must quarantine the device in the PARENT registry, and the
        # parent replicas of applied devices must be synced so the next
        # heartbeat in this process attests clean.
        fleet = FleetSimulation(size=16, seed=1)
        report = fleet.rollout(version=1, tamper_fraction=0.25,
                               config=CampaignConfig(backend="process",
                                                     workers=2,
                                                     failure_threshold=1.0))
        assert report.applied == 12 and report.failed == 4
        assert len(fleet.registry.by_state(Lifecycle.QUARANTINED)) == 4
        results = fleet.attest_all(fleet.registry.manageable_ids())
        assert all(result.ok for result in results.values())
        assert all(device.update_engine.current_version == 1
                   for device_id, device in fleet.devices.items()
                   if fleet.registry.get(device_id).state
                   is Lifecycle.ACTIVE)

    def test_verify_after_wave_attests_the_updated_image(self):
        """Regression: post-wave verification on the process backend
        must attest the synced replica, not a stale parent copy --
        which would roll every merged record back to the old version."""
        fleet = FleetSimulation(size=12, seed=4)
        report = fleet.rollout(version=1, config=CampaignConfig(
            backend="process", workers=2, verify_after_wave=True))
        assert report.status is CampaignStatus.COMPLETE
        assert report.applied == 12 and report.failed == 0
        assert fleet.registry.version_histogram() == {1: 12}
        # Resume sees everything applied -- nothing to re-offer.
        again = fleet.rollout(version=1, config=CampaignConfig(
            backend="process", workers=2), resume=True)
        assert again.status is CampaignStatus.EMPTY and again.resumed == 12

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("loss,reorder", [(0.0, 0.0), (0.15, 0.0),
                                              (0.0, 0.3), (0.15, 0.3)])
    def test_seeded_loss_reorder_grid_keeps_updates_safe(
            self, backend, loss, reorder, tmp_path):
        """The property sweep: under loss and reordering, on both
        backends, updates stay idempotent, no healthy device is ever
        quarantined, and the store round-trip preserves everything."""
        store = make_store("jsonl", tmp_path,
                           name=f"{backend}-{loss}-{reorder}")
        path = store.path
        fleet = FleetSimulation(size=10, seed=int(loss * 100 + reorder * 10),
                                max_attempts=10, store=store)
        config = CampaignConfig(backend=backend, workers=2)
        report = fleet.rollout(version=1, config=config)
        assert report.status is CampaignStatus.COMPLETE
        assert report.applied == 10
        assert not fleet.registry.by_state(Lifecycle.QUARANTINED)
        # Idempotence: resuming the finished campaign offers nothing.
        again = fleet.rollout(version=1, config=config, resume=True)
        assert again.status is CampaignStatus.EMPTY and again.resumed == 10
        def comparable(registry, slack=0):
            docs = {}
            for record in registry:
                doc = record_to_dict(record)
                doc["nonce_high_water"] -= slack
                docs[record.device_id] = doc
            return docs

        before = comparable(fleet.registry)
        fleet.registry.store.close()
        # Store round-trip preserves lifecycle, versions, freshness
        # (nonces restart ahead by the reservation, never behind).
        restarted = FleetSimulation(size=10, store=path)
        assert comparable(restarted.registry, NONCE_RESTART_SLACK) == before
        assert all(result.ok
                   for result in restarted.attest_all().values())
        restarted.registry.store.close()
