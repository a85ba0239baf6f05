"""Fleet subsystem: registry, transport, protocol, campaigns, CLI codes.

The scale-sensitive negative paths the subsystem exists for:

* every device in a wave rejects tampered packages (device-side MAC
  check on the modelled ROM path) and rollback packages (monotonic
  version check);
* the campaign's failure threshold halts the rollout and skips the
  remaining waves;
* honest devices still land on the new version even over a lossy,
  reordering channel.
"""

import copy
import random
import zlib
from collections import Counter

import pytest

from repro.api import SpecError
from repro.casu.update import UpdatePackage, UpdateStatus
from repro.cli import main as cli_main
from repro.fleet import (
    CampaignConfig,
    CampaignStatus,
    FleetSimulation,
    Lifecycle,
    MsgKind,
    SimChannel,
    VerifierSession,
)
from repro.fleet.registry import FleetError, FleetRegistry
from repro.fleet.simulation import UPDATE_TARGET, default_payload
from repro.fleet.transport import Transport


@pytest.fixture(scope="module")
def small_fleet():
    """A 60-device fleet shared by read-mostly tests."""
    fleet = FleetSimulation(size=60, seed=3)
    fleet.attest_all()
    return fleet


# ---- registry --------------------------------------------------------------


class TestRegistry:
    def test_enroll_derives_per_device_keys(self):
        registry = FleetRegistry()
        a = registry.enroll("a")
        b = registry.enroll("b")
        assert a.key.secret != b.key.secret
        assert a.state is Lifecycle.ENROLLED

    def test_duplicate_enroll_rejected(self):
        registry = FleetRegistry()
        registry.enroll("a")
        with pytest.raises(FleetError):
            registry.enroll("a")

    def test_unknown_lookup_rejected(self):
        with pytest.raises(FleetError):
            FleetRegistry().get("ghost")

    def test_quarantined_not_manageable(self):
        registry = FleetRegistry()
        registry.enroll("a")
        registry.enroll("b")
        registry.quarantine("a")
        assert registry.manageable_ids() == ["b"]


# ---- transport -------------------------------------------------------------


def _eager_reference(rng, knobs):
    """What a channel whose RNG was seeded at construction does with one
    send per ``(loss, reorder)`` in *knobs*: each send's drop fate, and
    the delivery order of the sends that survived."""
    fates, queue = [], []
    for index, (loss, reorder) in enumerate(knobs):
        dropped = bool(loss) and rng.random() < loss
        fates.append(dropped)
        if dropped:
            continue
        if queue and reorder and rng.random() < reorder:
            queue.insert(rng.randrange(len(queue)), index)
        else:
            queue.append(index)
    return fates, queue


class TestTransport:
    def test_lossless_channel_is_fifo(self):
        channel = SimChannel()
        for index in range(5):
            channel.send("v", "d", "k", index)
        assert [env.body for env in channel.drain()] == [0, 1, 2, 3, 4]

    def test_loss_drops_deterministically(self):
        sent = [SimChannel(loss=0.5, seed=s).send("v", "d", "k", 0)
                for s in range(32)]
        dropped = sum(1 for env in sent if env is None)
        assert 0 < dropped < 32
        # Same seeds -> same fates.
        again = [SimChannel(loss=0.5, seed=s).send("v", "d", "k", 0)
                 for s in range(32)]
        assert [e is None for e in sent] == [e is None for e in again]

    def test_reorder_changes_delivery_order(self):
        channel = SimChannel(reorder=0.9, seed=1)
        for index in range(20):
            channel.send("v", "d", "k", index)
        order = [env.body for env in channel.drain()]
        assert sorted(order) == list(range(20))
        assert order != list(range(20))

    def test_full_partition_is_modellable(self):
        # loss=1.0 (the closed interval) models a fully partitioned
        # channel: every message dropped, deterministically.
        channel = SimChannel(loss=1.0, seed=0)
        assert all(channel.send("v", "d", "k", index) is None
                   for index in range(10))
        assert channel.drain() == []
        with pytest.raises(ValueError):
            SimChannel(loss=1.01)
        with pytest.raises(ValueError):
            SimChannel(reorder=-0.1)

    def test_lossless_channel_holds_no_rng(self):
        link = Transport(seed=7).link("dev-0")
        for index in range(10):
            link.down.send("v", "d", "k", index)
            link.up.send("d", "v", "k", index)
        assert link.down._rng is None and link.up._rng is None

    @pytest.mark.parametrize("seed", [0, 1, 0xBEEF])
    def test_lazy_rng_draws_what_an_eager_one_did(self, seed):
        # A lossy, reordering channel drops and reorders exactly as the
        # eagerly seeded reference does.
        channel = SimChannel(loss=0.3, reorder=0.5, seed=seed)
        fates = [channel.send("v", "d", "k", index) is None
                 for index in range(200)]
        expected_fates, expected_order = _eager_reference(
            random.Random(seed), [(0.3, 0.5)] * 200)
        assert fates == expected_fates
        assert [env.body for env in channel.drain()] == expected_order

    def test_loss_raised_after_creation_draws_from_the_seed(self):
        # A partition injected into a live link (as the serve tests do):
        # its first draw starts from the seeded state.
        seed = 5
        link = Transport(seed=seed).link("dev-3")
        knobs = [(0.0, 0.0)] * 5 + [(0.6, 0.4)] * 100
        fates = []
        for index, (loss, reorder) in enumerate(knobs):
            link.down.loss, link.down.reorder = loss, reorder
            fates.append(link.down.send("v", "d", "k", index) is None)
        salt = zlib.crc32(b"dev-3")
        expected_fates, expected_order = _eager_reference(
            random.Random(seed ^ salt), knobs)
        assert fates == expected_fates
        assert [env.body for env in link.down.drain()] == expected_order

    def test_fully_partitioned_fleet_degrades_cleanly(self):
        # Every exchange times out, nothing is quarantined, and no
        # verifier state is corrupted: devices stay ENROLLED (their
        # offers roll back to the pre-wave state, not to ACTIVE).
        fleet = FleetSimulation(size=6, loss=1.0)
        assert all(result.detail == "unreachable"
                   for result in fleet.attest_all().values())
        report = fleet.rollout(version=1)
        assert report.status is CampaignStatus.HALTED
        assert report.applied == 0
        assert report.waves[0].statuses["unreachable"] == report.waves[0].size
        assert not fleet.registry.by_state(Lifecycle.QUARANTINED)
        assert len(fleet.registry.by_state(Lifecycle.ENROLLED)) == 6
        assert fleet.registry.version_histogram() == {0: 6}


# ---- protocol --------------------------------------------------------------


class TestProtocol:
    def test_enroll_records_golden_hash(self, small_fleet):
        record = next(iter(small_fleet.registry))
        assert record.firmware_hash is not None
        assert record.firmware_version == 0

    def test_attest_activates(self, small_fleet):
        assert small_fleet.registry.by_state(Lifecycle.ACTIVE)

    def test_attest_over_lossy_link_retries(self):
        fleet = FleetSimulation(size=5, loss=0.3, seed=11)
        results = fleet.attest_all()
        assert all(result.ok for result in results.values())
        assert any(result.attempts > 1 for result in results.values())

    def test_corrupted_firmware_quarantined_with_violation_log(self):
        fleet = FleetSimulation(size=3)
        fleet.attest_all()
        victim = fleet.registry.ids()[1]
        fleet.corrupt_firmware(victim)
        result = fleet.attest_all([victim])[victim]
        assert not result.ok and result.detail == "hash-mismatch"
        assert fleet.registry.get(victim).state is Lifecycle.QUARANTINED
        assert fleet.observed()["violations"]["illegal-instruction"] >= 1

    def test_forged_report_mac_quarantines(self):
        fleet = FleetSimulation(size=2)
        victim = fleet.registry.ids()[0]
        # Device signs with a key that doesn't match the registry's.
        from repro.casu.update import UpdateKey

        fleet.devices[victim].update_engine.key = UpdateKey.derive("mallory")
        result = fleet.attest_all([victim])[victim]
        assert not result.ok and result.detail == "bad-mac"
        assert fleet.registry.get(victim).state is Lifecycle.QUARANTINED

    def test_nonces_strictly_increase_across_sessions(self):
        # The high-water mark lives on the record, not the session: a
        # fresh session never reissues an old challenge nonce.
        fleet = FleetSimulation(size=1)
        victim = fleet.registry.ids()[0]
        record = fleet.registry.get(victim)
        first = record.nonce_high_water
        assert first > 0  # enrollment consumed nonce(s)
        fleet.attest_all()
        fresh = VerifierSession(record, fleet.agents[victim],
                                fleet.transport.link(victim))
        assert fresh.attest().ok
        assert record.nonce_high_water > first + 1

    def test_replayed_report_rejected_and_quarantined(self):
        """Regression: a captured SignedReport from an earlier session
        used to verify in a later one because nonces restarted at 1."""
        from repro.fleet.protocol import VERIFIER_ID, Challenge

        fleet = FleetSimulation(size=2)
        victim = fleet.registry.ids()[0]
        record = fleet.registry.get(victim)
        link = fleet.transport.link(victim)
        agent = fleet.agents[victim]
        # Capture one authentic report off the wire (attacker on the
        # uplink): challenge the device directly and pocket the reply.
        nonce = record.nonce_high_water + 1
        record.nonce_high_water = nonce
        link.down.send(VERIFIER_ID, victim, MsgKind.ATTEST_REQ.value,
                       Challenge(nonce))
        agent.pump()
        captured = [envelope.body for envelope in link.up.drain()
                    if envelope.kind == MsgKind.ATTEST_REPORT.value][0]
        assert captured.verify(record.key, b"attest")  # it IS authentic

        # "Next process run": a brand-new session over the same record,
        # the real device silenced, the attacker serving the capture.
        class SilentAgent:
            def pump(self):
                pass

        replayed = VerifierSession(record, SilentAgent(), link,
                                   max_attempts=2)
        link.up.send(victim, VERIFIER_ID, MsgKind.ATTEST_REPORT.value,
                     captured)
        result = replayed.attest()
        assert not result.ok and result.detail == "replay"
        assert record.state is Lifecycle.QUARANTINED

    def test_replayed_update_ack_rejected_and_quarantined(self):
        from repro.fleet.protocol import VERIFIER_ID
        from repro.fleet.simulation import UPDATE_TARGET, default_payload

        fleet = FleetSimulation(size=1)
        victim = fleet.registry.ids()[0]
        record = fleet.registry.get(victim)
        link = fleet.transport.link(victim)
        # A real offer produces a real, capturable ack.
        session = fleet.session(victim)
        package = UpdatePackage.make(record.key, UPDATE_TARGET,
                                     default_payload(1), version=1)
        captured = []
        original_drain = link.up.drain

        def tapping_drain():
            envelopes = original_drain()
            captured.extend(e.body for e in envelopes
                            if e.kind == MsgKind.UPDATE_ACK.value)
            return envelopes

        link.up.drain = tapping_drain
        assert session.offer_update(package).applied
        link.up.drain = original_drain
        assert captured

        class SilentAgent:
            def pump(self):
                pass

        fresh = VerifierSession(record, SilentAgent(), link, max_attempts=2)
        link.up.send(victim, VERIFIER_ID, MsgKind.UPDATE_ACK.value,
                     captured[0])
        offer = fresh.offer_update(UpdatePackage.make(
            record.key, UPDATE_TARGET, default_payload(2), version=2))
        assert offer.status is None and offer.detail == "replay"
        assert record.state is Lifecycle.QUARANTINED

    def test_stale_report_quarantines_instead_of_rolling_back(self):
        # A verified report whose device-local cycle runs backwards is
        # served-up old evidence; last_seen must never move backwards.
        fleet = FleetSimulation(size=1)
        victim = fleet.registry.ids()[0]
        fleet.run_all(max_cycles=500)
        fleet.attest_all()
        record = fleet.registry.get(victim)
        seen = record.last_seen
        assert seen is not None and seen > 0
        fleet.devices[victim].cycle = 0  # device "rewound" to its past
        result = fleet.attest_all([victim])[victim]
        assert not result.ok and result.detail == "stale-report"
        assert record.state is Lifecycle.QUARANTINED
        assert record.last_seen == seen  # untouched, not rolled back

    def test_forged_ack_mac_distinguished_from_unreachable(self):
        """Regression: a forged-MAC ack used to count as 'unreachable'
        and the device was never quarantined."""
        fleet = FleetSimulation(size=2)
        victim, honest = fleet.registry.ids()
        # After enrollment, swap the device's key: its acks no longer
        # authenticate under the key the registry provisioned.
        from repro.casu.update import UpdateKey

        fleet.devices[victim].update_engine.key = UpdateKey.derive("mallory")
        report = fleet.rollout(version=1,
                               config=CampaignConfig(failure_threshold=1.0))
        statuses = Counter()
        for wave in report.waves:
            statuses.update(wave.statuses)
        assert statuses["bad-ack-mac"] == 1
        assert statuses["unreachable"] == 0
        assert fleet.registry.get(victim).state is Lifecycle.QUARANTINED
        assert fleet.registry.get(honest).state is Lifecycle.ACTIVE
        assert fleet.observed()["update_statuses"]["bad-ack-mac"] == 1


# ---- campaigns -------------------------------------------------------------


class TestRollout:
    def test_honest_rollout_completes(self):
        fleet = FleetSimulation(size=120)
        report = fleet.rollout(version=1)
        assert report.status is CampaignStatus.COMPLETE
        assert report.applied == 120 and report.failed == 0
        assert len(report.waves) == 3
        assert all(device.update_engine.current_version == 1
                   for device in fleet.devices.values())
        assert fleet.registry.version_histogram() == {1: 120}

    def test_honest_rollout_survives_lossy_reordering_channel(self):
        fleet = FleetSimulation(size=80, loss=0.1, reorder=0.2, seed=5,
                                max_attempts=8)
        report = fleet.rollout(version=1)
        assert report.status is CampaignStatus.COMPLETE
        assert report.applied == 80
        assert all(device.update_engine.current_version == 1
                   for device in fleet.devices.values())

    def test_every_tampered_package_rejected_device_side(self):
        fleet = FleetSimulation(size=100)
        report = fleet.rollout(version=1, tamper_fraction=0.08,
                               config=CampaignConfig(failure_threshold=0.2))
        assert report.status is CampaignStatus.COMPLETE
        # All 8 tampered devices rejected on the MAC check; none landed.
        rejected = sum(wave.statuses[UpdateStatus.BAD_MAC.value]
                       for wave in report.waves)
        assert rejected == 8 and report.failed == 8
        assert report.applied == 92
        for record in fleet.registry:
            device = fleet.devices[record.device_id]
            if record.state is Lifecycle.QUARANTINED:
                assert device.update_engine.current_version == 0
                assert device.peek_word(UPDATE_TARGET) == 0  # never copied
            else:
                assert device.update_engine.current_version == 1

    def test_every_rollback_package_rejected_device_side(self):
        fleet = FleetSimulation(size=100)
        assert fleet.rollout(version=2).status is CampaignStatus.COMPLETE
        report = fleet.rollout(version=3, rollback_fraction=0.06,
                               config=CampaignConfig(failure_threshold=0.2))
        assert report.status is CampaignStatus.COMPLETE
        rejected = sum(wave.statuses[UpdateStatus.STALE_VERSION.value]
                       for wave in report.waves)
        assert rejected == 6 and report.failed == 6
        # Rollback victims keep their authentic v2 firmware and stay
        # manageable (not quarantined -- their link wasn't forging MACs).
        stale = [record for record in fleet.registry
                 if record.firmware_version == 2]
        assert len(stale) == 6
        assert all(record.state is Lifecycle.ACTIVE for record in stale)

    def test_failure_threshold_halts_and_skips_later_waves(self):
        fleet = FleetSimulation(size=200)
        report = fleet.rollout(version=1, tamper_fraction=0.5)
        assert report.halted
        assert report.status is CampaignStatus.HALTED
        assert "threshold" in report.halt_reason
        assert len(report.waves) == 1  # halted after the canary wave
        assert report.skipped == 200 - report.waves[0].size
        # Devices in skipped waves were never marked UPDATING.
        untouched = fleet.registry.by_state(Lifecycle.ENROLLED)
        assert len(untouched) == report.skipped

    def test_wave_plan_covers_everyone_once(self):
        fleet = FleetSimulation(size=37)
        report = fleet.rollout(version=1)
        assert sum(wave.size for wave in report.waves) == 37

    def test_campaign_throughput_reported(self):
        fleet = FleetSimulation(size=50)
        report = fleet.rollout(version=1)
        assert report.elapsed_s > 0
        assert report.devices_per_sec > 0

    def test_attest_after_rollout_keeps_fleet_manageable(self):
        # Regression: a successful update must not look like firmware
        # tampering on the next heartbeat (the verifier's pinned hash
        # is stale by construction after an apply).
        fleet = FleetSimulation(size=10)
        fleet.attest_all()
        report = fleet.rollout(version=1)
        assert report.applied == 10
        results = fleet.attest_all()
        assert all(result.ok for result in results.values())
        assert len(fleet.registry.by_state(Lifecycle.ACTIVE)) == 10
        assert fleet.rollout(version=2).applied == 10  # still manageable

    def test_rejections_feed_telemetry(self):
        fleet = FleetSimulation(size=50)
        fleet.rollout(version=1, tamper_fraction=0.1,
                      config=CampaignConfig(failure_threshold=0.5))
        statuses = fleet.observed()["update_statuses"]
        rejected = {status: count for status, count in statuses.items()
                    if status != UpdateStatus.APPLIED.value}
        assert rejected == {UpdateStatus.BAD_MAC.value: 5}
        assert UpdateStatus.BAD_MAC.rejected  # the device's own ROM check

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig(wave_fractions=(0.5, 0.2, 1.0))
        with pytest.raises(ValueError):
            CampaignConfig(wave_fractions=(0.5,))
        with pytest.raises(ValueError):
            CampaignConfig(failure_threshold=-0.1)

    @pytest.mark.parametrize("version", [0, -5, 2 ** 32, True])
    def test_bad_target_version_changes_nothing(self, version):
        # Rejected before the package is recorded or a campaign id is
        # minted: no meta entry, no UPDATING mark, no campaign events.
        fleet = FleetSimulation(size=10)
        meta = copy.deepcopy(fleet.registry.meta)
        states = [record.state for record in fleet.registry]
        events = fleet.events.events()
        with pytest.raises(SpecError, match="version"):
            fleet.rollout(version)
        assert fleet.registry.meta == meta
        assert [record.state for record in fleet.registry] == states
        assert fleet.events.events() == events

    def test_simulation_validates_eagerly(self):
        with pytest.raises(ValueError):
            FleetSimulation(size=-1)
        with pytest.raises(ValueError):
            FleetSimulation(size=0, loss=5.0)

    def test_adversaries_drawn_from_manageable_fleet(self):
        # Quarantined devices never receive offers, so they must not
        # absorb part of the requested adversarial fraction.
        fleet = FleetSimulation(size=50)
        for device_id in fleet.registry.ids()[:10]:
            fleet.registry.quarantine(device_id)
        report = fleet.rollout(version=1, tamper_fraction=0.2,
                               config=CampaignConfig(failure_threshold=1.0))
        rejected = sum(wave.statuses[UpdateStatus.BAD_MAC.value]
                       for wave in report.waves)
        assert rejected == 8  # 20% of the 40 manageable, not of all 50


# ---- device attestation hook ----------------------------------------------


class TestAttestationReport:
    def test_report_tracks_update(self, small_fleet):
        fleet = FleetSimulation(size=1)
        device = next(iter(fleet.devices.values()))
        before = device.attestation_report()
        package = UpdatePackage.make(device.update_engine.key, UPDATE_TARGET,
                                     default_payload(1), version=1)
        assert device.apply_update(package).ok
        after = device.attestation_report()
        assert after.firmware_version == 1
        assert after.firmware_hash != before.firmware_hash

    def test_report_message_is_canonical(self, small_fleet):
        device = next(iter(small_fleet.devices.values()))
        report = device.attestation_report()
        assert report.message() == report.message()
        assert report.firmware_hash.encode() in report.message()


# ---- CLI exit codes --------------------------------------------------------


class TestCliExitCodes:
    def test_fleet_rollout_complete_exit_0(self, capsys):
        assert cli_main(["fleet", "rollout", "--devices", "40"]) == 0
        out = capsys.readouterr().out
        assert "complete" in out

    def test_fleet_rollout_halted_exit_3(self, capsys):
        code = cli_main(["fleet", "rollout", "--devices", "40",
                         "--tamper-fraction", "0.5"])
        assert code == 3
        assert "halted" in capsys.readouterr().out

    def test_fleet_rollout_rejections_below_threshold_exit_0(self, capsys):
        code = cli_main(["fleet", "rollout", "--devices", "50",
                         "--tamper-fraction", "0.04",
                         "--rollback-fraction", "0.04",
                         "--failure-threshold", "0.25"])
        assert code == 0
        out = capsys.readouterr().out
        assert "rejected-bad-mac" in out and "rejected-stale-version" in out

    def test_fleet_enroll_exit_0(self, capsys):
        assert cli_main(["fleet", "enroll", "--devices", "10"]) == 0
        assert "enrolled 10/10" in capsys.readouterr().out

    def test_fleet_status_exit_0(self, capsys):
        assert cli_main(["fleet", "status", "--devices", "10"]) == 0
        assert "fleet of 10 devices" in capsys.readouterr().out

    def test_attack_hijack_exit_2(self, capsys):
        code = cli_main(["attack", "return_address_smash",
                         "--security", "none"])
        assert code == 2
        assert "hijacked" in capsys.readouterr().out

    def test_attack_detected_exit_0(self, capsys):
        code = cli_main(["attack", "return_address_smash",
                         "--security", "eilid"])
        assert code == 0
        assert "reset" in capsys.readouterr().out

    def test_unknown_attack_exit_1(self, capsys):
        assert cli_main(["attack", "nonsense"]) == 1

    def test_bad_fleet_flags_exit_1(self, capsys):
        assert cli_main(["fleet", "rollout", "--devices", "5",
                         "--waves", "0.5,0.2,1.0"]) == 1
        assert cli_main(["fleet", "status", "--devices", "5",
                         "--loss", "-0.5"]) == 1
        assert cli_main(["fleet", "rollout", "--devices", "5",
                         "--failure-threshold", "-0.1"]) == 1
        assert cli_main(["fleet", "enroll", "--devices", "0",
                         "--loss", "5.0"]) == 1
        assert cli_main(["fleet", "enroll", "--devices", "-3"]) == 1
        assert "error" in capsys.readouterr().err

    def test_argparse_errors_exit_1_not_2(self, capsys):
        # exit 2 is reserved for security failures; bad flag *types*
        # and unknown subcommands must exit 1 like other usage errors.
        assert cli_main(["fleet", "rollout", "--devices", "abc"]) == 1
        assert cli_main(["no-such-command"]) == 1
        assert "error" in capsys.readouterr().err


class TestDeviceAheadOfItsRecord:
    def test_the_offer_learns_the_true_version(self):
        """A device whose version counter ran ahead out of band answers
        the campaign's offer with its real (higher) version, which the
        verifier records: the device does not take the downgrade, and
        the record does not claim it did."""
        fleet = FleetSimulation(size=4)
        victim = fleet.registry.ids()[1]
        fleet.devices[victim].update_engine.current_version = 5
        report = fleet.rollout(version=1, config=CampaignConfig(
            failure_threshold=1.0))
        assert (report.applied, report.failed) == (4, 0)
        record = fleet.registry.get(victim)
        assert (record.state, record.firmware_version) == (
            Lifecycle.ACTIVE, 5)
        assert fleet.devices[victim].update_engine.current_version == 5
