"""Parked fleet replicas: the same device, held in fewer bytes.

A parked device (:meth:`repro.device.Device.park`) keeps only the RAM
pages that differ from its program's image.  These tests hold it to a
device that never parks -- equal results and equal snapshot documents
after every operation the fleet drives on a replica -- and check that
the fleet parks every replica it drives, that attests answer without
unparking, that the decode cache survives a park, and that a parked bus
has no memory to read.
"""

import pytest

from repro.api.firmware import build_firmware
from repro.casu.update import UpdateKey, UpdatePackage, UpdateStatus
from repro.device import build_device
from repro.fleet import CampaignConfig, CampaignStatus, FleetSimulation
from repro.fleet.simulation import (
    UPDATE_TARGET,
    default_payload,
    fleet_firmware_spec,
)
from repro.memory.bus import Bus
from repro.serve import DaemonThread, FleetClient
from conftest import assert_same_state, lockstep

KEY = UpdateKey.derive("dev-00000")


def offer(version, tampered=False):
    package = UpdatePackage.make(KEY, UPDATE_TARGET, default_payload(version),
                                 version)
    return lambda device: device.apply_update(
        package.tampered() if tampered else package)


def report(device):
    """What an enroll or attest reply carries."""
    return device.attestation_report(), device.trace_snapshot()


def run_like_run_all(device):
    return device.run_steps(2_000, max_cycles=2_000, stop_on_done=True)


def forge_edge(device):
    device.trace.inject_edge(0xE000, 0xE000, "jump")


def round_trip(device):
    device.restore(device.snapshot())


def corrupt_and_run(device):
    """``FleetSimulation.corrupt_firmware``: flip, reset, run."""
    device.unpark()
    device.bus.load_bytes(device.symbol("main"), b"\x00\x00")
    device.hard_reset()
    return device.run(max_cycles=2_000, stop_on_done=False)


# (what, operation, whether the parked device answers without unparking)
OPERATIONS = (
    ("enroll report", report, True),
    ("run_all's run", run_like_run_all, False),
    ("attest report", report, True),
    ("good offer", offer(1), False),
    ("attest report after the update", report, True),
    ("tampered offer", offer(2, tampered=True), True),
    ("rollback offer", offer(1), True),
    ("forged trace edge", forge_edge, True),
    ("attest report of the forged window", report, True),
    ("peek at the update", lambda device: device.peek_word(UPDATE_TARGET),
     False),
    ("hard reset", lambda device: device.hard_reset(), False),
    ("snapshot and restore", round_trip, False),
    ("corrupt_firmware's run", corrupt_and_run, False),
    ("attest report after the fault", report, True),
)


@pytest.fixture
def unparks(monkeypatch):
    """Every bus unparked while the test runs, in order."""
    seen = []
    unpark = Bus.unpark

    def counting(bus, image):
        seen.append(bus)
        unpark(bus, image)

    monkeypatch.setattr(Bus, "unpark", counting)
    return seen


def test_a_parked_replica_agrees_with_one_that_never_parks():
    program = build_firmware(fleet_firmware_spec()).program
    live, parked = (build_device(program, security="casu", update_key=KEY)
                    for _ in range(2))
    results = {}
    for what, operation, answers_parked in OPERATIONS:
        parked.park()
        results[what] = operation(parked)
        assert results[what] == operation(live), what
        assert parked.parked is answers_parked, what
        assert_same_state(live, parked, f"after the {what}")
    # The operations did what they are named for.
    assert results["good offer"].status is UpdateStatus.APPLIED
    assert results["tampered offer"].status is UpdateStatus.BAD_MAC
    assert results["rollback offer"].status is UpdateStatus.STALE_VERSION
    assert results["corrupt_firmware's run"].violations
    before, after = (results[what][0].firmware_hash for what in (
        "attest report", "attest report after the update"))
    assert before != after
    assert not results["attest report of the forged window"][1].consistent()
    # And step by step, parked between every step.
    lockstep(live, parked, 1_000, every=250,
             after_step=lambda record: parked.park())


def test_the_fleet_parks_every_replica_it_drives(tmp_path):
    path = str(tmp_path / "fleet.jsonl")
    fleet = FleetSimulation(size=12, store=path)

    def all_parked():
        return all(device.parked for device in fleet.devices.values())

    assert all_parked()
    fleet.run_all(max_cycles=500)
    assert all_parked()
    assert fleet.rollout(version=1).status is CampaignStatus.COMPLETE
    assert all(result.ok for result in fleet.attest_all().values())
    assert all_parked()
    victim, forged = fleet.registry.ids()[:2]
    fleet.corrupt_firmware(victim)
    assert all_parked()
    fleet.forge_trace(forged)
    report = fleet.rollout(version=2, config=CampaignConfig(
        failure_threshold=1.0))
    assert report.applied == 12
    assert all_parked()
    fleet.registry.store.close()

    fleet = FleetSimulation(store=path)
    assert len(fleet.devices) == 12 and all_parked()
    fleet.registry.store.close()


def test_attests_answer_parked(unparks):
    fleet = FleetSimulation(size=100)
    fleet.rollout(version=1)
    del unparks[:]
    assert all(result.ok for result in fleet.attest_all().values())
    with DaemonThread(fleet) as thread, FleetClient(thread.url) as client:
        results = client.attest(fleet.registry.ids())["results"]
    assert len(results) == 100 and all(result["ok"] for result in results)
    assert unparks == []


def test_an_offer_after_an_unpark_decodes_nothing(monkeypatch, unparks):
    fleet = FleetSimulation(size=10)
    fills = []
    note = Bus.note_code_cached

    def counting(bus, key, n_words):
        fills.append(key)
        note(bus, key, n_words)

    monkeypatch.setattr(Bus, "note_code_cached", counting)
    assert fleet.rollout(version=1).applied == 10
    assert len(fills) == 7 * 10  # the copy routine, cold on each replica
    del fills[:], unparks[:]
    assert fleet.rollout(version=2).applied == 10
    assert len(unparks) == 10 and fills == []


def test_a_parked_bus_has_no_memory_to_read():
    program = build_firmware(fleet_firmware_spec()).program
    device = build_device(program, security="casu")
    word = device.peek_word(0xE000)
    device.park()
    for access in (lambda bus: bus.read_word(0xE000),
                   lambda bus: bus.peek_word(0xE000),
                   lambda bus: bus.fetch_word(0xE000),
                   lambda bus: bus.load_bytes(0xE000, b"\x00\x00")):
        with pytest.raises(TypeError):
            access(device.bus)
    assert device.parked
    assert device.peek_word(0xE000) == word  # the entry point unparks
    assert not device.parked
