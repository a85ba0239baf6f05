"""Differential tests: snapshot/restore vs. uninterrupted execution.

A :meth:`Device.snapshot` / :meth:`Device.restore` cycle must be
architecturally invisible: a device that is periodically checkpointed
through the JSON wire form and resumed on a *fresh* device must produce
bit-identical StepRecords and monitor verdicts, and the same snapshot
document (cycle totals, memory, peripherals, trace digests and
attestation evidence), as a reference device that never stopped.
These tests run that lockstep for every Table IV application and every
control-flow attack, then check the restore-side decode-cache
invalidation contract against self-modifying code and the wire-form
rejection rules (codec / program / security mismatches).
"""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import FirmwareSpec, build_firmware
from repro.apps.registry import APPS, TABLE_IV_ORDER
from repro.attacks import (
    code_injection,
    interrupt_context_tamper,
    pointer_hijack,
    return_address_smash,
)
from repro.attacks.victims import build_victim
from repro.casu.monitor import ViolationReason
from repro.casu.update import UpdatePackage
from repro.device import build_device
from repro.fleet.simulation import UPDATE_TARGET, default_payload
from repro.snapshot import (
    CHUNK_SIZE, PAGE_SIZE, DeviceSnapshot, SnapshotError, apply_memory_delta,
    memory_delta)
from repro.toolchain import link, parse_source
from conftest import lockstep

# Enough steps to cover startup + main loop; each run round-trips the
# device through the wire form several times mid-flight.
LOCKSTEP_STEPS = 12_000
CHECKPOINT_EVERY = 3_000
CONTINUATION_STEPS = 200

ATTACKS = {
    "code_injection": code_injection,
    "return_address_smash": return_address_smash,
    "pointer_hijack": pointer_hijack,
    "interrupt_context_tamper": interrupt_context_tamper,
}


def checkpointed_lockstep(program, security, make_peripherals,
                          max_steps=LOCKSTEP_STEPS,
                          checkpoint_every=CHECKPOINT_EVERY):
    """Step a continuous and a checkpointed device in lockstep.

    Every ``checkpoint_every`` steps the checkpointed device is
    serialised to JSON, discarded, and replaced by a fresh build that
    restores the snapshot -- every StepRecord (kind, PCs, cycles,
    instruction, access stream) and monitor verdict, and the whole
    device state at every checkpoint and at the end, must still match.
    """
    def build():
        return build_device(program, security=security,
                            peripherals=make_peripherals())

    restores = 0

    def checkpoint(live):
        nonlocal restores
        restores += 1
        fresh = build()
        fresh.restore(DeviceSnapshot.from_json(live.snapshot().to_json()))
        return fresh

    reference = build()
    lockstep(reference, build(), max_steps, every=checkpoint_every,
             boundary=checkpoint, until=lambda device: device.harness.done)
    assert restores > 0 or reference.harness.done


@pytest.mark.parametrize("name", TABLE_IV_ORDER)
def test_table4_app_original_is_snapshot_invariant(name, app_builds):
    spec = APPS[name]
    original, _ = app_builds[name]
    checkpointed_lockstep(original.program, "none", spec.make_peripherals)


@pytest.mark.parametrize("name", TABLE_IV_ORDER)
def test_table4_app_eilid_is_snapshot_invariant(name, app_builds):
    spec = APPS[name]
    _, eilid = app_builds[name]
    checkpointed_lockstep(eilid.final.program, "eilid",
                          spec.make_peripherals)


# ---- attack traces -----------------------------------------------------------


@pytest.mark.parametrize("attack_name", sorted(ATTACKS))
@pytest.mark.parametrize("security", ["none", "eilid"])
def test_attack_state_survives_snapshot(attack_name, security):
    """Restore an attacked device -- violations, trace evidence and all
    -- into a fresh victim and keep stepping both in lockstep."""
    result = ATTACKS[attack_name](security)
    attacked = result.device
    wire = attacked.snapshot().to_json()

    fresh, _ = build_victim(security)
    fresh.restore(DeviceSnapshot.from_json(wire))

    # Re-snapshotting the restored device reproduces the wire form:
    # nothing was dropped, defaulted or replayed on the way through.
    assert fresh.snapshot().to_dict() == json.loads(wire)
    lockstep(attacked, fresh, CONTINUATION_STEPS)


# ---- self-modifying code vs. the decode cache --------------------------------


_SMC_SOURCE = """    .text
__start:
    mov #0x0a00, r1
target:
    mov #0x1111, r11
end:
    jmp end
    .vector 15, __start
"""


def _smc_device():
    program = link([parse_source(_SMC_SOURCE, "smc.s")], name="smc")
    device = build_device(program, security="none")
    device.run_steps(2)  # execute `target`, warming its decode-cache entry
    assert device.cpu.get_reg(11) == 0x1111
    return device, program


def test_restore_after_smc_write_drops_stale_decodes():
    """A snapshot taken after self-modifying code overwrote an already
    decoded instruction must not resume through the stale decode."""
    device_a, program = _smc_device()
    target = program.symbols["target"]
    assert target in device_a.cpu._dcache

    # Self-modifying write: patch the immediate word of the decoded
    # instruction, then point the PC back at it.
    device_a.bus.poke_word(target + 2, 0x2222)
    device_a.cpu.set_reg(0, target)
    wire = device_a.snapshot().to_json()

    # The restore target has the *stale* instruction warm in its cache.
    device_b, _ = _smc_device()
    assert target in device_b.cpu._dcache
    device_b.restore(DeviceSnapshot.from_json(wire))
    assert target not in device_b.cpu._dcache  # restore invalidated it

    record_a, _ = device_a.step()
    record_b, _ = device_b.step()
    assert record_a == record_b
    assert record_b.insn.render() == "mov #0x2222, r11"
    assert device_b.cpu.get_reg(11) == 0x2222


# ---- the shared program image ------------------------------------------------


# A node that reports, signals DONE, then stores into its own code.
_IMAGE_APP = """
    .text
    .global main
main:
    mov #42, &0x0200
    mov #1, &0x0070
patch:
    mov #0x1111, r11
    mov #0x2222, &patch+2
idle:
    jmp idle
"""


@pytest.mark.parametrize("security", ["none", "casu"])
def test_devices_share_one_image_and_never_write_through_it(security):
    """Every device of a program holds the program's one image as its
    snapshot baseline; nothing a device does to its own memory reaches
    the image, another device, or that device's snapshot."""
    program = build_firmware(FirmwareSpec(
        kind="asm", source=_IMAGE_APP, name="image-node",
        link_rom=True)).program
    image = program.image
    digest = hashlib.sha256(image).hexdigest()
    device_a = build_device(program, security=security)
    device_b = build_device(program, security=security)
    assert device_a._baseline is device_b._baseline is image
    memory_b = bytes(device_b.bus.mem)
    snapshot_b = device_b.snapshot().to_json()

    # The store into its own code: it commits without a monitor
    # (self-modifying code) and CASU's PMEM guard voids it.
    patch = program.symbols["patch"]
    result = device_a.run(max_steps=200, stop_on_done=False)
    if security == "none":
        assert not result.violations
        assert device_a.bus.peek_word(patch + 2) == 0x2222
    else:
        assert [v.reason for v in result.violations] == \
            [ViolationReason.PMEM_WRITE]
        assert device_a.bus.peek_word(patch + 2) == 0x1111
    # An update: the ROM routine's copy loop writes PMEM.
    assert device_a.apply_update(UpdatePackage.make(
        device_a.update_engine.key, UPDATE_TARGET, default_payload(1),
        1)).ok
    # An imem-flip poke through the back door: main's #42 becomes #43.
    main = program.symbols["main"]
    device_a.bus.poke_word(main + 2, device_a.bus.peek_word(main + 2) ^ 1)
    device_a.hard_reset()
    assert device_a.bus.mem != image

    assert bytes(device_b.bus.mem) == memory_b
    assert device_b.snapshot().to_json() == snapshot_b
    assert program.image is image
    assert hashlib.sha256(image).hexdigest() == digest

    # A's snapshot, restored into a fresh device, runs in lockstep.
    fresh = build_device(program, security=security)
    fresh.restore(DeviceSnapshot.from_json(device_a.snapshot().to_json()))
    lockstep(device_a, fresh, 20_000)


# ---- wire-form rejection rules -----------------------------------------------


def _light_sensor_device(app_builds, security="none"):
    original, _ = app_builds["light_sensor"]
    spec = APPS["light_sensor"]
    return build_device(original.program, security=security,
                        peripherals=spec.make_peripherals())


def test_codec_version_mismatch_is_rejected(app_builds):
    device = _light_sensor_device(app_builds)
    doc = device.snapshot().to_dict()
    doc["codec"] = 999
    with pytest.raises(SnapshotError, match="codec"):
        DeviceSnapshot.from_dict(doc)
    with pytest.raises(SnapshotError, match="codec"):
        device.restore(doc)


def test_program_mismatch_is_rejected(app_builds):
    device = _light_sensor_device(app_builds)
    other_build, _ = app_builds["fire_sensor"]
    other = build_device(other_build.program, security="none",
                         peripherals=APPS["fire_sensor"].make_peripherals())
    with pytest.raises(SnapshotError, match="program"):
        other.restore(device.snapshot())


def test_security_mismatch_is_rejected(app_builds):
    device = _light_sensor_device(app_builds, security="none")
    hardened = _light_sensor_device(app_builds, security="casu")
    with pytest.raises(SnapshotError, match="security"):
        hardened.restore(device.snapshot())


def test_json_round_trip_is_lossless(app_builds):
    device = _light_sensor_device(app_builds)
    device.run_steps(500)
    snapshot = device.snapshot()
    doc = snapshot.to_dict()
    assert DeviceSnapshot.from_json(snapshot.to_json()).to_dict() == doc
    assert doc["codec"] == 1
    assert doc["program"] == device.program.name
    # Wire form is pure JSON: a strict dump round-trips losslessly.
    assert json.loads(json.dumps(doc)) == doc


# ---- the page compare and the state digest -----------------------------------

# Pokes at every edge the compare has: the first and last byte of each
# chunk, of each page and of the address space, anywhere at all, and
# several pages of one chunk.
_EDGES = sorted({start + offset for size in (PAGE_SIZE, CHUNK_SIZE)
                 for start in range(0, 0x10000, size)
                 for offset in (0, size - 1)})
_ADDRESSES = st.one_of(st.sampled_from(_EDGES), st.integers(0, 0xFFFF))
_CLUSTERS = st.builds(
    lambda chunk, offsets: [chunk * CHUNK_SIZE + offset for offset in offsets],
    st.integers(0, 0xFFFF // CHUNK_SIZE),
    st.lists(st.integers(0, CHUNK_SIZE - 1), min_size=2, max_size=6))
POKES = st.lists(st.one_of(_ADDRESSES.map(lambda addr: [addr]), _CLUSTERS),
                 max_size=4).map(lambda groups: sum(groups, []))
FLIPS = st.integers(1, 0xFF)


def per_page_delta(mem, baseline):
    """The reference compare: every page, one at a time."""
    return [[start, bytes(mem[start:start + PAGE_SIZE]).hex()]
            for start in range(0, len(mem), PAGE_SIZE)
            if mem[start:start + PAGE_SIZE] != baseline[start:start + PAGE_SIZE]]


def poked(device, addresses, flips):
    """XOR a byte into each address, through the bus's back door."""
    for addr, flip in zip(addresses, flips):
        device.bus.load_bytes(addr, bytes([device.bus.mem[addr] ^ flip]))


def test_page_compare_matches_the_per_page_reference(app_builds):
    baseline = app_builds["light_sensor"][0].program.image

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(addresses=POKES, data=st.data())
    def compare_matches(addresses, data):
        mem = bytearray(baseline)
        for addr in addresses:
            mem[addr] ^= data.draw(FLIPS)
        delta = memory_delta(mem, baseline)
        assert delta == per_page_delta(mem, baseline)
        rebuilt = bytearray(len(mem))
        apply_memory_delta(rebuilt, baseline, delta)
        assert not per_page_delta(rebuilt, mem)

    compare_matches()


def test_state_digest_is_the_document_through_restore(app_builds):
    """Through a live device: the snapshot's memory is the reference
    compare, a restore reproduces the digest, and any one-byte
    difference changes it."""

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(steps=st.integers(0, 500), addresses=POKES, flip=_ADDRESSES,
           data=st.data())
    def digest_is_the_document(steps, addresses, flip, data):
        device = _light_sensor_device(app_builds, security="eilid")
        device.run_steps(steps)
        poked(device, addresses, [data.draw(FLIPS) for _ in addresses])
        snapshot = device.snapshot()
        assert snapshot.to_dict()["memory"] == \
            per_page_delta(device.bus.mem, device._baseline)
        digest = device.state_digest()

        fresh = _light_sensor_device(app_builds, security="eilid")
        fresh.restore(DeviceSnapshot.from_json(snapshot.to_json()))
        assert fresh.state_digest() == digest

        poked(fresh, [flip], [data.draw(FLIPS)])  # any one byte
        assert fresh.state_digest() != digest

    digest_is_the_document()
