"""Differential tests: decoded-instruction cache vs. uncached interpreter.

The cache (see :mod:`repro.cpu.core`) must be architecturally invisible:
for every Table IV application and every attack trace, a cached device
and an uncached device must produce bit-identical StepRecords (including
the monitor-visible fetch and access streams), monitor verdicts and device state
(the snapshot document: cycle totals, memory, peripherals, trace and
attestation evidence).  These tests run both interpreters in lockstep
and compare every record, then check the invalidation contract against
self-modifying and attacker-injected code.
"""

import pytest

import repro.cpu.core as cpu_core
from repro.cpu.compiler import step_fetches
from repro.apps.registry import APPS, TABLE_IV_ORDER
from repro.attacks import (
    code_injection,
    interrupt_context_tamper,
    pointer_hijack,
    return_address_smash,
)
from repro.device import build_device
from repro.toolchain import link, parse_source
from conftest import assert_same_state, lockstep

# Enough lockstep steps to cover each app's startup, main loop and (for
# the short apps) the complete run; full-run equivalence is additionally
# covered by the attack differentials and the aggregate asserts below.
LOCKSTEP_STEPS = 15_000

ATTACKS = {
    "code_injection": code_injection,
    "return_address_smash": return_address_smash,
    "pointer_hijack": pointer_hijack,
    "interrupt_context_tamper": interrupt_context_tamper,
}


@pytest.fixture
def uncached_default():
    """Flip the process-wide interpreter default to the uncached path."""
    cpu_core.DECODE_CACHE_DEFAULT = False
    try:
        yield
    finally:
        cpu_core.DECODE_CACHE_DEFAULT = True


def cache_lockstep(program, security, make_peripherals,
                   max_steps=LOCKSTEP_STEPS):
    """Step a cached and an uncached device in lockstep: every
    StepRecord (kind, PCs, cycles, instruction, fetch and access
    streams) and
    monitor verdict, then the whole device state, must agree."""
    cached = build_device(program, security=security,
                          peripherals=make_peripherals(), decode_cache=True)
    plain = build_device(program, security=security,
                         peripherals=make_peripherals(), decode_cache=False)
    assert cached.cpu._dcache is not None
    assert plain.cpu._dcache is None
    lockstep(cached, plain, max_steps, until=lambda device: device.harness.done)


@pytest.mark.parametrize("name", TABLE_IV_ORDER)
def test_table4_app_original_is_cache_invariant(name, app_builds):
    spec = APPS[name]
    original, _ = app_builds[name]
    cache_lockstep(original.program, "none", spec.make_peripherals)


@pytest.mark.parametrize("name", TABLE_IV_ORDER)
def test_table4_app_eilid_is_cache_invariant(name, app_builds):
    spec = APPS[name]
    _, eilid = app_builds[name]
    cache_lockstep(eilid.final.program, "eilid", spec.make_peripherals)


@pytest.mark.parametrize("attack_name", sorted(ATTACKS))
@pytest.mark.parametrize("security", ["none", "eilid"])
def test_attack_outcomes_are_cache_invariant(attack_name, security,
                                             uncached_default):
    """Each Table IV attack trace ends in the same outcome, violation
    reasons and device state on both interpreters."""
    attack = ATTACKS[attack_name]
    plain = attack(security)  # DECODE_CACHE_DEFAULT is False here
    cpu_core.DECODE_CACHE_DEFAULT = True
    cached = attack(security)
    assert cached.outcome is plain.outcome
    assert [v.reason for v in cached.violations] == \
           [v.reason for v in plain.violations]
    assert_same_state(cached.device, plain.device)


# ---- invalidation contract ---------------------------------------------------


def _make_cpu(asm):
    from repro.cpu import Cpu, InterruptController
    from repro.memory.bus import Bus

    source = "    .text\n__start:\n" + asm + "\nend:\n    jmp end\n    .vector 15, __start\n"
    program = link([parse_source(source, "smc.s")], name="smc")
    bus = Bus(program.layout)
    for addr, chunk in program.segments():
        bus.load_bytes(addr, chunk)
    cpu = Cpu(bus, InterruptController(), decode_cache=True)
    cpu.reset()
    return cpu, program


def test_cpu_write_to_cached_code_forces_redecode():
    # Execute `mov #0x1111, r11`, then overwrite its immediate word
    # through the CPU-visible bus (self-modifying code) and jump back:
    # the stale decode must not execute again.
    cpu, _ = _make_cpu("    mov #0x1111, r11\n    jmp end\n")
    target = cpu.pc
    record = cpu.step()
    assert record.insn.render() == "mov #0x1111, r11"
    assert cpu.get_reg(11) == 0x1111
    assert target in cpu._dcache
    # Now write the immediate slot through the CPU-visible bus path
    # (what an in-ROM or attacker-hijacked store would do).
    cpu.bus.write_word(target + 2, 0x2222)
    assert target not in cpu._dcache  # entry invalidated
    cpu.set_reg(0, target)
    record = cpu.step()
    assert record.insn.render() == "mov #0x2222, r11"
    assert cpu.get_reg(11) == 0x2222


def test_backdoor_poke_into_cached_code_forces_redecode():
    cpu, program = _make_cpu("    mov #0x1111, r11\n    jmp end\n")
    start = cpu.pc
    cpu.step()
    assert cpu.get_reg(11) == 0x1111
    assert start in cpu._dcache
    # Attacker/programmer back door: poke a new immediate in place.
    cpu.bus.poke_word(start + 2, 0x2222)
    assert start not in cpu._dcache
    cpu.set_reg(0, start)
    cpu.step()
    assert cpu.get_reg(11) == 0x2222


def test_load_bytes_into_cached_code_forces_redecode():
    cpu, program = _make_cpu("    mov #0x1111, r11\n    jmp end\n")
    start = cpu.pc
    cpu.step()
    assert start in cpu._dcache
    cpu.bus.load_bytes(start + 2, b"\x22\x22")
    assert start not in cpu._dcache
    cpu.set_reg(0, start)
    cpu.step()
    assert cpu.get_reg(11) == 0x2222


def test_cache_hit_replays_fetch_access_stream():
    """Monitors must see the same FETCH records on hits as on misses:
    the instruction's words in ``fetches``, none in ``accesses``, and
    on a hit the entry's own tuple, never a copy."""
    cpu, _ = _make_cpu("    mov #0x1234, r10\n    jmp end\n")
    start = cpu.pc
    miss_record = cpu.step()
    cpu.set_reg(0, start)
    hit_record = cpu.step()
    assert start in cpu._dcache
    assert miss_record.fetches == hit_record.fetches
    assert miss_record.accesses == hit_record.accesses
    assert hit_record.fetches is step_fetches(cpu._dcache[start])
    assert [a.addr for a in hit_record.fetches] == [start, start + 2]
    assert all(a.kind.value == "fetch" for a in hit_record.fetches)
    assert not any(a.kind.value == "fetch" for a in hit_record.accesses)
    assert hit_record.pc == start
