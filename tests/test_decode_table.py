"""Differential tests: one decode table per program.

Every device built from a program fills its decode cache through the
program's table (:attr:`repro.toolchain.linker.LinkedProgram.decode_table`,
see :mod:`repro.cpu.core`): on a miss it adopts the table's entry when
its own words over the entry's span equal the image's, and otherwise
decodes, publishing only entries decoded from the image's words.  These
tests hold cached devices that share a table to uncached twins, step by
step, through every way a device's code can stop being the image's: its
own writes, an authenticated update, a back-door fault poke, and a
sibling that keeps running the code another device rewrote.
"""

import dataclasses

import pytest

import repro.cpu.core as cpu_core
from repro.api import FirmwareSpec, build_firmware
from repro.casu.update import UpdateKey, UpdatePackage, UpdateStatus
from repro.cpu.compiler import step_fetches
from repro.device import build_device
from repro.fleet import FleetSimulation
from repro.fleet.simulation import fleet_firmware_spec
from repro.memory.bus import Bus
from repro.toolchain import link, parse_source
from conftest import lockstep

# With r10 != 0 the loop rewrites the immediate of `target` before it
# first runs, and again on every pass; with r10 == 0 it only runs it.
_SMC_SOURCE = """    .text
__start:
    mov #0x0a00, r1
    cmp #0, r10
    jz loop
    mov #0x2222, &target+2
loop:
target:
    mov #0x1111, r11
    add r11, r12
    cmp #0, r10
    jz loop
    add #1, &target+2
    jmp loop
    .vector 15, __start
"""

# An app whose update rewrites the code it keeps calling.
_PATCHED_SOURCE = """
    .text
    .global main
main:
    call #patch
    jmp main
patch:
    mov #0x1111, r11
    ret
"""


def _immediate(entry):
    """The immediate word a table entry's instruction was decoded
    from: the value of its second fetch."""
    return step_fetches(entry)[1].value


def _smc_program():
    """A freshly linked program: its decode table starts empty."""
    return link([parse_source(_SMC_SOURCE, "smc.s")], name="smc")


def _device(program, security="none", writes=False, decode_cache=True):
    device = build_device(program, security=security,
                          decode_cache=decode_cache)
    device.cpu.set_reg(10, int(writes))
    return device


def _twins(program, security="none", writes=False):
    """A cached device and its uncached twin, in the same state."""
    return (_device(program, security, writes),
            _device(program, security, writes, decode_cache=False))


@pytest.fixture
def decodes(monkeypatch):
    """The first word of every instruction decoded while the test runs."""
    seen = []
    decode = cpu_core.decode

    def counting(first_word, fetch_ext):
        seen.append(first_word)
        return decode(first_word, fetch_ext)

    monkeypatch.setattr(cpu_core, "decode", counting)
    return seen


def test_a_second_device_adopts_every_entry_and_decodes_nothing(decodes):
    program = _smc_program()
    first = _device(program)
    first.run_steps(200)
    assert decodes and program.decode_table.keys() == \
        first.cpu._dcache.keys()
    del decodes[:]
    second = _device(program)
    second.run_steps(200)
    assert decodes == []
    assert all(second.cpu._dcache[pc] is entry
               for pc, entry in program.decode_table.items())
    # A restore drops the device's own entries; it adopts them again.
    second.restore(first.snapshot())
    assert second.cpu._dcache == {}
    second.run_steps(200)
    assert decodes == [] and second.cpu._dcache
    assert all(entry is program.decode_table[pc]
               for pc, entry in second.cpu._dcache.items())


def test_self_modifying_code_matches_an_uncached_twin():
    program = _smc_program()
    _device(program).run_steps(50)  # the table holds the image's code
    cached, plain = _twins(program, writes=True)
    lockstep(cached, plain, 400, every=50)
    target = program.symbols["target"]
    assert cached.cpu.get_reg(11) != 0x1111
    # The table's entry still replays the image's words.
    assert _immediate(program.decode_table[target]) == 0x1111
    # The untouched instructions are the table's own entries.
    loop_add = target + 4
    assert cached.cpu._dcache[loop_add] is program.decode_table[loop_add]


def test_an_update_that_rewrites_running_code_matches_an_uncached_twin():
    program = build_firmware(FirmwareSpec(
        kind="asm", source=_PATCHED_SOURCE, variant="original",
        name="patched", link_rom=True)).program
    patch = program.symbols["patch"]
    package = UpdatePackage.make(UpdateKey.derive(program.name), patch + 2,
                                 (0x2222).to_bytes(2, "little"), 1)
    sibling = build_device(program, security="casu")
    sibling.run_steps(100)
    assert sibling.apply_update(package).ok  # publishes the copy routine
    cached, plain = (build_device(program, security="casu",
                                  decode_cache=cache)
                     for cache in (True, False))
    lockstep(cached, plain, 100)
    assert cached.cpu._dcache[patch] is program.decode_table[patch]
    results = [device.apply_update(package) for device in (cached, plain)]
    assert results[0] == results[1]
    assert results[0].status is UpdateStatus.APPLIED
    copy = program.symbols["S_CASU_update_copy"]
    assert cached.cpu._dcache[copy] is program.decode_table[copy]
    for device in (cached, plain):
        device.hard_reset()  # the copy routine returns to a halt loop
    lockstep(cached, plain, 100)
    assert cached.cpu.get_reg(11) == 0x2222
    assert _immediate(program.decode_table[patch]) == 0x1111


def test_an_imem_flip_poke_matches_an_uncached_twin():
    program = _smc_program()
    _device(program).run_steps(50)
    cached, plain = _twins(program)
    lockstep(cached, plain, 60)
    # What an imem-flip fault plants: one bit of a code word flipped
    # through the bus back door, here the immediate of `target`.
    target = program.symbols["target"]
    for device in (cached, plain):
        word = device.bus.peek_word(target + 2)
        device.bus.poke_word(target + 2, word ^ 0x0002)
    lockstep(cached, plain, 60)
    assert cached.cpu.get_reg(11) == 0x1113


def test_an_odd_pc_from_a_restored_register_file_never_runs_stale_code():
    """Only a restore (or a direct register write) puts an odd value
    in the PC; the fetch ignores the low bit, so the step runs the
    word-aligned instruction.  It is never cached: an entry keyed at
    an odd PC would register odd word addresses, and a write to the
    instruction's words would leave it in place."""
    program = _smc_program()
    target = program.symbols["target"]
    cached, plain = _twins(program)
    for value in (0x1111, 0x3333):
        for device in (cached, plain):
            device.bus.poke_word(target + 2, value)
            device.cpu.regs[0] = target + 1
        records = [device.step()[0] for device in (cached, plain)]
        assert records[0] == records[1]
        assert cached.cpu.get_reg(11) == value
    assert target + 1 not in cached.cpu._dcache


@pytest.mark.parametrize("first", ["writer", "keeper"])
def test_a_shared_entry_never_leaks_between_devices(first):
    """A writer rewrites `target` before it first runs it and on every
    pass; a keeper of the same program keeps running the image's
    `target`.  Interleaved, each matches its uncached twin: the writer
    never adopts the image's entry for words it wrote, and the keeper
    never adopts one decoded from the writer's words."""
    program = _smc_program()
    pairs = {"writer": _twins(program, writes=True),
             "keeper": _twins(program)}
    order = (first, "keeper" if first == "writer" else "writer")
    for _ in range(8):
        for role in order:
            lockstep(*pairs[role], 25)
    target = program.symbols["target"]
    writer, keeper = pairs["writer"][0], pairs["keeper"][0]
    assert keeper.cpu.get_reg(11) == 0x1111
    assert writer.cpu.get_reg(11) not in (0x1111, 0x2222)
    assert keeper.cpu._dcache[target] is program.decode_table[target]
    assert writer.cpu._dcache[target] is not program.decode_table[target]


def test_a_rollout_decodes_the_copy_routine_once(decodes):
    # A firmware of its own, so its table starts empty here.
    spec = dataclasses.replace(fleet_firmware_spec(),
                               name="fleet-node-decodes")
    fleet = FleetSimulation(size=10, firmware=spec)
    del decodes[:]
    assert fleet.rollout(version=1).applied == 10
    assert len(decodes) == 7  # the ROM copy routine, on the first replica


@pytest.mark.parametrize("written,killed", [
    (0xE000, {0xE000}),
    (0xE002, {0xE000, 0xE002}),
    (0xE004, {0xE000, 0xE002, 0xE004}),
    (0xE006, set()),
])
def test_a_write_kills_exactly_the_entries_covering_its_word(written,
                                                              killed):
    """Overlapping entries, as a jump into an extension word makes:
    a write kills each entry whose span covers the word and leaves the
    index holding exactly the survivors' words."""
    spans = {0xE000: 3, 0xE002: 2, 0xE004: 1, 0xE008: 1}
    bus = Bus()
    cache = {}
    bus.bind_decode_cache(cache)
    for key, n_words in spans.items():
        cache[key] = key
        bus.note_code_cached(key, n_words)
    bus.poke_word(written, 0x4303)
    survivors = {key: n for key, n in spans.items() if key not in killed}
    assert set(cache) == set(survivors)
    expected = {}
    for key, n_words in survivors.items():
        for offset in range(n_words):
            word = key + 2 * offset
            expected[word] = expected.get(word, 0) | 1 << offset
    assert bus._dcache_index == expected
