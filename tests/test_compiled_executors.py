"""Differential property: compiled steps vs the generic interpreter.

A decode-cached CPU runs each instruction as the whole compiled step
:func:`repro.cpu.compiler.compile_step` built for it; an uncached CPU
decodes and runs the generic ``Cpu._ex_*`` executors, the reference.
Each example builds one instruction from raw encoding fields (every
opcode, As/Ad mode, byte mode and register, PC/SP/SR/CG2 included),
gives it random extension words, registers, flags and memory -- with
addresses aimed at peripheral registers, RAM and the code itself --
and steps it once on each interpreter from the same state, and once
more through the cache entry the compiled step left, as a cache hit
calls it.  Registers, memory, the StepRecord with its fetch and access
streams, peripheral state, the trace edges and any exception must be
identical.  The Table IV apps
never execute ``dadd``, ``rrc.b`` or ``subc``, so whole-program
differentials alone would not see a bug in them.

Each step is also held to :func:`repro.isa.transfer.classify_insn`: an
instruction it classes as no transfer ends at its fall-through PC, and
a step that records a trace edge records the edge kind its class maps
to.  Random operand fields rarely name ``pc`` as a register
destination, so one fixed case per Format I and Format II opcode does.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cpu.core import StepKind, StepRecord
from repro.device import build_device
from repro.isa.opcodes import FORMAT1_OPCODES, FORMAT2_OPCODES, JUMP_OPCODES
from repro.isa.registers import PC, SP
from repro.isa.transfer import EDGE_KINDS, TransferKind, classify_insn
from repro.peripherals import ports
from repro.toolchain import link, parse_source

_PROGRAM = """
    .text
__start:
    jmp __start
    .vector 15, __start
"""

PERIPHERAL_REGISTERS = sorted(
    value for name, value in vars(ports).items()
    if name.isupper() and isinstance(value, int) and 0x10 <= value < 0x200)

# Words that make interesting addresses and operands: peripheral
# registers (and their odd high bytes), RAM, the secure banks, code,
# the vector table, the top of memory and the constant-generator values.
WORDS = st.one_of(
    st.sampled_from(PERIPHERAL_REGISTERS),
    st.sampled_from(PERIPHERAL_REGISTERS).map(lambda addr: addr + 1),
    st.integers(0x0200, 0x09FF),
    st.sampled_from([0, 1, 2, 4, 8, 0xFFFF, 0x8000, 0x7FFF, 0x00FF, 0x0080,
                     0x1000, 0xA000, 0xE000, 0xFFE0, 0xFFFE]),
    st.integers(0, 0xFFFF),
)
REG = st.integers(0, 15)
# Code sites: PMEM, and the top of memory, where extension-word fetches
# run off the address space.
CODE_SITES = st.sampled_from([0xE100, 0xE200, 0xFFFA, 0xFFFC, 0xFFFE])


@pytest.fixture(scope="module")
def devices():
    program = link([parse_source(_PROGRAM, "diff.s")], name="diff")
    compiled = build_device(program, decode_cache=True)
    generic = build_device(program, decode_cache=False)
    return compiled, generic, compiled.snapshot()


@st.composite
def first_words(draw, mnemonic):
    """A first word of *mnemonic* with arbitrary operand fields."""
    if mnemonic in FORMAT1_OPCODES:
        return (FORMAT1_OPCODES[mnemonic].code << 12 | draw(REG) << 8
                | draw(st.integers(0, 1)) << 7 | draw(st.integers(0, 1)) << 6
                | draw(st.integers(0, 3)) << 4 | draw(REG))
    if mnemonic in FORMAT2_OPCODES:
        return (0x1000 | FORMAT2_OPCODES[mnemonic].code << 7
                | draw(st.integers(0, 1)) << 6 | draw(st.integers(0, 3)) << 4
                | draw(REG))
    return 0x2000 | JUMP_OPCODES[mnemonic].code << 10 | draw(st.integers(0, 0x3FF))


def _step(device, state, run=None):
    """Restore the baseline, apply *state*, step once: through
    ``Cpu.step``, or through the compiled step *run*, called as a cache
    hit calls it."""
    snapshot, regs, pokes, site, words = state
    device.restore(snapshot)
    bus = device.bus
    for addr, value in pokes:
        bus.poke_word(addr & 0xFFFE, value)
    for offset, word in enumerate(words):
        if site + 2 * offset < 0x10000:
            bus.poke_word(site + 2 * offset, word)
    cpu = device.cpu
    cpu.regs = list(regs)
    cpu.regs[0] = site
    try:
        outcome = cpu.step() if run is None else run(cpu, cpu.regs, bus)
    except Exception as error:  # compared, not swallowed: both must match
        outcome = (type(error), str(error))
    device.clock.catch_up()
    peripherals = {name: p.snapshot_state()
                   for name, p in device.peripherals.items()}
    return (outcome, list(cpu.regs), bytes(bus.mem), peripherals,
            device.trace.snapshot().edges)


def _check_step(devices, state):
    """Step *state* on both interpreters; both must agree, and the step
    must do what the classifier says of its instruction."""
    compiled, generic, _ = devices
    got = _step(compiled, state)
    want = _step(generic, state)
    assert got[0] == want[0], "step record or exception differs"
    assert got[1] == want[1], "registers differ"
    assert got[2] == want[2], "memory differs"
    assert got[3] == want[3], "peripheral state differs"
    assert got[4] == want[4], "trace edges differ"
    record, edges = got[0], got[4]
    if type(record) is StepRecord and record.kind is StepKind.INSTRUCTION:
        kind = classify_insn(record.insn, record.pc)[0]
        if kind is TransferKind.NONE:
            assert record.next_pc == (record.pc + record.insn.size_bytes) & 0xFFFF
        assert [edge[2] for edge in edges] in ([], [EDGE_KINDS[kind]])
    return got


MNEMONICS = sorted(FORMAT1_OPCODES) + sorted(FORMAT2_OPCODES) + sorted(JUMP_OPCODES)


@pytest.mark.parametrize("mnemonic", MNEMONICS)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_compiled_executor_matches_generic(devices, mnemonic, data):
    compiled, _, snapshot = devices
    word = data.draw(first_words(mnemonic), label="first word")
    ext = data.draw(st.lists(WORDS, min_size=2, max_size=2), label="ext words")
    # Registers and the words under them come from one block of bytes
    # (few draws keep examples cheap); the registers the first word
    # names and SP then get values aimed at interesting addresses.
    block = data.draw(st.binary(min_size=64, max_size=64), label="state")
    words = [block[i] | block[i + 1] << 8 for i in range(0, 64, 2)]
    regs = words[:16]
    for reg in sorted({(word >> 8) & 0xF, word & 0xF, SP}):
        regs[reg] = data.draw(WORDS, label=f"r{reg}")
    pokes = list(zip(regs, words[16:]))
    pokes += data.draw(st.lists(st.tuples(WORDS, WORDS), max_size=3),
                       label="memory")
    site = data.draw(CODE_SITES, label="pc")
    state = (snapshot, regs, pokes, site, [word] + ext)

    got = _check_step(devices, state)
    # The entry (unless the step overwrote its own code) is the
    # compiled step that ran; a cache hit runs it alone.
    entry = compiled.cpu._dcache.get(site)
    if entry is not None:
        assert _step(compiled, state, entry) == got


# Register-mode ``pc`` destinations: those that write it are transfers,
# those that only read it (cmp, bit, push) fall through.
PC_DESTINATION_KINDS = {
    **{name: TransferKind.JUMP_INDIRECT for name in FORMAT1_OPCODES},
    "cmp": TransferKind.NONE,
    "bit": TransferKind.NONE,
    "rrc": TransferKind.JUMP_INDIRECT,
    "swpb": TransferKind.JUMP_INDIRECT,
    "rra": TransferKind.JUMP_INDIRECT,
    "sxt": TransferKind.JUMP_INDIRECT,
    "push": TransferKind.NONE,
    "call": TransferKind.CALL_INDIRECT,
    "reti": TransferKind.RETI,
}


@pytest.mark.parametrize("mnemonic", sorted(PC_DESTINATION_KINDS))
def test_pc_destination_classifies_and_steps(devices, mnemonic):
    if mnemonic in FORMAT1_OPCODES:  # op r5, pc
        word = FORMAT1_OPCODES[mnemonic].code << 12 | 5 << 8 | PC
    else:  # op pc
        word = 0x1000 | FORMAT2_OPCODES[mnemonic].code << 7 | PC
    regs = [0] * 16
    regs[5], regs[SP] = 0xE124, 0x0800
    state = (devices[2], regs, [(0x0800, 0), (0x0802, 0xE140)], 0xE100,
             [word])
    record = _check_step(devices, state)[0]
    assert record.insn.mnemonic == mnemonic
    assert classify_insn(record.insn, 0xE100)[0] is PC_DESTINATION_KINDS[mnemonic]
