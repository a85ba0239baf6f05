"""CPU instruction semantics: flags, addressing, stack, interrupts."""

from collections import Counter

import pytest
from hypothesis import given, strategies as st

from repro.casu.monitor import ViolationReason
from repro.cpu import Cpu, InterruptController, StepKind, StepRecord
from repro.device import build_device
from repro.isa.opcodes import FORMAT2_BYTE_CAPABLE, FORMAT2_OPCODES
from repro.isa.registers import CG2, FLAG_C, FLAG_N, FLAG_V, FLAG_Z, PC, SP, SR
from repro.memory import Bus
from repro.toolchain import link, parse_source

WORD = st.integers(min_value=0, max_value=0xFFFF)

_SPIN = """
    .text
__start:
    jmp __start
    .vector 15, __start
"""


def make_cpu(asm, data=(), start_regs=None):
    """Assemble a snippet at PMEM start and return a stepped-in CPU."""
    source = "    .text\n__start:\n" + asm + "\nend:\n    jmp end\n    .vector 15, __start\n"
    program = link([parse_source(source, "snippet.s")], name="snippet")
    bus = Bus(program.layout)
    for addr, chunk in program.segments():
        bus.load_bytes(addr, chunk)
    for addr, value in data:
        bus.poke_word(addr, value)
    cpu = Cpu(bus, InterruptController())
    cpu.reset()
    for reg, value in (start_regs or {}).items():
        cpu.set_reg(reg, value)
    return cpu, program


def run_steps(cpu, n):
    for _ in range(n):
        cpu.step()
    return cpu


class TestMovAndAddressing:
    def test_mov_immediate(self):
        cpu, _ = make_cpu("    mov #0x1234, r10")
        run_steps(cpu, 1)
        assert cpu.get_reg(10) == 0x1234

    def test_mov_absolute_load_store(self):
        cpu, _ = make_cpu(
            "    mov &0x0200, r10\n    mov r10, &0x0202",
            data=[(0x0200, 0xBEEF)],
        )
        run_steps(cpu, 2)
        assert cpu.get_reg(10) == 0xBEEF
        assert cpu.bus.peek_word(0x0202) == 0xBEEF

    def test_indexed_addressing(self):
        cpu, _ = make_cpu(
            "    mov #0x0200, r10\n    mov 4(r10), r11",
            data=[(0x0204, 0xCAFE)],
        )
        run_steps(cpu, 2)
        assert cpu.get_reg(11) == 0xCAFE

    def test_indirect_autoincrement_word(self):
        cpu, _ = make_cpu(
            "    mov #0x0200, r10\n    mov @r10+, r11\n    mov @r10+, r12",
            data=[(0x0200, 0x1111), (0x0202, 0x2222)],
        )
        run_steps(cpu, 3)
        assert cpu.get_reg(11) == 0x1111
        assert cpu.get_reg(12) == 0x2222
        assert cpu.get_reg(10) == 0x0204

    def test_autoincrement_byte_steps_by_one(self):
        cpu, _ = make_cpu(
            "    mov #0x0200, r10\n    mov.b @r10+, r11\n    mov.b @r10+, r12",
            data=[(0x0200, 0x3412)],
        )
        run_steps(cpu, 3)
        assert cpu.get_reg(11) == 0x12
        assert cpu.get_reg(12) == 0x34
        assert cpu.get_reg(10) == 0x0202

    def test_byte_write_to_register_clears_high_byte(self):
        cpu, _ = make_cpu("    mov #0xffff, r10\n    mov.b #0x12, r10")
        run_steps(cpu, 2)
        assert cpu.get_reg(10) == 0x0012

    def test_byte_write_to_memory_leaves_sibling(self):
        cpu, _ = make_cpu(
            "    mov #0x55, r10\n    mov.b r10, &0x0201",
            data=[(0x0200, 0x1122)],
        )
        run_steps(cpu, 2)
        assert cpu.bus.peek_word(0x0200) == 0x5522


class TestArithmeticFlags:
    def test_add_carry_and_zero(self):
        cpu, _ = make_cpu("    mov #0xffff, r10\n    add #1, r10")
        run_steps(cpu, 2)
        assert cpu.get_reg(10) == 0
        assert cpu.flag(FLAG_C) and cpu.flag(FLAG_Z)
        assert not cpu.flag(FLAG_N) and not cpu.flag(FLAG_V)

    def test_add_signed_overflow(self):
        cpu, _ = make_cpu("    mov #0x7fff, r10\n    add #1, r10")
        run_steps(cpu, 2)
        assert cpu.get_reg(10) == 0x8000
        assert cpu.flag(FLAG_V) and cpu.flag(FLAG_N)

    def test_addc_uses_carry(self):
        cpu, _ = make_cpu(
            "    mov #0xffff, r10\n    add #1, r10\n    mov #5, r11\n    addc #0, r11"
        )
        run_steps(cpu, 4)
        assert cpu.get_reg(11) == 6

    def test_sub_borrow_clears_carry(self):
        cpu, _ = make_cpu("    mov #3, r10\n    sub #5, r10")
        run_steps(cpu, 2)
        assert cpu.get_reg(10) == 0xFFFE
        assert not cpu.flag(FLAG_C)
        assert cpu.flag(FLAG_N)

    def test_sub_no_borrow_sets_carry(self):
        cpu, _ = make_cpu("    mov #5, r10\n    sub #3, r10")
        run_steps(cpu, 2)
        assert cpu.get_reg(10) == 2
        assert cpu.flag(FLAG_C)

    def test_cmp_does_not_write(self):
        cpu, _ = make_cpu("    mov #7, r10\n    cmp #7, r10")
        run_steps(cpu, 2)
        assert cpu.get_reg(10) == 7
        assert cpu.flag(FLAG_Z)

    def test_dadd_bcd(self):
        cpu, _ = make_cpu("    clrc\n    mov #0x0199, r10\n    dadd #0x0001, r10")
        run_steps(cpu, 3)
        assert cpu.get_reg(10) == 0x0200

    def test_dadd_carry_chain(self):
        cpu, _ = make_cpu("    clrc\n    mov #0x9999, r10\n    dadd #0x0001, r10")
        run_steps(cpu, 3)
        assert cpu.get_reg(10) == 0x0000
        assert cpu.flag(FLAG_C)

    def test_and_sets_carry_on_nonzero(self):
        cpu, _ = make_cpu("    mov #0x0f0f, r10\n    and #0x00ff, r10")
        run_steps(cpu, 2)
        assert cpu.get_reg(10) == 0x000F
        assert cpu.flag(FLAG_C) and not cpu.flag(FLAG_Z)

    def test_bit_only_flags(self):
        cpu, _ = make_cpu("    mov #0x0100, r10\n    bit #0x0100, r10")
        run_steps(cpu, 2)
        assert cpu.get_reg(10) == 0x0100
        assert not cpu.flag(FLAG_Z)

    def test_xor_overflow_when_both_negative(self):
        cpu, _ = make_cpu("    mov #0x8001, r10\n    xor #0x8000, r10")
        run_steps(cpu, 2)
        assert cpu.get_reg(10) == 1
        assert cpu.flag(FLAG_V)

    def test_bic_bis_no_flags(self):
        cpu, _ = make_cpu(
            "    setc\n    setz\n    mov #0x00f0, r10\n    bic #0x0030, r10\n    bis #0x0003, r10"
        )
        run_steps(cpu, 5)
        assert cpu.get_reg(10) == 0x00C3
        assert cpu.flag(FLAG_C) and cpu.flag(FLAG_Z)  # untouched


class TestShiftsAndSingleOps:
    def test_rra_arithmetic(self):
        cpu, _ = make_cpu("    mov #0x8004, r10\n    rra r10")
        run_steps(cpu, 2)
        assert cpu.get_reg(10) == 0xC002
        assert not cpu.flag(FLAG_C)

    def test_rra_carry_out(self):
        cpu, _ = make_cpu("    mov #0x0003, r10\n    rra r10")
        run_steps(cpu, 2)
        assert cpu.get_reg(10) == 1 and cpu.flag(FLAG_C)

    def test_rrc_rotates_carry_in(self):
        cpu, _ = make_cpu("    setc\n    mov #0x0000, r10\n    rrc r10")
        run_steps(cpu, 3)
        assert cpu.get_reg(10) == 0x8000

    def test_swpb(self):
        cpu, _ = make_cpu("    mov #0x1234, r10\n    swpb r10")
        run_steps(cpu, 2)
        assert cpu.get_reg(10) == 0x3412

    def test_sxt_sign_extends(self):
        cpu, _ = make_cpu("    mov #0x0080, r10\n    sxt r10")
        run_steps(cpu, 2)
        assert cpu.get_reg(10) == 0xFF80
        assert cpu.flag(FLAG_N)


class TestStackAndCalls:
    def test_push_pop(self):
        cpu, _ = make_cpu(
            "    mov #0x0a00, r1\n    mov #0x1234, r10\n    push r10\n    pop r11"
        )
        run_steps(cpu, 4)
        assert cpu.get_reg(11) == 0x1234
        assert cpu.sp == 0x0A00

    def test_call_pushes_return_and_ret_pops(self):
        cpu, prog = make_cpu(
            "    mov #0x0a00, r1\n"
            "    call #sub\n"
            "    mov #1, r12\n"
            "    jmp end\n"
            "sub:\n"
            "    mov #2, r13\n"
            "    ret"
        )
        run_steps(cpu, 6)
        assert cpu.get_reg(13) == 2
        assert cpu.get_reg(12) == 1
        assert cpu.sp == 0x0A00

    def test_call_register_indirect(self):
        cpu, prog = make_cpu(
            "    mov #0x0a00, r1\n"
            "    mov #sub, r12\n"
            "    call r12\n"
            "    jmp end\n"
            "sub:\n"
            "    mov #9, r13\n"
            "    ret"
        )
        run_steps(cpu, 6)
        assert cpu.get_reg(13) == 9


class TestJumps:
    @pytest.mark.parametrize("asm,expected", [
        ("    mov #1, r10\n    tst r10\n    jz miss\n    mov #7, r11\nmiss:", 7),
        ("    mov #0, r10\n    tst r10\n    jnz miss\n    mov #7, r11\nmiss:", 7),
        ("    mov #5, r10\n    cmp #5, r10\n    jz hit\n    jmp end\nhit:\n    mov #7, r11", 7),
    ])
    def test_conditional_jumps(self, asm, expected):
        cpu, _ = make_cpu(asm)
        run_steps(cpu, 6)
        assert cpu.get_reg(11) == expected

    def test_jge_jl_signed(self):
        cpu, _ = make_cpu(
            "    mov #0xfffe, r10\n"  # -2
            "    cmp #1, r10\n"  # -2 - 1 < 0
            "    jl neg\n"
            "    jmp end\n"
            "neg:\n"
            "    mov #1, r11"
        )
        run_steps(cpu, 5)
        assert cpu.get_reg(11) == 1


class TestInterrupts:
    def _irq_cpu(self):
        source = (
            "    .text\n"
            "__start:\n"
            "    mov #0x0a00, r1\n"
            "    eint\n"
            "spin:\n"
            "    jmp spin\n"
            "__isr_t:\n"
            "    mov #0x55, r10\n"
            "    reti\n"
            "    .vector 9, __isr_t\n"
            "    .vector 15, __start\n"
        )
        program = link([parse_source(source, "irq.s")], name="irq")
        bus = Bus(program.layout)
        for addr, chunk in program.segments():
            bus.load_bytes(addr, chunk)
        cpu = Cpu(bus, InterruptController())
        cpu.reset()
        return cpu

    def test_interrupt_entry_pushes_pc_sr_and_clears_sr(self):
        cpu = self._irq_cpu()
        run_steps(cpu, 3)  # init + spin a bit
        assert cpu.gie
        spin_pc = cpu.pc
        cpu.ic.request(9)
        record = cpu.step()
        assert record.kind.value == "interrupt"
        assert cpu.bus.peek_word(cpu.sp) != 0 or True  # SR may be anything
        assert cpu.bus.peek_word(cpu.sp + 2) == spin_pc
        assert not cpu.gie  # SR cleared on entry

    def test_reti_restores_context(self):
        cpu = self._irq_cpu()
        run_steps(cpu, 3)
        spin_pc = cpu.pc
        sr_before = cpu.sr
        cpu.ic.request(9)
        run_steps(cpu, 3)  # irq entry + isr body + reti
        assert cpu.get_reg(10) == 0x55
        assert cpu.pc == spin_pc
        assert cpu.sr == sr_before

    def test_interrupt_blocked_without_gie(self):
        cpu = self._irq_cpu()
        cpu.step()  # only the SP init; GIE still clear
        cpu.ic.request(9)
        record = cpu.step()
        assert record.kind.value == "instruction"

    def test_irq_deferred_predicate(self):
        cpu = self._irq_cpu()
        run_steps(cpu, 3)
        cpu.irq_deferred_at = lambda pc: True
        cpu.ic.request(9)
        record = cpu.step()
        assert record.kind.value == "instruction"  # deferred, not taken


class TestAlignmentAndFaults:
    """SLAU049 word-access alignment and top-of-address-space faults."""

    def _raw_cpu(self):
        bus = Bus()
        cpu = Cpu(bus, InterruptController())
        return cpu, bus

    def test_word_read_ignores_low_address_bit(self):
        _, bus = self._raw_cpu()
        bus.poke_word(0x0200, 0xBEEF)
        assert bus.read_word(0x0201) == 0xBEEF
        assert bus.read_word(0x0200) == 0xBEEF

    def test_word_write_ignores_low_address_bit(self):
        _, bus = self._raw_cpu()
        bus.write_word(0x0203, 0xCAFE)
        assert bus.peek_word(0x0202) == 0xCAFE
        assert bus.peek_byte(0x0204) == 0  # the next word is untouched
        # The monitors see the aligned (architectural) address.
        write = [a for a in bus.trace if a.kind.value == "write"][-1]
        assert write.addr == 0x0202

    def test_word_access_at_top_of_memory_is_aligned_not_fault(self):
        _, bus = self._raw_cpu()
        bus.poke_word(0xFFFE, 0x1234)
        assert bus.read_word(0xFFFF) == 0x1234

    def test_word_access_past_top_raises(self):
        from repro.errors import MemoryAccessError

        _, bus = self._raw_cpu()
        with pytest.raises(MemoryAccessError):
            bus.read_word(0x10000)
        with pytest.raises(MemoryAccessError):
            bus.write_word(0x10000, 1)

    def test_odd_stack_pointer_pushes_to_aligned_word(self):
        cpu, bus = self._raw_cpu()
        cpu.set_reg(SP, 0x0A01)
        cpu._push(0x5678)
        assert cpu.sp == 0x09FF
        assert bus.peek_word(0x09FE) == 0x5678

    def test_extension_fetch_past_top_is_fault_step_not_crash(self):
        # Regression: a two-word instruction whose first word sits at
        # 0xFFFE fetches its extension word at 0x10000; that used to let
        # MemoryAccessError escape Cpu.step and crash the simulator.
        cpu, bus = self._raw_cpu()
        first_word = 0x403A  # mov #imm, r10 -- extension word required
        bus.poke_word(0xFFFE, first_word)
        cpu.set_reg(0, 0xFFFE)
        record = cpu.step()
        assert record.kind.value == "illegal"
        assert record.illegal_word == first_word
        assert record.next_pc == 0xFFFE  # fault steps do not advance PC
        assert record.cycles == 1

    def test_extension_fetch_fault_is_stable_across_repeats(self):
        cpu, bus = self._raw_cpu()
        bus.poke_word(0xFFFE, 0x403A)
        cpu.set_reg(0, 0xFFFE)
        records = [cpu.step() for _ in range(3)]
        assert all(r.kind.value == "illegal" for r in records)


def _write_back_constant_words():
    """rrc/rra/swpb/sxt (and rrc.b/rra.b) naming a constant generator
    (R3 with any As, R2 with As=10/11) or an immediate (@pc+)."""
    words = []
    for name, opcode in FORMAT2_OPCODES.items():
        if not opcode.writes_dest:
            continue
        for byte in ((0, 1) if name in FORMAT2_BYTE_CAPABLE else (0,)):
            base = 0x1000 | opcode.code << 7 | byte << 6
            words += [base | as_bits << 4 | CG2 for as_bits in range(4)]
            words += [base | as_bits << 4 | SR for as_bits in (2, 3)]
            words.append(base | 3 << 4 | PC)
    return words


WRITE_BACK_CONSTANT_WORDS = _write_back_constant_words()


@pytest.mark.parametrize("security", ["none", "casu", "eilid"])
def test_write_back_to_a_constant_is_an_illegal_step(security):
    # Regression: these 42 first words decoded, then raised out of
    # Cpu.step (`rrc #1` from the executor, `rrc #5` from the cycle
    # table), so an imem-flip fault landing on one aborted the sweep.
    assert len(WRITE_BACK_CONSTANT_WORDS) == 42
    program = link([parse_source(_SPIN, "spin.s")], name="spin")
    device = build_device(program, security=security)
    site = device.cpu.pc
    for word in WRITE_BACK_CONSTANT_WORDS:
        device.bus.poke_word(site, word)
        device.bus.poke_word(site + 2, 0x0005)
        device.cpu.pc = site
        record, violation = device.step()
        assert record.kind is StepKind.ILLEGAL
        assert record.illegal_word == word
        if security == "none":
            assert device.cpu.pc == site + 2
        else:
            assert violation.reason is ViolationReason.ILLEGAL_INSN


def test_every_first_word_steps_to_a_record():
    """Cpu.step only ever returns a StepRecord, whatever the code: each
    of the 65,536 first words (with extension words after it) executes
    or is an ILLEGAL step, through the decode cache and compiler."""
    program = link([parse_source(_SPIN, "spin.s")], name="spin")
    device = build_device(program)
    cpu, bus = device.cpu, device.bus
    site = 0xE100
    kinds = Counter()
    for word in range(0x10000):
        bus.poke_word(site, word)
        bus.poke_word(site + 2, 0x0200)
        bus.poke_word(site + 4, 0x0202)
        cpu.regs = [site, 0x0A00, 0, 0] + [0x0200] * 12
        record = cpu.step()
        assert type(record) is StepRecord, hex(word)
        kinds[record.kind] += 1
    assert kinds[StepKind.ILLEGAL] + kinds[StepKind.INSTRUCTION] == 0x10000


# ---- differential property tests against a Python reference -----------------

@given(a=WORD, b=WORD)
def test_add_flags_match_reference(a, b):
    cpu, _ = make_cpu(f"    mov #{a}, r10\n    add #{b}, r10")
    run_steps(cpu, 2)
    total = a + b
    assert cpu.get_reg(10) == total & 0xFFFF
    assert cpu.flag(FLAG_C) == (total > 0xFFFF)
    assert cpu.flag(FLAG_Z) == (total & 0xFFFF == 0)
    assert cpu.flag(FLAG_N) == bool(total & 0x8000)
    sa, sb, sr = a >= 0x8000, b >= 0x8000, bool(total & 0x8000)
    assert cpu.flag(FLAG_V) == (sa == sb and sa != sr)


@given(a=WORD, b=WORD)
def test_sub_result_matches_reference(a, b):
    cpu, _ = make_cpu(f"    mov #{a}, r10\n    sub #{b}, r10")
    run_steps(cpu, 2)
    assert cpu.get_reg(10) == (a - b) & 0xFFFF
    assert cpu.flag(FLAG_C) == (a >= b)  # C = no borrow


@given(a=WORD, b=WORD, op=st.sampled_from(["and", "xor", "bis", "bic"]))
def test_logic_results_match_reference(a, b, op):
    cpu, _ = make_cpu(f"    mov #{a}, r10\n    {op} #{b}, r10")
    run_steps(cpu, 2)
    expected = {
        "and": a & b, "xor": a ^ b, "bis": a | b, "bic": a & ~b & 0xFFFF
    }[op]
    assert cpu.get_reg(10) == expected
