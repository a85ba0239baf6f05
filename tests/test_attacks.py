"""The attack matrix (DESIGN.md Sec. 6): who defends against what."""

import pytest

from repro.attacks import (
    AttackOutcome,
    code_injection,
    interrupt_context_tamper,
    pmem_overwrite,
    pointer_bend_to_valid_function,
    pointer_hijack,
    return_address_smash,
    rom_mid_entry_jump,
    shadow_stack_tamper,
)
from repro.casu.monitor import ViolationReason

H = AttackOutcome.HIJACKED
R = AttackOutcome.RESET
A = AttackOutcome.ALLOWED

# attack -> {security: (expected outcome, expected first reason or None)}
MATRIX = {
    return_address_smash: {
        "none": (H, None),
        "casu": (H, None),  # CASU guards immutability, not control flow
        "eilid": (R, ViolationReason.CFI_RETURN),
    },
    interrupt_context_tamper: {
        "none": (H, None),
        "casu": (H, None),
        "eilid": (R, ViolationReason.CFI_RFI),
    },
    pointer_hijack: {
        "none": (H, None),
        "casu": (H, None),
        "eilid": (R, ViolationReason.CFI_INDIRECT),
    },
    code_injection: {
        "none": (H, None),
        "casu": (R, ViolationReason.W_XOR_X),
        "eilid": (R, ViolationReason.CFI_RETURN),  # P1 fires before the fetch
    },
    pmem_overwrite: {
        "none": (H, None),
        "casu": (R, ViolationReason.PMEM_WRITE),
        "eilid": (R, ViolationReason.PMEM_WRITE),
    },
    shadow_stack_tamper: {
        "none": (H, None),
        "casu": (H, None),  # the guard is the EILID extension
        "eilid": (R, ViolationReason.SECURE_RAM_ACCESS),
    },
    rom_mid_entry_jump: {
        "none": (H, None),
        "casu": (R, ViolationReason.ROM_ENTRY),
        "eilid": (R, ViolationReason.ROM_ENTRY),
    },
}


@pytest.mark.parametrize("attack", list(MATRIX), ids=lambda a: a.__name__)
@pytest.mark.parametrize("security", ["none", "casu", "eilid"])
def test_attack_matrix(attack, security):
    expected_outcome, expected_reason = MATRIX[attack][security]
    result = attack(security)
    assert result.outcome is expected_outcome, str(result)
    if expected_reason is not None:
        assert result.violations
        assert result.violations[0].reason is expected_reason


class TestFunctionLevelLimitation:
    """Paper Sec. IV-A: bending a pointer to *another valid function
    entry* is admitted by function-level forward-edge CFI."""

    def test_bend_hijacks_baseline(self):
        assert pointer_bend_to_valid_function("none").outcome is H

    def test_bend_allowed_on_eilid_by_design(self):
        result = pointer_bend_to_valid_function("eilid")
        assert result.outcome is A
        assert not result.violations  # silently admitted, as documented


class TestEilidDetectionTiming:
    def test_rop_reset_happens_before_gadget_runs(self):
        """P1 is preventive: the corrupted return target is never
        fetched (contrast with CFA, which only detects after the fact)."""
        result = return_address_smash("eilid")
        assert result.outcome is R
        # No hijack evidence: the unlock GPIO write never happened.
        assert "unlock" in result.detail

    def test_recursion_overflow_resets(self):
        """Paper Sec. VII: recursion is unsupported; exhausting the
        shadow stack is detected as an overflow reset, not corruption."""
        from repro.device import build_device
        from repro.eilid.iterbuild import IterativeBuild
        from repro.minicc import compile_c

        source = """
        int deep(int n) {
            if (n == 0) { return 0; }
            return deep(n - 1) + 1;
        }
        void main() { __mmio_write(0x0070, deep(200)); }
        """
        asm = compile_c(source, "deep")
        result = IterativeBuild().build_eilid(asm, "deep.s")
        device = build_device(result.final.program, security="eilid")
        run = device.run(max_cycles=500_000)
        assert run.violations
        assert run.violations[0].reason is ViolationReason.SHADOW_OVERFLOW

    def test_bounded_recursion_within_capacity_is_fine(self):
        from repro.device import build_device
        from repro.eilid.iterbuild import IterativeBuild
        from repro.minicc import compile_c

        source = """
        int deep(int n) {
            if (n == 0) { return 0; }
            return deep(n - 1) + 1;
        }
        void main() { __mmio_write(0x0070, deep(20)); }
        """
        asm = compile_c(source, "deep")
        result = IterativeBuild().build_eilid(asm, "deep.s")
        device = build_device(result.final.program, security="eilid")
        run = device.run(max_cycles=500_000)
        assert run.done and run.done_value == 20 and not run.violations


class TestSecureRomIsReadOnly:
    """Secure ROM is mask ROM: untrusted code can put a store to it on
    the bus, but the cells keep their bits under every security level.
    Were it writable, one store would patch the EILID checks out."""

    STORES = """
    .text
    .global main
main:
    mov #0x1234, &0x{rom:04x}
    mov.b #0x55, &0x{odd:04x}
    mov #1, &0x0070
halt:
    jmp halt
"""
    # Patches the first word of S_EILID_check_ra into a jump to
    # S_EILID_leave, then smashes a return address.
    PROBE = """
    .text
    .global main
main:
    mov #0x{word:04x}, &0x{addr:04x}
    call #victim
    mov #1, &0x0070
halt:
    jmp halt
victim:
    mov #hijack, 0(r1)
    ret
hijack:
    mov #2, &0x0070
hang:
    jmp hang
"""

    @staticmethod
    def _program(source, variant):
        from repro.api import FirmwareSpec, build_firmware

        return build_firmware(FirmwareSpec(
            kind="asm", source=source, variant=variant, name="rom-store",
            link_rom=True)).program

    def test_the_bus_records_a_rom_store_and_drops_it(self):
        from repro.memory.bus import AccessKind, Bus

        bus = Bus()
        rom = bus.layout.secure_rom.start
        bus.write_word(rom, 0x1234)
        bus.write_byte(rom + 3, 0x55)
        assert bytes(bus.mem[rom:rom + 4]) == bytes(4)
        assert [(a.kind, a.addr, a.value) for a in bus.trace] == [
            (AccessKind.WRITE, rom, 0x1234), (AccessKind.WRITE, rom + 3, 0x55)]
        bus.poke_word(rom, 0xBEEF)  # the back door still writes
        assert bus.peek_word(rom) == 0xBEEF

    @pytest.mark.parametrize("security", ["none", "casu", "eilid"])
    def test_untrusted_stores_leave_rom_unchanged(self, security):
        from repro.device import build_device
        from repro.memory.map import MemoryLayout

        rom = MemoryLayout.default().secure_rom
        variant = "eilid" if security == "eilid" else "original"
        program = self._program(
            self.STORES.format(rom=rom.start + 0x42, odd=rom.start + 0x45),
            variant)
        device = build_device(program, security=security)
        run = device.run(max_cycles=10_000)
        assert run.done_value == 1 and not run.violations
        span = slice(rom.start, rom.end + 1)
        assert bytes(device.bus.mem[span]) == program.image[span]

    def test_a_patched_return_check_still_resets_the_hijack(self):
        from repro.device import build_device

        scout = build_device(self._program(
            self.PROBE.format(word=0, addr=0xA000), "eilid"), security="eilid")
        check = scout.symbol("S_EILID_check_ra")
        leave = scout.symbol("S_EILID_leave")
        jump = 0x3C00 | ((leave - check - 2) >> 1 & 0x3FF)
        device = build_device(self._program(
            self.PROBE.format(word=jump, addr=check), "eilid"),
            security="eilid")
        run = device.run(max_cycles=10_000)
        assert run.done_value != 2
        assert [v.reason for v in run.violations] == [
            ViolationReason.CFI_RETURN]
