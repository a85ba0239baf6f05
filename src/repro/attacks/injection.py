"""Code-injection and memory-isolation attacks.

* :func:`code_injection` -- write shellcode into DMEM and divert a
  return into it (the classic stack-smash the W-xor-X policy kills).
* :func:`pmem_overwrite` -- firmware writes its own code region (CASU's
  core guarantee: PMEM is immutable outside authenticated updates).
* :func:`shadow_stack_tamper` -- untrusted code touches the secure
  shadow-stack bank (the EILID hardware extension).
* :func:`rom_mid_entry_jump` -- branch into the middle of the trusted
  ROM, bypassing the entry section (ROM atomicity).
"""

from repro.api.firmware import build_firmware
from repro.api.spec import FirmwareSpec
from repro.attacks.harness import AttackHarness, AttackOutcome, AttackResult
from repro.attacks.victims import (
    IVT_OVERWRITE_ASM,
    PMEM_WRITER_ASM,
    ROM_JUMP_ASM,
    SECURE_RAM_READER_ASM,
    UNLOCK_MARKER,
)
from repro.device import build_device
from repro.peripherals.ports import GPIO_OUT

# Hand-assembled shellcode: `mov #0xAA, &GPIO_OUT ; jmp $`
# (the attacker's payload writes the hijack marker then parks).
_SHELLCODE_WORDS = (0x40B2, UNLOCK_MARKER, GPIO_OUT, 0x3FFF)


def code_injection(security: str) -> AttackResult:
    harness = AttackHarness(security)
    process_entry = harness.symbol("process")

    # Inject the payload into DMEM (models a buffer overflow landing
    # attacker bytes in RAM).
    payload_addr = harness.device.layout.dmem.start + 0x80
    for index, word in enumerate(_SHELLCODE_WORDS):
        harness.device.bus.poke_word(payload_addr + 2 * index, word)

    harness.run_to({process_entry})
    sp = harness.device.cpu.sp
    harness.device.bus.poke_word(sp, payload_addr)

    return harness.finish(
        "code-injection",
        corruption_detail=f"return -> DMEM shellcode @0x{payload_addr:04x}",
    )


# The hand-written firmwares as declarative specs (the repro.api build
# path caches the immutable images once per process; each attack run
# gets its own device).  Also consulted by Session.build() so attack
# scenarios report the image that actually executed.
RAW_ATTACK_FIRMWARE = {
    "pmem_overwrite": FirmwareSpec(
        kind="asm", source=PMEM_WRITER_ASM, variant="original",
        name="raw-attack", link_rom=False),
    "shadow_stack_tamper": FirmwareSpec(
        kind="asm", source=SECURE_RAM_READER_ASM, variant="original",
        name="raw-attack", link_rom=False),
    "ivt_overwrite": FirmwareSpec(
        kind="asm", source=IVT_OVERWRITE_ASM, variant="original",
        name="raw-attack", link_rom=False),
    "rom_mid_entry_jump": FirmwareSpec(
        kind="asm", source=ROM_JUMP_ASM, variant="original",
        name="raw-attack", link_rom=True),
}


def _run_raw_asm(attack_name, security):
    """Build a hand-written firmware (attacker-controlled binary)."""
    build = build_firmware(RAW_ATTACK_FIRMWARE[attack_name])
    return build_device(build.program, security=security)


def _classify_raw(name, security, device, succeeded_detail):
    result = device.run(max_cycles=100_000)
    if result.violations:
        return AttackResult(name, security, AttackOutcome.RESET, result.violations,
                            device=device)
    if result.done:
        return AttackResult(name, security, AttackOutcome.HIJACKED,
                            detail=succeeded_detail, device=device)
    return AttackResult(name, security, AttackOutcome.NO_EFFECT, device=device)


def pmem_overwrite(security: str) -> AttackResult:
    device = _run_raw_asm("pmem_overwrite", security)
    before = device.peek_word(0xE002)
    result = _classify_raw("pmem-overwrite", security, device, "code region modified")
    if result.outcome is AttackOutcome.HIJACKED and device.peek_word(0xE002) == before:
        result.outcome = AttackOutcome.NO_EFFECT
    return result


def shadow_stack_tamper(security: str) -> AttackResult:
    device = _run_raw_asm("shadow_stack_tamper", security)
    return _classify_raw(
        "shadow-stack-tamper", security, device, "shadow stack read+written"
    )


def ivt_overwrite(security: str) -> AttackResult:
    device = _run_raw_asm("ivt_overwrite", security)
    return _classify_raw(
        "ivt-overwrite", security, device, "interrupt vector hijacked"
    )


def rom_mid_entry_jump(security: str) -> AttackResult:
    device = _run_raw_asm("rom_mid_entry_jump", security)
    return _classify_raw("rom-mid-entry-jump", security, device, "rom internals reached")
