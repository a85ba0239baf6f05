"""Victim programs for the attack suite.

``VICTIM_C`` is a small telemetry node with a privileged action
(`unlock`) the attacker wants to reach: it drives a distinctive GPIO
pattern (0xAA) that serves as the hijack evidence.  ``process`` is the
function whose activation record the attacker corrupts.
"""

from repro.api.firmware import build_firmware
from repro.api.spec import FirmwareSpec
from repro.device import build_device
from repro.peripherals import Adc, AdcSchedule

UNLOCK_MARKER = 0xAA

VICTIM_C = """
// Telemetry node with a privileged maintenance action. The attacker's
// goal is to reach unlock() without authorisation.
int readings;
int last;
int ticks;
int op;

__interrupt(9) void tick() {
    ticks = ticks + 1;
}

void unlock() {
    __mmio_write(0x0010, 0xAA);            // evidence of hijack
}

int process(int v) {
    last = (last + v) >> 1;
    return last;
}

void main() {
    readings = 0;
    last = 0;
    ticks = 0;
    op = process;                          // telemetry hook pointer
    __mmio_write(0x0024, 2000);
    __mmio_write(0x0020, 3);
    __enable_interrupts();
    for (int i = 0; i < 30; i = i + 1) {
        __mmio_write(0x0030, 8 | 5);
        int v = __mmio_read(0x0032);
        op(v);                             // dispatch through the hook
        readings = readings + 1;
    }
    __disable_interrupts();
    __mmio_write(0x0070, readings);
}
"""

# Hand-written assembly victims for monitor-level attacks (these model
# attacker-supplied or legacy binaries, so they bypass EILIDinst).

PMEM_WRITER_ASM = """
; Firmware with an attacker-reachable arbitrary-write: it stores a
; word into its own code region (models a flash-corruption exploit).
    .text
    .global main
main:
    mov #0xbeef, r10
    mov r10, &0xe002        ; overwrite code near the reset path
    mov #1, &0x0070         ; DONE
loop:
    jmp loop
"""

SECURE_RAM_READER_ASM = """
; Firmware that tries to read and overwrite the EILID shadow stack
; from untrusted code.
    .text
    .global main
main:
    mov &0x1030, r10        ; read a shadow-stack slot
    mov #0xdead, &0x1030    ; overwrite it
    mov #1, &0x0070
loop:
    jmp loop
"""

IVT_OVERWRITE_ASM = """
; Firmware that rewrites the timer interrupt vector to point at
; attacker code, then arms the timer and waits for the hardware to
; dispatch into it (models a vector-table hijack).
    .text
    .global main
main:
    mov #evil, &0xfff2      ; timer vector (9) -> attacker handler
    mov #200, &0x0024       ; timer compare
    mov #3, &0x0020         ; timer enable + irq
    eint
wait:
    jmp wait
evil:
    mov #0xaa, &0x0010      ; hijack marker
    mov #1, &0x0070         ; DONE
    reti
"""

ROM_JUMP_ASM = """
; Firmware that branches into the middle of the trusted ROM, skipping
; the entry section (attempt to abuse S_EILID internals directly).
    .text
    .global main
main:
    br #S_EILID_leave       ; mid-ROM target: not the entry point
    mov #1, &0x0070
loop:
    jmp loop
"""


def victim_adc():
    return {"adc": Adc(AdcSchedule({5: AdcSchedule.steps(5, [100, 300, 500, 700])}))}


def victim_firmware_spec(variant: str) -> FirmwareSpec:
    """The victim firmware as a declarative spec (repro.api's path).

    Going through the spec means the build is cached process-wide by
    :func:`repro.api.firmware.build_firmware` -- the artifacts are
    immutable (devices copy the image into their own bus), so every
    attack scenario shares them; only the device itself must be fresh.
    """
    return FirmwareSpec(kind="minicc", source=VICTIM_C, variant=variant,
                        name="victim")


def build_victim(security: str):
    """Build the C victim for *security* level and return (device, build).

    The EILID device runs the instrumented binary; baseline and CASU
    run the original (they have no EILID runtime to call into).
    """
    variant = "eilid" if security == "eilid" else "original"
    build = build_firmware(victim_firmware_spec(variant))
    device = build_device(build.program, security=security,
                          peripherals=victim_adc())
    return device, build
