"""Hardware monitor: per-cycle checks over CPU bus signals.

EILID's monitor is combinational logic beside the core: every rule
looks at the same bus signals in the same cycle, and the violation
wires are ORed into one reset line.  :meth:`HardwareMonitor.observe`
has the same shape -- one pass over a :class:`repro.cpu.StepRecord`'s
accesses, each answered from the layout's 64 KB attribute table.  When
several armed rules fire on one step, the verdict is the first in this
priority order:

1. **W^X** -- no instruction fetch outside executable regions (PMEM +
   secure ROM); blocks code injection.
2. **PMEM guard** -- no PMEM/IVT write unless an authenticated update
   session is open and the write is issued from secure ROM.
3. **secure-RAM guard** -- the shadow-stack bank is accessible only
   while the PC is inside secure ROM (the EILID hardware extension).
4. **ROM atomicity** -- secure ROM is entered only at declared entry
   points, left only from the declared exit ranges, and never
   interrupted.
5. **violation port** -- a write from ROM is a failed EILIDsw CFI check
   (the value is its reason code); any *untrusted* write to the port
   is itself an attack.
6. **illegal opcode** -- undefined opcodes reset.

Within one rule, the first offending access names the address.  The
verified per-rule FSMs in :mod:`repro.verification.properties` model
the same rules one at a time.
"""

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.cpu.core import StepKind
from repro.memory.bus import AccessKind
from repro.memory.map import F_EXEC, F_PMEM, F_SDMEM, F_SROM
from repro.peripherals.ports import VIOLATION_PORT

_FETCH = AccessKind.FETCH
_WRITE = AccessKind.WRITE
_INTERRUPT = StepKind.INTERRUPT
_ILLEGAL = StepKind.ILLEGAL


class ViolationReason(enum.Enum):
    W_XOR_X = "exec-from-nonexecutable"
    PMEM_WRITE = "pmem-write-outside-update"
    SECURE_RAM_ACCESS = "secure-ram-access-from-untrusted-code"
    ROM_ENTRY = "rom-entered-off-entry-point"
    ROM_EXIT = "rom-left-outside-exit-section"
    IRQ_IN_ROM = "interrupt-inside-rom"
    ILLEGAL_INSN = "illegal-instruction"
    SECURE_PORT = "violation-port-write-from-untrusted-code"
    # Reason codes written by EILIDsw to the violation port:
    CFI_RETURN = "cfi-return-address-mismatch"
    CFI_RFI = "cfi-interrupt-context-mismatch"
    CFI_INDIRECT = "cfi-illegal-indirect-target"
    SHADOW_OVERFLOW = "shadow-stack-overflow"
    SHADOW_UNDERFLOW = "shadow-stack-underflow"
    TABLE_OVERFLOW = "function-table-overflow"
    BAD_SELECTOR = "bad-rom-selector"


# EILIDsw reason-code wire values -> reasons (must match trusted_sw.py).
SW_REASON_CODES = {
    1: ViolationReason.CFI_RETURN,
    2: ViolationReason.CFI_RFI,
    3: ViolationReason.CFI_INDIRECT,
    4: ViolationReason.SHADOW_OVERFLOW,
    5: ViolationReason.SHADOW_UNDERFLOW,
    6: ViolationReason.TABLE_OVERFLOW,
    7: ViolationReason.BAD_SELECTOR,
}


@dataclass(frozen=True)
class Violation:
    reason: ViolationReason
    pc: int
    addr: Optional[int] = None
    detail: str = ""

    def __str__(self):
        where = f" addr=0x{self.addr:04x}" if self.addr is not None else ""
        return f"{self.reason.value} at pc=0x{self.pc:04x}{where} {self.detail}".rstrip()


@dataclass(frozen=True)
class RomConfig:
    """Trusted-ROM shape the atomicity monitor enforces."""

    entry_points: Tuple[int, ...] = ()
    exit_ranges: Tuple[Tuple[int, int], ...] = ()  # inclusive address ranges

    def in_exit_range(self, addr):
        return any(start <= addr <= end for start, end in self.exit_ranges)


@dataclass
class MonitorPolicy:
    """Which rules are armed.

    ``casu()`` is the base active-RoT configuration; ``eilid()`` adds
    the secure shadow-stack bank guard and the CFI violation port.
    """

    w_xor_x: bool = True
    pmem_guard: bool = True
    rom_atomicity: bool = True
    secure_ram_guard: bool = False
    violation_port: bool = False
    illegal_insn: bool = True

    @staticmethod
    def casu():
        return MonitorPolicy()

    @staticmethod
    def eilid():
        return MonitorPolicy(secure_ram_guard=True, violation_port=True)


class HardwareMonitor:
    """The armed rules of a :class:`MonitorPolicy`, checked in one pass."""

    def __init__(self, layout, policy: Optional[MonitorPolicy] = None,
                 rom_config: Optional[RomConfig] = None):
        self.layout = layout
        self.policy = policy or MonitorPolicy.casu()
        self.rom_config = rom_config or RomConfig()
        self.update_session_open = False
        policy = self.policy
        # Arming is fixed at construction, like the synthesized rules:
        # region bits that make a data access illegal from untrusted
        # code, and which rules are armed at all.
        self._pmem_bits = F_PMEM if policy.pmem_guard else 0
        self._sram_bits = F_SDMEM if policy.secure_ram_guard else 0
        self._port = VIOLATION_PORT if policy.violation_port else -1
        self._w_xor_x = policy.w_xor_x
        self._atomic = policy.rom_atomicity
        self._illegal = policy.illegal_insn
        self._flags = layout.flags

    def observe(self, step) -> Optional[Violation]:
        """Check one CPU step; the highest-priority violation wins."""
        flags = self._flags
        pc = step.pc
        trusted = flags[pc] & F_SROM
        if trusted:
            read_guard = 0
            write_guard = 0 if self.update_session_open else self._pmem_bits
        else:
            read_guard = self._sram_bits
            write_guard = read_guard | self._pmem_bits
        port = self._port
        w_xor_x = self._w_xor_x
        pmem_hit = sram_hit = port_hit = None
        for access in step.accesses:
            kind = access.kind
            addr = access.addr
            if kind is _FETCH:
                if w_xor_x and not flags[addr] & F_EXEC:
                    return Violation(ViolationReason.W_XOR_X, pc, addr)
                continue
            if kind is _WRITE:
                bits = flags[addr] & write_guard
                if addr == port and port_hit is None:
                    port_hit = access
            else:
                bits = flags[addr] & read_guard
            if bits:
                if bits & F_PMEM and pmem_hit is None:
                    pmem_hit = addr
                if bits & F_SDMEM and sram_hit is None:
                    sram_hit = addr
        if pmem_hit is not None:
            return Violation(ViolationReason.PMEM_WRITE, pc, pmem_hit)
        if sram_hit is not None:
            return Violation(ViolationReason.SECURE_RAM_ACCESS, pc, sram_hit)
        if self._atomic:
            next_pc = step.next_pc
            if trusted:
                if step.kind is _INTERRUPT:
                    return Violation(ViolationReason.IRQ_IN_ROM, pc)
                if (not flags[next_pc] & F_SROM
                        and not self.rom_config.in_exit_range(pc)):
                    return Violation(ViolationReason.ROM_EXIT, pc, next_pc)
            elif (flags[next_pc] & F_SROM
                  and next_pc not in self.rom_config.entry_points):
                return Violation(ViolationReason.ROM_ENTRY, pc, next_pc)
        if port_hit is not None:
            if trusted:
                reason = SW_REASON_CODES.get(port_hit.value,
                                             ViolationReason.BAD_SELECTOR)
                return Violation(reason, pc, detail="(EILIDsw check failed)")
            return Violation(ViolationReason.SECURE_PORT, pc, port_hit.addr)
        if self._illegal and step.kind is _ILLEGAL:
            return Violation(ViolationReason.ILLEGAL_INSN, pc,
                             detail=f"word=0x{step.illegal_word:04x}")
        return None

    def reset(self):
        self.update_session_open = False

    # ---- update session control (driven by the update engine) -----------

    def open_update_session(self):
        if not self.policy.pmem_guard:
            raise RuntimeError("monitor has no PMEM guard to unlock")
        self.update_session_open = True

    def close_update_session(self):
        self.update_session_open = False

    # ---- snapshot/restore (see repro.snapshot) -----------------------

    def snapshot_state(self):
        """The monitor's only mutable state: the PMEM-guard session."""
        return {"update_session_open": self.update_session_open}

    def restore_state(self, state):
        self.update_session_open = (self.policy.pmem_guard
                                    and bool(state["update_session_open"]))
