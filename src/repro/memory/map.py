"""Address-space layout of the simulated device.

The default layout mirrors a small openMSP430 configuration with the two
EILID additions: a secure ROM bank for EILIDsw/CASU update code and a
secure DMEM bank for the shadow stack and indirect-call table.

All bounds are configurable -- the paper notes the shadow-stack size is
"configurable based on memory constraints and software complexity".
"""

import enum
from dataclasses import dataclass, field
from typing import List

from repro.errors import LinkError


class RegionKind(enum.Enum):
    PERIPHERAL = "peripheral"
    DMEM = "dmem"  # RAM: writable, never executable (W xor X)
    SECURE_DMEM = "secure-dmem"  # shadow stack: EILIDsw-only access
    SECURE_ROM = "secure-rom"  # EILIDsw + CASU update routine
    PMEM = "pmem"  # flash: executable, writable only via update
    IVT = "ivt"  # interrupt vector table (top of PMEM)


@dataclass(frozen=True)
class Region:
    name: str
    kind: RegionKind
    start: int
    end: int  # inclusive

    def __contains__(self, addr):
        return self.start <= addr <= self.end

    @property
    def size(self):
        return self.end - self.start + 1

    def __str__(self):
        return f"{self.name}[0x{self.start:04x}..0x{self.end:04x}]"


# Default region bounds (bytes, inclusive).
PERIPH_START, PERIPH_END = 0x0010, 0x01FF
DMEM_START, DMEM_END = 0x0200, 0x09FF  # 2 KB RAM
SECURE_DMEM_START, SECURE_DMEM_END = 0x1000, 0x10FF  # 256 B (paper Sec. V)
SECURE_ROM_START, SECURE_ROM_END = 0xA000, 0xA7FF  # 2 KB trusted ROM
PMEM_START, PMEM_END = 0xE000, 0xFFDF  # ~8 KB flash
IVT_START, IVT_END = 0xFFE0, 0xFFFF  # 16 vectors
RESET_VECTOR = 0xFFFE
NUM_VECTORS = 16


# Bits of the per-address attribute table (one byte per address).
F_EXEC = 0x01  # PMEM or secure ROM: instruction fetch allowed
F_PMEM = 0x02  # PMEM or IVT: immutable outside update sessions
F_SROM = 0x04
F_SDMEM = 0x08
F_DMEM = 0x10
F_PERIPH = 0x20

_KIND_FLAGS = {
    RegionKind.PERIPHERAL: F_PERIPH,
    RegionKind.DMEM: F_DMEM,
    RegionKind.SECURE_DMEM: F_SDMEM,
    RegionKind.SECURE_ROM: F_SROM | F_EXEC,
    RegionKind.PMEM: F_PMEM | F_EXEC,
    RegionKind.IVT: F_PMEM,
}


@dataclass
class MemoryLayout:
    """The set of regions plus convenience predicates used by monitors.

    The predicates answer from a precomputed 64 KB attribute table,
    ``flags`` (one byte of ``F_*`` bits per address), rather than a
    region scan; the hardware monitor reads the table directly on its
    per-step hot path.  The region list is fixed at construction time.
    """

    regions: List[Region] = field(default_factory=list)

    def __post_init__(self):
        flags = bytearray(0x10000)
        for region in self.regions:
            bits = _KIND_FLAGS[region.kind]
            span = flags[region.start:region.end + 1]
            if any(span):  # overlapping regions: merge byte-wise
                for addr in range(region.start, region.end + 1):
                    flags[addr] |= bits
            else:
                flags[region.start:region.end + 1] = bytes([bits]) * len(span)
        self.flags = flags
        self._translated = {}

    def translate_flags(self, table: bytes) -> bytes:
        """``flags`` mapped byte by byte through the 256-byte *table*
        (``bytes.translate``), built once per layout and table: devices
        of one program share their layout, so a fleet pays once."""
        derived = self._translated.get(table)
        if derived is None:
            derived = self._translated[table] = bytes(self.flags.translate(table))
        return derived

    @staticmethod
    def default(shadow_stack_bytes=256):
        """Build the standard EILID layout.

        *shadow_stack_bytes* resizes the secure DMEM bank (the paper's
        configurability knob); it must be a positive multiple of 2.
        """
        if shadow_stack_bytes <= 0 or shadow_stack_bytes % 2:
            raise LinkError("shadow stack size must be a positive even byte count")
        secure_end = SECURE_DMEM_START + shadow_stack_bytes - 1
        if secure_end >= SECURE_ROM_START:
            raise LinkError("shadow stack overlaps secure ROM")
        return MemoryLayout(
            regions=[
                Region("peripherals", RegionKind.PERIPHERAL, PERIPH_START, PERIPH_END),
                Region("dmem", RegionKind.DMEM, DMEM_START, DMEM_END),
                Region(
                    "secure-dmem",
                    RegionKind.SECURE_DMEM,
                    SECURE_DMEM_START,
                    secure_end,
                ),
                Region("secure-rom", RegionKind.SECURE_ROM, SECURE_ROM_START, SECURE_ROM_END),
                Region("pmem", RegionKind.PMEM, PMEM_START, PMEM_END),
                Region("ivt", RegionKind.IVT, IVT_START, IVT_END),
            ]
        )

    # ---- lookup ----------------------------------------------------------

    def region_named(self, name) -> Region:
        for region in self.regions:
            if region.name == name:
                return region
        raise KeyError(f"no region named {name!r}")

    # ---- predicates used by the hardware monitors -------------------------

    def in_pmem(self, addr):
        return 0 <= addr <= 0xFFFF and self.flags[addr] & F_PMEM != 0

    def in_secure_rom(self, addr):
        return 0 <= addr <= 0xFFFF and self.flags[addr] & F_SROM != 0

    def in_secure_dmem(self, addr):
        return 0 <= addr <= 0xFFFF and self.flags[addr] & F_SDMEM != 0

    def in_dmem(self, addr):
        return 0 <= addr <= 0xFFFF and self.flags[addr] & F_DMEM != 0

    def in_peripheral(self, addr):
        return 0 <= addr <= 0xFFFF and self.flags[addr] & F_PERIPH != 0

    # ---- common handles ----------------------------------------------------

    @property
    def dmem(self):
        return self.region_named("dmem")

    @property
    def secure_dmem(self):
        return self.region_named("secure-dmem")

    @property
    def secure_rom(self):
        return self.region_named("secure-rom")

    @property
    def pmem(self):
        return self.region_named("pmem")

    @property
    def ivt(self):
        return self.region_named("ivt")

    @property
    def stack_top(self):
        """Initial stack pointer: one past the end of DMEM (grows down)."""
        return self.dmem.end + 1

    def vector_address(self, index):
        if not 0 <= index < NUM_VECTORS:
            raise LinkError(f"vector index {index} out of range")
        return IVT_START + 2 * index
