"""EILID configuration: protected properties, reserved registers, and
the secure-memory plan (shadow stack + indirect-call table layout).
"""

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import InstrumentationError
from repro.memory.map import MemoryLayout

# Paper Table III: registers reserved for EILID.
RESERVED_REGISTERS: Tuple[Tuple[str, str], ...] = (
    ("r4", "Used as an argument of S_EILID_init() (function selector in the entry section)"),
    ("r5", "Used as a pointer to the shadow stack's current index"),
    ("r6, r7", "Used as an argument of other S_EILID functions"),
)

RESERVED_REGISTER_NUMBERS = (4, 5, 6, 7)


@dataclass(frozen=True)
class SecureMemoryPlan:
    """Layout of the secure DMEM bank.

    The bank holds the indirect-call function table (a count word plus
    ``table_capacity`` entries) followed by the shadow stack.  The paper
    allocates 256 bytes and notes the size is configurable.
    """

    table_count_addr: int
    table_base: int
    table_capacity: int
    shadow_base: int
    shadow_capacity_words: int

    @staticmethod
    def from_layout(layout: MemoryLayout, table_capacity: int = 16):
        region = layout.secure_dmem
        table_count_addr = region.start
        table_base = region.start + 2
        shadow_base = table_base + 2 * table_capacity
        shadow_capacity = (region.end + 1 - shadow_base) // 2
        if shadow_capacity < 4:
            raise InstrumentationError(
                "secure DMEM too small for the table + shadow stack split"
            )
        return SecureMemoryPlan(
            table_count_addr=table_count_addr,
            table_base=table_base,
            table_capacity=table_capacity,
            shadow_base=shadow_base,
            shadow_capacity_words=shadow_capacity,
        )


@dataclass
class EilidPolicy:
    """Which CFI properties are enforced and how strict the tooling is."""

    protect_returns: bool = True  # P1: return-address integrity
    protect_interrupts: bool = True  # P2: return-from-interrupt integrity
    protect_indirect_calls: bool = True  # P3: indirect-call integrity
    fail_on_indirect_jumps: bool = True  # the -fno-jump-tables stance
    repair_reserved_registers: bool = True  # auto push/pop around r4-r7 use
    table_capacity: int = 16
    # Ablation (DESIGN.md Sec. 5): resolve return addresses with
    # assembler labels instead of the paper's numeric .lst addresses.
    # Collapses the Fig. 2 pipeline from three builds to one.
    use_symbolic_return_labels: bool = False

    def plan(self, layout: MemoryLayout) -> SecureMemoryPlan:
        return SecureMemoryPlan.from_layout(layout, self.table_capacity)

    @staticmethod
    def full():
        return EilidPolicy()

    @staticmethod
    def backward_only():
        """P1+P2 only -- used by ablation benchmarks."""
        return EilidPolicy(protect_indirect_calls=False)

    def table_iii_rows(self) -> List[Dict[str, str]]:
        return [
            {"registers": regs, "description": desc} for regs, desc in RESERVED_REGISTERS
        ]
