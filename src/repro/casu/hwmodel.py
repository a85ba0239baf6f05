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

The rule blocks are derived, one per row of the monitor's rule table
(:data:`repro.casu.monitor.RULES`) the EILID policy arms: the
comparators and state bits of the signals the row reads (a shared
signal is decoded once, in its first row), plus one enable gate per
policy field.  Only the reset latch and the bank select are declared.

The comparison series (HAFIX, HCFI, Tiny-CFA, ACFA, LO-FAT, LiteHAX)
are published numbers encoded as a reference dataset in
:mod:`repro.eval.paper_data`.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.casu.monitor import RULES, SIGNALS, MonitorPolicy

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


# The blocks that are not rules: the reset/diagnostic latch (16-bit
# faulting address + 4-bit reason + the latch driving the reset wire)
# and the secure-bank chip select shared with the bus fabric.
NON_RULE_BLOCKS = (
    MonitorBlock("reset-latch", latch_bits=21, fsm_state_bits=1, glue=2),
    MonitorBlock("bank-select", range_comparators=1, latch_bits=9, glue=1),
)


def eilid_monitor_blocks() -> List[MonitorBlock]:
    """The EILID hardware extension over openMSP430, block by block:
    one per rule the EILID policy arms, then :data:`NON_RULE_BLOCKS`."""
    policy = MonitorPolicy.eilid()
    signals = {signal.name: signal for signal in SIGNALS}
    decoded, enabled = set(), set()
    blocks = []
    for rule in RULES:
        if not getattr(policy, rule.arm):
            continue
        new = [signals[name] for name in rule.reads if name not in decoded]
        decoded.update(rule.reads)
        blocks.append(MonitorBlock(
            rule.name,
            range_comparators=sum(s.range_comparators for s in new),
            eq_comparators=sum(s.eq_comparators for s in new),
            fsm_state_bits=sum(s.state_bits for s in new),
            glue=0 if rule.arm in enabled else 1))
        enabled.add(rule.arm)
    return blocks + list(NON_RULE_BLOCKS)


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
