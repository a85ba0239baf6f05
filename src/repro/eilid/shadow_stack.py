"""Python reference model of the EILID shadow stack and call table.

The trusted ROM's behaviour (Fig. 9b) is specified here as an
executable model: tests drive the ROM on the simulator and this model
side-by-side and require identical outcomes (stored words, index
movement, violation reasons).  The attack oracles reuse it to predict
when a run *must* reset.
"""

from dataclasses import dataclass, field
from typing import List, Optional

from repro.casu.monitor import ViolationReason
from repro.eilid.policy import SecureMemoryPlan


@dataclass
class ShadowStackModel:
    plan: SecureMemoryPlan
    stack: List[int] = field(default_factory=list)
    table: List[int] = field(default_factory=list)

    # ---- helpers mirroring the paper's r5-indexed addressing ----------------

    @property
    def index(self):
        """Current value of the (modelled) r5 index register."""
        return len(self.stack)

    # ---- operations; return a ViolationReason or None -----------------------

    def init(self):
        self.stack.clear()
        self.table.clear()
        return None

    def store_ra(self, addr) -> Optional[ViolationReason]:
        if len(self.stack) >= self.plan.shadow_capacity_words:
            return ViolationReason.SHADOW_OVERFLOW
        self.stack.append(addr & 0xFFFF)
        return None

    def check_ra(self, addr) -> Optional[ViolationReason]:
        if not self.stack:
            return ViolationReason.SHADOW_UNDERFLOW
        expected = self.stack.pop()
        if expected != (addr & 0xFFFF):
            return ViolationReason.CFI_RETURN
        return None

    def store_rfi(self, ret_addr, status) -> Optional[ViolationReason]:
        if len(self.stack) + 2 > self.plan.shadow_capacity_words:
            return ViolationReason.SHADOW_OVERFLOW
        self.stack.append(ret_addr & 0xFFFF)
        self.stack.append(status & 0xFFFF)
        return None

    def check_rfi(self, ret_addr, status) -> Optional[ViolationReason]:
        if len(self.stack) < 2:
            return ViolationReason.SHADOW_UNDERFLOW
        expected_status = self.stack.pop()
        if expected_status != (status & 0xFFFF):
            self.stack.append(expected_status)
            return ViolationReason.CFI_RFI
        expected_ret = self.stack.pop()
        if expected_ret != (ret_addr & 0xFFFF):
            self.stack.append(expected_ret)
            return ViolationReason.CFI_RFI
        return None

    def store_ind(self, addr) -> Optional[ViolationReason]:
        if len(self.table) >= self.plan.table_capacity:
            return ViolationReason.TABLE_OVERFLOW
        self.table.append(addr & 0xFFFF)
        return None

    def check_ind(self, addr) -> Optional[ViolationReason]:
        if (addr & 0xFFFF) not in self.table:
            return ViolationReason.CFI_INDIRECT
        return None
