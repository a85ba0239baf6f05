"""16-bit up-counter with compare interrupt (Timer_A flavour).

CTL bit0 enables counting (one count per CPU cycle), bit1 enables the
compare interrupt.  When COUNT reaches CCR the counter wraps to zero
and, if enabled, vector 9 is requested.
"""

from repro.peripherals import ports
from repro.peripherals.base import NEVER, Peripheral


class Timer(Peripheral):
    name = "timer"

    def __init__(self):
        super().__init__()
        self.ctl = 0
        self.count = 0
        self.ccr = 0xFFFF
        self.fire_count = 0

    def _register(self, bus):
        bus.register_peripheral_word(ports.TIMER_CTL, read=lambda: self.ctl, write=self._write_ctl)
        bus.register_peripheral_word(
            ports.TIMER_COUNT, read=lambda: self.count, write=self._write_count
        )
        bus.register_peripheral_word(ports.TIMER_CCR, read=lambda: self.ccr, write=self._write_ccr)

    def _write_ctl(self, value):
        self.ctl = value & 0xFFFF

    def _write_count(self, value):
        self.count = value & 0xFFFF

    def _write_ccr(self, value):
        self.ccr = value & 0xFFFF

    def tick(self, cycles):
        super().tick(cycles)
        if not self.ctl & ports.TIMER_ENABLE:
            return
        self.count += cycles
        while self.count >= self.ccr and self.ccr > 0:
            self.count -= self.ccr
            self.fire_count += 1
            if self.ctl & ports.TIMER_IRQ_ENABLE:
                self.raise_irq(ports.TIMER_VECTOR)

    def next_due(self):
        # The compare match: COUNT reaches CCR after CCR - COUNT cycles.
        if self.ctl & ports.TIMER_ENABLE and self.ccr > 0:
            return self.now + self.ccr - self.count
        return NEVER

    def reset(self):
        self.ctl = 0
        self.count = 0
        self.ccr = 0xFFFF

    def _snapshot_extra(self):
        return {"ctl": self.ctl, "count": self.count, "ccr": self.ccr,
                "fire_count": self.fire_count}

    def _restore_extra(self, state):
        self.ctl = state["ctl"]
        self.count = state["count"]
        self.ccr = state["ccr"]
        self.fire_count = state["fire_count"]
