"""Test-harness ports: completion signalling and the violation trigger.

DONE is the cooperative end-of-workload marker the applications write
when their scripted scenario completes; the device run loop stops there
and the cycle count becomes the Table IV "running time".

VIOLATION is the EILID reset trigger: the trusted ROM writes a reason
code here when a CFI check fails, and the hardware monitor converts the
write into a device reset.  Application code writing to it is itself a
violation (only secure-ROM code may touch it) -- enforced by the
monitor, not by this peripheral.
"""

from repro.peripherals import ports
from repro.peripherals.base import Peripheral
from repro.snapshot import state_int, state_rows


class HarnessPorts(Peripheral):
    name = "harness"
    _log_attrs = ("violation_writes",)

    def __init__(self):
        super().__init__()
        self.done = False
        self.done_value = None
        self.violation_writes = []

    def _register(self, bus):
        bus.register_peripheral_word(ports.DONE_PORT, write=self._write_done)
        bus.register_peripheral_word(ports.VIOLATION_PORT, write=self._write_violation)

    def _write_done(self, value):
        self.done = True
        self.done_value = value & 0xFFFF
        self.emit("harness.done", value)

    def _write_violation(self, value):
        self.violation_writes.append((self.now, value & 0xFFFF))
        self.emit("harness.violation", value)

    def void_since(self, cycle):
        # A voided DONE write must not latch: recompute the latch from
        # the DONE writes that remain.
        super().void_since(cycle)
        done = self.event_values("harness.done")
        self.done = bool(done)
        self.done_value = done[-1] if done else None

    def reset(self):
        # done latches across reset so the harness can observe that the
        # workload finished before a late violation, if any.
        pass

    def _snapshot_extra(self):
        return {
            "done": self.done,
            "done_value": self.done_value,
            "violation_writes": [list(pair) for pair in self.violation_writes],
        }

    def _restore_extra(self, state):
        self.done = bool(state["done"])
        self.done_value = state_int(state, "done_value", optional=True)
        self.violation_writes[:] = state_rows(state, "violation_writes",
                                              int, int)
