"""Interrupt controller: pending lines, priority, vector lookup.

MSP430 interrupt priority grows with the vector address; the reset
vector (index 15) is handled by the device, not by this controller.
Lines are edge-style: a request stays pending until the CPU accepts it,
at which point it auto-clears (peripherals re-raise as needed).

The pending lines are the bits of :attr:`InterruptController.lines`
(bit *i* is vector *i*), so the CPU's per-step IRQ gate is one truth
test of an int; the reset bit is never set.
"""

from repro.errors import MemoryAccessError
from repro.memory.map import NUM_VECTORS

RESET_VECTOR_INDEX = 15


class InterruptController:
    def __init__(self):
        self.lines = 0

    def request(self, index):
        if not 0 <= index < NUM_VECTORS:
            raise MemoryAccessError(f"interrupt index {index} out of range")
        if index == RESET_VECTOR_INDEX:
            raise MemoryAccessError("reset is requested through the device, not the IC")
        self.lines |= 1 << index

    def clear_all(self):
        self.lines = 0

    def pending_index(self):
        """Highest-priority pending vector index, or ``None``."""
        return self.lines.bit_length() - 1 if self.lines else None

    def accept(self):
        """Pop the highest-priority pending interrupt (CPU side)."""
        index = self.pending_index()
        if index is not None:
            self.lines &= ~(1 << index)
        return index

    # ---- snapshot/restore (see repro.snapshot) ---------------------------

    def snapshot_state(self):
        return {"pending": [bool(self.lines >> index & 1)
                            for index in range(NUM_VECTORS)]}

    def restore_state(self, state):
        pending = state["pending"]
        if not isinstance(pending, list) or len(pending) != NUM_VECTORS:
            raise ValueError(
                f"interrupt snapshot needs a list of {NUM_VECTORS} lines, "
                f"got {pending!r}")
        self.lines = sum(1 << index for index, line in enumerate(pending)
                         if line and index != RESET_VECTOR_INDEX)
