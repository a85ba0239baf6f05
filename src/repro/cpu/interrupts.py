"""Interrupt controller: pending lines, priority, vector lookup.

MSP430 interrupt priority grows with the vector address; the reset
vector (index 15) is handled by the device, not by this controller.
Lines are edge-style: a request stays pending until the CPU accepts it,
at which point it auto-clears (peripherals re-raise as needed).
"""

from repro.errors import MemoryAccessError
from repro.memory.map import NUM_VECTORS

RESET_VECTOR_INDEX = 15


class InterruptController:
    def __init__(self):
        self._pending = [False] * NUM_VECTORS

    def request(self, index):
        if not 0 <= index < NUM_VECTORS:
            raise MemoryAccessError(f"interrupt index {index} out of range")
        if index == RESET_VECTOR_INDEX:
            raise MemoryAccessError("reset is requested through the device, not the IC")
        self._pending[index] = True

    def clear(self, index):
        self._pending[index] = False

    def clear_all(self):
        self._pending = [False] * NUM_VECTORS

    def pending_index(self):
        """Highest-priority pending vector index, or ``None``."""
        for index in range(NUM_VECTORS - 2, -1, -1):
            if self._pending[index]:
                return index
        return None

    def accept(self):
        """Pop the highest-priority pending interrupt (CPU side)."""
        index = self.pending_index()
        if index is not None:
            self._pending[index] = False
        return index

    @property
    def any_pending(self):
        # One C-level scan; the reset line is never pending.
        return True in self._pending

    # ---- snapshot/restore (see repro.snapshot) ---------------------------

    def snapshot_state(self):
        return {"pending": list(self._pending)}

    def restore_state(self, state):
        pending = state["pending"]
        if len(pending) != NUM_VECTORS:
            raise MemoryAccessError(
                f"interrupt snapshot has {len(pending)} lines, "
                f"expected {NUM_VECTORS}")
        self._pending = [bool(line) for line in pending]
        self._pending[RESET_VECTOR_INDEX] = False
