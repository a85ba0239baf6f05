"""UART: TX logging, RX injection queue, status register, RX interrupt.

The RX side takes a schedule of ``(cycle, byte)`` pairs; once the device
clock passes a pair's cycle the byte becomes readable (and vector 10 is
raised if interrupts were requested via :attr:`rx_irq_enabled`).
"""

from collections import deque
from typing import Iterable, Tuple

from repro.peripherals import ports
from repro.peripherals.base import NEVER, Peripheral
from repro.snapshot import state_list, state_rows


def _queue(items):
    """A deque of *items*, or the empty tuple when there are none."""
    return deque(items) if items else ()


class Uart(Peripheral):
    name = "uart"
    _log_attrs = ("tx_log",)

    def __init__(self, rx_schedule: Iterable[Tuple[int, int]] = (), rx_irq_enabled=False):
        super().__init__()
        # Both queues are the empty tuple until they hold a byte: most
        # devices never receive one, and an empty deque costs ~600 B.
        self._rx_schedule = _queue(sorted(rx_schedule))
        self._rx_fifo = ()
        self.rx_irq_enabled = rx_irq_enabled
        self.tx_log = []

    def _register(self, bus):
        bus.register_peripheral_word(ports.UART_TX, write=self._write_tx)
        bus.register_peripheral_word(ports.UART_RX, read=self._read_rx)
        bus.register_peripheral_word(ports.UART_STATUS, read=self._read_status)

    def _write_tx(self, value):
        byte = value & 0xFF
        self.tx_log.append((self.now, byte))
        self.emit("uart.tx", byte)

    def _read_rx(self):
        if self._rx_fifo:
            return self._rx_fifo.popleft()
        return 0

    def push_rx(self, byte):
        """Put *byte* in the RX FIFO, raising no interrupt (``tick``
        raises it for a scheduled byte; the fault injector pushes one)."""
        if not self._rx_fifo:
            self._rx_fifo = deque()
        self._rx_fifo.append(byte & 0xFF)

    def _read_status(self):
        status = ports.UART_TX_READY
        if self._rx_fifo:
            status |= ports.UART_RX_AVAILABLE
        return status

    def tick(self, cycles):
        super().tick(cycles)
        while self._rx_schedule and self._rx_schedule[0][0] <= self.now:
            _, byte = self._rx_schedule.popleft()
            self.push_rx(byte)
            if self.rx_irq_enabled:
                self.raise_irq(ports.UART_VECTOR)

    def next_due(self):
        return self._rx_schedule[0][0] if self._rx_schedule else NEVER

    def reset(self):
        self._rx_fifo = ()

    def _snapshot_extra(self):
        return {
            "rx_schedule": [list(pair) for pair in self._rx_schedule],
            "rx_fifo": list(self._rx_fifo),
            "rx_irq_enabled": self.rx_irq_enabled,
            "tx_log": [list(pair) for pair in self.tx_log],
        }

    def _restore_extra(self, state):
        self._rx_schedule = _queue(state_rows(state, "rx_schedule", int, int))
        self._rx_fifo = _queue(state_list(state, "rx_fifo", int))
        self.rx_irq_enabled = bool(state["rx_irq_enabled"])
        self.tx_log[:] = state_rows(state, "tx_log", int, int)

    @property
    def tx_bytes(self):
        return bytes(byte for _, byte in self.tx_log)
