"""GPIO port: OUT drives external lines (logged), IN samples a schedule."""

from typing import Callable, Optional

from repro.peripherals import ports
from repro.peripherals.base import Peripheral
from repro.snapshot import state_int


class Gpio(Peripheral):
    name = "gpio"

    def __init__(self, input_schedule: Optional[Callable[[int], int]] = None):
        """*input_schedule* maps the current cycle to the IN register value."""
        super().__init__()
        self.out = 0
        self.direction = 0
        self.input_schedule = input_schedule or (lambda cycle: 0)

    def _register(self, bus):
        bus.register_peripheral_word(ports.GPIO_OUT, read=lambda: self.out, write=self._write_out)
        bus.register_peripheral_word(ports.GPIO_IN, read=self._read_in)
        bus.register_peripheral_word(
            ports.GPIO_DIR, read=lambda: self.direction, write=self._write_dir
        )

    def _write_out(self, value):
        self.out = value & 0xFFFF
        self.emit("gpio.out", self.out)

    def _write_dir(self, value):
        self.direction = value & 0xFFFF

    def _read_in(self):
        return self.input_schedule(self.now) & 0xFFFF

    def reset(self):
        self.out = 0
        self.direction = 0

    def _snapshot_extra(self):
        return {"out": self.out, "direction": self.direction}

    def _restore_extra(self, state):
        self.out = state_int(state, "out")
        self.direction = state_int(state, "direction")
