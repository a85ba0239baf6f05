"""Ultrasonic ranger front-end (HC-SR04 flavour).

Firmware writes TRIG; after a fixed transit delay the ECHO line goes
high for a width proportional to the scheduled target distance.  The
firmware measures the pulse width by polling ECHO and counting, exactly
like the Seeed UltrasonicRanger sketch the paper uses.
"""

from typing import Callable, Optional

from repro.peripherals import ports
from repro.peripherals.base import Peripheral
from repro.snapshot import state_int

TRANSIT_DELAY_CYCLES = 220


class Ultrasonic(Peripheral):
    name = "ultrasonic"

    def __init__(self, distance_schedule: Optional[Callable[[int], int]] = None):
        """*distance_schedule* maps the trigger index (0, 1, 2, ...) to the
        echo width in cycles -- indexed by measurement, not by time, so
        original and instrumented firmware see identical distances."""
        super().__init__()
        self.distance_schedule = distance_schedule or (
            lambda index: 400 + (index % 5) * 120
        )
        self.echo_start = None
        self.echo_end = None
        self.trigger_count = 0

    def _register(self, bus):
        bus.register_peripheral_word(ports.ULTRA_TRIG, write=self._write_trig)
        bus.register_peripheral_word(ports.ULTRA_ECHO, read=self._read_echo)

    def _write_trig(self, value):
        if value & 1:
            width = max(1, self.distance_schedule(self.trigger_count))
            self.echo_start = self.now + TRANSIT_DELAY_CYCLES
            self.echo_end = self.echo_start + width
            self.trigger_count += 1
            self.emit("ultra.trig", self.trigger_count)

    def _read_echo(self):
        if self.echo_start is None:
            return 0
        return 1 if self.echo_start <= self.now < self.echo_end else 0

    def reset(self):
        self.echo_start = None
        self.echo_end = None

    def _snapshot_extra(self):
        return {"echo_start": self.echo_start, "echo_end": self.echo_end,
                "trigger_count": self.trigger_count}

    def _restore_extra(self, state):
        self.echo_start = state_int(state, "echo_start", optional=True)
        self.echo_end = state_int(state, "echo_end", optional=True)
        self.trigger_count = state_int(state, "trigger_count")
