"""Character LCD controller (HD44780 flavour).

Command and data writes are logged; each write makes the controller
busy for a fixed number of cycles, and well-behaved firmware polls the
STATUS busy flag before the next write -- that polling loop is a large
share of the LcdSensor application's run time, which is why its
instrumentation overhead is the lowest in Table IV.
"""

from repro.peripherals import ports
from repro.peripherals.base import Peripheral
from repro.snapshot import state_int, state_list

BUSY_CYCLES_COMMAND = 120
BUSY_CYCLES_DATA = 40


class Lcd(Peripheral):
    name = "lcd"
    _log_attrs = ("command_log", "data_log")

    def __init__(self):
        super().__init__()
        self.busy_until = 0
        self.command_log = []
        self.data_log = []

    def _register(self, bus):
        bus.register_peripheral_word(ports.LCD_CMD, write=self._write_cmd)
        bus.register_peripheral_word(ports.LCD_DATA, write=self._write_data)
        bus.register_peripheral_word(ports.LCD_STATUS, read=self._read_status)

    def _write_cmd(self, value):
        self.command_log.append((self.now, value & 0xFF))
        self.emit("lcd.cmd", value & 0xFF)
        self.busy_until = self.now + BUSY_CYCLES_COMMAND

    def _write_data(self, value):
        self.data_log.append((self.now, value & 0xFF))
        self.emit("lcd.data", value & 0xFF)
        self.busy_until = self.now + BUSY_CYCLES_DATA

    def _read_status(self):
        return ports.LCD_BUSY if self.now < self.busy_until else 0

    def reset(self):
        self.busy_until = 0

    def _snapshot_extra(self):
        return {
            "busy_until": self.busy_until,
            "command_log": [list(pair) for pair in self.command_log],
            "data_log": [list(pair) for pair in self.data_log],
        }

    def _restore_extra(self, state):
        self.busy_until = state_int(state, "busy_until")
        self.command_log[:] = [tuple(pair)
                               for pair in state_list(state, "command_log")]
        self.data_log[:] = [tuple(pair)
                            for pair in state_list(state, "data_log")]

    @property
    def display_bytes(self):
        return bytes(byte for _, byte in self.data_log)
