"""ADC with deterministic per-channel stimulus schedules.

Writing CTL with the start bit latches a sample of the selected channel
into DATA.  Conversion is modelled as instantaneous (the real ~µs
conversion time is negligible at the granularity Table IV measures; the
applications poll anyway, so control flow is identical).
"""

from typing import Callable, Dict, Optional

from repro.peripherals import ports
from repro.peripherals.base import Peripheral
from repro.snapshot import state_counts, state_int


class AdcSchedule:
    """Deterministic sample source: value = f(channel, sample_index).

    Schedules are indexed by the per-channel conversion count, not by
    time: the N-th sample of a channel has the same value no matter when
    the firmware asks for it.  This keeps the original and instrumented
    variants of an application observationally identical even though the
    instrumented one runs slower -- the property the Table IV
    equivalence tests rely on.
    """

    def __init__(self, channels: Optional[Dict[int, Callable[[int], int]]] = None):
        self.channels = channels or {}

    def sample(self, channel, index):
        fn = self.channels.get(channel)
        if fn is not None:
            return fn(index) & 0x3FF
        phase = (index * 16 + 37 * channel) % 1024
        return phase if phase < 512 else 1023 - phase

    @staticmethod
    def constant(value):
        return lambda index: value

    @staticmethod
    def steps(period, values):
        """Piecewise-constant: hold each value for *period* samples."""

        def fn(index):
            return values[(index // period) % len(values)]

        return fn

    @staticmethod
    def ramp(period, low=0, high=1023):
        span = max(1, high - low)

        def fn(index):
            return low + (index % period) * span // max(1, period - 1)

        return fn


class Adc(Peripheral):
    name = "adc"

    def __init__(self, schedule: Optional[AdcSchedule] = None):
        super().__init__()
        self.schedule = schedule or AdcSchedule()
        self.ctl = 0
        self.data = 0
        self.sample_count = 0
        self.channel_counts: Dict[int, int] = {}

    def _register(self, bus):
        bus.register_peripheral_word(ports.ADC_CTL, read=lambda: self.ctl, write=self._write_ctl)
        bus.register_peripheral_word(ports.ADC_DATA, read=lambda: self.data)

    def _write_ctl(self, value):
        self.ctl = value & 0xFFFF
        if value & ports.ADC_START:
            channel = value & ports.ADC_CHANNEL_MASK
            index = self.channel_counts.get(channel, 0)
            self.channel_counts[channel] = index + 1
            self.data = self.schedule.sample(channel, index)
            self.sample_count += 1

    def reset(self):
        self.ctl = 0
        self.data = 0

    def _snapshot_extra(self):
        # Channel keys become strings through JSON; restore converts back.
        return {
            "ctl": self.ctl,
            "data": self.data,
            "sample_count": self.sample_count,
            "channel_counts": {str(ch): n for ch, n in self.channel_counts.items()},
        }

    def _restore_extra(self, state):
        self.ctl = state_int(state, "ctl")
        self.data = state_int(state, "data")
        self.sample_count = state_int(state, "sample_count")
        self.channel_counts = {
            int(ch): n
            for ch, n in state_counts(state, "channel_counts").items()}
