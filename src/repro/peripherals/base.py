"""Peripheral base class and the clock that drives peripherals."""

from dataclasses import dataclass
from typing import Iterable, List

from repro.snapshot import state_int, state_rows

# A deadline later than any cycle a device reaches.
NEVER = float("inf")


@dataclass(frozen=True)
class IoEvent:
    """One externally observable output event."""

    cycle: int
    port: str
    value: int


class Peripheral:
    """Base: register handlers on the bus, advance with CPU cycles.

    ``self.now`` is the device cycle the peripheral has been caught up
    to by :meth:`tick`; a :class:`PeripheralClock` calls it lazily, so
    ``now`` is exact only where the package docstring says (register
    handlers see the accessing step's start cycle).
    """

    name = "peripheral"

    def __init__(self):
        self.now = 0
        self.events: List[IoEvent] = []
        self._ic = None

    def attach(self, bus, interrupt_controller=None):
        self._ic = interrupt_controller
        self._register(bus)

    def _register(self, bus):
        raise NotImplementedError

    def tick(self, cycles):
        """Catch up by *cycles* CPU cycles elapsed since ``now``."""
        self.now += cycles

    def next_due(self):
        """The cycle a tick next raises an IRQ or delivers input at."""
        return NEVER

    def reset(self):
        """Device reset: clear transient state but keep the event log.

        Event logs survive reset on purpose: they are the experiment's
        observation channel, not device state.
        """

    # Additional list-valued logs of ``(cycle, value)`` entries
    # (subclasses extend), voided along with the events.
    _log_attrs = ()

    def void_since(self, cycle):
        """Drop the entries of a voided step that started at *cycle*:
        its handlers stamped them *cycle*, and every earlier step ended
        by then, so they are the trailing entries stamped >= *cycle*."""
        events = self.events
        while events and events[-1].cycle >= cycle:
            events.pop()
        for attr in self._log_attrs:
            log = getattr(self, attr)
            while log and log[-1][0] >= cycle:
                log.pop()

    # ---- full-state snapshot/restore (see repro.snapshot) ------------------
    #
    # The peripheral's complete mutable state as JSON types, so a restored
    # device resumes mid-transaction (latched reads, pending ticks, the
    # DONE latch) without replaying or dropping events.  Construction-time
    # configuration -- stimulus schedules, callables -- is NOT state: the
    # restore target is built with the same configuration.

    def snapshot_state(self):
        state = {
            "now": self.now,
            "events": [[e.cycle, e.port, e.value] for e in self.events],
        }
        state.update(self._snapshot_extra())
        return state

    def restore_state(self, state):
        self.now = state_int(state, "now")
        self.events[:] = [IoEvent(*row)
                          for row in state_rows(state, "events", int, str, int)]
        self._restore_extra(state)

    def _snapshot_extra(self):
        """Subclass hook: additional mutable fields, JSON-safe."""
        return {}

    def _restore_extra(self, state):
        """Subclass hook: adopt the fields _snapshot_extra captured."""

    def emit(self, port, value):
        self.events.append(IoEvent(self.now, port, value & 0xFFFF))

    def raise_irq(self, vector):
        if self._ic is not None:
            self._ic.request(vector)

    # ---- trace helpers -----------------------------------------------------

    def event_values(self, port=None):
        return [e.value for e in self.events if port is None or e.port == port]


class PeripheralClock:
    """The device cycle counter, ticking peripherals by deadline.

    The device adds each step's cycles to ``cycle`` and calls
    :meth:`catch_up` once ``cycle`` reaches ``due``, the earliest
    :meth:`Peripheral.next_due`, so interrupts are raised on the same
    step as ticking every step would.  The bus calls :meth:`before_io`
    ahead of any register handler.  Peripheral time never runs
    backwards: winding ``cycle`` back leaves ``now`` until it is passed.
    The clock holds nothing that holds the bus, so the bus keeping
    :meth:`before_io` adds no reference cycle.
    """

    __slots__ = ("cycle", "due", "peripherals")

    def __init__(self, peripherals: Iterable[Peripheral]):
        self.cycle = 0
        self.due = 0
        self.peripherals = tuple(peripherals)

    def catch_up(self):
        """Tick every peripheral up to ``cycle``; plan the next deadline."""
        now = self.cycle
        for peripheral in self.peripherals:
            if peripheral.now < now:
                peripheral.tick(now - peripheral.now)
        self.due = min([p.next_due() for p in self.peripherals])

    def before_io(self):
        """Catch up for a register handler, which may move a deadline (a
        timer reprogrammed): plan again when the step ends."""
        self.catch_up()
        self.due = self.cycle
