"""The assembled device: CPU + memory + peripherals + hardware monitor.

Three security levels, matching the attack matrix in DESIGN.md:

* ``"none"``  -- bare MCU, no monitor (the victim baseline);
* ``"casu"``  -- CASU active RoT (software immutability, no CFI);
* ``"eilid"`` -- CASU plus the EILID extension (secure shadow-stack
  bank, CFI violation port).

A monitor violation voids the violating step's memory writes and
peripheral log entries (hardware resets preempt commit), records the
event, and resets the MCU -- the paper's "detects control-flow
violation and triggers a reset".  Steps commit on success: nothing is
saved before a step; the void works from the step's own records.

A device that nothing runs on can be parked (:meth:`Device.park`): its
bus keeps only the pages that differ from the program's image, and
every entry point that touches memory unparks it first.  The fleet
parks its replicas between exchanges; no other device parks.
"""

import hashlib
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.casu.monitor import (
    HardwareMonitor,
    MonitorPolicy,
    Violation,
    ViolationReason,
)
from repro.cfg.trace import BranchTraceRecorder, TraceSnapshot, empty_snapshot
from repro.snapshot import (
    WIRE_VERSION,
    DeviceSnapshot,
    SnapshotError,
    memory_delta,
    state_counts,
    state_dict,
    state_int,
    state_list,
    state_str,
)
from repro.casu.update import (
    STAGING_HEADER_WORDS,
    UpdateEngine,
    UpdateKey,
    UpdateResult,
    UpdateStatus,
)
from repro.cpu import Cpu, InterruptController
from repro.cpu.core import StepKind
from repro.eilid.trusted_sw import AttestationReport, TrustedSoftware
from repro.errors import UpdateError
from repro.isa.registers import PC
from repro.memory.bus import Bus
from repro.obs.metrics import METRICS
from repro.peripherals import (
    Adc,
    Gpio,
    HarnessPorts,
    Lcd,
    PeripheralClock,
    Timer,
    Uart,
    Ultrasonic,
)

SECURITY_LEVELS = ("none", "casu", "eilid")

_ILLEGAL = StepKind.ILLEGAL
# The loop bound standing for "no bound" (max_cycles/max_steps None).
_UNBOUNDED = 1 << 62


@dataclass
class DeviceEvent:
    kind: str  # "violation" | "reset"
    cycle: int
    violation: Optional[Violation] = None

    def __str__(self):
        body = f": {self.violation}" if self.violation else ""
        return f"[{self.cycle}] {self.kind}{body}"


def _event_to_doc(event: DeviceEvent) -> dict:
    doc = {"kind": event.kind, "cycle": event.cycle}
    if event.violation is not None:
        v = event.violation
        doc["violation"] = {"reason": v.reason.value, "pc": v.pc,
                            "addr": v.addr, "detail": v.detail}
    return doc


def _event_from_doc(doc: dict) -> DeviceEvent:
    kind = state_str(doc, "kind", ("violation", "reset"))
    violation = None
    if kind == "violation":
        raw = state_dict(doc, "violation")
        violation = Violation(reason=ViolationReason(state_str(raw, "reason")),
                              pc=state_int(raw, "pc"),
                              addr=state_int(raw, "addr", optional=True),
                              detail=state_str(raw, "detail"))
    return DeviceEvent(kind=kind, cycle=state_int(doc, "cycle"),
                       violation=violation)


@dataclass
class RunResult:
    cycles: int
    instructions: int
    steps: int
    done: bool
    done_value: Optional[int]
    violations: List[Violation]
    reset_count: int

    @property
    def run_time_us(self):
        """Run time at the paper's 100 MHz clock."""
        return self.cycles / 100.0

    @property
    def hijacked(self):
        """True when the run ended neither cleanly nor with a reset."""
        return not self.done and not self.violations


class Device:
    # Bounds for the unbatched evidence logs: million-step fleet sims
    # must not balloon memory, so both the event log and the branch
    # trace are rings with explicit drop counters.
    DEFAULT_MAX_EVENTS = 1024
    DEFAULT_TRACE_CAPACITY = 4096

    def __init__(self, program, security="none", peripherals=None,
                 update_key: Optional[UpdateKey] = None,
                 max_events: Optional[int] = None,
                 trace_capacity: Optional[int] = None,
                 decode_cache: Optional[bool] = None):
        if security not in SECURITY_LEVELS:
            raise ValueError(f"security must be one of {SECURITY_LEVELS}")
        self.program = program
        self.security = security
        self.layout = program.layout
        # One copy of the program's loaded image (see LinkedProgram.image).
        self.bus = Bus(self.layout, program.image)
        self.ic = InterruptController()
        self.cpu = Cpu(self.bus, self.ic, decode_cache=decode_cache)
        self.cpu.share_decodes(program.decode_table, program.image)

        if peripherals is None:
            peripherals = {}
        self.peripherals: Dict[str, object] = {
            "gpio": peripherals.get("gpio", Gpio()),
            "timer": peripherals.get("timer", Timer()),
            "adc": peripherals.get("adc", Adc()),
            "uart": peripherals.get("uart", Uart()),
            "lcd": peripherals.get("lcd", Lcd()),
            "ultrasonic": peripherals.get("ultrasonic", Ultrasonic()),
            "harness": peripherals.get("harness", HarnessPorts()),
        }
        for peripheral in self.peripherals.values():
            peripheral.attach(self.bus, self.ic)
        # The cycle counter; it ticks peripherals at their deadlines and
        # before register handlers, not every step.
        self.clock = PeripheralClock(self.peripherals.values())
        self.bus.before_io = self.clock.before_io
        self._harness = self.peripherals["harness"]

        self.monitor: Optional[HardwareMonitor] = None
        if security != "none":
            policy = MonitorPolicy.eilid() if security == "eilid" else MonitorPolicy.casu()
            rom_config = TrustedSoftware.rom_config_from_symbols(program.symbols)
            self.monitor = HardwareMonitor(self.layout, policy, rom_config)
            if policy.rom_atomicity:
                self.cpu.irq_deferred_at = self.layout.in_secure_rom

        self.update_engine = UpdateEngine(update_key or UpdateKey.derive(program.name))
        self.max_events = self.DEFAULT_MAX_EVENTS if max_events is None else max_events
        if self.max_events < 1:
            raise ValueError("max_events must be >= 1")
        # The empty tuple until the first event: most replicas never
        # log one, and an empty deque costs ~600 B.
        self.events = ()
        self.events_dropped = 0
        # Cumulative counters survive event-ring eviction, so fleet
        # telemetry keeps exact totals on long-running devices.
        self.violation_count = 0
        self.violation_totals: Dict[str, int] = {}
        # trace_capacity=0 disables recording entirely (leaves the CPU
        # hot path without the per-step observe call); None = default.
        if trace_capacity == 0:
            self.trace = None
        else:
            self.trace = BranchTraceRecorder(
                capacity=trace_capacity or self.DEFAULT_TRACE_CAPACITY)
            self.cpu.trace_sink = self.trace
        self.reset_count = 0

        # Reference image for snapshot memory deltas: the loaded
        # firmware before any execution.  The program's own immutable
        # image, shared by every device built from it; snapshots and
        # restores only read it.
        self._baseline = program.image
        # The firmware measurement taken as the device parked; None
        # while it is live.
        self._measurement: Optional[str] = None
        self.cpu.reset()

    # ---- accessors -----------------------------------------------------------

    @property
    def harness(self) -> HarnessPorts:
        return self._harness

    @property
    def cycle(self) -> int:
        """The device cycle counter, kept by :attr:`clock`."""
        return self.clock.cycle

    @cycle.setter
    def cycle(self, value: int):
        self.clock.cycle = value

    def symbol(self, name):
        return self.program.symbols[name]

    def peek_word(self, addr):
        self.unpark()
        return self.bus.peek_word(addr)

    @property
    def violations(self):
        return [e.violation for e in self.events if e.kind == "violation"]

    def output_events(self):
        """Observable I/O trace across all peripherals, in time order.

        The harness DONE write is excluded (it is the run terminator,
        not application output).  Used for original-vs-EILID
        behavioural equivalence.
        """
        events = []
        for peripheral in self.peripherals.values():
            events.extend(peripheral.events)
        events.sort(key=lambda e: (e.cycle, e.port))
        return [(e.port, e.value) for e in events if e.port != "harness.done"]

    def _log_event(self, event: DeviceEvent):
        """Append to the bounded event ring, counting evictions."""
        if not self.events:
            self.events = deque(maxlen=self.max_events)
        elif len(self.events) == self.max_events:
            self.events_dropped += 1
        self.events.append(event)

    def trace_snapshot(self) -> TraceSnapshot:
        """The branch-trace evidence attached to attestation replies."""
        if self.trace is None:
            return empty_snapshot()
        return self.trace.snapshot()

    def firmware_measurement(self) -> str:
        """SHA-256 over PMEM + IVT, the device's software identity.
        A parked device answers with the hash it took as it parked."""
        if self.bus.mem is None:
            return self._measurement
        start = self.layout.pmem.start
        end = self.layout.ivt.end
        return hashlib.sha256(bytes(self.bus.mem[start:end + 1])).hexdigest()

    def attestation_report(self) -> AttestationReport:
        """Snapshot the evidence a remote verifier attests against.

        Models the RoT-side measurement (see DESIGN.md's substitution
        note: crypto runs natively, the guarded state it measures is
        the simulated one).  Consumed by :mod:`repro.fleet.protocol`.
        """
        # The RoT reads the trace hardware directly -- NOT through the
        # overridable trace_snapshot() accessor the (untrusted) agent
        # uses -- so the MAC'd counters stay honest even when the OS
        # ships a doctored window.
        snapshot = (self.trace.snapshot() if self.trace is not None
                    else empty_snapshot())
        return AttestationReport(
            firmware_hash=self.firmware_measurement(),
            firmware_version=self.update_engine.current_version,
            reset_count=self.reset_count,
            violation_reasons=tuple(v.reason.value for v in self.violations),
            cycle=self.cycle,
            violation_count=self.violation_count,
            violation_totals=tuple(
                f"{reason}={count}"
                for reason, count in sorted(self.violation_totals.items())),
            trace_digest=snapshot.digest_hex,
            trace_edges=snapshot.total,
            trace_dropped=snapshot.dropped,
        )

    # ---- parking -------------------------------------------------------------------

    @property
    def parked(self) -> bool:
        return self.bus.mem is None

    def park(self) -> None:
        """Keep RAM as only the pages that differ from the program's
        image (:meth:`repro.memory.bus.Bus.park`) until an entry point
        that touches memory unparks it.

        Nothing else is saved: every other component stays live, and
        the decode cache stays valid.  The firmware measurement is
        taken here, so an attestation report never unparks.
        """
        if self.bus.mem is not None:
            self._measurement = self.firmware_measurement()
            self.bus.park(self._baseline)

    def unpark(self) -> None:
        """Rebuild the 64 KB array of a parked device; else nothing."""
        if self.bus.mem is None:
            self.bus.unpark(self._baseline)
            self._measurement = None

    # ---- snapshot/restore --------------------------------------------------------

    def snapshot(self) -> "DeviceSnapshot":
        """Capture the complete mutable device state (see repro.snapshot).

        The one definition of device state: two devices of one program
        are in the same state exactly when their documents are equal.
        Must be called between steps (the per-step bus trace is drained
        into each StepRecord, so there is no in-flight transaction to
        lose).  The result restores into any device built from the same
        program/security/peripheral configuration.
        """
        self.unpark()
        self.clock.catch_up()
        doc = {
            "codec": WIRE_VERSION,
            "program": self.program.name,
            "security": self.security,
            "cycle": self.cycle,
            "reset_count": self.reset_count,
            "events": [_event_to_doc(e) for e in self.events],
            "events_dropped": self.events_dropped,
            "violation_count": self.violation_count,
            "violation_totals": dict(self.violation_totals),
            "cpu": self.cpu.snapshot_state(),
            "memory": memory_delta(self.bus.mem, self._baseline),
            "interrupts": self.ic.snapshot_state(),
            "peripherals": {name: p.snapshot_state()
                            for name, p in self.peripherals.items()},
            "trace": (None if self.trace is None
                      else self.trace.snapshot_state()),
            "monitor": (None if self.monitor is None
                        else self.monitor.snapshot_state()),
            "update_engine": self.update_engine.snapshot_state(),
        }
        return DeviceSnapshot(doc)

    def state_digest(self) -> str:
        """SHA-256 hex of :meth:`snapshot`'s JSON: equal exactly when
        the documents are, and never a second walk over the state."""
        return hashlib.sha256(self.snapshot().to_json().encode()).hexdigest()

    def restore(self, snapshot) -> None:
        """Adopt a snapshot's state, bit-identically.

        *snapshot* is a :class:`DeviceSnapshot` or its dict wire form.
        The device must have been built from the same program and
        security profile; a mismatch raises :class:`SnapshotError`
        rather than silently producing a franken-device.  Restoring the
        memory image drops the whole decode cache (see
        :meth:`repro.memory.bus.Bus.restore_memory`), so code mutated
        before the snapshot -- self-modifying or attacker-injected --
        always re-decodes on the restored device.
        """
        if isinstance(snapshot, DeviceSnapshot):
            doc = snapshot.to_dict()
        else:
            doc = DeviceSnapshot.from_dict(snapshot).to_dict()
        if doc.get("program") != self.program.name:
            raise SnapshotError(
                f"snapshot is for program {doc.get('program')!r}, "
                f"device runs {self.program.name!r}")
        if doc.get("security") != self.security:
            raise SnapshotError(
                f"snapshot is for security {doc.get('security')!r}, "
                f"device is {self.security!r}")
        if (doc["trace"] is None) != (self.trace is None):
            raise SnapshotError(
                "snapshot and device disagree on trace recording")
        self.unpark()
        try:
            self.bus.restore_memory(self._baseline, doc["memory"])
            self.cpu.restore_state(doc["cpu"])
            self.ic.restore_state(doc["interrupts"])
            for name, peripheral in self.peripherals.items():
                peripheral.restore_state(doc["peripherals"][name])
            if self.trace is not None:
                self.trace.restore_state(doc["trace"])
            if self.monitor is not None and doc["monitor"] is not None:
                self.monitor.restore_state(doc["monitor"])
            self.update_engine.restore_state(doc["update_engine"])
            self.clock.cycle = state_int(doc, "cycle")
            self.clock.catch_up()
            self.reset_count = state_int(doc, "reset_count")
            events = [_event_from_doc(event)
                      for event in state_list(doc, "events", dict)]
            self.events = (deque(events, maxlen=self.max_events)
                           if events else ())
            self.events_dropped = state_int(doc, "events_dropped")
            self.violation_count = state_int(doc, "violation_count")
            self.violation_totals = state_counts(doc, "violation_totals")
        except (KeyError, IndexError, ValueError, TypeError,
                AttributeError) as error:
            # What walking a malformed doc raises: a missing key, a
            # short list, a bad value, or a section of the wrong type.
            raise SnapshotError(f"malformed device snapshot: {error!r}")
        self.bus.trace = []

    # ---- stepping ----------------------------------------------------------------

    def step(self):
        """One monitored step: the body of :meth:`_run_loop`, run once.
        Returns ``(record, violation_or_None)``."""
        seen = []
        self._run_loop(None, False, 1, None,
                       lambda record, violation: seen.append((record, violation)))
        return seen[0]

    def _void_step(self, record, violation: Violation):
        """The violation path: the violating cycle never commits.

        Undo its memory writes and drop the peripheral log entries
        stamped with its start cycle (its register changes die with the
        reset), count and log the violation, and reset the MCU.
        """
        self.bus.rollback_writes(record.accesses)
        start_cycle = self.clock.cycle - record.cycles
        for peripheral in self.peripherals.values():
            peripheral.void_since(start_cycle)
        self.violation_count += 1
        reason = violation.reason.value
        self.violation_totals[reason] = self.violation_totals.get(reason, 0) + 1
        self._log_event(DeviceEvent("violation", self.cycle, violation))
        self.hard_reset()

    def hard_reset(self):
        self.unpark()
        self.reset_count += 1
        self._log_event(DeviceEvent("reset", self.cycle))
        self.cpu.reset()
        self.ic.clear_all()
        if self.monitor is not None:
            self.monitor.reset()
        for peripheral in self.peripherals.values():
            peripheral.reset()

    def run(self, max_cycles=2_000_000, stop_on_done=True, max_steps=None,
            break_at=None, observer=None):
        """Run until DONE, a violation, a breakpoint in *break_at* (a
        set of PC values), or the budget ends.

        *observer*, if given, is called with every
        ``(StepRecord, violation_or_None)`` -- the hook the trace
        oracles in :mod:`repro.verification` attach to.
        """
        return self._caught_up_run(max_cycles, stop_on_done, max_steps,
                                   break_at, observer)

    def run_steps(self, n, max_cycles=None, stop_on_done=True):
        """Batched inner loop: execute up to *n* steps in one call.

        The fleet waves (:mod:`repro.fleet.simulation`) drive millions
        of device steps; this entry point skips the public :meth:`run`
        (no observer or breakpoint hooks) while keeping the exact
        monitored-step semantics of :meth:`step`.

        Instrumentation lives at this batch boundary -- one enabled
        check per call, never inside the step loop -- so the disabled
        path costs a single attribute lookup and the bench_micro
        throughput floors hold either way.
        """
        if not METRICS.enabled:
            return self._caught_up_run(max_cycles, stop_on_done, n, None,
                                       None)
        with METRICS.span("interpreter.batch"):
            result = self._caught_up_run(max_cycles, stop_on_done, n, None,
                                         None)
        METRICS.inc("interpreter.batches")
        METRICS.inc("interpreter.steps", result.steps)
        return result

    def _caught_up_run(self, *loop_args) -> RunResult:
        """:meth:`_run_loop` with the peripherals caught up on both
        sides: plan afresh first, since peripheral state may have been
        edited between runs (the fault injector corrupts a timer count,
        a UART FIFO), and leave them exact for whoever inspects them."""
        self.clock.catch_up()
        result = self._run_loop(*loop_args)
        self.clock.catch_up()
        return result

    def _run_loop(self, max_cycles, stop_on_done, max_steps, break_at,
                  observer) -> RunResult:
        """Every monitored step runs here, whichever API drives it.

        *max_cycles* and *max_steps* bound the run (``None`` for no
        bound).  Per step: one ``Cpu.step``, the clock advance (ticking
        peripherals only at their deadline), one monitor ``observe`` --
        or, without a monitor, the illegal-opcode PC spin -- and on a
        violation :meth:`_void_step`, which ends the run.  Peripherals
        are not caught up at the ends; :meth:`_caught_up_run` does that
        for runs.
        """
        self.unpark()
        clock = self.clock
        cpu = self.cpu
        harness = self._harness
        # Bound per run, never at construction, so a wrapper installed
        # on the class after this device was built sees every call.
        cpu_step = cpu.step
        observe = None if self.monitor is None else self.monitor.observe
        start_cycle = cycle = clock.cycle
        start_insns = cpu.instruction_count
        # Int bounds: no int-to-float comparison per step.
        cycle_end = start_cycle + (_UNBOUNDED if max_cycles is None
                                   else max_cycles)
        step_end = _UNBOUNDED if max_steps is None else max_steps
        steps = 0
        violations: List[Violation] = []
        while cycle < cycle_end and steps < step_end:
            record = cpu_step()
            clock.cycle = cycle = clock.cycle + record.cycles
            if cycle >= clock.due:
                clock.catch_up()
            steps += 1
            if observe is None:
                violation = None
                if record.kind is _ILLEGAL:
                    # Without a monitor an illegal opcode just spins the
                    # PC past the bad word, like a real core executing
                    # garbage.
                    cpu.pc = record.pc + 2
            else:
                violation = observe(record)
                if violation is not None:
                    self._void_step(record, violation)
            if observer is not None:
                observer(record, violation)
            if violation is not None:
                violations.append(violation)
                break
            if stop_on_done and harness.done:
                break
            if break_at is not None and cpu.regs[PC] in break_at:
                break
        return RunResult(
            cycles=clock.cycle - start_cycle,
            instructions=cpu.instruction_count - start_insns,
            steps=steps,
            done=harness.done,
            done_value=harness.done_value,
            violations=violations,
            reset_count=self.reset_count,
        )

    # ---- ROM routine invocation (used by the update flow and tests) ---------------

    def call_routine(self, symbol, regs=None, max_steps=20_000):
        """Run a ROM routine to completion on the simulated CPU.

        Pushes ``__halt`` as the return address, jumps to *symbol*, and
        steps until the routine returns (or a violation resets).
        Returns the violation list collected on the way.  The steps run
        in :meth:`_run_loop`, not :meth:`run`: a routine call is neither
        a run nor a breakpoint stop, and it leaves the peripherals as
        lazily ticked as single steps do.
        """
        self.unpark()
        sentinel = self.symbol("__halt")
        self.cpu.set_reg(1, self.layout.stack_top)
        for reg, value in (regs or {}).items():
            self.cpu.set_reg(reg, value)
        self.cpu._push(sentinel)
        self.cpu.pc = self.symbol(symbol)
        return self._run_loop(None, False, max_steps, {sentinel},
                              None).violations

    # ---- CASU secure update ------------------------------------------------------------

    def apply_update(self, package) -> UpdateResult:
        """Authenticated update: verify, stage, ROM-copy into PMEM.

        The MAC/version check models the ROM crypto (see DESIGN.md);
        the copy runs on the CPU from the ROM routine with the
        monitor's update session open, so the PMEM guard is exercised
        for real.
        """
        result = self.update_engine.verify(package)
        if not result.ok:
            return result

        staging = self.layout.dmem.start + 2 * STAGING_HEADER_WORDS
        if staging + len(package.payload) > self.layout.dmem.end + 1:
            raise UpdateError("payload does not fit in the staging area")
        self.unpark()
        self.bus.load_bytes(staging, package.payload)  # models network receive

        if self.monitor is not None:
            self.monitor.open_update_session()
        try:
            violations = self.call_routine(
                "S_CASU_update_copy",
                regs={15: staging, 14: package.target, 13: len(package.payload) // 2},
            )
        finally:
            if self.monitor is not None:
                self.monitor.close_update_session()
        if violations:
            return UpdateResult(UpdateStatus.COPY_FAILED, str(violations[0]))
        self.update_engine.accept(package)
        return result


# The complete knob set *limits* may carry; anything else is a typo
# (historically e.g. ``trace_capcity=`` was swallowed silently).
DEVICE_KNOBS = ("max_events", "trace_capacity", "decode_cache")


def build_device(program, security="none", peripherals=None, update_key=None,
                 **limits) -> Device:
    """Build one device around a linked *program*: the constructor.

    *security* picks a row of the DESIGN.md attack matrix (``none``,
    ``casu``, ``eilid``).  *limits* forwards the evidence bounds
    (``max_events``, ``trace_capacity``) and the ``decode_cache``
    interpreter knob to the device, and rejects any other name.  The
    scenario API (:mod:`repro.api`), the fleet and the fault campaigns
    all build their devices here.
    """
    unknown = sorted(set(limits) - set(DEVICE_KNOBS))
    if unknown:
        raise TypeError(
            f"build_device() got unknown option(s) "
            f"{', '.join(map(repr, unknown))}; "
            f"accepted: {', '.join(DEVICE_KNOBS)}")
    return Device(program, security=security, peripherals=peripherals,
                  update_key=update_key, **limits)
