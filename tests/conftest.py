"""Shared fixtures and harnesses.

Expensive artifacts (built applications, victim devices' programs) are
cached at session scope; tests that need a *fresh* device build one
from the cached program, which is cheap.  :func:`lockstep` is every
differential test's harness: two devices step together, and their
snapshot documents -- the one definition of device state -- must agree.
:func:`refined` is the monitor's refinement check: it holds every
``HardwareMonitor.observe`` call a block makes to the monitor's rule
table.
"""

import contextlib
import weakref

import pytest

from repro.apps.registry import APPS, TABLE_IV_ORDER
from repro.casu.monitor import (
    ARMS, RULES, SIGNALS, HardwareMonitor, abstract, evaluate)
from repro.device import build_device
from repro.eilid.iterbuild import IterativeBuild
from repro.minicc import compile_c
from repro.toolchain import link, parse_source
from repro.verification.properties import product_fsm, violation_state


@pytest.fixture(scope="session")
def builder():
    return IterativeBuild()


@pytest.fixture(scope="session")
def app_builds(builder):
    """{app_name: (original BuildResult, eilid IterativeBuildResult)}."""
    builds = {}
    for name in TABLE_IV_ORDER:
        spec = APPS[name]
        asm = compile_c(spec.c_source, spec.name)
        original = builder.build_original(asm, f"{spec.name}.s")
        eilid = builder.build_eilid(asm, f"{spec.name}.s", verify_convergence=True)
        builds[name] = (original, eilid)
    return builds


@pytest.fixture(scope="session")
def app_runs(app_builds):
    """{app_name: (original RunResult-ish, eilid RunResult-ish)} with devices."""
    runs = {}
    for name, (original, eilid) in app_builds.items():
        spec = APPS[name]
        dev0 = build_device(original.program, security="none",
                            peripherals=spec.make_peripherals())
        res0 = dev0.run(max_cycles=spec.max_cycles)
        dev1 = build_device(eilid.final.program, security="eilid",
                            peripherals=spec.make_peripherals())
        res1 = dev1.run(max_cycles=spec.max_cycles)
        runs[name] = ((dev0, res0), (dev1, res1))
    return runs


def assemble(source, name="test.s", extra_units=(), program_name="test"):
    """Parse + link a single-unit program (helper used across tests)."""
    units = [parse_source(source, name)]
    for unit_name, unit_src in extra_units:
        units.append(parse_source(unit_src, unit_name))
    return link(units, name=program_name)


MINIMAL_CRT = """
    .text
__start:
    mov #0x0a00, r1
    call #main
    mov #1, &0x0070
__halt:
    jmp __halt
__default_handler:
    reti
    .vector 15, __start
"""


def run_c(c_source, max_cycles=500_000, peripherals=None, security="none"):
    """Compile mini-C, link with a minimal crt0, run to DONE.

    Returns the device (DONE value at 0x0070 via harness).
    """
    asm = compile_c(c_source, "t")
    program = assemble(MINIMAL_CRT, "crt0.s", extra_units=[("t.s", asm)])
    device = build_device(program, security=security, peripherals=peripherals)
    device.run(max_cycles=max_cycles)
    return device


def assert_same_state(left, right, where="at the end"):
    """The two devices' snapshot documents are equal; a failure names
    the sections that differ."""
    ours, theirs = left.snapshot().to_dict(), right.snapshot().to_dict()
    differing = sorted(key for key in ours.keys() | theirs.keys()
                       if ours.get(key) != theirs.get(key))
    assert not differing, f"states differ {where} in {differing}"


def lockstep(left, right, steps, until=None, every=0, boundary=None,
             after_step=None):
    """Step two devices of one program together.

    Every step's ``(StepRecord, violation)`` must be equal on both
    sides; ``after_step(record)`` then runs.  After every *every*-th
    step, ``boundary(right)`` returns the device the right side goes on
    as -- itself, or a restored copy -- and the two snapshot documents
    must be equal.  They must be equal at the end too: after *steps*
    steps, or after the first step for which ``until(left)`` holds.
    """
    for step in range(steps):
        record, violation = left.step()
        other_record, other_violation = right.step()
        assert record == other_record, f"step {step} diverged"
        assert violation == other_violation, f"step {step} verdict diverged"
        if after_step is not None:
            after_step(record)
        if until is not None and until(left):
            break
        if every and (step + 1) % every == 0:
            if boundary is not None:
                right = boundary(right)
            assert_same_state(left, right, f"after step {step}")
    assert_same_state(left, right)


SIGNAL_NAMES = tuple(signal.name for signal in SIGNALS)


class Refinement:
    """The refinement check: holds steps a :class:`HardwareMonitor`
    observed to the monitor's rule table.  Feed it every
    ``(monitor, step, violation)`` ``observe`` produced;
    :attr:`divergences` keeps each step whose verdict differs, either
    the product FSM's over ``abstract``'s signals or ``evaluate``'s
    whole ``Violation``."""

    def __init__(self):
        self.steps = 0
        self.divergences = []
        # arming -> (its product FSM, {signals: the row it moves to})
        self._products = {}
        self._monitors = weakref.WeakKeyDictionary()

    def _product(self, monitor):
        entry = self._monitors.get(monitor)
        if entry is None:
            arming = tuple(getattr(monitor.policy, name) for name in ARMS)
            if arming not in self._products:
                self._products[arming] = (
                    product_fsm(monitor.policy, RULES, SIGNAL_NAMES), {})
            entry = self._monitors[monitor] = self._products[arming]
        return entry

    def check(self, monitor, step, violation):
        signals, witnesses = abstract(step, monitor.layout.flags,
                                      monitor.rom_config,
                                      monitor.update_session_open)
        fsm, rows = self._product(monitor)
        if signals not in rows:
            state = fsm.step("OK", {name: bool(signals >> index & 1)
                                    for index, name in enumerate(SIGNAL_NAMES)})
            rows[signals] = next((rule for rule in RULES
                                  if violation_state(rule) == state), None)
        row = rows[signals]
        modelled = None if row is None else row.violation(step, witnesses)
        expected = evaluate(step, signals, witnesses, monitor.policy)
        self.steps += 1
        if violation != modelled or violation != expected:
            self.divergences.append((step, violation, modelled, expected))


@contextlib.contextmanager
def refined(enabled=True):
    """Inside the block, check every ``HardwareMonitor.observe`` call
    against the monitor's rule table; yields the :class:`Refinement`
    holding the count of checked steps and any divergence."""
    refinement = Refinement()
    observe = HardwareMonitor.__dict__["observe"]

    def checked(monitor, step):
        violation = observe(monitor, step)
        refinement.check(monitor, step, violation)
        return violation

    if enabled:
        HardwareMonitor.observe = checked
    try:
        yield refinement
    finally:
        HardwareMonitor.observe = observe
