"""Abstract monitor models and their verified sub-properties.

Each function returns an :class:`Fsm` abstracting one hardware
monitor rule over boolean signals, together with the safety properties
the CASU/VRASED decomposition attaches to it.  ``MONITOR_PROPERTIES``
bundles (fsm, property list) pairs for the test suite and the
``eilid verify`` CLI command.

The VIOL state models the latched reset line: once entered it is
absorbing (the device resets; the monitor restarts with the MCU).
"""

from dataclasses import dataclass
from typing import Callable, List, Tuple

from repro.verification.fsm import Fsm, Transition
from repro.verification.model_checker import (
    CheckResult,
    check_invariant,
    check_transition_property,
)

OK = "OK"
VIOL = "VIOL"
IN_ROM = "IN_ROM"


@dataclass
class MonitorProperty:
    name: str
    kind: str  # "invariant" | "transition"
    predicate: Callable
    description: str = ""


def w_xor_x_fsm() -> Fsm:
    """No fetch outside executable regions."""
    return Fsm(
        name="w-xor-x",
        states=(OK, VIOL),
        inputs=("fetch", "addr_executable"),
        initial=OK,
        transitions=[
            Transition(OK, lambda i: i["fetch"] and not i["addr_executable"], VIOL,
                       "fetch-from-nx"),
            Transition(VIOL, lambda i: True, VIOL, "latched"),
        ],
    )


W_XOR_X_PROPERTIES = [
    MonitorProperty(
        "nx-fetch-trips",
        "transition",
        lambda s, i, n: not (s == OK and i["fetch"] and not i["addr_executable"]) or n == VIOL,
        "a fetch from non-executable memory always moves OK -> VIOL",
    ),
    MonitorProperty(
        "no-false-positive",
        "transition",
        lambda s, i, n: not (s == OK and (not i["fetch"] or i["addr_executable"])) or n == OK,
        "benign cycles never trip the monitor",
    ),
    MonitorProperty(
        "violation-latched",
        "transition",
        lambda s, i, n: s != VIOL or n == VIOL,
        "the reset line stays asserted until the MCU resets",
    ),
]


def pmem_guard_fsm() -> Fsm:
    """PMEM writes only from ROM during an open update session."""
    return Fsm(
        name="pmem-guard",
        states=(OK, VIOL),
        inputs=("pmem_write", "pc_in_rom", "update_open"),
        initial=OK,
        transitions=[
            Transition(
                OK,
                lambda i: i["pmem_write"] and not (i["pc_in_rom"] and i["update_open"]),
                VIOL,
                "unauthorised-pmem-write",
            ),
            Transition(VIOL, lambda i: True, VIOL, "latched"),
        ],
    )


def pmem_guard_fsm_buggy() -> Fsm:
    """A deliberately broken guard (checks only the ROM bit) -- used to
    show the checker produces counterexamples, mirroring mutation
    testing of the verified Verilog."""
    return Fsm(
        name="pmem-guard-buggy",
        states=(OK, VIOL),
        inputs=("pmem_write", "pc_in_rom", "update_open"),
        initial=OK,
        transitions=[
            Transition(OK, lambda i: i["pmem_write"] and not i["pc_in_rom"], VIOL,
                       "missing-update-check"),
            Transition(VIOL, lambda i: True, VIOL, "latched"),
        ],
    )


PMEM_GUARD_PROPERTIES = [
    MonitorProperty(
        "unauthorised-write-trips",
        "transition",
        lambda s, i, n: not (
            s == OK and i["pmem_write"] and not (i["pc_in_rom"] and i["update_open"])
        ) or n == VIOL,
        "a PMEM write without (ROM && update session) always trips",
    ),
    MonitorProperty(
        "authorised-write-passes",
        "transition",
        lambda s, i, n: not (
            s == OK and i["pmem_write"] and i["pc_in_rom"] and i["update_open"]
        ) or n == OK,
        "the secure-update copy loop is never reset",
    ),
    MonitorProperty(
        "violation-latched",
        "transition",
        lambda s, i, n: s != VIOL or n == VIOL,
    ),
]


def secure_ram_fsm() -> Fsm:
    """Shadow-stack bank access only while executing in ROM (the EILID
    hardware extension)."""
    return Fsm(
        name="secure-ram-guard",
        states=(OK, VIOL),
        inputs=("secure_ram_access", "pc_in_rom"),
        initial=OK,
        transitions=[
            Transition(OK, lambda i: i["secure_ram_access"] and not i["pc_in_rom"], VIOL,
                       "untrusted-shadow-access"),
            Transition(VIOL, lambda i: True, VIOL, "latched"),
        ],
    )


SECURE_RAM_PROPERTIES = [
    MonitorProperty(
        "untrusted-access-trips",
        "transition",
        lambda s, i, n: not (s == OK and i["secure_ram_access"] and not i["pc_in_rom"])
        or n == VIOL,
        "shadow-stack data is unreachable from untrusted code",
    ),
    MonitorProperty(
        "rom-access-passes",
        "transition",
        lambda s, i, n: not (s == OK and i["secure_ram_access"] and i["pc_in_rom"]) or n == OK,
    ),
    MonitorProperty(
        "violation-latched",
        "transition",
        lambda s, i, n: s != VIOL or n == VIOL,
    ),
]


def rom_atomicity_fsm() -> Fsm:
    """ROM entered only at the entry point, left only from the exit
    section, never interrupted while inside."""
    return Fsm(
        name="rom-atomicity",
        states=(OK, IN_ROM, VIOL),
        inputs=("next_in_rom", "at_entry", "in_exit", "irq"),
        initial=OK,
        transitions=[
            # Outside -> inside must land on the entry point.
            Transition(OK, lambda i: i["next_in_rom"] and not i["at_entry"], VIOL,
                       "mid-rom-entry"),
            Transition(OK, lambda i: i["next_in_rom"] and i["at_entry"], IN_ROM, "enter"),
            # Interrupt acceptance while inside is a violation.
            Transition(IN_ROM, lambda i: i["irq"], VIOL, "irq-in-rom"),
            # Inside -> outside must come from the exit section.
            Transition(IN_ROM, lambda i: not i["next_in_rom"] and not i["in_exit"], VIOL,
                       "mid-rom-exit"),
            Transition(IN_ROM, lambda i: not i["next_in_rom"] and i["in_exit"], OK, "leave"),
            Transition(VIOL, lambda i: True, VIOL, "latched"),
        ],
    )


ROM_ATOMICITY_PROPERTIES = [
    MonitorProperty(
        "entry-only-at-entry-point",
        "transition",
        lambda s, i, n: not (s == OK and i["next_in_rom"] and not i["at_entry"]) or n == VIOL,
        "jumping into the middle of the ROM resets",
    ),
    MonitorProperty(
        "exit-only-from-exit-section",
        "transition",
        lambda s, i, n: not (
            s == IN_ROM and not i["irq"] and not i["next_in_rom"] and not i["in_exit"]
        ) or n == VIOL,
        "leaving the ROM other than through `leave` resets",
    ),
    MonitorProperty(
        "no-interrupt-inside",
        "transition",
        lambda s, i, n: not (s == IN_ROM and i["irq"]) or n == VIOL,
        "secure execution is atomic w.r.t. interrupts",
    ),
    MonitorProperty(
        "violation-latched",
        "transition",
        lambda s, i, n: s != VIOL or n == VIOL,
    ),
]


MONITOR_PROPERTIES: List[Tuple[Fsm, List[MonitorProperty]]] = [
    (w_xor_x_fsm(), W_XOR_X_PROPERTIES),
    (pmem_guard_fsm(), PMEM_GUARD_PROPERTIES),
    (secure_ram_fsm(), SECURE_RAM_PROPERTIES),
    (rom_atomicity_fsm(), ROM_ATOMICITY_PROPERTIES),
]


def check_all() -> List[CheckResult]:
    """Check every monitor property; returns one result per property."""
    results = []
    for fsm, properties in MONITOR_PROPERTIES:
        for prop in properties:
            name = f"{fsm.name}/{prop.name}"
            if prop.kind == "invariant":
                results.append(check_invariant(fsm, prop.predicate, name))
            else:
                results.append(check_transition_property(fsm, prop.predicate, name))
    return results
