"""Fault injection and outcome grading on a restored device.

Every fault runs the same protocol: restore the honest snapshot into a
fresh device, plant (or arm) the fault, run the device out under a
cycle budget, and grade the result against the golden (fault-free)
run:

* ``detected``          -- the hardware monitor recorded a violation;
* ``escape``            -- the workload completed with golden-identical
                           outputs (the fault was masked, or its
                           trigger never fired);
* ``silent-corruption`` -- the workload completed but its observable
                           I/O or DONE value diverged from golden;
* ``crash``             -- neither DONE nor a violation inside the
                           budget (wild execution, hang, illegal-insn
                           spin on an unmonitored device).

``imem-flip`` plants immediately through the bus back door
(:meth:`repro.memory.bus.Bus.load_bytes`-style ``poke_word``, which
invalidates covering decode-cache entries); the PC-triggered kinds arm
by running with ``break_at={pc}`` and mutating state when execution
reaches the trigger.
"""

from typing import Dict, List, Tuple

OUTCOMES = ("detected", "escape", "crash", "silent-corruption")


def _plant_imem_flip(device, fault: Dict) -> None:
    bit = fault["bit"]
    addr = (fault["pc"] + 2 * (bit // 16)) & 0xFFFE
    word = device.bus.peek_word(addr)
    device.bus.poke_word(addr, word ^ (1 << (bit % 16)))


def _trigger(device, fault: Dict) -> None:
    """Mutate state at the fault's trigger PC."""
    kind = fault["kind"]
    if kind == "insn-skip":
        device.cpu.pc = fault["next_pc"]
    elif kind == "reg-corrupt":
        reg = fault["reg"]
        device.cpu.set_reg(reg, device.cpu.get_reg(reg) ^ fault["mask"])
    elif kind == "periph-corrupt":
        mask = fault["mask"]
        name = fault["periph"]
        peripheral = device.peripherals[name]
        if name == "adc":
            peripheral.data ^= mask & 0x3FF
        elif name == "gpio":
            peripheral.out ^= mask & 0xFFFF
        elif name == "timer":
            peripheral.count ^= mask & 0xFFFF
        elif name == "uart":
            peripheral.push_rx(mask)
        else:
            raise ValueError(f"cannot corrupt peripheral {name!r}")
    else:
        raise ValueError(f"unknown fault kind {fault['kind']!r}")


def run_faulted(device, fault: Dict, budget: int,
                golden_outputs: List[Tuple[str, int]],
                golden_done_value, policy=None) -> Dict:
    """Inject *fault* into *device* (already restored) and grade it.

    Returns the outcome wire dict: id/kind/pc plus ``outcome``, the
    first violation ``reason`` (when detected) and the cycles consumed.

    With *policy* (a :class:`~repro.cfg.policy.CfiPolicy`), faults that
    would grade ``escape`` or ``silent-corruption`` additionally replay
    the device's branch trace against the policy -- the verifier-side
    attestation check.  A rejected replay upgrades the outcome to
    ``detected`` with reason ``replay:<why>``, which is what lets a
    re-run sweep prove a proposed policy tightening converts escapes
    into detections.
    """
    start_cycle = device.cycle
    violations = []
    if fault["kind"] == "imem-flip":
        _plant_imem_flip(device, fault)
    else:
        # Arm: run until the trigger PC (or the workload ends first,
        # in which case the fault never fires and grades as masked).
        result = device.run(max_cycles=budget, break_at={fault["pc"]})
        violations.extend(result.violations)
        if (not violations and not device.harness.done
                and device.cpu.pc == fault["pc"]):
            _trigger(device, fault)
    remaining = budget - (device.cycle - start_cycle)
    if remaining > 0 and not violations and not device.harness.done:
        result = device.run(max_cycles=remaining)
        violations.extend(result.violations)

    if violations:
        outcome = "detected"
        reason = violations[0].reason.value
    else:
        reason = None
        if not device.harness.done:
            outcome = "crash"
        elif (device.harness.done_value == golden_done_value
              and device.output_events() == golden_outputs):
            outcome = "escape"
        else:
            outcome = "silent-corruption"
    if policy is not None and outcome in ("escape", "silent-corruption"):
        from repro.cfg.replay import replay_trace

        replay = replay_trace(policy, device.trace_snapshot())
        if not replay.ok:
            outcome = "detected"
            reason = f"replay:{replay.reason}"
    return {"id": fault["id"], "kind": fault["kind"], "pc": fault["pc"],
            "outcome": outcome, "reason": reason,
            "cycles": device.cycle - start_cycle}
