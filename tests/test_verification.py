"""Model checker, monitor property FSMs, runtime oracles."""


from repro.verification import (
    ControlFlowOracle,
    Fsm,
    Transition,
    check_invariant,
    check_transition_property,
    reachable_states,
)
from repro.verification.properties import (
    check_all,
    pmem_guard_fsm,
    pmem_guard_fsm_buggy,
    rom_atomicity_fsm,
    PMEM_GUARD_PROPERTIES,
)


class TestModelChecker:
    def test_reachability(self):
        fsm = Fsm(
            name="toy",
            states=("A", "B", "C"),
            inputs=("go",),
            initial="A",
            transitions=[
                Transition("A", lambda i: i["go"], "B"),
                Transition("B", lambda i: i["go"], "C"),
            ],
        )
        assert reachable_states(fsm) == {"A", "B", "C"}

    def test_unreachable_state_not_explored(self):
        fsm = Fsm(
            name="toy",
            states=("A", "B", "DEAD"),
            inputs=("go",),
            initial="A",
            transitions=[Transition("A", lambda i: i["go"], "B")],
        )
        assert "DEAD" not in reachable_states(fsm)

    def test_invariant_holds(self):
        fsm = Fsm("toy", ("A",), ("x",), "A", [])
        assert check_invariant(fsm, lambda s: s == "A").holds

    def test_invariant_counterexample_path(self):
        fsm = Fsm(
            "toy",
            ("A", "BAD"),
            ("go",),
            "A",
            [Transition("A", lambda i: i["go"], "BAD")],
        )
        result = check_invariant(fsm, lambda s: s != "BAD")
        assert not result.holds
        states = [s for s, _ in result.counterexample]
        assert states[0] == "A" and states[-1] == "BAD"

    def test_transition_property_counterexample(self):
        fsm = Fsm(
            "toy",
            ("A", "B"),
            ("go",),
            "A",
            [Transition("A", lambda i: i["go"], "B")],
        )
        result = check_transition_property(
            fsm, lambda s, i, n: not (s == "A" and i["go"]) or n == "A"
        )
        assert not result.holds

    def test_first_matching_transition_wins(self):
        fsm = Fsm(
            "toy",
            ("A", "B", "C"),
            ("go",),
            "A",
            [
                Transition("A", lambda i: i["go"], "B"),
                Transition("A", lambda i: i["go"], "C"),
            ],
        )
        assert fsm.step("A", {"go": True}) == "B"

    def test_no_match_self_loops(self):
        fsm = Fsm("toy", ("A", "B"), ("go",), "A",
                  [Transition("A", lambda i: i["go"], "B")])
        assert fsm.step("A", {"go": False}) == "A"


class TestMonitorProperties:
    def test_all_monitor_properties_hold(self):
        results = check_all()
        assert len(results) >= 12
        failing = [r for r in results if not r.holds]
        assert not failing, "\n".join(str(r) for r in failing)

    def test_buggy_mutant_caught(self):
        buggy = pmem_guard_fsm_buggy()
        result = check_transition_property(
            buggy, PMEM_GUARD_PROPERTIES[0].predicate, "mutant"
        )
        assert not result.holds
        # The counterexample is exactly the missed case: a PMEM write
        # from ROM without an open update session.
        _state, inputs = result.counterexample[-1]
        assert inputs["pmem_write"] and inputs["pc_in_rom"] and not inputs["update_open"]

    def test_rom_atomicity_run_trace(self):
        fsm = rom_atomicity_fsm()
        benign = [
            {"next_in_rom": True, "at_entry": True, "in_exit": False, "irq": False},
            {"next_in_rom": True, "at_entry": False, "in_exit": False, "irq": False},
            {"next_in_rom": False, "at_entry": False, "in_exit": True, "irq": False},
        ]
        assert fsm.run(benign) == ["OK", "IN_ROM", "IN_ROM", "OK"]

    def test_rom_atomicity_attack_trace(self):
        fsm = rom_atomicity_fsm()
        attack = [
            {"next_in_rom": True, "at_entry": False, "in_exit": False, "irq": False},
        ]
        assert fsm.run(attack)[-1] == "VIOL"

    def test_fsm_mirrors_concrete_monitor(self):
        """Abstract FSM and the concrete monitor's PMEM guard agree."""
        from repro.casu.monitor import HardwareMonitor, MonitorPolicy
        from repro.cpu.core import StepKind, StepRecord
        from repro.memory.bus import Access, AccessKind
        from repro.memory.map import MemoryLayout

        layout = MemoryLayout.default()
        abstract = pmem_guard_fsm()

        for pc, update_open in [(0xE010, False), (layout.secure_rom.start, False),
                                (layout.secure_rom.start, True), (0xE010, True)]:
            concrete = HardwareMonitor(layout, MonitorPolicy.casu())
            if update_open:
                concrete.open_update_session()
            record = StepRecord(
                kind=StepKind.INSTRUCTION, pc=pc, next_pc=pc + 2, cycles=1,
                accesses=[Access(AccessKind.WRITE, 0xE100, 1, 2, pc, prev=0)],
            )
            concrete_violates = concrete.observe(record) is not None
            abstract_next = abstract.step("OK", {
                "pmem_write": True,
                "pc_in_rom": layout.in_secure_rom(pc),
                "update_open": update_open,
            })
            assert concrete_violates == (abstract_next == "VIOL"), (pc, update_open)


class TestOracles:
    def test_benign_eilid_app_is_clean(self, app_builds):
        from repro.apps.registry import APPS
        from repro.device import build_device

        _original, eilid = app_builds["fire_sensor"]
        spec = APPS["fire_sensor"]
        device = build_device(eilid.final.program, security="eilid",
                              peripherals=spec.make_peripherals())
        oracle = ControlFlowOracle()
        result = device.run(observer=oracle.observe)
        assert result.done
        assert oracle.clean
        assert oracle.returns_checked > 100
        assert oracle.retis_checked > 10

    def test_attacked_baseline_detected_by_oracle(self):
        from repro.attacks.harness import AttackHarness

        harness = AttackHarness("none")
        oracle = ControlFlowOracle()
        harness.device.run(
            break_at={harness.symbol("process")},
            stop_on_done=False,
            observer=oracle.observe,
        )
        sp = harness.device.cpu.sp
        harness.device.bus.poke_word(sp, harness.symbol("unlock"))
        harness.device.run(max_cycles=50_000, observer=oracle.observe)
        assert not oracle.clean
        deviation = oracle.deviations[0]
        assert deviation.kind == "return"
        assert deviation.actual == harness.symbol("unlock")

    def test_attacked_eilid_resets_with_no_oracle_deviation(self):
        """EILID is preventive: the device resets *before* the corrupted
        return executes, so the oracle never sees a bad transfer."""
        from repro.attacks.harness import AttackHarness

        harness = AttackHarness("eilid")
        oracle = ControlFlowOracle()
        harness.device.run(
            break_at={harness.symbol("process")},
            stop_on_done=False,
            observer=oracle.observe,
        )
        sp = harness.device.cpu.sp
        harness.device.bus.poke_word(sp, harness.symbol("unlock"))
        result = harness.device.run(max_cycles=50_000, observer=oracle.observe)
        assert result.violations
        assert oracle.clean
