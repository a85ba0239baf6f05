"""Model checker, monitor property FSMs, runtime oracles."""


from conftest import Refinement
from repro.verification import (
    ControlFlowOracle,
    Fsm,
    Transition,
    check_invariant,
    check_transition_property,
    reachable_states,
)
from repro.casu.monitor import RULES, MonitorPolicy
from repro.verification.properties import (
    check_all,
    check_rule,
    mutants,
    product_fsm,
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


def _signals(fsm, **raised):
    """An input valuation of *fsm*: the named signals raised, the rest low."""
    return {name: raised.get(name, False) for name in fsm.inputs}


class TestMonitorProperties:
    def test_all_monitor_properties_hold(self):
        results = check_all()
        # Three per rule alone, then the whole table's four.
        assert len(results) == 3 * len(RULES) + 4 == 31
        failing = [r for r in results if not r.holds]
        assert not failing, "\n".join(str(r) for r in failing)
        names = {r.property_name for r in results}
        for covered in ("trusted-port/armed-guard-trips",
                        "untrusted-port/armed-guard-trips",
                        "illegal-opcode/armed-guard-trips",
                        "monitor/verdict-is-first-armed-rule",
                        "monitor/no-violation-without-armed-guard"):
            assert covered in names

    def test_buggy_mutant_caught(self):
        # The PMEM guard without its second term checks only the ROM bit.
        table = dict(mutants())[("PMEM_WRITE", 1, None, "drop-term")]
        pmem = RULES[1]
        assert table[1].reason is pmem.reason
        result = check_rule(table[1], spec=pmem)[0]
        assert result.property_name == "pmem-guard/armed-guard-trips"
        assert not result.holds
        # The counterexample is exactly the missed case: a PMEM write
        # from ROM without an open update session.
        _state, inputs = result.counterexample[-1]
        assert inputs["pmem_write"] and inputs["pc_in_rom"] and not inputs["update_open"]

    def test_rom_atomicity_run_trace(self):
        fsm = product_fsm(MonitorPolicy.casu())
        benign = [
            _signals(fsm, next_in_rom=True, at_entry=True),  # enter
            _signals(fsm, pc_in_rom=True, next_in_rom=True),  # stay
            _signals(fsm, pc_in_rom=True, in_exit=True),  # leave
        ]
        assert fsm.run(benign) == ["OK", "OK", "OK", "OK"]

    def test_rom_atomicity_attack_trace(self):
        fsm = product_fsm(MonitorPolicy.casu())
        attack = [_signals(fsm, next_in_rom=True)]  # into mid-ROM
        assert fsm.run(attack)[-1] == "VIOL:rom-entry"

    def test_product_fsm_latches_the_first_armed_rule(self):
        fsm = product_fsm(MonitorPolicy.eilid())
        # An untrusted PMEM write that also enters mid-ROM and writes
        # the port: the PMEM guard is the first armed row.
        trace = [_signals(fsm, pmem_write=True, next_in_rom=True, port_write=True),
                 _signals(fsm)]
        assert fsm.run(trace)[1:] == ["VIOL:pmem-guard", "VIOL:pmem-guard"]
        # Disarm it and the next row that fires names the verdict.
        fsm = product_fsm(MonitorPolicy(pmem_guard=False))
        assert fsm.step("OK", _signals(fsm, pmem_write=True, next_in_rom=True)) \
            == "VIOL:rom-entry"

    def test_refinement_flags_a_monitor_that_disagrees(self):
        from repro.casu.monitor import HardwareMonitor, Violation, ViolationReason
        from repro.cpu.core import StepKind, StepRecord
        from repro.memory.map import MemoryLayout

        monitor = HardwareMonitor(MemoryLayout.default(), MonitorPolicy.casu())
        record = StepRecord(kind=StepKind.ILLEGAL, pc=0xE010, next_pc=0xE012,
                            cycles=1, accesses=[], illegal_word=0x0000)
        refinement = Refinement()
        refinement.check(monitor, record, monitor.observe(record))
        assert refinement.steps == 1 and not refinement.divergences
        wrong = Violation(ViolationReason.W_XOR_X, 0xE010)
        refinement.check(monitor, record, wrong)
        assert refinement.divergences[0][1:] == (
            wrong, monitor.observe(record), monitor.observe(record))


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
