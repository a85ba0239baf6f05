"""The hardware monitor's rules against synthetic step records.

The hand-picked cases pin each rule and each adjacent pair of the
priority order; the hypothesis property holds ``observe`` to the rule
table's evaluator on random steps; the mutation gate shows that those
steps and cases would notice any single-guard change to the table.
"""

import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from repro.casu.monitor import (
    ARMS,
    RULES,
    HardwareMonitor,
    MonitorPolicy,
    RomConfig,
    ViolationReason,
    abstract,
    evaluate,
)
from repro.cpu.core import StepKind, StepRecord
from repro.memory.bus import Access, AccessKind
from repro.memory.map import MemoryLayout
from repro.peripherals.ports import VIOLATION_PORT
from repro.verification.properties import equivalent, mutants

LAYOUT = MemoryLayout.default()
ROM = LAYOUT.secure_rom
ENTRY = ROM.start
LEAVE = ROM.start + 0x40
ROM_CONFIG = RomConfig(entry_points=(ENTRY,), exit_ranges=((LEAVE, LEAVE + 2),))


def step(pc, next_pc=None, accesses=(), kind=StepKind.INSTRUCTION, vector=None,
         illegal=None):
    return StepRecord(
        kind=kind,
        pc=pc,
        next_pc=next_pc if next_pc is not None else pc + 2,
        cycles=1,
        accesses=list(accesses),
        vector=vector,
        illegal_word=illegal,
    )


def fetch(addr, pc):
    return Access(AccessKind.FETCH, addr, 0, 2, pc)


def write(addr, value, pc):
    return Access(AccessKind.WRITE, addr, value, 2, pc, prev=0)


def read(addr, pc):
    return Access(AccessKind.READ, addr, 0, 2, pc)


def eilid_monitor():
    return HardwareMonitor(LAYOUT, MonitorPolicy.eilid(), ROM_CONFIG)


def casu_monitor():
    return HardwareMonitor(LAYOUT, MonitorPolicy.casu(), ROM_CONFIG)


class TestWxorX:
    def test_fetch_from_pmem_ok(self):
        assert eilid_monitor().observe(step(0xE000, accesses=[fetch(0xE000, 0xE000)])) is None

    def test_fetch_from_rom_ok(self):
        monitor = eilid_monitor()
        assert monitor.observe(step(ENTRY, accesses=[fetch(ENTRY, ENTRY)])) is None

    @pytest.mark.parametrize("addr", [0x0200, 0x0300, 0x1000])
    def test_fetch_from_ram_violates(self, addr):
        violation = eilid_monitor().observe(step(addr, accesses=[fetch(addr, addr)]))
        assert violation is not None
        assert violation.reason is ViolationReason.W_XOR_X

    def test_data_read_from_ram_ok(self):
        assert eilid_monitor().observe(
            step(0xE000, accesses=[read(0x0200, 0xE000)])
        ) is None


class TestPmemGuard:
    def test_write_from_app_violates(self):
        violation = casu_monitor().observe(
            step(0xE010, accesses=[write(0xE100, 1, 0xE010)])
        )
        assert violation.reason is ViolationReason.PMEM_WRITE

    def test_ivt_write_violates(self):
        violation = casu_monitor().observe(
            step(0xE010, accesses=[write(0xFFFE, 1, 0xE010)])
        )
        assert violation.reason is ViolationReason.PMEM_WRITE

    def test_rom_write_without_session_violates(self):
        monitor = casu_monitor()
        violation = monitor.observe(step(ENTRY, accesses=[write(0xE100, 1, ENTRY)]))
        assert violation.reason is ViolationReason.PMEM_WRITE

    def test_update_session_from_rom_allowed(self):
        monitor = casu_monitor()
        monitor.open_update_session()
        assert monitor.observe(step(ENTRY, accesses=[write(0xE100, 1, ENTRY)])) is None

    def test_update_session_from_app_still_violates(self):
        monitor = casu_monitor()
        monitor.open_update_session()
        violation = monitor.observe(step(0xE010, accesses=[write(0xE100, 1, 0xE010)]))
        assert violation.reason is ViolationReason.PMEM_WRITE

    def test_session_cleared_on_reset(self):
        monitor = casu_monitor()
        monitor.open_update_session()
        monitor.reset()
        assert not monitor.update_session_open


class TestSecureRamGuard:
    SHADOW = LAYOUT.secure_dmem.start + 4

    def test_app_read_violates(self):
        violation = eilid_monitor().observe(
            step(0xE010, accesses=[read(self.SHADOW, 0xE010)])
        )
        assert violation.reason is ViolationReason.SECURE_RAM_ACCESS

    def test_app_write_violates(self):
        violation = eilid_monitor().observe(
            step(0xE010, accesses=[write(self.SHADOW, 1, 0xE010)])
        )
        assert violation.reason is ViolationReason.SECURE_RAM_ACCESS

    def test_rom_access_allowed(self):
        assert eilid_monitor().observe(
            step(ENTRY, accesses=[write(self.SHADOW, 1, ENTRY)])
        ) is None

    def test_casu_policy_does_not_guard(self):
        # The shadow-stack guard is the EILID hardware extension.
        assert casu_monitor().observe(
            step(0xE010, accesses=[write(self.SHADOW, 1, 0xE010)])
        ) is None


class TestRomAtomicity:
    def test_entry_at_entry_point_ok(self):
        assert eilid_monitor().observe(step(0xE010, next_pc=ENTRY)) is None

    def test_mid_rom_entry_violates(self):
        violation = eilid_monitor().observe(step(0xE010, next_pc=ENTRY + 8))
        assert violation.reason is ViolationReason.ROM_ENTRY

    def test_exit_from_leave_ok(self):
        assert eilid_monitor().observe(step(LEAVE + 2, next_pc=0xE010)) is None

    def test_mid_rom_exit_violates(self):
        violation = eilid_monitor().observe(step(ENTRY + 4, next_pc=0xE010))
        assert violation.reason is ViolationReason.ROM_EXIT

    def test_irq_inside_rom_violates(self):
        violation = eilid_monitor().observe(
            step(ENTRY + 4, next_pc=0xFFF2, kind=StepKind.INTERRUPT, vector=9)
        )
        assert violation.reason is ViolationReason.IRQ_IN_ROM

    def test_irq_outside_rom_ok(self):
        assert eilid_monitor().observe(
            step(0xE010, next_pc=0xFFF2, kind=StepKind.INTERRUPT, vector=9)
        ) is None

    def test_rom_internal_transfer_ok(self):
        assert eilid_monitor().observe(step(ENTRY, next_pc=ENTRY + 20)) is None


class TestViolationPort:
    @pytest.mark.parametrize("code,reason", [
        (1, ViolationReason.CFI_RETURN),
        (2, ViolationReason.CFI_RFI),
        (3, ViolationReason.CFI_INDIRECT),
        (4, ViolationReason.SHADOW_OVERFLOW),
        (5, ViolationReason.SHADOW_UNDERFLOW),
        (6, ViolationReason.TABLE_OVERFLOW),
        (7, ViolationReason.BAD_SELECTOR),
    ])
    def test_rom_write_maps_reason_codes(self, code, reason):
        violation = eilid_monitor().observe(
            step(ENTRY + 10, accesses=[write(VIOLATION_PORT, code, ENTRY + 10)])
        )
        assert violation.reason is reason

    def test_app_write_is_an_attack(self):
        violation = eilid_monitor().observe(
            step(0xE010, accesses=[write(VIOLATION_PORT, 1, 0xE010)])
        )
        assert violation.reason is ViolationReason.SECURE_PORT


class TestIllegalInstruction:
    def test_illegal_step_violates(self):
        violation = eilid_monitor().observe(
            step(0xE010, kind=StepKind.ILLEGAL, illegal=0x0000)
        )
        assert violation.reason is ViolationReason.ILLEGAL_INSN


# One case per adjacent pair in the priority order.  The step trips
# both rules, with the lower-priority offence first in the access
# stream, so the verdict cannot come from access order.
PRIORITY_CASES = [
    pytest.param(step(0x0200, accesses=[write(0xE000, 1, 0x0200),
                                         fetch(0x0200, 0x0200)]),
                 ViolationReason.W_XOR_X, id="wxorx-over-pmem"),
    pytest.param(step(0xE010, accesses=[read(LAYOUT.secure_dmem.start, 0xE010),
                                         write(0xE100, 1, 0xE010)]),
                 ViolationReason.PMEM_WRITE, id="pmem-over-secure-ram"),
    pytest.param(step(0xE010, next_pc=ENTRY + 8,
                      accesses=[read(LAYOUT.secure_dmem.start, 0xE010)]),
                 ViolationReason.SECURE_RAM_ACCESS,
                 id="secure-ram-over-rom-atomicity"),
    pytest.param(step(ENTRY + 4, next_pc=0xE010,
                      accesses=[write(VIOLATION_PORT, 1, ENTRY + 4)]),
                 ViolationReason.ROM_EXIT, id="rom-atomicity-over-port"),
    pytest.param(step(0xE010, kind=StepKind.ILLEGAL, illegal=0x0000,
                      accesses=[write(VIOLATION_PORT, 1, 0xE010)]),
                 ViolationReason.SECURE_PORT, id="port-over-illegal"),
]
# A fetch from RAM combined with a PMEM write, and a benign step.
FIRST_WINS = step(0x0200, accesses=[fetch(0x0200, 0x0200), write(0xE000, 1, 0x0200)])
BENIGN = step(0xE010, accesses=[fetch(0xE010, 0xE010), write(0x0300, 5, 0xE010)])


class TestComposition:
    def test_first_violation_wins(self):
        # W-xor-X is checked first in the composition order.
        violation = eilid_monitor().observe(FIRST_WINS)
        assert violation.reason is ViolationReason.W_XOR_X

    def test_benign_step_passes_everything(self):
        assert eilid_monitor().observe(BENIGN) is None

    @pytest.mark.parametrize("record,reason", PRIORITY_CASES)
    def test_first_violation_wins_over_the_next_rule(self, record, reason):
        assert eilid_monitor().observe(record).reason is reason


# ---- the monitor against its rule table ---------------------------------

# Addresses worth hitting: every region's edges, the violation port,
# the IVT and reset vector, and the unmapped gaps between regions.
_SPOTS = sorted({addr for region in LAYOUT.regions
                 for addr in (region.start, region.end - 1)}
                | {VIOLATION_PORT, 0xFFFE, 0x0000, 0x0A00, 0x1100, 0xA800})
ADDRESSES = st.one_of(
    st.sampled_from(_SPOTS),
    st.builds(lambda region, offset: region.start + offset % region.size,
              st.sampled_from(LAYOUT.regions), st.integers(0, 0xFFFF)),
    st.integers(0, 0xFFFF))
# PCs and next-PCs: entry points, the exit range, mid-ROM, and outside.
ROM_SPOTS = (ENTRY, ENTRY + 8, LEAVE, LEAVE + 2, LEAVE + 4, ROM.end - 1)
PCS = st.one_of(st.sampled_from(ROM_SPOTS),
                st.integers(ROM.start, ROM.end).map(lambda a: a & 0xFFFE),
                st.integers(0, 0xFFFF).map(lambda a: a & 0xFFFE))
# Written values: the violation port's reason codes, or any word.
VALUES = st.one_of(st.integers(0, 9), st.integers(0, 0xFFFF))
ACCESSES = st.builds(
    lambda kind, addr, value: Access(kind, addr, value, 2, 0, prev=0),
    st.sampled_from(list(AccessKind)), ADDRESSES, VALUES)
IN_ROM = st.one_of(st.sampled_from(ROM_SPOTS),
                   st.integers(ROM.start, ROM.end).map(lambda a: a & 0xFFFE))
# The one shape the trusted-port row decides: an instruction in ROM
# that stays in ROM and writes the violation port, among random
# accesses it issues.
TRUSTED_PORT_WRITES = st.builds(
    lambda pc, next_pc, before, code, after: StepRecord(
        kind=StepKind.INSTRUCTION, pc=pc, next_pc=next_pc, cycles=1,
        accesses=[access._replace(pc=pc) for access in before]
        + [write(VIOLATION_PORT, code, pc)]
        + [access._replace(pc=pc) for access in after]),
    IN_ROM, IN_ROM, st.lists(ACCESSES, max_size=3), VALUES,
    st.lists(ACCESSES, max_size=3))
RECORDS = st.one_of(
    st.builds(
        lambda kind, pc, next_pc, accesses, word: StepRecord(
            kind=kind, pc=pc, next_pc=next_pc, cycles=1, accesses=accesses,
            illegal_word=word),
        st.sampled_from(list(StepKind)), PCS, PCS,
        st.lists(ACCESSES, max_size=6), st.integers(0, 0xFFFF)),
    TRUSTED_PORT_WRITES)
POLICIES = st.one_of(
    st.sampled_from([MonitorPolicy.casu(), MonitorPolicy.eilid()]),
    st.builds(MonitorPolicy, *[st.booleans()] * len(ARMS)))


@settings(max_examples=600, deadline=None)
@given(record=RECORDS, policy=POLICIES, session_open=st.booleans())
def test_observe_matches_the_rule_by_rule_oracle(record, policy, session_open):
    monitor = HardwareMonitor(LAYOUT, policy, ROM_CONFIG)
    session_open = session_open and policy.pmem_guard
    if session_open:
        monitor.open_update_session()
    signals, witnesses = abstract(record, LAYOUT.flags, ROM_CONFIG, session_open)
    assert monitor.observe(record) == evaluate(record, signals, witnesses, policy)


# ---- the mutation gate ------------------------------------------------------

# The table mutants no corpus step can tell from the table, each with
# why; the gate also proves each equivalent with the model checker.
EQUIVALENT = {
    ("SECURE_RAM_ACCESS", None, None, "swap"):
        "secure-RAM needs !pc_in_rom, IRQ-in-ROM pc_in_rom: never both",
    ("ROM_EXIT", None, None, "swap"):
        "ROM exit needs pc_in_rom, ROM entry !pc_in_rom: never both",
    ("ROM_ENTRY", None, None, "swap"):
        "ROM entry needs !pc_in_rom, the trusted port pc_in_rom: never both",
    ("BAD_SELECTOR", None, None, "swap"):
        "the trusted and untrusted port rows split on pc_in_rom",
    ("SECURE_PORT", 0, 1, "drop"):
        "the trusted-port row, armed by the same field, takes every port "
        "write from ROM first",
}


SHADOW = LAYOUT.secure_dmem.start + 4
# Each rule's boundary, as the classes above pin it.  Random steps
# rarely write the violation port from ROM or leave through the exit
# range, so the draws alone would kill some mutants only by luck;
# these cases alone kill every mutant not in EQUIVALENT.
BOUNDARY_CASES = [
    (step(0x0200, accesses=[fetch(0x0200, 0x0200)]), False),
    (step(0xE010, accesses=[write(0xE100, 1, 0xE010)]), True),
    (step(ENTRY, accesses=[write(0xE100, 1, ENTRY)]), True),
    (step(ENTRY, accesses=[write(0xE100, 1, ENTRY)]), False),
    (step(0xE010, accesses=[read(SHADOW, 0xE010)]), False),
    (step(ENTRY, accesses=[write(SHADOW, 1, ENTRY)]), False),
    (step(0xE010, next_pc=ENTRY), False),
    (step(0xE010, next_pc=ENTRY + 8), False),
    (step(LEAVE + 2, next_pc=0xE010), False),
    (step(ENTRY + 4, next_pc=0xE010), False),
    (step(ENTRY + 4, next_pc=0xFFF2, kind=StepKind.INTERRUPT, vector=9), False),
    (step(0xE010, next_pc=0xFFF2, kind=StepKind.INTERRUPT, vector=9), False),
    (step(ENTRY + 10, accesses=[write(VIOLATION_PORT, 3, ENTRY + 10)]), False),
    (step(0xE010, accesses=[write(VIOLATION_PORT, 1, 0xE010)]), False),
    (step(0xE010, kind=StepKind.ILLEGAL, illegal=0x0000), False),
]


# The corpus's random steps, drawn after its hand-picked cases.
DRAWS = 600


@pytest.fixture(scope="module")
def corpus():
    """Derandomized draws from the property's strategies, the
    composition cases and the rule boundaries, each with its
    abstraction and ``observe``'s verdict."""
    drawn = [(record, MonitorPolicy.eilid(), session_open)
             for record, session_open in BOUNDARY_CASES]
    drawn += [(record, MonitorPolicy.eilid(), False) for record in
              [FIRST_WINS, BENIGN] + [case.values[0] for case in PRIORITY_CASES]]

    @settings(max_examples=DRAWS, derandomize=True, database=None,
              deadline=None, phases=[Phase.generate],
              suppress_health_check=list(HealthCheck))
    @given(record=RECORDS, policy=POLICIES, session_open=st.booleans())
    def draw(record, policy, session_open):
        drawn.append((record, policy, session_open and policy.pmem_guard))

    draw()
    cases = []
    for record, policy, session_open in drawn:
        monitor = HardwareMonitor(LAYOUT, policy, ROM_CONFIG)
        if session_open:
            monitor.open_update_session()
        cases.append((record, policy,
                      abstract(record, LAYOUT.flags, ROM_CONFIG, session_open),
                      monitor.observe(record)))
    return cases


def test_every_table_mutant_is_killed_or_proven_equivalent(corpus):
    ids = []
    survivors = {}
    for mutant_id, rules in mutants():
        ids.append(mutant_id)
        if all(evaluate(record, signals, witnesses, policy, rules) == observed
               for record, policy, (signals, witnesses), observed in corpus):
            survivors[mutant_id] = rules
    # 20 literals dropped and 20 negated, 10 terms dropped, 8 swaps.
    assert len(ids) == len(set(ids)) == 58
    assert set(survivors) == set(EQUIVALENT)
    for mutant_id, rules in survivors.items():
        assert equivalent(rules), mutant_id


def test_the_draws_reach_the_trusted_port_row(corpus):
    """The random steps alone tell the table from the table without its
    trusted-port row, not only the boundary cases."""
    without = tuple(rule for rule in RULES if rule.name != "trusted-port")
    told = sum(evaluate(record, signals, witnesses, policy)
               != evaluate(record, signals, witnesses, policy, without)
               for record, policy, (signals, witnesses), _ in corpus[-DRAWS:])
    assert told >= 10


def test_the_table_itself_survives_its_corpus(corpus):
    for record, policy, (signals, witnesses), observed in corpus:
        assert evaluate(record, signals, witnesses, policy) == observed
