"""The hardware monitor's rules against synthetic step records."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.casu.monitor import (
    SW_REASON_CODES,
    HardwareMonitor,
    MonitorPolicy,
    RomConfig,
    Violation,
    ViolationReason,
)
from repro.cpu.core import StepKind, StepRecord
from repro.memory.bus import Access, AccessKind
from repro.memory.map import MemoryLayout
from repro.peripherals.ports import VIOLATION_PORT

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


class TestComposition:
    def test_first_violation_wins(self):
        # A fetch from RAM combined with a PMEM write: W-xor-X is
        # checked first in the composition order.
        record = step(0x0200, accesses=[fetch(0x0200, 0x0200), write(0xE000, 1, 0x0200)])
        violation = eilid_monitor().observe(record)
        assert violation.reason is ViolationReason.W_XOR_X

    def test_benign_step_passes_everything(self):
        record = step(0xE010, accesses=[fetch(0xE010, 0xE010), write(0x0300, 5, 0xE010)])
        assert eilid_monitor().observe(record) is None

    # One case per adjacent pair in the priority order.  The step trips
    # both rules, with the lower-priority offence first in the access
    # stream, so the verdict cannot come from access order.
    @pytest.mark.parametrize("record,reason", [
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
    ])
    def test_first_violation_wins_over_the_next_rule(self, record, reason):
        assert eilid_monitor().observe(record).reason is reason


# ---- the monitor against a rule-by-rule oracle ----------------------------

# The verdict priority: the first armed rule that fires wins.
PRIORITY = ("w_xor_x", "pmem_guard", "secure_ram_guard", "rom_atomicity",
            "violation_port", "illegal_insn")


def oracle(record, policy, rom_config, session_open):
    """The monitor's verdict, computed one rule at a time."""
    pc = record.pc
    trusted = LAYOUT.in_secure_rom(pc)
    data = [a for a in record.accesses if a.kind is not AccessKind.FETCH]
    writes = [a for a in data if a.kind is AccessKind.WRITE]

    def w_xor_x():
        for a in record.accesses:
            if a.kind is AccessKind.FETCH and not LAYOUT.is_executable(a.addr):
                return Violation(ViolationReason.W_XOR_X, pc, a.addr)
        return None

    def pmem_guard():
        for a in writes:
            if LAYOUT.in_pmem(a.addr) and not (session_open and trusted):
                return Violation(ViolationReason.PMEM_WRITE, pc, a.addr)
        return None

    def secure_ram_guard():
        for a in data:
            if LAYOUT.in_secure_dmem(a.addr) and not trusted:
                return Violation(ViolationReason.SECURE_RAM_ACCESS, pc, a.addr)
        return None

    def rom_atomicity():
        lands_in = LAYOUT.in_secure_rom(record.next_pc)
        if record.kind is StepKind.INTERRUPT and trusted:
            return Violation(ViolationReason.IRQ_IN_ROM, pc)
        if (not trusted and lands_in
                and record.next_pc not in rom_config.entry_points):
            return Violation(ViolationReason.ROM_ENTRY, pc, record.next_pc)
        if trusted and not lands_in and not any(
                lo <= pc <= hi for lo, hi in rom_config.exit_ranges):
            return Violation(ViolationReason.ROM_EXIT, pc, record.next_pc)
        return None

    def violation_port():
        for a in writes:
            if a.addr != VIOLATION_PORT:
                continue
            if trusted:
                return Violation(SW_REASON_CODES.get(a.value,
                                                     ViolationReason.BAD_SELECTOR),
                                 pc, detail="(EILIDsw check failed)")
            return Violation(ViolationReason.SECURE_PORT, pc, a.addr)
        return None

    def illegal_insn():
        if record.kind is StepKind.ILLEGAL:
            return Violation(ViolationReason.ILLEGAL_INSN, pc,
                             detail=f"word=0x{record.illegal_word:04x}")
        return None

    rules = {"w_xor_x": w_xor_x, "pmem_guard": pmem_guard,
             "secure_ram_guard": secure_ram_guard,
             "rom_atomicity": rom_atomicity,
             "violation_port": violation_port, "illegal_insn": illegal_insn}
    for name in PRIORITY:
        if getattr(policy, name):
            verdict = rules[name]()
            if verdict is not None:
                return verdict
    return None


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
ACCESSES = st.builds(
    lambda kind, addr, value: Access(kind, addr, value, 2, 0, prev=0),
    st.sampled_from(list(AccessKind)), ADDRESSES,
    st.one_of(st.integers(0, 9), st.integers(0, 0xFFFF)))
RECORDS = st.builds(
    lambda kind, pc, next_pc, accesses, word: StepRecord(
        kind=kind, pc=pc, next_pc=next_pc, cycles=1, accesses=accesses,
        illegal_word=word),
    st.sampled_from(list(StepKind)), PCS, PCS,
    st.lists(ACCESSES, max_size=6), st.integers(0, 0xFFFF))
POLICIES = st.one_of(
    st.sampled_from([MonitorPolicy.casu(), MonitorPolicy.eilid()]),
    st.builds(MonitorPolicy, *[st.booleans()] * len(PRIORITY)))


@settings(max_examples=600, deadline=None)
@given(record=RECORDS, policy=POLICIES, session_open=st.booleans())
def test_observe_matches_the_rule_by_rule_oracle(record, policy, session_open):
    monitor = HardwareMonitor(LAYOUT, policy, ROM_CONFIG)
    session_open = session_open and policy.pmem_guard
    if session_open:
        monitor.open_update_session()
    assert monitor.observe(record) == oracle(record, policy, ROM_CONFIG,
                                             session_open)
