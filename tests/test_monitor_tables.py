"""The invariants the monitor's fast paths rest on.

:meth:`repro.casu.monitor.HardwareMonitor.observe` decides a step's
fetches from its PC alone and checks only its data accesses, using
static tables derived from the rule table.  That is sound when two
things hold, and these tests check both:

* the CPU's records have the shape the tables assume: a step's
  ``fetches`` are exactly its instruction's words at ``pc``,
  ``pc + 2``, ..., in order, on the cached and the uncached path alike;
  ``accesses`` holds no FETCH; an interrupt fetches nothing; and an
  illegal step keeps the words it fetched;
* the tables are exact: for all 64 armings, no PC or address a table
  calls clean can make an armed row fire in its context, by
  :func:`~repro.casu.monitor.abstract` and
  :func:`~repro.casu.monitor.evaluate` over every even PC and every
  address, and each one a table calls tripping can.
"""

import itertools

import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from repro.casu.monitor import (
    ARMS,
    SIGNALS,
    HardwareMonitor,
    MonitorPolicy,
    RomConfig,
    abstract,
    evaluate,
)
from repro.cpu.core import StepKind, StepRecord
from repro.device import build_device
from repro.memory.bus import Access, AccessKind
from repro.memory.map import MemoryLayout
from repro.peripherals.ports import VIOLATION_PORT
from repro.toolchain import link, parse_source

_PROGRAM = """
    .text
__start:
    jmp __start
    .vector 15, __start
"""

# ---- the CPU's records ------------------------------------------------------

# Sites: any word in PMEM, or the top of memory, where an extension
# word's fetch runs off the address space.
SITES = st.one_of(st.integers(0xE000 // 2, 0xFFDE // 2).map(lambda w: 2 * w),
                  st.sampled_from([0xFFFA, 0xFFFC, 0xFFFE]))


@pytest.fixture(scope="module")
def devices():
    program = link([parse_source(_PROGRAM, "shape.s")], name="shape")
    cached = build_device(program, decode_cache=True)
    uncached = build_device(program, decode_cache=False)
    return cached, uncached, cached.snapshot()


def _step(device, snapshot, site, words, regs, irq):
    """Restore, plant *words* at *site*, load *regs*, maybe raise an
    interrupt, and step once; returns the record and the words at
    ``site``, ``site + 2``, ... as memory held them before the step."""
    device.restore(snapshot)
    bus = device.bus
    for offset, word in enumerate(words):
        if site + 2 * offset < 0x10000:
            bus.poke_word(site + 2 * offset, word)
    planted = [bus.peek_word(addr) for addr in range(site, min(site + 6, 0x10000), 2)]
    cpu = device.cpu
    cpu.regs = list(regs)
    cpu.regs[0] = site
    if irq:
        cpu.regs[2] |= 0x0008  # GIE
        cpu.ic.request(9)
    return cpu.step(), planted


def _check_shape(record, site, planted):
    assert not any(access.kind is AccessKind.FETCH
                   for access in record.accesses)
    assert all(access.kind is AccessKind.FETCH for access in record.fetches)
    if record.kind is StepKind.INTERRUPT:
        assert record.fetches == ()
        return
    # The words at pc, pc + 2, ..., as fetched, in order.
    assert [(access.addr, access.value) for access in record.fetches] == \
        list(zip(range(site, 0x10000, 2), planted))[:len(record.fetches)]
    if record.kind is StepKind.INSTRUCTION:
        assert len(record.fetches) == record.insn.size_bytes // 2
    else:
        assert record.fetches and record.illegal_word == record.fetches[0].value


def test_a_step_fetches_exactly_its_words(devices):
    """A derandomized property over random instruction words at random
    PMEM addresses, with random registers, some steps taking an
    interrupt instead: on both paths, the record's fetches are its
    words at ``pc``, ``pc + 2``, ... and its accesses hold no fetch,
    and the two paths' records are equal."""
    cached, uncached, snapshot = devices
    kinds = set()

    @settings(max_examples=400, derandomize=True, database=None,
              deadline=None, phases=[Phase.explicit, Phase.generate],
              suppress_health_check=list(HealthCheck))
    @given(site=SITES,
           words=st.lists(st.integers(0, 0xFFFF), min_size=3, max_size=3),
           regs=st.lists(st.integers(0, 0xFFFF), min_size=16, max_size=16),
           irq=st.integers(0, 7).map(lambda n: n == 0))
    def check(site, words, regs, irq):
        records = []
        for device in (cached, uncached):
            record, planted = _step(device, snapshot, site, words, regs, irq)
            _check_shape(record, site, planted)
            records.append(record)
        assert records[0] == records[1]
        kinds.add(records[0].kind)

    check()
    assert kinds == set(StepKind)


# ---- the tables against the rule table ---------------------------------------

LAYOUT = MemoryLayout.default()
FLAGS = LAYOUT.flags
ROM = LAYOUT.secure_rom
ROM_CONFIG = RomConfig(entry_points=(ROM.start,),
                       exit_ranges=((ROM.start + 0x40, ROM.start + 0x42),))
ARMINGS = list(itertools.product((False, True), repeat=len(ARMS)))
BIT = {signal.name: 1 << index for index, signal in enumerate(SIGNALS)}
# The signals a step's accesses raise, and the ones its context fixes.
ACCESS_BITS = BIT["fetch_nx"] | BIT["pmem_write"] | BIT["sram_access"] | \
    BIT["port_write"]
FREE = ("irq", "update_open", "at_entry", "in_exit")
UNTRUSTED_PC = 0xE010


def _fetch(addr):
    return Access(AccessKind.FETCH, addr, 0, 2)


def _record(pc, next_pc, fetches=(), accesses=()):
    return StepRecord(StepKind.INSTRUCTION, pc, next_pc, 1,
                      tuple(fetches), list(accesses))


def _access_bits(record):
    """The access signals :func:`abstract` finds in *record*."""
    return abstract(record, FLAGS, ROM_CONFIG, False)[0] & ACCESS_BITS


@pytest.fixture(scope="module")
def raised():
    """By :func:`abstract`: per even PC, the access signals of a
    fetch-only step there of each instruction length that fits; per
    address, those of a lone read and a lone write (which do not depend
    on the PC)."""
    fetches = {pc: [_access_bits(_record(pc, pc, map(_fetch, range(
        pc, pc + 2 * words, 2)))) for words in (1, 2, 3)
        if pc + 2 * words <= 0x10000] for pc in range(0, 0x10000, 2)}
    reads, writes = ([_access_bits(_record(UNTRUSTED_PC, UNTRUSTED_PC, (), [
        Access(kind, addr, 1, 2, 0)])) for addr in range(0x10000)]
        for kind in (AccessKind.READ, AccessKind.WRITE))
    return fetches, reads, writes


def _contexts(fixed):
    """The context signal bits of every assignment of the signals that
    *fixed* leaves free."""
    free = [name for name in FREE if name not in fixed]
    for values in itertools.product((False, True), repeat=len(free)):
        yield sum(BIT[name] for name, value in (*fixed.items(),
                                                *zip(free, values)) if value)


def _fires(policy, bits):
    return evaluate(_record(0, 0), bits, {}, policy) is not None


def _subsets(bits):
    """Every combination of the signal bits in *bits*."""
    singles = [bit for bit in BIT.values() if bits & bit]
    for count in range(len(singles) + 1):
        for chosen in itertools.combinations(singles, count):
            yield sum(chosen)


def _never_fires(policy, fixed, passed):
    """No armed row fires on any combination of the access signals in
    *passed* under any context *fixed* allows."""
    return not any(_fires(policy, access | context)
                   for access in _subsets(passed)
                   for context in _contexts(fixed))


def _can_fire(policy, fixed, bits):
    return any(_fires(policy, bits | context) for context in _contexts(fixed))


def _union(values):
    total = 0
    for value in values:
        total |= value
    return total


def _split(table, bits):
    """The union of the signals of what *table* passes, and the set of
    signal values of what it flags."""
    passed, flagged = 0, set()
    for trip, value in zip(table, bits):
        if trip:
            flagged.add(value)
        else:
            passed |= value
    return passed, flagged


UNTRUSTED = {"pc_in_rom": False, "next_in_rom": False, "illegal": False}
TRUSTED = {"pc_in_rom": True, "next_in_rom": True, "irq": False,
           "illegal": False}


@pytest.mark.parametrize("arming", ARMINGS, ids=lambda a: "".join(
    str(int(armed)) for armed in a))
def test_the_tables_are_exact(raised, arming):
    """Every even PC and every address, for one arming: what a table
    calls clean never fires, alone or with anything else the same fast
    path lets through, and what it calls tripping can fire."""
    fetches, reads, writes = raised
    policy = MonitorPolicy(*arming)
    monitor = HardwareMonitor(LAYOUT, policy, ROM_CONFIG)
    untrusted_clean = monitor._untrusted_clean
    rom_clean = monitor._rom_clean
    assert not any(untrusted_clean[1::2]) and not any(rom_clean[1::2])

    # Untrusted-clean PCs: outside ROM; every other PC outside ROM
    # whose three words fit can fire with a three-word instruction.
    pcs = range(0, 0x10000, 2)
    assert not any(untrusted_clean[pc] and pc in ROM for pc in pcs)
    clean_fetches = _union(bits for pc in pcs if untrusted_clean[pc]
                           for bits in fetches[pc])
    for bits in {fetches[pc][2] for pc in range(0, 0xFFFC, 2)
                 if not untrusted_clean[pc] and pc not in ROM}:
        assert _can_fire(policy, UNTRUSTED, bits)
    # Untrusted data accesses: what the tables pass never fires, alone
    # or with anything else they or a clean PC pass; each access they
    # flag can fire alone.
    read_passed, read_flagged = _split(monitor._read_trips, reads)
    write_passed, write_flagged = _split(monitor._write_trips, writes)
    assert _never_fires(policy, UNTRUSTED,
                        clean_fetches | read_passed | write_passed)
    for bits in read_flagged | write_flagged:
        assert _can_fire(policy, UNTRUSTED, bits)

    # ROM-clean PCs: exactly the even PCs whose three words are in ROM.
    assert [pc for pc in pcs if rom_clean[pc]] == [
        pc for pc in range(0, 0xFFFC, 2)
        if pc in ROM and pc + 2 in ROM and pc + 4 in ROM]
    rom_fetches = _union(bits for pc in pcs if rom_clean[pc]
                         for bits in fetches[pc])
    # ROM writes, per session: what the table passes never fires, with
    # a ROM-clean PC's fetches and any read (the fast path checks
    # neither); each write it flags can fire.
    any_read = _union(reads)
    for session in (False, True):
        fixed = {**TRUSTED, "update_open": session}
        passed, flagged = _split(monitor._rom_write_trips[session], writes)
        assert _never_fires(policy, fixed, passed | rom_fetches | any_read)
        for bits in flagged:
            assert _can_fire(policy, fixed, bits)


def test_layouts_with_equal_regions_share_their_tables():
    policy = MonitorPolicy.eilid()
    first = HardwareMonitor(MemoryLayout.default(), policy, ROM_CONFIG)
    second = HardwareMonitor(MemoryLayout.default(), policy, ROM_CONFIG)
    assert first._untrusted_clean is second._untrusted_clean
    assert first._write_trips is second._write_trips
    # With a session open, a trusted write trips only at the port.
    assert [addr for addr, trip in enumerate(first._rom_write_trips[True])
            if trip] == [VIOLATION_PORT]
