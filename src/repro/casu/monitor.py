"""Hardware monitor: per-cycle checks over CPU bus signals.

EILID's monitor is combinational logic beside the core: every rule
looks at the same bus signals in the same cycle, and the violation
wires are ORed into one reset line.  Each rule is declared once, as a
row of :data:`RULES`: the reason it reports, the :class:`MonitorPolicy`
field that arms it, its guard -- an OR of AND-terms over the boolean
:data:`SIGNALS` -- and the witness that names the address.  Row order
is the verdict priority: when several armed rules fire on one step,
the first row wins.

1. **W^X** -- no instruction fetch outside executable regions (PMEM +
   secure ROM); blocks code injection.
2. **PMEM guard** -- no PMEM/IVT write unless an authenticated update
   session is open and the write is issued from secure ROM.
3. **secure-RAM guard** -- the shadow-stack bank is accessible only
   while the PC is inside secure ROM (the EILID hardware extension).
4. **ROM atomicity** (three rows) -- secure ROM is never interrupted,
   left only from the declared exit ranges, and entered only at
   declared entry points.
5. **violation port** (two rows) -- a write from ROM is a failed
   EILIDsw CFI check (the value is its reason code); any *untrusted*
   write to the port is itself an attack.
6. **illegal opcode** -- undefined opcodes reset.

Within one rule, the first offending access names the address.  The
monitor-first tables, the verified FSMs
(:mod:`repro.verification.properties`) and the Figure 10 rule blocks
(:mod:`repro.casu.hwmodel`) are generated from the table.
:meth:`HardwareMonitor.observe` stays hand-written for speed, and a
refinement check holds it to :func:`evaluate` over :func:`abstract`'s
signals.

Monitor first
-------------

Most of what the rules read about a step is fixed before the step
runs.  A step record carries its instruction's FETCH records apart
from its data accesses (``fetches``, at ``pc``, ``pc + 2``, ...; see
:mod:`repro.cpu.core`), so whether its fetches can trip a rule is a
function of its PC alone.  Once per distinct layout and arming, and
shared by every monitor in the process, :func:`_static_tables` derives
six 64 KB tables from :data:`RULES` -- fixing the step's non-access
signals of each context and keeping the access signals of every armed
guard term that can still hold -- and keeps one copy of equal tables:

* **untrusted-clean PCs**: outside ROM, with words at ``pc``,
  ``pc + 2`` and ``pc + 4`` that raise no fetch signal an armed row
  reads from untrusted code (a word past 0xFFFF counts as raising
  one);
* **ROM-clean PCs**: ``pc``, ``pc + 2`` and ``pc + 4`` all in ROM;
* **untrusted data trips**, one for reads and one for writes (the
  violation port included when its rows are armed);
* **ROM write trips**, one per update-session state: with the PC and
  the next PC in ROM, only ``pmem-guard`` (with no session open) and
  ``trusted-port`` can still fire, so secure-DMEM accesses from ROM --
  EILID's shadow-stack routines -- never trip.

:meth:`HardwareMonitor.observe` then has two fast paths.  A non-illegal
step at an untrusted-clean PC whose next PC is outside ROM checks its
data accesses only; an instruction at a ROM-clean PC whose next PC is
in ROM checks its writes only.  Each returns ``None`` when nothing
trips, and every other step takes the priority walk: one pass over the
fetches, then one over the data accesses, each answered from the
layout's 64 KB attribute table.
"""

import enum
import functools
from dataclasses import dataclass, fields
from typing import Optional, Tuple

from repro.cpu.core import StepKind
from repro.memory.bus import AccessKind
from repro.memory.map import F_EXEC, F_PMEM, F_SDMEM, F_SROM, MemoryLayout
from repro.peripherals.ports import VIOLATION_PORT

_FETCH = AccessKind.FETCH
_READ = AccessKind.READ
_WRITE = AccessKind.WRITE
_INSTRUCTION = StepKind.INSTRUCTION
_INTERRUPT = StepKind.INTERRUPT
_ILLEGAL = StepKind.ILLEGAL


class ViolationReason(enum.Enum):
    W_XOR_X = "exec-from-nonexecutable"
    PMEM_WRITE = "pmem-write-outside-update"
    SECURE_RAM_ACCESS = "secure-ram-access-from-untrusted-code"
    ROM_ENTRY = "rom-entered-off-entry-point"
    ROM_EXIT = "rom-left-outside-exit-section"
    IRQ_IN_ROM = "interrupt-inside-rom"
    ILLEGAL_INSN = "illegal-instruction"
    SECURE_PORT = "violation-port-write-from-untrusted-code"
    # Reason codes written by EILIDsw to the violation port:
    CFI_RETURN = "cfi-return-address-mismatch"
    CFI_RFI = "cfi-interrupt-context-mismatch"
    CFI_INDIRECT = "cfi-illegal-indirect-target"
    SHADOW_OVERFLOW = "shadow-stack-overflow"
    SHADOW_UNDERFLOW = "shadow-stack-underflow"
    TABLE_OVERFLOW = "function-table-overflow"
    BAD_SELECTOR = "bad-rom-selector"


# EILIDsw reason-code wire values -> reasons (must match trusted_sw.py).
SW_REASON_CODES = {
    1: ViolationReason.CFI_RETURN,
    2: ViolationReason.CFI_RFI,
    3: ViolationReason.CFI_INDIRECT,
    4: ViolationReason.SHADOW_OVERFLOW,
    5: ViolationReason.SHADOW_UNDERFLOW,
    6: ViolationReason.TABLE_OVERFLOW,
    7: ViolationReason.BAD_SELECTOR,
}


@dataclass(frozen=True)
class Violation:
    reason: ViolationReason
    pc: int
    addr: Optional[int] = None
    detail: str = ""

    def __str__(self):
        where = f" addr=0x{self.addr:04x}" if self.addr is not None else ""
        return f"{self.reason.value} at pc=0x{self.pc:04x}{where} {self.detail}".rstrip()


@dataclass(frozen=True)
class RomConfig:
    """Trusted-ROM shape the atomicity monitor enforces."""

    entry_points: Tuple[int, ...] = ()
    exit_ranges: Tuple[Tuple[int, int], ...] = ()  # inclusive address ranges

    def in_exit_range(self, addr):
        return any(start <= addr <= end for start, end in self.exit_ranges)


@dataclass
class MonitorPolicy:
    """Which rules are armed.

    ``casu()`` is the base active-RoT configuration; ``eilid()`` adds
    the secure shadow-stack bank guard and the CFI violation port.
    """

    w_xor_x: bool = True
    pmem_guard: bool = True
    rom_atomicity: bool = True
    secure_ram_guard: bool = False
    violation_port: bool = False
    illegal_insn: bool = True

    @staticmethod
    def casu():
        return MonitorPolicy()

    @staticmethod
    def eilid():
        return MonitorPolicy(secure_ram_guard=True, violation_port=True)


@dataclass(frozen=True)
class Signal:
    """A boolean input of the rules.  An access signal is raised by an
    access of one of *kinds* to an address with one of the ``F_*``
    *bits* (with *absent*: none of them).  The counts are what deciding
    the signal costs in hardware (:mod:`repro.casu.hwmodel`)."""

    name: str
    kinds: Tuple[AccessKind, ...] = ()
    bits: int = 0
    absent: bool = False
    range_comparators: int = 0
    eq_comparators: int = 0
    state_bits: int = 0

    def raised_by(self, kind, flags) -> bool:
        return kind in self.kinds and (not flags & self.bits) is self.absent


SIGNALS = (
    Signal("fetch_nx", (_FETCH,), F_EXEC, absent=True, range_comparators=2),
    Signal("pmem_write", (_WRITE,), F_PMEM, range_comparators=1),
    Signal("sram_access", (_READ, _WRITE), F_SDMEM, range_comparators=1),
    Signal("port_write", eq_comparators=1),  # a write to VIOLATION_PORT
    Signal("pc_in_rom", range_comparators=1),
    # The atomicity FSM's state: where the PC went, registered.
    Signal("next_in_rom", state_bits=2),
    Signal("at_entry", eq_comparators=2),  # next PC is an entry point
    Signal("in_exit", range_comparators=1),  # PC is in an exit range
    Signal("irq"),  # the step accepts an interrupt
    Signal("illegal"),  # the step decoded an undefined opcode
    Signal("update_open", state_bits=1),  # an update session is open
)
_BIT = {signal.name: 1 << index for index, signal in enumerate(SIGNALS)}


@dataclass(frozen=True)
class Rule:
    """A row of :data:`RULES`.  *guard* is written ``"a & !b | c"`` and
    kept as AND-terms of ``(signal, polarity)`` literals.  The verdict
    names the address of witness *addr* (an access signal's first
    access, or ``"next_pc"``); with *code*, its reason is that signal's
    written value looked up in :data:`SW_REASON_CODES`.  *detail* is a
    ``str.format`` template over the step."""

    name: str
    reason: ViolationReason
    arm: str  # the MonitorPolicy field that arms the rule
    guard: tuple
    addr: Optional[str] = None
    code: Optional[str] = None
    detail: str = ""

    def __post_init__(self):
        if isinstance(self.guard, str):
            object.__setattr__(self, "guard", tuple(
                tuple((name.strip().lstrip("!"), "!" not in name)
                      for name in term.split("&"))
                for term in self.guard.split("|")))
        # The guard as (mask, value) pairs over abstract()'s bits.
        object.__setattr__(self, "masks", tuple(
            (sum(_BIT[name] for name, _ in term),
             sum(_BIT[name] for name, polarity in term if polarity))
            for term in self.guard))

    @property
    def reads(self) -> Tuple[str, ...]:
        """The signals the guard reads, in :data:`SIGNALS` order."""
        names = {name for term in self.guard for name, _ in term}
        return tuple(signal.name for signal in SIGNALS if signal.name in names)

    def holds(self, inputs) -> bool:
        """The guard over named boolean inputs (the FSM view)."""
        return any(all(inputs[name] is polarity for name, polarity in term)
                   for term in self.guard)

    def violation(self, step, witnesses) -> Violation:
        """The verdict on *step*.  A witness or step field the step
        lacks (only a mutated guard fires without it) names nothing."""
        coded = witnesses.get(self.code)
        reason = (self.reason if coded is None
                  else SW_REASON_CODES.get(coded.value, self.reason))
        addr = (step.next_pc if self.addr == "next_pc"
                else getattr(witnesses.get(self.addr), "addr", None))
        try:
            detail = self.detail.format(step)
        except TypeError:
            detail = ""
        return Violation(reason, step.pc, addr, detail)


# The policy fields, in order: what arms each rule.
ARMS = tuple(field.name for field in fields(MonitorPolicy))

# The rule table, in priority order.
RULES = (
    Rule("w-xor-x", ViolationReason.W_XOR_X, "w_xor_x", "fetch_nx",
         addr="fetch_nx"),
    Rule("pmem-guard", ViolationReason.PMEM_WRITE, "pmem_guard",
         "pmem_write & !pc_in_rom | pmem_write & !update_open",
         addr="pmem_write"),
    Rule("secure-ram-guard", ViolationReason.SECURE_RAM_ACCESS,
         "secure_ram_guard", "sram_access & !pc_in_rom", addr="sram_access"),
    Rule("irq-in-rom", ViolationReason.IRQ_IN_ROM, "rom_atomicity",
         "pc_in_rom & irq"),
    Rule("rom-exit", ViolationReason.ROM_EXIT, "rom_atomicity",
         "pc_in_rom & !next_in_rom & !in_exit", addr="next_pc"),
    Rule("rom-entry", ViolationReason.ROM_ENTRY, "rom_atomicity",
         "!pc_in_rom & next_in_rom & !at_entry", addr="next_pc"),
    Rule("trusted-port", ViolationReason.BAD_SELECTOR, "violation_port",
         "port_write & pc_in_rom", code="port_write",
         detail="(EILIDsw check failed)"),
    Rule("untrusted-port", ViolationReason.SECURE_PORT, "violation_port",
         "port_write & !pc_in_rom", addr="port_write"),
    Rule("illegal-opcode", ViolationReason.ILLEGAL_INSN, "illegal_insn",
         "illegal", detail="word=0x{0.illegal_word:04x}"),
)

# Per access kind, F_* byte -> the bits of the access signals it raises.
_FETCH_BITS, _READ_BITS, _WRITE_BITS = (
    tuple(sum(_BIT[signal.name] for signal in SIGNALS
              if signal.raised_by(kind, flags)) for flags in range(256))
    for kind in (_FETCH, _READ, _WRITE))
_WITNESSED = [(_BIT[signal.name], signal.name) for signal in SIGNALS
              if signal.kinds or signal.name == "port_write"]
_ACCESS_SIGNALS = sum(bit for bit, _ in _WITNESSED)


def abstract(step, flags, rom_config: RomConfig, session_open: bool):
    """A step's signals, as bits (bit *i* is ``SIGNALS[i]``), and its
    witnesses: the first access that raised each access signal and
    ``port_write``.  *flags* is the layout's attribute table."""
    signals = 0
    witnesses = {}
    for access in (*step.fetches, *step.accesses):
        kind, addr = access.kind, access.addr
        if kind is _FETCH:
            raised = _FETCH_BITS[flags[addr]]
        elif kind is _WRITE:
            raised = _WRITE_BITS[flags[addr]]
            if addr == VIOLATION_PORT:
                raised |= _BIT["port_write"]
        else:
            raised = _READ_BITS[flags[addr]]
        if raised & ~signals:
            for bit, name in _WITNESSED:
                if raised & bit & ~signals:
                    witnesses[name] = access
            signals |= raised
    pc, next_pc = step.pc, step.next_pc
    for name, raised in (
            ("pc_in_rom", flags[pc] & F_SROM),
            ("next_in_rom", flags[next_pc] & F_SROM),
            ("at_entry", next_pc in rom_config.entry_points),
            ("in_exit", rom_config.in_exit_range(pc)),
            ("irq", step.kind is _INTERRUPT),
            ("illegal", step.kind is _ILLEGAL),
            ("update_open", session_open)):
        if raised:
            signals |= _BIT[name]
    return signals, witnesses


def evaluate(step, signals, witnesses, policy: MonitorPolicy,
             rules=RULES) -> Optional[Violation]:
    """The table's verdict on an abstracted step: the first armed rule
    whose guard holds, or None."""
    for rule in rules:
        for mask, value in rule.masks:
            if signals & mask == value:
                if getattr(policy, rule.arm):
                    return rule.violation(step, witnesses)
                break
    return None


# The contexts the fast paths decide, as the non-access signals each
# fixes: an untrusted step that stays out of ROM and is not illegal
# (an interrupt may be), and a trusted instruction that stays in ROM,
# with the update session either way or as given.
_UNTRUSTED = (("pc_in_rom", False), ("next_in_rom", False),
              ("illegal", False))
_TRUSTED = (("pc_in_rom", True), ("next_in_rom", True), ("irq", False),
            ("illegal", False))


# 256-byte translations of F_* bytes, and 64 KB table arithmetic.
_ALL = bytes([1]) * 256
_NONE = bytes(256)
_NOT = bytes([1]) + bytes(255)  # 0 -> 1, else 0
_IN_ROM = bytes(bool(flags & F_SROM) for flags in range(256))
_SIZE = 0x10000
_EVEN = int.from_bytes(b"\x01\x00" * (_SIZE // 2), "little")
# Tables by content, so monitors whose tables agree share one copy.
_INTERNED = {}


@functools.lru_cache(maxsize=None)
def _trip_translations(arming, context):
    """Per access kind (fetch, read, write), a 256-byte translation of
    ``F_*`` attribute bytes, and whether a violation-port write trips.
    A translation holds 1 where the access raises a signal read by a
    guard term of a rule *arming* arms (the policy's field values) that
    can still hold once the step's non-access signals are fixed to
    *context*'s ``(signal, value)`` pairs.  A term that could hold with
    no access signal raised makes every access trip."""
    policy = MonitorPolicy(*arming)
    fixed = dict(context)
    read = 0
    for rule in RULES:
        if not getattr(policy, rule.arm):
            continue
        for term in rule.guard:
            if all(fixed.get(name, polarity) is polarity
                   for name, polarity in term):
                raised = sum(_BIT[name] for name, polarity in term
                             if polarity and _BIT[name] & _ACCESS_SIGNALS)
                read |= raised or -1
    if read < 0:
        return (_ALL,) * 3 + (True,)
    return tuple(bytes(bool(raised & read) for raised in table)
                 for table in (_FETCH_BITS, _READ_BITS, _WRITE_BITS)) + (
        bool(read & _BIT["port_write"]),)


def _intern(table: bytes) -> bytes:
    return _INTERNED.setdefault(table, table)


def _trip_table(flags, translation, port) -> bytes:
    """*flags* through *translation*, with 1 at the violation port when
    *port* says a write there trips."""
    table = flags.translate(translation)
    if port:
        table[VIOLATION_PORT] = 1
    return _intern(bytes(table))


def _three_words(flags, translation) -> int:
    """As an int, byte *pc* of which is 1 at each even *pc* whose words
    at ``pc``, ``pc + 2`` and ``pc + 4`` all map to 1 through
    *translation*; a word past 0xFFFF maps to 0."""
    ok = int.from_bytes(flags.translate(translation), "little")
    return ok & ok >> 16 & ok >> 32 & _EVEN


@functools.lru_cache(maxsize=None)
def _static_tables(regions, arming):
    """The monitor-first tables of a layout of *regions* under *arming*
    (see the module docstring): ``(untrusted-clean PCs, ROM-clean PCs,
    untrusted read trips, untrusted write trips, (ROM write trips with
    the session closed, with it open))``, each a 64 KB ``bytes`` of
    0/1.  Derived once per distinct set of regions and arming in the
    process."""
    flags = MemoryLayout(list(regions)).flags
    fetch, read, write, port = _trip_translations(arming, _UNTRUSTED)
    outside = int.from_bytes(flags.translate(_IN_ROM.translate(_NOT)),
                             "little")
    untrusted_clean = _three_words(flags, fetch.translate(_NOT)) & outside
    rom_fetch, rom_read, _, _ = _trip_translations(arming, _TRUSTED)
    rom_clean = 0
    if rom_read == _NONE:  # a trusted read trips nothing
        rom_clean = _three_words(flags, bytes(
            rom and not trip for rom, trip in zip(_IN_ROM, rom_fetch)))
    rom_writes = tuple(
        _trip_table(flags, *_trip_translations(
            arming, _TRUSTED + (("update_open", session),))[2:])
        for session in (False, True))
    return (_intern(untrusted_clean.to_bytes(_SIZE, "little")),
            _intern(rom_clean.to_bytes(_SIZE, "little")),
            _trip_table(flags, read, False),
            _trip_table(flags, write, port),
            rom_writes)


class HardwareMonitor:
    """The armed rules of a :class:`MonitorPolicy`, checked in one pass."""

    def __init__(self, layout, policy: Optional[MonitorPolicy] = None,
                 rom_config: Optional[RomConfig] = None):
        self.layout = layout
        self.policy = policy or MonitorPolicy.casu()
        self.rom_config = rom_config or RomConfig()
        self.update_session_open = False
        policy = self.policy
        # Arming is fixed at construction, like the synthesized rules:
        # region bits that make a data access illegal from untrusted
        # code, and which rules are armed at all.
        self._pmem_bits = F_PMEM if policy.pmem_guard else 0
        self._sram_bits = F_SDMEM if policy.secure_ram_guard else 0
        self._port = VIOLATION_PORT if policy.violation_port else -1
        self._w_xor_x = policy.w_xor_x
        self._atomic = policy.rom_atomicity
        self._illegal = policy.illegal_insn
        self._flags = layout.flags
        (self._untrusted_clean, self._rom_clean, self._read_trips,
         self._write_trips, self._rom_write_trips) = _static_tables(
            tuple(layout.regions), tuple(getattr(policy, name) for name in ARMS))

    def observe(self, step) -> Optional[Violation]:
        """Check one CPU step; the highest-priority violation wins."""
        if self._untrusted_clean[step.pc]:
            # The PC's fetches raise nothing an armed rule reads, so an
            # untrusted step that stays out of ROM can only trip a rule
            # through a data access; most touch none a rule guards.
            if (not self._flags[step.next_pc] & F_SROM
                    and step.kind is not _ILLEGAL):
                for access in step.accesses:
                    if access.kind is _WRITE:
                        if self._write_trips[access.addr]:
                            break
                    elif self._read_trips[access.addr]:
                        break
                else:
                    return None
        elif self._rom_clean[step.pc]:
            # A trusted instruction that stays in ROM can only trip a
            # rule by a write: to PMEM outside an update session, or to
            # the violation port.
            if self._flags[step.next_pc] & F_SROM and step.kind is _INSTRUCTION:
                write_trips = self._rom_write_trips[self.update_session_open]
                for access in step.accesses:
                    if access.kind is _WRITE and write_trips[access.addr]:
                        break
                else:
                    return None
        pc = step.pc
        flags = self._flags
        if self._w_xor_x:
            for access in step.fetches:
                if not flags[access.addr] & F_EXEC:
                    return Violation(ViolationReason.W_XOR_X, pc, access.addr)
        trusted = flags[pc] & F_SROM
        if trusted:
            read_guard = 0
            write_guard = 0 if self.update_session_open else self._pmem_bits
        else:
            read_guard = self._sram_bits
            write_guard = read_guard | self._pmem_bits
        port = self._port
        pmem_hit = sram_hit = port_hit = None
        for access in step.accesses:
            addr = access.addr
            if access.kind is _WRITE:
                bits = flags[addr] & write_guard
                if addr == port and port_hit is None:
                    port_hit = access
            else:
                bits = flags[addr] & read_guard
            if bits:
                if bits & F_PMEM and pmem_hit is None:
                    pmem_hit = addr
                if bits & F_SDMEM and sram_hit is None:
                    sram_hit = addr
        if pmem_hit is not None:
            return Violation(ViolationReason.PMEM_WRITE, pc, pmem_hit)
        if sram_hit is not None:
            return Violation(ViolationReason.SECURE_RAM_ACCESS, pc, sram_hit)
        if self._atomic:
            next_pc = step.next_pc
            if trusted:
                if step.kind is _INTERRUPT:
                    return Violation(ViolationReason.IRQ_IN_ROM, pc)
                if (not flags[next_pc] & F_SROM
                        and not self.rom_config.in_exit_range(pc)):
                    return Violation(ViolationReason.ROM_EXIT, pc, next_pc)
            elif (flags[next_pc] & F_SROM
                  and next_pc not in self.rom_config.entry_points):
                return Violation(ViolationReason.ROM_ENTRY, pc, next_pc)
        if port_hit is not None:
            if trusted:
                reason = SW_REASON_CODES.get(port_hit.value,
                                             ViolationReason.BAD_SELECTOR)
                return Violation(reason, pc, detail="(EILIDsw check failed)")
            return Violation(ViolationReason.SECURE_PORT, pc, port_hit.addr)
        if self._illegal and step.kind is _ILLEGAL:
            return Violation(ViolationReason.ILLEGAL_INSN, pc,
                             detail=f"word=0x{step.illegal_word:04x}")
        return None

    def reset(self):
        self.update_session_open = False

    # ---- update session control (driven by the update engine) -----------

    def open_update_session(self):
        if not self.policy.pmem_guard:
            raise RuntimeError("monitor has no PMEM guard to unlock")
        self.update_session_open = True

    def close_update_session(self):
        self.update_session_open = False

    # ---- snapshot/restore (see repro.snapshot) -----------------------

    def snapshot_state(self):
        """The monitor's only mutable state: the PMEM-guard session."""
        return {"update_session_open": self.update_session_open}

    def restore_state(self, state):
        self.update_session_open = (self.policy.pmem_guard
                                    and bool(state["update_session_open"]))
