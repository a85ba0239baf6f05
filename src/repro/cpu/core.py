"""The MSP430 CPU core.

One :meth:`Cpu.step` executes a single architectural event -- interrupt
acceptance or one instruction -- updates the register file and bus, and
returns a :class:`StepRecord` carrying everything the hardware monitors
observe: the issuing PC, the resulting PC, the instruction's fetches and
the step's data accesses on the bus, and whether the step was an
interrupt entry.

Instruction semantics and cycle counts follow SLAU049 (MSP430x1xx
Family User's Guide).  Deviations, all harmless to the EILID argument,
are documented inline.

The monitored step
------------------

Every simulated step makes the same calls, in the same order, whatever
drives it (:meth:`repro.device.Device.run`, ``run_steps``, ``step`` or
``call_routine``, all through ``Device._run_loop``):

* exactly one :meth:`Cpu.step`, which returns the step's record;
* with a monitor, exactly one
  :meth:`repro.casu.monitor.HardwareMonitor.observe` of that record;
* on a control-flow edge only, one
  :meth:`repro.cfg.trace.BranchTraceRecorder.observe` from inside
  :meth:`Cpu.step`, given the edge's kind, which appends one edge
  through ``record_edge``.

These calls are the seams the layer ledger counts and times, so the
run loop binds them when a run starts, never when a device is built.

A :class:`StepRecord` is immutable by contract: nothing may assign to
its fields, or add to or reorder its ``accesses``, once
:meth:`Cpu.step` has returned it; its ``fetches`` tuple may be shared
with other records of the same cached instruction.  The monitor, the
trace recorder, the device's violation rollback and any run observer
all read the same record, and lockstep tests compare records from two
devices by value.  Every record gets an access list of its own, and a
step that uses the bus leaves it a new one, so no later bus access
lands in a record already returned.

Decoded-instruction cache
-------------------------

The hot path keeps a cache ``{pc: step}`` so straight-line
re-execution never re-decodes.  Each entry is the instruction at that
PC compiled by :func:`repro.cpu.compiler.compile_step` into one
function, called as ``step(cpu, regs, bus)``, that runs the whole
cached step and returns its record, so a hit is one lookup and one
call.  The entry binds the issuing PC, the fall-through address, the
FETCH records of the instruction's words and the instruction itself;
its code, shared by every entry of the same instruction in the
process, holds the cycles, the instruction body and the trace-edge
rule :mod:`repro.isa.transfer` assigns the instruction.  A step
records its edge when it leaves the fall-through address, and a
``call`` or ``reti`` records it even when it does not.  The uncached
path classifies on every step.

A step record's bus stream is ``fetches`` followed by ``accesses``:
``fetches`` holds the FETCH records of the instruction's words, at
``pc``, ``pc + 2``, and so on, and ``accesses`` only the step's READ
and WRITE records, in order.  On a cache hit ``fetches`` is the
entry's own tuple, never copied; the uncached path builds it after
decoding.  An interrupt step fetches nothing, and an illegal step
keeps the words it fetched.  The monitor decides the fetches of a PC
once, from static tables, and checks only the data accesses of most
steps (see :mod:`repro.casu.monitor`).

An entry is a function of its PC and the 1-3 words it was decoded
from, so devices of one program share them: each
:class:`~repro.toolchain.linker.LinkedProgram` keeps one decode table,
``{pc: entry}``, beside its image (``decode_table``, installed by the
device through :meth:`Cpu.share_decodes`).  A hit is still one lookup
in the device's own dict.  On a miss the device adopts the table's
entry for that PC if its current words over the entry's whole span
equal the image's; otherwise it decodes, and publishes the new entry
(``setdefault``, before the instruction executes) only if the decoded
words equal the image's.  So the table holds only entries of the
image's code, and a device whose words differ from the image's there
-- self-modified, updated, poked -- decodes its own.  Invalidation
stays per device: a device's writes kill entries in its own dict
alone, never in the table or another device's dict, so no device runs
a shared entry after writing that entry's words.  The invalidation
contract, shared with :class:`repro.memory.bus.Bus`:

* filling an entry, decoded or adopted, registers every word address
  the instruction's encoding occupies with the bus
  (:meth:`Bus.note_code_cached`);
* **any** mutation of memory through the bus -- CPU-issued writes,
  back-door ``poke_word``/``load_bytes``, violation-rollback restores --
  kills every entry whose registered words overlap the written word, so
  self-modifying and attacker-injected code always re-decodes (and a
  changed encoding is a different instruction, so it never meets a
  stale compiled step);
* a cache hit's record carries the entry's FETCH records, the records
  the filling step's own fetches made, so the monitor-visible access
  stream is bit-identical to an uncached run (the invalidation rule
  guarantees the underlying words have not changed);
* compiled steps make the generic executors' bus accesses in the same
  order with the same arguments, so access records, peripheral
  handlers and invalidation see no difference.

Interrupt acceptance, ILLEGAL/fault steps and an odd PC are never
cached.  Passing ``decode_cache=False`` (or flipping
:data:`DECODE_CACHE_DEFAULT`) disables the cache and runs the generic
``_ex_*`` executors, the reference: the differential tests in
``tests/test_decode_cache.py`` assert both paths produce identical
StepRecords, cycle totals and monitor verdicts over whole programs,
``tests/test_decode_table.py`` holds devices sharing a table to
uncached twins through self-modifying code, updates, fault pokes and a
sibling that rewrites code another device keeps running, and
``tests/test_compiled_executors.py`` compares whole compiled steps
with uncached ones one instruction at a time over every opcode and
addressing mode.
"""

import enum
from typing import Optional

from repro.cpu.compiler import compile_step, step_fetches
from repro.errors import DecodingError, MemoryAccessError
from repro.isa import decode, instruction_cycles, INTERRUPT_CYCLES
from repro.isa.operands import AddrMode
from repro.isa.registers import (
    FLAG_C,
    FLAG_GIE,
    FLAG_N,
    FLAG_V,
    FLAG_Z,
    NUM_REGISTERS,
    PC,
    SP,
    SR,
)
from repro.isa.transfer import ALWAYS_EDGES, EDGE_IRQ, EDGE_KINDS, classify_insn
from repro.memory.bus import Bus
from repro.memory.map import RESET_VECTOR

# Process-wide default for new CPUs; tests flip this to run whole
# subsystems (attacks, apps) through the uncached path differentially.
DECODE_CACHE_DEFAULT = True


class StepKind(enum.Enum):
    INSTRUCTION = "instruction"
    INTERRUPT = "interrupt"
    ILLEGAL = "illegal"


class StepRecord:
    """Everything one step exposes to the monitors and to traces.

    Immutable by contract (see the module docstring).  Slots, not a
    named tuple: under CPython 3.11 a slot is read by specialized
    bytecode and a named-tuple field through a descriptor call, and the
    monitor reads four fields of every record.  A compiled step fills
    the slots of its instruction records directly.
    """

    __slots__ = ("kind", "pc", "next_pc", "cycles", "fetches", "accesses",
                 "insn", "vector", "illegal_word")

    def __init__(self, kind: StepKind, pc: int, next_pc: int, cycles: int,
                 fetches=(), accesses=(), insn=None,
                 vector: Optional[int] = None,
                 illegal_word: Optional[int] = None):
        self.kind = kind
        self.pc = pc  # PC before the step (issuing PC)
        self.next_pc = next_pc  # PC after the step
        self.cycles = cycles
        # The FETCH records of the instruction's words, in order, then
        # the step's READ/WRITE records, in order: its bus stream.
        self.fetches = fetches
        self.accesses = accesses
        self.insn = insn  # Instruction for INSTRUCTION steps
        self.vector = vector  # vector index for INTERRUPT steps
        self.illegal_word = illegal_word

    def __eq__(self, other):
        if type(other) is not StepRecord:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in self.__slots__)

    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"StepRecord({fields})"

    def __str__(self):
        if self.kind is StepKind.INTERRUPT:
            body = f"IRQ vector {self.vector}"
        elif self.kind is StepKind.ILLEGAL:
            body = f"ILLEGAL 0x{self.illegal_word:04x}"
        else:
            body = self.insn.render()
        return f"0x{self.pc:04x}: {body} ({self.cycles} cyc)"


class Cpu:
    """Register file + execution engine."""

    def __init__(self, bus: Bus, interrupt_controller, decode_cache=None):
        self.bus = bus
        self.regs = [0] * NUM_REGISTERS
        self.ic = interrupt_controller
        self.total_cycles = 0
        self.instruction_count = 0
        # Hardware gate: when this predicate returns True for the current
        # PC, pending interrupts are *deferred* (EILID keeps IRQs out of
        # the secure ROM to preserve atomicity).  Installed by the device.
        self.irq_deferred_at = lambda pc: False
        # Branch-trace tap: an object with .observe(StepRecord, kind)
        # (the EILID trace-attestation recorder), installed by the
        # device.  It sees only the steps that are control-flow edges,
        # each with its edge kind; None skips even that.
        self.trace_sink = None
        # Extension-word fetch cursor for the decoder's callback.
        self._fetch_addr = 0
        if decode_cache is None:
            decode_cache = DECODE_CACHE_DEFAULT
        self._dcache: Optional[dict] = {} if decode_cache else None
        if self._dcache is not None:
            bus.bind_decode_cache(self._dcache)
        # The program's decode table and the image its entries were
        # decoded from (see share_decodes); None for a bare CPU.
        self._program_decodes: Optional[dict] = None
        self._program_image: Optional[bytes] = None

    def share_decodes(self, table: dict, image: bytes):
        """Fill this CPU's decode cache through *table*, the decode
        table of the program whose loaded *image* the bus started as
        (see the module docstring).  Installed by the device; a CPU
        without a decode cache keeps decoding every step."""
        if self._dcache is not None:
            self._program_decodes = table
            self._program_image = image

    # ---- register helpers -------------------------------------------------

    def get_reg(self, num):
        return self.regs[num]

    def set_reg(self, num, value):
        value &= 0xFFFF
        if num == PC:
            value &= 0xFFFE  # instruction stream is word aligned
        self.regs[num] = value

    @property
    def pc(self):
        return self.regs[PC]

    @pc.setter
    def pc(self, value):
        self.set_reg(PC, value)

    @property
    def sp(self):
        return self.regs[SP]

    @property
    def sr(self):
        return self.regs[SR]

    @property
    def gie(self):
        return bool(self.regs[SR] & FLAG_GIE)

    def flag(self, bit):
        return bool(self.regs[SR] & bit)

    def _set_flags(self, c=None, z=None, n=None, v=None):
        sr = self.regs[SR]
        if c is not None:
            sr = (sr | FLAG_C) if c else (sr & ~FLAG_C)
        if z is not None:
            sr = (sr | FLAG_Z) if z else (sr & ~FLAG_Z)
        if n is not None:
            sr = (sr | FLAG_N) if n else (sr & ~FLAG_N)
        if v is not None:
            sr = (sr | FLAG_V) if v else (sr & ~FLAG_V)
        self.regs[SR] = sr & 0xFFFF

    # ---- reset --------------------------------------------------------------

    def reset(self):
        """Power-up/violation reset: clear registers, load the reset vector.

        The vector read models the hardware reset sequence and is not a
        CPU bus transaction, so it is untraced (monitors start clean).
        The decode cache survives: a reset changes no memory.
        """
        self.regs = [0] * NUM_REGISTERS
        self.pc = self.bus.peek_word(RESET_VECTOR)

    # ---- snapshot/restore (see repro.snapshot) ----------------------------

    def snapshot_state(self):
        """Architectural register state, JSON-safe."""
        return {
            "regs": list(self.regs),
            "total_cycles": self.total_cycles,
            "instruction_count": self.instruction_count,
        }

    def restore_state(self, state):
        """Adopt a captured register file.

        The decode cache is deliberately untouched: the caller restores
        memory first (:meth:`repro.memory.bus.Bus.restore_memory`),
        which already dropped every cached decode.  A register file
        that is not exactly 16 integers raises ``ValueError`` here
        rather than ``IndexError`` from inside a later step.
        """
        regs = state["regs"]
        counters = (state["total_cycles"], state["instruction_count"])
        if (not isinstance(regs, list) or len(regs) != NUM_REGISTERS
                or not all(type(value) is int for value in (*regs, *counters))):
            raise ValueError(
                f"CPU snapshot needs {NUM_REGISTERS} integer registers and "
                f"integer counters, got regs={regs!r}, counters={counters!r}")
        self.regs = [value & 0xFFFF for value in regs]
        self.total_cycles, self.instruction_count = counters

    # ---- stepping ---------------------------------------------------------

    def step(self) -> StepRecord:
        """Execute one architectural event and return its record."""
        regs = self.regs
        pc = regs[PC]
        if (regs[SR] & FLAG_GIE and self.ic.lines
                and not self.irq_deferred_at(pc)):
            return self._service_interrupt(pc)
        cache = self._dcache
        if cache is None:
            return self._interpret(regs, self.bus)
        # A hit, or a miss's fill: the entry's compiled step, or the
        # interpreter for a PC that is never cached.
        return (cache.get(pc) or self._fill(pc))(self, regs, self.bus)

    def _interpret(self, regs, bus) -> StepRecord:
        """The reference step: decode, classify and run the generic
        executor.  Called as a compiled step is, ``(cpu, regs, bus)``."""
        pc_before = regs[PC]
        bus.trace = trace = []
        try:
            insn = self._decode(pc_before)
        except (DecodingError, MemoryAccessError):
            # An illegal opcode halts a real MSP430 into reset via the
            # watchdog, and a fetch off the top of the address space
            # (the extension word of a two-word instruction at 0xFFFE)
            # is a fault too: an ILLEGAL step the device resets on, not
            # a simulator crash.
            return self._illegal_step(pc_before)
        fetches = tuple(trace)
        bus.trace = trace = []
        next_pc = self._fetch_addr & 0xFFFE
        edge = EDGE_KINDS[classify_insn(insn, pc_before)[0]]
        cycles = instruction_cycles(insn)
        regs[PC] = next_pc
        _EXECUTORS[insn.opcode.mnemonic](self, insn)
        bus.trace = []
        self.total_cycles += cycles
        self.instruction_count += 1
        pc_after = regs[PC]
        record = StepRecord(StepKind.INSTRUCTION, pc_before, pc_after, cycles,
                            fetches, trace, insn)
        if (edge is not None and (pc_after != next_pc or edge in ALWAYS_EDGES)
                and self.trace_sink is not None):
            self.trace_sink.observe(record, edge)
        return record

    def _decode(self, pc):
        """Fetch and decode the instruction at *pc*, appending its
        fetches to the bus trace; raises DecodingError or
        MemoryAccessError for a word that is no instruction."""
        first_word = self.bus.fetch_word(pc)
        self._fetch_addr = pc + 2
        return decode(first_word, self._fetch_ext)

    def _fill(self, pc):
        """The compiled step for a miss at *pc*, now in the cache and
        registered with the bus; for an illegal word or an odd PC, never
        cached, the interpreter (:meth:`_interpret`).

        The program's entry is adopted when this device's words over
        its whole span equal the image's; otherwise the instruction is
        decoded here, and the new entry is published to the program's
        table (before it executes) only when the decoded words equal
        the image's.  An odd PC, which only a restored register file
        can hold, is never cached, so every key is a word address.
        """
        if pc & 1:
            return Cpu._interpret
        bus = self.bus
        mem = bus.mem
        table = self._program_decodes
        if table is not None:
            entry = table.get(pc)
            if entry is not None:
                n_words = len(step_fetches(entry))
                end = pc + 2 * n_words
                if mem[pc:end] == self._program_image[pc:end]:
                    self._dcache[pc] = entry
                    bus.note_code_cached(pc, n_words)
                    return entry
        bus.trace = trace = []
        try:
            insn = self._decode(pc)
        except (DecodingError, MemoryAccessError):
            return Cpu._interpret
        n_words = len(trace)
        entry = compile_step(insn, pc, self._fetch_addr & 0xFFFE, tuple(trace))
        self._dcache[pc] = entry
        bus.note_code_cached(pc, n_words)
        end = pc + 2 * n_words
        if table is not None and mem[pc:end] == self._program_image[pc:end]:
            table.setdefault(pc, entry)
        return entry

    def _illegal_step(self, pc_before):
        bus = self.bus
        fetches, bus.trace = tuple(bus.trace), []
        self.total_cycles += 1
        # The first word, when its fetch made it onto the trace.
        return StepRecord(StepKind.ILLEGAL, pc_before, pc_before, 1, fetches,
                          [], illegal_word=fetches[0].value if fetches else 0)

    def _service_interrupt(self, pc_before):
        bus = self.bus
        bus.trace = trace = []
        vector = self.ic.accept()
        self._push(pc_before)
        self._push(self.regs[SR])
        # SLAU049: SR is cleared on interrupt entry (SCG0 preserved on
        # some parts; we clear fully -- the apps never use SCG0).
        self.regs[SR] = 0
        handler = bus.read_word(bus.layout.vector_address(vector))
        self.pc = handler
        bus.trace = []
        self.total_cycles += INTERRUPT_CYCLES
        record = StepRecord(StepKind.INTERRUPT, pc_before, self.pc,
                            INTERRUPT_CYCLES, (), trace, vector=vector)
        if self.trace_sink is not None:
            self.trace_sink.observe(record, EDGE_IRQ)
        return record

    def _fetch_ext(self):
        addr = self._fetch_addr
        word = self.bus.fetch_word(addr)
        self._fetch_addr = addr + 2
        return word

    # ---- operand access -----------------------------------------------------

    def _read_operand(self, operand, byte_mode):
        """Read an operand's value; applies auto-increment side effects."""
        mode = operand.mode
        if mode is AddrMode.REGISTER:
            value = self.regs[operand.reg]
            return (value & 0xFF) if byte_mode else value
        if mode in (AddrMode.IMMEDIATE, AddrMode.CONSTANT):
            value = operand.value
            return (value & 0xFF) if byte_mode else value
        if mode in (AddrMode.INDIRECT, AddrMode.AUTOINC):
            addr = self.regs[operand.reg]
            value = self._load(addr, byte_mode)
            if mode is AddrMode.AUTOINC:
                step = 2 if (not byte_mode or operand.reg in (PC, SP)) else 1
                self.set_reg(operand.reg, self.regs[operand.reg] + step)
            return value
        addr = self._effective_address(operand)
        return self._load(addr, byte_mode)

    def _effective_address(self, operand):
        """EA of a memory operand (INDEXED/SYMBOLIC/ABSOLUTE/INDIRECT)."""
        mode = operand.mode
        if mode is AddrMode.INDEXED:
            return (self.regs[operand.reg] + operand.value) & 0xFFFF
        if mode is AddrMode.SYMBOLIC:
            # Our toolchain encodes symbolic operands so that
            # EA = ext_word_value; see toolchain docs.  At execution time
            # the operand already carries the resolved address.
            return operand.value
        if mode is AddrMode.ABSOLUTE:
            return operand.value
        if mode in (AddrMode.INDIRECT, AddrMode.AUTOINC):
            return self.regs[operand.reg]
        raise DecodingError(f"operand {operand} has no effective address")

    def _load(self, addr, byte_mode):
        if byte_mode:
            return self.bus.read_byte(addr)
        return self.bus.read_word(addr & 0xFFFE)

    def _store(self, addr, value, byte_mode):
        if byte_mode:
            self.bus.write_byte(addr, value)
        else:
            self.bus.write_word(addr & 0xFFFE, value)

    def _write_operand(self, operand, value, byte_mode):
        if operand.mode is AddrMode.REGISTER:
            if byte_mode:
                value &= 0xFF  # byte writes clear the upper register byte
            self.set_reg(operand.reg, value)
            return
        self._store(self._effective_address(operand), value, byte_mode)

    def _push(self, value):
        self.set_reg(SP, self.regs[SP] - 2)
        self.bus.write_word(self.regs[SP], value & 0xFFFF)

    def _pop(self):
        value = self.bus.read_word(self.regs[SP])
        self.set_reg(SP, self.regs[SP] + 2)
        return value

    # ---- execution -----------------------------------------------------------

    # -- format I (double operand) helpers --

    def _f1_read(self, insn, byte, mask):
        """Source value, destination value and destination EA (or None
        for a register destination).  Source reads first, as on the
        hardware (auto-increment side effects precede the dst read)."""
        src = self._read_operand(insn.src, byte)
        dst_op = insn.dst
        if dst_op.mode is AddrMode.REGISTER:
            return src, self.regs[dst_op.reg] & mask, None
        addr = self._effective_address(dst_op)
        return src, self._load(addr, byte), addr

    def _f1_commit(self, insn, result, dst_addr, byte):
        if dst_addr is None:
            if byte:
                result &= 0xFF
            self.set_reg(insn.dst.reg, result)
        else:
            self._store(dst_addr, result, byte)

    def _ex_mov(self, insn):
        byte = insn.byte_mode
        self._write_operand(insn.dst, self._read_operand(insn.src, byte), byte)

    def _f1_add(self, insn, use_carry):
        byte = insn.byte_mode
        mask = 0xFF if byte else 0xFFFF
        msb = 0x80 if byte else 0x8000
        src, dst, dst_addr = self._f1_read(insn, byte, mask)
        carry_in = 1 if (use_carry and self.regs[SR] & FLAG_C) else 0
        total = src + dst + carry_in
        result = total & mask
        self._set_flags(
            c=total > mask,
            z=result == 0,
            n=bool(result & msb),
            v=bool(~(src ^ dst) & (src ^ result) & msb),
        )
        self._f1_commit(insn, result, dst_addr, byte)

    def _ex_add(self, insn):
        self._f1_add(insn, use_carry=False)

    def _ex_addc(self, insn):
        self._f1_add(insn, use_carry=True)

    def _f1_sub(self, insn, use_carry, commit):
        byte = insn.byte_mode
        mask = 0xFF if byte else 0xFFFF
        msb = 0x80 if byte else 0x8000
        src, dst, dst_addr = self._f1_read(insn, byte, mask)
        inv = (~src) & mask
        carry_in = (1 if self.regs[SR] & FLAG_C else 0) if use_carry else 1
        total = dst + inv + carry_in
        result = total & mask
        self._set_flags(
            c=total > mask,
            z=result == 0,
            n=bool(result & msb),
            v=bool(~(inv ^ dst) & (inv ^ result) & msb),
        )
        if commit:
            self._f1_commit(insn, result, dst_addr, byte)

    def _ex_sub(self, insn):
        self._f1_sub(insn, use_carry=False, commit=True)

    def _ex_subc(self, insn):
        self._f1_sub(insn, use_carry=True, commit=True)

    def _ex_cmp(self, insn):
        self._f1_sub(insn, use_carry=False, commit=False)

    def _ex_dadd(self, insn):
        byte = insn.byte_mode
        mask = 0xFF if byte else 0xFFFF
        src, dst, dst_addr = self._f1_read(insn, byte, mask)
        result = self._bcd_add(src, dst, byte)
        self._f1_commit(insn, result, dst_addr, byte)

    def _f1_logic(self, insn, op, commit):
        byte = insn.byte_mode
        mask = 0xFF if byte else 0xFFFF
        msb = 0x80 if byte else 0x8000
        src, dst, dst_addr = self._f1_read(insn, byte, mask)
        if op == "and":
            result = src & dst
            self._set_flags(c=result != 0, z=result == 0,
                            n=bool(result & msb), v=False)
        elif op == "xor":
            result = src ^ dst
            self._set_flags(
                c=result != 0,
                z=result == 0,
                n=bool(result & msb),
                v=bool(src & msb) and bool(dst & msb),
            )
        elif op == "bic":
            result = dst & ~src & mask
        else:  # bis
            result = dst | src
        if commit:
            self._f1_commit(insn, result, dst_addr, byte)

    def _ex_and(self, insn):
        self._f1_logic(insn, "and", commit=True)

    def _ex_bit(self, insn):
        self._f1_logic(insn, "and", commit=False)

    def _ex_xor(self, insn):
        self._f1_logic(insn, "xor", commit=True)

    def _ex_bic(self, insn):
        self._f1_logic(insn, "bic", commit=True)

    def _ex_bis(self, insn):
        self._f1_logic(insn, "bis", commit=True)

    def _bcd_add(self, src, dst, byte):
        """Decimal (BCD) addition with carry, per DADD semantics."""
        digits = 2 if byte else 4
        carry = 1 if self.flag(FLAG_C) else 0
        result = 0
        for digit in range(digits):
            a = (src >> (4 * digit)) & 0xF
            b = (dst >> (4 * digit)) & 0xF
            total = a + b + carry
            carry = 1 if total > 9 else 0
            if carry:
                total -= 10
            result |= total << (4 * digit)
        msb = 0x80 if byte else 0x8000
        self._set_flags(c=bool(carry), z=result == 0, n=bool(result & msb), v=False)
        return result

    # -- format II (single operand) --

    def _ex_reti(self, insn):
        self.regs[SR] = self._pop()
        self.pc = self._pop()

    def _ex_push(self, insn):
        byte = insn.byte_mode
        value = self._read_operand(insn.dst, byte)
        # PUSH.B still moves SP by a full word (SLAU049 3.4.34).
        self._push(value & (0xFF if byte else 0xFFFF))

    def _ex_call(self, insn):
        target = self._read_operand(insn.dst, byte_mode=False)
        self._push(self.regs[PC])
        self.set_reg(PC, target)

    def _f2_read(self, insn, byte, mask):
        """Read-modify-write source: value plus EA (None for register)."""
        dst_op = insn.dst
        if dst_op.mode is AddrMode.REGISTER:
            return self.regs[dst_op.reg] & mask, None
        addr = self._effective_address(dst_op)
        return self._load(addr, byte), addr

    def _f2_commit(self, insn, result, addr, byte, mask):
        if addr is None:
            self.set_reg(insn.dst.reg, result & mask)
        else:
            self._store(addr, result, byte)

    def _ex_rra(self, insn):
        byte = insn.byte_mode
        mask = 0xFF if byte else 0xFFFF
        msb = 0x80 if byte else 0x8000
        value, addr = self._f2_read(insn, byte, mask)
        carry = value & 1
        result = (value >> 1) | (value & msb)
        self._set_flags(c=bool(carry), z=result == 0, n=bool(result & msb), v=False)
        self._f2_commit(insn, result, addr, byte, mask)

    def _ex_rrc(self, insn):
        byte = insn.byte_mode
        mask = 0xFF if byte else 0xFFFF
        msb = 0x80 if byte else 0x8000
        value, addr = self._f2_read(insn, byte, mask)
        carry_in = msb if self.regs[SR] & FLAG_C else 0
        carry = value & 1
        result = (value >> 1) | carry_in
        self._set_flags(c=bool(carry), z=result == 0, n=bool(result & msb), v=False)
        self._f2_commit(insn, result, addr, byte, mask)

    def _ex_swpb(self, insn):
        value, addr = self._f2_read(insn, False, 0xFFFF)
        result = ((value << 8) | (value >> 8)) & 0xFFFF
        self._f2_commit(insn, result, addr, False, 0xFFFF)

    def _ex_sxt(self, insn):
        value, addr = self._f2_read(insn, False, 0xFFFF)
        result = value & 0xFF
        if result & 0x80:
            result |= 0xFF00
        self._set_flags(c=result != 0, z=result == 0, n=bool(result & 0x8000), v=False)
        self._f2_commit(insn, result, addr, False, 0xFFFF)

    # -- jumps --

    def _take_jump(self, insn):
        regs = self.regs
        regs[PC] = (regs[PC] + 2 * insn.offset) & 0xFFFE

    def _ex_jmp(self, insn):
        self._take_jump(insn)

    def _ex_jnz(self, insn):
        if not self.regs[SR] & FLAG_Z:
            self._take_jump(insn)

    def _ex_jz(self, insn):
        if self.regs[SR] & FLAG_Z:
            self._take_jump(insn)

    def _ex_jnc(self, insn):
        if not self.regs[SR] & FLAG_C:
            self._take_jump(insn)

    def _ex_jc(self, insn):
        if self.regs[SR] & FLAG_C:
            self._take_jump(insn)

    def _ex_jn(self, insn):
        if self.regs[SR] & FLAG_N:
            self._take_jump(insn)

    def _ex_jge(self, insn):
        sr = self.regs[SR]
        if bool(sr & FLAG_N) == bool(sr & FLAG_V):
            self._take_jump(insn)

    def _ex_jl(self, insn):
        sr = self.regs[SR]
        if bool(sr & FLAG_N) != bool(sr & FLAG_V):
            self._take_jump(insn)


# Opcode -> generic executor, called as ``executor(cpu, insn)``: the
# uncached path, and the reference the compiled steps are tested
# against.
_EXECUTORS = {name[len("_ex_"):]: fn for name, fn in vars(Cpu).items()
              if name.startswith("_ex_")}
