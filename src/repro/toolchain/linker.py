"""Linker: assign addresses, resolve symbols, encode, build the image.

Layout policy (fixed, matching the device memory map):

* ``.secure_text`` -> secure ROM base (EILIDsw, CASU update routine)
* ``.text``        -> PMEM base, units in link order
* ``.data``        -> DMEM base (the loader initialises RAM directly,
                      standing in for a crt0 copy loop)
* ``.bss``         -> after ``.data`` (zero-filled)
* interrupt vectors (``.vector N, SYM``) -> IVT words; vector 15 is the
  reset vector and must be present.

All labels are program-global (no per-unit visibility); duplicates are
link errors.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional

from repro.errors import LinkError, RangeError, SymbolError
from repro.isa import encode
from repro.isa.instructions import Instruction
from repro.isa.opcodes import lookup, Format, JUMP_OFFSET_MAX, JUMP_OFFSET_MIN
from repro.memory.bus import Bus
from repro.memory.map import MemoryLayout, NUM_VECTORS
from repro.toolchain.expr import eval_expr
from repro.toolchain.statements import DataStatement, InsnStatement, LabelStatement

_SECTION_ORDER = (".secure_text", ".text", ".data", ".bss")


@dataclass
class Record:
    """One laid-out statement: drives both image bytes and the listing."""

    addr: int
    size: int
    data: bytes
    stmt: object
    section: str
    unit: str
    insn: Optional[Instruction] = None


@dataclass
class SectionExtent:
    name: str
    base: int
    size: int

    @property
    def end(self):
        return self.base + self.size - 1


@dataclass
class LinkedProgram:
    name: str
    symbols: Dict[str, int]
    records: List[Record]
    sections: List[SectionExtent]
    vectors: Dict[int, int]  # vector index -> handler address
    entry: int
    unit_sizes: Dict[str, Dict[str, int]]  # unit -> section -> bytes
    layout: MemoryLayout

    def segments(self):
        """Loadable (address, bytes) segments, including the IVT."""
        chunks = [(rec.addr, rec.data) for rec in self.records if rec.data]
        ivt = bytearray(2 * NUM_VECTORS)
        for index in range(NUM_VECTORS):
            handler = self.vectors.get(index, 0)
            ivt[2 * index] = handler & 0xFF
            ivt[2 * index + 1] = (handler >> 8) & 0xFF
        chunks.append((self.layout.ivt.start, bytes(ivt)))
        return chunks

    @cached_property
    def image(self) -> bytes:
        """The loaded 64 KB address space, computed once per program.

        :meth:`segments` loaded in order into a fresh bus, so a later
        segment overwrites an earlier one and one past the address space
        raises :class:`MemoryAccessError`.  Every device built from the
        program copies it into its own RAM and keeps it as its snapshot
        baseline; it is ``bytes``, so no device can write through it.
        """
        bus = Bus(self.layout)
        for addr, data in self.segments():
            bus.load_bytes(addr, data)
        return bytes(bus.mem)

    @cached_property
    def decode_table(self) -> dict:
        """The decode-cache entries of :attr:`image`'s code, ``{pc:
        entry}``, one table per program like the image itself.  Every
        device built from the program adopts entries from it and
        publishes the ones it decodes from unmodified words (see
        :mod:`repro.cpu.core`)."""
        return {}

    def section_extent(self, name):
        for extent in self.sections:
            if extent.name == name:
                return extent
        raise KeyError(name)

    def symbol_at(self, addr):
        """A label defined exactly at *addr*, if any (listing annotations)."""
        for name, value in self.symbols.items():
            if value == addr:
                return name
        return None

    def code_size(self, units=None):
        """Total .text + .data bytes, optionally restricted to *units*.

        This is the "binary size" metric of Table IV: application code
        and initialised data, excluding the fixed runtime (crt0, EILID
        shims/ROM) when *units* names just the application module.
        """
        total = 0
        for unit, sizes in self.unit_sizes.items():
            if units is not None and unit not in units:
                continue
            total += sizes.get(".text", 0) + sizes.get(".data", 0)
        return total


_SECTION_BASE = {
    ".secure_text": lambda layout: layout.secure_rom.start,
    ".text": lambda layout: layout.pmem.start,
    ".data": lambda layout: layout.dmem.start,
}

_SECTION_REGION = {
    ".secure_text": lambda layout: layout.secure_rom,
    ".text": lambda layout: layout.pmem,
    ".data": lambda layout: layout.dmem,
    ".bss": lambda layout: layout.dmem,
}


def link(units, name="program", layout=None):
    """Link *units* (ordered :class:`AsmUnit` list) into a program."""
    layout = layout or MemoryLayout.default()
    symbols: Dict[str, int] = {}
    records: List[Record] = []
    sections: List[SectionExtent] = []
    unit_sizes: Dict[str, Dict[str, int]] = {u.name: {} for u in units}

    # ---- pass 1: layout & label addresses --------------------------------
    cursor = 0
    for section in _SECTION_ORDER:
        if section == ".bss":
            base = cursor  # continues after .data in DMEM
        else:
            base = _SECTION_BASE[section](layout)
        cursor = base
        region = _SECTION_REGION[section](layout)
        for unit in units:
            unit_start = cursor
            for stmt in unit.statements(section):
                if isinstance(stmt, LabelStatement):
                    if stmt.name in symbols:
                        raise SymbolError(
                            f"duplicate label {stmt.name!r}", stmt.filename, stmt.line
                        )
                    symbols[stmt.name] = cursor
                    records.append(Record(cursor, 0, b"", stmt, section, unit.name))
                    continue
                if isinstance(stmt, InsnStatement):
                    size = stmt.size_bytes()
                    if cursor % 2:
                        raise LinkError(
                            f"instruction at odd address 0x{cursor:04x} "
                            f"({stmt.filename}:{stmt.line}); add .align 2"
                        )
                elif isinstance(stmt, DataStatement):
                    if stmt.directive == "align":
                        size = cursor % stmt.align if stmt.align > 1 else 0
                    else:
                        size = stmt.min_size_bytes()
                else:  # pragma: no cover
                    raise LinkError(f"unknown statement type {type(stmt)}")
                records.append(Record(cursor, size, b"", stmt, section, unit.name))
                cursor += size
            unit_sizes[unit.name][section] = cursor - unit_start
        size = cursor - base
        if size > 0 and cursor - 1 > region.end:
            raise LinkError(
                f"section {section} overflows {region} by {cursor - 1 - region.end} bytes"
            )
        sections.append(SectionExtent(section, base, size))

    # ---- equates -----------------------------------------------------------
    _resolve_equates(units, symbols)

    # ---- pass 2: encode ------------------------------------------------------
    for rec in records:
        stmt = rec.stmt
        if isinstance(stmt, LabelStatement):
            continue
        if isinstance(stmt, InsnStatement):
            rec.insn, rec.data = _encode_insn(stmt, rec.addr, symbols)
            if len(rec.data) != rec.size:
                raise LinkError(
                    f"size drift at {stmt.filename}:{stmt.line}: "
                    f"sized {rec.size}, encoded {len(rec.data)}"
                )
        else:
            rec.data = _encode_data(stmt, rec.addr, rec.size, symbols)

    # ---- vectors ----------------------------------------------------------------
    vectors: Dict[int, int] = {}
    for unit in units:
        for index, sym in unit.vectors.items():
            if not 0 <= index < NUM_VECTORS:
                raise LinkError(f"vector index {index} out of range in {unit.name}")
            if index in vectors:
                raise LinkError(f"vector {index} defined in more than one unit")
            if sym not in symbols:
                raise SymbolError(f"vector {index} handler {sym!r} undefined")
            vectors[index] = symbols[sym]
    if NUM_VECTORS - 1 not in vectors:
        raise LinkError("no reset vector: add `.vector 15, __start`")
    if "__default_handler" in symbols:
        for index in range(NUM_VECTORS - 1):
            vectors.setdefault(index, symbols["__default_handler"])

    return LinkedProgram(
        name=name,
        symbols=symbols,
        records=records,
        sections=sections,
        vectors=vectors,
        entry=vectors[NUM_VECTORS - 1],
        unit_sizes=unit_sizes,
        layout=layout,
    )


def _resolve_equates(units, symbols):
    pending = {}
    for unit in units:
        for sym, expr in unit.equates.items():
            if sym in symbols or sym in pending:
                raise SymbolError(f"duplicate symbol {sym!r} (equate in {unit.name})")
            pending[sym] = expr
    # Equates may reference labels and each other; iterate to a fixpoint.
    while pending:
        progressed = False
        for sym in list(pending):
            try:
                symbols[sym] = eval_expr(pending[sym], symbols) & 0xFFFF
            except SymbolError:
                continue
            del pending[sym]
            progressed = True
        if not progressed:
            unresolved = ", ".join(sorted(pending))
            raise SymbolError(f"unresolvable equates (cycle or undefined): {unresolved}")


def _encode_insn(stmt, addr, symbols):
    local = dict(symbols)
    local["$"] = addr
    core, src_spec, dst_spec, jump_spec = stmt.core_form()
    opcode = lookup(core)

    if jump_spec is not None:
        target = jump_spec.resolve(local, stmt.filename, stmt.line)
        from repro.isa.operands import AddrMode

        if target.mode not in (AddrMode.SYMBOLIC, AddrMode.IMMEDIATE, AddrMode.ABSOLUTE):
            raise RangeError("jump target must be an address expression", stmt.filename, stmt.line)
        delta = target.value - (addr + 2)
        if delta % 2:
            raise RangeError(
                f"jump target 0x{target.value:04x} is odd", stmt.filename, stmt.line
            )
        offset = delta // 2
        if not JUMP_OFFSET_MIN <= offset <= JUMP_OFFSET_MAX:
            raise RangeError(
                f"jump from 0x{addr:04x} to 0x{target.value:04x} out of range",
                stmt.filename,
                stmt.line,
            )
        insn = Instruction(opcode, offset=offset)
        return insn, _words_to_bytes(encode(insn))

    src = src_spec.resolve(local, stmt.filename, stmt.line) if src_spec else None
    dst = dst_spec.resolve(local, stmt.filename, stmt.line) if dst_spec else None
    if opcode.format is Format.SINGLE:
        insn = Instruction(opcode, dst=dst, byte_mode=stmt.byte_mode)
    elif opcode.format is Format.DOUBLE:
        insn = Instruction(opcode, src=src, dst=dst, byte_mode=stmt.byte_mode)
    else:  # pragma: no cover
        raise LinkError(f"unexpected format for {core}")
    return insn, _words_to_bytes(encode(insn))


def _encode_data(stmt, addr, size, symbols):
    local = dict(symbols)
    local["$"] = addr
    if stmt.directive == "word":
        out = bytearray()
        for expr in stmt.exprs:
            value = eval_expr(expr, local, stmt.filename, stmt.line) & 0xFFFF
            out += bytes((value & 0xFF, value >> 8))
        return bytes(out)
    if stmt.directive == "byte":
        return bytes(
            eval_expr(expr, local, stmt.filename, stmt.line) & 0xFF for expr in stmt.exprs
        )
    if stmt.directive in ("ascii", "asciz"):
        data = stmt.string.encode("latin-1")
        if stmt.directive == "asciz":
            data += b"\0"
        return data
    if stmt.directive in ("space", "align"):
        return bytes(size)
    raise LinkError(f"unknown data directive {stmt.directive}")


def _words_to_bytes(words):
    out = bytearray()
    for word in words:
        out += bytes((word & 0xFF, (word >> 8) & 0xFF))
    return bytes(out)
