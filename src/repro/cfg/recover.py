"""CFG recovery: linked binary -> basic blocks, functions, call graph.

The recovery is *independent of the toolchain's own view*: it takes the
loadable segments of a :class:`~repro.toolchain.linker.LinkedProgram`
(or any equivalent byte image), disassembles the executable extents
word-by-word through :func:`repro.isa.decode.decode_words`, classifies
every control transfer with :func:`repro.isa.transfer.classify_insn`,
and rebuilds

* per-function basic-block CFGs,
* an interprocedural call graph with per-site return addresses,
* the indirect-call target set, seeded from the EILID call-table
  registrations (``mov #f, r6`` + ``call #NS_EILID_store_ind``) when
  the binary is instrumented, falling back to statically discovered
  function entries (call targets + address-taken code symbols) when it
  is not.

Only the symbol table and interrupt vectors are trusted from the
binary's metadata -- the same information a real verifier reads from
the ELF of the firmware it provisioned.  Instruction boundaries,
transfer targets and block structure all come from the decoder, which
is what lets :mod:`repro.cfg.policy` cross-check the instrumenter's
listing-derived view against this one.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import DecodingError, ReproError
from repro.isa.decode import decode_words
from repro.isa.operands import AddrMode
from repro.isa.transfer import TransferKind, classify_insn

EXECUTABLE_SECTIONS = (".text", ".secure_text")


class CfgError(ReproError):
    """CFG recovery / policy compilation failure."""


# Transfer kinds that end a basic block.
_TERMINATORS = {
    TransferKind.JUMP,
    TransferKind.COND_JUMP,
    TransferKind.JUMP_INDIRECT,
    TransferKind.RET,
    TransferKind.RETI,
}


@dataclass(frozen=True)
class DecodedInsn:
    """One disassembled instruction plus its control-transfer summary."""

    addr: int
    insn: object  # repro.isa.instructions.Instruction
    size: int  # bytes
    kind: TransferKind
    target: Optional[int]  # static target for CALL/JUMP/COND_JUMP

    @property
    def next_addr(self):
        return (self.addr + self.size) & 0xFFFF

    def render(self):
        return f"0x{self.addr:04x}: {self.insn.render()}"


@dataclass
class BasicBlock:
    start: int
    end: int  # address of the last instruction in the block
    insns: List[DecodedInsn] = field(default_factory=list)
    successors: Tuple[int, ...] = ()

    @property
    def terminator(self) -> DecodedInsn:
        return self.insns[-1]

    def __str__(self):
        return (f"block 0x{self.start:04x}..0x{self.end:04x} "
                f"({len(self.insns)} insns) -> "
                + ", ".join(f"0x{s:04x}" for s in self.successors))


@dataclass
class FunctionCfg:
    name: str
    entry: int
    blocks: Dict[int, BasicBlock] = field(default_factory=dict)

    @property
    def block_count(self):
        return len(self.blocks)


@dataclass(frozen=True)
class CallSite:
    addr: int  # address of the call instruction
    caller: str  # enclosing function name
    target: Optional[int]  # None for indirect calls
    return_addr: int  # the protected return address


@dataclass
class RecoveredCfg:
    """Everything the policy compiler and the CLI report on."""

    name: str
    entry: int
    insns: Dict[int, DecodedInsn]  # addr -> instruction (all exec sections)
    functions: Dict[str, FunctionCfg]  # name -> per-function CFG
    call_sites: List[CallSite]
    call_graph: Dict[str, Set[str]]  # caller -> direct callees
    indirect_targets: Tuple[int, ...]  # sorted, deduplicated
    indirect_targets_registered: bool  # True when seeded from EILID table
    function_entries: Dict[int, str]  # entry addr -> name
    vectors: Dict[int, int]  # vector index -> handler address
    reti_sites: Tuple[int, ...]
    code_ranges: Tuple[Tuple[int, int], ...]  # inclusive [start, end] spans
    undecodable: Tuple[int, ...]  # addresses skipped as non-instructions

    @property
    def return_sites(self) -> Set[int]:
        return {site.return_addr for site in self.call_sites}

    @property
    def block_count(self):
        return sum(f.block_count for f in self.functions.values())

    def function_at(self, addr) -> Optional[FunctionCfg]:
        for func in self.functions.values():
            if func.entry <= addr and any(
                b.start <= addr <= b.end for b in func.blocks.values()
            ):
                return func
        return None


# ---------------------------------------------------------------------------
# Disassembly
# ---------------------------------------------------------------------------


def _image_words(program) -> Dict[int, int]:
    """Word-addressable view of the loadable image."""
    by_byte: Dict[int, int] = {}
    for addr, data in program.segments():
        for offset, value in enumerate(data):
            by_byte[addr + offset] = value
    words: Dict[int, int] = {}
    for addr in list(by_byte):
        if addr % 2 == 0 and addr + 1 in by_byte:
            words[addr] = by_byte[addr] | (by_byte[addr + 1] << 8)
    return words


def _section_spans(program) -> List[Tuple[int, int]]:
    spans = []
    for extent in program.sections:
        if extent.name in EXECUTABLE_SECTIONS and extent.size > 0:
            spans.append((extent.base, extent.end))
    return spans


def disassemble(program) -> Tuple[Dict[int, DecodedInsn], List[int]]:
    """Linear-sweep disassembly of every executable section.

    Returns ``(insns_by_addr, undecodable_addresses)``.  Words that do
    not decode (inline data, padding) are skipped one word at a time;
    the sweep resynchronises at the next decodable word, which is exact
    for this toolchain because the linker never mixes data into
    ``.text``/``.secure_text``.
    """
    words = _image_words(program)
    insns: Dict[int, DecodedInsn] = {}
    undecodable: List[int] = []
    for start, end in _section_spans(program):
        addr = start
        while addr <= end:
            window = []
            probe = addr
            while probe <= end and probe in words and len(window) < 3:
                window.append(words[probe])
                probe += 2
            if not window:
                addr += 2
                continue
            try:
                insn, consumed = decode_words(window)
            except DecodingError:
                undecodable.append(addr)
                addr += 2
                continue
            kind, target = classify_insn(insn, addr)
            insns[addr] = DecodedInsn(addr, insn, consumed * 2, kind, target)
            addr += consumed * 2
    return insns, undecodable


# ---------------------------------------------------------------------------
# Function discovery and block building
# ---------------------------------------------------------------------------


def _code_symbols(program, spans) -> Dict[str, int]:
    def in_code(addr):
        return any(start <= addr <= end for start, end in spans)

    return {name: addr for name, addr in program.symbols.items() if in_code(addr)}


def _discover_entries(program, insns, spans) -> Dict[int, str]:
    """Function entry addresses, named from the symbol table.

    Roots: the reset entry, every interrupt handler, every direct call
    target, and every address-taken immediate that lands on a decoded
    instruction (function pointers stored to memory/registers).
    """
    symbols = _code_symbols(program, spans)
    by_addr: Dict[int, str] = {}
    for name, addr in sorted(symbols.items()):
        # First symbol name wins per address; aliases are harmless.
        by_addr.setdefault(addr, name)

    entries: Set[int] = {program.entry}
    entries.update(handler for handler in program.vectors.values())
    # Each executable section's first instruction anchors a function, so
    # regions only reachable through jumps (the secure ROM, entered via
    # the shims' ``br #S_EILID_entry``) still partition into functions.
    entries.update(start for start, _end in spans)
    for decoded in insns.values():
        if decoded.kind is TransferKind.CALL and decoded.target is not None:
            entries.add(decoded.target)
        elif decoded.kind is TransferKind.NONE:
            insn = decoded.insn
            for operand in (insn.src, insn.dst):
                if operand is None or operand.value is None:
                    continue
                if operand.mode is not AddrMode.IMMEDIATE:
                    continue
                if operand.value in insns:
                    entries.add(operand.value)  # address-taken code pointer

    return {addr: by_addr.get(addr, f"sub_{addr:04x}")
            for addr in sorted(entries) if addr in insns}


def _build_blocks(entries, insns, spans) -> Dict[str, FunctionCfg]:
    """Partition the sweep into functions, then split into basic blocks."""
    entry_addrs = sorted(entries)
    functions: Dict[str, FunctionCfg] = {}

    # Block leaders: function entries, transfer targets, post-transfer.
    leaders: Set[int] = set(entry_addrs)
    for decoded in insns.values():
        if decoded.kind in _TERMINATORS or decoded.kind in (
            TransferKind.CALL, TransferKind.CALL_INDIRECT,
        ):
            if decoded.kind in _TERMINATORS:
                leaders.add(decoded.next_addr)
            if decoded.target is not None and decoded.target in insns:
                leaders.add(decoded.target)

    for index, entry in enumerate(entry_addrs):
        span_end = None
        for start, end in spans:
            if start <= entry <= end:
                span_end = end
        limit = entry_addrs[index + 1] - 1 if index + 1 < len(entry_addrs) else span_end
        limit = min(limit, span_end) if span_end is not None else limit
        func = FunctionCfg(entries[entry], entry)
        block: Optional[BasicBlock] = None
        addr = entry
        while addr is not None and addr <= limit and addr in insns:
            decoded = insns[addr]
            if block is None or (addr in leaders and addr != block.start):
                if block is not None and addr in leaders:
                    block.successors = (addr,)  # fall into the new leader
                block = BasicBlock(addr, addr)
                func.blocks[addr] = block
            block.insns.append(decoded)
            block.end = addr
            if decoded.kind in _TERMINATORS:
                block.successors = _successors(decoded)
                block = None
            addr = decoded.next_addr
        functions[entries[entry]] = func
    return functions


def _successors(decoded: DecodedInsn) -> Tuple[int, ...]:
    if decoded.kind is TransferKind.JUMP:
        return (decoded.target,)
    if decoded.kind is TransferKind.COND_JUMP:
        return (decoded.target, decoded.next_addr)
    return ()  # ret/reti/indirect jump: no static intra-function successor


# ---------------------------------------------------------------------------
# Indirect-target seeding
# ---------------------------------------------------------------------------


def _scan_table_registrations(insns, store_ind_addr) -> List[int]:
    """EILID call-table registrations, in program order.

    The instrumenter emits ``mov #f, r6`` immediately followed by
    ``call #NS_EILID_store_ind`` for every registered function; the
    pair is unmistakable in the disassembly.
    """
    targets: List[int] = []
    ordered = sorted(insns)
    for position, addr in enumerate(ordered[:-1]):
        decoded = insns[addr]
        insn = decoded.insn
        if insn.opcode.mnemonic != "mov" or insn.src is None or insn.dst is None:
            continue
        if insn.src.mode not in (AddrMode.IMMEDIATE, AddrMode.CONSTANT):
            continue
        if insn.dst.mode is not AddrMode.REGISTER or insn.dst.reg != 6:
            continue
        follower = insns.get(decoded.next_addr)
        if (
            follower is not None
            and follower.kind is TransferKind.CALL
            and follower.target == store_ind_addr
        ):
            targets.append(insn.src.value)
    return targets


# ---------------------------------------------------------------------------
# Top-level recovery
# ---------------------------------------------------------------------------


def recover_cfg(program, name: Optional[str] = None) -> RecoveredCfg:
    """Recover the full CFG of a linked program."""
    spans = _section_spans(program)
    if not spans:
        raise CfgError("program has no executable sections to disassemble")
    insns, undecodable = disassemble(program)
    if program.entry not in insns:
        raise CfgError(f"entry point 0x{program.entry:04x} did not disassemble")

    entries = _discover_entries(program, insns, spans)
    functions = _build_blocks(entries, insns, spans)

    # Call sites and the call graph.
    name_of: Dict[int, str] = dict(entries)
    call_sites: List[CallSite] = []
    call_graph: Dict[str, Set[str]] = {fname: set() for fname in functions}
    current = None
    for addr in sorted(insns):
        if addr in name_of:
            current = name_of[addr]
        decoded = insns[addr]
        if decoded.kind in (TransferKind.CALL, TransferKind.CALL_INDIRECT):
            caller = current or "<unknown>"
            call_sites.append(
                CallSite(addr, caller, decoded.target, decoded.next_addr)
            )
            if decoded.target is not None and decoded.target in name_of:
                call_graph.setdefault(caller, set()).add(name_of[decoded.target])

    # Indirect-call targets: EILID registrations when present, else the
    # statically discovered entry set (classic binary-CFI fallback).
    store_ind = program.symbols.get("NS_EILID_store_ind")
    registered = _scan_table_registrations(insns, store_ind) if store_ind else []
    if registered:
        indirect = tuple(sorted(set(registered)))
        from_table = True
    else:
        indirect = tuple(sorted(entries))
        from_table = False

    reti_sites = tuple(sorted(
        addr for addr, d in insns.items() if d.kind is TransferKind.RETI
    ))

    return RecoveredCfg(
        name=name or program.name,
        entry=program.entry,
        insns=insns,
        functions=functions,
        call_sites=call_sites,
        call_graph=call_graph,
        indirect_targets=indirect,
        indirect_targets_registered=from_table,
        function_entries={addr: fname for addr, fname in entries.items()},
        vectors=dict(program.vectors),
        reti_sites=reti_sites,
        code_ranges=tuple(spans),
        undecodable=tuple(undecodable),
    )
