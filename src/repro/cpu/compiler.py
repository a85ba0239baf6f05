"""Step compiler: one function per decode-cache entry runs its whole step.

Nearly everything a cached step does is fixed once its instruction is
decoded at its PC: the fall-through address, the cycles, the FETCH
records of its words, the instruction's operands and whether -- and
when -- it is a trace edge.  :func:`compile_step` turns a decode-cache
entry into one straight-line Python function, called as
``step(cpu, regs, bus)``, which

* starts the step's access list on the bus, unless its body makes no
  bus access (a jump, a register operation), and writes the
  fall-through PC;
* runs the instruction body, in which register numbers, constants,
  index and absolute addresses, masks and jump offsets are literals;
* bumps ``total_cycles`` and ``instruction_count``;
* fills the step's :class:`~repro.cpu.core.StepRecord`: ``pc``,
  ``cycles``, ``fetches`` and ``insn`` are constants, and so is
  ``next_pc`` for an instruction that never leaves the fall-through
  path;
* calls the trace sink only on a taken edge.  The edge rule -- a kind in
  :data:`~repro.isa.transfer.ALWAYS_EDGES`, or a step that leaves the
  fall-through PC -- is decided when the code is generated, so a step
  that is never an edge carries no test for one.

The semantics are the generic executors' (the ``Cpu._ex_*`` methods,
the uncached reference), access for access: every memory access goes
through ``Bus.read_*``/``Bus.write_*``, in the same order and with the
same arguments, so access records, peripheral handlers, ``before_io``
and decode-cache invalidation are unchanged.
``tests/test_compiled_executors.py`` holds whole compiled steps to the
uncached ones: registers, memory, records, trace edges and exceptions.

A step's code depends only on its instruction, so it is compiled once
per instruction, in a bounded LRU shared by the process.  Each entry
binds its own PC, fall-through, fetch records and instruction as the
function's defaults, ``(pc, fall, fetches, insn)``, without
recompiling.  Entries live in the program's decode table, so a fleet
compiles each one once and a snapshot restore recompiles nothing.
"""

import functools
from types import FunctionType

from repro.errors import DecodingError
from repro.isa import instruction_cycles
from repro.isa.operands import AddrMode
from repro.isa.registers import PC, SP
from repro.isa.transfer import ALWAYS_EDGES, EDGE_KINDS, classify_insn

# Distinct instructions kept compiled.  The seven Table IV apps, both
# images, execute ~350; the bound only matters for fault campaigns and
# fuzzing, which execute arbitrary words.
COMPILED_CACHE_SIZE = 4096

# SR with C, Z, N and V cleared (every flag-setting instruction sets
# all four).
_SR_KEEP = 0xFEF8

# Where a compiled step keeps its fetch records among its defaults.
_FETCHES = 2


def _bcd_add(src, dst, carry, digits):
    """Decimal addition for ``dadd``: ``(result, final carry)``.  The
    generic ``Cpu._bcd_add`` keeps its own loop: it is the reference."""
    result = 0
    for digit in range(digits):
        total = ((src >> (4 * digit)) & 0xF) + ((dst >> (4 * digit)) & 0xF) + carry
        carry = 1 if total > 9 else 0
        if carry:
            total -= 10
        result |= total << (4 * digit)
    return result, carry


def compile_step(insn, pc, fall, fetches):
    """The compiled step of *insn*, decoded at *pc* from the FETCH
    records *fetches* and falling through to *fall*; called as
    ``step(cpu, regs, bus)``, it returns the step's record."""
    return FunctionType(_step_code(insn), _namespace(), "step",
                        (pc, fall, fetches, insn))


def step_fetches(step):
    """The FETCH records a compiled step replays: its instruction's
    words, so their count is the span the entry covers."""
    return step.__defaults__[_FETCHES]


@functools.lru_cache(maxsize=None)
def _namespace():
    """The globals every compiled step shares.  Built on first use:
    :mod:`repro.cpu.core`, which defines the record, imports this
    module."""
    from repro.cpu.core import StepKind, StepRecord
    return {"__builtins__": {}, "_bcd_add": _bcd_add, "_new": object.__new__,
            "StepRecord": StepRecord, "INSTRUCTION": StepKind.INSTRUCTION}


@functools.lru_cache(maxsize=COMPILED_CACHE_SIZE)
def _step_code(insn):
    """The code object of *insn*'s compiled step (see the module
    docstring); the function it compiles into is dropped, so an entry
    the LRU evicts is freed by reference counting."""
    cycles = instruction_cycles(insn)
    edge = EDGE_KINDS[classify_insn(insn, 0)[0]]
    if insn.offset is not None:
        lines = _jump(insn.opcode.mnemonic, 2 * insn.offset)
    else:
        lines = ["regs[0] = fall", *_body(insn)]
    # A step whose body makes no bus access (a jump, a register
    # operation) leaves the bus's access list alone: its record gets an
    # empty list of its own.
    uses_bus = any("bus." in line for line in lines)
    if uses_bus:
        lines.insert(0, "bus.trace = trace = []")
    # Whether the step can leave the fall-through path (a zero-offset
    # jump cannot), and whether it is an edge even when it does not.
    moves = edge is not None and insn.offset != 0
    always = edge in ALWAYS_EDGES
    if moves and insn.offset is None:
        lines.append("next_pc = regs[0]")
    lines += [f"cpu.total_cycles += {cycles}", "cpu.instruction_count += 1"]
    if uses_bus:
        lines.append("bus.trace = []")
    lines += ["record = _new(StepRecord)",
              "record.kind = INSTRUCTION",
              "record.pc = pc",
              f"record.next_pc = {'next_pc' if moves else 'fall'}",
              f"record.cycles = {cycles}",
              "record.fetches = fetches",
              f"record.accesses = {'trace' if uses_bus else '[]'}",
              "record.insn = insn",
              "record.vector = None",
              "record.illegal_word = None"]
    if moves:
        observe = ["sink = cpu.trace_sink", "if sink is not None:",
                   f"    sink.observe(record, {edge!r})"]
        lines += (observe if always
                  else ["if next_pc != fall:"] + [f"    {line}" for line in observe])
    lines.append("return record")
    source = "def step(cpu, regs, bus, pc, fall, fetches, insn):\n" + "".join(
        f"    {line}\n" for line in lines)
    namespace = {}
    exec(compile(source, f"<msp430 {insn.render()}>", "exec"), namespace)
    return namespace["step"].__code__


# ---- instruction bodies --------------------------------------------------------


def _body(insn):
    """The body of a non-jump *insn*: its register, flag and bus work,
    run with PC already at the fall-through address ``fall``."""
    if insn.src is not None:
        return _double(insn.opcode.mnemonic, insn)
    return _single(insn.opcode.mnemonic, insn)


def _set_reg(reg, expr, masked=True):
    """``Cpu.set_reg``: *masked* says *expr* is already <= 0xFFFF."""
    if reg == PC:
        return f"regs[0] = ({expr}) & 0xFFFE"
    return f"regs[{reg}] = {expr}" if masked else f"regs[{reg}] = ({expr}) & 0xFFFF"


def _load(addr, byte):
    return f"bus.read_byte({addr})" if byte else f"bus.read_word({addr})"


def _store(addr, value, byte):
    return (f"bus.write_byte({addr}, {value})" if byte
            else f"bus.write_word({addr}, {value})")


def _address(operand, lines):
    """Effective address of a memory operand: a literal, or the local
    ``a`` bound by a line appended to *lines*."""
    mode = operand.mode
    if mode in (AddrMode.SYMBOLIC, AddrMode.ABSOLUTE):
        return str(operand.value)
    if mode is AddrMode.INDEXED:
        lines.append(f"a = (regs[{operand.reg}] + {operand.value}) & 0xFFFF")
        return "a"
    if mode in (AddrMode.INDIRECT, AddrMode.AUTOINC):
        lines.append(f"a = regs[{operand.reg}]")
        return "a"
    raise DecodingError(f"operand {operand} has no effective address")


def _source(operand, byte, lines):
    """``Cpu._read_operand``: a literal, or the local ``s``."""
    mode = operand.mode
    if mode in (AddrMode.IMMEDIATE, AddrMode.CONSTANT):
        return str(operand.value & 0xFF if byte else operand.value)
    reg = operand.reg
    if mode is AddrMode.REGISTER:
        lines.append(f"s = regs[{reg}] & 0xFF" if byte else f"s = regs[{reg}]")
    elif mode in (AddrMode.INDIRECT, AddrMode.AUTOINC):
        lines.append(f"s = {_load(f'regs[{reg}]', byte)}")
        if mode is AddrMode.AUTOINC:
            step = 2 if not byte or reg in (PC, SP) else 1
            lines.append(_set_reg(reg, f"regs[{reg}] + {step}", masked=False))
    else:
        lines.append(f"s = {_load(_address(operand, lines), byte)}")
    return "s"


def _flags(c, byte, v=None):
    """The SR update: C from *c*, Z and N from the result ``r``, V from
    *v* (cleared when None)."""
    n = "((r >> 5) & 4)" if byte else "((r >> 13) & 4)"
    parts = [c, "((r == 0) << 1)", n] + ([v] if v else [])
    return f"regs[2] = (regs[2] & {_SR_KEEP}) | " + " | ".join(parts)


def _overflow(x, byte):
    """V for ``r = x + d (+ carry)``: both addends share a sign the
    result lacks."""
    if byte:
        return f"(((~({x} ^ d) & ({x} ^ r)) << 1) & 0x100)"
    return f"(((~({x} ^ d) & ({x} ^ r)) >> 7) & 0x100)"


def _double(name, insn):
    byte = insn.byte_mode
    mask = 0xFF if byte else 0xFFFF
    lines = []
    s = _source(insn.src, byte, lines)
    dst = insn.dst
    if name == "mov":
        if dst.mode is AddrMode.REGISTER:
            lines.append(_set_reg(dst.reg, s))
        else:
            lines.append(_store(_address(dst, lines), s, byte))
        return lines
    if dst.mode is AddrMode.REGISTER:
        lines.append(f"d = regs[{dst.reg}] & 0xFF" if byte
                     else f"d = regs[{dst.reg}]")
        # A BCD sum of non-decimal digits can exceed the mask; every
        # other result fits.
        commit = _set_reg(dst.reg, f"r & {mask}" if name == "dadd" else "r")
    else:
        addr = _address(dst, lines)
        lines.append(f"d = {_load(addr, byte)}")
        commit = _store(addr, "r", byte)
    carry = f"(t >> {8 if byte else 16})"
    if name in ("add", "addc"):
        extra = " + (regs[2] & 1)" if name == "addc" else ""
        lines += [f"t = {s} + d{extra}", f"r = t & {mask}",
                  _flags(carry, byte, _overflow(s, byte))]
    elif name in ("sub", "subc", "cmp"):
        # inv = ~src & mask; a literal source folds at compile time.
        inv = str(int(s) ^ mask) if s != "s" else "i"
        if inv == "i":
            lines.append(f"i = s ^ {mask}")
        carry_in = "(regs[2] & 1)" if name == "subc" else "1"
        lines += [f"t = d + {inv} + {carry_in}", f"r = t & {mask}",
                  _flags(carry, byte, _overflow(inv, byte))]
    elif name == "dadd":
        lines += [f"r, c = _bcd_add({s}, d, regs[2] & 1, {2 if byte else 4})",
                  _flags("c", byte)]
    elif name in ("and", "bit"):
        lines += [f"r = {s} & d", _flags("(r != 0)", byte)]
    elif name == "xor":
        msb = 0x80 if byte else 0x8000
        v = f"(({s} & d & {msb}) << 1)" if byte else f"(({s} & d & {msb}) >> 7)"
        lines += [f"r = {s} ^ d", _flags("(r != 0)", byte, v)]
    elif name == "bic":
        lines.append(f"r = d & ~{s}")
    else:  # bis
        lines.append(f"r = d | {s}")
    if insn.opcode.writes_dest:
        lines.append(commit)
    return lines


def _push(value):
    return ["sp = (regs[1] - 2) & 0xFFFF", "regs[1] = sp",
            f"bus.write_word(sp, {value})"]


def _single(name, insn):
    dst = insn.dst
    if name == "reti":
        return ["regs[2] = bus.read_word(regs[1])",
                "regs[1] = (regs[1] + 2) & 0xFFFF",
                "v = bus.read_word(regs[1])",
                "regs[1] = (regs[1] + 2) & 0xFFFF",
                "regs[0] = v & 0xFFFE"]
    lines = []
    if name == "push":
        return lines + _push(_source(dst, insn.byte_mode, lines))
    if name == "call":
        target = _source(dst, False, lines)
        return lines + _push("regs[0]") + [_set_reg(PC, target)]
    # Read-modify-write: rra/rrc honour .b; swpb/sxt are word-only.
    byte = insn.byte_mode and name in ("rra", "rrc")
    msb = 0x80 if byte else 0x8000
    if dst.mode is AddrMode.REGISTER:
        lines.append(f"v = regs[{dst.reg}] & 0xFF" if byte
                     else f"v = regs[{dst.reg}]")
        commit = _set_reg(dst.reg, "r")
    else:
        addr = _address(dst, lines)
        lines.append(f"v = {_load(addr, byte)}")
        commit = _store(addr, "r", byte)
    if name == "rra":
        lines += [f"r = (v >> 1) | (v & {msb})", _flags("(v & 1)", byte)]
    elif name == "rrc":
        lines += [f"r = (v >> 1) | ((regs[2] & 1) << {7 if byte else 15})",
                  _flags("(v & 1)", byte)]
    elif name == "swpb":
        lines.append("r = ((v << 8) | (v >> 8)) & 0xFFFF")
    else:  # sxt
        lines += ["r = (((v & 0xFF) ^ 0x80) - 0x80) & 0xFFFF",
                  _flags("(r != 0)", False)]
    lines.append(commit)
    return lines


# Jump conditions over SR (C=0x1, Z=0x2, N=0x4, V=0x100).
_JUMP_CONDITIONS = {
    "jnz": "not regs[2] & 2",
    "jz": "regs[2] & 2",
    "jnc": "not regs[2] & 1",
    "jc": "regs[2] & 1",
    "jn": "regs[2] & 4",
    "jge": "not ((regs[2] >> 2) ^ (regs[2] >> 8)) & 1",
    "jl": "((regs[2] >> 2) ^ (regs[2] >> 8)) & 1",
}


def _jump(name, displacement):
    """A jump's PC update, binding ``next_pc``: the target when taken,
    else the fall-through."""
    take = f"next_pc = ({displacement} + fall) & 0xFFFE"
    if name == "jmp":
        return [take, "regs[0] = next_pc"]
    return [f"if {_JUMP_CONDITIONS[name]}:", f"    {take}", "else:",
            "    next_pc = fall", "regs[0] = next_pc"]
