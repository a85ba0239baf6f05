"""Control-transfer classification: is an instruction a call, a return,
a ``reti`` or a jump?

This module is the one home of that judgement.  CFG recovery
(:mod:`repro.cfg.recover`) builds blocks and the CFI policy from it, the
CPU (:mod:`repro.cpu.core`) stores each instruction's edge kind in its
decode-cache entry and hands it to the branch-trace recorder
(:mod:`repro.cfg.trace`), and the trace replayer (:mod:`repro.cfg.replay`)
reads which recorded edge kind a static transfer may produce.

An instruction is a transfer exactly when it is a jump, a ``call``, a
``reti``, or it writes a register-mode PC destination: ``mov``, ``add``,
``rra``, ``swpb``, ... into ``pc``, as the opcode table's
``writes_dest`` says.  ``cmp``, ``bit`` and ``push`` name ``pc`` without
writing it, so they fall through.
"""

import enum
from typing import Optional, Tuple

from repro.isa.opcodes import Format
from repro.isa.operands import AddrMode
from repro.isa.registers import PC, SP


class TransferKind(enum.Enum):
    NONE = "none"  # falls through
    CALL = "call"  # direct call (static target known)
    CALL_INDIRECT = "call-indirect"
    JUMP = "jump"  # unconditional direct jump/branch
    COND_JUMP = "cond-jump"  # conditional: target or fall-through
    JUMP_INDIRECT = "jump-indirect"  # register/memory jump (policy rejects)
    RET = "ret"
    RETI = "reti"


# Edge kinds of a branch trace.  An interrupt entry is the hardware's
# transfer, not an instruction's, so no TransferKind records EDGE_IRQ.
EDGE_CALL = "call"
EDGE_JUMP = "jump"
EDGE_RET = "ret"
EDGE_RETI = "reti"
EDGE_IRQ = "irq"

# The edge each transfer kind records when it is taken (None: never).
EDGE_KINDS = {
    TransferKind.NONE: None,
    TransferKind.CALL: EDGE_CALL,
    TransferKind.CALL_INDIRECT: EDGE_CALL,
    TransferKind.JUMP: EDGE_JUMP,
    TransferKind.COND_JUMP: EDGE_JUMP,
    TransferKind.JUMP_INDIRECT: EDGE_JUMP,
    TransferKind.RET: EDGE_RET,
    TransferKind.RETI: EDGE_RETI,
}

# Edge kinds recorded even when the step lands on the fall-through PC:
# a call, direct or indirect, still pushes a frame and a reti still pops
# one.  Every other kind is an edge only when the step leaves the
# fall-through path.
ALWAYS_EDGES = frozenset({EDGE_CALL, EDGE_RETI})


def classify_insn(insn, addr) -> Tuple[TransferKind, Optional[int]]:
    """Classify one decoded instruction's control-transfer behaviour.

    Returns ``(kind, static_target)``; targets are word-aligned the way
    the CPU aligns PC writes.
    """
    opcode = insn.opcode
    name = opcode.mnemonic
    if opcode.format is Format.JUMP:
        target = (addr + 2 + 2 * insn.offset) & 0xFFFF
        if name == "jmp":
            return TransferKind.JUMP, target
        return TransferKind.COND_JUMP, target
    dst = insn.dst
    if name == "call":
        if dst.mode in (AddrMode.IMMEDIATE, AddrMode.CONSTANT):
            return TransferKind.CALL, dst.value & 0xFFFE
        return TransferKind.CALL_INDIRECT, None
    if name == "reti":
        return TransferKind.RETI, None
    if not (opcode.writes_dest and dst.mode is AddrMode.REGISTER
            and dst.reg == PC):
        return TransferKind.NONE, None
    # Emulated transfers are MOVs into PC after expansion.
    src = insn.src
    if name == "mov":
        if src.mode is AddrMode.AUTOINC and src.reg == SP:
            return TransferKind.RET, None  # ret == mov @sp+, pc
        if src.mode in (AddrMode.IMMEDIATE, AddrMode.CONSTANT):
            return TransferKind.JUMP, src.value & 0xFFFE  # br #imm
    # mov rN/@rN/x(rN), pc; add #x, pc; rra pc; ... -- all indirect jumps.
    return TransferKind.JUMP_INDIRECT, None
