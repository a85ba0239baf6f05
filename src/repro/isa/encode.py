"""Instruction encoder: :class:`Instruction` -> list of 16-bit words."""

from repro.errors import EncodingError, IsaError
from repro.isa.opcodes import (
    Format,
    FORMAT2_BYTE_CAPABLE,
    JUMP_OFFSET_MIN,
    JUMP_OFFSET_MAX,
)
from repro.isa.operands import AddrMode

_CONSTANT_MODES = (AddrMode.IMMEDIATE, AddrMode.CONSTANT)


def encode(insn):
    """Encode *insn* into its instruction-stream words (first word first)."""
    fmt = insn.opcode.format
    if fmt is Format.DOUBLE:
        return _encode_double(insn)
    if fmt is Format.SINGLE:
        return _encode_single(insn)
    return _encode_jump(insn)


def _encode_double(insn):
    try:
        src_reg, as_bits, src_ext = insn.src.source_encoding()
        dst_reg, ad_bit, dst_ext = insn.dst.dest_encoding()
    except IsaError as exc:
        raise EncodingError(f"cannot encode {insn.mnemonic}: {exc}") from exc
    word = (
        (insn.opcode.code << 12)
        | (src_reg << 8)
        | (ad_bit << 7)
        | ((1 if insn.byte_mode else 0) << 6)
        | (as_bits << 4)
        | dst_reg
    )
    words = [word]
    if src_ext is not None:
        words.append(src_ext & 0xFFFF)
    if dst_ext is not None:
        words.append(dst_ext & 0xFFFF)
    return words


def _encode_single(insn):
    name = insn.mnemonic
    if name == "reti":
        return [0x1300]
    if insn.byte_mode and name not in FORMAT2_BYTE_CAPABLE:
        raise EncodingError(f"{name} has no byte variant")
    if insn.opcode.writes_dest and insn.dst.mode in _CONSTANT_MODES:
        raise EncodingError(f"{name} cannot write back to a constant")
    try:
        dst_reg, as_bits, ext = insn.dst.source_encoding()
    except IsaError as exc:
        raise EncodingError(f"cannot encode {name}: {exc}") from exc
    word = (
        0x1000
        | (insn.opcode.code << 7)
        | ((1 if insn.byte_mode else 0) << 6)
        | (as_bits << 4)
        | dst_reg
    )
    words = [word]
    if ext is not None:
        words.append(ext & 0xFFFF)
    return words


def _encode_jump(insn):
    offset = insn.offset
    if not JUMP_OFFSET_MIN <= offset <= JUMP_OFFSET_MAX:
        raise EncodingError(
            f"jump offset {offset} words out of range "
            f"[{JUMP_OFFSET_MIN}, {JUMP_OFFSET_MAX}]"
        )
    word = 0x2000 | (insn.opcode.code << 10) | (offset & 0x3FF)
    return [word]
