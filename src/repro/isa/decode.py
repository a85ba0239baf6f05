"""Instruction decoder: word stream -> :class:`Instruction`.

The decoder pulls extension words lazily through a ``fetch`` callable so
the CPU can account each word fetch on the bus (monitors observe every
fetch).  A convenience wrapper decodes from a flat word list for the
disassembler and tests.
"""

from repro.errors import DecodingError
from repro.isa.instructions import Instruction
from repro.isa.opcodes import (
    FORMAT1_BY_CODE,
    FORMAT2_BY_CODE,
    JUMP_BY_CODE,
    FORMAT2_BYTE_CAPABLE,
)
from repro.isa.operands import (
    AddrMode,
    complete_source,
    decode_dest,
    decode_source,
)


def decode(first_word, fetch_next):
    """Decode one instruction.

    *first_word* is the already-fetched instruction word; *fetch_next* is
    a zero-argument callable returning successive extension words.
    """
    top = (first_word >> 13) & 0x7
    if top == 0b001:
        return _decode_jump(first_word)
    if (first_word >> 10) == 0b000100:
        return _decode_single(first_word, fetch_next)
    code = (first_word >> 12) & 0xF
    if code >= 0x4:
        return _decode_double(first_word, fetch_next)
    raise DecodingError(f"illegal instruction word 0x{first_word:04x}")


def decode_words(words):
    """Decode from a word list; returns ``(instruction, words_consumed)``."""
    taken = {"n": 1}

    def fetch():
        if taken["n"] >= len(words):
            raise DecodingError("truncated instruction")
        word = words[taken["n"]]
        taken["n"] += 1
        return word

    insn = decode(words[0], fetch)
    return insn, taken["n"]


def _decode_double(word, fetch_next):
    opcode = FORMAT1_BY_CODE[(word >> 12) & 0xF]
    src_reg = (word >> 8) & 0xF
    ad_bit = (word >> 7) & 0x1
    byte_mode = bool((word >> 6) & 0x1)
    as_bits = (word >> 4) & 0x3
    dst_reg = word & 0xF

    src, needs_ext = decode_source(src_reg, as_bits)
    if needs_ext:
        src = complete_source(src_reg, as_bits, fetch_next())
    dst_ext = fetch_next() if ad_bit else None
    dst = decode_dest(dst_reg, ad_bit, dst_ext)
    return Instruction(opcode, src=src, dst=dst, byte_mode=byte_mode)


def _decode_single(word, fetch_next):
    code = (word >> 7) & 0x7
    if code not in FORMAT2_BY_CODE:
        raise DecodingError(f"illegal format-II opcode in 0x{word:04x}")
    opcode = FORMAT2_BY_CODE[code]
    if opcode.mnemonic == "reti":
        return Instruction(opcode)
    byte_mode = bool((word >> 6) & 0x1)
    if byte_mode and opcode.mnemonic not in FORMAT2_BYTE_CAPABLE:
        raise DecodingError(f"{opcode.mnemonic} has no byte variant")
    as_bits = (word >> 4) & 0x3
    reg = word & 0xF
    dst, needs_ext = decode_source(reg, as_bits)
    immediate = needs_ext and as_bits == 0b11  # @pc+
    constant = dst is not None and dst.mode is AddrMode.CONSTANT
    if opcode.writes_dest and (immediate or constant):
        # rrc/rra/swpb/sxt write their operand back: a constant
        # generator or an immediate has nowhere to write.
        raise DecodingError(f"{opcode.mnemonic} cannot write back to a constant")
    if needs_ext:
        dst = complete_source(reg, as_bits, fetch_next())
    return Instruction(opcode, dst=dst, byte_mode=byte_mode)


def _decode_jump(word):
    opcode = JUMP_BY_CODE[(word >> 10) & 0x7]
    offset = word & 0x3FF
    if offset & 0x200:
        offset -= 0x400
    return Instruction(opcode, offset=offset)
