"""Operand and addressing-mode model.

The MSP430 has seven addressing modes.  Source operands use the 2-bit
``As`` field plus the register number; destinations use the 1-bit ``Ad``
field.  The modes are:

===========  ==================  ==========================
mode         assembly            effective address
===========  ==================  ==========================
REGISTER     ``rN``              (register itself)
INDEXED      ``x(rN)``           ``rN + x``
SYMBOLIC     ``LABEL``           ``PC + x`` (PC-relative)
ABSOLUTE     ``&LABEL``          ``x``
INDIRECT     ``@rN``             ``rN``
AUTOINC      ``@rN+``            ``rN`` (then ``rN += size``)
IMMEDIATE    ``#x``              (value is the extension word)
===========  ==================  ==========================

Constant generators: with R2 as source, As=10/11 produce the constants
4/8 with no extension word; with R3 as source, As=00..11 produce
0/1/2/-1.  The encoder exploits these automatically for immediates.
"""

import enum
from dataclasses import dataclass
from typing import Optional

from repro.errors import IsaError
from repro.isa.registers import PC, SR, CG2, register_name


class AddrMode(enum.Enum):
    REGISTER = "register"
    INDEXED = "indexed"
    SYMBOLIC = "symbolic"
    ABSOLUTE = "absolute"
    INDIRECT = "indirect"
    AUTOINC = "autoinc"
    IMMEDIATE = "immediate"
    CONSTANT = "constant"  # constant-generator encodings of R2/R3

    @property
    def has_extension_word(self):
        return self in (
            AddrMode.INDEXED,
            AddrMode.SYMBOLIC,
            AddrMode.ABSOLUTE,
            AddrMode.IMMEDIATE,
        )


# Constants available from the generators, mapped to (reg, as_bits).
CG_CONSTANTS = {
    0: (CG2, 0b00),
    1: (CG2, 0b01),
    2: (CG2, 0b10),
    0xFFFF: (CG2, 0b11),
    4: (SR, 0b10),
    8: (SR, 0b11),
}

# Reverse map: (reg, as_bits) -> constant value.
CG_VALUES = {pair: value for value, pair in CG_CONSTANTS.items()}


@dataclass(frozen=True)
class Operand:
    """A single decoded/parseable operand.

    ``value`` is the extension-word payload (index, address or
    immediate), already reduced modulo 2**16 for concrete operands.  For
    CONSTANT mode it is the generated constant.  ``long_form`` marks an
    IMMEDIATE that a constant generator could produce but whose machine
    code spends an extension word on it anyway (non-canonical code the
    decoder meets in arbitrary bytes); the assembler never sets it.
    """

    mode: AddrMode
    reg: Optional[int] = None
    value: Optional[int] = None
    long_form: bool = False

    # ---- constructors ----------------------------------------------------

    @staticmethod
    def register(reg):
        return Operand(AddrMode.REGISTER, reg=reg)

    @staticmethod
    def indexed(value, reg):
        return Operand(AddrMode.INDEXED, reg=reg, value=value & 0xFFFF)

    @staticmethod
    def symbolic(value):
        return Operand(AddrMode.SYMBOLIC, reg=PC, value=value & 0xFFFF)

    @staticmethod
    def absolute(value):
        return Operand(AddrMode.ABSOLUTE, reg=SR, value=value & 0xFFFF)

    @staticmethod
    def indirect(reg):
        return Operand(AddrMode.INDIRECT, reg=reg)

    @staticmethod
    def autoinc(reg):
        return Operand(AddrMode.AUTOINC, reg=reg)

    @staticmethod
    def immediate(value, long_form=False):
        value &= 0xFFFF
        return Operand(AddrMode.IMMEDIATE, reg=PC, value=value,
                       long_form=long_form and value in CG_CONSTANTS)

    @staticmethod
    def constant(value, reg, as_bits):
        return Operand(AddrMode.CONSTANT, reg=reg, value=value & 0xFFFF)

    # ---- properties ------------------------------------------------------

    @property
    def extension_words(self):
        if (self.mode is AddrMode.IMMEDIATE and self.value in CG_CONSTANTS
                and not self.long_form):
            return 0  # the constant generators encode these for free
        return 1 if self.mode.has_extension_word else 0

    def source_encoding(self):
        """Return ``(reg, as_bits, ext_word_or_None)`` for a source field."""
        mode = self.mode
        if mode is AddrMode.REGISTER:
            return self.reg, 0b00, None
        if mode is AddrMode.INDEXED:
            return self.reg, 0b01, self.value
        if mode is AddrMode.SYMBOLIC:
            return PC, 0b01, self.value
        if mode is AddrMode.ABSOLUTE:
            return SR, 0b01, self.value
        if mode is AddrMode.INDIRECT:
            return self.reg, 0b10, None
        if mode is AddrMode.AUTOINC:
            return self.reg, 0b11, None
        if mode is AddrMode.IMMEDIATE:
            if self.value in CG_CONSTANTS and not self.long_form:
                reg, as_bits = CG_CONSTANTS[self.value]
                return reg, as_bits, None
            return PC, 0b11, self.value
        if mode is AddrMode.CONSTANT:
            reg, as_bits = CG_CONSTANTS[self.value]
            return reg, as_bits, None
        raise IsaError(f"cannot encode source operand mode {mode}")

    def dest_encoding(self):
        """Return ``(reg, ad_bit, ext_word_or_None)`` for a destination field."""
        mode = self.mode
        if mode is AddrMode.REGISTER:
            return self.reg, 0, None
        if mode is AddrMode.INDEXED:
            return self.reg, 1, self.value
        if mode is AddrMode.SYMBOLIC:
            return PC, 1, self.value
        if mode is AddrMode.ABSOLUTE:
            return SR, 1, self.value
        raise IsaError(f"operand mode {mode} is not a legal destination")

    def render(self):
        """Canonical assembly text for this operand."""
        mode = self.mode
        if mode is AddrMode.REGISTER:
            return register_name(self.reg)
        if mode is AddrMode.INDEXED:
            return f"{_hex(self.value)}({register_name(self.reg)})"
        if mode is AddrMode.SYMBOLIC:
            return _hex(self.value)
        if mode is AddrMode.ABSOLUTE:
            return f"&{_hex(self.value)}"
        if mode is AddrMode.INDIRECT:
            return f"@{register_name(self.reg)}"
        if mode is AddrMode.AUTOINC:
            return f"@{register_name(self.reg)}+"
        if mode in (AddrMode.IMMEDIATE, AddrMode.CONSTANT):
            return f"#{_hex(self.value)}"
        raise IsaError(f"cannot render operand mode {mode}")


def _hex(value):
    value &= 0xFFFF
    return f"0x{value:x}" if value > 9 else str(value)


def decode_source(reg, as_bits):
    """Map a decoded (reg, As) pair to an operand *shape*.

    Returns ``(Operand-or-None, needs_extension_word)``.  If the operand
    requires an extension word, the caller fetches it and completes the
    operand via :func:`complete_source`.
    """
    if reg == CG2:
        return Operand.constant(CG_VALUES[(CG2, as_bits)], CG2, as_bits), False
    if reg == SR and as_bits >= 0b10:
        return Operand.constant(CG_VALUES[(SR, as_bits)], SR, as_bits), False
    if as_bits == 0b00:
        return Operand.register(reg), False
    if as_bits == 0b01:
        if reg == SR:
            return None, True  # absolute
        if reg == PC:
            return None, True  # symbolic
        return None, True  # indexed
    if as_bits == 0b10:
        return Operand.indirect(reg), False
    if as_bits == 0b11:
        if reg == PC:
            return None, True  # immediate
        return Operand.autoinc(reg), False
    raise IsaError(f"invalid As bits: {as_bits}")


def complete_source(reg, as_bits, ext_word):
    """Build the extension-word source operand for (reg, As, ext)."""
    if as_bits == 0b01:
        if reg == SR:
            return Operand.absolute(ext_word)
        if reg == PC:
            return Operand.symbolic(ext_word)
        return Operand.indexed(ext_word, reg)
    if as_bits == 0b11 and reg == PC:
        return Operand.immediate(ext_word, long_form=True)
    raise IsaError(f"(reg={reg}, As={as_bits}) does not take an extension word")


def decode_dest(reg, ad_bit, ext_word=None):
    """Map a decoded (reg, Ad[, ext]) to a destination operand."""
    if ad_bit == 0:
        return Operand.register(reg)
    if ext_word is None:
        raise IsaError("indexed destination requires an extension word")
    if reg == SR:
        return Operand.absolute(ext_word)
    if reg == PC:
        return Operand.symbolic(ext_word)
    return Operand.indexed(ext_word, reg)
