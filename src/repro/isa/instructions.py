"""Decoded-instruction container shared by encoder, decoder and CPU."""

from dataclasses import dataclass
from typing import Optional

from repro.errors import IsaError
from repro.isa.opcodes import Format, Opcode
from repro.isa.operands import Operand


@dataclass(frozen=True)
class Instruction:
    """A single (possibly multi-word) MSP430 instruction.

    ``byte_mode`` selects the ``.b`` variant of format I/II instructions.
    ``offset`` is the signed *word* offset of jump instructions.
    """

    opcode: Opcode
    src: Optional[Operand] = None
    dst: Optional[Operand] = None
    byte_mode: bool = False
    offset: Optional[int] = None

    def __post_init__(self):
        fmt = self.opcode.format
        if fmt is Format.DOUBLE:
            if self.src is None or self.dst is None:
                raise IsaError(f"{self.opcode.mnemonic} needs source and destination")
        elif fmt is Format.SINGLE:
            if self.opcode.mnemonic == "reti":
                if self.src is not None or self.dst is not None:
                    raise IsaError("reti takes no operands")
            elif self.dst is None:
                raise IsaError(f"{self.opcode.mnemonic} needs one operand")
        elif fmt is Format.JUMP:
            if self.offset is None:
                raise IsaError(f"{self.opcode.mnemonic} needs a jump offset")
        # All fields are frozen, so the encoded size is fixed; latch it
        # once -- cached instructions are re-used across steps.
        words = 1
        if self.src is not None:
            words += self.src.extension_words
        if self.dst is not None and fmt in (Format.DOUBLE, Format.SINGLE):
            words += self.dst.extension_words
        object.__setattr__(self, "_size_words", words)

    @property
    def mnemonic(self):
        return self.opcode.mnemonic

    @property
    def size_words(self):
        """Total encoded size in 16-bit words."""
        return self._size_words

    @property
    def size_bytes(self):
        return self._size_words * 2

    def render(self):
        """Canonical assembly text (used by listings and disassembly)."""
        name = self.mnemonic + (".b" if self.byte_mode else "")
        fmt = self.opcode.format
        if fmt is Format.DOUBLE:
            return f"{name} {self.src.render()}, {self.dst.render()}"
        if fmt is Format.SINGLE:
            if self.mnemonic == "reti":
                return name
            return f"{name} {self.dst.render()}"
        sign = "+" if self.offset >= 0 else ""
        return f"{name} ${sign}{self.offset * 2 + 2}"

    def __str__(self):
        return self.render()
