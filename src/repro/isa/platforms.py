"""Control-transfer instruction descriptors for low-end MCU platforms.

This is the substrate behind the paper's Table II: for each popular
low-end platform, the instructions EILIDinst must recognise -- function
call, function return, return-from-interrupt, and the forms an indirect
call can take.  The MSP430 descriptor is cross-checked against the ISA
tables in this package by a unit test; the AVR and PIC16 descriptors are
data used for the table and for the instrumenter's portability layer.
"""

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class PlatformIsa:
    """Control-transfer instruction summary for one MCU platform."""

    name: str
    word_bits: int
    call: Tuple[str, ...]
    ret: Tuple[str, ...]
    reti: Tuple[str, ...]
    indirect_call: Tuple[str, ...]

    def table_row(self):
        """Row for the Table II reproduction."""
        return {
            "platform": self.name,
            "call": ", ".join(m.upper() for m in self.call),
            "return": ", ".join(m.upper() for m in self.ret),
            "return_from_interrupt": ", ".join(m.upper() for m in self.reti),
            "indirect_call": ", ".join(m.upper() for m in self.indirect_call),
        }


MSP430 = PlatformIsa(
    name="TI MSP430",
    word_bits=16,
    call=("call",),
    ret=("ret",),
    reti=("reti",),
    indirect_call=("call",),  # CALL with a register/indirect operand
)

ATMEGA32 = PlatformIsa(
    name="AVR ATMega32",
    word_bits=8,
    call=("call",),
    ret=("ret",),
    reti=("reti",),
    indirect_call=("rcall", "icall"),
)

PIC16 = PlatformIsa(
    name="Microchip PIC16",
    word_bits=8,
    call=("call",),
    ret=("return",),
    reti=("retfie",),
    indirect_call=("call", "rcall"),
)

PLATFORMS = (MSP430, ATMEGA32, PIC16)
