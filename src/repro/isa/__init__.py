"""MSP430 instruction-set architecture model.

This package models the 16-bit MSP430 core ISA as implemented by
openMSP430: the 27 core instructions in three formats (double-operand,
single-operand, relative jump), the seven addressing modes including the
constant generators on R2/R3, byte/word variants, status-register flag
semantics, and the instruction cycle counts of the MSP430x1xx family
user's guide (TI SLAU049).

The model is shared by the assembler/encoder (`repro.toolchain`), the
CPU simulator (`repro.cpu`) and the EILID instrumenter (`repro.eilid`).
`repro.isa.transfer` decides which instructions are calls, returns and
jumps, for CFG recovery, the decode cache and the branch trace alike.
"""

from repro.isa.registers import (
    PC,
    SP,
    SR,
    CG2,
    REGISTER_NAMES,
    register_name,
    parse_register,
)
from repro.isa.operands import AddrMode, Operand
from repro.isa.opcodes import (
    Format,
    Opcode,
    FORMAT1_OPCODES,
    FORMAT2_OPCODES,
    JUMP_OPCODES,
)
from repro.isa.instructions import Instruction
from repro.isa.encode import encode
from repro.isa.decode import decode
from repro.isa.cycles import instruction_cycles, INTERRUPT_CYCLES, RESET_CYCLES

__all__ = [
    "PC",
    "SP",
    "SR",
    "CG2",
    "REGISTER_NAMES",
    "register_name",
    "parse_register",
    "AddrMode",
    "Operand",
    "Format",
    "Opcode",
    "FORMAT1_OPCODES",
    "FORMAT2_OPCODES",
    "JUMP_OPCODES",
    "Instruction",
    "encode",
    "decode",
    "instruction_cycles",
    "INTERRUPT_CYCLES",
    "RESET_CYCLES",
]
