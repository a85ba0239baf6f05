"""Register file conventions of the MSP430.

R0..R3 are special: R0 is the program counter, R1 the stack pointer,
R2 the status register (and constant generator 1), R3 constant
generator 2.  R4..R15 are general purpose; EILID reserves R4..R7 for its
runtime (paper Table III).
"""

from repro.errors import IsaError

PC = 0
SP = 1
SR = 2
CG2 = 3

NUM_REGISTERS = 16

REGISTER_NAMES = tuple(
    {0: "pc", 1: "sp", 2: "sr", 3: "cg2"}.get(n, f"r{n}") for n in range(NUM_REGISTERS)
)

_ALIASES = {
    "pc": PC,
    "sp": SP,
    "sr": SR,
    "cg2": CG2,
}


def register_name(num):
    """Return the canonical display name for register *num* (``r0``..``r15``).

    The canonical assembly spelling uses ``rN`` for every register; the
    aliases ``pc``/``sp``/``sr`` are accepted on input only.
    """
    if not 0 <= num < NUM_REGISTERS:
        raise IsaError(f"register number out of range: {num}")
    return f"r{num}"


def parse_register(text):
    """Parse a register operand token (``r0``..``r15``, ``pc``, ``sp``, ``sr``).

    Returns the register number, or ``None`` if *text* is not a register.
    """
    low = text.strip().lower()
    if low in _ALIASES:
        return _ALIASES[low]
    if low.startswith("r") and low[1:].isdigit():
        num = int(low[1:])
        if 0 <= num < NUM_REGISTERS:
            return num
    return None


# Status-register flag bit positions (SLAU049 section 3.2.3).
FLAG_C = 0x0001
FLAG_Z = 0x0002
FLAG_N = 0x0004
FLAG_GIE = 0x0008
FLAG_CPUOFF = 0x0010
FLAG_OSCOFF = 0x0020
FLAG_SCG0 = 0x0040
FLAG_SCG1 = 0x0080
FLAG_V = 0x0100
