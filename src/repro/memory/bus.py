"""Byte-addressable bus with per-access records.

Every CPU access goes through :class:`Bus`, which keeps the raw 64 KB
byte array, dispatches peripheral-register accesses to handlers, and
appends an :class:`Access` record to the current cycle's trace.  The
hardware monitors (``repro.casu.monitor``) see exactly these records --
the Python equivalent of tapping the MCU's ``mab``/``mdb``/``wen``
signals.

Alignment (SLAU049 3.2): word accesses ignore the low address bit --
``read_word(0x0201)`` and ``read_word(0x0200)`` address the same word,
exactly like the hardware's 16-bit memory address bus.  Accessing past
the top of the 64 KB address space raises :class:`MemoryAccessError`
(the CPU surfaces that as a fault step rather than crashing).

Peripheral byte reads: a register's read handler models the
architectural side effect of reading that register (e.g. popping the
UART RX FIFO), so it fires at most once per architectural access -- on
the data (low) byte.  Reading the high byte returns the latched backing
store without re-triggering the handler, so a byte-wise word read of a
data register fires its side effect exactly once.

The bus also participates in the CPU's decoded-instruction cache: every
mutation of ``mem`` through the bus (CPU writes, back-door pokes,
loader writes, violation rollbacks) invalidates any cached decode whose
words overlap the mutated address.  See :mod:`repro.cpu.core` for the
full contract.
"""

import enum
from typing import Callable, Dict, List, NamedTuple, Optional

from repro.errors import MemoryAccessError
from repro.memory.map import MemoryLayout

ADDRESS_SPACE = 0x10000


class AccessKind(enum.Enum):
    FETCH = "fetch"  # instruction/extension word fetch
    READ = "read"
    WRITE = "write"


class Access(NamedTuple):
    """One bus transaction, as seen by the hardware monitors."""

    kind: AccessKind
    addr: int
    value: int
    size: int  # 1 or 2 bytes
    pc: int  # PC of the instruction issuing the access
    prev: Optional[int] = None  # pre-write contents (writes only; for rollback)

    def __str__(self):
        return f"{self.kind.value.upper():5s} 0x{self.addr:04x} = 0x{self.value:04x} (pc=0x{self.pc:04x})"


class Bus:
    """Flat memory plus peripheral dispatch and access recording."""

    def __init__(self, layout: Optional[MemoryLayout] = None):
        self.layout = layout or MemoryLayout.default()
        self.mem = bytearray(ADDRESS_SPACE)
        self._read_handlers: Dict[int, Callable[[], int]] = {}
        self._write_handlers: Dict[int, Callable[[int], None]] = {}
        # Runs before any register handler, so lazily advanced
        # peripherals are exact for it (see PeripheralClock).
        self.before_io: Callable[[], None] = lambda: None
        self.trace: List[Access] = []
        # PC context for access records; the CPU sets this each step.
        self.current_pc = 0
        # Decoded-instruction cache coupling (see repro.cpu.core):
        # ``_dcache`` is the CPU-owned {pc: entry} dict; ``_dcache_index``
        # maps each word-aligned address covered by a cached instruction
        # to the set of cache keys to kill when that address is written;
        # ``_dcache_span`` remembers each key's word count so those index
        # entries can be unregistered on invalidation.
        self._dcache: Optional[dict] = None
        self._dcache_index: Dict[int, set] = {}
        self._dcache_span: Dict[int, int] = {}

    # ---- peripheral registration ------------------------------------------

    def register_peripheral_word(self, addr, read=None, write=None):
        """Attach handlers for a 16-bit peripheral register at *addr*."""
        if not self.layout.in_peripheral(addr):
            raise MemoryAccessError(f"0x{addr:04x} is not in the peripheral region")
        if read is not None:
            self._read_handlers[addr] = read
        if write is not None:
            self._write_handlers[addr] = write

    # ---- decoded-instruction cache hooks ----------------------------------

    def bind_decode_cache(self, cache: dict):
        """Adopt the CPU's decode cache for write invalidation."""
        self._dcache = cache
        self._dcache_index.clear()
        self._dcache_span.clear()

    def note_code_cached(self, key: int, n_words: int):
        """Register the code words a new cache entry depends on."""
        self._dcache_span[key] = n_words
        index = self._dcache_index
        for offset in range(n_words):
            addr = (key + 2 * offset) & 0xFFFE
            bucket = index.get(addr)
            if bucket is None:
                index[addr] = bucket = set()
            bucket.add(key)

    def _invalidate_code(self, addr):
        """Kill every cache entry whose words cover word-aligned *addr*."""
        cache = self._dcache
        index = self._dcache_index
        for key in index.pop(addr, ()):
            if cache is not None:
                cache.pop(key, None)
            for offset in range(self._dcache_span.pop(key, 0)):
                covered = (key + 2 * offset) & 0xFFFE
                bucket = index.get(covered)
                if bucket is not None:
                    bucket.discard(key)
                    if not bucket:
                        del index[covered]

    # ---- raw (monitor-invisible) access for loaders and test harnesses ----

    def load_bytes(self, addr, data):
        """Back-door write used by the image loader / attack harness.

        This models an external agent (programmer, DMA-capable attacker)
        rather than a CPU bus transaction, so it is not traced.  Security
        arguments never rely on it: CASU guards *CPU-issued* writes.
        """
        end = addr + len(data)
        if end > ADDRESS_SPACE:
            raise MemoryAccessError("image does not fit in the address space")
        self.mem[addr:end] = data
        if self._dcache_index:
            for aligned in range(addr & 0xFFFE, end, 2):
                if aligned in self._dcache_index:
                    self._invalidate_code(aligned)

    def restore_memory(self, baseline: bytes, delta) -> None:
        """Replace the whole memory image (snapshot restore path).

        A restore is an arbitrary mutation of every byte, so the entire
        decoded-instruction cache is dropped -- the same contract as
        self-modifying code, applied wholesale.  Cheaper and simpler
        than per-word invalidation over a 64 KB diff, and ``reset()``
        never refills stale entries because the cache is keyed by PC
        over *current* memory.
        """
        from repro.snapshot import apply_memory_delta

        if self._dcache is not None:
            self._dcache.clear()
        self._dcache_index.clear()
        self._dcache_span.clear()
        apply_memory_delta(self.mem, baseline, delta)

    def peek_word(self, addr):
        self._check(addr, 2)
        return self.mem[addr] | (self.mem[addr + 1] << 8)

    def peek_byte(self, addr):
        self._check(addr, 1)
        return self.mem[addr]

    def poke_word(self, addr, value):
        self._check(addr, 2)
        self.mem[addr] = value & 0xFF
        self.mem[addr + 1] = (value >> 8) & 0xFF
        base = addr & 0xFFFE
        if base in self._dcache_index:
            self._invalidate_code(base)
        if addr & 1:  # an odd poke straddles two words
            upper = (addr + 1) & 0xFFFE
            if upper in self._dcache_index:
                self._invalidate_code(upper)

    # ---- CPU-visible access -------------------------------------------------

    def fetch_word(self, addr):
        """Instruction-stream fetch (monitored as FETCH).

        Raises :class:`MemoryAccessError` when the fetch crosses the top
        of the address space (e.g. the extension word of a two-word
        instruction sitting at 0xFFFE); the CPU turns that into a fault
        step.
        """
        if addr < 0 or addr + 2 > ADDRESS_SPACE:
            raise MemoryAccessError(f"fetch at 0x{addr:04x} outside address space")
        addr &= 0xFFFE
        mem = self.mem
        value = mem[addr] | (mem[addr + 1] << 8)
        self.trace.append(Access(AccessKind.FETCH, addr, value, 2, self.current_pc))
        return value

    def read_word(self, addr):
        if addr < 0 or addr >= ADDRESS_SPACE:
            raise MemoryAccessError(f"access at 0x{addr:04x} outside address space")
        addr &= 0xFFFE  # SLAU049: low address bit ignored on word access
        handler = self._read_handlers.get(addr)
        if handler is not None:
            self.before_io()
            value = handler() & 0xFFFF
            mem = self.mem  # keep backing store coherent
            mem[addr] = value & 0xFF
            mem[addr + 1] = value >> 8
            if addr in self._dcache_index:  # register words can be executed
                self._invalidate_code(addr)
        else:
            mem = self.mem
            value = mem[addr] | (mem[addr + 1] << 8)
        self.trace.append(Access(AccessKind.READ, addr, value, 2, self.current_pc))
        return value

    def read_byte(self, addr):
        if addr < 0 or addr >= ADDRESS_SPACE:
            raise MemoryAccessError(f"access at 0x{addr:04x} outside address space")
        handler = self._read_handlers.get(addr)
        if handler is not None:
            # Handlers are registered at the register's (even) base
            # address, so this branch is the data-byte access: the one
            # architectural read that triggers the side effect.  The
            # high byte (odd address) reads the latched backing store.
            self.before_io()
            word = handler() & 0xFFFF
            mem = self.mem
            mem[addr] = value = word & 0xFF
            mem[addr + 1] = word >> 8
            if addr in self._dcache_index:  # register words can be executed
                self._invalidate_code(addr)
        else:
            value = self.mem[addr]
        self.trace.append(Access(AccessKind.READ, addr, value, 1, self.current_pc))
        return value

    def write_word(self, addr, value):
        if addr < 0 or addr >= ADDRESS_SPACE:
            raise MemoryAccessError(f"access at 0x{addr:04x} outside address space")
        addr &= 0xFFFE  # SLAU049: low address bit ignored on word access
        value &= 0xFFFF
        mem = self.mem
        self.trace.append(Access(AccessKind.WRITE, addr, value, 2,
                                 self.current_pc, mem[addr] | (mem[addr + 1] << 8)))
        mem[addr] = value & 0xFF
        mem[addr + 1] = value >> 8
        if addr in self._dcache_index:
            self._invalidate_code(addr)
        handler = self._write_handlers.get(addr)
        if handler is not None:
            self.before_io()
            handler(value)

    def write_byte(self, addr, value):
        if addr < 0 or addr >= ADDRESS_SPACE:
            raise MemoryAccessError(f"access at 0x{addr:04x} outside address space")
        value &= 0xFF
        mem = self.mem
        self.trace.append(Access(AccessKind.WRITE, addr, value, 1,
                                 self.current_pc, mem[addr]))
        mem[addr] = value
        base = addr & 0xFFFE
        if base in self._dcache_index:
            self._invalidate_code(base)
        handler = self._write_handlers.get(base)
        if handler is not None:
            self.before_io()
            handler(mem[base] | (mem[base + 1] << 8))

    # ---- internals -----------------------------------------------------------

    def _check(self, addr, size):
        if addr < 0 or addr + size > ADDRESS_SPACE:
            raise MemoryAccessError(f"access at 0x{addr:04x} outside address space")

    def rollback_writes(self, accesses):
        """Undo the WRITE accesses of one step (hardware reset semantics:
        a violating instruction never commits)."""
        for access in reversed(accesses):
            if access.kind is not AccessKind.WRITE or access.prev is None:
                continue
            if access.size == 2:
                self.poke_word(access.addr, access.prev)
            else:
                self.mem[access.addr] = access.prev & 0xFF
                base = access.addr & 0xFFFE
                if base in self._dcache_index:
                    self._invalidate_code(base)

    def drain_trace(self):
        """Return and clear the accesses recorded since the last drain."""
        trace, self.trace = self.trace, []
        return trace
