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

Secure ROM is mask ROM: a CPU write into it is recorded (the monitors
see the store) but leaves the cells unchanged; only the back doors
(:meth:`Bus.load_bytes`, :meth:`Bus.poke_word`) write there.

Parking: a bus that nothing runs on can drop its 64 KB array and keep,
as ``bytes``, only the 256-B pages that differ from its program's image
(:meth:`Bus.park`); :meth:`Bus.unpark` rebuilds the array from the two.
The decode cache survives both, because the bytes it decoded are the
same.  A parked bus holds no array at all, so an access that missed its
unpark raises instead of reading zeros.
"""

import enum
from typing import Callable, Dict, List, NamedTuple, Optional

from repro.errors import MemoryAccessError
from repro.memory.map import READ_ONLY, MemoryLayout
from repro.snapshot import apply_memory_delta, changed_pages

ADDRESS_SPACE = 0x10000


class AccessKind(enum.Enum):
    FETCH = "fetch"  # instruction/extension word fetch
    READ = "read"
    WRITE = "write"


class Access(NamedTuple):
    """One bus transaction, as seen by the hardware monitors.  The PC of
    the instruction issuing it is its step record's ``pc``."""

    kind: AccessKind
    addr: int
    value: int
    size: int  # 1 or 2 bytes
    prev: Optional[int] = None  # pre-write contents (writes only; for rollback)

    def __str__(self):
        return f"{self.kind.value.upper():5s} 0x{self.addr:04x} = 0x{self.value:04x}"


# The accessors build their records with ``tuple.__new__``: every
# field in order, ``prev`` included, and no Python-level ``__new__``
# frame per access.
_new_access = tuple.__new__
_FETCH = AccessKind.FETCH
_READ = AccessKind.READ
_WRITE = AccessKind.WRITE


class Bus:
    """Flat memory plus peripheral dispatch and access recording."""

    def __init__(self, layout: Optional[MemoryLayout] = None,
                 image: Optional[bytes] = None):
        self.layout = layout or MemoryLayout.default()
        # Zeroed RAM, or one copy of a loaded 64 KB *image* (the decode
        # cache is empty, so there is nothing to invalidate).  None
        # while parked: then ``_parked`` holds the differing pages.
        self.mem = bytearray(ADDRESS_SPACE if image is None else image)
        self._parked: Optional[list] = None
        # 1 at each address CPU writes leave unchanged (shared per layout).
        self._read_only = self.layout.translate_flags(READ_ONLY)
        self._read_handlers: Dict[int, Callable[[], int]] = {}
        self._write_handlers: Dict[int, Callable[[int], None]] = {}
        # Runs before any register handler, so lazily advanced
        # peripherals are exact for it (see PeripheralClock).
        self.before_io: Callable[[], None] = lambda: None
        self.trace: List[Access] = []
        # Decoded-instruction cache coupling (see repro.cpu.core):
        # ``_dcache`` is the CPU-owned {pc: entry} dict; ``_dcache_index``
        # maps each word-aligned address covered by a cached instruction
        # to a bit mask of where those instructions start: bit k set
        # means the entry at ``addr - 2 * k`` covers *addr*.  An
        # instruction spans at most three words, so k < 3, and a
        # covered word costs one dict slot holding a small int.
        self._dcache: Optional[dict] = None
        self._dcache_index: Dict[int, int] = {}

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

    def note_code_cached(self, key: int, n_words: int):
        """Register the code words a new cache entry depends on: word
        ``key + 2 * k`` gets bit k.  *key* is the entry's word-aligned
        PC, and a fetch never crosses the top of the address space, so
        the words never wrap."""
        index = self._dcache_index
        for offset in range(n_words):
            addr = key + 2 * offset
            index[addr] = index.get(addr, 0) | (1 << offset)

    def _invalidate_code(self, addr):
        """Kill every cache entry whose words cover word-aligned *addr*.

        An entry's own words are exactly those that carry its bit
        (word ``key + 2 * k``, bit k), so unregistering it needs no
        record of its span.
        """
        cache = self._dcache
        index = self._dcache_index
        starts = index.pop(addr, 0)
        for back in range(3):
            if not starts >> back & 1:
                continue
            key = addr - 2 * back
            if cache is not None:
                cache.pop(key, None)
            for offset in range(3):
                covered = key + 2 * offset
                mask = index.get(covered, 0)
                if mask >> offset & 1:
                    mask &= ~(1 << offset)
                    if mask:
                        index[covered] = mask
                    else:
                        del index[covered]

    # ---- raw (monitor-invisible) access for loaders and test harnesses ----

    def load_bytes(self, addr, data):
        """Back-door write used by loaders and the attack harness.

        This models an external agent (programmer, DMA-capable attacker)
        rather than a CPU bus transaction, so it is not traced.  Security
        arguments never rely on it: CASU guards *CPU-issued* writes.
        """
        end = addr + len(data)
        if addr < 0 or end > ADDRESS_SPACE:
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
        if self._dcache is not None:
            self._dcache.clear()
        self._dcache_index.clear()
        apply_memory_delta(self.mem, baseline, delta)

    def park(self, image: bytes) -> None:
        """Drop the array, keeping the pages that differ from *image*."""
        self._parked = changed_pages(self.mem, image)
        self.mem = None

    def unpark(self, image: bytes) -> None:
        """Rebuild the array: *image* plus the pages :meth:`park` kept."""
        mem = bytearray(image)
        for start, page in self._parked:
            mem[start:start + len(page)] = page
        self.mem = mem
        self._parked = None

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
        self.trace.append(_new_access(
            Access, (_FETCH, addr, value, 2, None)))
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
        self.trace.append(_new_access(
            Access, (_READ, addr, value, 2, None)))
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
        self.trace.append(_new_access(
            Access, (_READ, addr, value, 1, None)))
        return value

    def write_word(self, addr, value):
        if addr < 0 or addr >= ADDRESS_SPACE:
            raise MemoryAccessError(f"access at 0x{addr:04x} outside address space")
        addr &= 0xFFFE  # SLAU049: low address bit ignored on word access
        value &= 0xFFFF
        mem = self.mem
        self.trace.append(_new_access(Access, (
            _WRITE, addr, value, 2, mem[addr] | (mem[addr + 1] << 8))))
        if self._read_only[addr]:
            return  # ROM: the store is on the bus, the cells keep their bits
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
        self.trace.append(_new_access(Access, (
            _WRITE, addr, value, 1, mem[addr])))
        if self._read_only[addr]:
            return
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
            if access.kind is not _WRITE or access.prev is None:
                continue
            if access.size == 2:
                self.poke_word(access.addr, access.prev)
            else:
                self.mem[access.addr] = access.prev & 0xFF
                base = access.addr & 0xFFFE
                if base in self._dcache_index:
                    self._invalidate_code(base)
