"""Branch-trace recording: the device-side half of trace attestation.

A :class:`BranchTraceRecorder` keeps the *taken* control-flow edges --
calls, taken jumps/branches, returns, interrupt entries and interrupt
returns -- in a bounded ring buffer.  The CPU hands it each edge's
:class:`StepRecord` with the edge kind :mod:`repro.isa.transfer`
assigned the instruction when it was decoded.  Straight-line execution
and not-taken conditional jumps produce no edge, so the buffer holds
exactly the information a verifier needs to replay the control flow
against a statically recovered CFG (OAT-style trace attestation).

Wire/trace format (also noted in CHANGES.md):

* an **edge** is ``(src, dst, kind)`` -- the issuing PC, the resulting
  PC, and one of ``call | jump | ret | reti | irq``;
* the recorder chains a 64-bit FNV-1a digest over every edge it has
  ever seen (including edges later evicted from the ring); the chain
  value *before* the oldest retained edge travels with a snapshot as
  ``prefix_digest`` so a verifier can re-fold the retained window and
  compare against the MAC'd ``digest`` even when old edges were
  dropped;
* ``dropped`` counts evicted edges; ``total`` counts all edges ever.

The digest itself is not secret -- integrity comes from embedding it in
the MAC'd attestation report (:mod:`repro.fleet.protocol`): a tampered
or fabricated edge window no longer folds to the reported digest.
"""

from array import array
from collections import deque
from dataclasses import dataclass
from typing import Tuple

from repro.isa.transfer import EDGE_CALL, EDGE_IRQ, EDGE_JUMP, EDGE_RET, EDGE_RETI
from repro.snapshot import state_int, state_rows

# The code each edge kind folds into the digest chain.
EDGE_KIND_CODES = {
    EDGE_CALL: 1,
    EDGE_JUMP: 2,
    EDGE_RET: 3,
    EDGE_RETI: 4,
    EDGE_IRQ: 5,
}

# The chain value of an empty trace: the prefix of every window that
# has lost no edges.
FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _fold(h: int, value: int) -> int:
    h ^= value & _MASK64
    return (h * _FNV_PRIME) & _MASK64


def chain_edge(h: int, src: int, dst: int, kind: str) -> int:
    """Fold one edge into the rolling digest chain."""
    h = _fold(h, src)
    h = _fold(h, dst)
    return _fold(h, EDGE_KIND_CODES[kind])


def fold_edges(prefix: int, edges) -> int:
    """Re-fold an edge window over its prefix digest (verifier side)."""
    h = prefix
    for src, dst, kind in edges:
        h = chain_edge(h, src, dst, kind)
    return h


def empty_snapshot() -> "TraceSnapshot":
    """The snapshot of a device with trace recording disabled."""
    return TraceSnapshot(edges=(), prefix_digest=FNV_OFFSET,
                         digest=FNV_OFFSET, total=0, dropped=0, capacity=0)


@dataclass(frozen=True)
class TraceSnapshot:
    """One point-in-time view of a device's branch trace.

    ``edges`` is the retained window (oldest first); ``prefix_digest``
    is the chain value before the window's first edge; ``digest`` is
    the chain value after its last.  ``fold_edges(prefix_digest,
    edges) == digest`` iff the window is authentic.
    """

    edges: Tuple[Tuple[int, int, str], ...]
    prefix_digest: int
    digest: int
    total: int
    dropped: int
    capacity: int

    @property
    def digest_hex(self) -> str:
        return f"{self.digest:016x}"

    @property
    def windowed(self) -> bool:
        """True when edges were evicted (replay cannot assume boot state)."""
        return self.dropped > 0

    def consistent(self) -> bool:
        """Is the edge window an authentic window of its own counters?

        It must hold exactly the ``total - dropped`` edges that
        survive, a window that lost none must start from the empty
        chain (so an emptied window cannot pose as the whole trace),
        and it must re-fold over ``prefix_digest`` to ``digest``.
        """
        if len(self.edges) != self.total - self.dropped:
            return False
        if not self.dropped and self.prefix_digest != FNV_OFFSET:
            return False
        try:
            return fold_edges(self.prefix_digest, self.edges) == self.digest
        except KeyError:  # unknown edge kind smuggled in
            return False


def capture_trace(device, steps, max_cycles=None,
                  stop_on_done=True) -> "TraceSnapshot":
    """Run *device* for up to *steps* steps and snapshot its trace.

    Uses the batched :meth:`repro.device.Device.run_steps` inner loop so
    long captures amortize per-step Python overhead instead of paying
    the observer-hook price of ``Device.run``.  The device must have
    been built with trace recording enabled (``trace_capacity != 0``).
    """
    if device.trace is None:
        raise ValueError("device was built with trace recording disabled")
    device.run_steps(steps, max_cycles=max_cycles, stop_on_done=stop_on_done)
    return device.trace.snapshot()


class BranchTraceRecorder:
    """Bounded ring of taken control-flow edges with a rolling digest.

    Installed as ``Cpu.trace_sink``; the CPU calls :meth:`observe` once
    per edge with the edge's kind, so each edge costs two calls:
    :meth:`observe` and :meth:`record_edge`.  An edge costs the ring no
    new objects: it is kept as the equal tuple the ring already holds,
    and its chain value as an unboxed word of a 64-bit column.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("trace capacity must be >= 1")
        self.capacity = capacity
        self._edges = deque(maxlen=capacity)  # (src, dst, kind), oldest first
        self._shared = {}  # edge -> the equal tuple the ring holds
        # The chain value after each entry; the oldest entry's at _head.
        self._chains = array("Q")
        self._head = 0
        self._digest = FNV_OFFSET
        self._prefix = FNV_OFFSET  # chain value before the oldest entry
        self.total = 0
        self.dropped = 0

    def observe(self, record, kind: str):
        self.record_edge(record.pc, record.next_pc, kind)

    def record_edge(self, src: int, dst: int, kind: str):
        edges = self._edges
        if len(edges) == self.capacity:
            # The leftmost entry is about to be evicted; its chain value
            # becomes the new prefix so snapshots stay verifiable.
            self._prefix = self._evict()
            self.dropped += 1
        # chain_edge, folded inline (one call per edge, not four); one
        # mask per product equals _fold's, as the fold works mod 2**64.
        digest = ((self._digest ^ src) * _FNV_PRIME) & _MASK64
        digest = ((digest ^ dst) * _FNV_PRIME) & _MASK64
        digest = ((digest ^ EDGE_KIND_CODES[kind]) * _FNV_PRIME) & _MASK64
        self._digest = digest
        edge = (src, dst, kind)
        edges.append(self._shared.setdefault(edge, edge))
        self._chains.append(digest)
        self.total += 1

    def inject_edge(self, src: int, dst: int, kind: str):
        """Append an edge WITHOUT folding it into the digest chain.

        Models a compromised device (or in-path attacker) fabricating
        trace evidence; the snapshot stops re-folding to its digest and
        the verifier must flag it.  Test/fault-injection hook only.
        """
        if len(self._edges) == self.capacity:
            self._evict()  # the entry goes uncounted and the prefix stays
        self._edges.append((src, dst, kind))
        self._chains.append(self._digest)
        self.total += 1

    def _evict(self) -> int:
        """Pop the oldest entry's chain value.  The column is compacted
        once per capacity evictions (amortised O(1), never more than
        twice the ring), and the shared-edge table is bounded then."""
        chain = self._chains[self._head]
        self._head += 1
        if self._head == self.capacity:
            del self._chains[:self._head]
            self._head = 0
            if len(self._shared) > self.capacity:
                self._shared.clear()
        return chain

    def __len__(self):
        return len(self._edges)

    def snapshot(self) -> TraceSnapshot:
        return TraceSnapshot(
            edges=tuple(self._edges),
            prefix_digest=self._prefix,
            digest=self._digest,
            total=self.total,
            dropped=self.dropped,
            capacity=self.capacity,
        )

    # ---- snapshot/restore (see repro.snapshot) ---------------------------

    def snapshot_state(self):
        """Full recorder state, including the per-entry chain values
        (unlike :meth:`snapshot`, which is the attestation *evidence*
        view and drops them)."""
        return {
            "edges": [[src, dst, kind, chain] for (src, dst, kind), chain
                      in zip(self._edges, self._chains[self._head:])],
            "digest": self._digest,
            "prefix": self._prefix,
            "total": self.total,
            "dropped": self.dropped,
            "capacity": self.capacity,
        }

    def restore_state(self, state):
        if state["capacity"] != self.capacity:
            raise ValueError(
                f"trace snapshot capacity {state['capacity']} does not match "
                f"recorder capacity {self.capacity}")
        rows = state_rows(state, "edges", int, int, EDGE_KIND_CODES,
                          int)[-self.capacity:]
        try:
            self._chains = array("Q", [row[3] for row in rows])
        except OverflowError:
            raise ValueError("trace chain values must be 64-bit words") from None
        self._head = 0
        self._edges = deque([row[:3] for row in rows], maxlen=self.capacity)
        self._shared = {}
        self._digest = state_int(state, "digest")
        self._prefix = state_int(state, "prefix")
        self.total = state_int(state, "total")
        self.dropped = state_int(state, "dropped")
