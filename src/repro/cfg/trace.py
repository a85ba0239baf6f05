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

_FNV_OFFSET = 0xCBF29CE484222325
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
    return TraceSnapshot(edges=(), prefix_digest=_FNV_OFFSET,
                         digest=_FNV_OFFSET, total=0, dropped=0, capacity=0)


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
        """Does the edge window re-fold to the claimed digest?"""
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
    :meth:`observe` and :meth:`record_edge`.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("trace capacity must be >= 1")
        self.capacity = capacity
        # Ring entries: (src, dst, kind, chain_after).
        self._edges = deque(maxlen=capacity)
        self._digest = _FNV_OFFSET
        self._prefix = _FNV_OFFSET  # chain value before the oldest entry
        self.total = 0
        self.dropped = 0

    def observe(self, record, kind: str):
        self.record_edge(record.pc, record.next_pc, kind)

    def record_edge(self, src: int, dst: int, kind: str):
        edges = self._edges
        if len(edges) == self.capacity:
            # The leftmost entry is about to be evicted; its chain value
            # becomes the new prefix so snapshots stay verifiable.
            self._prefix = edges[0][3]
            self.dropped += 1
        # chain_edge, folded inline (one call per edge, not four); one
        # mask per product equals _fold's, as the fold works mod 2**64.
        digest = ((self._digest ^ src) * _FNV_PRIME) & _MASK64
        digest = ((digest ^ dst) * _FNV_PRIME) & _MASK64
        digest = ((digest ^ EDGE_KIND_CODES[kind]) * _FNV_PRIME) & _MASK64
        self._digest = digest
        edges.append((src, dst, kind, digest))
        self.total += 1

    def inject_edge(self, src: int, dst: int, kind: str):
        """Append an edge WITHOUT folding it into the digest chain.

        Models a compromised device (or in-path attacker) fabricating
        trace evidence; the snapshot stops re-folding to its digest and
        the verifier must flag it.  Test/fault-injection hook only.
        """
        self._edges.append((src, dst, kind, self._digest))
        self.total += 1

    def __len__(self):
        return len(self._edges)

    def snapshot(self) -> TraceSnapshot:
        return TraceSnapshot(
            edges=tuple((src, dst, kind) for src, dst, kind, _ in self._edges),
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
            "edges": [[src, dst, kind, chain]
                      for src, dst, kind, chain in self._edges],
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
        self._edges = deque(
            state_rows(state, "edges", int, int, EDGE_KIND_CODES, int),
            maxlen=self.capacity)
        self._digest = state_int(state, "digest")
        self._prefix = state_int(state, "prefix")
        self.total = state_int(state, "total")
        self.dropped = state_int(state, "dropped")

    def clear(self):
        """Forget everything (fresh provisioning, not used on reset --
        a violation's trace is exactly the evidence worth keeping)."""
        self._edges.clear()
        self._digest = _FNV_OFFSET
        self._prefix = _FNV_OFFSET
        self.total = 0
        self.dropped = 0
