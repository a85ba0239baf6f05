"""Trace replay: validate a recorded branch trace against a CFI policy.

The replayer walks the edge window of a :class:`TraceSnapshot` and
checks every taken edge against the statically recovered CFG:

* **direct transfers** (``call #f``, ``jmp``/``jcc``, ``br #f``) must
  land exactly on their encoded target;
* **indirect calls** must land inside the policy's indirect-target set
  (the EILID call table, or the discovered function entries for
  uninstrumented firmware);
* **returns** are replayed against a verifier-side shadow stack: each
  call pushes its static return site, each ``ret`` must pop a matching
  frame (OAT-style backward-edge replay);
* **interrupt entries** push the interrupted PC; each ``reti`` must
  pop exactly that PC -- a tampered saved context cannot replay;
* every edge destination must lie inside an executable range, so a
  diverted return into RAM shellcode fails before any stack logic.

Ring-buffer truncation (``snapshot.dropped > 0``) switches the
replayer to *windowed* mode: a return or ``reti`` that under-runs the
reconstructed stack is then checked against the static return-site /
code universe instead of being rejected outright, because its matching
call may have been evicted.  Untruncated traces get the strict
treatment.  The device's ROM-invocation convention (a routine invoked
by pushing ``__halt`` directly, see ``Device.call_routine``) is the one
sanctioned stack-less return and is allowed by ``halt_address``.
"""

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.cfg.policy import CfiPolicy
from repro.cfg.trace import TraceSnapshot
from repro.isa.transfer import (
    EDGE_CALL,
    EDGE_IRQ,
    EDGE_JUMP,
    EDGE_KINDS,
    EDGE_RET,
    EDGE_RETI,
    TransferKind,
)

# The edge kind each static transfer kind (as the policy stores it)
# records when taken.
_EDGE_OF_TRANSFER = {kind.value: edge for kind, edge in EDGE_KINDS.items()}

_FRAME_CALL = "call"
_FRAME_IRQ = "irq"


@dataclass
class ReplayResult:
    ok: bool
    reason: str = ""
    edges_checked: int = 0
    failed_index: Optional[int] = None
    failed_edge: Optional[Tuple[int, int, str]] = None

    def __str__(self):
        if self.ok:
            return f"replay ok ({self.edges_checked} edges)"
        src, dst, kind = self.failed_edge or (0, 0, "?")
        return (f"replay REJECTED at edge {self.failed_index} "
                f"({kind} 0x{src:04x}->0x{dst:04x}): {self.reason}")


class TraceReplayer:
    """Replays traces against one firmware's :class:`CfiPolicy`."""

    def __init__(self, policy: CfiPolicy):
        self.policy = policy

    def replay(self, snapshot: TraceSnapshot,
               check_digest: bool = True) -> ReplayResult:
        """Validate *snapshot*: the window binding first
        (:meth:`TraceSnapshot.consistent`), then the walk."""
        if check_digest and not snapshot.consistent():
            return ReplayResult(
                False, "edge window does not match its digest and counters",
                edges_checked=0, failed_index=None, failed_edge=None)
        return self.replay_edges(snapshot.edges, windowed=snapshot.windowed)

    def replay_edges(self, edges, windowed: bool = False) -> ReplayResult:
        policy = self.policy
        stack: List[Tuple[str, int]] = []
        handlers = policy.handler_addresses

        for index, (src, dst, kind) in enumerate(edges):

            def reject(reason):
                return ReplayResult(False, reason, index, index, (src, dst, kind))

            if not policy.in_code(dst):
                return reject("edge target outside executable code")

            if kind == EDGE_IRQ:
                # Interrupts may preempt any instruction; the handler
                # must be one the IVT names, and the interrupted PC is
                # what the matching reti must restore.
                if dst not in handlers:
                    return reject("interrupt entry to a non-IVT handler")
                stack.append((_FRAME_IRQ, src))
                continue

            transfer = policy.transfers.get(src)
            if transfer is None:
                return reject("edge from a non-control-transfer instruction")
            if _EDGE_OF_TRANSFER.get(transfer.kind) != kind:
                return reject(
                    f"recorded {kind} edge but 0x{src:04x} is a {transfer.kind}")

            if kind == EDGE_CALL:
                if transfer.kind == TransferKind.CALL.value:
                    if dst != transfer.target:
                        return reject("direct call diverted from encoded target")
                elif dst not in policy.indirect_targets:
                    return reject("indirect call target not in the call table")
                stack.append((_FRAME_CALL, transfer.return_site))
            elif kind == EDGE_JUMP:
                if transfer.kind == TransferKind.JUMP_INDIRECT.value:
                    return reject("indirect jump (forbidden by policy)")
                if dst != transfer.target:
                    return reject("jump diverted from encoded target")
            elif kind == EDGE_RET:
                if dst == policy.halt_address:
                    continue  # ROM-invocation convention: see module docs
                if stack:
                    frame_kind, expected = stack.pop()
                    if frame_kind != _FRAME_CALL:
                        return reject("return while an interrupt frame is open")
                    if dst != expected:
                        return reject("return address does not match call site")
                elif windowed:
                    if dst not in policy.return_sites:
                        return reject("underflowed return to a non-return-site")
                else:
                    return reject("return with an empty call stack")
            elif kind == EDGE_RETI:
                if stack:
                    frame_kind, expected = stack.pop()
                    if frame_kind != _FRAME_IRQ:
                        return reject("reti while a call frame is open")
                    if dst != expected:
                        return reject("reti does not restore the interrupted PC")
                elif not windowed:
                    return reject("reti with an empty interrupt stack")
                # windowed + empty stack: the matching irq edge was
                # evicted; in-code destination (checked above) suffices.
            else:
                return reject(f"unknown edge kind {kind!r}")

        return ReplayResult(True, edges_checked=len(edges))


def replay_trace(policy: CfiPolicy, snapshot: TraceSnapshot,
                 check_digest: bool = True) -> ReplayResult:
    """Module-level convenience wrapper."""
    return TraceReplayer(policy).replay(snapshot, check_digest=check_digest)
