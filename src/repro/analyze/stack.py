"""Rule 1: interprocedural worst-case stack bounds.

Folds per-instruction stack effects (push/pop/call/ret/reti plus
``add/sub #N, sp`` frame adjustments) over each function's block CFG
with a max-dataflow pass, then composes functions over the call graph:
the worst depth at a call site is the local depth plus the pushed
return address plus the callee's own worst case.  Interrupts add the
hardware's PC+SR push plus the deepest handler, ``irq_nesting`` times.

Unbounded shapes -- recursive call cycles and loops whose net stack
effect is negative -- are findings in their own right; bounded firmware
is checked against the RAM floor (the end of the linked data sections)
and, for EILID-instrumented images, against the shadow-stack capacity
the secure DMEM bank can hold.

Indirect call sites use the EILID-registered target set when the image
carries one, falling back to the *address-taken* entries (the classic
binary-CFI refinement) -- deliberately narrower than ``recover_cfg``'s
all-entries fallback, which would manufacture call-graph cycles
through ``__start``.
"""

from typing import Dict, Optional, Tuple

from repro.analyze.findings import Finding
from repro.cfg.recover import RecoveredCfg
from repro.isa.operands import AddrMode
from repro.isa.registers import SP
from repro.isa.transfer import TransferKind

# Dataflow divergence guard: no 64 KB device nests this deep.
_DEPTH_CAP = 0x20000
_UNBOUNDED = (None, None)


def _sp_adjust(insn) -> Optional[int]:
    """Signed stack-pointer delta for ``add/sub #N, sp`` style insns."""
    dst = insn.dst
    if dst is None or dst.mode is not AddrMode.REGISTER or dst.reg != SP:
        return None
    src = insn.src
    if src is None or src.mode not in (AddrMode.IMMEDIATE, AddrMode.CONSTANT):
        return 0  # mov r4, sp etc.: untracked, treated as no-op
    value = src.value
    signed = value - 0x10000 if value >= 0x8000 else value
    name = insn.opcode.mnemonic
    if name == "add":
        return signed
    if name == "sub":
        return -signed
    if name == "mov":
        # SP re-initialisation (crt0): depth resets to zero.
        return "reset"
    return 0


class _StackModel:
    """Memoised per-function worst cases over the call graph."""

    def __init__(self, cfg: RecoveredCfg, indirect_callees: Tuple[str, ...]):
        self.cfg = cfg
        self.indirect_callees = indirect_callees
        # fname -> (worst_bytes, worst_call_nesting); (None, None) when
        # unbounded.
        self.memo: Dict[str, Tuple[Optional[int], Optional[int]]] = {}
        self._visiting = set()
        self.findings = []
        self._flagged = set()

    def _flag(self, rule: str, func, message: str, **evidence):
        if (rule, func.name) in self._flagged:
            return
        self._flagged.add((rule, func.name))
        self.findings.append(Finding(
            rule=rule, severity="critical", message=message,
            pc=func.entry, block=func.entry, function=func.name,
            evidence=evidence))

    def worst(self, fname: str):
        if fname in self.memo:
            return self.memo[fname]
        if fname in self._visiting:
            return _UNBOUNDED  # call cycle: the caller flags it
        func = self.cfg.functions.get(fname)
        if func is None or not func.blocks:
            return 0, 0
        self._visiting.add(fname)
        try:
            result = self._walk(func)
        finally:
            self._visiting.discard(fname)
        self.memo[fname] = result
        return result

    def _callee_worst(self, func, site_names, pc):
        """Max (bytes, nest) over a call site's possible callees."""
        worst_bytes = worst_nest = 0
        for callee in site_names:
            if callee in self._visiting:
                self._flag(
                    "stack-recursion", func,
                    f"call cycle through {callee}; worst-case stack "
                    f"depth is unbounded",
                    cycle_member=callee, call_pc=pc)
                return _UNBOUNDED
            bytes_, nest = self.worst(callee)
            if bytes_ is None:
                return _UNBOUNDED
            worst_bytes = max(worst_bytes, bytes_)
            worst_nest = max(worst_nest, nest)
        return worst_bytes, worst_nest

    def _walk(self, func):
        """Max-dataflow over one function's blocks; None = unbounded."""
        entries = self.cfg.function_entries
        in_depth: Dict[int, int] = {func.entry: 0}
        worklist = [func.entry]
        worst_bytes = 0
        worst_nest = 0
        while worklist:
            start = worklist.pop()
            cur = in_depth[start]
            block = func.blocks.get(start)
            if block is None:
                continue
            for decoded in block.insns:
                kind = decoded.kind
                insn = decoded.insn
                name = insn.opcode.mnemonic
                if kind in (TransferKind.CALL, TransferKind.CALL_INDIRECT):
                    if kind is TransferKind.CALL:
                        callees = ()
                        if decoded.target in entries:
                            callees = (entries[decoded.target],)
                    else:
                        callees = self.indirect_callees
                    sub_bytes, sub_nest = self._callee_worst(
                        func, callees, decoded.addr)
                    if sub_bytes is None:
                        return _UNBOUNDED
                    worst_bytes = max(worst_bytes, cur + 2 + sub_bytes)
                    worst_nest = max(worst_nest, 1 + sub_nest)
                    # The callee unwinds its frame and the return pops:
                    # net effect on the caller's depth is zero.
                elif kind is TransferKind.RET:
                    cur -= 2
                elif kind is TransferKind.RETI:
                    cur -= 4
                elif name == "push":
                    cur += 2
                elif name == "mov" and insn.src is not None \
                        and insn.src.mode is AddrMode.AUTOINC \
                        and insn.src.reg == SP:
                    cur -= 2  # pop rN
                else:
                    delta = _sp_adjust(insn)
                    if delta == "reset":
                        cur = 0
                    elif delta:
                        cur -= delta  # sp += delta shrinks the depth
                worst_bytes = max(worst_bytes, cur)
                if worst_bytes > _DEPTH_CAP:
                    self._flag(
                        "stack-unbounded", func,
                        "a loop grows the stack on every iteration; "
                        "worst-case depth diverges",
                        block=block.start)
                    return _UNBOUNDED
            terminator = block.insns[-1] if block.insns else None
            for successor in block.successors:
                if successor in func.blocks:
                    if in_depth.get(successor, -1) < cur:
                        in_depth[successor] = cur
                        worklist.append(successor)
                elif (terminator is not None
                      and terminator.kind is TransferKind.JUMP
                      and successor in entries):
                    # Tail jump into another function (the shim -> ROM
                    # pattern): its depth stacks on top of ours, with
                    # no pushed return address.
                    sub_bytes, sub_nest = self._callee_worst(
                        func, (entries[successor],), terminator.addr)
                    if sub_bytes is None:
                        return _UNBOUNDED
                    worst_bytes = max(worst_bytes, cur + sub_bytes)
                    worst_nest = max(worst_nest, sub_nest)
        return worst_bytes, worst_nest


def _data_floor(program, layout) -> int:
    """The first address the stack must not cross (end of static data)."""
    floor = layout.dmem.start
    for extent in program.sections:
        if extent.size > 0 and layout.in_dmem(extent.base):
            floor = max(floor, extent.end + 1)
    return floor


def analyze_stack(cfg: RecoveredCfg, program, variant: str,
                  indirect_callees: Tuple[str, ...],
                  stack_margin: int = 64, irq_nesting: int = 1):
    """Run the stack-bounds rule; returns (findings, stats)."""
    layout = program.layout
    model = _StackModel(cfg, indirect_callees)
    entry_name = cfg.function_entries.get(cfg.entry)
    main_bytes, main_nest = (model.worst(entry_name)
                             if entry_name else (0, 0))

    handler_bytes = handler_nest = 0
    deepest_handler = None
    for vector, handler in sorted(cfg.vectors.items()):
        if vector == 15 or handler not in cfg.function_entries:
            continue
        hname = cfg.function_entries[handler]
        bytes_, nest = model.worst(hname)
        if bytes_ is None:
            main_bytes = None
            break
        # Hardware interrupt entry pushes PC and SR (4 bytes).
        if 4 + bytes_ > handler_bytes:
            handler_bytes, handler_nest = 4 + bytes_, 1 + nest
            deepest_handler = hname

    findings = list(model.findings)
    stats = {}
    if main_bytes is not None:
        worst_total = main_bytes + irq_nesting * handler_bytes
        worst_nest = main_nest + irq_nesting * handler_nest
        floor = _data_floor(program, layout)
        lowest = layout.stack_top - worst_total
        stats = {"stack_worst_bytes": worst_total,
                 "stack_lowest_addr": lowest,
                 "stack_floor_addr": floor,
                 "call_nesting_worst": worst_nest}
        evidence = {"worst_bytes": worst_total, "lowest": lowest,
                    "floor": floor, "stack_top": layout.stack_top,
                    "irq_handler": deepest_handler,
                    "irq_nesting": irq_nesting}
        if lowest < floor:
            findings.append(Finding(
                rule="stack-overflow", severity="critical",
                message=(f"worst-case stack depth {worst_total} bytes "
                         f"drives SP to 0x{lowest & 0xFFFF:04x}, below the "
                         f"data floor 0x{floor:04x}"),
                function=entry_name, evidence=evidence))
        elif lowest - floor < stack_margin:
            findings.append(Finding(
                rule="stack-margin", severity="warn",
                message=(f"only {lowest - floor} bytes of stack headroom "
                         f"left above the data floor (margin {stack_margin})"),
                function=entry_name, evidence=evidence))
        capacity = layout.secure_dmem.size // 2
        if worst_nest > capacity:
            findings.append(Finding(
                rule="shadow-stack-overflow",
                severity="critical" if variant == "eilid" else "warn",
                message=(f"worst-case call nesting {worst_nest} exceeds the "
                         f"shadow-stack capacity of {capacity} entries"),
                function=entry_name,
                evidence={"nesting": worst_nest, "capacity": capacity}))
    return findings, stats
