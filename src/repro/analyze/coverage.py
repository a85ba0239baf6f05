"""Rule 3: CFI-policy coverage lint over the recovered CFG.

Four checks, all about gaps between what the image *does* and what the
CFI policy / shadow-stack replayer can *vouch for*:

* **indirect-unregistered** -- the image performs indirect calls but
  carries no EILID call-table registrations, so ``recover_cfg`` fell
  back to the all-function-entries target set.  Every such call site
  is flagged: the over-wide set admits pointer bends to any function
  (the paper's acknowledged function-level-CFI limitation, made worse
  by the fallback).
* **rom-entry-bypass** -- a direct jump or call whose target lands
  inside the trusted ROM at anything other than a blessed entry point
  (``S_EILID_entry`` / ``S_CASU_update_copy``): the ROM-atomicity
  monitor resets on this at runtime; the lint catches it statically.
* **unreachable-block** -- basic blocks no path from the reset entry,
  any ISR handler, or any transfer target reaches.  Dead code is
  attack surface the policy still admits (its entries sit in the
  fallback target set).
* **dead-isr / unmatched-return** -- ``reti`` in a function no IVT
  vector points at (a handler that can never be dispatched), and
  ``ret`` in a function that is never called, never address-taken and
  not an ISR -- a return the shadow-stack replayer could never match
  to a pushed site.
"""

from typing import List, Set, Tuple

from repro.analyze.findings import Finding
from repro.cfg.recover import RecoveredCfg
from repro.isa.operands import AddrMode
from repro.isa.transfer import TransferKind


def address_taken_entries(cfg: RecoveredCfg) -> Tuple[int, ...]:
    """Function entries whose address flows as *data* somewhere.

    The principled narrow indirect-target set: an indirect call can
    only reach a function whose address was materialised as a value
    (stored to memory or a register), never one merely named as a
    direct call target.  Mirrors ``recover_cfg``'s address-taken
    discovery, restricted to known function entries.
    """
    taken: Set[int] = set()
    for decoded in cfg.insns.values():
        if decoded.kind is not TransferKind.NONE:
            continue
        insn = decoded.insn
        for operand in (insn.src, insn.dst):
            if operand is None or operand.value is None:
                continue
            if operand.mode is not AddrMode.IMMEDIATE:
                continue
            if operand.value in cfg.function_entries:
                taken.add(operand.value)
    return tuple(sorted(taken))


def _rom_entry_points(program) -> Set[int]:
    from repro.eilid.trusted_sw import TrustedSoftware

    config = TrustedSoftware.rom_config_from_symbols(program.symbols)
    return set(config.entry_points)


def _reachable_blocks(cfg: RecoveredCfg) -> Set[int]:
    """Block starts reachable from the entry, handlers and call sites."""
    # Function-level reachability first: entry + handlers + every
    # direct callee + every indirect target (the admitted set).
    reachable_funcs: Set[str] = set()
    roots = [cfg.function_entries.get(cfg.entry)]
    roots += [cfg.function_entries.get(handler)
              for vector, handler in cfg.vectors.items()]
    roots += [cfg.function_entries.get(addr) for addr in cfg.indirect_targets]
    # A call returns to its fall-through address; when address-taken
    # discovery split a spurious "function" at that return site (the
    # EILID store_ra registration takes every return address), the
    # continuation is as reachable as the call itself.
    roots += [cfg.function_entries.get(site.return_addr)
              for site in cfg.call_sites]
    worklist = [name for name in roots if name]
    while worklist:
        name = worklist.pop()
        if name in reachable_funcs:
            continue
        reachable_funcs.add(name)
        worklist.extend(cfg.call_graph.get(name, ()))
        func = cfg.functions.get(name)
        if func is None:
            continue
        # Tail jumps leave the function without a call edge.
        for block in func.blocks.values():
            for successor in block.successors:
                if successor in cfg.function_entries \
                        and successor not in func.blocks:
                    worklist.append(cfg.function_entries[successor])

    # Block-level within each reachable function, seeded from its
    # entry block and from every transfer that targets it from outside.
    targeted: Set[int] = set()
    for decoded in cfg.insns.values():
        if decoded.target is not None:
            targeted.add(decoded.target)
        if decoded.kind in (TransferKind.CALL, TransferKind.CALL_INDIRECT):
            targeted.add(decoded.next_addr)  # the return resumes here
    reachable: Set[int] = set()
    for name in reachable_funcs:
        func = cfg.functions.get(name)
        if func is None:
            continue
        seeds = [func.entry]
        seeds += [start for start in func.blocks if start in targeted]
        stack = list(seeds)
        while stack:
            start = stack.pop()
            if start in reachable or start not in func.blocks:
                continue
            reachable.add(start)
            stack.extend(func.blocks[start].successors)
    return reachable


def analyze_coverage(cfg: RecoveredCfg, program) -> List[Finding]:
    findings: List[Finding] = []
    layout = program.layout

    # -- indirect calls vs the registered target set -----------------------
    indirect_sites = [site for site in cfg.call_sites if site.target is None]
    if indirect_sites and not cfg.indirect_targets_registered:
        taken = address_taken_entries(cfg)
        for site in indirect_sites:
            findings.append(Finding(
                rule="indirect-unregistered", severity="warn",
                message=(f"indirect call with no EILID call-table "
                         f"registration; policy fell back to all "
                         f"{len(cfg.indirect_targets)} function entries "
                         f"(address-taken set is {len(taken)})"),
                pc=site.addr, function=site.caller,
                evidence={"fallback_targets": len(cfg.indirect_targets),
                          "address_taken": list(taken)}))

    # -- transfers into the trusted ROM ------------------------------------
    rom_entries = _rom_entry_points(program)
    for addr in sorted(cfg.insns):
        decoded = cfg.insns[addr]
        if layout.in_secure_rom(addr) or decoded.target is None:
            continue
        if layout.in_secure_rom(decoded.target) \
                and decoded.target not in rom_entries:
            block, function = None, None
            func = cfg.function_at(addr)
            if func is not None:
                function = func.name
                for start, candidate in func.blocks.items():
                    if candidate.start <= addr <= candidate.end:
                        block = start
            findings.append(Finding(
                rule="rom-entry-bypass", severity="critical",
                message=(f"transfer into the trusted ROM at "
                         f"0x{decoded.target:04x}, bypassing the entry "
                         f"point(s) "
                         + ", ".join(f"0x{e:04x}" for e in sorted(rom_entries))),
                pc=addr, block=block, function=function,
                evidence={"target": decoded.target,
                          "entry_points": sorted(rom_entries)}))

    # -- unreachable blocks -------------------------------------------------
    reachable = _reachable_blocks(cfg)
    for func in cfg.functions.values():
        for start in sorted(func.blocks):
            if start not in reachable:
                block = func.blocks[start]
                findings.append(Finding(
                    rule="unreachable-block", severity="warn",
                    message=(f"basic block 0x{start:04x}.."
                             f"0x{block.end:04x} is unreachable from the "
                             f"entry, every ISR and every transfer target"),
                    pc=start, block=start, function=func.name,
                    evidence={"insns": len(block.insns)}))

    # -- dead ISRs and unmatched returns ------------------------------------
    handler_funcs = {cfg.function_entries.get(handler)
                     for handler in cfg.vectors.values()}
    called = {cfg.function_entries[site.target]
              for site in cfg.call_sites
              if site.target in cfg.function_entries}
    taken_names = {cfg.function_entries[addr]
                   for addr in address_taken_entries(cfg)}
    entry_name = cfg.function_entries.get(cfg.entry)
    for func in cfg.functions.values():
        rets = [d for b in func.blocks.values() for d in b.insns
                if d.kind is TransferKind.RET]
        retis = [d for b in func.blocks.values() for d in b.insns
                 if d.kind is TransferKind.RETI]
        if retis and func.name not in handler_funcs \
                and func.name != entry_name:
            findings.append(Finding(
                rule="dead-isr", severity="warn",
                message=(f"{func.name} ends in reti but no IVT vector "
                         f"dispatches to it: a handler that can never run"),
                pc=retis[0].addr, function=func.name,
                evidence={"vectors": sorted(v for v in cfg.vectors
                                            if v != 15)}))
        if rets and func.name not in called \
                and func.name not in taken_names \
                and func.name not in handler_funcs \
                and func.name != entry_name:
            findings.append(Finding(
                rule="unmatched-return", severity="warn",
                message=(f"{func.name} returns but is never called or "
                         f"address-taken: the shadow-stack replayer could "
                         f"never match this return"),
                pc=rets[0].addr, function=func.name,
                evidence={}))
    return findings
