"""Rule 2: statically resolvable stores into protected regions.

Walks every decoded instruction and resolves absolute-mode destinations
(``mov ..., &addr``) against the memory layout: stores into PMEM, the
IVT, or the secure banks from *untrusted* code (anything outside the
secure ROM) are exactly what CASU's runtime monitors would trip -- so
they are critical findings at lint time, before the image ever runs.
Reads of the secure DMEM bank (shadow stack / call table) from
untrusted code are flagged on the same rule the hardware enforces.

``mov ..., pc``-style dispatch through a register or memory cell, and
any other computed write to ``pc`` (``TransferKind.JUMP_INDIRECT``),
has no statically resolvable target set at all -- the trace replayer
rejects such edges, so the lint surfaces each site as a warning.
"""

from typing import List

from repro.analyze.findings import Finding
from repro.cfg.recover import RecoveredCfg
from repro.isa.operands import AddrMode
from repro.isa.transfer import TransferKind


def _locate(cfg: RecoveredCfg, addr: int):
    """(block_start, function_name) for an instruction address."""
    for func in cfg.functions.values():
        for block in func.blocks.values():
            if block.start <= addr <= block.end:
                return block.start, func.name
    return None, None


def analyze_regions(cfg: RecoveredCfg, program) -> List[Finding]:
    layout = program.layout
    findings: List[Finding] = []
    for addr in sorted(cfg.insns):
        decoded = cfg.insns[addr]
        if layout.in_secure_rom(addr):
            continue  # the trusted ROM legitimately touches all banks
        insn = decoded.insn
        block, function = None, None

        def finding(rule, severity, message, **evidence):
            nonlocal block, function
            if block is None:
                block, function = _locate(cfg, addr)
            findings.append(Finding(
                rule=rule, severity=severity, message=message, pc=addr,
                block=block, function=function, evidence=evidence))

        dst = insn.dst
        if (dst is not None and dst.mode is AddrMode.ABSOLUTE
                and insn.opcode.writes_dest):
            target = dst.value
            if layout.ivt.start <= target <= layout.ivt.end:
                vector = (target - layout.ivt.start) // 2
                finding("ivt-write", "critical",
                        f"store to interrupt vector {vector} "
                        f"(&0x{target:04x}) rewrites the dispatch table",
                        target=target, vector=vector)
            elif layout.in_pmem(target):
                finding("pmem-write", "critical",
                        f"store to program memory &0x{target:04x} from "
                        f"untrusted code (W^X / immutability violation)",
                        target=target)
            elif layout.in_secure_dmem(target):
                finding("secure-ram-write", "critical",
                        f"store to the secure DMEM bank &0x{target:04x} "
                        f"(shadow stack / call table) from untrusted code",
                        target=target)
            elif layout.in_secure_rom(target):
                finding("rom-write", "critical",
                        f"store into the trusted ROM &0x{target:04x}",
                        target=target)
        src = insn.src
        if src is not None and src.mode is AddrMode.ABSOLUTE:
            source = src.value
            if layout.in_secure_dmem(source):
                finding("secure-ram-read", "critical",
                        f"read of the secure DMEM bank &0x{source:04x} "
                        f"from untrusted code",
                        source=source)
        if decoded.kind is TransferKind.JUMP_INDIRECT:
            finding("indirect-jump-unresolved", "warn",
                    f"{insn.opcode.mnemonic} into PC has no statically "
                    f"resolvable target set; the trace replayer rejects "
                    f"this edge",
                    mnemonic=insn.opcode.mnemonic)
    return findings
