"""EILIDinst: the compile-time assembly instrumenter.

Inputs, exactly as in the paper (Sec. V-A): the application ``*.s``
source to be instrumented and the ``*.lst`` listing of the *previous*
build, from which concrete addresses are resolved.  Output: the
``*_instr.s`` text.

Passes (all statement-level, deterministic):

1. **Reserved-register repair** -- hand-written code using r4-r7 gets
   each call-free run wrapped in ``push sr / dint / push rX ... pop rX /
   pop sr`` (paper Sec. V: "merely two instructions are additionally
   needed"; we add the interrupt fence those two instructions need to
   actually be safe in the presence of instrumented ISRs).
2. **Backward edge (P1, Figs. 3-4)** -- before each call, load the
   call's return address (the next instruction's address, taken from
   the listing) into r6 and invoke ``NS_EILID_store_ra``; before each
   ``ret``, load the in-stack return address and invoke
   ``NS_EILID_check_ra``.
3. **Interrupt context (P2, Figs. 5-6)** -- at ISR entry store the
   interrupted PC and SR (``2(r1)`` / ``0(r1)``; the hardware pushed PC
   then SR); before ``reti`` check them.  (The paper's listing shows
   ``0(r1)``/``-2(r1)``; the offsets here are the same two stack words
   addressed from the post-push SP -- see DESIGN.md.)
4. **Indirect calls (P3, Figs. 7-8)** -- at ``main`` entry register
   every application function address via ``NS_EILID_store_ind`` (only
   when the app performs indirect calls at all); before each
   ``call rN``, verify the target via ``NS_EILID_check_ind``.
5. **Indirect-jump guard** -- ``br rN``-style register jumps are
   rejected, mirroring the paper's ``-fno-jump-tables`` stance.
"""

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from repro.errors import InstrumentationError
from repro.eilid.policy import EilidPolicy, RESERVED_REGISTER_NUMBERS
from repro.isa.registers import PC, SR, SP
from repro.toolchain.listing import parse_listing
from repro.toolchain.operand_spec import OperandSpec, SpecKind
from repro.toolchain.parser import parse_source
from repro.toolchain.statements import InsnStatement, LabelStatement
from repro.toolchain.writer import render_unit

_SHIM_PREFIXES = ("NS_EILID_", "S_EILID_", "S_CASU_")
_ISR_PREFIX = "__isr_"


@dataclass
class InstrumentationReport:
    functions: List[Tuple[str, int]] = field(default_factory=list)
    direct_calls: int = 0
    indirect_calls: int = 0
    returns: int = 0
    isr_prologues: int = 0
    isr_epilogues: int = 0
    table_registrations: int = 0
    repaired_runs: int = 0
    inserted_instructions: int = 0
    inserted_bytes: int = 0
    warnings: List[str] = field(default_factory=list)


def _is_plain_symbol(expr):
    return expr is not None and expr.replace("_", "a").replace(".", "a").isalnum() and not expr[
        0
    ].isdigit()


def _imm(expr):
    return OperandSpec(SpecKind.IMM, expr=expr)


def _reg(num):
    return OperandSpec(SpecKind.REG, reg=num)


def _idx(offset, reg):
    return OperandSpec(SpecKind.IDX, reg=reg, expr=str(offset))


def _insn(mnemonic, *operands):
    stmt = InsnStatement(
        "<eilid>", 0, f"{mnemonic} (inserted by EILIDinst)",
        mnemonic=mnemonic, byte_mode=False, operands=list(operands),
    )
    stmt.core_form()
    return stmt


class Instrumenter:
    """One EILIDinst pass: (source text, previous listing) -> instrumented text."""

    def __init__(self, policy: Optional[EilidPolicy] = None, app_unit_name: str = "app.s"):
        self.policy = policy or EilidPolicy()
        self.app_unit_name = app_unit_name

    # ---- public API -----------------------------------------------------------

    def instrument(self, source_text: str, listing_text: str = ""):
        """Returns ``(instrumented_source_text, InstrumentationReport)``.

        *listing_text* is the previous build's listing (paper flow); it
        may be empty only in the symbolic-labels ablation mode, where
        addresses are resolved by the assembler instead.
        """
        unit = parse_source(source_text, self.app_unit_name)
        symbolic = self.policy.use_symbolic_return_labels
        listing = None if symbolic else parse_listing(listing_text)
        report = InstrumentationReport()

        self._guard_against_reinstrumentation(unit)
        isr_labels = self._isr_labels(unit)
        functions = self._discover_functions(unit, isr_labels)
        self._guard_indirect_jumps(unit, report)

        if self.policy.repair_reserved_registers:
            self._repair_reserved_registers(unit, report)

        if symbolic:
            direct_ras = indirect_ras = None
            function_addrs = [(name, None) for name in functions]
            has_indirect = any(
                isinstance(s, InsnStatement)
                and s.mnemonic == "call"
                and s.operands
                and s.operands[0].kind is SpecKind.REG
                for s in unit.statements(".text")
            )
        else:
            direct_ras, indirect_ras = self._site_return_addresses(unit, listing)
            function_addrs = [
                (name, listing.label_address(name)) for name in functions
            ]
            has_indirect = indirect_ras is not None and len(indirect_ras) > 0
        report.functions = function_addrs

        self._rewrite_text(
            unit,
            report,
            isr_labels=isr_labels,
            direct_ras=direct_ras,
            indirect_ras=indirect_ras,
            function_addrs=function_addrs if has_indirect else [],
        )

        report.inserted_bytes = sum(
            stmt.size_bytes()
            for stmt in unit.statements(".text")
            if isinstance(stmt, InsnStatement) and stmt.filename == "<eilid>"
        )
        report.inserted_instructions = sum(
            1
            for stmt in unit.statements(".text")
            if isinstance(stmt, InsnStatement) and stmt.filename == "<eilid>"
        )
        return render_unit(unit), report

    # ---- discovery ----------------------------------------------------------------

    def _guard_against_reinstrumentation(self, unit):
        for stmt in unit.statements(".text"):
            if isinstance(stmt, InsnStatement) and stmt.mnemonic == "call":
                target = self._direct_call_target(stmt)
                if target and target.startswith(_SHIM_PREFIXES):
                    raise InstrumentationError(
                        f"input already instrumented: call to {target} at "
                        f"{stmt.filename}:{stmt.line}"
                    )

    @staticmethod
    def _direct_call_target(stmt):
        if not stmt.operands:
            return None
        op = stmt.operands[0]
        if op.kind is SpecKind.IMM and _is_plain_symbol(op.expr):
            return op.expr
        return None

    def _isr_labels(self, unit) -> Set[str]:
        labels = {name for name in unit.vectors.values()}
        for stmt in unit.statements(".text"):
            if isinstance(stmt, LabelStatement) and stmt.name.startswith(_ISR_PREFIX):
                labels.add(stmt.name)
        # The reset "vector 15" handler is crt0's job, not an ISR.
        return labels

    def _discover_functions(self, unit, isr_labels) -> List[str]:
        """Function entry points, in source order (paper Sec. IV-A: the
        instrumenter "enumerates entry points of all functions")."""
        defined = []
        for stmt in unit.statements(".text"):
            if isinstance(stmt, LabelStatement):
                defined.append(stmt.name)
        defined_set = set(defined)

        referenced: Set[str] = set(g for g in unit.globals_ if g in defined_set)
        for stmt in unit.statements(".text"):
            if not isinstance(stmt, InsnStatement):
                continue
            if stmt.mnemonic == "call":
                target = self._direct_call_target(stmt)
                if target and target in defined_set:
                    referenced.add(target)
                continue
            for op in stmt.operands:
                if op.kind is SpecKind.IMM and _is_plain_symbol(op.expr):
                    if op.expr in defined_set:
                        referenced.add(op.expr)  # address-taken label

        return [
            name
            for name in defined
            if name in referenced
            and name not in isr_labels
            and not name.startswith(".L")
            and not name.startswith(_SHIM_PREFIXES)
        ]

    def _guard_indirect_jumps(self, unit, report):
        """Reject register jumps (the -fno-jump-tables stance, Sec. VII)."""
        offenders = []
        for stmt in unit.statements(".text"):
            if not isinstance(stmt, InsnStatement):
                continue
            if stmt.mnemonic in ("ret", "reti", "call"):
                continue
            core, src, dst, _jump = stmt.core_form()
            if (
                dst is not None
                and dst.kind is SpecKind.REG
                and dst.reg == PC
                and src is not None
                and src.kind in (SpecKind.REG, SpecKind.IND, SpecKind.AUTOINC, SpecKind.IDX)
            ):
                offenders.append(f"{stmt.filename}:{stmt.line}: {stmt.text.strip()}")
        if not offenders:
            return
        if self.policy.fail_on_indirect_jumps:
            raise InstrumentationError(
                "indirect jumps are not supported (compile with the equivalent of "
                "-fno-jump-tables): " + "; ".join(offenders)
            )
        report.warnings.extend(f"indirect jump left unprotected: {o}" for o in offenders)

    # ---- listing cross-reference ----------------------------------------------------

    def _site_return_addresses(self, unit, listing):
        """Return-address lists for direct and indirect call sites.

        Source order of call sites matches listing address order within
        the app unit; inserted shim calls are recognisable by their
        ``NS_EILID_*`` symbol annotation and skipped -- that is how the
        third-iteration pass (Fig. 2) matches the *original* call sites
        inside an already-instrumented listing.
        """
        src_direct = src_indirect = 0
        for stmt in unit.statements(".text"):
            if isinstance(stmt, InsnStatement) and stmt.mnemonic == "call":
                if self._direct_call_target(stmt) or stmt.operands[0].kind is SpecKind.IMM:
                    src_direct += 1
                elif stmt.operands[0].kind is SpecKind.REG:
                    src_indirect += 1
                else:
                    raise InstrumentationError(
                        f"unsupported indirect-call operand at {stmt.filename}:{stmt.line}"
                    )

        lst_direct = []
        lst_indirect = []
        for entry in listing.instructions("call"):
            if not listing.in_unit(entry.addr, self.app_unit_name):
                continue
            if "#" in entry.text:
                if entry.note and entry.note.startswith(_SHIM_PREFIXES):
                    continue  # inserted by a previous iteration
                lst_direct.append(listing.next_address(entry.addr))
            else:
                lst_indirect.append(listing.next_address(entry.addr))

        if len(lst_direct) != src_direct or len(lst_indirect) != src_indirect:
            raise InstrumentationError(
                f"listing does not match source: {src_direct}/{src_indirect} call sites "
                f"in source vs {len(lst_direct)}/{len(lst_indirect)} in listing "
                "(was the listing produced from a different program?)"
            )
        return lst_direct, lst_indirect

    # ---- rewriting ------------------------------------------------------------------------

    def _rewrite_text(self, unit, report, isr_labels, direct_ras, indirect_ras, function_addrs):
        policy = self.policy
        out: List[object] = []
        direct_index = indirect_index = 0
        label_counter = {"n": 0}

        def next_ra(ras, index):
            """Return-address operand + post-call label for one site."""
            if ras is not None:
                return _imm(f"0x{ras[index]:04x}"), None
            label_counter["n"] += 1
            name = f".Leilid_ra{label_counter['n']}"
            return _imm(name), LabelStatement("<eilid>", 0, f"{name}:", name=name)

        for stmt in unit.statements(".text"):
            if isinstance(stmt, LabelStatement):
                out.append(stmt)
                if policy.protect_interrupts and stmt.name in isr_labels:
                    out += self._isr_prologue()
                    report.isr_prologues += 1
                if stmt.name == "main" and function_addrs:
                    for name, addr in function_addrs:
                        target = name if addr is None else f"0x{addr:04x}"
                        out += [
                            _insn("mov", _imm(target), _reg(6)),
                            _insn("call", _imm("NS_EILID_store_ind")),
                        ]
                        report.table_registrations += 1
                continue

            if isinstance(stmt, InsnStatement):
                post_label = None
                if stmt.mnemonic == "call":
                    op = stmt.operands[0]
                    if op.kind is SpecKind.IMM:
                        if policy.protect_returns:
                            ra_operand, post_label = next_ra(direct_ras, direct_index)
                            out += self._store_ra(ra_operand)
                            report.direct_calls += 1
                        direct_index += 1
                    else:  # register indirect (Fig. 8)
                        if policy.protect_indirect_calls:
                            out += [
                                _insn("mov", _reg(op.reg), _reg(6)),
                                _insn("call", _imm("NS_EILID_check_ind")),
                            ]
                        if policy.protect_returns:
                            ra_operand, post_label = next_ra(indirect_ras, indirect_index)
                            out += self._store_ra(ra_operand)
                        indirect_index += 1
                        report.indirect_calls += 1
                    out.append(stmt)
                    if post_label is not None:
                        out.append(post_label)
                    continue
                if stmt.mnemonic == "ret" and policy.protect_returns:
                    out += [
                        _insn("mov", _idx(0, SP), _reg(6)),
                        _insn("call", _imm("NS_EILID_check_ra")),
                    ]
                    report.returns += 1
                elif stmt.mnemonic == "reti" and policy.protect_interrupts:
                    # Read the interrupt context under the three reserved
                    # registers saved by the prologue, check it, then
                    # restore the reserved registers.
                    out += [
                        _insn("mov", _idx(8, SP), _reg(6)),
                        _insn("mov", _idx(6, SP), _reg(7)),
                        _insn("call", _imm("NS_EILID_check_rfi")),
                        _insn("pop", _reg(7)),
                        _insn("pop", _reg(6)),
                        _insn("pop", _reg(4)),
                    ]
                    report.isr_epilogues += 1
            out.append(stmt)

        unit.sections[".text"] = out

    def _store_ra(self, ra_operand):
        """Fig. 3: load the return address, store it on the shadow stack."""
        return [
            _insn("mov", ra_operand, _reg(6)),
            _insn("call", _imm("NS_EILID_store_ra")),
        ]

    def _isr_prologue(self):
        """Fig. 5: capture the interrupt context.

        The reserved registers r4/r6/r7 are saved first: an interrupt
        may land between an instrumented sequence's ``mov`` and its shim
        ``call`` in the interrupted code, so the ISR's own use of the
        EILID registers must be transparent.  With the three saves on
        the stack, the hardware-pushed PC sits at 8(SP) and SR at 6(SP).
        """
        return [
            _insn("push", _reg(4)),
            _insn("push", _reg(6)),
            _insn("push", _reg(7)),
            _insn("mov", _idx(8, SP), _reg(6)),
            _insn("mov", _idx(6, SP), _reg(7)),
            _insn("call", _imm("NS_EILID_store_rfi")),
        ]

    # ---- reserved-register repair ------------------------------------------------------------

    def _repair_reserved_registers(self, unit, report):
        stmts = unit.statements(".text")
        out: List[object] = []
        run: List[InsnStatement] = []
        run_regs: Set[int] = set()

        def flush():
            if not run:
                return
            regs = sorted(run_regs)
            out.append(_insn("push", _reg(SR)))
            out.append(_insn("dint"))
            for reg in regs:
                out.append(_insn("push", _reg(reg)))
            out.extend(run)
            for reg in reversed(regs):
                out.append(_insn("pop", _reg(reg)))
            out.append(_insn("pop", _reg(SR)))
            report.repaired_runs += 1
            run.clear()
            run_regs.clear()

        for stmt in stmts:
            used = self._reserved_registers_used(stmt)
            if used:
                if isinstance(stmt, InsnStatement) and stmt.mnemonic in ("call", "ret", "reti"):
                    raise InstrumentationError(
                        f"reserved register r4-r7 used by a control transfer at "
                        f"{stmt.filename}:{stmt.line}; rewrite the code instead"
                    )
                run.append(stmt)
                run_regs.update(used)
                continue
            flush()
            out.append(stmt)
        flush()
        unit.sections[".text"] = out

    @staticmethod
    def _reserved_registers_used(stmt):
        if not isinstance(stmt, InsnStatement):
            return set()
        used = set()
        for op in stmt.operands:
            if op.reg in RESERVED_REGISTER_NUMBERS:
                used.add(op.reg)
        return used
