"""Assembler front-end, expression evaluator, linker, listing tests."""

import pytest
from hypothesis import given, strategies as st

from repro.device import build_device
from repro.errors import (
    AsmSyntaxError,
    LinkError,
    MemoryAccessError,
    RangeError,
    SymbolError,
)
from repro.toolchain import link, parse_source, render_listing, parse_listing
from repro.toolchain.linker import Record
from repro.toolchain.expr import eval_expr, is_pure_literal, referenced_symbols
from repro.toolchain.operand_spec import parse_operand, SpecKind
from repro.toolchain.parser import split_operands, strip_comment


class TestExpr:
    @pytest.mark.parametrize("text,expected", [
        ("42", 42), ("0x10", 16), ("0b101", 5), ("0o17", 15), ("'A'", 65),
        ("'\\n'", 10), ("1+2*3", 7), ("(1+2)*3", 9), ("10/3", 3), ("10%3", 1),
        ("1<<4", 16), ("0xFF>>4", 15), ("0xF0|0x0F", 255), ("0xFF&0x0F", 15),
        ("0xFF^0x0F", 0xF0), ("-5", -5), ("~0", -1), ("2*-3", -6),
        ("1+2+3+4", 10), ("100-10-5", 85),
    ])
    def test_literals_and_operators(self, text, expected):
        assert eval_expr(text) == expected

    def test_symbols(self):
        assert eval_expr("base+4", {"base": 0x200}) == 0x204

    def test_undefined_symbol(self):
        with pytest.raises(SymbolError):
            eval_expr("nope")

    @pytest.mark.parametrize("bad", ["", "1+", "(1", "1)", "`", "1 2"])
    def test_syntax_errors(self, bad):
        with pytest.raises(AsmSyntaxError):
            eval_expr(bad)

    def test_division_by_zero(self):
        with pytest.raises(AsmSyntaxError):
            eval_expr("1/0")

    @pytest.mark.parametrize("text,expected", [
        ("42", True), ("0x10", True), ("-1", True), ("'x'", True),
        ("1+1", False), ("sym", False), ("", False),
    ])
    def test_is_pure_literal(self, text, expected):
        assert is_pure_literal(text) is expected

    def test_referenced_symbols(self):
        assert referenced_symbols("a + b*2 - a") == {"a", "b"}

    @given(a=st.integers(-1000, 1000), b=st.integers(-1000, 1000),
           c=st.integers(1, 100))
    def test_arithmetic_matches_python(self, a, b, c):
        assert eval_expr(f"({a}) + ({b}) * ({c})") == a + b * c
        assert eval_expr(f"(({a}) - ({b})) / ({c})") == (a - b) // c


class TestOperandParsing:
    @pytest.mark.parametrize("text,kind", [
        ("r10", SpecKind.REG), ("pc", SpecKind.REG), ("sp", SpecKind.REG),
        ("#42", SpecKind.IMM), ("#label", SpecKind.IMM),
        ("&0x200", SpecKind.ABS), ("&var", SpecKind.ABS),
        ("@r5", SpecKind.IND), ("@r5+", SpecKind.AUTOINC),
        ("4(r10)", SpecKind.IDX), ("-2(r1)", SpecKind.IDX),
        ("label", SpecKind.SYM), ("label+2", SpecKind.SYM),
    ])
    def test_operand_kinds(self, text, kind):
        assert parse_operand(text).kind is kind

    @pytest.mark.parametrize("bad", ["", "#", "&", "@", "@zz", "(r10)", "4()"])
    def test_bad_operands(self, bad):
        with pytest.raises(AsmSyntaxError):
            parse_operand(bad)

    def test_render_roundtrip(self):
        for text in ("r10", "#42", "&0x200", "@r5", "@r5+", "4(r10)", "label"):
            spec = parse_operand(text)
            again = parse_operand(spec.render())
            assert again.kind is spec.kind and again.reg == spec.reg


class TestParserBasics:
    def test_strip_comment_respects_strings(self):
        assert strip_comment("mov #';', r5 ; real comment") == "mov #';', r5 "

    def test_split_operands_nested(self):
        assert split_operands("4(r10), r11") == ["4(r10)", "r11"]
        assert split_operands('"a,b", 2') == ['"a,b"', "2"]

    def test_labels_stack(self):
        unit = parse_source("a:\nb: c: mov #1, r4\n", "t.s")
        labels = unit.labels
        assert labels == ["a", "b", "c"]

    def test_sections_and_directives(self):
        unit = parse_source(
            "    .data\nv:\n    .word 1, 2, 3\n    .text\n    nop\n"
            "    .bss\nbuf:\n    .space 16\n",
            "t.s",
        )
        assert len(unit.statements(".data")) == 2
        assert len(unit.statements(".text")) == 1
        assert len(unit.statements(".bss")) == 2

    def test_equates_and_globals(self):
        unit = parse_source("    .equ PORT, 0x10\n    .global main\n", "t.s")
        assert unit.equates == {"PORT": "0x10"}
        assert unit.globals_ == {"main"}

    def test_vector_directive(self):
        unit = parse_source("    .vector 9, handler\n", "t.s")
        assert unit.vectors == {9: "handler"}

    def test_duplicate_vector_rejected(self):
        with pytest.raises(AsmSyntaxError):
            parse_source("    .vector 9, a\n    .vector 9, b\n", "t.s")

    @pytest.mark.parametrize("bad", [
        "    .unknown 3",
        "    bogus r1, r2",
        "    mov r1",  # arity
        "    ret r1",  # arity
        "    .section .nope",
        "    .align 3",
    ])
    def test_parse_errors(self, bad):
        with pytest.raises(AsmSyntaxError):
            parse_source(bad + "\n", "t.s")

    def test_ascii_escapes(self):
        unit = parse_source('    .asciz "a\\n\\"b"\n', "t.s")
        stmt = unit.statements(".text")[0]
        assert stmt.string == 'a\n"b'


MINIMAL = """
    .text
__start:
    mov #0x0a00, r1
halt:
    jmp halt
    .vector 15, __start
"""


class TestLinker:
    def test_layout_bases(self):
        program = link([parse_source(MINIMAL, "t.s")])
        assert program.section_extent(".text").base == 0xE000
        assert program.entry == 0xE000

    def test_data_and_bss_placement(self):
        src = MINIMAL + "    .data\nv:\n    .word 7\n    .bss\nb:\n    .space 4\n"
        program = link([parse_source(src, "t.s")])
        assert program.symbols["v"] == 0x0200
        assert program.symbols["b"] == 0x0202

    def test_duplicate_label_across_units(self):
        a = parse_source(MINIMAL, "a.s")
        b = parse_source("    .text\n__start:\n    nop\n", "b.s")
        with pytest.raises(SymbolError):
            link([a, b])

    def test_undefined_symbol_in_operand(self):
        src = "    .text\n__start:\n    mov #missing, r4\n    .vector 15, __start\n"
        with pytest.raises(SymbolError):
            link([parse_source(src, "t.s")])

    def test_missing_reset_vector(self):
        with pytest.raises(LinkError):
            link([parse_source("    .text\nmain:\n    nop\n", "t.s")])

    def test_jump_out_of_range(self):
        body = "    .text\n__start:\n    jmp far\n" + "    nop\n" * 600 + \
               "far:\n    nop\n    .vector 15, __start\n"
        with pytest.raises(RangeError):
            link([parse_source(body, "t.s")])

    def test_equate_chain(self):
        src = MINIMAL + "    .equ A, B+1\n    .equ B, 5\n"
        program = link([parse_source(src, "t.s")])
        assert program.symbols["A"] == 6

    def test_equate_cycle_detected(self):
        src = MINIMAL + "    .equ A, B\n    .equ B, A\n"
        with pytest.raises(SymbolError):
            link([parse_source(src, "t.s")])

    def test_section_overflow(self):
        src = "    .text\n__start:\n" + "    nop\n" * 5000 + "    .vector 15, __start\n"
        with pytest.raises(LinkError):
            link([parse_source(src, "t.s")])

    def test_current_location_symbol(self):
        src = "    .text\n__start:\n    jmp $\n    .vector 15, __start\n"
        program = link([parse_source(src, "t.s")])
        rec = [r for r in program.records if r.insn is not None][0]
        assert rec.insn.offset == -1  # self-loop

    def test_unit_sizes(self):
        src = MINIMAL + "    .data\nv:\n    .word 1, 2\n"
        program = link([parse_source(src, "t.s")])
        assert program.unit_sizes["t.s"][".data"] == 4
        assert program.code_size(units={"t.s"}) == program.unit_sizes["t.s"][".text"] + 4

    def test_default_handler_fills_vectors(self):
        src = MINIMAL.replace("halt:", "__default_handler:\n    reti\nhalt:")
        program = link([parse_source(src, "t.s")])
        assert program.vectors[0] == program.symbols["__default_handler"]

    def test_image_is_loaded_once_per_program(self, app_builds):
        for original, eilid in app_builds.values():
            for program in (original.program, eilid.final.program):
                image = program.image
                assert type(image) is bytes and len(image) == 0x10000
                assert program.image is image
                for addr, data in program.segments():
                    assert image[addr:addr + len(data)] == data

    def test_image_past_the_address_space_fails_at_build(self):
        program = link([parse_source(MINIMAL, "t.s")])
        program.records.append(
            Record(0xFFFF, 2, b"\x01\x02", None, ".data", "t.s"))
        with pytest.raises(MemoryAccessError):
            build_device(program)


class TestListing:
    def test_roundtrip_addresses_and_sizes(self):
        src = MINIMAL + "    .data\nmsg:\n    .asciz \"hi\"\n"
        program = link([parse_source(src, "t.s")])
        text = render_listing(program)
        index = parse_listing(text)
        assert index.label_address("__start") == 0xE000
        assert index.labels["halt"] == program.symbols["halt"]
        assert index.symbols["msg"] == program.symbols["msg"]

    def test_next_address(self):
        src = (
            "    .text\n__start:\n    mov #0x1234, r10\n    nop\nhalt:\n"
            "    jmp halt\n    .vector 15, __start\n"
        )
        program = link([parse_source(src, "t.s")])
        index = parse_listing(render_listing(program))
        assert index.next_address(0xE000) == 0xE004  # two-word mov
        assert index.next_address(0xE004) == 0xE006  # one-word nop

    def test_call_note_annotation(self):
        src = (
            "    .text\n__start:\n    call #main\nhalt:\n    jmp halt\n"
            "main:\n    ret\n    .vector 15, __start\n"
        )
        program = link([parse_source(src, "t.s")])
        index = parse_listing(render_listing(program))
        calls = list(index.instructions("call"))
        assert calls[0].note == "main"

    def test_unit_ranges(self):
        a = parse_source(MINIMAL, "a.s")
        b = parse_source("    .text\nmain:\n    nop\n    ret\n", "b.s")
        program = link([a, b])
        index = parse_listing(render_listing(program))
        assert index.in_unit(program.symbols["main"], "b.s")
        assert not index.in_unit(program.symbols["main"], "a.s")
        assert index.in_unit(0xE000, "a.s")

    def test_jump_targets_absolute_in_listing(self):
        program = link([parse_source(MINIMAL, "t.s")])
        text = render_listing(program)
        assert "jmp 0x" in text
