"""Encoder/decoder unit tests + round-trip properties."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import DecodingError, EncodingError
from repro.isa import encode, Instruction
from repro.isa.decode import decode_words
from repro.isa.opcodes import (
    FORMAT1_OPCODES,
    FORMAT2_OPCODES,
    JUMP_OPCODES,
    lookup,
)
from repro.isa.operands import AddrMode, Operand


def roundtrip(insn):
    words = encode(insn)
    decoded, consumed = decode_words(words)
    assert consumed == len(words)
    return decoded


class TestFormat1Encoding:
    def test_mov_register_register(self):
        insn = Instruction(FORMAT1_OPCODES["mov"], src=Operand.register(10),
                          dst=Operand.register(11))
        assert encode(insn) == [0x4A0B << 0 | 0]  # 0x4A0B
        assert encode(insn)[0] == 0x4A0B

    def test_add_immediate_uses_extension_word(self):
        insn = Instruction(FORMAT1_OPCODES["add"], src=Operand.immediate(0x1234),
                          dst=Operand.register(5))
        words = encode(insn)
        assert len(words) == 2
        assert words[1] == 0x1234

    @pytest.mark.parametrize("value,expected_len", [
        (0, 1), (1, 1), (2, 1), (4, 1), (8, 1), (0xFFFF, 1),
        (3, 2), (5, 2), (0x100, 2),
    ])
    def test_constant_generator_immediates(self, value, expected_len):
        insn = Instruction(FORMAT1_OPCODES["mov"], src=Operand.immediate(value),
                          dst=Operand.register(6))
        assert len(encode(insn)) == expected_len

    def test_absolute_destination(self):
        insn = Instruction(FORMAT1_OPCODES["mov"], src=Operand.register(15),
                          dst=Operand.absolute(0x0200))
        words = encode(insn)
        assert len(words) == 2
        assert words[1] == 0x0200

    def test_indexed_both_sides_two_extension_words(self):
        insn = Instruction(FORMAT1_OPCODES["mov"], src=Operand.indexed(4, 10),
                          dst=Operand.indexed(6, 11))
        words = encode(insn)
        assert len(words) == 3
        assert words[1] == 4 and words[2] == 6

    def test_byte_mode_bit(self):
        word = Instruction(FORMAT1_OPCODES["mov"], src=Operand.register(4),
                           dst=Operand.register(5), byte_mode=True)
        assert encode(word)[0] & 0x0040

    @pytest.mark.parametrize("name", sorted(FORMAT1_OPCODES))
    def test_roundtrip_every_format1_opcode(self, name):
        insn = Instruction(FORMAT1_OPCODES[name], src=Operand.indexed(2, 9),
                          dst=Operand.register(12))
        back = roundtrip(insn)
        assert back.mnemonic == name
        assert back.src == insn.src and back.dst == insn.dst


class TestFormat2Encoding:
    @pytest.mark.parametrize("name", ["rrc", "swpb", "rra", "sxt", "push", "call"])
    def test_roundtrip_register_operand(self, name):
        insn = Instruction(FORMAT2_OPCODES[name], dst=Operand.register(7))
        back = roundtrip(insn)
        assert back.mnemonic == name and back.dst == insn.dst

    def test_reti_is_fixed_word(self):
        insn = Instruction(FORMAT2_OPCODES["reti"])
        assert encode(insn) == [0x1300]

    def test_call_immediate(self):
        insn = Instruction(FORMAT2_OPCODES["call"], dst=Operand.immediate(0xE000))
        words = encode(insn)
        assert words[0] == 0x12B0 and words[1] == 0xE000

    def test_swpb_byte_mode_rejected(self):
        with pytest.raises(EncodingError):
            encode(Instruction(FORMAT2_OPCODES["swpb"], dst=Operand.register(4),
                               byte_mode=True))

    def test_push_byte_mode_allowed(self):
        insn = Instruction(FORMAT2_OPCODES["push"], dst=Operand.register(4),
                          byte_mode=True)
        assert roundtrip(insn).byte_mode


class TestJumpEncoding:
    @pytest.mark.parametrize("name", sorted(JUMP_OPCODES))
    def test_roundtrip_every_condition(self, name):
        insn = Instruction(JUMP_OPCODES[name], offset=-3)
        back = roundtrip(insn)
        assert back.mnemonic == name and back.offset == -3

    @pytest.mark.parametrize("offset", [-512, -1, 0, 1, 511])
    def test_offset_range_limits(self, offset):
        insn = Instruction(JUMP_OPCODES["jmp"], offset=offset)
        assert roundtrip(insn).offset == offset

    @pytest.mark.parametrize("offset", [-513, 512, 1000])
    def test_out_of_range_offset_rejected(self, offset):
        with pytest.raises(EncodingError):
            encode(Instruction(JUMP_OPCODES["jmp"], offset=offset))


class TestDecodeErrors:
    @pytest.mark.parametrize("word", [0x0000, 0x0F00, 0x13C0 | 0x80])
    def test_illegal_words_rejected(self, word):
        with pytest.raises(DecodingError):
            decode_words([word])

    def test_truncated_extension_word(self):
        # mov #imm, r5 needs a second word
        with pytest.raises(DecodingError):
            decode_words([0x4035])

    def test_lookup_aliases(self):
        assert lookup("jne").mnemonic == "jnz"
        assert lookup("jeq").mnemonic == "jz"
        assert lookup("jlo").mnemonic == "jnc"
        assert lookup("jhs").mnemonic == "jc"
        assert lookup("nonsense") is None


# ---- property-based round-trips ---------------------------------------------

_regs = st.integers(min_value=4, max_value=15)  # avoid CG registers for src
_values = st.integers(min_value=0, max_value=0xFFFF)


def _source_operands():
    return st.one_of(
        _regs.map(Operand.register),
        st.tuples(_values, _regs).map(lambda t: Operand.indexed(*t)),
        _values.map(Operand.absolute),
        _regs.map(Operand.indirect),
        _regs.map(Operand.autoinc),
        _values.map(Operand.immediate),
        _values.map(Operand.symbolic),
    )


def _dest_operands():
    return st.one_of(
        st.integers(min_value=0, max_value=15).map(Operand.register),
        st.tuples(_values, _regs).map(lambda t: Operand.indexed(*t)),
        _values.map(Operand.absolute),
    )


@given(
    name=st.sampled_from(sorted(FORMAT1_OPCODES)),
    src=_source_operands(),
    dst=_dest_operands(),
    byte=st.booleans(),
)
def test_format1_roundtrip_property(name, src, dst, byte):
    insn = Instruction(FORMAT1_OPCODES[name], src=src, dst=dst, byte_mode=byte)
    back = roundtrip(insn)
    assert back.mnemonic == name
    assert back.byte_mode == byte
    # Immediates matching a CG constant legitimately decode as CONSTANT.
    if src.mode is AddrMode.IMMEDIATE and back.src.mode is AddrMode.CONSTANT:
        assert back.src.value == src.value
    else:
        assert back.src == src
    assert back.dst == dst


@given(offset=st.integers(min_value=-512, max_value=511),
       name=st.sampled_from(sorted(JUMP_OPCODES)))
def test_jump_roundtrip_property(offset, name):
    insn = Instruction(JUMP_OPCODES[name], offset=offset)
    assert roundtrip(insn).offset == offset


@given(src=_source_operands(), dst=_dest_operands(), byte=st.booleans())
def test_size_words_matches_encoding(src, dst, byte):
    insn = Instruction(FORMAT1_OPCODES["add"], src=src, dst=dst, byte_mode=byte)
    assert insn.size_words == len(encode(insn))


# ---- seeded exhaustive round-trip sweep -------------------------------------
#
# CFG recovery (repro.cfg) linear-sweeps whole linked images through the
# decoder, so the decoder must be *total* over everything the encoder can
# produce: decode(encode(insn)) == insn for every opcode x addressing-mode
# x byte-mode combination.  The sweep below is deterministic (seeded value
# set, all mode pairs) rather than sampled.

_SWEEP_VALUES = (0x0000, 0x0001, 0x0002, 0x0003, 0x0004, 0x0008, 0x0009,
                 0x007F, 0x0080, 0x00FF, 0x0100, 0x1234, 0x7FFF, 0x8000,
                 0xFFFE, 0xFFFF)
_SWEEP_REGS = (4, 7, 11, 15)  # clear of PC/SP/SR/CG special-casing


def _sweep_sources():
    for reg in _SWEEP_REGS:
        yield Operand.register(reg)
        yield Operand.indirect(reg)
        yield Operand.autoinc(reg)
        yield Operand.indexed(_SWEEP_VALUES[reg % len(_SWEEP_VALUES)], reg)
    for value in _SWEEP_VALUES:
        yield Operand.immediate(value)
        yield Operand.absolute(value)
        yield Operand.symbolic(value)


def _sweep_dests():
    for reg in range(16):
        yield Operand.register(reg)
    for reg in _SWEEP_REGS:
        yield Operand.indexed(_SWEEP_VALUES[reg % len(_SWEEP_VALUES)], reg)
    for value in _SWEEP_VALUES:
        yield Operand.absolute(value)
        yield Operand.symbolic(value)


def _assert_identity(insn, back):
    assert back.mnemonic == insn.mnemonic
    assert back.byte_mode == insn.byte_mode
    assert back.dst == insn.dst
    if (insn.src is not None and insn.src.mode is AddrMode.IMMEDIATE
            and back.src is not None and back.src.mode is AddrMode.CONSTANT):
        assert back.src.value == insn.src.value  # constant-generator hit
    else:
        assert back.src == insn.src


class TestExhaustiveRoundTripSweep:
    @pytest.mark.parametrize("name", sorted(FORMAT1_OPCODES))
    def test_format1_all_mode_pairs(self, name):
        opcode = FORMAT1_OPCODES[name]
        checked = 0
        for src in _sweep_sources():
            for dst in _sweep_dests():
                for byte in (False, True):
                    insn = Instruction(opcode, src=src, dst=dst, byte_mode=byte)
                    _assert_identity(insn, roundtrip(insn))
                    checked += 1
        expected = 2 * len(list(_sweep_sources())) * len(list(_sweep_dests()))
        assert checked == expected and checked > 6000

    @pytest.mark.parametrize("name", sorted(FORMAT2_OPCODES))
    def test_format2_all_modes(self, name):
        from repro.isa.opcodes import FORMAT2_BYTE_CAPABLE

        opcode = FORMAT2_OPCODES[name]
        if name == "reti":
            insn = Instruction(opcode)
            back = roundtrip(insn)
            assert back.mnemonic == "reti" and back.dst is None
            return
        byte_modes = (False, True) if name in FORMAT2_BYTE_CAPABLE else (False,)
        for dst in _sweep_sources():  # format II uses the As encoding
            if dst.mode is AddrMode.IMMEDIATE and dst.value in (0, 1, 2, 4, 8, 0xFFFF):
                continue  # constant-generator forms legitimately decode as CONSTANT
            for byte in byte_modes:
                insn = Instruction(opcode, dst=dst, byte_mode=byte)
                if opcode.writes_dest and dst.mode is AddrMode.IMMEDIATE:
                    # rrc/rra/swpb/sxt write back: no immediate form.
                    with pytest.raises(EncodingError):
                        encode(insn)
                    continue
                back = roundtrip(insn)
                assert back.mnemonic == name
                assert back.byte_mode == byte
                if dst.mode is AddrMode.IMMEDIATE and back.dst.mode is AddrMode.CONSTANT:
                    assert back.dst.value == dst.value
                else:
                    assert back.dst == dst

    @pytest.mark.parametrize("name", sorted(JUMP_OPCODES))
    def test_jumps_full_offset_range(self, name):
        opcode = JUMP_OPCODES[name]
        for offset in range(-512, 512):
            insn = Instruction(opcode, offset=offset)
            back = roundtrip(insn)
            assert back.mnemonic == name and back.offset == offset

    def test_decoder_is_total_over_first_words(self):
        """Every 16-bit first word either decodes or raises DecodingError.

        The linear sweep in repro.cfg.recover relies on the decoder
        never escaping with anything else on arbitrary image bytes.
        """
        filler = [0x0000, 0x0000]  # extension words for multi-word shapes
        outcomes = {"ok": 0, "rejected": 0}
        for word in range(0x10000):
            try:
                decode_words([word] + filler)
                outcomes["ok"] += 1
            except DecodingError:
                outcomes["rejected"] += 1
        assert outcomes["ok"] + outcomes["rejected"] == 0x10000
        # All format-I opcodes (>= 0x4000) with legal fields decode, so
        # the accepting share dominates; the gap is the 0x0000-0x1FFF
        # hole plus reserved format-II encodings.
        assert outcomes["ok"] > 0xB000
        assert outcomes["rejected"] > 0x1000

    @pytest.mark.parametrize("filler", [0x0000, 0x0004, 0x1234])
    def test_decoded_size_is_the_words_consumed(self, filler):
        """``size_words`` of every decoded instruction equals the words
        the decoder consumed -- also when an immediate's extension word
        holds a value a constant generator could make (0x4035 0x0004 is
        ``mov #4, r5`` in two words).  The call-stack oracle and trace
        classification take return and fall-through addresses from it."""
        for word in range(0x10000):
            try:
                insn, consumed = decode_words([word, filler, filler])
            except DecodingError:
                continue
            assert insn.size_words == consumed, hex(word)
