"""Device composition: reset semantics, rollback, CASU secure update."""

import gc
import weakref

import pytest

from repro.apps.registry import APPS
from repro.casu.monitor import ViolationReason
from repro.casu.update import (
    HISTORY_LIMIT,
    UpdateKey,
    UpdatePackage,
    UpdateStatus,
)
from repro.device import build_device
from repro.eilid.iterbuild import IterativeBuild
from repro.memory.bus import AccessKind
from repro.peripherals.ports import DONE_PORT, GPIO_OUT, LCD_CMD, UART_TX
from repro.snapshot import SnapshotError
from repro.toolchain.build import SourceModule


def raw_program(app_source, with_rom=True):
    builder = IterativeBuild()
    modules = [
        SourceModule("crt0.s", builder.trusted.crt0_source(eilid_enabled=False)),
        SourceModule("app.s", app_source, is_app=True),
    ]
    if with_rom:
        modules.append(SourceModule("eilid_rom.s", builder.trusted.rom_source()))
    return builder.pipeline.build(modules, name="raw").program


GOOD_APP = """
    .text
    .global main
main:
    mov #42, &0x0200
    mov #1, &0x0070
l:
    jmp l
"""


class TestDeviceBasics:
    def test_run_to_done(self):
        device = build_device(raw_program(GOOD_APP), security="casu")
        result = device.run(max_cycles=10_000)
        assert result.done and result.done_value == 1
        assert not result.violations
        assert result.cycles > 0 and result.instructions > 0

    def test_run_time_us_at_100mhz(self):
        device = build_device(raw_program(GOOD_APP), security="none")
        result = device.run(max_cycles=10_000)
        assert result.run_time_us == result.cycles / 100.0

    def test_break_at(self):
        program = raw_program(GOOD_APP)
        device = build_device(program, security="none")
        main = program.symbols["main"]
        device.run(break_at={main}, stop_on_done=False, max_cycles=10_000)
        assert device.cpu.pc == main

    def test_illegal_instruction_resets_with_monitor(self):
        app = GOOD_APP.replace("mov #42, &0x0200", ".word 0x0000")
        device = build_device(raw_program(app), security="casu")
        result = device.run(max_cycles=10_000)
        assert result.violations
        assert result.violations[0].reason is ViolationReason.ILLEGAL_INSN

    def test_violation_rolls_back_the_step(self):
        # A PMEM write from app code must not land before the reset.
        app = GOOD_APP.replace("mov #42, &0x0200", "mov #0xdead, &0xe200")
        program = raw_program(app)
        device = build_device(program, security="casu")
        before = device.peek_word(0xE200)
        result = device.run(max_cycles=10_000)
        assert result.violations[0].reason is ViolationReason.PMEM_WRITE
        assert device.peek_word(0xE200) == before
        assert device.reset_count == 1

    def test_violation_rolls_back_the_done_latch(self):
        # Regression: a voided step's DONE write must not survive the
        # rollback.  Injected code in DMEM writes DONE_PORT; executing
        # it is itself the W-xor-X violation, so the harness latch set
        # by the in-flight write has to be restored with the rest of
        # the step's effects.
        device = build_device(raw_program(GOOD_APP), security="casu")
        shellcode = device.layout.dmem.start + 0x40
        for index, word in enumerate((0x40B2, 0x00AA, 0x0070)):  # mov #0xAA, &DONE
            device.bus.poke_word(shellcode + 2 * index, word)
        device.cpu.set_reg(0, shellcode)
        record, violation = device.step()
        assert violation is not None
        assert violation.reason is ViolationReason.W_XOR_X
        assert device.harness.done is False
        assert device.harness.done_value is None
        assert device.harness.event_values("harness.done") == []
        assert device.reset_count == 1

    @staticmethod
    def run_shellcode(device, port, value):
        """Plant ``mov #value, &port`` in DMEM and execute it: the step
        writes the port, then W-xor-X voids it."""
        shellcode = device.layout.dmem.start + 0x40
        for index, word in enumerate((0x40B2, value, port)):
            device.bus.poke_word(shellcode + 2 * index, word)
        device.cpu.set_reg(0, shellcode)
        record, violation = device.step()
        assert any(a.kind is AccessKind.WRITE and a.addr == port
                   for a in record.accesses)
        assert violation.reason is ViolationReason.W_XOR_X

    @pytest.mark.parametrize("port,name,logs", [
        (UART_TX, "uart", ("tx_log",)),
        (LCD_CMD, "lcd", ("command_log",)),
        (GPIO_OUT, "gpio", ()),
    ], ids=["uart", "lcd", "gpio"])
    def test_voided_port_write_leaves_the_peripheral_logs(self, port, name,
                                                          logs):
        # A clean write lands first, so the void must drop exactly the
        # voided step's entry and keep the earlier one.
        app = GOOD_APP.replace("mov #42, &0x0200", f"mov #0x11, &0x{port:04x}")
        device = build_device(raw_program(app), security="casu")
        assert device.run(max_cycles=10_000).done
        peripheral = device.peripherals[name]
        before = {attr: list(getattr(peripheral, attr))
                  for attr in ("events",) + logs}
        assert len(before["events"]) == 1
        self.run_shellcode(device, port, 0xAA)
        for attr, entries in before.items():
            assert getattr(peripheral, attr) == entries, attr
        assert device.reset_count == 1

    def test_voided_done_write_keeps_the_latched_done(self):
        device = build_device(raw_program(GOOD_APP), security="casu")
        assert device.run(max_cycles=10_000).done
        self.run_shellcode(device, DONE_PORT, 0xAA)
        assert device.harness.done is True
        assert device.harness.done_value == 1
        assert device.harness.event_values("harness.done") == [1]
        assert device.reset_count == 1

    def test_dropped_device_is_freed_without_the_collector(self, app_builds):
        # No reference cycles: a finished device's CPU, bus (64 KB of
        # memory plus the decode cache) and peripherals go the moment
        # the last reference does, not at the next full collection.
        spec = APPS["light_sensor"]
        program = app_builds["light_sensor"][1].final.program
        gc.collect()
        gc.disable()
        try:
            device = build_device(program, security="eilid",
                                  peripherals=spec.make_peripherals())
            assert device.run(max_cycles=spec.max_cycles).done
            refs = [weakref.ref(device.cpu), weakref.ref(device.bus),
                    weakref.ref(device.peripherals["timer"])]
            del device
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            gc.enable()

    def test_reset_restarts_at_reset_vector(self):
        app = GOOD_APP.replace("mov #42, &0x0200", "mov #0xdead, &0xe200")
        program = raw_program(app)
        device = build_device(program, security="casu")
        device.run(max_cycles=10_000)
        assert device.cpu.pc == program.entry

    def test_no_monitor_means_no_reset(self):
        app = GOOD_APP.replace("mov #42, &0x0200", "mov #0xdead, &0xe200")
        device = build_device(raw_program(app), security="none")
        result = device.run(max_cycles=10_000)
        assert not result.violations and result.done
        assert device.peek_word(0xE200) == 0xDEAD  # write persisted


class TestSecureUpdate:
    def make_device(self):
        program = raw_program(GOOD_APP, with_rom=True)
        key = UpdateKey.derive(program.name)
        return build_device(program, security="casu", update_key=key), key

    def test_valid_update_applies(self):
        device, key = self.make_device()
        payload = bytes((0x11, 0x22, 0x33, 0x44))
        package = UpdatePackage.make(key, target=0xE800, payload=payload, version=1)
        result = device.apply_update(package)
        assert result.ok
        assert device.peek_word(0xE800) == 0x2211
        assert device.peek_word(0xE802) == 0x4433
        assert device.update_engine.current_version == 1
        assert not device.violations  # ROM copy ran without tripping

    def test_tampered_payload_rejected(self):
        device, key = self.make_device()
        package = UpdatePackage.make(key, 0xE800, b"\x11\x22", version=1)
        result = device.apply_update(package.tampered())
        assert result.status is UpdateStatus.BAD_MAC
        assert device.peek_word(0xE800) == 0

    def test_wrong_key_rejected(self):
        device, _key = self.make_device()
        wrong = UpdateKey.derive("mallory")
        package = UpdatePackage.make(wrong, 0xE800, b"\x11\x22", version=1)
        assert device.apply_update(package).status is UpdateStatus.BAD_MAC

    def test_rollback_protection(self):
        device, key = self.make_device()
        good = UpdatePackage.make(key, 0xE800, b"\x11\x22", version=2)
        assert device.apply_update(good).ok
        stale = UpdatePackage.make(key, 0xE800, b"\x33\x44", version=1)
        result = device.apply_update(stale)
        assert result.status is UpdateStatus.STALE_VERSION
        assert device.peek_word(0xE800) == 0x2211  # unchanged

    def test_replay_rejected(self):
        device, key = self.make_device()
        package = UpdatePackage.make(key, 0xE800, b"\x11\x22", version=1)
        assert device.apply_update(package).ok
        assert device.apply_update(package).status is UpdateStatus.STALE_VERSION

    def test_history_keeps_the_last_offers_through_a_snapshot(self):
        device, key = self.make_device()
        offers = 3 * HISTORY_LIMIT
        for version in range(1, offers + 1):
            package = UpdatePackage.make(key, 0xE800, b"\x11\x22", version)
            if version % 2:
                package = package.tampered()
            device.apply_update(package)
        history = device.update_engine.history
        assert len(history) == HISTORY_LIMIT
        assert [version for version, _ in history] == list(
            range(offers - HISTORY_LIMIT + 1, offers + 1))
        doc = device.snapshot().to_dict()
        assert len(doc["update_engine"]["history"]) == HISTORY_LIMIT
        fresh, _ = self.make_device()
        fresh.restore(doc)
        assert fresh.update_engine.history == history
        assert fresh.snapshot().to_json() == device.snapshot().to_json()

    def test_a_longer_history_is_a_snapshot_error(self):
        device, _ = self.make_device()
        doc = device.snapshot().to_dict()
        doc["update_engine"]["history"] = [
            [version, "applied"] for version in range(HISTORY_LIMIT + 1)]
        with pytest.raises(SnapshotError, match="history"):
            self.make_device()[0].restore(doc)

    def test_update_session_gates_the_guard(self):
        # The same ROM copy routine without an open session must reset.
        device, key = self.make_device()
        staging = device.layout.dmem.start + 6
        device.bus.load_bytes(staging, b"\x11\x22")
        violations = device.call_routine(
            "S_CASU_update_copy", regs={15: staging, 14: 0xE800, 13: 1}
        )
        assert violations and violations[0].reason is ViolationReason.PMEM_WRITE
        assert device.peek_word(0xE800) == 0


class TestIterativeBuild:
    APP = """
    .text
    .global main
    .global work
main:
    call #work
    call #work
    mov #1, &0x0070
l:
    jmp l
work:
    mov #7, r10
    ret
"""

    def test_three_builds(self):
        result = IterativeBuild().build_eilid(self.APP, "app.s")
        assert result.build_count == 3

    def test_fixed_point_verified(self):
        result = IterativeBuild().build_eilid(self.APP, "app.s", verify_convergence=True)
        assert result.converged

    def test_fourth_build_is_byte_identical(self):
        builder = IterativeBuild()
        result = builder.build_eilid(self.APP, "app.s", verify_convergence=True)
        final = result.final
        again = builder.pipeline.build(
            builder._eilid_modules(result.final_source, "app.s"), name="again"
        )
        assert final.segments() == again.segments()

    def test_iteration2_addresses_stale_iteration3_correct(self):
        """The documented reason for three builds (Fig. 2)."""
        builder = IterativeBuild()
        result = builder.build_eilid(self.APP, "app.s")
        instr_pass1 = result.iterations[1].instrumented_source
        instr_pass2 = result.iterations[2].instrumented_source
        assert instr_pass1 != instr_pass2  # addresses shifted

    def test_original_build_has_no_rom(self):
        builder = IterativeBuild()
        original = builder.build_original(self.APP, "app.s")
        assert "S_EILID_entry" not in original.program.symbols

    def test_parse_cache_reused_across_iterations(self):
        builder = IterativeBuild()
        builder.build_eilid(self.APP, "app.s")
        hits_before = builder.pipeline.cache_hits
        builder.build_eilid(self.APP, "app.s")
        assert builder.pipeline.cache_hits > hits_before
