"""The public scenario API (repro.api).

Covers the ISSUE-4 acceptance surface: spec serialisation round-trips
across all four workload shapes, rejection of malformed documents with
errors naming the bad field, the Session pipeline (build -> run ->
attest -> verify) for app / mini-C / attack / fleet scenarios, stream
semantics at fleet scale, and the build_device knob validation shim.
"""

import json

import pytest

from repro.api import (
    FirmwareSpec,
    FleetSpec,
    LimitsSpec,
    RolloutSpec,
    ScenarioSpec,
    Session,
    SpecError,
    build_peripherals,
    run_scenario,
)
from repro.errors import ReproError

MINI_C = """
void main() {
    int total = 0;
    for (int i = 1; i <= 4; i = i + 1) {
        total = total + i;
    }
    __mmio_write(0x0070, total);
}
"""

RAW_ASM = """
    .text
    .global main
main:
    mov #1, &0x0070
idle:
    jmp idle
"""


def app_spec(variant="eilid", security="eilid"):
    return ScenarioSpec(
        name="app-shape",
        firmware=FirmwareSpec(kind="app", app="light_sensor", variant=variant),
        security=security,
    )


def minicc_spec():
    return ScenarioSpec(
        name="minicc-shape",
        firmware=FirmwareSpec(kind="minicc", source=MINI_C, variant="eilid",
                              name="mini"),
        security="eilid",
    )


def attack_spec(attack="pmem_overwrite", security="casu"):
    return ScenarioSpec(name="attack-shape", attack=attack, security=security)


def fleet_spec(size=10, **kwargs):
    return ScenarioSpec(name="fleet-shape", security="casu",
                        fleet=FleetSpec(size=size, **kwargs))


# ---- serialisation ---------------------------------------------------------


class TestSpecRoundTrip:
    @pytest.mark.parametrize("spec", [
        app_spec(),
        minicc_spec(),
        attack_spec(),
        fleet_spec(rollout=RolloutSpec(version=2, tamper_fraction=0.1)),
    ], ids=["app", "minicc", "attack", "fleet"])
    def test_dict_spec_dict_identity(self, spec):
        doc = spec.validate().to_dict()
        assert doc["schema"] == "eilid.scenario"
        assert doc["version"] == 1
        rebuilt = ScenarioSpec.from_dict(doc)
        assert rebuilt.to_dict() == doc
        assert rebuilt.workload == spec.workload
        # and the JSON leg of the trip
        assert ScenarioSpec.from_json(spec.to_json()).to_dict() == doc

    def test_json_document_drives_a_session(self):
        doc = json.dumps(minicc_spec().to_dict())
        outcome = Session(doc).run()
        assert outcome.done and outcome.done_value == 10

    def test_with_copies(self):
        spec = app_spec()
        casu = spec.with_(security="casu")
        assert casu.security == "casu" and spec.security == "eilid"

    def test_limits_round_trip(self):
        spec = app_spec()
        spec.limits = LimitsSpec(max_events=16, trace_capacity=128,
                                 decode_cache=False, max_cycles=1000,
                                 max_steps=50)
        doc = spec.to_dict()
        assert ScenarioSpec.from_dict(doc).limits == spec.limits


class TestSpecRejection:
    def assert_field(self, field, fn):
        with pytest.raises(SpecError) as excinfo:
            fn()
        assert excinfo.value.field == field
        assert field in str(excinfo.value)

    def test_unknown_security_profile(self):
        self.assert_field(
            "security", lambda: app_spec(security="fortress").validate())

    def test_malformed_peripheral_name(self):
        spec = app_spec()
        spec.peripherals = {"adcc": {}}
        self.assert_field("peripherals", spec.validate)

    def test_unknown_peripheral_config_key(self):
        spec = app_spec()
        spec.peripherals = {"adc": {"chanels": {}}}
        self.assert_field("peripherals.adc", spec.validate)

    def test_malformed_peripheral_config_values(self):
        spec = app_spec()
        spec.peripherals = {"adc": {"channels": {"x": [1, 2]}}}
        self.assert_field("peripherals.adc.channels", spec.validate)
        spec.peripherals = {"uart": {"rx": [[10]]}}
        self.assert_field("peripherals.uart.rx", spec.validate)
        spec.peripherals = {"gpio": {"inputs": "high"}}
        self.assert_field("peripherals.gpio.inputs", spec.validate)
        spec.peripherals = {"gpio": {"inputs": ["--5"]}}
        self.assert_field("peripherals.gpio.inputs", spec.validate)

    def test_unknown_app(self):
        self.assert_field("firmware.app", lambda: ScenarioSpec(
            firmware=FirmwareSpec(kind="app", app="nonsense")).validate())

    def test_unknown_firmware_kind(self):
        self.assert_field("firmware.kind", lambda: ScenarioSpec(
            firmware=FirmwareSpec(kind="rust", source="x")).validate())

    def test_source_kinds_require_source(self):
        self.assert_field("firmware.source", lambda: ScenarioSpec(
            firmware=FirmwareSpec(kind="minicc")).validate())

    def test_unknown_attack(self):
        self.assert_field(
            "attack", lambda: attack_spec(attack="nonsense").validate())

    def test_attack_and_fleet_exclusive(self):
        spec = attack_spec()
        spec.fleet = FleetSpec(size=1)
        self.assert_field("attack", spec.validate)

    def test_attack_rejects_custom_firmware(self):
        # would be silently ignored otherwise: the harness owns it
        spec = attack_spec()
        spec.firmware = FirmwareSpec(kind="minicc", source="void main() {}")
        self.assert_field("firmware", spec.validate)

    def test_attack_rejects_custom_limits(self):
        spec = attack_spec()
        spec.limits = LimitsSpec(trace_capacity=16)
        self.assert_field("limits", spec.validate)

    def test_fleet_partial_firmware_rejected(self):
        # kind customised but source forgotten: must fail loudly, not
        # silently fall back to the built-in fleet-node image
        spec = fleet_spec()
        spec.firmware = FirmwareSpec(kind="asm")
        self.assert_field("firmware.source", spec.validate)

    def test_bad_wave_fractions(self):
        self.assert_field("fleet.rollout.wave_fractions", lambda: fleet_spec(
            rollout=RolloutSpec(wave_fractions=(0.5, 0.2, 1.0))).validate())
        self.assert_field("fleet.rollout.wave_fractions", lambda: fleet_spec(
            rollout=RolloutSpec(wave_fractions=(-2.0, 1.0))).validate())
        self.assert_field("fleet.rollout.wave_fractions", lambda: fleet_spec(
            rollout=RolloutSpec(wave_fractions=(0.0, 1.0))).validate())

    def test_fleet_loss_out_of_range(self):
        self.assert_field("fleet.loss",
                          lambda: fleet_spec(loss=5.0).validate())

    def test_unknown_top_level_key(self):
        doc = app_spec().to_dict()
        doc["securty"] = "eilid"
        self.assert_field("scenario", lambda: ScenarioSpec.from_dict(doc))

    def test_unknown_nested_key(self):
        doc = app_spec().to_dict()
        doc["firmware"]["varant"] = "eilid"
        self.assert_field("firmware", lambda: ScenarioSpec.from_dict(doc))

    def test_wrong_schema(self):
        doc = app_spec().to_dict()
        doc["schema"] = "eilid.other"
        self.assert_field("schema", lambda: ScenarioSpec.from_dict(doc))

    def test_bad_json_text(self):
        self.assert_field("scenario",
                          lambda: ScenarioSpec.from_json("{nope"))

    def test_spec_error_is_a_repro_error_and_a_value_error(self):
        # ``except ReproError`` catches every typed boundary error.
        with pytest.raises(ReproError):
            app_spec(security="fortress").validate()
        assert issubclass(SpecError, ValueError)

    @pytest.mark.parametrize("section,value", [
        ("firmware", []),  # was AttributeError
        ("limits", 5),  # was TypeError
        ("fleet", 5.0),  # was TypeError
    ])
    def test_non_object_sections(self, section, value):
        self.assert_field(section,
                          lambda: ScenarioSpec.from_dict({section: value}))

    def test_non_object_rollout_section(self):
        self.assert_field(
            "fleet.rollout",
            lambda: ScenarioSpec.from_dict({"fleet": {"rollout": []}}))


class TestBuildDeviceShim:
    def test_unknown_knob_typo_raises_with_accepted_names(self, app_builds):
        from repro.device import build_device

        program = app_builds["light_sensor"][0].program
        with pytest.raises(TypeError) as excinfo:
            build_device(program, security="none", trace_capcity=64)
        message = str(excinfo.value)
        assert "trace_capcity" in message
        for knob in ("max_events", "trace_capacity", "decode_cache"):
            assert knob in message

    def test_known_knobs_still_pass(self, app_builds):
        from repro.device import build_device

        program = app_builds["light_sensor"][0].program
        device = build_device(program, security="none", trace_capacity=8,
                              max_events=4, decode_cache=False)
        assert device.trace.capacity == 8


# ---- the pipeline ----------------------------------------------------------


class TestPipelineApp:
    def test_table4_app_scenario(self):
        result = run_scenario(app_spec())
        assert result.ok
        assert result.build.instrumented_calls > 0
        assert result.build.build_count == 3  # the Fig. 2 iteration
        assert result.run.done and not result.run.violations
        assert result.attest.report["firmware_hash"]
        assert result.verify.ok and result.verify.edges_checked > 0
        doc = result.to_dict()
        json.dumps(doc)  # fully serialisable
        for stage in ("build", "run", "attest", "verify"):
            assert doc[stage]["schema"].startswith("eilid.")
            assert doc[stage]["version"] == 1

    def test_original_variant_runs_unmonitored(self):
        outcome = Session(app_spec(variant="original", security="none")).run()
        assert outcome.done and not outcome.violations

    def test_minicc_scenario(self):
        result = run_scenario(minicc_spec())
        assert result.ok and result.run.done_value == 10

    def test_asm_scenario(self):
        spec = ScenarioSpec(
            name="raw",
            firmware=FirmwareSpec(kind="asm", source=RAW_ASM,
                                  variant="original", name="raw"),
            security="casu",
        )
        result = run_scenario(spec)
        assert result.run.done and result.ok

    def test_bounded_trace_ring_reports_drops(self):
        spec = minicc_spec()
        spec.limits = LimitsSpec(trace_capacity=4)
        session = Session(spec)
        assert session.run().done
        verify = session.verify()
        assert verify.dropped > 0  # the evidence window is honest

    def test_trace_capacity_zero_disables_recording(self):
        spec = minicc_spec()
        spec.limits = LimitsSpec(trace_capacity=0)
        session = Session(spec)
        assert session.run().done
        assert session.device.trace is None
        verify = session.verify()
        assert verify.ok and verify.edges_checked == 0

    def test_declarative_peripherals_override(self):
        # An app scenario can override a stimulus peripheral from JSON.
        spec = app_spec()
        spec.peripherals = {"adc": {"hold": 7,
                                    "channels": {"0": [100, 900]}}}
        session = Session(spec)
        assert session.run().done
        adc = session.device.peripherals["adc"]
        assert adc.schedule.sample(0, 0) == 100
        assert adc.schedule.sample(0, 7) == 900

    def test_build_peripherals_factories(self):
        built = build_peripherals({
            "uart": {"rx": [[10, 65]], "rx_irq": True},
            "ultrasonic": {"echo_widths": [700, 950]},
            "gpio": {"inputs": [1, 0]},
            "timer": {},
            "lcd": {},
            "harness": {},
        })
        assert set(built) == {"uart", "ultrasonic", "gpio", "timer", "lcd",
                              "harness"}
        assert built["uart"].rx_irq_enabled


class TestPipelineAttack:
    def test_attack_detected_under_casu(self):
        # PMEM immutability is CASU's core guarantee: the overwrite
        # resets the device, so the scenario counts as defended.
        result = run_scenario(attack_spec("pmem_overwrite", "casu"))
        assert result.run.attack.outcome == "reset"
        assert result.run.attack.detected
        assert result.run.ok
        json.dumps(result.to_dict())

    def test_attack_hijacks_undefended_device(self):
        session = Session(attack_spec("return_address_smash", "none"))
        outcome = session.run()
        assert outcome.attack.outcome == "hijacked"
        assert not outcome.ok
        # ... but the verifier still catches it from the trace alone
        assert not session.verify().ok

    def test_attack_contained_by_eilid(self):
        session = Session(attack_spec("return_address_smash", "eilid"))
        outcome = session.run()
        assert outcome.attack.detected and outcome.ok
        assert session.attack_result.defended

    def test_attack_build_reports_executed_firmware(self):
        # raw-asm monitor attacks run their own image, not the C victim
        raw = Session(attack_spec("pmem_overwrite", "casu")).build()
        assert raw.firmware_kind == "asm" and raw.variant == "original"
        victim = Session(attack_spec("return_address_smash", "eilid")).build()
        assert victim.firmware_kind == "minicc" and victim.variant == "eilid"
        assert victim.instrumented_returns > 0


class TestPipelineFleet:
    def test_fleet_rollout_with_trace_verification(self):
        # The acceptance scenario: one JSON document drives a
        # >= 100-device fleet rollout with trace verification.
        doc = {
            "schema": "eilid.scenario",
            "version": 1,
            "name": "fleet-100",
            "security": "casu",
            "fleet": {
                "size": 100,
                "verify_traces": True,
                "rollout": {"version": 1},
            },
        }
        result = run_scenario(doc)
        assert result.ok
        assert result.run.fleet.enrolled == 100
        assert result.run.fleet.rollout.status == "complete"
        assert result.attest.devices_ok == 100
        assert result.verify.devices_ok == 100
        assert result.verify.policy_digest
        json.dumps(result.to_dict())

    def test_streams_are_lazy(self):
        session = Session(fleet_spec(size=5))
        stream = session.attest_stream()
        first = next(stream)
        assert first.device_id and first.ok
        # only partially drained; the aggregate still covers everyone
        assert session.attest().devices_total == 5
        verdicts = session.verify_stream()
        assert next(verdicts).ok

    def test_halted_rollout_is_not_ok(self):
        spec = fleet_spec(size=20, rollout=RolloutSpec(
            version=1, tamper_fraction=0.5))
        outcome = Session(spec).run()
        assert outcome.fleet.rollout.halted
        assert not outcome.ok

    def test_repeated_rollouts_on_one_session(self):
        session = Session(fleet_spec(size=8))
        session.run()
        first = session.rollout(RolloutSpec(version=1))
        second = session.rollout(RolloutSpec(version=2))
        assert not first.halted and not second.halted
        assert second.target_version == 2

    def test_rollout_invalidates_cached_aggregates(self):
        session = Session(fleet_spec(size=6))
        before = session.attest()
        assert session.attest() is before  # cached while nothing changed
        session.rollout(RolloutSpec(version=1))
        after = session.attest()
        assert after is not before  # recomputed post-campaign
        assert after.ok and after.devices_ok == 6

    def test_rollout_refreshes_run_outcome(self):
        session = Session(fleet_spec(size=6))
        assert session.run().fleet.rollout is None
        session.rollout(RolloutSpec(version=3))
        refreshed = session.run()
        assert refreshed.fleet.rollout is not None
        assert refreshed.fleet.rollout.target_version == 3
        assert refreshed.fleet.enrolled == 6
        assert session.result().run is refreshed

    def test_fleet_has_no_single_device(self):
        with pytest.raises(SpecError):
            Session(fleet_spec(size=1)).device


class TestImportSurface:
    def test_acceptance_import_line(self):
        # python -c "import json; from repro.api import run_scenario,
        #            ScenarioSpec"
        import importlib

        module = importlib.import_module("repro.api")
        assert callable(module.run_scenario)
        assert module.ScenarioSpec is ScenarioSpec
