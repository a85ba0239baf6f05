"""The public scenario API: declarative specs in, typed outcomes out.

This package is the one supported entry point for driving the EILID
reproduction.  Everything the repo can do -- build and run a Table IV
application, compile and execute mini-C or raw assembly, launch an
attack scenario, or manage a many-device fleet with staged rollouts and
trace attestation -- is described by one declarative, JSON-round-trip
:class:`ScenarioSpec` and executed by one :class:`Session` pipeline::

    from repro.api import ScenarioSpec, FirmwareSpec, run_scenario

    spec = ScenarioSpec(
        name="hello",
        firmware=FirmwareSpec(kind="app", app="light_sensor",
                              variant="eilid"),
        security="eilid",
    )
    result = run_scenario(spec)      # build -> run -> attest -> verify
    print(result.run.cycles, result.ok)
    print(result.to_dict())          # fully JSON-serialisable

Stages can also be driven individually (``Session(spec).build()`` /
``.run()`` / ``.attest()`` / ``.verify()``); every stage returns a
typed dataclass carrying ``to_dict()``, and fleet-scale stages stream
per-device records via ``attest_stream()`` / ``verify_stream()``.

Below the specs, :func:`repro.device.build_device` is the device
constructor every path here ends in; code that already holds a linked
program builds its devices with it directly.
"""

from repro.api.firmware import (
    FirmwareBuild,
    build_firmware,
    default_peripherals,
)
from repro.api.results import (
    AttackDetails,
    AnalyzeOutcome,
    AttestOutcome,
    BuildArtifacts,
    DeviceAttestation,
    DeviceVerification,
    FleetRunDetails,
    RolloutDetails,
    RunOutcome,
    ScenarioResult,
    VerifyOutcome,
    envelope,
    report_to_dict,
)
from repro.api.session import Session, build_peripherals, run_scenario
from repro.api.spec import (
    FIRMWARE_KINDS,
    PERIPHERAL_NAMES,
    SCHEMA,
    SECURITY_PROFILES,
    SPEC_VERSION,
    AnalyzeSpec,
    FaultSpec,
    FirmwareSpec,
    FleetSpec,
    LimitsSpec,
    RolloutSpec,
    ScenarioSpec,
    SpecError,
    as_spec,
)

__all__ = [
    "AnalyzeOutcome",
    "AnalyzeSpec",
    "AttackDetails",
    "AttestOutcome",
    "BuildArtifacts",
    "DeviceAttestation",
    "DeviceVerification",
    "FIRMWARE_KINDS",
    "FaultSpec",
    "FirmwareBuild",
    "FirmwareSpec",
    "FleetRunDetails",
    "FleetSpec",
    "LimitsSpec",
    "PERIPHERAL_NAMES",
    "RolloutDetails",
    "RolloutSpec",
    "RunOutcome",
    "SCHEMA",
    "SECURITY_PROFILES",
    "SPEC_VERSION",
    "ScenarioResult",
    "ScenarioSpec",
    "Session",
    "SpecError",
    "VerifyOutcome",
    "as_spec",
    "build_firmware",
    "build_peripherals",
    "default_peripherals",
    "envelope",
    "report_to_dict",
    "run_scenario",
]
