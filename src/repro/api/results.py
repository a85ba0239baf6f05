"""Typed, serialisable results: the output half of the public API.

Every stage of the scenario pipeline returns one of these dataclasses,
and every one of them serialises via ``to_dict()`` into a JSON document
carrying ``schema`` and ``version`` keys -- the uniform envelope the
CLI's ``--json`` mode and any downstream tooling rely on.  Each
``to_dict()`` is its field list (the same ``fields_to_dict`` the specs
use) plus its schema name, its computed keys and its roundings.

Fleet-scale stages additionally stream: per-device records are yielded
lazily by ``Session.attest_stream()`` / ``Session.verify_stream()``
rather than materialised, and the aggregate outcomes here carry counts
plus a bounded sample of offender ids.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.api.spec import fields_to_dict

RESULT_VERSION = 1

# How many offender device-ids an aggregate outcome embeds; the full
# stream is available via the Session's *_stream() generators.
SAMPLE_LIMIT = 10


def envelope(schema: str, **payload) -> dict:
    """The uniform JSON document shape: schema + version + payload."""
    doc = {"schema": f"eilid.{schema}", "version": RESULT_VERSION}
    doc.update(payload)
    return doc


# ---- build ------------------------------------------------------------------


@dataclass(frozen=True)
class BuildArtifacts:
    """What came out of the firmware build stage."""

    scenario: str
    workload: str
    firmware_kind: str
    variant: str
    program_name: str
    app_code_bytes: int
    build_count: int
    instrumented_calls: int
    instrumented_returns: int
    inserted_bytes: int
    build_ms: float

    def to_dict(self) -> dict:
        return envelope("build", **fields_to_dict(
            self, build_ms=round(self.build_ms, 3)))


# ---- run --------------------------------------------------------------------


@dataclass(frozen=True)
class AttackDetails:
    """How one attack scenario ended (see repro.attacks)."""

    name: str
    outcome: str  # hijacked | reset | no-effect | allowed
    detail: str
    detected: bool  # the monitor reset the device before the goal

    def to_dict(self) -> dict:
        return fields_to_dict(self)


@dataclass(frozen=True)
class RolloutDetails:
    """Aggregate view of one staged campaign."""

    status: str
    target_version: int
    applied: int
    failed: int
    skipped: int
    halted: bool
    halt_reason: str
    waves: Tuple[dict, ...]
    devices_per_sec: float
    resumed: int = 0  # devices skipped by resume (already at target)
    # Span timings observed during this campaign (histogram snapshots
    # keyed by span name, e.g. "campaign.wave.ms"); None when the
    # process metrics registry is disabled.
    metrics: Optional[dict] = None
    # Alerts the fleet's live engine fired during (or before) this
    # campaign: () when the engine is attached but quiet, None when
    # no engine is attached (FleetSpec.alerts unset).
    alerts: Optional[Tuple[dict, ...]] = None

    def to_dict(self) -> dict:
        return fields_to_dict(
            self, devices_per_sec=round(self.devices_per_sec, 1))


@dataclass(frozen=True)
class FleetRunDetails:
    """Aggregate view of a fleet's enroll + run (+ rollout) phases."""

    size: int
    enrolled: int
    run_cycles: int
    rollout: Optional[RolloutDetails] = None

    def to_dict(self) -> dict:
        return fields_to_dict(self)


@dataclass(frozen=True)
class RunOutcome:
    """One executed scenario.  Fields aggregate across a fleet."""

    scenario: str
    workload: str
    security: str
    cycles: int
    instructions: int
    steps: int
    done: bool
    done_value: Optional[int]
    violations: Tuple[str, ...]
    reset_count: int
    attack: Optional[AttackDetails] = None
    fleet: Optional[FleetRunDetails] = None

    @property
    def run_time_us(self) -> float:
        """Run time at the paper's 100 MHz clock."""
        return self.cycles / 100.0

    @property
    def ok(self) -> bool:
        """Did this scenario end the way its workload defines success?"""
        if self.attack is not None:
            return self.attack.outcome != "hijacked"
        if self.fleet is not None:
            if self.fleet.enrolled != self.fleet.size:
                return False
            return self.fleet.rollout is None or not self.fleet.rollout.halted
        return self.done and not self.violations

    def to_dict(self) -> dict:
        return envelope("run", **fields_to_dict(
            self, ok=self.ok, run_time_us=self.run_time_us))


# ---- attest -----------------------------------------------------------------


@dataclass(frozen=True)
class DeviceAttestation:
    """One streamed per-device attestation record."""

    device_id: str
    ok: bool
    detail: str
    attempts: int
    firmware_hash: Optional[str] = None
    firmware_version: Optional[int] = None

    def to_dict(self) -> dict:
        return envelope("attest.device", **fields_to_dict(self))


@dataclass(frozen=True)
class AttestOutcome:
    """Attestation evidence, aggregated across the scenario's devices."""

    scenario: str
    workload: str
    ok: bool
    devices_total: int
    devices_ok: int
    report: Optional[dict] = None  # the single-device report body
    quarantined: Tuple[str, ...] = ()  # bounded sample of offender ids

    def to_dict(self) -> dict:
        return envelope("attest", **fields_to_dict(self))


def report_to_dict(report) -> dict:
    """Serialise an AttestationReport (repro.eilid.trusted_sw)."""
    return fields_to_dict(report)


# ---- verify -----------------------------------------------------------------


@dataclass(frozen=True)
class DeviceVerification:
    """One streamed per-device trace-replay record."""

    device_id: str
    ok: bool
    reason: str
    edges_checked: int
    dropped: int = 0  # edges the device's bounded trace ring evicted

    def to_dict(self) -> dict:
        return envelope("verify.device", **fields_to_dict(self))


@dataclass(frozen=True)
class VerifyOutcome:
    """Verifier-side trace attestation against the recovered CFI policy."""

    scenario: str
    workload: str
    ok: bool
    policy_digest: str
    edges_checked: int
    dropped: int
    reason: str
    devices_total: int
    devices_ok: int
    rejected: Tuple[str, ...] = ()  # bounded sample of offender ids

    def to_dict(self) -> dict:
        return envelope("verify", **fields_to_dict(self))


# ---- static analysis --------------------------------------------------------


@dataclass(frozen=True)
class AnalyzeOutcome:
    """One static-analysis run, plus optional sweep correlation.

    ``ok`` means no critical findings -- the gate fleets check before
    enrolling an image.  ``correlation`` is present only when a fault
    sweep was correlated: escape clusters, their overlapping findings,
    and the proposed policy tightenings.
    """

    scenario: str
    workload: str
    name: str
    variant: str
    ok: bool
    rules: Tuple[str, ...]
    counts: dict  # severity -> count
    findings: Tuple[dict, ...]
    stats: dict
    correlation: Optional[dict] = None

    def to_dict(self) -> dict:
        return envelope("analyze", **fields_to_dict(self))


# ---- the one-shot pipeline result -------------------------------------------


@dataclass(frozen=True)
class ScenarioResult:
    """Everything ``run_scenario`` produced: build -> run -> attest -> verify."""

    spec: dict
    build: BuildArtifacts
    run: RunOutcome
    attest: AttestOutcome
    verify: VerifyOutcome

    @property
    def ok(self) -> bool:
        return self.run.ok and self.attest.ok and self.verify.ok

    def to_dict(self) -> dict:
        return envelope("scenario-result", **fields_to_dict(self, ok=self.ok))
