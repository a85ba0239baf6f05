"""Typed, serialisable results: the output half of the public API.

Every stage of the scenario pipeline returns one of these dataclasses,
and every one of them serialises via ``to_dict()`` into a JSON document
carrying ``schema`` and ``version`` keys -- the uniform envelope the
CLI's ``--json`` mode and any downstream tooling rely on.

Fleet-scale stages additionally stream: per-device records are yielded
lazily by ``Session.attest_stream()`` / ``Session.verify_stream()``
rather than materialised, and the aggregate outcomes here carry counts
plus a bounded sample of offender ids.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

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
        return envelope(
            "build",
            scenario=self.scenario,
            workload=self.workload,
            firmware_kind=self.firmware_kind,
            variant=self.variant,
            program_name=self.program_name,
            app_code_bytes=self.app_code_bytes,
            build_count=self.build_count,
            instrumented_calls=self.instrumented_calls,
            instrumented_returns=self.instrumented_returns,
            inserted_bytes=self.inserted_bytes,
            build_ms=round(self.build_ms, 3),
        )


# ---- run --------------------------------------------------------------------


@dataclass(frozen=True)
class AttackDetails:
    """How one attack scenario ended (see repro.attacks)."""

    name: str
    outcome: str  # hijacked | reset | no-effect | allowed
    detail: str
    detected: bool  # the monitor reset the device before the goal

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "outcome": self.outcome,
            "detail": self.detail,
            "detected": self.detected,
        }


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
    backend: str = "serial"
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
        return {
            "status": self.status,
            "target_version": self.target_version,
            "applied": self.applied,
            "failed": self.failed,
            "skipped": self.skipped,
            "halted": self.halted,
            "halt_reason": self.halt_reason,
            "waves": list(self.waves),
            "devices_per_sec": round(self.devices_per_sec, 1),
            "backend": self.backend,
            "resumed": self.resumed,
            "metrics": self.metrics,
            "alerts": None if self.alerts is None else list(self.alerts),
        }


@dataclass(frozen=True)
class FleetRunDetails:
    """Aggregate view of a fleet's enroll + run (+ rollout) phases."""

    size: int
    enrolled: int
    run_cycles: int
    rollout: Optional[RolloutDetails] = None

    def to_dict(self) -> dict:
        return {
            "size": self.size,
            "enrolled": self.enrolled,
            "run_cycles": self.run_cycles,
            "rollout": None if self.rollout is None else self.rollout.to_dict(),
        }


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
        return envelope(
            "run",
            scenario=self.scenario,
            workload=self.workload,
            security=self.security,
            ok=self.ok,
            cycles=self.cycles,
            instructions=self.instructions,
            steps=self.steps,
            done=self.done,
            done_value=self.done_value,
            run_time_us=self.run_time_us,
            violations=list(self.violations),
            reset_count=self.reset_count,
            attack=None if self.attack is None else self.attack.to_dict(),
            fleet=None if self.fleet is None else self.fleet.to_dict(),
        )


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
        return envelope(
            "attest.device",
            device_id=self.device_id,
            ok=self.ok,
            detail=self.detail,
            attempts=self.attempts,
            firmware_hash=self.firmware_hash,
            firmware_version=self.firmware_version,
        )


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
        return envelope(
            "attest",
            scenario=self.scenario,
            workload=self.workload,
            ok=self.ok,
            devices_total=self.devices_total,
            devices_ok=self.devices_ok,
            report=self.report,
            quarantined=list(self.quarantined),
        )


def report_to_dict(report) -> dict:
    """Serialise an AttestationReport (repro.eilid.trusted_sw)."""
    return {
        "firmware_hash": report.firmware_hash,
        "firmware_version": report.firmware_version,
        "reset_count": report.reset_count,
        "violation_reasons": list(report.violation_reasons),
        "cycle": report.cycle,
        "violation_count": report.violation_count,
        "violation_totals": list(report.violation_totals),
        "trace_digest": report.trace_digest,
        "trace_edges": report.trace_edges,
        "trace_dropped": report.trace_dropped,
    }


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
        return envelope(
            "verify.device",
            device_id=self.device_id,
            ok=self.ok,
            reason=self.reason,
            edges_checked=self.edges_checked,
            dropped=self.dropped,
        )


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
        return envelope(
            "verify",
            scenario=self.scenario,
            workload=self.workload,
            ok=self.ok,
            policy_digest=self.policy_digest,
            edges_checked=self.edges_checked,
            dropped=self.dropped,
            reason=self.reason,
            devices_total=self.devices_total,
            devices_ok=self.devices_ok,
            rejected=list(self.rejected),
        )


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
        return envelope(
            "analyze",
            scenario=self.scenario,
            workload=self.workload,
            name=self.name,
            variant=self.variant,
            ok=self.ok,
            rules=list(self.rules),
            counts=dict(self.counts),
            findings=[dict(finding) for finding in self.findings],
            stats=dict(self.stats),
            correlation=self.correlation,
        )


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
        return envelope(
            "scenario-result",
            ok=self.ok,
            spec=self.spec,
            build=self.build.to_dict(),
            run=self.run.to_dict(),
            attest=self.attest.to_dict(),
            verify=self.verify.to_dict(),
        )
