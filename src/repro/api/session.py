"""The scenario pipeline: ``ScenarioSpec`` in, typed outcomes out.

:class:`Session` is the one public execution object.  It walks the
EILID pipeline (build -> run -> attest -> verify) lazily: each stage
runs at most once, later stages trigger the earlier ones they need,
and every stage returns a typed result dataclass from
:mod:`repro.api.results` that serialises via ``to_dict()``.

``run_scenario(spec)`` is the one-shot convenience wrapper that walks
all four stages and folds them into a :class:`ScenarioResult`.

Fleet-scale scenarios stream: ``attest_stream()`` and
``verify_stream()`` yield per-device records lazily (one verifier
exchange / trace replay at a time), and the aggregate ``attest()`` /
``verify()`` outcomes fold counts while draining those generators --
no per-device list is ever materialised.
"""

from typing import Iterator, Optional

from repro.api.firmware import FirmwareBuild, build_firmware, default_peripherals
from repro.api.results import (
    SAMPLE_LIMIT,
    AttackDetails,
    AttestOutcome,
    BuildArtifacts,
    DeviceAttestation,
    DeviceVerification,
    FleetRunDetails,
    RolloutDetails,
    RunOutcome,
    ScenarioResult,
    VerifyOutcome,
    report_to_dict,
)
from repro.api.spec import FirmwareSpec, ScenarioSpec, SpecError, as_spec
from repro.obs.metrics import METRICS


# ---- declarative peripheral stimulus ---------------------------------------


def _cycling(values):
    values = [int(v) for v in values]
    return lambda index: values[index % len(values)]


def build_peripherals(configs: dict) -> dict:
    """Instantiate peripherals from their JSON-safe spec configs."""
    from repro.peripherals import (
        Adc,
        AdcSchedule,
        Gpio,
        HarnessPorts,
        Lcd,
        Timer,
        Uart,
        Ultrasonic,
    )

    built = {}
    for name, config in configs.items():
        if name == "gpio":
            inputs = config.get("inputs")
            built[name] = Gpio(input_schedule=_cycling(inputs) if inputs else None)
        elif name == "timer":
            built[name] = Timer()
        elif name == "adc":
            hold = int(config.get("hold", 1))
            channels = {
                int(channel): AdcSchedule.steps(hold, [int(v) for v in values])
                for channel, values in (config.get("channels") or {}).items()
            }
            built[name] = Adc(AdcSchedule(channels))
        elif name == "uart":
            rx = [(int(cycle), int(byte)) for cycle, byte in config.get("rx", ())]
            built[name] = Uart(rx_schedule=rx,
                               rx_irq_enabled=bool(config.get("rx_irq", False)))
        elif name == "lcd":
            built[name] = Lcd()
        elif name == "ultrasonic":
            widths = config.get("echo_widths")
            built[name] = Ultrasonic(_cycling(widths) if widths else None)
        elif name == "harness":
            built[name] = HarnessPorts()
        else:
            raise SpecError("peripherals", f"malformed peripheral name {name!r}")
    return built


# ---- the session ------------------------------------------------------------


class Session:
    """One scenario's lifecycle.  Construct from a spec, dict, or JSON."""

    def __init__(self, spec):
        self.spec: ScenarioSpec = as_spec(spec).validate()
        self._firmware_build: Optional[FirmwareBuild] = None
        self._artifacts: Optional[BuildArtifacts] = None
        self._device = None
        self._fleet = None
        self._attack_result = None
        self._run_outcome: Optional[RunOutcome] = None
        self._attest_outcome: Optional[AttestOutcome] = None
        self._verify_outcome: Optional[VerifyOutcome] = None
        self.campaign_report = None  # the raw CampaignReport, post-rollout
        self.fault_report = None  # the raw FaultReport, post-fault_sweep
        self.analysis_report = None  # the raw AnalysisReport, post-analyze
        self.run_result = None  # the raw device RunResult (run workloads)
        self._policy_cache = None
        self._fleet_enrolled = 0  # handshake successes at enroll time

    @property
    def workload(self) -> str:
        return self.spec.workload

    # ---- internal plumbing -------------------------------------------------

    def _firmware_spec(self) -> Optional[FirmwareSpec]:
        spec = self.spec
        if spec.workload == "attack":
            from repro.attacks import attack_firmware_spec

            return attack_firmware_spec(spec.attack, spec.security)
        if spec.workload == "fleet":
            if spec.firmware == FirmwareSpec():
                from repro.fleet.simulation import fleet_firmware_spec

                return fleet_firmware_spec()
            return spec.firmware
        return spec.firmware

    def _ensure_firmware(self) -> FirmwareBuild:
        if self._firmware_build is None:
            self._firmware_build = build_firmware(self._firmware_spec())
        return self._firmware_build

    def _make_device(self):
        spec = self.spec
        build = self._ensure_firmware()
        peripherals = default_peripherals(spec.firmware) or {}
        peripherals.update(build_peripherals(spec.peripherals))
        from repro.device import build_device

        return build_device(build.program, security=spec.security,
                            peripherals=peripherals or None,
                            **spec.limits.device_kwargs())

    @property
    def device(self):
        """The single simulated device (run and attack workloads)."""
        if self.workload == "fleet":
            raise SpecError("fleet", "a fleet scenario has no single device; "
                            "use Session.fleet")
        if self._device is None:
            if self.workload == "attack":
                self.run()  # the attack harness owns device construction
            else:
                self._device = self._make_device()
        return self._device

    @property
    def attack_result(self):
        """The raw AttackResult (attack workloads; runs on first access)."""
        if self.workload != "attack":
            raise SpecError("attack", "not an attack scenario")
        if self._attack_result is None:
            self.run()
        return self._attack_result

    @property
    def fleet(self):
        """The FleetSimulation (fleet workloads); enrolls on first access."""
        spec = self.spec
        if spec.workload != "fleet":
            raise SpecError("fleet", "not a fleet scenario")
        if self._fleet is None:
            from repro.fleet.simulation import FleetSimulation

            firmware = None
            if spec.firmware != FirmwareSpec():
                firmware = spec.firmware
            self._fleet = FleetSimulation(
                size=spec.fleet.size,
                security=spec.security,
                loss=spec.fleet.loss,
                reorder=spec.fleet.reorder,
                seed=spec.fleet.seed,
                max_attempts=spec.fleet.max_attempts,
                verify_traces=spec.fleet.verify_traces,
                firmware=firmware,
                store=spec.fleet.store,
                events=spec.fleet.events,
                alerts=spec.fleet.alerts,
            )
            # Enrollment happens in the constructor (or records are
            # restored from the durable store); enrolled_ok is the
            # handshake signal that survives an applied rollout
            # clearing the golden hash pending re-attestation.
            self._fleet_enrolled = sum(
                1 for record in self._fleet.registry
                if record.enrolled_ok)
        return self._fleet

    # ---- build -------------------------------------------------------------

    def build(self) -> BuildArtifacts:
        """Compile / instrument / link the scenario's firmware."""
        if self._artifacts is None:
            spec = self.spec
            fw_spec = self._firmware_spec()
            with METRICS.span("session.build"):
                build = self._ensure_firmware()
            self._artifacts = BuildArtifacts(
                scenario=spec.name,
                workload=spec.workload,
                firmware_kind=fw_spec.kind,
                variant=fw_spec.variant,
                program_name=build.program.name,
                app_code_bytes=build.app_code_bytes,
                build_count=build.build_count,
                instrumented_calls=build.instrumented_calls,
                instrumented_returns=build.instrumented_returns,
                inserted_bytes=build.inserted_bytes,
                build_ms=build.total_ms,
            )
        return self._artifacts

    # ---- run ---------------------------------------------------------------

    def run(self) -> RunOutcome:
        """Execute the scenario (enroll + run + rollout for fleets)."""
        if self._run_outcome is None:
            runner = {"run": self._run_single,
                      "attack": self._run_attack,
                      "fleet": self._run_fleet}[self.workload]
            with METRICS.span("session.run"):
                self._run_outcome = runner()
        return self._run_outcome

    def _run_single(self) -> RunOutcome:
        spec = self.spec
        device = self.device
        result = device.run(max_cycles=spec.limits.max_cycles,
                            max_steps=spec.limits.max_steps)
        self.run_result = result
        return RunOutcome(
            scenario=spec.name,
            workload="run",
            security=spec.security,
            cycles=result.cycles,
            instructions=result.instructions,
            steps=result.steps,
            done=result.done,
            done_value=result.done_value,
            violations=tuple(v.reason.value for v in result.violations),
            reset_count=result.reset_count,
        )

    def _run_attack(self) -> RunOutcome:
        spec = self.spec
        from repro.attacks import ATTACKS

        result = ATTACKS[spec.attack](spec.security)
        self._attack_result = result
        self._device = result.device
        device = result.device
        return RunOutcome(
            scenario=spec.name,
            workload="attack",
            security=spec.security,
            cycles=device.cycle,
            instructions=device.cpu.instruction_count,
            steps=device.cpu.instruction_count,
            done=device.harness.done,
            done_value=device.harness.done_value,
            violations=tuple(v.reason.value for v in result.violations),
            reset_count=device.reset_count,
            attack=AttackDetails(
                name=result.name,
                outcome=result.outcome.value,
                detail=result.detail,
                detected=result.defended,
            ),
        )

    def rollout(self, plan) -> RolloutDetails:
        """Run one staged campaign on this session's fleet.

        *plan* is a :class:`~repro.api.spec.RolloutSpec`.  Fleet
        scenarios may roll out repeatedly (the verifier keeps managing
        the same population); each call updates ``campaign_report``.
        """
        if self.workload != "fleet":
            raise SpecError("fleet.rollout", "not a fleet scenario")
        plan.validate()
        with METRICS.span("session.rollout"):
            report = self.fleet.rollout(
                version=plan.version,
                config=plan.campaign_config(),
                tamper_fraction=plan.tamper_fraction,
                rollback_fraction=plan.rollback_fraction,
                resume=plan.resume,
            )
        self.campaign_report = report
        details = RolloutDetails(
            status=report.status.value,
            target_version=report.target_version,
            applied=report.applied,
            failed=report.failed,
            skipped=report.skipped,
            halted=report.halted,
            halt_reason=report.halt_reason,
            waves=tuple(
                {"index": wave.index, "size": wave.size,
                 "applied": wave.applied, "failed": wave.failed,
                 "failure_fraction": round(wave.failure_fraction, 4)}
                for wave in report.waves),
            devices_per_sec=report.devices_per_sec,
            backend=report.backend,
            resumed=report.resumed,
            metrics=self._campaign_metrics(),
            alerts=(None if self.fleet.alerts is None
                    else tuple(dict(alert)
                               for alert in self.fleet.alerts.fired)),
        )
        # A campaign changes the evidence (firmware hashes, lifecycle
        # states, device cycles): every cached aggregate would go
        # stale, so refresh the run outcome in place and let the next
        # attest()/verify() recompute like the streams do.
        self._attest_outcome = None
        self._verify_outcome = None
        if self._run_outcome is not None:
            self._run_outcome = self._fleet_run_outcome(details)
        return details

    def fault_sweep(self, plan=None, events=None, policy=None):
        """Run a seeded fault-injection sweep over this session's firmware.

        *plan* is a :class:`~repro.api.spec.FaultSpec` (defaults apply
        when omitted): sites are enumerated from the recovered CFG,
        expanded deterministically from the seed, and run against every
        requested defense profile (see :mod:`repro.faults`).  Returns
        the :class:`~repro.faults.FaultReport`; *events* (an obs
        :class:`~repro.obs.events.EventLog`) makes the sweep watchable
        with ``fleet watch``.  *policy* (a
        :class:`~repro.cfg.policy.CfiPolicy`, e.g. one tightened by
        :func:`repro.analyze.apply_cfi_patch`) additionally grades
        escapes by replaying their branch traces against it.
        """
        from repro.api.spec import FaultSpec
        from repro.cfg import recover_cfg
        from repro.faults import FaultCampaign, enumerate_sites, expand_plan

        plan = plan if plan is not None else FaultSpec()
        plan.validate()
        firmware = self._firmware_spec()
        if firmware is None:
            raise SpecError("faults", "this scenario has no firmware to sweep")
        build = self._ensure_firmware()
        name = firmware.app or firmware.name
        cfg = recover_cfg(build.program, name=name)
        sites = enumerate_sites(cfg, kinds=plan.kinds)
        fault_plan = expand_plan(sites, seed=plan.seed, count=plan.count,
                                 name=name)
        campaign = FaultCampaign(
            firmware, fault_plan, profiles=plan.profiles,
            backend=plan.backend, workers=plan.workers,
            max_cycles=plan.max_cycles, warmup_steps=plan.warmup_steps,
            events=events, policy=policy)
        with METRICS.span("session.fault_sweep"):
            report = campaign.run()
        self.fault_report = report
        return report

    def analyze(self, spec=None, events=None, fault_report=None):
        """Run the static analyzer over this session's firmware image.

        *spec* is an :class:`~repro.api.spec.AnalyzeSpec` (defaults
        apply when omitted).  *fault_report* (or, when omitted, the
        session's stored report from a prior :meth:`fault_sweep`)
        switches on sweep correlation: escape/silent clusters are
        matched against the findings and CFI-policy tightenings are
        proposed.  *events* (an obs EventLog) records each finding as
        an ``analysis-finding`` event, so fleets can gate enrollment on
        a clean report.  Returns an
        :class:`~repro.api.results.AnalyzeOutcome`.
        """
        from repro.analyze import analyze_cfg, correlate_sweep
        from repro.api.results import AnalyzeOutcome
        from repro.api.spec import AnalyzeSpec
        from repro.cfg import recover_cfg

        spec = spec if spec is not None else AnalyzeSpec()
        spec.validate()
        firmware = self._firmware_spec()
        if firmware is None:
            raise SpecError("analyze",
                            "this scenario has no firmware to analyze")
        build = self._ensure_firmware()
        name = firmware.app or firmware.name
        with METRICS.span("session.analyze"):
            cfg = recover_cfg(build.program, name=name)
            report = analyze_cfg(
                cfg, build.program, variant=firmware.variant,
                rules=spec.rules, stack_margin=spec.stack_margin,
                irq_nesting=spec.irq_nesting)
            fault_report = (fault_report if fault_report is not None
                            else self.fault_report)
            correlation = None
            if fault_report is not None:
                correlation = correlate_sweep(fault_report, cfg,
                                              report.findings)
        if events is not None:
            for finding in report.findings:
                events.emit(
                    "analysis-finding", scenario=self.spec.name,
                    firmware=name, variant=firmware.variant,
                    rule=finding.rule, severity=finding.severity,
                    pc=finding.pc, function=finding.function,
                    message=finding.message)
            events.flush()
        self.analysis_report = report
        doc = report.to_dict()
        return AnalyzeOutcome(
            scenario=self.spec.name,
            workload=self.spec.workload,
            name=report.name,
            variant=report.variant,
            ok=report.ok,
            rules=tuple(doc["rules"]),
            counts=doc["counts"],
            findings=tuple(doc["findings"]),
            stats=doc["stats"],
            correlation=correlation,
        )

    @staticmethod
    def _campaign_metrics() -> Optional[dict]:
        """Campaign span timings for a RolloutDetails (None if disabled)."""
        if not METRICS.enabled:
            return None
        snapshot = METRICS.snapshot()["histograms"]
        return {name: data for name, data in snapshot.items()
                if name.startswith("campaign.")}

    def metrics(self) -> dict:
        """Snapshot of the process metrics registry (counters, gauges,
        span histograms).  Cumulative across the process, not scoped to
        this session -- the registry is deliberately global so the
        fleet layers, the interpreter batches and the session phases
        all land in one place."""
        return METRICS.snapshot()

    def _fleet_run_outcome(self, rollout) -> RunOutcome:
        """Aggregate the fleet's current device state into a RunOutcome."""
        spec = self.spec
        devices = self.fleet.devices.values()
        return RunOutcome(
            scenario=spec.name,
            workload="fleet",
            security=spec.security,
            cycles=sum(d.cycle for d in devices),
            instructions=sum(d.cpu.instruction_count for d in devices),
            steps=sum(d.cpu.instruction_count for d in devices),
            done=self._fleet_enrolled == spec.fleet.size,
            done_value=None,
            violations=tuple(sorted(
                {reason for d in devices for reason in d.violation_totals})),
            reset_count=sum(d.reset_count for d in devices),
            fleet=FleetRunDetails(
                size=spec.fleet.size,
                enrolled=self._fleet_enrolled,
                run_cycles=spec.fleet.run_cycles,
                rollout=rollout,
            ),
        )

    def _run_fleet(self) -> RunOutcome:
        spec = self.spec
        fleet = self.fleet
        if spec.fleet.run_cycles:
            fleet.run_all(max_cycles=spec.fleet.run_cycles)
        rollout = None
        if spec.fleet.rollout is not None:
            rollout = self.rollout(spec.fleet.rollout)
        return self._fleet_run_outcome(rollout)

    # ---- attest ------------------------------------------------------------

    def attest_stream(self) -> Iterator[DeviceAttestation]:
        """Yield per-device attestation records lazily (fleet-scale)."""
        self.run()
        if self.workload == "fleet":
            # The sweep saves each record and flushes once, even when
            # the consumer abandons the stream.
            for device_id, result in self.fleet.attest_sweep():
                report = result.report
                yield DeviceAttestation(
                    device_id=device_id,
                    ok=result.ok,
                    detail=result.detail,
                    attempts=result.attempts,
                    firmware_hash=None if report is None
                    else report.firmware_hash,
                    firmware_version=None if report is None
                    else report.firmware_version,
                )
        else:
            report = self.device.attestation_report()
            yield DeviceAttestation(
                device_id=self.spec.name,
                ok=True,
                detail="local attestation snapshot",
                attempts=1,
                firmware_hash=report.firmware_hash,
                firmware_version=report.firmware_version,
            )

    def attest(self) -> AttestOutcome:
        """Collect attestation evidence; folds the per-device stream."""
        if self._attest_outcome is None:
            spec = self.spec
            with METRICS.span("session.attest"):
                if self.workload == "fleet":
                    total = ok = 0
                    quarantined = []
                    for record in self.attest_stream():
                        total += 1
                        if record.ok:
                            ok += 1
                        elif len(quarantined) < SAMPLE_LIMIT:
                            quarantined.append(record.device_id)
                    report = None
                else:
                    self.run()
                    total = ok = 1
                    quarantined = []
                    report = report_to_dict(self.device.attestation_report())
            self._attest_outcome = AttestOutcome(
                scenario=spec.name,
                workload=spec.workload,
                ok=ok == total,
                devices_total=total,
                devices_ok=ok,
                report=report,
                quarantined=tuple(quarantined),
            )
        return self._attest_outcome

    # ---- verify ------------------------------------------------------------

    def _policy(self):
        if self.workload == "fleet":
            return self.fleet.policy  # cached on the simulation
        if self._policy_cache is None:
            from repro.cfg import policy_for_program

            # CFG recovery + policy compilation is the expensive half
            # of verification; one session verifies one image.
            self._policy_cache = policy_for_program(self.device.program)
        return self._policy_cache

    def verify_stream(self) -> Iterator[DeviceVerification]:
        """Yield per-device trace-replay verdicts lazily (fleet-scale)."""
        self.run()
        from repro.cfg import replay_trace

        policy = self._policy()
        if self.workload == "fleet":
            devices = self.fleet.devices.items()
        else:
            devices = ((self.spec.name, self.device),)
        for device_id, device in devices:
            snapshot = device.trace_snapshot()
            verdict = replay_trace(policy, snapshot)
            yield DeviceVerification(
                device_id=device_id,
                ok=verdict.ok,
                reason=verdict.reason,
                edges_checked=verdict.edges_checked,
                dropped=snapshot.dropped,
            )

    def verify(self) -> VerifyOutcome:
        """Replay recorded branch traces against the recovered policy."""
        if self._verify_outcome is None:
            spec = self.spec
            self.run()
            with METRICS.span("session.verify"):
                policy = self._policy()
                total = ok = edges = dropped = 0
                reason = ""
                rejected = []
                for record in self.verify_stream():
                    total += 1
                    edges += record.edges_checked
                    dropped += record.dropped
                    if record.ok:
                        ok += 1
                    else:
                        if not reason:
                            reason = record.reason
                        if len(rejected) < SAMPLE_LIMIT:
                            rejected.append(record.device_id)
            self._verify_outcome = VerifyOutcome(
                scenario=spec.name,
                workload=spec.workload,
                ok=ok == total,
                policy_digest=policy.digest,
                edges_checked=edges,
                dropped=dropped,
                reason=reason,
                devices_total=total,
                devices_ok=ok,
                rejected=tuple(rejected),
            )
        return self._verify_outcome

    # ---- the whole pipeline ------------------------------------------------

    def result(self) -> ScenarioResult:
        return ScenarioResult(
            spec=self.spec.to_dict(),
            build=self.build(),
            run=self.run(),
            attest=self.attest(),
            verify=self.verify(),
        )


def run_scenario(spec) -> ScenarioResult:
    """One-shot convenience: build, run, attest and verify *spec*.

    Accepts a :class:`ScenarioSpec`, a plain dict, or a JSON string.
    """
    return Session(spec).result()
