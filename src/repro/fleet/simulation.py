"""N simulated EILID devices plus the verifier that manages them.

:class:`FleetSimulation` is the one-stop harness behind ``fleet``
CLI commands, the demo, the benchmarks and the tests: it builds the
device firmware ONCE (the whole fleet shares the immutable program
image, each device gets its own bus/CPU/monitor and its own derived
key), enrolls every device over the simulated transport, and exposes
attestation sweeps and staged rollout campaigns.

Adversarial knobs used by tests and the demo:

* ``tamper_fraction``  -- that share of devices receives a payload-
  flipped package (models a man-in-the-middle on their links); the
  device-side MAC check must reject every one.
* ``rollback_fraction`` -- that share receives a correctly signed but
  stale-version package (models a replay/downgrade attempt); the
  device-side monotonic version check must reject every one.
* ``corrupt_firmware`` -- backdoor-flips a word of one device's PMEM
  and lets it run into the fault (models physical tamper/bitrot); the
  next heartbeat shows the violation log and the hash mismatch
  quarantines the device.

Durability and sharding: pass ``store=`` (a path or a
:class:`~repro.fleet.store.RegistryStore`) and the registry loads the
previous run's records -- already-enrolled devices are *restored* (a
fresh replica is rebuilt from the shared FirmwareSpec, fast-forwarded
to the record's firmware version, applied payloads and logical clock)
instead of re-enrolled, so attest/rollout pick up exactly where the
killed process stopped.  ``rollout(..., resume=True)`` additionally
skips devices whose durable record already shows the target version.
With ``CampaignConfig.backend == "process"`` the campaign ships
record snapshots to worker processes; :func:`_run_shard` below is the
worker: it rebuilds its shard's devices from the same FirmwareSpec +
fleet seed, offers each one the package :func:`package_factory`
makes for it, as the serial backend does, and ships each record back
through the record codec for the parent to adopt.

Parked replicas: a replica is live only while something runs on it.
Its agent parks it after every message, and ``enroll``, the restore,
``run_all``, the process backend's replica sync and
``corrupt_firmware`` park it when they finish
(:meth:`repro.device.Device.park`), so an idle replica holds only the
RAM pages that differ from the firmware image, and an attest answers
without unparking.  There is no live set to size: a rollout offers to
every replica, so any bound smaller than the fleet would only churn.
"""

import contextlib
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.api.firmware import build_firmware
from repro.api.spec import FirmwareSpec
from repro.casu.update import UpdatePackage
from repro.device import Device, build_device
from repro.eval.report import render_bars, render_table
from repro.fleet.campaign import (
    CampaignConfig,
    CampaignReport,
    RolloutCampaign,
    check_target_version,
)
from repro.fleet.protocol import AttestResult, DeviceAgent, VerifierSession
from repro.fleet.registry import DeviceRecord, FleetError, FleetRegistry
from repro.fleet.store import (
    META_FIRMWARE,
    META_PACKAGES,
    open_store,
    record_from_dict,
    record_to_dict,
)
from repro.fleet.transport import Transport
from repro.obs.events import MemoryEventLog, open_event_log
from repro.obs.metrics import METRICS

# A fleet node's firmware: report a reading, signal DONE, idle.
FLEET_APP = """
    .text
    .global main
main:
    mov #42, &0x0200
    mov #1, &0x0070
idle:
    jmp idle
"""

UPDATE_TARGET = 0xE800  # free PMEM past the tiny resident app


def fleet_firmware_spec() -> FirmwareSpec:
    """The default fleet node firmware as a declarative spec.

    Routing through :func:`repro.api.firmware.build_firmware` means the
    shared image is built once per process and the cache is shared with
    every other scenario that names the same firmware.
    """
    return FirmwareSpec(kind="asm", source=FLEET_APP, variant="original",
                        name="fleet-node", link_rom=True)


def default_payload(version: int, words=8) -> bytes:
    """A recognisable per-version payload (word-aligned)."""
    return b"".join(
        ((version * 0x0100 + index) & 0xFFFF).to_bytes(2, "little")
        for index in range(words)
    )


def package_factory(version: int, payload: bytes,
                    tamper_ids: Sequence[str], rollback_ids: Sequence[str]):
    """Per-device package maker with optional adversarial subsets:
    the one package rule of both campaign backends."""
    tampered = frozenset(tamper_ids)
    rolled_back = frozenset(rollback_ids)

    def make(record: DeviceRecord) -> UpdatePackage:
        if record.device_id in rolled_back:
            # Correctly signed, but a version the device already has:
            # the monotonic counter must reject it.
            return UpdatePackage.make(record.key, UPDATE_TARGET, payload,
                                      record.firmware_version)
        package = UpdatePackage.make(record.key, UPDATE_TARGET, payload,
                                     version)
        if record.device_id in tampered:
            return package.tampered()
        return package

    return make


class FleetSimulation:
    """A registry, a transport, and one real Device per enrolled id."""

    def __init__(self, size=0, security="casu", platform="TI MSP430",
                 loss=0.0, reorder=0.0, seed=0, max_attempts=4,
                 verify_traces=False, firmware: Optional[FirmwareSpec] = None,
                 store=None, events=None, alerts=None):
        if size < 0:
            raise ValueError("fleet size must be >= 0")
        self.security = security
        self.platform = platform
        self.max_attempts = max_attempts
        self.loss = loss
        self.reorder = reorder
        self.seed = seed
        # The shared image every enrolled device boots: a declarative
        # FirmwareSpec resolved through the repro.api build path (cached
        # process-wide), defaulting to the resident FLEET_APP node.
        self.firmware = firmware or fleet_firmware_spec()
        # Trace attestation: when enabled, every attest() additionally
        # authenticates + replays the device's branch trace against the
        # CFI policy recovered from the shared firmware image.
        self.verify_traces = verify_traces
        self._policy = None
        # Device ids whose replica state diverged from an honest
        # rebuild (fault hooks, forged traces, corrupted firmware):
        # process-backend campaigns ship these replicas' full
        # snapshots so workers see the true state; everyone else
        # keeps the cheap record-only rebuild path.
        self._mutated: set = set()
        self.transport = Transport(loss=loss, reorder=reorder, seed=seed)
        self.devices: Dict[str, Device] = {}
        self.agents: Dict[str, DeviceAgent] = {}
        # A store or event log opened here from a path is closed again
        # if loading the fleet raises (a malformed record, a firmware
        # spec mismatch); once loaded, the fleet owns it.
        with contextlib.ExitStack() as opened:
            # Durable verifier state: a path picks a backend via
            # open_store; records found in it are restored, not
            # re-enrolled.
            if isinstance(store, str):
                store = opened.enter_context(open_store(store))
            # The longitudinal event log: observability is on by
            # default at the fleet layer (an in-memory log costs one
            # dict append per operational fact); a path makes it
            # durable alongside the store, flushed at the same registry
            # durability points.
            if isinstance(events, str):
                events = opened.enter_context(open_event_log(events))
            elif events is None:
                events = MemoryEventLog()
            self._load(size, store, events, alerts)
            opened.pop_all()

    def _load(self, size, store, events, alerts):
        """Attach the registry, restore its records, enroll the rest."""
        self.events = events
        # What this fleet observed is what its log received from here
        # on (see observed()); a reopened durable log keeps the past.
        self._opened_seq = events.last_seq
        # Live alerting over the event stream: ``alerts=True`` attaches
        # the default rule panel, a dict (``FleetSpec.alerts`` shape)
        # tunes thresholds per rule.  Off (None/False) means the engine
        # never subscribes -- emissions pay only the bus's empty check.
        self.alerts = None
        if alerts:
            from repro.obs.alerts import AlertEngine, build_rules

            config = None if alerts is True else dict(alerts)
            self.alerts = AlertEngine(build_rules(config)).attach(events)
        self.registry = FleetRegistry(store=store, events=events)
        # The store's records pin golden hashes of ONE firmware image;
        # restoring them under a different spec would rebuild wrong
        # replicas and mass-quarantine healthy devices on the next
        # heartbeat.  Pin the spec in the meta document and refuse a
        # mismatch loudly (same no-silent-fallback rule as the API).
        pinned = self.registry.meta.get(META_FIRMWARE)
        if pinned is not None and pinned != self.firmware.to_dict():
            raise FleetError(
                f"store was built on firmware "
                f"{pinned.get('name')!r} ({pinned.get('kind')}/"
                f"{pinned.get('variant')}); refusing to restore it as "
                f"{self.firmware.name!r} -- pass the original spec")
        self.registry.meta[META_FIRMWARE] = self.firmware.to_dict()
        for record in self.registry:
            self._restore(record)
        if size:
            missing = size - len(self.registry)
            if missing > 0:
                self.enroll_many(missing)

    # ---- enrollment ------------------------------------------------------

    def enroll(self, device_id: str) -> AttestResult:
        """Provision one device and run the enrollment handshake."""
        record = self.registry.enroll(device_id, platform=self.platform,
                                      security=self.security)
        device = build_device(build_firmware(self.firmware).program,
                              security=self.security, update_key=record.key)
        device.park()  # the enrollment report answers parked
        link = self.transport.link(device_id)
        self.devices[device_id] = device
        self.agents[device_id] = DeviceAgent(device_id, device, link)
        result = self.session(device_id).enroll()
        self.registry.save(record)
        return result

    def enroll_many(self, count: int, prefix="dev") -> List[AttestResult]:
        start = len(self.registry)
        results = [self.enroll(f"{prefix}-{start + index:05d}")
                   for index in range(count)]
        self.registry.flush()
        return results

    def _restore(self, record: DeviceRecord):
        """Rebuild one device replica from a durable record.

        The simulated device is deterministic given the shared image
        and the record: rebuild it, replay the applied update payloads
        recorded in the store's meta document (so PMEM -- and thus the
        firmware hash -- matches what the device looked like when the
        previous process died), fast-forward the monotonic version
        counter, and advance the device's logical clock past
        ``last_seen`` (the real device kept running while the verifier
        was down; a replica that rebooted to cycle 0 would read as a
        stale-report replay), and carry the record's cumulative
        violation and reset counters over.
        """
        device = build_device(build_firmware(self.firmware).program,
                              security=record.security,
                              update_key=record.key)
        device.update_engine.current_version = record.firmware_version
        # Replay exactly the versions this device applied, in order --
        # NOT every recorded version <= its counter: a device that
        # skipped v1 (enrolled late, resumed campaign) must not get
        # v1's bytes, or its hash diverges from the real device's.
        packages = self.registry.meta.get(META_PACKAGES, {})
        for version in record.applied_versions:
            applied = packages.get(str(version))
            if applied is not None:
                device.bus.load_bytes(int(applied["target"]),
                                      bytes.fromhex(applied["payload"]))
        if record.last_seen is not None:
            device.cycle = max(device.cycle, record.last_seen)
        # The real device's RoT counters outlived the verifier; a
        # replica counting from zero would report them going down.
        device.violation_count = record.violation_count
        device.violation_totals = dict(record.violation_totals)
        device.reset_count = record.reset_count
        device.park()
        link = self.transport.link(record.device_id)
        self.devices[record.device_id] = device
        self.agents[record.device_id] = DeviceAgent(record.device_id, device,
                                                    link)

    # ---- verifier plumbing -----------------------------------------------

    @property
    def policy(self):
        """The fleet firmware's recovered CFI policy (lazy, shared)."""
        if self._policy is None:
            from repro.cfg import policy_for_program

            program = build_firmware(self.firmware).program
            self._policy = policy_for_program(program, name=self.firmware.name)
        return self._policy

    def session(self, device_id: str,
                campaign: Optional[str] = None) -> VerifierSession:
        """A verifier session for one exchange with *device_id*, its
        events tagged with *campaign* (None outside a campaign)."""
        agent = self.agents.get(device_id)
        if agent is None:
            raise FleetError(f"no simulated device for {device_id!r}")
        return VerifierSession(
            self.registry.get(device_id), agent, agent.link,
            max_attempts=self.max_attempts,
            policy=self.policy if self.verify_traces else None,
            events=self.registry.events, campaign=campaign)

    # ---- fleet operations ------------------------------------------------

    def attest_sweep(self, device_ids: Optional[Sequence[str]] = None
                     ) -> Iterator[Tuple[str, AttestResult]]:
        """Attest each device in order, yielding ``(id, result)``.

        Each attest consumed a challenge nonce (and may have
        quarantined), so its record is saved before the result is
        yielded -- a restart cannot reissue the nonce, which is the
        replay defence.  The sweep flushes once, when it ends or its
        consumer abandons it: one durability point per sweep.
        """
        registry = self.registry
        ids = device_ids if device_ids is not None else registry.ids()
        try:
            for device_id in ids:
                result = self.session(device_id).attest()
                registry.save(registry.get(device_id))
                yield device_id, result
        finally:
            registry.flush()

    def attest_all(self, device_ids: Optional[Sequence[str]] = None
                   ) -> Dict[str, AttestResult]:
        """One heartbeat sweep (see :meth:`attest_sweep`)."""
        return dict(self.attest_sweep(device_ids))

    def run_all(self, max_cycles=2_000):
        """Let every device execute its resident app for a while."""
        for device in self.devices.values():
            device.run_steps(max_cycles, max_cycles=max_cycles,
                             stop_on_done=True)
            device.park()

    def adversarial_ids(self, fraction: float, phase=0.5) -> List[str]:
        """An evenly spread *fraction* of the fleet (deterministic).

        Even spreading keeps every wave's bad-device share equal to the
        global fraction, so threshold semantics are exact in tests.
        """
        ids = self.registry.manageable_ids()  # the ids campaigns offer to
        count = round(len(ids) * fraction)
        if count <= 0:
            return []
        stride = len(ids) / count
        return [ids[min(len(ids) - 1, int((index + phase) * stride))]
                for index in range(count)]

    def rollout(self, version: int, payload: Optional[bytes] = None,
                config: Optional[CampaignConfig] = None,
                tamper_fraction=0.0, rollback_fraction=0.0,
                resume: bool = False,
                device_ids: Optional[Sequence[str]] = None,
                stop=None) -> CampaignReport:
        """Run one staged campaign across the manageable fleet.

        *resume* skips devices whose (durable) record already shows
        *version* -- the continuation path after a killed campaign.
        With ``config.backend == "process"`` the waves execute on a
        process pool (see :func:`_run_shard`).  *device_ids* targets a
        subset instead of every manageable device.  *stop* is a
        cooperative stop signal (``threading.Event``-like) the campaign
        checks at wave boundaries -- the serve daemon's graceful
        shutdown path; a stopped campaign resumes with ``resume=True``.
        """
        check_target_version(version)
        config = config or CampaignConfig()
        payload = payload if payload is not None else default_payload(version)
        tamper_ids = self.adversarial_ids(tamper_fraction, phase=0.25)
        rollback_ids = [device_id
                        for device_id in self.adversarial_ids(
                            rollback_fraction, phase=0.75)
                        if device_id not in set(tamper_ids)]
        # Record the campaign's clean package in the fleet meta before
        # any offer goes out: a restarted process replays it onto
        # restored replicas so their PMEM (and hash) match the devices
        # that really applied it.  The version -> payload binding is
        # immutable -- re-offering a version number with different
        # bytes would corrupt the replay data for devices that already
        # applied the original (and real updaters bind version to
        # image immutably anyway).
        packages = self.registry.meta.setdefault(META_PACKAGES, {})
        package_doc = {"target": UPDATE_TARGET, "payload": payload.hex()}
        existing = packages.get(str(version))
        if existing is not None and existing != package_doc:
            raise FleetError(
                f"version {version} was already rolled out with a "
                f"different payload; resume with the original payload")
        packages[str(version)] = package_doc
        self.registry.flush()
        shard_task = None
        if config.backend == "process":
            shard_task = (_run_shard, {
                "firmware": self.firmware.to_dict(),
                "security": self.security,
                "loss": self.loss,
                "reorder": self.reorder,
                "seed": self.seed,
                "max_attempts": self.max_attempts,
                "version": version,
                "payload": payload.hex(),
                "tamper_ids": sorted(tamper_ids),
                "rollback_ids": sorted(rollback_ids),
                # Workers mirror the parent's metrics switch: a fleet
                # run with METRICS disabled must not pay for worker-
                # side span recording either.
                "metrics": METRICS.enabled,
            })
        campaign = RolloutCampaign(
            self.registry,
            session_factory=self.session,
            package_factory=package_factory(
                version, payload, tamper_ids, rollback_ids),
            target_version=version,
            config=config,
            shard_task=shard_task,
            # Ship mutated replicas' full snapshots with their
            # records: workers restore the actual device state --
            # firmware corruption, forged trace rings and all --
            # instead of rebuilding an honest device (which quietly
            # *undid* fault hooks on the process backend).  Honest
            # replicas keep the cheap record-only rebuild.
            snapshot_factory=(self._replica_snapshot
                              if config.backend == "process" else None),
            # Per wave, not post-run: verify_after_wave must attest
            # the synced replicas, and a halt must leave the applied
            # waves' replicas consistent.
            post_wave_merge=(
                (lambda: self._sync_replicas(version, payload))
                if config.backend == "process" else None),
            stop=stop,
        )
        return campaign.run(device_ids=device_ids, resume=resume)

    def _replica_snapshot(self, device_id: str) -> Optional[dict]:
        """The live replica's snapshot wire dict, or None for the
        honest record-only rebuild.

        A snapshot ships only when the replica is known-mutated (see
        :meth:`mark_mutated`); unknown replicas (a record without a
        live device) always fall back."""
        device = self.devices.get(device_id)
        if device is None or device_id not in self._mutated:
            return None
        snapshot = device.snapshot().to_dict()
        device.park()
        return snapshot

    def _sync_replicas(self, version: int, payload: bytes):
        """Fast-forward parent replicas after a process-backend wave.

        The authoritative apply (MAC check, monotonic version, ROM
        copy on the simulated CPU) ran on the worker's rebuilt device;
        mirror only its version counter and the payload bytes in PMEM
        onto the parent's replica, so later attests and campaigns in
        this process see the updated image.  The replica keeps its own
        cycle, registers, RAM, peripherals, trace and update history,
        unlike a serial campaign's (README "Sharded campaigns").
        """
        for record in self.registry:
            device = self.devices.get(record.device_id)
            if device is None:
                continue
            if (record.firmware_version == version
                    and device.update_engine.current_version < version):
                device.update_engine.current_version = version
                device.unpark()
                device.bus.load_bytes(UPDATE_TARGET, payload)
                device.park()

    # ---- fault injection -------------------------------------------------

    def mark_mutated(self, device_id: str):
        """Flag a replica whose state campaigns must ship verbatim.

        The built-in fault hooks below call this themselves; external
        code that mutates a device directly (fault campaigns, tests)
        calls it so process-backend workers restore the true state
        instead of rebuilding an honest device from the record."""
        self._mutated.add(device_id)

    def forge_trace(self, device_id: str, src=0xE000, dst=0xE000, kind="jump"):
        """Fabricate a trace edge on one device without digest folding.

        Models a compromised device OS (or in-path attacker) inventing
        control-flow evidence.  The edge window no longer folds to the
        MAC'd digest, so the next trace-verifying attest quarantines
        the device with ``trace-forged``.
        """
        self.devices[device_id].trace.inject_edge(src, dst, kind)
        self.mark_mutated(device_id)

    def corrupt_firmware(self, device_id: str, max_cycles=2_000):
        """Flip the first word of the resident app and run into the fault."""
        device = self.devices[device_id]
        device.unpark()
        main = device.symbol("main")
        device.bus.load_bytes(main, b"\x00\x00")  # illegal opcode
        self.mark_mutated(device_id)
        device.hard_reset()
        device.run(max_cycles=max_cycles, stop_on_done=False)
        device.park()

    # ---- reporting -------------------------------------------------------

    def observed(self) -> dict:
        """What the verifier observed since this fleet opened its event
        log (:meth:`~repro.obs.events.EventLog.fleet_rollup`)."""
        return self.events.fleet_rollup(since=self._opened_seq)

    def status(self) -> str:
        """The registry's states and versions, then :meth:`observed`,
        rendered with the paper tables' helpers."""
        observed = self.observed()
        summary = self.registry.summary()
        blocks = [render_table(
            ("state", "devices"), sorted(summary["states"].items()),
            title=f"fleet of {summary['devices']} devices")]
        versions = sorted(summary["versions"].items())
        if versions:
            blocks.append(render_bars(
                [f"v{version}" for version, _ in versions],
                [count for _, count in versions], title="firmware versions"))
        if observed["update_statuses"]:
            blocks.append(render_table(
                ("update status", "count"),
                sorted(observed["update_statuses"].items()),
                title="update outcomes"))
        if observed["attest_outcomes"]:
            blocks.append(render_table(
                ("attest outcome", "count"),
                sorted(observed["attest_outcomes"].items()),
                title=f"attestations ({observed['attestations']})"))
        if observed["violations"]:
            reasons = sorted(observed["violations"].items())
            blocks.append(render_bars(
                [reason for reason, _ in reasons],
                [count for _, count in reasons],
                title="monitor violations by reason"))
        malformed = observed["malformed_totals"]
        if malformed:
            blocks.append(f"{malformed} malformed violation-total "
                          f"entr{'y' if malformed == 1 else 'ies'} "
                          f"dropped (defensive parse)")
        return "\n\n".join(blocks)


# ---- process-backend shard worker ------------------------------------------


def _run_shard(context: dict, record_docs: List[dict]) -> dict:
    """Run one batch of update conversations in a worker process.

    The campaign pickles this function plus a static *context* (fleet
    shape + campaign package) and per-batch ``record_to_dict``
    snapshots.  The worker rebuilds each device from the shared
    FirmwareSpec (``build_firmware`` is lru-cached, so the image builds
    once per worker process), fast-forwards its monotonic version
    counter from the record, recreates its deterministic link from the
    fleet seed + device id, and drives the full authenticated offer
    conversation -- ROM copy on the simulated CPU included -- with the
    serial backend's :func:`package_factory`.

    The return document has two halves: ``outcomes`` carries each
    offered record (``record_to_dict``) and its offer's status,
    attempts and detail for the parent to adopt, and ``metrics``
    carries this batch's worker-side ``MetricsRegistry.snapshot()`` --
    interpreter counters, per-offer spans under a ``campaign.shard``
    root -- which the parent folds in re-rooted under the wave's span.
    The worker registry resets at batch start so reused pool processes
    report per-batch deltas, not lifetime totals.
    """
    spec = FirmwareSpec.from_dict(context["firmware"])
    program = build_firmware(spec).program
    transport = Transport(loss=context["loss"], reorder=context["reorder"],
                          seed=context["seed"])
    make_package = package_factory(
        context["version"], bytes.fromhex(context["payload"]),
        context["tamper_ids"], context["rollback_ids"])
    METRICS.enable(context.get("metrics", True))
    METRICS.reset()
    outcomes = []
    with METRICS.span("campaign.shard"):
        for doc in record_docs:
            record = record_from_dict(doc)
            device = build_device(program, security=context["security"],
                                  update_key=record.key)
            snapshot_doc = doc.get("device")
            if snapshot_doc is not None:
                # The parent shipped the replica's full state: restore
                # it verbatim (adversarial mutations included).
                device.restore(snapshot_doc)
            else:
                # Legacy/headless path: honest rebuild from the record.
                device.update_engine.current_version = record.firmware_version
            link = transport.link(record.device_id)
            agent = DeviceAgent(record.device_id, device, link)
            session = VerifierSession(record, agent, link,
                                      max_attempts=context["max_attempts"])
            # Same span name as the serial backend's offers, so the
            # merged histogram totals are backend-independent.
            with METRICS.span("campaign.offer"):
                offer = session.offer_update(make_package(record))
            outcomes.append({
                "record": record_to_dict(record),
                "status": offer.status.value if offer.status else None,
                "attempts": offer.attempts,
                "detail": offer.detail,
            })
    return {"outcomes": outcomes, "metrics": METRICS.snapshot()}
