"""Staged-rollout engine: waves, failure thresholds, automatic halt.

A campaign pushes one target firmware version across the manageable
part of the fleet in expanding waves (canary -> broader -> everyone).
Each device's update conversation (offer -> device-side MAC/version
check -> ack) runs end to end, including the simulated ROM copy on
the device CPU, so "devices per second" here is the real cost of the
whole authenticated path.

Two execution backends (``CampaignConfig.backend``):

* ``"serial"``  -- the default: the wave offers to its live Device
  objects one after another on the calling thread, where a profile
  (or the layer ledger) can attribute the time layer by layer.
* ``"process"`` -- the wave is cut into about two batches per worker
  that ship to a ``ProcessPoolExecutor``.  Each worker process
  rebuilds its shard's devices from the fleet's ``FirmwareSpec`` +
  seed and the registry-record snapshots it is handed (the store
  codec doubles as the wire format), runs the same offer the serial
  backend runs, and returns each record through the same codec; the
  parent adopts the decoded records into the registry/store.  This
  sidesteps the GIL and is the scale path for multi-10k fleets.

Campaigns are resumable: every wave's outcomes are persisted through
the registry's store (when one is attached) and flushed as a
durability point; ``run(resume=True)`` skips devices whose records
already show the target version, so a killed campaign picks up where
the last flushed wave ended without re-offering applied devices.

After every wave the engine compares the wave's failure fraction
(MAC rejections, version rollbacks, unreachable devices) against the
configured threshold.  Exceeding it HALTS the campaign: no further
wave is offered, the wave's failed devices have their UPDATING mark
rolled back (MAC failures are quarantined instead), and the report
says why.  Firmware itself never rolls back -- the device's monotonic
version check forbids it by design; rollback here is a registry-state
operation, which is all a verifier can honestly do.
"""

import enum
import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.api.spec import check_field_types, require
from repro.casu.update import UpdatePackage, UpdateStatus
from repro.eval.report import render_table
from repro.fleet.protocol import OfferResult, VerifierSession
from repro.fleet.registry import DeviceRecord, FleetRegistry, Lifecycle
from repro.fleet.store import record_from_dict, record_to_dict
from repro.obs.metrics import METRICS

CAMPAIGN_BACKENDS = ("serial", "process")
# UpdatePackage signs the target version as a 32-bit field.
MAX_TARGET_VERSION = 0xFFFF_FFFF


def check_target_version(version):
    """The campaign target rule: an integer in [1, 2**32).

    Raises :class:`~repro.api.spec.SpecError` naming ``version``,
    before anything records a package or mints a campaign for it.
    """
    require(isinstance(version, int) and not isinstance(version, bool)
            and 1 <= version <= MAX_TARGET_VERSION, "version",
            f"must be an integer in [1, {MAX_TARGET_VERSION}], "
            f"got {version!r}")


@dataclass
class CampaignConfig:
    """Knobs for one rollout, and the one home of the rollout rules.

    Every path to a campaign builds one: ``RolloutSpec.campaign_config``
    (documents, ``Session.rollout``), the daemon's ``POST /rollout`` and
    direct callers alike.  Values are type-checked against the fields'
    annotations, and a broken rule raises
    :class:`~repro.api.spec.SpecError` (a ``ValueError``) naming the
    field.
    """

    # Cumulative fleet coverage after each wave: 5% canary, then 25%,
    # then everyone.  Must be increasing and end at 1.0.
    wave_fractions: Tuple[float, ...] = (0.05, 0.25, 1.0)
    # Halt when a wave's failed fraction exceeds this.
    failure_threshold: float = 0.10
    workers: int = 0  # process pool size; 0 -> min(8, cpu count)
    # Post-wave verification: attest every device the wave updated
    # before moving on.  With a trace-verifying session this is where
    # forged or non-replaying branch traces quarantine a device; the
    # failures count toward the wave's halt threshold.
    verify_after_wave: bool = False
    # Execution backend: "serial" offers to the live devices in this
    # thread, "process" shards the wave across worker processes that
    # rebuild their devices from record snapshots (see module doc).
    backend: str = "serial"
    # Periodic observability dump: after every wave's durability
    # flush, write the process metrics snapshot to this path (atomic
    # replace; a ``.prom`` suffix picks the Prometheus text format,
    # anything else the JSON envelope).  A scraper pointed here sees
    # a long campaign progress wave by wave.
    metrics_dump: Optional[str] = None

    def __post_init__(self):
        check_field_types(self)
        fractions = self.wave_fractions = tuple(self.wave_fractions)
        require(fractions and sorted(fractions) == list(fractions),
                "wave_fractions", "must be increasing")
        require(all(0.0 < fraction <= 1.0 for fraction in fractions),
                "wave_fractions", "every wave fraction must be in (0, 1]")
        require(fractions[-1] == 1.0, "wave_fractions",
                "the final wave must cover the whole fleet (1.0)")
        require(0.0 <= self.failure_threshold <= 1.0, "failure_threshold",
                "must be in [0, 1]")
        require(self.workers >= 0, "workers", "must be >= 0 (0 = auto)")
        require(self.backend in CAMPAIGN_BACKENDS, "backend",
                f"unknown backend {self.backend!r}; "
                f"one of {', '.join(CAMPAIGN_BACKENDS)}")
        require(self.metrics_dump != "", "metrics_dump",
                "must be a non-empty path string")

    @property
    def effective_workers(self) -> int:
        return self.workers or min(8, os.cpu_count() or 1)


class CampaignStatus(enum.Enum):
    COMPLETE = "complete"
    HALTED = "halted"
    EMPTY = "empty"
    # A cooperative stop (daemon shutdown) observed at a wave boundary:
    # unlike HALTED nothing went wrong -- the flushed waves are durable
    # and ``run(resume=True)`` finishes the remainder.
    STOPPED = "stopped"


@dataclass
class WaveResult:
    index: int
    size: int
    applied: int
    failed: int
    statuses: Counter = field(default_factory=Counter)

    @property
    def failure_fraction(self):
        return self.failed / self.size if self.size else 0.0


@dataclass
class CampaignReport:
    status: CampaignStatus
    target_version: int
    waves: List[WaveResult]
    applied: int
    failed: int
    skipped: int  # devices never offered (halt before their wave)
    elapsed_s: float
    halt_reason: str = ""
    # Devices already at the target version when run(resume=True)
    # started; they are never re-offered.
    resumed: int = 0
    backend: str = "serial"

    @property
    def halted(self):
        return self.status is CampaignStatus.HALTED

    @property
    def stopped(self):
        return self.status is CampaignStatus.STOPPED

    @property
    def offered(self):
        return self.applied + self.failed

    @property
    def devices_per_sec(self):
        return self.offered / self.elapsed_s if self.elapsed_s else 0.0

    def render(self) -> str:
        rows = [
            (w.index, w.size, w.applied, w.failed,
             f"{100 * w.failure_fraction:.1f}%")
            for w in self.waves
        ]
        table = render_table(
            ("wave", "devices", "applied", "failed", "fail%"), rows,
            title=f"rollout to v{self.target_version}: {self.status.value}"
            + (f" ({self.halt_reason})" if self.halt_reason else ""))
        tail = (f"{self.applied} applied, {self.failed} failed, "
                f"{self.skipped} skipped"
                + (f", {self.resumed} resumed" if self.resumed else "")
                + f"; {self.devices_per_sec:.0f} devices/sec"
                + f" [{self.backend}]")
        return table + "\n" + tail


class RolloutCampaign:
    """Drive one staged rollout over a registry's manageable devices.

    Decoupled from the simulation: all it needs is the registry, a
    ``session_factory(device_id, campaign) -> VerifierSession`` that
    builds one session per exchange, tagged with the campaign id, and a
    ``package_factory(record) -> UpdatePackage`` (per-device, because
    packages are MAC'd under per-device keys -- and because tests and
    demos model a man-in-the-middle by tampering some devices' copies).

    The process backend additionally needs *shard_task*: a picklable
    ``(function, context)`` pair.  The campaign calls
    ``function(context, record_docs)`` in a worker process for each
    batch, where *record_docs* are ``store.record_to_dict`` snapshots
    taken just before submission; the function returns a shard
    document ``{"outcomes": [...], "metrics": snapshot}``.  Each
    outcome is ``{"record": record_to_dict(record), "status",
    "attempts", "detail"}``: the offered record, which the campaign
    decodes and adopts into the live registry (and its store) on the
    calling thread, and the :class:`OfferResult`'s fields.  The
    worker's per-batch ``MetricsRegistry.snapshot()`` folds into the
    parent registry with its spans re-rooted under the wave's span.
    """

    def __init__(self, registry: FleetRegistry,
                 session_factory: Callable[[str, Optional[str]],
                                           VerifierSession],
                 package_factory: Callable[[DeviceRecord], UpdatePackage],
                 target_version: int,
                 config: Optional[CampaignConfig] = None,
                 shard_task: Optional[Tuple[Callable, dict]] = None,
                 snapshot_factory: Optional[Callable[[str], Optional[dict]]] = None,
                 post_wave_merge: Optional[Callable[[], None]] = None,
                 stop=None):
        self.registry = registry
        self.session_factory = session_factory
        self.package_factory = package_factory
        self.target_version = target_version
        self.config = config or CampaignConfig()
        self.shard_task = shard_task
        # Process backend: ``snapshot_factory(device_id)`` returns the
        # wire dict of a full device snapshot (repro.snapshot) or None.
        # When present it rides the record doc as ``doc["device"]`` so
        # workers restore the *live* device state -- including any
        # adversarial mutation -- instead of rebuilding an honest
        # device from the record alone.
        self.snapshot_factory = snapshot_factory
        # Runs after a wave's outcomes merge, before post-wave
        # verification and the durability flush.  The simulation hooks
        # its replica sync here so verify_after_wave on the process
        # backend attests the *updated* device image, not a stale
        # parent replica (which would roll merged records back).
        self.post_wave_merge = post_wave_merge
        # Cooperative stop signal (anything with ``is_set()``, usually
        # a ``threading.Event``): checked only at wave boundaries, so a
        # stop never tears a wave -- every offered wave still reaches
        # its wave-commit event and durability flush, which is exactly
        # the state ``run(resume=True)`` continues from.
        self.stop = stop
        # Event-log campaign tag: minted from the registry's event log
        # at run() start; every offer/wave/quarantine event this
        # campaign produces carries it, which is what makes the
        # per-campaign rollups in `fleet history` possible.
        self._campaign_id: Optional[str] = None
        if self.config.backend == "process" and shard_task is None:
            raise ValueError(
                "backend='process' needs a shard_task; drive the campaign "
                "through FleetSimulation.rollout() or pass one explicitly")

    # ---- wave planning ---------------------------------------------------

    def plan_waves(self, device_ids: Sequence[str]) -> List[List[str]]:
        """Split ids into waves from the cumulative coverage fractions."""
        total = len(device_ids)
        waves, start = [], 0
        for fraction in self.config.wave_fractions:
            end = max(start + 1, round(total * fraction))
            end = min(end, total)
            if end > start:
                waves.append(list(device_ids[start:end]))
            start = end
        return waves

    # ---- execution -------------------------------------------------------

    def run(self, device_ids: Optional[Sequence[str]] = None,
            resume: bool = False) -> CampaignReport:
        ids = list(device_ids) if device_ids is not None \
            else self.registry.manageable_ids()
        resumed = 0
        if resume:
            # Devices whose durable record already shows the target
            # version were applied by an earlier (possibly killed) run
            # of this campaign; never offer them again.
            fresh = [device_id for device_id in ids
                     if self.registry.get(device_id).firmware_version
                     < self.target_version]
            resumed = len(ids) - len(fresh)
            ids = fresh
        backend = self.config.backend
        events = self.registry.events
        started = time.perf_counter()
        if not ids:
            return CampaignReport(CampaignStatus.EMPTY, self.target_version,
                                  [], 0, 0, 0, 0.0, resumed=resumed,
                                  backend=backend)
        if events is not None:
            self._campaign_id = events.start_campaign(
                target_version=self.target_version, backend=backend,
                planned=len(ids), resumed=resumed)
        waves = self.plan_waves(ids)
        results: List[WaveResult] = []
        applied = failed = offered = 0
        status, halt_reason = CampaignStatus.COMPLETE, ""
        pool = (ProcessPoolExecutor(max_workers=self.config.effective_workers)
                if backend == "process" else nullcontext())
        with METRICS.span("campaign.run"), pool:
            for index, wave in enumerate(waves, start=1):
                if self.stop is not None and self.stop.is_set():
                    status = CampaignStatus.STOPPED
                    halt_reason = (f"stop requested before wave {index} "
                                   f"(resume to finish)")
                    break
                wave_result = self._run_wave(index, wave, pool)
                results.append(wave_result)
                applied += wave_result.applied
                failed += wave_result.failed
                offered += wave_result.size
                if wave_result.failure_fraction > self.config.failure_threshold:
                    status = CampaignStatus.HALTED
                    halt_reason = (
                        f"wave {index} failure {100 * wave_result.failure_fraction:.1f}% "
                        f"> threshold {100 * self.config.failure_threshold:.1f}%")
                    break
        report = CampaignReport(
            status=status,
            target_version=self.target_version,
            waves=results,
            applied=applied,
            failed=failed,
            skipped=len(ids) - offered,
            elapsed_s=time.perf_counter() - started,
            halt_reason=halt_reason,
            resumed=resumed,
            backend=backend,
        )
        if events is not None:
            events.emit(
                "campaign-end", campaign=self._campaign_id,
                status=report.status.value, applied=report.applied,
                failed=report.failed, skipped=report.skipped,
                resumed=report.resumed, halt_reason=report.halt_reason,
                elapsed_s=round(report.elapsed_s, 6),
                devices_per_sec=round(report.devices_per_sec, 1))
            events.flush()
        return report

    def _run_wave(self, index: int, wave: List[str], pool) -> WaveResult:
        # The wave span parents every offer/attest span below it:
        # serial offers through this thread's span stack, spans
        # recorded inside worker processes by merging back re-rooted
        # onto this id (see METRICS.merge in the process branch).
        with METRICS.span("campaign.wave") as wave_span:
            return self._run_wave_inner(index, wave, pool, wave_span.id)

    def _run_wave_inner(self, index: int, wave: List[str], pool,
                        wave_span: Optional[str] = None) -> WaveResult:
        # Mark the wave in flight, remembering each device's prior
        # state so a failed offer rolls back to what the device
        # actually was (ENROLLED devices must not surface as ACTIVE
        # just because the channel ate their offer).
        prior = {}
        for device_id in wave:
            record = self.registry.get(device_id)
            prior[device_id] = record.state
            record.state = Lifecycle.UPDATING
        if self.config.backend == "process":
            from itertools import repeat

            # Shard-task submission costs real serialisation; ~2
            # batches per worker balance the load and amortise it.
            size = -(-len(wave) // (2 * self.config.effective_workers))
            func, context = self.shard_task
            payloads = [[self._shard_doc(device_id)
                         for device_id in wave[i:i + size]]
                        for i in range(0, len(wave), size)]
            outcomes: List[Tuple[str, OfferResult]] = []
            for shard_doc in pool.map(func, repeat(context), payloads):
                # The wire format's other half: the worker's per-batch
                # MetricsRegistry snapshot folds into the parent
                # registry, its spans re-rooted under this wave so both
                # backends report identical totals and one causal tree.
                METRICS.merge(shard_doc["metrics"], reroot_to=wave_span)
                outcomes.extend(self._adopt_shard_outcome(doc)
                                for doc in shard_doc["outcomes"])
        else:
            outcomes = [(device_id, self._offer(device_id))
                        for device_id in wave]
        result = WaveResult(index=index, size=len(wave), applied=0, failed=0)
        for device_id, outcome in outcomes:
            self._apply_outcome(device_id, outcome, prior.get(device_id))
            result.statuses[outcome.status_label] += 1
            if outcome.applied:
                result.applied += 1
            else:
                result.failed += 1
        if self.post_wave_merge is not None:
            self.post_wave_merge()
        if self.config.verify_after_wave:
            self._verify_wave(result, outcomes)
        # The wave-commit event rides the same durability point as the
        # records it describes: emitted before the flush, so either
        # both survive a kill or neither does.
        if self.registry.events is not None:
            self.registry.events.emit(
                "wave-commit", campaign=self._campaign_id, index=index,
                size=result.size, applied=result.applied,
                failed=result.failed, statuses=dict(result.statuses))
        # Durability point: a kill after this flush resumes from here.
        self.registry.flush()
        if self.config.metrics_dump:
            from repro.obs.export import write_snapshot

            fmt = ("prom" if self.config.metrics_dump.endswith(".prom")
                   else "json")
            write_snapshot(self.config.metrics_dump, METRICS.snapshot(),
                           fmt=fmt,
                           source=f"{self._campaign_id or 'campaign'}"
                                  f"/wave{index}")
        return result

    def _shard_doc(self, device_id: str) -> dict:
        """One record's shard wire document, plus its device snapshot.

        The record codec carries the verifier-side state; the optional
        ``device`` field carries the full device-side state so the
        worker resurrects the exact (possibly compromised) device
        rather than an honest rebuild.
        """
        doc = record_to_dict(self.registry.get(device_id))
        if self.snapshot_factory is not None:
            snapshot = self.snapshot_factory(device_id)
            if snapshot is not None:
                doc["device"] = snapshot
        return doc

    def _adopt_shard_outcome(self, doc: dict) -> Tuple[str, OfferResult]:
        """Adopt one worker-process outcome into the registry.

        The worker ran :meth:`_offer`'s exchange on its own copy of the
        record (nonce high-water, version, applied versions, golden
        hash, a quarantine on forged evidence) and shipped it back
        through the record codec; the decoded record replaces the live
        record's fields, so whatever an offer writes reaches the parent
        exactly as the serial backend would leave it.
        """
        shipped = record_from_dict(doc["record"])
        record = self.registry.get(shipped.device_id)
        # Worker sessions have no event log; the parent logs their
        # quarantine verdict (forged ack, replay) once, on the
        # transition.
        if (shipped.state is Lifecycle.QUARANTINED
                and record.state is not Lifecycle.QUARANTINED
                and self.registry.events is not None):
            self.registry.events.emit(
                "quarantine", device=record.device_id,
                campaign=self._campaign_id,
                reason=doc["detail"])
        vars(record).update(vars(shipped))
        status = UpdateStatus(doc["status"]) if doc["status"] else None
        return record.device_id, OfferResult(status, doc["attempts"],
                                             doc["detail"])

    def _verify_wave(self, result: WaveResult,
                     outcomes: List[Tuple[str, OfferResult]]):
        """Attest each applied device; demote verification failures.

        The attest runs on the calling thread, one session per device;
        a failed verification (bad MAC, hash mismatch, forged or
        non-replaying branch trace) flips the device from the wave's
        applied column into its failed column -- counted against the
        halt threshold like any other wave failure.
        """
        for device_id, outcome in outcomes:
            if not outcome.applied:
                continue
            session = self.session_factory(device_id, self._campaign_id)
            with METRICS.span("campaign.attest"):
                attest = session.attest()
            # The attest consumed a nonce (and may have quarantined);
            # persist before the wave's durability flush.
            self.registry.save(self.registry.get(device_id))
            if attest.ok:
                continue
            result.applied -= 1
            result.failed += 1
            result.statuses[f"verify:{attest.detail}"] += 1

    def _offer(self, device_id: str) -> OfferResult:
        """One device's update conversation, end to end (serial)."""
        record = self.registry.get(device_id)
        session = self.session_factory(device_id, self._campaign_id)
        package = self.package_factory(record)
        with METRICS.span("campaign.offer"):
            return session.offer_update(package)

    def _apply_outcome(self, device_id: str, outcome: OfferResult,
                       prior: Optional[Lifecycle] = None):
        """Fold one device's result back into the registry."""
        record = self.registry.get(device_id)
        if METRICS.enabled:
            METRICS.inc("fleet.updates")
            if not outcome.applied:
                METRICS.inc("fleet.update_failures")
        events = self.registry.events
        if events is not None:
            events.emit("offer", device=device_id,
                        campaign=self._campaign_id,
                        status=outcome.status_label,
                        attempts=outcome.attempts,
                        version=self.target_version)
        if outcome.applied:
            record.state = Lifecycle.ACTIVE
        else:
            record.update_failures += 1
            if (outcome.status is UpdateStatus.BAD_MAC
                    or record.state is Lifecycle.QUARANTINED):
                # The device rejected evidence signed with its own key
                # (BAD_MAC), or the session itself already quarantined
                # (forged ack MAC, replayed capture -- its verdict is
                # on the record in both backends): the package or the
                # link is compromised, hands off.
                if (record.state is not Lifecycle.QUARANTINED
                        and events is not None):
                    # Session- and worker-detected verdicts were already
                    # logged at detection; this covers the device-side
                    # BAD_MAC rejection, which only the engine sees.
                    events.emit("quarantine", device=device_id,
                                campaign=self._campaign_id,
                                reason=outcome.status_label)
                record.state = Lifecycle.QUARANTINED
            else:
                # Roll the UPDATING mark back to the pre-wave state;
                # the device keeps running its current (older but
                # authentic) firmware.
                record.state = prior or Lifecycle.ACTIVE
        self.registry.save(record)
