"""Staged-rollout engine: waves, failure thresholds, automatic halt.

A campaign pushes one target firmware version across the manageable
part of the fleet in expanding waves (canary -> broader -> everyone).
Each device's update conversation (offer -> device-side MAC/version
check -> ack) runs end to end, including the simulated ROM copy on
the device CPU, so "devices per second" here is the real cost of the
whole authenticated path.

The wave offers to its live Device objects one after another on the
calling thread, where a profile (or the layer ledger) can attribute
the time layer by layer.

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
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.api.spec import check_field_types, require
from repro.casu.update import UpdatePackage, UpdateStatus
from repro.eval.report import render_table
from repro.fleet.protocol import OfferResult, VerifierSession
from repro.fleet.registry import DeviceRecord, FleetRegistry, Lifecycle
from repro.obs.metrics import METRICS

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
    # Post-wave verification: attest every device the wave updated
    # before moving on.  With a trace-verifying session this is where
    # forged or non-replaying branch traces quarantine a device; the
    # failures count toward the wave's halt threshold.
    verify_after_wave: bool = False
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
        require(self.metrics_dump != "", "metrics_dump",
                "must be a non-empty path string")

    @property
    def effective_workers(self) -> int:
        """Processes a campaign runs on: one, since every offer runs on
        the caller's thread (a benchmark's load-cap check reads it)."""
        return 1


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
                + f"; {self.devices_per_sec:.0f} devices/sec")
        return table + "\n" + tail


class RolloutCampaign:
    """Drive one staged rollout over a registry's manageable devices.

    Decoupled from the simulation: all it needs is the registry, a
    ``session_factory(device_id, campaign) -> VerifierSession`` that
    builds one session per exchange, tagged with the campaign id, and a
    ``package_factory(record) -> UpdatePackage`` (per-device, because
    packages are MAC'd under per-device keys -- and because tests and
    demos model a man-in-the-middle by tampering some devices' copies).
    """

    def __init__(self, registry: FleetRegistry,
                 session_factory: Callable[[str, Optional[str]],
                                           VerifierSession],
                 package_factory: Callable[[DeviceRecord], UpdatePackage],
                 target_version: int,
                 config: Optional[CampaignConfig] = None,
                 stop=None):
        self.registry = registry
        self.session_factory = session_factory
        self.package_factory = package_factory
        self.target_version = target_version
        self.config = config or CampaignConfig()
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
        events = self.registry.events
        started = time.perf_counter()
        if not ids:
            return CampaignReport(CampaignStatus.EMPTY, self.target_version,
                                  [], 0, 0, 0, 0.0, resumed=resumed)
        if events is not None:
            self._campaign_id = events.start_campaign(
                target_version=self.target_version, planned=len(ids),
                resumed=resumed)
        waves = self.plan_waves(ids)
        results: List[WaveResult] = []
        applied = failed = offered = 0
        status, halt_reason = CampaignStatus.COMPLETE, ""
        with METRICS.span("campaign.run"):
            for index, wave in enumerate(waves, start=1):
                if self.stop is not None and self.stop.is_set():
                    status = CampaignStatus.STOPPED
                    halt_reason = (f"stop requested before wave {index} "
                                   f"(resume to finish)")
                    break
                wave_result = self._run_wave(index, wave)
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

    def _run_wave(self, index: int, wave: List[str]) -> WaveResult:
        # The wave span parents every offer/attest span below it, through
        # this thread's span stack.
        with METRICS.span("campaign.wave"):
            # Mark the wave in flight, remembering each device's prior
            # state so a failed offer rolls back to what the device
            # actually was (ENROLLED devices must not surface as ACTIVE
            # just because the channel ate their offer).
            prior = {}
            for device_id in wave:
                record = self.registry.get(device_id)
                prior[device_id] = record.state
                record.state = Lifecycle.UPDATING
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
        """One device's update conversation, end to end."""
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
                # on the record): the package or the link is
                # compromised, hands off.
                if (record.state is not Lifecycle.QUARANTINED
                        and events is not None):
                    # Session-detected verdicts were already logged at
                    # detection; this covers the device-side BAD_MAC
                    # rejection, which only the engine sees.
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
