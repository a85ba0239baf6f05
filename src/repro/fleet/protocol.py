"""Authenticated verifier<->device protocol.

Three exchanges, all request/response over an untrusted
:class:`~repro.fleet.transport.Link`:

* **enroll**  -- the verifier challenges a freshly provisioned device;
  the reply carries the device's first attestation report, MAC'd under
  the shared per-device key, and its hash becomes the golden reference.
* **attest**  -- the heartbeat: firmware hash + monotonic version +
  the monitor's violation log, MAC'd with a verifier nonce for
  freshness.
* **update**  -- an :class:`~repro.casu.update.UpdatePackage` offer;
  the *device* decides (its ROM-modelled MAC/version check in
  ``UpdateEngine.verify``), and the ack reports the resulting status
  and current version, again MAC'd.

The channel may drop or reorder anything, so every verifier request
retries up to ``max_attempts`` and matches replies by nonce.  A lost
ack after a successful apply surfaces as a STALE_VERSION retry whose
reported version already equals the target -- the session folds that
back into "applied", the classic idempotent-update dance.

Freshness is verifier-side state, SIMPLE/RATA-style: challenge nonces
are drawn from the record's persistent ``nonce_high_water`` (strictly
increasing across sessions and process restarts -- a session owns no
nonce counter of its own), so a captured reply from an earlier run can
never match a later challenge.  A stale-nonce reply that still
authenticates under the device key is exactly such a capture being
replayed and quarantines the device, as does a verified report whose
device-local ``cycle`` runs backwards (``stale-report``) and an update
ack whose MAC fails (``bad-ack-mac`` -- distinct from the device simply
being unreachable).
"""

import enum
import hashlib
import hmac
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.casu.update import UpdateKey, UpdatePackage, UpdateStatus
from repro.cfg.trace import TraceSnapshot
from repro.eilid.trusted_sw import AttestationReport
from repro.fleet.registry import DeviceRecord, Lifecycle
from repro.fleet.transport import Link
from repro.obs.metrics import METRICS

VERIFIER_ID = "verifier"


class MsgKind(enum.Enum):
    ENROLL_REQ = "enroll-req"
    ENROLL_ACK = "enroll-ack"
    ATTEST_REQ = "attest-req"
    ATTEST_REPORT = "attest-report"
    UPDATE_OFFER = "update-offer"
    UPDATE_ACK = "update-ack"


def _mac(key: UpdateKey, tag: bytes, *parts: bytes) -> bytes:
    digest = hmac.new(key.secret, tag, hashlib.sha256)
    for part in parts:
        digest.update(len(part).to_bytes(4, "little"))
        digest.update(part)
    return digest.digest()


# ---- wire bodies -----------------------------------------------------------


@dataclass(frozen=True)
class Challenge:
    nonce: int


@dataclass(frozen=True)
class SignedReport:
    device_id: str
    nonce: int
    report: AttestationReport
    mac: bytes
    # Branch-trace evidence (repro.cfg.trace.TraceSnapshot).  NOT part
    # of the MAC: the report's trace_digest field -- which IS MAC'd --
    # binds it, so the verifier re-folds the window and compares.
    trace: Optional[object] = None

    @staticmethod
    def make(key, tag, device_id, nonce, report, trace=None):
        mac = _mac(key, tag, device_id.encode(),
                   nonce.to_bytes(8, "little"), report.message())
        return SignedReport(device_id, nonce, report, mac, trace)

    def verify(self, key, tag) -> bool:
        expected = _mac(key, tag, self.device_id.encode(),
                        self.nonce.to_bytes(8, "little"), self.report.message())
        return hmac.compare_digest(expected, self.mac)


@dataclass(frozen=True)
class UpdateOffer:
    nonce: int
    package: UpdatePackage


@dataclass(frozen=True)
class UpdateAck:
    device_id: str
    nonce: int
    status: UpdateStatus
    current_version: int
    mac: bytes

    @staticmethod
    def make(key, device_id, nonce, status, current_version):
        mac = _mac(key, b"update-ack", device_id.encode(),
                   nonce.to_bytes(8, "little"), status.value.encode(),
                   current_version.to_bytes(8, "little"))
        return UpdateAck(device_id, nonce, status, current_version, mac)

    def verify(self, key) -> bool:
        expected = _mac(key, b"update-ack", self.device_id.encode(),
                        self.nonce.to_bytes(8, "little"), self.status.value.encode(),
                        self.current_version.to_bytes(8, "little"))
        return hmac.compare_digest(expected, self.mac)


# ---- device side -----------------------------------------------------------


class DeviceAgent:
    """Device-side endpoint: owns one Device, answers its link's downlink.

    The agent is the untrusted-software shim around the device: the
    actual accept/reject decisions happen inside ``apply_update`` on
    the modelled ROM path, and the MACs use the key baked into the
    device at provisioning.  The device is parked after every message
    (see :meth:`repro.device.Device.park`): an attest answers from the
    parked device, and only an accepted offer unparks it.
    """

    def __init__(self, device_id: str, device, link: Link):
        self.device_id = device_id
        self.device = device
        self.link = link

    @property
    def key(self) -> UpdateKey:
        return self.device.update_engine.key

    def pump(self):
        """Handle every message currently deliverable on the downlink."""
        for envelope in self.link.down.drain():
            self._handle(envelope)
            self.device.park()

    def _handle(self, envelope):
        kind = MsgKind(envelope.kind)
        body = envelope.body
        if kind is MsgKind.ENROLL_REQ:
            reply = SignedReport.make(self.key, b"enroll", self.device_id,
                                      body.nonce, self.device.attestation_report(),
                                      trace=self.device.trace_snapshot())
            self._send(MsgKind.ENROLL_ACK, reply)
        elif kind is MsgKind.ATTEST_REQ:
            reply = SignedReport.make(self.key, b"attest", self.device_id,
                                      body.nonce, self.device.attestation_report(),
                                      trace=self.device.trace_snapshot())
            self._send(MsgKind.ATTEST_REPORT, reply)
        elif kind is MsgKind.UPDATE_OFFER:
            result = self.device.apply_update(body.package)
            ack = UpdateAck.make(self.key, self.device_id, body.nonce,
                                 result.status,
                                 self.device.update_engine.current_version)
            self._send(MsgKind.UPDATE_ACK, ack)

    def _send(self, kind: MsgKind, body):
        self.link.up.send(self.device_id, VERIFIER_ID, kind.value, body)


# ---- verifier side ---------------------------------------------------------


def parse_violation_totals(items) -> Tuple[Dict[str, int], int]:
    """Decode 'reason=count' cumulative totals; count malformed entries.

    Returns ``(totals, malformed)``.  The entries are MAC'd, so a
    malformed one is defensive-only -- but silently dropping it would
    hide a device-side encoder bug, so the attest event carries the
    count.
    """
    totals: Dict[str, int] = {}
    malformed = 0
    for item in items:
        reason, _, count = item.partition("=")
        try:
            totals[reason] = int(count)
        except ValueError:
            malformed += 1
    return totals, malformed


@dataclass
class AttestResult:
    ok: bool
    detail: str = ""
    report: Optional[AttestationReport] = None
    attempts: int = 0


@dataclass
class OfferResult:
    """One update offer's outcome, as the verifier saw it.

    *status* is the device-reported :class:`UpdateStatus`, or None when
    no authentic ack arrived -- *detail* then says why: the device was
    ``unreachable``, the ack carried a forged MAC (``bad-ack-mac``), or
    a captured ack from an earlier exchange was replayed (``replay``).
    The latter two quarantine the device.
    """

    status: Optional[UpdateStatus]
    attempts: int
    detail: str = ""

    @property
    def applied(self) -> bool:
        return self.status is UpdateStatus.APPLIED

    @property
    def status_label(self) -> str:
        """The status value, or why there is none: what the ``offer``
        event and a wave's status tally record."""
        if self.status is not None:
            return self.status.value
        return self.detail or "unreachable"


class VerifierSession:
    """One verifier<->device exchange: enroll, attest or update.

    A session is built for one exchange and thrown away after it.  It
    holds nothing that must outlive the exchange: freshness lives on
    the DeviceRecord (the persistent nonce high-water mark), and the
    campaign tag is fixed when the session is built, so an exchange
    outside a campaign can never inherit a finished campaign's id.
    """

    def __init__(self, record: DeviceRecord, agent: DeviceAgent, link: Link,
                 max_attempts=4, policy=None, events=None,
                 campaign: Optional[str] = None):
        self.record = record
        self.agent = agent
        self.link = link
        self.max_attempts = max_attempts
        # Optional repro.cfg.CfiPolicy: when set, attest() additionally
        # authenticates and replays the device's branch trace.
        self.policy = policy
        # Optional repro.obs.events.EventLog: attest outcomes and
        # session-detected quarantines land in the fleet's longitudinal
        # record, tagged with *campaign* when a campaign drives this
        # exchange.
        self.events = events
        self.campaign = campaign
        # Replies from _exchange whose nonce predates the current
        # challenge; one that authenticates is a replayed capture.
        self._stale_replies: List[object] = []

    # ---- plumbing --------------------------------------------------------

    def _next_nonce(self) -> int:
        """Draw the next challenge nonce from the persistent record.

        The high-water mark advances before use and is never reissued,
        across sessions or process restarts, which is the whole replay
        defence: a captured reply's nonce is below every future
        challenge.
        """
        self.record.nonce_high_water += 1
        return self.record.nonce_high_water

    def _exchange(self, kind: MsgKind, body, reply_kind: MsgKind,
                  nonce: int) -> Tuple[Optional[object], int]:
        """Send, pump the device, collect the nonce-matching reply.

        Retries over the lossy link; returns (reply_body, attempts) or
        (None, attempts) when the device stayed unreachable.  Replies
        with an older nonce are rejected (non-increasing == stale) but
        kept aside for the caller's replay check.
        """
        self._stale_replies = []
        for attempt in range(1, self.max_attempts + 1):
            self.link.down.send(VERIFIER_ID, self.record.device_id,
                                kind.value, body)
            self.agent.pump()
            for envelope in self.link.up.drain():
                if envelope.kind != reply_kind.value:
                    continue
                got = getattr(envelope.body, "nonce", None)
                if got != nonce:
                    if isinstance(got, int) and got < nonce:
                        self._stale_replies.append(envelope.body)
                    continue
                return envelope.body, attempt
        return None, self.max_attempts

    def _replay_detected(self, verify) -> bool:
        """Did a stale-nonce reply authenticate under the device key?

        An honest retransmission always carries the *current* nonce (a
        retried request repeats it), so a well-MAC'd reply bearing an
        already-consumed nonce can only be a captured message injected
        back into the channel.
        """
        for body in self._stale_replies:
            try:
                if verify(body):
                    return True
            except (AttributeError, TypeError, ValueError):
                continue  # malformed injection; not even a valid capture
        return False

    def _quarantine(self, reason: str):
        """Flip the record to QUARANTINED and log the verdict."""
        self.record.state = Lifecycle.QUARANTINED
        if self.events is not None:
            self.events.emit("quarantine", device=self.record.device_id,
                             campaign=self.campaign, reason=reason)

    # ---- exchanges -------------------------------------------------------

    def enroll(self) -> AttestResult:
        """Challenge the device; on success its hash becomes golden."""
        nonce = self._next_nonce()
        reply, attempts = self._exchange(
            MsgKind.ENROLL_REQ, Challenge(nonce), MsgKind.ENROLL_ACK, nonce)
        if reply is None:
            if self._replay_detected(
                    lambda body: body.verify(self.record.key, b"enroll")):
                self._quarantine("replay")
                return AttestResult(False, "replay", attempts=attempts)
            return AttestResult(False, "unreachable", attempts=attempts)
        if not reply.verify(self.record.key, b"enroll"):
            self._quarantine("bad-mac")
            return AttestResult(False, "bad-mac", attempts=attempts)
        self.record.firmware_hash = reply.report.firmware_hash
        self.record.firmware_version = reply.report.firmware_version
        self.record.observe_cycle(reply.report.cycle)
        return AttestResult(True, report=reply.report, attempts=attempts)

    def attest(self) -> AttestResult:
        """One heartbeat: verify the report, fold it into the record."""
        nonce = self._next_nonce()
        reply, attempts = self._exchange(
            MsgKind.ATTEST_REQ, Challenge(nonce), MsgKind.ATTEST_REPORT, nonce)
        fold = ({}, 0, 0)
        if reply is None:
            detail = "unreachable"
            if self._replay_detected(
                    lambda body: body.verify(self.record.key, b"attest")):
                detail = "replay"
                self._quarantine(detail)
            result = AttestResult(False, detail, attempts=attempts)
        elif not reply.verify(self.record.key, b"attest"):
            self._quarantine("bad-mac")
            result = AttestResult(False, "bad-mac", attempts=attempts)
        else:
            report = reply.report
            fold = self._fold_violations(report)
            problem = ("counter-rollback" if fold[0] is None
                       else self._verdict(reply))
            if problem is not None:
                self._quarantine(problem)
                result = AttestResult(False, problem, report, attempts)
            else:
                record = self.record
                record.firmware_hash = report.firmware_hash
                record.firmware_version = report.firmware_version
                record.observe_cycle(report.cycle)
                record.attest_count += 1
                if record.state in (Lifecycle.ENROLLED, Lifecycle.UPDATING):
                    record.state = Lifecycle.ACTIVE
                result = AttestResult(True, report=report, attempts=attempts)
        self._note_attest(result, *fold)
        return result

    def _fold_violations(self, report: AttestationReport
                         ) -> Tuple[Optional[Dict[str, int]], int, int]:
        """Fold a verified report's cumulative counters into the record:
        the one writer of its violation and reset counters.

        A device reports cumulative per-reason violation totals and a
        reset counter: the monitor resets the MCU on every violation,
        so only the RoT's counters keep history.  The record holds the
        last verified report's values, and the difference is what this
        heartbeat newly observed -- across verifier restarts too, since
        the record is durable.  Every MAC-verified report advances the
        record, one that a later check quarantines included.  Returns
        ``(deltas, resets, malformed)``.  Cumulative counters never go
        down, so a report whose reset count or any per-reason total (a
        reason it leaves out counts 0) is below the record's is
        evidence, not a delta: its deltas are None, and the record
        keeps its baseline.
        """
        record = self.record
        totals, malformed = parse_violation_totals(report.violation_totals)
        seen = record.violation_totals
        if (report.reset_count < record.reset_count
                or any(totals.get(reason, 0) < count
                       for reason, count in seen.items())):
            return None, 0, malformed
        deltas = {reason: count - seen.get(reason, 0)
                  for reason, count in totals.items()
                  if count > seen.get(reason, 0)}
        resets = report.reset_count - record.reset_count
        record.violation_totals = totals
        record.reset_count = report.reset_count
        return deltas, resets, malformed

    def _verdict(self, reply: SignedReport) -> Optional[str]:
        """The quarantine reason a MAC-verified report earns, or None."""
        trace_problem = self._check_trace(reply)
        if trace_problem is not None:
            return trace_problem
        report, record = reply.report, self.record
        if record.last_seen is not None and report.cycle < record.last_seen:
            # The device's logical clock only ever advances (resets
            # included), so a verified report from its past is captured
            # evidence being served back -- quarantine, never roll
            # last_seen backwards.
            return "stale-report"
        if (record.firmware_hash is not None
                and report.firmware_version == record.firmware_version
                and report.firmware_hash != record.firmware_hash):
            return "hash-mismatch"
        return None

    def _check_trace(self, reply: SignedReport) -> Optional[str]:
        """Trace attestation: authenticate the window, then replay it.

        Returns a quarantine reason or None.  The digest and counters
        in the MAC'd report bind the unauthenticated edge window: a
        window whose counters or digest differ from the report's, or
        that is not a consistent window of its own counters
        (:meth:`~repro.cfg.trace.TraceSnapshot.consistent`), is forged.
        An authentic window that does not replay over the firmware's
        recovered CFG is evidence of a control-flow hijack the
        device-side monitor missed.
        """
        if self.policy is None:
            return None
        snapshot = reply.trace
        if snapshot is None:
            return "trace-missing"
        report = reply.report
        # Every snapshot counter must match its MAC'd counterpart: a
        # stripped window (total/dropped zeroed to make an empty trace
        # fold cleanly) or an inflated `dropped` (downgrading replay to
        # lenient windowed mode) is as forged as a tampered edge.
        try:
            bound = (isinstance(snapshot, TraceSnapshot)
                     and snapshot.total == report.trace_edges
                     and snapshot.dropped == report.trace_dropped
                     and snapshot.digest_hex == report.trace_digest
                     and snapshot.consistent())
        except (TypeError, ValueError):
            bound = False  # ill-typed fields or edges: not even a window
        if not bound:
            return "trace-forged"
        from repro.cfg.replay import TraceReplayer

        verdict = TraceReplayer(self.policy).replay(snapshot, check_digest=False)
        if not verdict.ok:
            return f"trace-replay: {verdict.reason}"
        return None

    def offer_update(self, package: UpdatePackage) -> OfferResult:
        """Offer one signed package; returns an :class:`OfferResult`.

        ``status`` is None when no authentic ack arrived -- ``detail``
        distinguishes an unreachable device from an ack with a forged
        MAC (``bad-ack-mac``, quarantined: something on that link is
        fabricating protocol messages) and a replayed capture
        (``replay``, also quarantined).  Otherwise the device-reported
        UpdateStatus, with the lost-ack retry case normalised back to
        APPLIED.
        """
        version_before = self.record.firmware_version
        nonce = self._next_nonce()
        reply, attempts = self._exchange(
            MsgKind.UPDATE_OFFER, UpdateOffer(nonce, package),
            MsgKind.UPDATE_ACK, nonce)
        if reply is None:
            if self._replay_detected(
                    lambda body: body.verify(self.record.key)):
                self._quarantine("replay")
                return OfferResult(None, attempts, "replay")
            return OfferResult(None, attempts, "unreachable")
        if not reply.verify(self.record.key):
            # The ack exists but its MAC is wrong: a forged ack is
            # evidence of an attacker on the link, not of a device
            # that never answered -- quarantine instead of retrying
            # into the attacker's hands.
            self._quarantine("bad-ack-mac")
            return OfferResult(None, attempts, "bad-ack-mac")
        status = reply.status
        if (status is UpdateStatus.STALE_VERSION
                and package.version > version_before
                and reply.current_version >= package.version):
            # This offer genuinely advanced the device; the apply landed
            # on an earlier attempt whose ack the channel ate.  A true
            # rollback offer (package.version <= our last-known version)
            # never takes this branch and stays rejected.
            status = UpdateStatus.APPLIED
        if status is UpdateStatus.APPLIED:
            self.record.firmware_version = reply.current_version
            self.record.applied_versions.append(package.version)
            # The image changed, so the pinned hash is stale; drop it
            # and let the next attest re-baseline.  (Without this every
            # healthy device would "hash-mismatch" on its first
            # post-update heartbeat and quarantine the whole fleet.)
            self.record.firmware_hash = None
        return OfferResult(status, attempts)

    def _note_attest(self, result: AttestResult,
                     deltas: Optional[Dict[str, int]], resets: int,
                     malformed: int):
        """Count one attest and log it: the violations and resets the
        report newly showed (``violation-delta``), then the verdict."""
        if METRICS.enabled:
            METRICS.inc("fleet.attestations")
            if not result.ok:
                METRICS.inc("fleet.attest_failures")
            if deltas:
                METRICS.inc("fleet.violations", sum(deltas.values()))
            if malformed:
                METRICS.inc("fleet.malformed_totals", malformed)
        events = self.events
        if events is None:
            return
        device_id = self.record.device_id
        if deltas or resets:
            events.emit("violation-delta", device=device_id,
                        campaign=self.campaign, deltas=deltas, resets=resets)
        report = result.report
        events.emit(
            "attest", device=device_id, campaign=self.campaign, ok=result.ok,
            detail=result.detail, attempts=result.attempts,
            firmware_version=None if report is None
            else report.firmware_version,
            **({"malformed": malformed} if malformed else {}))
