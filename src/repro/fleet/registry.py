"""Device registry: the verifier's durable view of the fleet.

One :class:`DeviceRecord` per enrolled device: the provisioned
per-device update key (``UpdateKey.derive``), the platform it claims,
its security level, the firmware version/hash last attested, the
freshness counters the replay defences depend on (``nonce_high_water``
-- the highest challenge nonce ever issued to the device, never reused
-- and monotonic ``last_seen``), and a lifecycle state.  The registry
never talks to a device itself -- the protocol layer reads keys from
it and writes observations back, so the registry stays a plain data
structure.

Persistence is delegated: construct with a
:class:`~repro.fleet.store.RegistryStore` and the registry loads its
records from it, ``save()`` upserts one record's document, and
``flush()`` commits a durability point (plus the fleet-level *meta*
document: the logical clock and the applied-package log).  Without a
store the registry behaves exactly as before -- plain dicts, no I/O.

Lifecycle:

    ENROLLED --attest--> ACTIVE --offer--> UPDATING --ack--> ACTIVE
                           |                            (or back, on a
                           +--bad MAC / hash mismatch--> QUARANTINED

No code path retires a device; ``Lifecycle.RETIRED`` stays so that
stored records naming it still load.
"""

import enum
import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.casu.update import UpdateKey
from repro.device import SECURITY_LEVELS
from repro.errors import ReproError


class FleetError(ReproError):
    """Registry/protocol/campaign-level failure."""


class Lifecycle(enum.Enum):
    ENROLLED = "enrolled"  # key provisioned, no attestation seen yet
    ACTIVE = "active"  # attested and healthy
    UPDATING = "updating"  # an update offer is in flight
    QUARANTINED = "quarantined"  # integrity evidence failed; hands off
    RETIRED = "retired"  # operator removed it from the fleet

    @property
    def manageable(self):
        """States that may receive update offers."""
        return self in (Lifecycle.ENROLLED, Lifecycle.ACTIVE)


@dataclass
class DeviceRecord:
    device_id: str
    key: UpdateKey
    platform: str
    security: str
    state: Lifecycle = Lifecycle.ENROLLED
    firmware_version: int = 0
    firmware_hash: Optional[str] = None  # golden hash from enrollment
    enrolled_at: int = 0  # registry logical time
    # Monotonic device-local time of the newest accepted report; a
    # verified report whose cycle is below this is replayed/stale
    # evidence and quarantines the device instead of rolling it back.
    last_seen: Optional[int] = None
    attest_count: int = 0
    reset_count: int = 0
    update_failures: int = 0
    # Challenge-nonce high-water mark.  Every verifier exchange draws
    # the next nonce from here and the value persists with the record,
    # so nonces stay strictly increasing across sessions, CLI
    # invocations and process restarts -- a captured reply from an
    # earlier run can never match a later challenge.
    nonce_high_water: int = 0
    # The exact sequence of update versions this device applied, in
    # order.  Devices that skip a version (enrolled mid-campaign,
    # resumed rollouts) have different PMEM from devices that walked
    # every step; replaying this sequence is what lets a restored
    # replica hash identically to the real device.
    applied_versions: List[int] = field(default_factory=list)
    # Cumulative per-reason violation totals from the last MAC-verified
    # report; with reset_count, the one baseline an attest folds the
    # next report's violation and reset deltas against.  Being durable,
    # it keeps a restarted verifier from re-counting a device's history.
    violation_totals: Dict[str, int] = field(default_factory=dict)

    @property
    def violation_count(self) -> int:
        """The device's violation count: the sum of its totals, never
        stored apart from them."""
        return sum(self.violation_totals.values())

    @property
    def enrolled_ok(self) -> bool:
        """Did the enrollment handshake ever complete?

        The golden hash alone is not the signal: an applied update
        clears it pending re-attestation, so a freshly restored
        post-rollout record legitimately has no pinned hash.
        """
        return (self.firmware_hash is not None
                or self.attest_count > 0
                or self.firmware_version > 0)

    def observe_cycle(self, cycle: int):
        """Advance last_seen monotonically (never backwards)."""
        if self.last_seen is None or cycle > self.last_seen:
            self.last_seen = cycle

    def __str__(self):
        return (f"{self.device_id} [{self.state.value}] "
                f"v{self.firmware_version} {self.platform}")


# Added to every record's nonce high-water mark when loading from a
# store.  Saves between durability points (a SQLite commit, an fsync)
# can be lost to a kill, and a lost nonce advance would let the next
# run reissue a challenge an attacker already holds the reply to.  The
# uncommitted window is a handful of exchanges per device (sweeps and
# waves flush at their end); skipping 1000 nonces forward on every
# restart clears it with enormous margin -- nonces are 64-bit and only
# ever need to increase.
NONCE_RESTART_SLACK = 1000

# The platform every enrolled device claims.
PLATFORM = "TI MSP430"


class FleetRegistry:
    """Registry keyed by device id; optionally backed by a store.

    *store* is any :class:`~repro.fleet.store.RegistryStore` (duck
    typed -- the registry never imports the store module).  When given,
    existing records and the meta document are loaded at construction
    and every mutation through the registry's own API persists; direct
    record mutation (the protocol layer does this) persists at the next
    explicit :meth:`save`.
    """

    def __init__(self, store=None, events=None):
        self._records: Dict[str, DeviceRecord] = {}
        self.clock = 0  # logical time, bumped by tick()
        self._store = store
        # Optional repro.obs.events.EventLog (duck typed, like the
        # store).  The registry is the layer whose flush() defines the
        # fleet's durability points, so it co-flushes the event log:
        # anything emitted before a registry flush survives a kill.
        self.events = events
        self.meta: Dict[str, object] = {}
        # The meta document as last saved (sorted JSON), so a flush
        # re-saves it only when it changed.
        self._saved_meta: Optional[str] = None
        if store is not None:
            from repro.fleet.store import check_meta, record_from_dict

            self.meta = check_meta(store.load_meta())
            self._saved_meta = json.dumps(self.meta, sort_keys=True)
            self.clock = self.meta.get("clock", 0)
            for device_id, doc in sorted(store.load_records().items()):
                record = record_from_dict(doc)
                # Reserve past any nonce a killed run may have consumed
                # after its last durability point (see the constant).
                record.nonce_high_water += NONCE_RESTART_SLACK
                self._records[device_id] = record
            if self._records:
                # Write-ahead: commit the reservation BEFORE any
                # challenge is issued, so a second crash cannot replay
                # this restart's nonce base either.
                self.save_all()
                self.flush()

    @property
    def store(self):
        return self._store

    @property
    def durable(self) -> bool:
        return self._store is not None

    def tick(self) -> int:
        self.clock += 1
        return self.clock

    # ---- persistence -----------------------------------------------------

    def save(self, record: DeviceRecord):
        """Upsert one record's document into the store (no-op without)."""
        if self._store is not None:
            from repro.fleet.store import record_to_dict

            self._store.save_record(record_to_dict(record))

    def save_all(self):
        for record in self:
            self.save(record)

    def flush(self):
        """Persist meta + commit: everything saved so far is durable.

        The meta document is saved only when it differs from the copy
        last saved (enrollment ticks the clock, a rollout logs its
        package; attests change neither), and the store's ``flush()``
        syncs only what was written since its last one.  The event log
        shares the durability point: events emitted up to here survive
        exactly when the records they describe do.
        """
        if self._store is not None:
            self.meta["clock"] = self.clock
            meta = json.dumps(self.meta, sort_keys=True)
            if meta != self._saved_meta:
                self._store.save_meta(self.meta)
                self._saved_meta = meta
            self._store.flush()
        if self.events is not None:
            self.events.flush()

    # ---- enrollment ------------------------------------------------------

    def enroll(self, device_id: str, security="casu") -> DeviceRecord:
        if device_id in self._records:
            raise FleetError(f"device {device_id!r} already enrolled")
        if security not in SECURITY_LEVELS:
            raise FleetError(f"security must be one of {SECURITY_LEVELS}")
        record = DeviceRecord(
            device_id=device_id,
            key=UpdateKey.derive(device_id),
            platform=PLATFORM,
            security=security,
            enrolled_at=self.tick(),
        )
        self._records[device_id] = record
        self.save(record)
        if self.events is not None:
            self.events.emit("enroll", device=device_id,
                             platform=PLATFORM, security=security)
        return record

    # ---- lookup ----------------------------------------------------------

    def get(self, device_id: str) -> DeviceRecord:
        try:
            return self._records[device_id]
        except KeyError:
            raise FleetError(f"device {device_id!r} is not enrolled") from None

    def __contains__(self, device_id):
        return device_id in self._records

    def __len__(self):
        return len(self._records)

    def __iter__(self) -> Iterator[DeviceRecord]:
        return iter(self._records.values())

    def ids(self) -> List[str]:
        return list(self._records)

    def by_state(self, state: Lifecycle) -> List[DeviceRecord]:
        return [r for r in self if r.state is state]

    def manageable_ids(self) -> List[str]:
        return [r.device_id for r in self if r.state.manageable]

    # ---- state transitions ----------------------------------------------

    def quarantine(self, device_id: str, reason: str = "operator"):
        record = self.get(device_id)
        record.state = Lifecycle.QUARANTINED
        self.save(record)
        if self.events is not None:
            self.events.emit("quarantine", device=device_id, reason=reason)

    # ---- aggregates ------------------------------------------------------

    def state_histogram(self) -> Counter:
        return Counter(r.state.value for r in self)

    def version_histogram(self) -> Counter:
        return Counter(r.firmware_version for r in self)

    def summary(self) -> dict:
        return {
            "devices": len(self),
            "states": dict(self.state_histogram()),
            "versions": dict(self.version_histogram()),
            "violations": sum(r.violation_count for r in self),
            "resets": sum(r.reset_count for r in self),
            "update_failures": sum(r.update_failures for r in self),
        }
