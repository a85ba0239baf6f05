"""CASU authenticated software update.

CASU's only path to modify PMEM is an authenticated update: the verifier
signs (new image, version) with a key shared with the device ROM; the
device checks the MAC and monotonic version, then the ROM update routine
copies the staged image into PMEM while the hardware monitor's update
session is open.  Any other PMEM write resets the device.

Substitution note (see DESIGN.md): the MAC check runs in Python (the
real CASU runs HACL* HMAC inside the ROM); the *copy* runs on the
simulated CPU executing the real ROM copy routine, so the monitor's
update-session gating is exercised for real on both the allowed and the
denied paths.
"""

import enum
import hashlib
import hmac
from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import UpdateError
from repro.snapshot import state_int, state_rows

STAGING_HEADER_WORDS = 3  # dst, length(words), reserved


@dataclass(frozen=True)
class UpdateKey:
    """Symmetric device key (shared with the verifier)."""

    secret: bytes

    @staticmethod
    def derive(device_id: str):
        return UpdateKey(hashlib.sha256(f"casu-key:{device_id}".encode()).digest())


@dataclass(frozen=True)
class UpdatePackage:
    """A signed update: target address, payload, version, MAC."""

    target: int
    payload: bytes
    version: int
    mac: bytes

    def message(self):
        header = self.target.to_bytes(2, "little") + self.version.to_bytes(4, "little")
        return header + self.payload

    @staticmethod
    def make(key: UpdateKey, target: int, payload: bytes, version: int):
        if len(payload) % 2:
            raise UpdateError("payload must be word-aligned")
        pkg = UpdatePackage(target, payload, version, b"")
        mac = hmac.new(key.secret, pkg.message(), hashlib.sha256).digest()
        return UpdatePackage(target, payload, version, mac)

    def tampered(self, offset=0, flip=0x01):
        """A copy with one payload byte flipped (for negative tests)."""
        mutated = bytearray(self.payload)
        mutated[offset] ^= flip
        return UpdatePackage(self.target, bytes(mutated), self.version, self.mac)


class UpdateStatus(enum.Enum):
    APPLIED = "applied"
    BAD_MAC = "rejected-bad-mac"
    STALE_VERSION = "rejected-stale-version"
    COPY_FAILED = "copy-failed"

    @property
    def rejected(self):
        """True for the ROM-check rejections (MAC or monotonic version)."""
        return self in (UpdateStatus.BAD_MAC, UpdateStatus.STALE_VERSION)


@dataclass
class UpdateResult:
    status: UpdateStatus
    detail: str = ""

    @property
    def ok(self):
        return self.status is UpdateStatus.APPLIED


# How many offers ``UpdateEngine.history`` keeps, newest last: one
# verdict per offer would otherwise grow every long-lived fleet replica
# by one entry per rollout.  Nothing but the snapshot reads it.
HISTORY_LIMIT = 8


class UpdateEngine:
    """Device-side update logic (ROM crypto modelled natively)."""

    def __init__(self, key: UpdateKey):
        self.key = key
        self.current_version = 0
        # (version, status) of the last HISTORY_LIMIT offers.
        self.history: List[Tuple[int, UpdateStatus]] = []

    def verify(self, package: UpdatePackage) -> UpdateResult:
        expected = hmac.new(self.key.secret, package.message(), hashlib.sha256).digest()
        if not hmac.compare_digest(expected, package.mac):
            result = UpdateResult(UpdateStatus.BAD_MAC)
        elif package.version <= self.current_version:
            result = UpdateResult(
                UpdateStatus.STALE_VERSION,
                f"version {package.version} <= {self.current_version}",
            )
        else:
            result = UpdateResult(UpdateStatus.APPLIED)
        self.history.append((package.version, result.status))
        if len(self.history) > HISTORY_LIMIT:
            del self.history[0]
        return result

    def accept(self, package: UpdatePackage):
        """Advance the monotonic version after a successful apply."""
        self.current_version = package.version

    # ---- snapshot/restore (see repro.snapshot) ---------------------------

    def snapshot_state(self):
        return {
            "current_version": self.current_version,
            "history": [[version, status.value]
                        for version, status in self.history],
        }

    def restore_state(self, state):
        self.current_version = state_int(state, "current_version")
        statuses = [status.value for status in UpdateStatus]
        rows = state_rows(state, "history", int, statuses)
        if len(rows) > HISTORY_LIMIT:
            raise ValueError(f"field 'history' holds {len(rows)} offers, "
                             f"more than the {HISTORY_LIMIT} kept")
        self.history = [(version, UpdateStatus(value))
                        for version, value in rows]
