"""Simulated verifier<->device network.

A :class:`SimChannel` is one direction of a device's link: a FIFO that
can drop and reorder messages under a deterministic per-channel RNG, so
every fleet run is reproducible from its seed.  A :class:`Link` pairs a
downlink (verifier -> device) with an uplink (device -> verifier), and
:class:`Transport` hands out one link per device id, each seeded from
the fleet seed + the id -- independent links can then be driven from
independent campaign workers without sharing any mutable state.

Nothing here authenticates anything: integrity lives one layer up in
:mod:`repro.fleet.protocol` (and ultimately in the device's own
MAC/version check), exactly because the channel is untrusted.
"""

import random
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class Envelope:
    """One message in flight.  *body* is an opaque payload object."""

    seq: int
    src: str
    dst: str
    kind: str
    body: object

    def __str__(self):
        return f"#{self.seq} {self.src}->{self.dst} {self.kind}"


@dataclass
class ChannelStats:
    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    reordered: int = 0

    def merge(self, other: "ChannelStats"):
        self.sent += other.sent
        self.delivered += other.delivered
        self.dropped += other.dropped
        self.reordered += other.reordered


def _check_probability(name, value):
    # The closed interval: loss=1.0 models a fully partitioned channel
    # (every message dropped), which fleet tests use to assert that an
    # unreachable population degrades cleanly instead of corrupting
    # verifier state.
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1]")


class SimChannel:
    """One direction of a link: lossy, reordering, deterministic."""

    def __init__(self, loss=0.0, reorder=0.0, seed=0):
        _check_probability("loss", loss)
        _check_probability("reorder", reorder)
        self.loss = loss
        self.reorder = reorder
        # Seeded on first draw (see _random): a lossless channel never
        # draws, so it never holds an RNG.
        self._seed = seed
        self._rng: Optional[random.Random] = None
        self._queue: List[Envelope] = []
        self._seq = 0
        self.stats = ChannelStats()

    def send(self, src, dst, kind, body) -> Optional[Envelope]:
        """Queue a message; returns the envelope, or None if dropped."""
        self._seq += 1
        envelope = Envelope(self._seq, src, dst, kind, body)
        self.stats.sent += 1
        if self.loss and self._random().random() < self.loss:
            self.stats.dropped += 1
            return None
        if self._queue and self.reorder and self._random().random() < self.reorder:
            slot = self._rng.randrange(len(self._queue))
            self._queue.insert(slot, envelope)
            self.stats.reordered += 1
        else:
            self._queue.append(envelope)
        return envelope

    def _random(self) -> random.Random:
        """The channel's RNG, made from its seed the first time a draw
        needs it -- also when ``loss`` or ``reorder`` is raised after
        construction -- so it draws what one made eagerly would."""
        if self._rng is None:
            self._rng = random.Random(self._seed)
        return self._rng

    def drain(self) -> List[Envelope]:
        """Deliver everything currently in flight."""
        out, self._queue = self._queue, []
        self.stats.delivered += len(out)
        return out

    def __len__(self):
        return len(self._queue)


@dataclass
class Link:
    """Both directions of one device's connection to the verifier."""

    device_id: str
    down: SimChannel  # verifier -> device
    up: SimChannel  # device -> verifier

    def stats(self) -> ChannelStats:
        merged = ChannelStats()
        merged.merge(self.down.stats)
        merged.merge(self.up.stats)
        return merged


class Transport:
    """Per-device links, lazily created, independently seeded.

    Each link's RNG seed mixes the fleet seed with the device id, so a
    single device's delivery schedule is stable regardless of how many
    other devices exist or in what order they communicate -- the
    property that lets campaign workers run links in parallel.
    """

    def __init__(self, loss=0.0, reorder=0.0, seed=0):
        _check_probability("loss", loss)
        _check_probability("reorder", reorder)
        self.loss = loss
        self.reorder = reorder
        self.seed = seed
        self._links: Dict[str, Link] = {}

    def link(self, device_id: str) -> Link:
        link = self._links.get(device_id)
        if link is None:
            salt = zlib.crc32(device_id.encode())
            link = Link(
                device_id,
                down=SimChannel(self.loss, self.reorder, seed=self.seed ^ salt),
                up=SimChannel(self.loss, self.reorder, seed=(self.seed ^ salt) + 1),
            )
            self._links[device_id] = link
        return link

    def stats(self) -> ChannelStats:
        """Aggregate channel counters across every link."""
        merged = ChannelStats()
        for link in self._links.values():
            merged.merge(link.stats())
        return merged
