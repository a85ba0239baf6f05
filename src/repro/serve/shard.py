"""Consistent device-id sharding over the durable registry stores.

One verifier daemon fronting a large fleet should not funnel every
record write through one file: :class:`ShardedStore` splits the
registry across N :class:`~repro.fleet.store.RegistryStore` backends
(any mix of the existing JSONL/SQLite/memory ones) behind a
consistent-hash router, while presenting the exact single-store
contract the registry already talks to -- ``FleetRegistry`` and
``FleetSimulation`` take a ``ShardedStore`` where they took a path.

Routing is a classic hash ring with virtual nodes
(:class:`ShardRouter`): each shard owns ``VNODES`` points on a 64-bit
ring keyed by SHA-256, a device id maps to the first point at or past
its own hash.  Two properties matter here:

* **stability** -- the ring is derived only from shard *index*, so a
  daemon restart (or a different process entirely) reopening the same
  shard paths routes every id identically; records never migrate
  behind the registry's back.
* **minimal movement** -- growing N shards to N+1 remaps only the ids
  that land on the new shard's points (~1/(N+1) of the fleet), which
  is the seam a later multi-machine verifier needs: shard k can move
  to another host wholesale, and resharding touches few devices.

The meta document (logical clock, package log, firmware pin) is fleet-
global, not per-device, so it lives on shard 0 alone -- one writer,
one durable copy, no merge question.
"""

import bisect
import hashlib
from typing import Dict, List, Optional, Sequence

from repro.fleet.store import RegistryStore, open_store

# Virtual nodes per shard.  64 keeps the worst shard within a few
# percent of the mean for double-digit shard counts while the ring
# stays tiny (N*64 points, built once at open).
VNODES = 64


def _ring_hash(key: str) -> int:
    """64-bit ring position of *key* (stable across processes --
    unlike ``hash()``, which PYTHONHASHSEED randomises per run)."""
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big")


class ShardRouter:
    """Consistent-hash ring mapping device ids to shard indexes."""

    def __init__(self, shards: int, vnodes: int = VNODES):
        if shards < 1:
            raise ValueError("need at least one shard")
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.shards = shards
        self.vnodes = vnodes
        points = []
        for shard in range(shards):
            for vnode in range(vnodes):
                points.append((_ring_hash(f"shard-{shard}/{vnode}"), shard))
        points.sort()
        self._points = [point for point, _ in points]
        self._owners = [shard for _, shard in points]

    def shard_for(self, device_id: str) -> int:
        """The shard owning *device_id*: first ring point clockwise."""
        index = bisect.bisect_right(self._points, _ring_hash(device_id))
        return self._owners[index % len(self._owners)]

    def partition(self, device_ids: Sequence[str]) -> Dict[int, List[str]]:
        """Group ids by owning shard (routing preserves input order)."""
        groups: Dict[int, List[str]] = {}
        for device_id in device_ids:
            groups.setdefault(self.shard_for(device_id), []).append(device_id)
        return groups


class ShardedStore(RegistryStore):
    """N registry stores behind one ``RegistryStore`` contract.

    Record documents route by device id through the ring; the meta
    document lives on shard 0.  ``flush()`` flushes every shard --
    the campaign engine's per-wave durability point must cover the
    whole wave no matter how its devices were distributed; a JSONL
    shard nothing was written to since its last flush skips the fsync
    -- and ``close()`` closes every shard (compacting JSONL backends).
    """

    backend = "sharded"

    def __init__(self, stores: Sequence[RegistryStore],
                 vnodes: int = VNODES):
        self.stores = list(stores)
        self.router = ShardRouter(len(self.stores), vnodes=vnodes)

    def load_records(self) -> Dict[str, dict]:
        # Merge in shard order.  A record can only appear on two shards
        # after an offline reshard (shard added/removed); last-wins is
        # the same rule the JSONL log already applies to duplicates,
        # and the next save re-homes the record onto its current owner.
        records: Dict[str, dict] = {}
        for store in self.stores:
            records.update(store.load_records())
        return records

    def save_record(self, doc: dict):
        self.stores[self.router.shard_for(doc["device_id"])].save_record(doc)

    def load_meta(self) -> dict:
        return self.stores[0].load_meta()

    def save_meta(self, meta: dict):
        self.stores[0].save_meta(meta)

    def flush(self):
        for store in self.stores:
            store.flush()

    def close(self):
        for store in self.stores:
            store.close()

    def counts(self) -> List[int]:
        """Live records per shard (observability: ``GET /status``)."""
        return [len(store.load_records()) for store in self.stores]


def open_sharded_store(paths: Optional[Sequence[str]],
                       vnodes: int = VNODES) -> RegistryStore:
    """Open shard backends from paths (``open_store`` suffix rules).

    No paths opens a single in-memory store -- a daemon can run
    stateless for demos.  One path skips the ring entirely and returns
    that store unsharded, so ``serve run --store-shard x.db`` behaves
    exactly like today's ``--store x.db`` (same file layout, no
    routing layer to pay for).
    """
    paths = list(paths or ())
    if not paths:
        return open_store(None)
    if len(paths) == 1:
        return open_store(paths[0])
    return ShardedStore([open_store(path) for path in paths], vnodes=vnodes)
