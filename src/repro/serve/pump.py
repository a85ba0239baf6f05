"""Async session layer: the synchronous verifier behind an event loop.

The protocol layer (:mod:`repro.fleet.protocol`) is synchronous and
per-device stateful -- a ``VerifierSession`` draws nonces from its
record and must never run two exchanges for the *same* device at
once, but exchanges for *different* devices are independent.  The
pump lifts that contract onto asyncio:

* each attest *request* runs its exchanges on the event loop, the
  thread that read it: it iterates the fleet's one attest sweep
  (``FleetSimulation.attest_sweep``: attest and save each device in
  request order, flush once at the end), yielding to the loop between
  devices once :data:`YIELD_AFTER_S` of exchange work has run since
  the last yield.  An exchange never awaits, so no two exchanges ever
  run at once and overlapping requests serialise per device with no
  lock; the yield lets other
  connections' requests (a ``GET /status``, another attest) in within
  about a millisecond, without a loop round trip per device.  The
  trade: the durability flush runs on the loop too, so the loop
  blocks for its fsyncs (one per log the request wrote, ~0.1 ms each
  on a local disk) before it answers anyone;
* enrollments (which build whole simulated devices) and campaigns run
  on the executor, off the loop.

Rollouts keep their wave semantics by running the existing
``RolloutCampaign`` on one executor thread (a serial campaign makes
every offer there, off the event loop), exclusively: while a
campaign is in flight new attest/enroll calls are refused (409 at the
HTTP layer) rather than silently interleaved with campaign offers,
and the campaign's ``campaign-start`` document is captured from the
event bus the moment it is published, so the HTTP response can return
its id (and streams can start at its seq) while the waves are still
rolling.
"""

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter
from typing import List, Optional, Sequence

from repro.fleet.campaign import CampaignConfig

# Exchange work an attest request runs on the loop before it yields.
YIELD_AFTER_S = 0.001


class PumpBusy(RuntimeError):
    """A rollout holds the fleet exclusively; retry after campaign-end."""


class AsyncFleetPump:
    """Drive one :class:`~repro.fleet.simulation.FleetSimulation`
    concurrently from an event loop.  Not thread-safe itself: call it
    only from the loop that created it."""

    def __init__(self, fleet, max_workers: int = 0):
        self.fleet = fleet
        import os
        self.executor = ThreadPoolExecutor(
            max_workers=max_workers or min(8, (os.cpu_count() or 1) + 2),
            thread_name_prefix="serve-pump")
        self._enroll_lock = asyncio.Lock()
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        # One cooperative stop event for the lifetime of the pump: set
        # by graceful shutdown, observed by the running campaign at its
        # next wave boundary (flushed waves stay durable; the rest
        # resumes later with resume=True).
        self.campaign_stop = threading.Event()
        self._campaign_future: Optional[asyncio.Future] = None
        self._campaign_id: Optional[str] = None

    # ---- bookkeeping -----------------------------------------------------

    def _enter(self):
        self._inflight += 1
        self._idle.clear()

    def _exit(self):
        self._inflight -= 1
        if self._inflight == 0:
            self._idle.set()

    @property
    def campaign_running(self) -> bool:
        future = self._campaign_future
        return future is not None and not future.done()

    def _check_free(self):
        if self.campaign_running:
            raise PumpBusy(
                f"campaign {self._campaign_id or '?'} is in flight; the "
                f"fleet is exclusive to it until campaign-end")

    async def _run_blocking(self, func, *args):
        return await asyncio.get_running_loop().run_in_executor(
            self.executor, func, *args)

    # ---- fleet operations ------------------------------------------------

    async def attest(self, device_ids: Optional[Sequence[str]] = None
                     ) -> List[dict]:
        """One heartbeat per device through the fleet's attest sweep,
        on the loop, with a yield between devices every
        :data:`YIELD_AFTER_S` of work; the sweep ends with ONE flush
        (durability point)."""
        self._check_free()
        fleet = self.fleet
        registry = fleet.registry
        ids = (list(device_ids) if device_ids is not None
               else registry.ids())
        unknown = [i for i in ids if i not in fleet.agents]
        if unknown:
            raise KeyError(f"no simulated device for {unknown[0]!r}")
        self._enter()
        try:
            docs = []
            since = perf_counter()
            for device_id, result in fleet.attest_sweep(ids):
                record = registry.get(device_id)
                docs.append({
                    "device": device_id, "ok": result.ok,
                    "detail": result.detail, "attempts": result.attempts,
                    "state": record.state.value,
                    "nonce_high_water": record.nonce_high_water})
                if (perf_counter() - since >= YIELD_AFTER_S
                        and len(docs) < len(ids)):
                    await asyncio.sleep(0)
                    since = perf_counter()
            return docs
        finally:
            self._exit()

    async def enroll(self, count: int = 0,
                     device_ids: Optional[Sequence[str]] = None
                     ) -> List[dict]:
        """Enroll new devices (serialised: enrollment builds a full
        simulated device and mutates fleet-wide tables)."""
        self._check_free()
        self._enter()
        try:
            async with self._enroll_lock:
                return await self._run_blocking(
                    self._enroll_sync, count, device_ids)
        finally:
            self._exit()

    def _enroll_sync(self, count, device_ids) -> List[dict]:
        registry = self.fleet.registry
        if device_ids:
            results = [(device_id, self.fleet.enroll(device_id))
                       for device_id in device_ids]
            registry.flush()
        else:
            start = len(registry)
            enrolls = self.fleet.enroll_many(count)
            results = [(f"dev-{start + index:05d}", result)
                       for index, result in enumerate(enrolls)]
        return [{"device": device_id, "ok": result.ok,
                 "detail": result.detail} for device_id, result in results]

    async def start_rollout(self, version: int,
                            config: Optional[CampaignConfig] = None,
                            resume: bool = False,
                            device_ids: Optional[Sequence[str]] = None):
        """Launch a campaign on an executor thread; return
        ``(start_doc, future)`` as soon as its id is minted.

        The ``campaign-start`` document (its ``campaign`` id and
        ``seq``) is published on the event bus before the first wave
        runs; an empty campaign never mints one -- *start_doc* is then
        None -- so the wait also resolves when the campaign future
        completes.
        """
        self._check_free()
        # Exchanges already in flight finish first: a campaign must see
        # every record at rest, same as the sync path.  Both conditions
        # are tested again after the wait: an attest or another rollout
        # may start between the idle signal and this task waking, and
        # the loop's exchanges have no lock to keep a campaign out.
        while self._inflight:
            await self._idle.wait()
        self._check_free()
        loop = asyncio.get_running_loop()
        started = loop.create_future()

        def _capture(doc):
            if not started.done():
                loop.call_soon_threadsafe(
                    lambda: started.done() or started.set_result(doc))

        subscription = self.fleet.events.bus.subscribe(
            _capture, kinds=("campaign-start",))
        self._campaign_id = None
        future = self._campaign_future = asyncio.ensure_future(
            self._run_blocking(
                self.fleet.rollout, version, None, config, 0.0, 0.0,
                resume, device_ids, self.campaign_stop))

        def _unsubscribe(_):
            self.fleet.events.bus.unsubscribe(subscription)

        future.add_done_callback(_unsubscribe)
        await asyncio.wait({started, future},
                           return_when=asyncio.FIRST_COMPLETED)
        if not started.done():
            started.cancel()
            return None, future
        self._campaign_id = started.result()["campaign"]
        return started.result(), future

    # ---- shutdown --------------------------------------------------------

    async def drain(self, timeout: float = 60.0):
        """Graceful-stop sequence: signal the campaign, wait for its
        wave boundary, wait for in-flight exchanges, flush durably."""
        self.campaign_stop.set()
        future = self._campaign_future
        if future is not None and not future.done():
            try:
                await asyncio.wait_for(asyncio.shield(future), timeout)
            except (asyncio.TimeoutError, Exception):  # noqa: BLE001
                pass  # report (or error) surfaced via the future itself
        try:
            await asyncio.wait_for(self._idle.wait(), timeout)
        except asyncio.TimeoutError:
            pass
        await self._run_blocking(self._flush_sync)

    def _flush_sync(self):
        registry = self.fleet.registry
        for record in registry:
            registry.save(record)
        registry.flush()  # also flushes the attached event log

    def close(self):
        self.executor.shutdown(wait=True)
