"""The verifier control plane: an asyncio HTTP/1.1 JSON daemon.

One long-running process fronts a fleet: enroll/attest/rollout arrive
as HTTP requests, fan out through :class:`~repro.serve.pump
.AsyncFleetPump` onto the existing HMAC protocol, and persist through
whatever store the fleet was opened on -- usually a
:class:`~repro.serve.shard.ShardedStore` spanning several durable
backends.  Everything is stdlib: ``asyncio.start_server`` carries the
sockets, the HTTP parsing is the few dozen lines a JSON-only
HTTP/1.1 API actually needs.  Connections persist: one connection
serves request after request (each head read with one
``readuntil``) until the client asks to close or speaks HTTP/1.0, a
stream ends it (streams are close-delimited), a 400 leaves its
framing untrusted, or it sits idle past ``REQUEST_TIMEOUT_S``.  The
daemon never closes a connection between reading a request head and
answering it, so a client may safely resend, once, a request that
failed on a reused connection before any response byte.

Endpoints (every JSON body is the same ``schema``/``version``
envelope the CLI emits; streams are JSONL, one event document per
line, exactly the ``fleet watch --json`` shape):

====================================  =======================================
``GET  /status``                      readiness + fleet/shard/campaign summary
``POST /enroll``                      ``{"count": N}`` or ``{"device_ids": []}``
``POST /attest``                      concurrent sweep (optional device subset)
``POST /rollout``                     start a campaign, returns its id live
``GET  /campaigns/<id>``              one campaign: live state + report/rollup
``GET  /campaigns/<id>/events``       JSONL stream of its events, live
``GET  /events?since=N&follow=1``     JSONL stream of the whole event log
``GET  /metrics``                     Prometheus text (obs/export)
====================================  =======================================

Request observability rides the existing metrics registry: a
``serve.request`` span plus per-endpoint counters and latency
histograms, recorded once per *request* (never per device), and a
``serve.connections`` counter beside ``serve.requests``, so the
disabled path stays at one attribute check -- bench_micro gates it
like every other obs layer.

Shutdown is graceful by contract: SIGTERM/SIGINT stop accepting,
signal the running campaign (it stops at its next wave boundary --
flushed waves stay durable, ``rollout --resume`` finishes the rest),
close idle connections, drain in-flight exchanges, flush every shard
store and the event log, and exit 0.
"""

import asyncio
import json
import signal
import threading
import time
from typing import AsyncIterator, Dict, Optional
from urllib.parse import parse_qs, urlsplit

from repro.api.results import envelope
from repro.api.spec import SpecError
from repro.fleet.campaign import CampaignConfig
from repro.fleet.registry import FleetError
from repro.obs.export import to_prometheus
from repro.obs.metrics import METRICS
from repro.serve.pump import AsyncFleetPump, PumpBusy

# How often streaming endpoints poll the event log for new documents.
# 50ms keeps first-event latency far inside the 1s gate while a quiet
# stream costs ~20 empty tail reads a second.
STREAM_POLL_S = 0.05
# Reading a request (head + body) may not stall the loop, and a
# kept-alive connection idle this long is closed.
REQUEST_TIMEOUT_S = 30.0
MAX_BODY_BYTES = 8 << 20
# How long a connection ending after its answer waits for the client
# to close (see VerifierDaemon._linger).
LINGER_S = 1.0


class JsonResponse:
    def __init__(self, status: int, doc: dict):
        self.status = status
        self.doc = doc


class TextResponse:
    def __init__(self, status: int, body: str,
                 content_type: str = "text/plain; version=0.0.4"):
        self.status = status
        self.body = body
        self.content_type = content_type


class StreamResponse:
    """A JSONL stream: ``lines`` yields one JSON-safe dict per line."""

    def __init__(self, lines: AsyncIterator[dict]):
        self.status = 200
        self.lines = lines


_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 409: "Conflict",
            500: "Internal Server Error", 503: "Service Unavailable"}


def _error(status: int, message: str) -> JsonResponse:
    return JsonResponse(status, envelope("serve.error", error=message,
                                         status=status))


class BadFraming(Exception):
    """A request whose framing cannot be trusted: answer 400, close."""


# /rollout body keys handed to CampaignConfig, which checks them (the
# body calls its wave_fractions "waves").  metrics_dump is never one: a
# request must not name files on the server.
_ROLLOUT_KNOBS = ("failure_threshold", "max_attempts", "workers", "backend",
                  "verify_after_wave")


def _is(value, kinds) -> bool:
    return isinstance(value, kinds) and (
        bool in kinds or not isinstance(value, bool))


def _field(body: dict, key: str, kinds, items=None):
    """``body[key]`` (None when absent or null) if it has one of the
    JSON types *kinds* -- a list whose every item has *items*, when
    given.  Anything else is a ValueError, which dispatch answers 400."""
    value = body.get(key)
    if value is None or (_is(value, kinds) and (
            items is None or all(_is(item, items) for item in value))):
        return value
    raise ValueError(f"{key!r} has the wrong type")


class VerifierDaemon:
    """Serve one :class:`~repro.fleet.simulation.FleetSimulation`."""

    def __init__(self, fleet, host: str = "127.0.0.1", port: int = 0,
                 max_workers: int = 0):
        self.fleet = fleet
        self.pump = AsyncFleetPump(fleet, max_workers=max_workers)
        self.host = host
        self.port = port  # 0 -> ephemeral; the bound port replaces it
        self.started_at = time.time()
        # campaign id -> {"running": bool, "report": dict | None}
        self.campaigns: Dict[str, dict] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown_requested: Optional[asyncio.Event] = None
        self._shutting_down = False
        self._clients: set = set()
        # reader -> transport of each connection waiting for its next
        # request head.
        self._idle: Dict[asyncio.StreamReader, asyncio.Transport] = {}

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ---- lifecycle -------------------------------------------------------

    async def start(self):
        self._loop = asyncio.get_running_loop()
        self._shutdown_requested = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def run(self, ready=None):
        """Serve until a shutdown request, then drain and flush."""
        if self._server is None:
            await self.start()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(signum, self.request_shutdown)
            except (ValueError, NotImplementedError, RuntimeError):
                # Not the main thread (DaemonThread) or no signal
                # support; the owner calls request_shutdown() directly.
                pass
        if ready is not None:
            ready(self)
        await self._shutdown_requested.wait()
        await self.shutdown()

    def request_shutdown(self):
        """Begin graceful shutdown; safe from any thread or a signal."""
        self.pump.campaign_stop.set()
        loop, event = self._loop, self._shutdown_requested
        if loop is not None and event is not None:
            loop.call_soon_threadsafe(event.set)

    async def shutdown(self):
        """Drain in-flight work, flush every shard store, stop."""
        self._shutting_down = True
        if self._server is not None:
            self._server.close()
            # A connection waiting for its next request head has
            # nothing to answer: end the wait now, not after the grace.
            # A head already buffered is still read and answered.
            for reader, transport in list(self._idle.items()):
                transport.pause_reading()
                reader.feed_eof()
            await self._server.wait_closed()
        # Campaign first (wave boundary), then in-flight exchanges,
        # then the durable flush across every shard + the event log.
        await self.pump.drain()
        pending = [task for task in self._clients if not task.done()]
        if pending:
            # Streams observe _shutting_down within one poll interval.
            done, still = await asyncio.wait(pending, timeout=5.0)
            for task in still:
                task.cancel()
        self.pump.close()

    # ---- HTTP plumbing ---------------------------------------------------

    async def _handle_client(self, reader, writer):
        task = asyncio.current_task()
        self._clients.add(task)
        METRICS.inc("serve.connections")
        try:
            while await self._serve_one(reader, writer):
                pass
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError):
            pass  # client went away, stalled or idled out
        finally:
            self._clients.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except OSError:
                pass

    async def _serve_one(self, reader, writer) -> bool:
        """Read, dispatch and answer one request; returns whether the
        connection stays open for the next one."""
        try:
            request = await asyncio.wait_for(
                self._read_request(reader, writer), REQUEST_TIMEOUT_S)
        except BadFraming as error:
            response, keep_alive = _error(400, str(error)), False
        else:
            if request is None:
                return False  # the client closed between requests
            method, target, keep_alive, raw = request
            response = await self._respond(method, target, raw)
        keep_alive = keep_alive and not self._shutting_down and \
            not isinstance(response, StreamResponse)
        await self._write_response(writer, response, keep_alive)
        if not keep_alive:
            await self._linger(reader, writer)
        return keep_alive

    async def _respond(self, method: str, target: str, raw: bytes):
        try:
            parts = urlsplit(target)
            query = {key: values[-1]
                     for key, values in parse_qs(parts.query).items()}
        except ValueError:
            return _error(400, "malformed request target")
        try:
            body = json.loads(raw) if raw else None
        except (ValueError, RecursionError):
            return _error(400, "request body is not JSON")
        return await self.dispatch(method.upper(), parts.path, query, body)

    async def _read_request(self, reader, writer):
        """One request as ``(method, target, keep_alive, body bytes)``,
        or None when the client closed before sending one (or the
        daemon is shutting down).  The connection is idle -- ended at
        once by shutdown -- until its head is read."""
        self._idle[reader] = writer.transport
        try:
            if self._shutting_down:
                return None
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError:
            return None
        except asyncio.LimitOverrunError:
            raise BadFraming("request head too large") from None
        finally:
            del self._idle[reader]
        lines = head[:-4].decode("latin-1").split("\r\n")
        try:
            method, target, version = lines[0].split(" ", 2)
        except ValueError:
            raise BadFraming("malformed request line") from None
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        if "transfer-encoding" in headers:
            raise BadFraming("only Content-Length bodies are supported")
        length = headers.get("content-length", "0")
        if not (length.isascii() and length.isdigit()):
            raise BadFraming(f"bad Content-Length {length[:32]!r}")
        length = int(length)
        if length > MAX_BODY_BYTES:
            raise BadFraming("body too large")
        body = await reader.readexactly(length) if length else b""
        keep_alive = version == "HTTP/1.1" and \
            "close" not in headers.get("connection", "").lower()
        return method, target, keep_alive, body

    @staticmethod
    async def _linger(reader, writer):
        """End an answered connection: half-close, then discard what
        the client still sends until it closes (at most ``LINGER_S``).
        Closing on unread input would reset the connection, which can
        destroy the answer before the client reads it."""
        async def _discard():
            while await reader.read(1 << 16):
                pass

        try:
            writer.write_eof()
            await asyncio.wait_for(_discard(), LINGER_S)
        except (OSError, asyncio.TimeoutError):
            pass

    async def _write_response(self, writer, response, keep_alive: bool):
        if isinstance(response, StreamResponse):
            writer.write(self._head(200, "application/x-ndjson"))
            await writer.drain()
            async for doc in response.lines:
                writer.write(json.dumps(doc, sort_keys=True).encode()
                             + b"\n")
                await writer.drain()
            return
        if isinstance(response, TextResponse):
            payload = response.body.encode()
            content_type = response.content_type
        else:
            payload = (json.dumps(response.doc, sort_keys=True) + "\n"
                       ).encode()
            content_type = "application/json"
        writer.write(self._head(response.status, content_type, len(payload),
                                keep_alive) + payload)
        await writer.drain()

    @staticmethod
    def _head(status: int, content_type: str,
              length: Optional[int] = None, keep_alive: bool = False
              ) -> bytes:
        lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
                 f"Content-Type: {content_type}"]
        if not keep_alive:
            lines.append("Connection: close")
        if length is not None:
            lines.append(f"Content-Length: {length}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode()

    # ---- routing ---------------------------------------------------------

    async def dispatch(self, method: str, path: str,
                       query: Optional[dict] = None,
                       body: Optional[dict] = None):
        """Route one request; also the seam benchmarks/tests drive
        without a socket.  Request accounting happens here, once per
        request -- per-endpoint counters and latency histograms under
        a ``serve.request`` span, one attribute check when disabled."""
        query = query or {}
        endpoint, handler = self._route(method, path)
        if handler is None:
            return _error(*endpoint)  # (status, message) on no route
        started = time.perf_counter()
        try:
            if body is not None and not isinstance(body, dict):
                raise ValueError("request body must be a JSON object")
            with METRICS.span("serve.request"):
                return await handler(path, query, body or {})
        except PumpBusy as error:
            return _error(409, str(error))
        except (FleetError, ValueError, OverflowError) as error:
            return _error(400, str(error))
        except KeyError as error:
            return _error(404, f"unknown device {error.args[0]!r}"
                          if error.args else "not found")
        finally:
            if METRICS.enabled:
                elapsed_ms = (time.perf_counter() - started) * 1000.0
                METRICS.inc("serve.requests")
                METRICS.inc(f"serve.requests.{endpoint}")
                METRICS.observe(f"serve.request.{endpoint}.ms", elapsed_ms)

    def _route(self, method: str, path: str):
        routes = {
            ("GET", "/status"): ("status", self._h_status),
            ("POST", "/enroll"): ("enroll", self._h_enroll),
            ("POST", "/attest"): ("attest", self._h_attest),
            ("POST", "/rollout"): ("rollout", self._h_rollout),
            ("GET", "/events"): ("events", self._h_events),
            ("GET", "/metrics"): ("metrics", self._h_metrics),
        }
        entry = routes.get((method, path))
        if entry is not None:
            return entry
        if path.startswith("/campaigns/"):
            if method != "GET":
                return (405, f"{method} not allowed on {path}"), None
            rest = path[len("/campaigns/"):]
            if rest.endswith("/events"):
                return "campaign-events", self._h_campaign_events
            if "/" not in rest and rest:
                return "campaign", self._h_campaign
        known_paths = {p for _, p in routes}
        if path in known_paths or path.startswith("/campaigns/"):
            return (405, f"{method} not allowed on {path}"), None
        return (404, f"no route for {path}"), None

    # ---- handlers --------------------------------------------------------

    async def _h_status(self, path, query, body):
        registry = self.fleet.registry
        store = registry.store
        backend = store.backend if store is not None else "none"
        shards = getattr(store, "stores", None)
        return JsonResponse(200, envelope(
            "serve.status",
            ready=not self._shutting_down,
            shutting_down=self._shutting_down,
            url=self.url,
            uptime_s=round(time.time() - self.started_at, 3),
            devices=len(registry),
            states=registry.state_histogram(),
            store={"backend": backend,
                   "shards": len(shards) if shards is not None else 1},
            campaigns={cid: {"running": entry["running"],
                             "status": (entry["report"] or {}).get("status")}
                       for cid, entry in self.campaigns.items()},
        ))

    async def _h_enroll(self, path, query, body):
        count = _field(body, "count", (int,)) or 0
        device_ids = _field(body, "device_ids", (list,), (str,))
        if count < 0:
            raise ValueError("count must be >= 0")
        if not count and not device_ids:
            return _error(400, "enroll wants {'count': N} or "
                               "{'device_ids': [...]}")
        results = await self.pump.enroll(count=count, device_ids=device_ids)
        failed = [r for r in results if not r["ok"]]
        return JsonResponse(200, envelope(
            "serve.enroll", ok=not failed, enrolled=len(results) - len(failed),
            failed=failed, devices=len(self.fleet.registry),
            device_ids=[r["device"] for r in results]))

    async def _h_attest(self, path, query, body):
        results = await self.pump.attest(
            _field(body, "device_ids", (list,), (str,)))
        failed = [r for r in results if not r["ok"]]
        return JsonResponse(200, envelope(
            "serve.attest", ok=not failed, attested=len(results),
            failed=failed, results=results))

    async def _h_rollout(self, path, query, body):
        version = body.get("version")
        if version is None:
            return _error(400, "rollout wants {'version': N, ...}")
        options = {knob: body[knob] for knob in _ROLLOUT_KNOBS
                   if body.get(knob) is not None}
        if body.get("waves") is not None:
            options["wave_fractions"] = body["waves"]
        try:
            config = CampaignConfig(**options)
        except SpecError as error:
            field = "waves" if error.field == "wave_fractions" else error.field
            raise SpecError(field, error.detail) from None
        start, future = await self.pump.start_rollout(
            version, config=config,
            resume=bool(_field(body, "resume", (bool,))),
            device_ids=_field(body, "device_ids", (list,), (str,)))
        if start is None:
            # Never minted an id: the campaign was empty (or failed
            # before its first event).  The future is already done.
            report = await future
            return JsonResponse(200, envelope(
                "serve.rollout", campaign=None,
                report=self._report_doc(report)))
        campaign_id = start["campaign"]
        entry = self.campaigns[campaign_id] = {
            "running": True, "report": None, "start_seq": start["seq"]}

        def _finish(done):
            entry["running"] = False
            if not done.cancelled() and done.exception() is None:
                entry["report"] = self._report_doc(done.result())

        future.add_done_callback(_finish)
        return JsonResponse(200, envelope(
            "serve.rollout", campaign=campaign_id, target_version=version,
            running=True))

    @staticmethod
    def _report_doc(report) -> dict:
        return {
            "status": report.status.value,
            "target_version": report.target_version,
            "applied": report.applied,
            "failed": report.failed,
            "skipped": report.skipped,
            "resumed": report.resumed,
            "offered": report.offered,
            "halt_reason": report.halt_reason,
            "elapsed_s": round(report.elapsed_s, 6),
            "devices_per_sec": round(report.devices_per_sec, 1),
            "backend": report.backend,
            "waves": [{"index": wave.index, "size": wave.size,
                       "applied": wave.applied, "failed": wave.failed,
                       "statuses": dict(wave.statuses)}
                      for wave in report.waves],
        }

    async def _h_campaign(self, path, query, body):
        campaign_id = path.rsplit("/", 1)[1]
        entry = self.campaigns.get(campaign_id)
        rollup = next(iter(self.fleet.events.campaign_rollup(campaign_id)),
                      None)
        if entry is None and rollup is None:
            return _error(404, f"unknown campaign {campaign_id!r}")
        return JsonResponse(200, envelope(
            "serve.campaign", campaign=campaign_id,
            running=bool(entry and entry["running"]),
            report=entry["report"] if entry else None,
            rollup=rollup))

    async def _h_campaign_events(self, path, query, body):
        campaign_id = path.split("/")[2]
        if (campaign_id not in self.campaigns
                and not self.fleet.events.has_campaign(campaign_id)):
            return _error(404, f"unknown campaign {campaign_id!r}")
        since = int(query.get("since") or 0)
        return StreamResponse(self._campaign_stream(campaign_id, since))

    async def _campaign_stream(self, campaign_id: str, since: int):
        """Live per-wave progress: the event log's tail cursor,
        filtered to one campaign, polled until its campaign-end.  The
        cursor starts at the campaign's own start event when this
        daemon started it: nothing before it can belong to it."""
        entry = self.campaigns.get(campaign_id)
        cursor = since if entry is None else max(since,
                                                 entry["start_seq"] - 1)
        while True:
            docs = self.fleet.events.tail(since_seq=cursor)
            if docs:
                cursor = docs[-1]["seq"]
            ended = False
            for doc in docs:
                if doc["campaign"] != campaign_id:
                    continue
                yield doc
                if doc["kind"] == "campaign-end":
                    ended = True
            if ended or self._shutting_down:
                return
            entry = self.campaigns.get(campaign_id)
            if not docs and (entry is None or not entry["running"]):
                # Backlog drained and nothing is producing more: the
                # campaign finished before this cursor position (or
                # predates this daemon).  Do not wait forever.
                return
            await asyncio.sleep(STREAM_POLL_S)

    async def _h_events(self, path, query, body):
        since = int(query.get("since") or 0)
        follow = query.get("follow", "0") not in ("0", "", "false")
        return StreamResponse(self._event_stream(since, follow))

    async def _event_stream(self, since: int, follow: bool):
        cursor = since
        while True:
            docs = self.fleet.events.tail(since_seq=cursor)
            if docs:
                cursor = docs[-1]["seq"]
            for doc in docs:
                yield doc
            if not follow or self._shutting_down:
                return
            await asyncio.sleep(STREAM_POLL_S)

    async def _h_metrics(self, path, query, body):
        return TextResponse(200, to_prometheus(METRICS.snapshot()))


class DaemonThread:
    """Run a daemon on a dedicated thread + loop (tests, benchmarks).

    The constructor blocks until the daemon is bound and serving;
    ``stop()`` runs the full graceful-shutdown path and joins."""

    def __init__(self, fleet, host: str = "127.0.0.1", port: int = 0,
                 max_workers: int = 0, ready_timeout: float = 120.0):
        self.daemon = VerifierDaemon(fleet, host=host, port=port,
                                     max_workers=max_workers)
        self.error: Optional[BaseException] = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._main,
                                        name="serve-daemon", daemon=True)
        self._thread.start()
        if not self._ready.wait(ready_timeout):
            raise RuntimeError("daemon did not become ready in time")
        if self.error is not None:
            raise RuntimeError(f"daemon failed to start: {self.error!r}")

    def _main(self):
        try:
            asyncio.run(self.daemon.run(
                ready=lambda _daemon: self._ready.set()))
        except BaseException as error:  # noqa: BLE001 -- surfaced to owner
            self.error = error
        finally:
            self._ready.set()

    @property
    def url(self) -> str:
        return self.daemon.url

    def stop(self, timeout: float = 120.0):
        self.daemon.request_shutdown()
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError("daemon thread did not shut down in time")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()
        return False
