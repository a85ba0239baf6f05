"""FleetClient: the stdlib counterpart of the serve daemon's API.

One class over plain sockets, speaking exactly the HTTP/1.1 the
daemon serves: ``Content-Length`` bodies and close-delimited streams.
Each request, head and body, goes out in one ``sendall``.  JSON
endpoints share one persistent, lock-guarded connection and return the
decoded envelope; a response that carries ``Connection: close`` (or
has no length) ends it, and the next call opens a fresh one.  A
request that fails on a *reused* connection before any response byte
(the daemon closed it while idle) is resent once on a fresh one --
the daemon never closes a connection between reading a request head
and answering it, so that resend cannot run a request twice.
Streaming endpoints open their own close-delimited connection each
and return generators yielding one event document per JSONL line,
read incrementally so callers see wave commits while the campaign is
still rolling.  Tests, the benchmarks, the demo and the ``--url`` CLI
paths all drive the daemon through this -- nobody else hand-writes
HTTP.
"""

import json
import socket
import threading
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple
from urllib.parse import urlencode, urlsplit

# Longest response head line read; the daemon's are far shorter.
_MAX_LINE = 1 << 16


class ServeError(RuntimeError):
    """A non-2xx daemon response (the envelope's error rides along)."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class _Connection:
    """One socket and the buffered reader over it."""

    __slots__ = ("sock", "stream", "reused")

    def __init__(self, host: str, port: int, timeout: float):
        self.sock = socket.create_connection((host, port), timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.stream = self.sock.makefile("rb")
        self.reused = False  # an earlier request was answered on it

    def read_head(self) -> Tuple[int, Dict[str, str]]:
        """The response's status and lower-cased headers."""
        line = self.stream.readline(_MAX_LINE)
        if not line:
            raise ConnectionResetError(
                "the daemon closed the connection without answering")
        parts = line.split(None, 2)
        if not line.endswith(b"\n") or len(parts) < 2 \
                or not parts[0].startswith(b"HTTP/") or not parts[1].isdigit():
            raise ConnectionError(f"malformed status line {line[:80]!r}")
        headers = {}
        while True:
            line = self.stream.readline(_MAX_LINE)
            if not line.endswith(b"\n"):
                raise ConnectionError("response head cut short")
            if line in (b"\r\n", b"\n"):
                return int(parts[1]), headers
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()

    def read_body(self, headers: Dict[str, str]) -> bytes:
        """A ``Content-Length`` body, or everything up to the close."""
        length = headers.get("content-length")
        if length is None:
            return self.stream.read()
        if not (length.isascii() and length.isdigit()):
            raise ConnectionError(f"bad Content-Length {length[:32]!r}")
        body = self.stream.read(int(length))
        if len(body) < int(length):
            raise ConnectionError("response body cut short")
        return body

    def close(self):
        self.stream.close()
        self.sock.close()


class FleetClient:
    """Talk to one running verifier daemon."""

    def __init__(self, url: str, timeout: float = 60.0):
        parts = urlsplit(url if "//" in url else f"http://{url}")
        if parts.scheme not in ("", "http"):
            raise ValueError(f"unsupported scheme {parts.scheme!r} "
                             f"(the daemon speaks plain http)")
        self.host = parts.hostname or "127.0.0.1"
        self.port = parts.port or 80
        self.timeout = timeout
        self._host_header = f"Host: {self.host}:{self.port}\r\n"
        # The persistent connection, opened by the first call.
        self._connection: Optional[_Connection] = None
        self._lock = threading.Lock()

    # ---- plumbing --------------------------------------------------------

    def _connect(self, timeout: Optional[float] = None) -> _Connection:
        return _Connection(self.host, self.port,
                           self.timeout if timeout is None else timeout)

    def close(self):
        """Close the persistent connection (the next call reopens it)."""
        with self._lock:
            if self._connection is not None:
                self._connection.close()
                self._connection = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def _encode(self, method: str, path: str,
                body: Optional[dict] = None) -> bytes:
        head = f"{method} {path} HTTP/1.1\r\n{self._host_header}"
        if body is None:
            return (head + "\r\n").encode()
        payload = json.dumps(body).encode()
        return (head + "Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n\r\n").encode() + payload

    def _exchange(self, method: str, path: str,
                  body: Optional[dict] = None) -> Tuple[int, bytes]:
        """One request on the persistent connection: (status, body)."""
        request = self._encode(method, path, body)
        with self._lock:
            connection = self._connection
            try:
                for retry in (False, True):
                    if connection is None:
                        connection = self._connection = self._connect()
                    try:
                        connection.sock.sendall(request)
                        status, headers = connection.read_head()
                        break
                    except (ConnectionResetError, BrokenPipeError):
                        # No response byte came back: on a reused
                        # connection, the daemon closed it while idle.
                        # Resend once.
                        reused = connection.reused
                        connection.close()
                        connection = self._connection = None
                        if not reused or retry:
                            raise
                payload = connection.read_body(headers)
                if "content-length" in headers and \
                        headers.get("connection", "").lower() != "close":
                    connection.reused = True
                else:
                    connection.close()
                    self._connection = None
                return status, payload
            except BaseException:
                if connection is not None:
                    connection.close()  # its state is unknown now
                    self._connection = None
                raise

    def _request(self, method: str, path: str,
                 body: Optional[dict] = None) -> dict:
        status, payload = self._exchange(method, path, body)
        doc = json.loads(payload.decode() or "{}")
        if status >= 400:
            raise ServeError(status, doc.get("error", "request failed"))
        return doc

    def _stream(self, path: str,
                timeout: Optional[float] = None) -> Iterator[dict]:
        """Yield one document per JSONL line as the daemon writes them."""
        connection = self._connect(timeout)
        try:
            connection.sock.sendall(self._encode("GET", path))
            status, headers = connection.read_head()
            if status >= 400:
                doc = json.loads(connection.read_body(headers).decode()
                                 or "{}")
                raise ServeError(status, doc.get("error", "request failed"))
            for line in connection.stream:
                line = line.strip()
                if line:
                    yield json.loads(line)
        finally:
            connection.close()

    # ---- endpoints -------------------------------------------------------

    def status(self) -> dict:
        return self._request("GET", "/status")

    def enroll(self, count: int = 0,
               device_ids: Optional[Sequence[str]] = None) -> dict:
        body = {"count": count}
        if device_ids is not None:
            body["device_ids"] = list(device_ids)
        return self._request("POST", "/enroll", body)

    def attest(self, device_ids: Optional[Sequence[str]] = None) -> dict:
        body = {} if device_ids is None \
            else {"device_ids": list(device_ids)}
        return self._request("POST", "/attest", body)

    def rollout(self, version: int, waves: Optional[Sequence[float]] = None,
                resume: bool = False, **options) -> dict:
        body = dict(options, version=version, resume=resume)
        if waves is not None:
            body["waves"] = list(waves)
        return self._request("POST", "/rollout", body)

    def campaign(self, campaign_id: str) -> dict:
        return self._request("GET", f"/campaigns/{campaign_id}")

    def campaign_events(self, campaign_id: str, since: int = 0,
                        timeout: Optional[float] = None) -> Iterator[dict]:
        """Stream one campaign's events live; ends at campaign-end."""
        return self._stream(
            f"/campaigns/{campaign_id}/events?{urlencode({'since': since})}",
            timeout=timeout)

    def events(self, since: int = 0, follow: bool = False,
               timeout: Optional[float] = None) -> Iterator[dict]:
        query = urlencode({"since": since, "follow": int(follow)})
        return self._stream(f"/events?{query}", timeout=timeout)

    def metrics(self) -> str:
        status, payload = self._exchange("GET", "/metrics")
        if status >= 400:
            raise ServeError(status, "metrics unavailable")
        return payload.decode()

    def wait_campaign(self, campaign_id: str,
                      timeout: float = 300.0) -> dict:
        """Poll until the campaign stops running; return its doc."""
        deadline = time.monotonic() + timeout
        while True:
            doc = self.campaign(campaign_id)
            if not doc.get("running"):
                return doc
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"campaign {campaign_id} still running after "
                    f"{timeout:.0f}s")
            time.sleep(0.1)


def collect(stream: Iterator[dict], limit: int = 0) -> List[dict]:
    """Drain a stream (optionally the first *limit* documents)."""
    docs = []
    for doc in stream:
        docs.append(doc)
        if limit and len(docs) >= limit:
            break
    return docs
