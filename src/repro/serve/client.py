"""FleetClient: the stdlib counterpart of the serve daemon's API.

One class, ``http.client`` underneath.  JSON endpoints share one
persistent, lock-guarded connection and return the decoded envelope;
a request that fails on a *reused* connection before any response
byte (the daemon closed it while idle) is retried once on a fresh
one -- the daemon never closes a connection between reading a request
head and answering it, so that retry cannot run a request twice.  Streaming endpoints open their own
close-delimited connection each and return generators yielding one
event document per JSONL line, read incrementally so callers see
wave commits while the campaign is still rolling.  Tests, the
benchmarks, the demo and the ``--url`` CLI paths all drive the daemon
through this -- nobody else hand-writes HTTP.
"""

import http.client
import json
import threading
import time
from typing import Iterator, List, Optional, Sequence, Tuple
from urllib.parse import urlencode, urlsplit


class ServeError(RuntimeError):
    """A non-2xx daemon response (the envelope's error rides along)."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


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
        # http.client reopens the socket itself after a close.
        self._connection = self._connect()
        self._lock = threading.Lock()

    # ---- plumbing --------------------------------------------------------

    def _connect(self, timeout: Optional[float] = None):
        return http.client.HTTPConnection(
            self.host, self.port,
            timeout=self.timeout if timeout is None else timeout)

    def close(self):
        """Close the persistent connection (the next call reopens it)."""
        with self._lock:
            self._connection.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def _exchange(self, method: str, path: str,
                  body: Optional[dict] = None) -> Tuple[int, bytes]:
        """One request on the persistent connection: (status, body)."""
        payload = None if body is None else json.dumps(body)
        with self._lock:
            connection = self._connection
            try:
                for retry in (False, True):
                    reused = connection.sock is not None
                    try:
                        connection.request(
                            method, path, body=payload,
                            headers={"Content-Type": "application/json"})
                        response = connection.getresponse()
                        break
                    except (ConnectionResetError, BrokenPipeError):
                        # No response byte came back (RemoteDisconnected
                        # is a ConnectionResetError): a reused connection
                        # the daemon closed while idle.  Resend once.
                        connection.close()
                        if not reused or retry:
                            raise
                return response.status, response.read()
            except BaseException:
                connection.close()  # its state is unknown now
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
            connection.request("GET", path)
            response = connection.getresponse()
            if response.status >= 400:
                doc = json.loads(response.read().decode() or "{}")
                raise ServeError(response.status,
                                 doc.get("error", "request failed"))
            while True:
                line = response.readline()
                if not line:
                    return
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
