"""Process-global metrics: counters, gauges, histograms, spans.

One :class:`MetricsRegistry` per process (the module-level
:data:`METRICS`), fed by the fleet layers (the ``fleet.*`` counters,
incremented where the protocol and the campaign engine emit their
``attest`` and ``offer`` events), the API session (phase spans), the
campaign engine (wave spans) and the interpreter (``run_steps`` batch
boundaries -- never the per-step loop, see PR 3's hot-path contract).

The disabled path is deliberately near-zero: every recording call
starts with one attribute check on ``registry.enabled``, and
``span()`` returns a shared no-op context manager, so a registry
switched off costs one boolean test per *batch* of work.  That is the
property the ``bench_micro`` overhead gate pins.

Spans are causal: each carries an id, a parent id and a trace id (the
root span of its tree), so campaign -> wave -> device-offer timings
form a tree rather than a flat bag of histograms.  Parentage comes
from a per-thread span stack: a span opened inside another on the
same thread is its child.  Finished spans land in a bounded ring --
overflow increments the ``obs.spans_dropped`` counter instead of
growing without bound.

Histograms are the lightweight kind a verifier needs for trend lines:
count / total / min / max (mean derives), not bucketed quantiles --
``snapshot()`` keeps them JSON-safe for the CLI and result envelopes.
"""

import threading
import time
from collections import deque
from typing import Dict, List, Optional

__all__ = ["Histogram", "MetricsRegistry", "METRICS", "SPAN_RING_CAPACITY"]

# Finished spans kept per registry; enough for a full campaign's run
# and wave spans plus the per-device tail of the last few waves.
SPAN_RING_CAPACITY = 4096


class Histogram:
    """Running summary of one observed series (durations, batch sizes)."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float):
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        if not self.count:
            return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0}
        return {
            "count": self.count,
            "total": round(self.total, 6),
            "min": round(self.min, 6),
            "max": round(self.max, 6),
            "mean": round(self.mean, 6),
        }


class _NullSpan:
    """The shared disabled-path span: enter/exit do nothing."""

    __slots__ = ()

    id = None
    trace = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """Times one block into ``<name>.ms`` and records a span-tree node."""

    __slots__ = ("_registry", "_name", "_started", "_ts",
                 "id", "parent", "trace")

    def __init__(self, registry: "MetricsRegistry", name: str):
        self._registry = registry
        self._name = name
        self._started = 0.0
        self._ts = 0.0
        self.id = None
        self.parent = None
        self.trace = None

    def __enter__(self):
        self._registry._open_span(self)
        self._started = time.perf_counter()
        self._ts = time.time()
        return self

    def __exit__(self, *exc):
        elapsed_ms = (time.perf_counter() - self._started) * 1e3
        self._registry._close_span(self, elapsed_ms)
        return False


class MetricsRegistry:
    """Thread-safe counters/gauges/histograms with a cheap off switch.

    Every mutator is guarded by ``self.enabled`` *before* the lock is
    taken, so a disabled registry costs one attribute read per call --
    nothing allocates, nothing synchronises.
    """

    def __init__(self, enabled: bool = True,
                 span_capacity: int = SPAN_RING_CAPACITY):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._spans: deque = deque(maxlen=span_capacity)
        self._span_seq = 0
        self._tls = threading.local()

    # ---- recording -------------------------------------------------------

    def inc(self, name: str, value: int = 1):
        if not self.enabled:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float):
        if not self.enabled:
            return
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float):
        if not self.enabled:
            return
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram()
            histogram.observe(value)

    def span(self, name: str):
        """A context manager timing its block into ``<name>.ms``.

        The finished span also lands in the span ring with causal ids:
        its parent is the enclosing ``span()`` on the same thread.
        """
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name)

    # ---- span plumbing ---------------------------------------------------

    def _span_stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _open_span(self, span: _Span):
        stack = self._span_stack()
        if stack:
            parent = stack[-1]
            span.parent = parent.id
            span.trace = parent.trace
        with self._lock:
            self._span_seq += 1
            span.id = f"s{self._span_seq}"
            if span.trace is None:
                span.trace = span.id  # a root starts its own trace
        stack.append(span)

    def _close_span(self, span: _Span, elapsed_ms: float):
        stack = self._span_stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # unbalanced exit; stay consistent
            stack.remove(span)
        doc = {"id": span.id, "parent": span.parent, "trace": span.trace,
               "name": span._name, "ts": round(span._ts, 6),
               "ms": round(elapsed_ms, 6)}
        with self._lock:
            histogram = self._histograms.get(span._name + ".ms")
            if histogram is None:
                histogram = self._histograms[span._name + ".ms"] = Histogram()
            histogram.observe(elapsed_ms)
            if len(self._spans) == self._spans.maxlen:
                self._counters["obs.spans_dropped"] = \
                    self._counters.get("obs.spans_dropped", 0) + 1
            self._spans.append(doc)

    # ---- control ---------------------------------------------------------

    def enable(self, flag: bool = True):
        self.enabled = flag

    def reset(self):
        """Drop every series (tests and benchmarks isolate with this)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._spans.clear()
            self._span_seq = 0
            # Replace (not clear) every thread's span stack: a span
            # still open across the reset must not parent the spans
            # recorded after it onto an id the reset forgot.
            self._tls = threading.local()

    # ---- reading ---------------------------------------------------------

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def histogram(self, name: str) -> dict:
        with self._lock:
            histogram = self._histograms.get(name)
            return histogram.snapshot() if histogram else Histogram().snapshot()

    def spans(self, name: Optional[str] = None,
              trace: Optional[str] = None) -> List[dict]:
        """Finished spans, oldest first (filters are ANDed)."""
        with self._lock:
            return [dict(doc) for doc in self._spans
                    if (name is None or doc["name"] == name)
                    and (trace is None or doc["trace"] == trace)]

    def span_tree(self) -> List[dict]:
        """The recorded spans as a forest of ``children``-nested nodes.

        Spans whose parent fell out of the bounded ring surface as
        roots -- the tree never silently drops a recorded span.
        """
        spans = self.spans()
        nodes = {doc["id"]: dict(doc, children=[]) for doc in spans}
        roots = []
        for doc in spans:
            node = nodes[doc["id"]]
            parent = nodes.get(doc["parent"])
            if parent is None:
                roots.append(node)
            else:
                parent["children"].append(node)
        return roots

    def snapshot(self) -> dict:
        """A JSON-safe dump of every series (sorted for stable output)."""
        with self._lock:
            return {
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "histograms": {name: histogram.snapshot()
                               for name, histogram
                               in sorted(self._histograms.items())},
                "spans": [dict(doc) for doc in self._spans],
            }


# The process-global registry every layer records into.  Enabled by
# default: the fleet layers are instrumented at batch/wave/exchange
# granularity, cheap enough to leave on (the floors in benchmarks/
# gate exactly that).
METRICS = MetricsRegistry()
