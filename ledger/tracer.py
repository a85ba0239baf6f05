"""Call tracing installed from the benchmark's own files.

A :class:`Tracer` replaces chosen attributes (methods, module
functions) with timing wrappers and puts every original back on
:meth:`Tracer.uninstall`.  Nothing under ``src/`` changes; untraced runs
never see a wrapper.

Every wrapped call is accounted per thread on a call stack, so each
name gets a count, a total and a *self* time: its duration minus the
time its wrapped children took, wrapper cost included.  Hot per-step layers stop there.  Coarse layers
additionally keep one span tuple per call in memory::

    (span_id, parent_id, name, start_ns, end_ns, thread_id, tag)

which :meth:`Tracer.write_spans` writes out once the run ends.  Spans
that cross threads (a campaign's offers on pool threads, an attest run
by the serve pump for a request dispatched on the event loop) have no
stack parent; the metrics that need them use interval arithmetic over
the span list instead (:func:`covered_ns`).
"""

import inspect
import itertools
import json
import math
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Span = Tuple[int, Optional[int], str, int, int, int, object]


class Target:
    """One attribute to wrap.

    *owner* is a class or module and *attr* the name on it.  *keep*
    records one span per call (coarse layers); *before(args, kwargs)*
    returns a token handed to *after(result, args, kwargs, token,
    counters)*, which adds to the per-thread ``counters`` dict and may
    return a tag stored on the span.
    """

    __slots__ = ("owner", "attr", "name", "keep", "before", "after")

    def __init__(self, owner, attr: str, name: str, keep: bool = False,
                 before: Optional[Callable] = None,
                 after: Optional[Callable] = None):
        self.owner = owner
        self.attr = attr
        self.name = name
        self.keep = keep
        self.before = before
        self.after = after


class _ThreadState:
    __slots__ = ("stack", "stats", "counters", "ident")

    def __init__(self):
        # Frames are [child_ns, span_id_or_parent_span_id].
        self.stack: List[list] = []
        # name -> [calls, total_ns, child_ns]
        self.stats: Dict[str, list] = {}
        self.counters: Dict[str, float] = {}
        self.ident = threading.get_ident()


class Tracer:
    """Install, account and remove timing wrappers.

    *clock* returns integer nanoseconds; tests substitute a fake one.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        # (owner, attr, original object as found in owner.__dict__)
        self._installed: List[Tuple[object, str, object]] = []

    # ---- per-thread state ------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            self._states.append(state)
            return state

    def stack_names(self) -> List[str]:
        """Names of the kept spans open on the calling thread."""
        return [frame[2] for frame in self._state().stack if len(frame) > 2]

    # ---- install / uninstall ---------------------------------------------

    def install(self, targets: Iterable[Target]) -> None:
        for target in targets:
            original = target.owner.__dict__[target.attr]
            if isinstance(original, staticmethod):
                fn = original.__func__
                replacement = staticmethod(self._wrap(fn, target))
            elif isinstance(original, classmethod):
                raise TypeError(f"cannot wrap classmethod {target.attr}")
            else:
                replacement = self._wrap(original, target)
            setattr(target.owner, target.attr, replacement)
            self._installed.append((target.owner, target.attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        if inspect.iscoroutinefunction(fn):
            return self._wrap_async(fn, target)
        state_of = self._state
        local = self._local
        perf = self.clock
        spans = self.spans
        ids = self._ids
        name, keep = target.name, target.keep
        before, after = target.before, target.after

        def wrapper(*args, **kwargs):
            entry = perf()
            try:
                state = local.state
            except AttributeError:
                state = state_of()
            stack = state.stack
            if keep:
                span_id = next(ids)
                parent = stack[-1][1] if stack else None
                frame = [0, span_id, name]
            else:
                frame = [0, stack[-1][1] if stack else None]
            token = before(args, kwargs) if before is not None else None
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                record = state.stats.get(name)
                if record is None:
                    record = state.stats[name] = [0, 0, 0]
                record[0] += 1
                record[1] += end - start
                record[2] += frame[0]
            tag = None
            if after is not None:
                tag = after(result, args, kwargs, token, state.counters)
            if keep:
                spans.append((span_id, parent, name, start, end,
                              state.ident, tag))
            if stack:
                # The parent's child time is this whole call, wrapper
                # and hooks included, so tracing cost never lands in
                # the parent's self time.
                stack[-1][0] += perf() - entry
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _wrap_async(self, fn: Callable, target: Target) -> Callable:
        # Coroutines interleave on the loop thread, so they never touch
        # the per-thread stack: each call is a stand-alone span.
        state_of = self._state
        perf = self.clock
        spans = self.spans
        ids = self._ids
        name, after = target.name, target.after

        async def wrapper(*args, **kwargs):
            state = state_of()
            span_id = next(ids)
            start = perf()
            try:
                result = await fn(*args, **kwargs)
            finally:
                end = perf()
                record = state.stats.get(name)
                if record is None:
                    record = state.stats[name] = [0, 0, 0]
                record[0] += 1
                record[1] += end - start
            tag = None
            if after is not None:
                tag = after(result, args, kwargs, None, state.counters)
            spans.append((span_id, None, name, start, end, state.ident, tag))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # ---- results ---------------------------------------------------------

    def stats(self) -> Dict[str, Dict[str, float]]:
        """Per name: ``count``, ``ms`` (total) and ``self_ms``, all threads."""
        merged: Dict[str, list] = {}
        for state in list(self._states):
            for name, (calls, total, child) in state.stats.items():
                into = merged.setdefault(name, [0, 0, 0])
                into[0] += calls
                into[1] += total
                into[2] += child
        return {name: {"count": calls, "ms": total / 1e6,
                       "self_ms": (total - child) / 1e6}
                for name, (calls, total, child) in merged.items()}

    def counters(self) -> Dict[str, float]:
        merged: Dict[str, float] = {}
        for state in list(self._states):
            for key, value in state.counters.items():
                merged[key] = merged.get(key, 0) + value
        return merged

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span[2] == name]

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, thread, tag in self.spans:
                handle.write(json.dumps(
                    {"id": span_id, "parent": parent, "name": name,
                     "start_ns": start, "end_ns": end, "thread": thread,
                     "tag": tag if _json_safe(tag) else repr(tag)}) + "\n")


def _json_safe(value) -> bool:
    return value is None or isinstance(value, (str, int, float, bool))


# ---- span arithmetic -------------------------------------------------------


def covered_ns(intervals: Iterable[Tuple[int, int]],
               window: Optional[Tuple[int, int]] = None) -> int:
    """Length of the union of *intervals*, clipped to *window*."""
    clipped = []
    for start, end in intervals:
        if window is not None:
            start, end = max(start, window[0]), min(end, window[1])
        if end > start:
            clipped.append((start, end))
    clipped.sort()
    total = 0
    cur_start = cur_end = None
    for start, end in clipped:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


# ---- percentiles -----------------------------------------------------------

TAIL_MIN_BEYOND = 10


def tail_percentile(samples: Sequence[float], cap: int = 99
                    ) -> Tuple[int, float]:
    """The highest whole percentile (at most *cap*) that has at least
    ten samples beyond it, as ``(percentile, value)``.

    Nearest rank: the p-th percentile of n sorted samples is the
    ``ceil(p * n / 100)``-th.  With ten samples or fewer no percentile
    qualifies and the median is returned as ``(50, median)``.
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    for pct in range(cap, 0, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= TAIL_MIN_BEYOND:
            return pct, ordered[rank - 1]
    return 50, percentile(ordered, 50)


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct * len(ordered) / 100))
    return ordered[rank - 1]
