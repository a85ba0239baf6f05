"""Live event fan-out: the in-process bus and cross-process tails.

PR 6 made the event log queryable after the fact; this module makes
it watchable while it happens, two ways:

* :class:`EventBus` -- every :class:`~repro.obs.events.EventLog`
  carries one.  ``emit()`` publishes each stored document to the
  bus's subscribers *after* releasing the log's lock, so a subscriber
  (the alert engine, a live renderer) may itself emit follow-up
  events without deadlocking.  A misbehaving subscriber never breaks
  emission: exceptions are swallowed and counted on ``bus.errors``.
  The no-subscriber path is one tuple truthiness test -- the fleet
  layers pay nothing for the capability when nobody is watching.

* Tail cursors -- a *second process* cannot share the bus, but it can
  follow the durable log file: :func:`open_event_tail` returns an
  :class:`EventTail` (the record log's :class:`~repro.recordlog.Cursor`)
  whose ``read()`` yields every event the writer has put out since the
  last call (a JSON line once written, a SQLite row once ``flush()``
  commits it), in seq order, exactly once.  ``fleet watch --follow``
  polls one of these.
"""

import threading
from typing import Callable, Optional

from repro.recordlog import Cursor as EventTail, backend_for

__all__ = ["EventBus", "EventTail", "open_event_tail"]


class _Subscription:
    """Opaque handle returned by :meth:`EventBus.subscribe`."""

    __slots__ = ("callback", "kinds")

    def __init__(self, callback: Callable[[dict], None],
                 kinds: Optional[frozenset]):
        self.callback = callback
        self.kinds = kinds


class EventBus:
    """Synchronous fan-out of event documents to in-process subscribers.

    Subscription changes copy the subscriber tuple under a lock;
    ``publish`` reads the tuple without locking (tuples are immutable,
    a concurrent subscribe simply lands on the next publish).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._subscribers: tuple = ()
        # Subscriber exceptions land here instead of on the emitter.
        self.errors = 0

    def subscribe(self, callback: Callable[[dict], None],
                  kinds=None) -> _Subscription:
        """Register *callback* for every event (or just *kinds*)."""
        subscription = _Subscription(
            callback, frozenset(kinds) if kinds is not None else None)
        with self._lock:
            self._subscribers = self._subscribers + (subscription,)
        return subscription

    def unsubscribe(self, subscription: _Subscription):
        with self._lock:
            self._subscribers = tuple(entry for entry in self._subscribers
                                      if entry is not subscription)

    def __len__(self):
        return len(self._subscribers)

    def publish(self, doc: dict):
        subscribers = self._subscribers
        if not subscribers:
            return
        for subscription in subscribers:
            if subscription.kinds is not None \
                    and doc["kind"] not in subscription.kinds:
                continue
            try:
                subscription.callback(doc)
            except Exception:
                self.errors += 1


def open_event_tail(path: Optional[str], since_seq: int = 0) -> EventTail:
    """A follow cursor for the durable event log at *path*."""
    if backend_for(path) == "memory":
        from repro.obs.events import ObsError

        raise ObsError("only durable event logs (jsonl/sqlite paths) can "
                       "be tailed from another process")
    return EventTail(path, since_seq=since_seq)
