"""Declarative alert rules over sliding windows of fleet events.

The operator-facing layer of the event stream: an
:class:`AlertEngine` subscribes to an event log's bus (or replays a
stored log offline) and evaluates every rule against each incoming
document.  A rule that trips produces an ``alert`` event -- written
into the *same* log, tagged with the campaign it fired in -- so
alerts are replayable history exactly like the facts that caused
them, and ``fleet watch`` streams them interleaved with those facts.

Rules window on **event timestamps**, not wall-clock reads, so a
replay of last week's log fires the same alerts the live run did.
Each rule fires at most once per (rule, campaign): an operator wants
"this campaign's quarantine rate spiked", not one alert per
quarantined device.

The four built-ins mirror the failure modes the protocol layer can
produce (see ``fleet/protocol.py``):

* ``quarantine-rate``  -- quarantines / offers over the window
  crossed the threshold: a tampered package burst or a compromised
  path in the rollout.
* ``wave-stall``       -- no wave committed within N x the median
  inter-wave gap: the campaign wedged (a hung link or store, a
  livelock) without halting.
* ``violation-surge``  -- the sum of folded violation deltas over the
  window crossed the threshold: fleet-wide memory-safety faults.
* ``replay-burst``     -- several quarantines whose reason is replay/
  forged-MAC shaped inside the window: an active on-path attacker,
  not an isolated flake.

Thresholds come from ``FleetSpec.alerts`` via :func:`build_rules`.
A disabled engine never subscribes at all, so the no-alerting path
costs the emitter nothing beyond the bus's empty-tuple check.
"""

import statistics
from collections import deque
from typing import Dict, List, Optional

__all__ = ["AlertEngine", "AlertRule", "QuarantineRateRule",
           "WaveStallRule", "ViolationSurgeRule", "ReplayBurstRule",
           "RULE_REGISTRY", "REPLAY_REASONS", "default_rules",
           "build_rules"]

# Quarantine reasons that smell like an active on-path attacker
# rather than a single bad device (the protocol's forgery verdicts).
REPLAY_REASONS = frozenset({"replay", "bad-mac", "bad-ack-mac",
                            "stale-report"})


class AlertRule:
    """One windowed predicate over the event stream.

    Subclasses set :attr:`name` and implement :meth:`observe`, which
    returns a JSON-safe context dict when the rule trips on this
    document (the engine handles once-per-campaign latching) and
    ``None`` otherwise.  State is keyed per campaign so concurrent or
    successive campaigns evaluate independently.
    """

    name = "abstract"
    default_severity = "warning"

    def __init__(self, threshold: float, window: float = 30.0,
                 min_events: int = 3, severity: Optional[str] = None):
        if window <= 0:
            raise ValueError("window must be > 0 seconds")
        if min_events < 1:
            raise ValueError("min_events must be >= 1")
        self.threshold = threshold
        self.window = window
        self.min_events = min_events
        self.severity = severity or self.default_severity

    def observe(self, doc: dict) -> Optional[dict]:
        raise NotImplementedError

    def _prune(self, entries: deque, now: float):
        while entries and now - entries[0][0] > self.window:
            entries.popleft()

    def describe(self) -> dict:
        return {"rule": self.name, "severity": self.severity,
                "threshold": self.threshold, "window": self.window,
                "min_events": self.min_events}


class QuarantineRateRule(AlertRule):
    """Quarantines per offer over the window crossed the threshold."""

    name = "quarantine-rate"
    default_severity = "critical"

    def __init__(self, threshold: float = 0.05, window: float = 30.0,
                 min_events: int = 3, severity: Optional[str] = None):
        super().__init__(threshold, window, min_events, severity)
        self._offers: Dict[Optional[str], deque] = {}
        self._quarantines: Dict[Optional[str], deque] = {}

    def observe(self, doc: dict) -> Optional[dict]:
        kind = doc["kind"]
        if kind not in ("offer", "quarantine"):
            return None
        campaign = doc["campaign"]
        offers = self._offers.setdefault(campaign, deque())
        quarantines = self._quarantines.setdefault(campaign, deque())
        now = doc["ts"]
        (offers if kind == "offer" else quarantines).append((now, doc["seq"]))
        self._prune(offers, now)
        self._prune(quarantines, now)
        if len(quarantines) < self.min_events or not offers:
            return None
        rate = len(quarantines) / len(offers)
        if rate < self.threshold:
            return None
        return {
            "rate": round(rate, 4),
            "quarantined": len(quarantines),
            "offered": len(offers),
            "message": (f"quarantine rate {100 * rate:.1f}% "
                        f"({len(quarantines)}/{len(offers)} offers in "
                        f"{self.window:g}s) >= "
                        f"{100 * self.threshold:.1f}%"),
        }


class WaveStallRule(AlertRule):
    """No wave-commit within ``threshold`` x the median inter-wave gap.

    Needs at least ``min_events`` committed waves to estimate the
    campaign's cadence; after that, *any* later event arriving more
    than ``threshold * median_gap`` after the last commit trips it --
    the campaign is demonstrably still alive (events flow) but its
    waves stopped landing.
    """

    name = "wave-stall"
    default_severity = "warning"

    def __init__(self, threshold: float = 3.0, window: float = 300.0,
                 min_events: int = 2, severity: Optional[str] = None):
        super().__init__(threshold, window, min_events, severity)
        self._last_commit: Dict[Optional[str], float] = {}
        self._gaps: Dict[Optional[str], List[float]] = {}
        self._ended: set = set()

    def observe(self, doc: dict) -> Optional[dict]:
        campaign = doc["campaign"]
        if campaign is None or campaign in self._ended:
            return None
        kind = doc["kind"]
        now = doc["ts"]
        if kind == "campaign-end":
            self._ended.add(campaign)
            return None
        if kind == "wave-commit":
            last = self._last_commit.get(campaign)
            if last is not None:
                self._gaps.setdefault(campaign, []).append(now - last)
            self._last_commit[campaign] = now
            return None
        gaps = self._gaps.get(campaign, ())
        if len(gaps) < self.min_events:
            return None
        median_gap = statistics.median(gaps)
        stalled_for = now - self._last_commit[campaign]
        if median_gap <= 0 or stalled_for <= self.threshold * median_gap:
            return None
        return {
            "stalled_s": round(stalled_for, 6),
            "median_wave_s": round(median_gap, 6),
            "waves": len(gaps) + 1,
            "message": (f"no wave committed for {stalled_for:.2f}s "
                        f"(> {self.threshold:g}x the {median_gap:.2f}s "
                        f"median wave time)"),
        }


class ViolationSurgeRule(AlertRule):
    """Summed violation deltas over the window crossed the threshold."""

    name = "violation-surge"
    default_severity = "critical"

    def __init__(self, threshold: float = 10, window: float = 30.0,
                 min_events: int = 1, severity: Optional[str] = None):
        super().__init__(threshold, window, min_events, severity)
        self._deltas: deque = deque()

    def observe(self, doc: dict) -> Optional[dict]:
        if doc["kind"] != "violation-delta":
            return None
        now = doc["ts"]
        count = sum(doc["data"].get("deltas", {}).values())
        self._deltas.append((now, count))
        self._prune(self._deltas, now)
        total = sum(count for _, count in self._deltas)
        if len(self._deltas) < self.min_events or total < self.threshold:
            return None
        return {
            "violations": total,
            "reports": len(self._deltas),
            "message": (f"{total} runtime violations across "
                        f"{len(self._deltas)} reports in "
                        f"{self.window:g}s >= {self.threshold:g}"),
        }


class ReplayBurstRule(AlertRule):
    """Several replay/forged-MAC quarantines inside one window."""

    name = "replay-burst"
    default_severity = "critical"

    def __init__(self, threshold: float = 3, window: float = 30.0,
                 min_events: int = 1, severity: Optional[str] = None):
        super().__init__(threshold, window, min_events, severity)
        self._hits: deque = deque()

    def observe(self, doc: dict) -> Optional[dict]:
        if doc["kind"] != "quarantine":
            return None
        reason = doc["data"].get("reason", "")
        if reason not in REPLAY_REASONS:
            return None
        now = doc["ts"]
        self._hits.append((now, reason))
        self._prune(self._hits, now)
        if len(self._hits) < max(self.threshold, self.min_events):
            return None
        reasons: Dict[str, int] = {}
        for _, hit_reason in self._hits:
            reasons[hit_reason] = reasons.get(hit_reason, 0) + 1
        return {
            "quarantines": len(self._hits),
            "reasons": reasons,
            "message": (f"{len(self._hits)} replay/forged-MAC "
                        f"quarantines in {self.window:g}s "
                        f"(>= {self.threshold:g}): active attacker"),
        }


RULE_REGISTRY = {
    QuarantineRateRule.name: QuarantineRateRule,
    WaveStallRule.name: WaveStallRule,
    ViolationSurgeRule.name: ViolationSurgeRule,
    ReplayBurstRule.name: ReplayBurstRule,
}


def default_rules() -> List[AlertRule]:
    """One of each built-in rule at its default threshold."""
    return [rule_cls() for rule_cls in RULE_REGISTRY.values()]


def build_rules(config: Optional[dict]) -> List[AlertRule]:
    """Rules from a ``FleetSpec.alerts``-shaped mapping.

    ``None`` -> every default rule.  Otherwise each key names a rule;
    its value is ``False`` (drop the rule), ``True``/``None`` (keep
    the defaults), a number (override the threshold) or a dict of
    constructor overrides (``threshold`` / ``window`` / ``min_events``
    / ``severity``).  Unnamed rules keep their defaults -- the config
    adjusts the panel, it does not have to restate it.
    """
    if config is None:
        return default_rules()
    rules: List[AlertRule] = []
    for name, rule_cls in RULE_REGISTRY.items():
        value = config.get(name, True)
        if value is False:
            continue
        if value is True or value is None:
            rules.append(rule_cls())
        elif isinstance(value, dict):
            rules.append(rule_cls(**value))
        else:
            rules.append(rule_cls(threshold=value))
    return rules


class AlertEngine:
    """Evaluate rules against an event stream; latch and log alerts.

    Live use: ``engine.attach(log)`` subscribes to the log's bus and
    every future emission is evaluated; a tripped rule appends an
    ``alert`` event to the same log (severity, rule context, human
    message) and remembers it on ``engine.fired``.  Offline use:
    ``engine.replay(log)`` runs the stored history through the same
    rules without writing anything -- what `fleet alerts` does to a
    log recorded without an engine.

    A disabled engine does not subscribe, so the emission hot path
    pays nothing for alerting that is switched off (the bench_micro
    gate pins exactly that).
    """

    def __init__(self, rules: Optional[List[AlertRule]] = None,
                 enabled: bool = True):
        self.rules = list(rules) if rules is not None else default_rules()
        self.enabled = enabled
        self.log = None
        self.fired: List[dict] = []
        self._latched: set = set()
        self._subscription = None

    # ---- wiring ----------------------------------------------------------

    def attach(self, log) -> "AlertEngine":
        """Subscribe to *log*'s bus; tripped rules emit into *log*."""
        self.log = log
        if self.enabled and self._subscription is None:
            self._subscription = log.bus.subscribe(self.observe)
        return self

    def detach(self):
        if self._subscription is not None and self.log is not None:
            self.log.bus.unsubscribe(self._subscription)
        self._subscription = None
        self.log = None

    # ---- evaluation ------------------------------------------------------

    def observe(self, doc: dict):
        """Evaluate one event document against every rule."""
        if not self.enabled or doc["kind"] == "alert":
            return  # never alert on alerts (self-feedback)
        for rule in self.rules:
            context = rule.observe(doc)
            if context is None:
                continue
            key = (rule.name, doc["campaign"])
            if key in self._latched:
                continue  # one alert per rule per campaign
            self._latched.add(key)
            payload = {"rule": rule.name, "severity": rule.severity,
                       "threshold": rule.threshold, **context}
            record = {"campaign": doc["campaign"], "ts": doc["ts"],
                      "trigger_seq": doc["seq"], **payload}
            self.fired.append(record)
            if self.log is not None:
                # Re-enters the log's emit() -- safe, because the bus
                # publishes outside the log lock and kind "alert" is
                # ignored above.
                self.log.emit("alert", campaign=doc["campaign"], **payload)

    def replay(self, log) -> List[dict]:
        """Run a stored log through the rules (no writes); return fired."""
        for doc in log.events():
            self.observe(doc)
        return self.fired
