"""Declarative scenario descriptions: the input half of the public API.

A :class:`ScenarioSpec` is a plain, JSON-serialisable description of
one workload -- *what* to build and run, never *how*.  Three workload
shapes fall out of its optional fields:

* **run**    -- firmware (a registered Table IV app, mini-C text, or
  raw assembly) executed on one device at a security level;
* **attack** -- one scenario from :mod:`repro.attacks` launched
  against the standard victim at a security level;
* **fleet**  -- N devices sharing one firmware image, enrolled and
  managed by the verifier, optionally with a staged rollout.

Every spec round-trips through ``to_dict``/``from_dict`` (and the
JSON convenience wrappers) without loss, and ``validate()`` raises
:class:`SpecError` naming the exact offending field, so a config file
typo fails loudly instead of silently running the wrong scenario.
"""

import json
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.errors import ReproError

SCHEMA = "eilid.scenario"
SPEC_VERSION = 1

FIRMWARE_KINDS = ("app", "minicc", "asm")
VARIANTS = ("original", "eilid")
SECURITY_PROFILES = ("none", "casu", "eilid")

# Declarative peripheral stimulus: name -> the JSON-safe config keys
# its factory understands (see repro.api.session.build_peripherals).
PERIPHERAL_CONFIG_KEYS = {
    "gpio": ("inputs",),
    "timer": (),
    "adc": ("channels", "hold"),
    "uart": ("rx", "rx_irq"),
    "lcd": (),
    "ultrasonic": ("echo_widths",),
    "harness": (),
}
PERIPHERAL_NAMES = tuple(PERIPHERAL_CONFIG_KEYS)


class SpecError(ReproError, ValueError):
    """A scenario field failed validation; ``.field`` names it.

    A :class:`ReproError`, like every typed error at an input boundary,
    and still a ``ValueError`` for callers that catch that.
    """

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        super().__init__(f"{field_name}: {message}")


def _check_keys(data: dict, allowed, field_name: str):
    _require(isinstance(data, dict), field_name,
             f"must be a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise SpecError(
            field_name,
            f"unknown key(s) {', '.join(map(repr, unknown))}; "
            f"accepted: {', '.join(sorted(allowed))}")


def _require(condition, field_name, message):
    if not condition:
        raise SpecError(field_name, message)


# ---- firmware ---------------------------------------------------------------


@dataclass(frozen=True)
class FirmwareSpec:
    """What runs on the device(s): one of three source kinds.

    * ``kind="app"``    -- *app* names a registered Table IV application;
    * ``kind="minicc"`` -- *source* is mini-C text, compiled on build;
    * ``kind="asm"``    -- *source* is raw assembly.  ``link_rom``
      additionally links the trusted ROM (needed for the secure-update
      routine); ``variant="eilid"`` runs the instrumenter over it.
    """

    kind: str = "app"
    app: Optional[str] = None
    source: Optional[str] = None
    variant: str = "eilid"
    name: str = "scenario"
    link_rom: bool = True

    def validate(self, prefix="firmware"):
        _require(self.kind in FIRMWARE_KINDS, f"{prefix}.kind",
                 f"unknown firmware kind {self.kind!r}; "
                 f"one of {', '.join(FIRMWARE_KINDS)}")
        _require(self.variant in VARIANTS, f"{prefix}.variant",
                 f"unknown variant {self.variant!r}; "
                 f"one of {', '.join(VARIANTS)}")
        if self.kind == "app":
            _require(self.app, f"{prefix}.app",
                     "a registered application name is required "
                     "when kind is 'app'")
            from repro.apps.registry import APPS

            _require(self.app in APPS, f"{prefix}.app",
                     f"unknown application {self.app!r}; "
                     f"one of {', '.join(sorted(APPS))}")
            _require(self.source is None, f"{prefix}.source",
                     "must be omitted when kind is 'app'")
        else:
            _require(self.source, f"{prefix}.source",
                     f"source text is required when kind is {self.kind!r}")
            _require(self.app is None, f"{prefix}.app",
                     f"must be omitted when kind is {self.kind!r}")
        return self

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "app": self.app,
            "source": self.source,
            "variant": self.variant,
            "name": self.name,
            "link_rom": self.link_rom,
        }

    @staticmethod
    def from_dict(data: dict, prefix="firmware") -> "FirmwareSpec":
        _check_keys(data, ("kind", "app", "source", "variant", "name",
                           "link_rom"), prefix)
        return FirmwareSpec(
            kind=data.get("kind", "app"),
            app=data.get("app"),
            source=data.get("source"),
            variant=data.get("variant", "eilid"),
            name=data.get("name", "scenario"),
            link_rom=data.get("link_rom", True),
        )


# ---- evidence / execution limits --------------------------------------------


@dataclass(frozen=True)
class LimitsSpec:
    """Evidence bounds and run budgets (None = device defaults)."""

    max_events: Optional[int] = None
    trace_capacity: Optional[int] = None
    decode_cache: Optional[bool] = None
    max_cycles: int = 2_000_000
    max_steps: Optional[int] = None

    def validate(self, prefix="limits"):
        if self.max_events is not None:
            _require(self.max_events >= 1, f"{prefix}.max_events",
                     "must be >= 1")
        if self.trace_capacity is not None:
            _require(self.trace_capacity >= 0, f"{prefix}.trace_capacity",
                     "must be >= 0 (0 disables recording)")
        _require(self.max_cycles > 0, f"{prefix}.max_cycles", "must be > 0")
        if self.max_steps is not None:
            _require(self.max_steps > 0, f"{prefix}.max_steps", "must be > 0")
        return self

    def device_kwargs(self) -> dict:
        """The knobs forwarded to :class:`repro.device.Device`."""
        return {
            "max_events": self.max_events,
            "trace_capacity": self.trace_capacity,
            "decode_cache": self.decode_cache,
        }

    def to_dict(self) -> dict:
        return {
            "max_events": self.max_events,
            "trace_capacity": self.trace_capacity,
            "decode_cache": self.decode_cache,
            "max_cycles": self.max_cycles,
            "max_steps": self.max_steps,
        }

    @staticmethod
    def from_dict(data: dict, prefix="limits") -> "LimitsSpec":
        _check_keys(data, ("max_events", "trace_capacity", "decode_cache",
                           "max_cycles", "max_steps"), prefix)
        return LimitsSpec(
            max_events=data.get("max_events"),
            trace_capacity=data.get("trace_capacity"),
            decode_cache=data.get("decode_cache"),
            max_cycles=data.get("max_cycles", 2_000_000),
            max_steps=data.get("max_steps"),
        )


# ---- fleet ------------------------------------------------------------------


@dataclass(frozen=True)
class RolloutSpec:
    """One staged firmware campaign, including adversarial knobs.

    ``backend`` picks the campaign executor: ``"serial"`` offers to the
    live simulated devices in turn, ``"process"`` shards waves across
    ``workers`` processes rebuilt from the firmware spec + fleet seed
    (0 = up to eight, one per CPU).  ``resume`` skips devices whose
    (durable) registry record already shows the target version -- the
    continuation path after a killed campaign.
    """

    version: int = 1
    wave_fractions: Tuple[float, ...] = (0.05, 0.25, 1.0)
    failure_threshold: float = 0.10
    tamper_fraction: float = 0.0
    rollback_fraction: float = 0.0
    workers: int = 0
    verify_after_wave: bool = False
    backend: str = "serial"
    resume: bool = False
    # After every wave's durability flush, write the process metrics
    # snapshot to this path (``.prom`` suffix -> Prometheus text,
    # anything else -> the JSON envelope; atomic replace either way).
    metrics_dump: Optional[str] = None

    def validate(self, prefix="fleet.rollout"):
        from repro.fleet.campaign import CAMPAIGN_BACKENDS

        _require(self.version >= 1, f"{prefix}.version", "must be >= 1")
        _require(self.backend in CAMPAIGN_BACKENDS, f"{prefix}.backend",
                 f"unknown backend {self.backend!r}; "
                 f"one of {', '.join(CAMPAIGN_BACKENDS)}")
        fractions = tuple(self.wave_fractions)
        _require(fractions and sorted(fractions) == list(fractions),
                 f"{prefix}.wave_fractions", "must be increasing")
        _require(all(0.0 < fraction <= 1.0 for fraction in fractions),
                 f"{prefix}.wave_fractions",
                 "every wave fraction must be in (0, 1]")
        _require(fractions and fractions[-1] == 1.0,
                 f"{prefix}.wave_fractions",
                 "the final wave must cover the whole fleet (1.0)")
        _require(0.0 <= self.failure_threshold <= 1.0,
                 f"{prefix}.failure_threshold", "must be in [0, 1]")
        for name in ("tamper_fraction", "rollback_fraction"):
            _require(0.0 <= getattr(self, name) <= 1.0,
                     f"{prefix}.{name}", "must be in [0, 1]")
        _require(self.workers >= 0, f"{prefix}.workers", "must be >= 0")
        if self.metrics_dump is not None:
            _require(isinstance(self.metrics_dump, str) and self.metrics_dump,
                     f"{prefix}.metrics_dump",
                     "must be a non-empty path string")
        return self

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "wave_fractions": list(self.wave_fractions),
            "failure_threshold": self.failure_threshold,
            "tamper_fraction": self.tamper_fraction,
            "rollback_fraction": self.rollback_fraction,
            "workers": self.workers,
            "verify_after_wave": self.verify_after_wave,
            "backend": self.backend,
            "resume": self.resume,
            "metrics_dump": self.metrics_dump,
        }

    @staticmethod
    def from_dict(data: dict, prefix="fleet.rollout") -> "RolloutSpec":
        _check_keys(data, ("version", "wave_fractions", "failure_threshold",
                           "tamper_fraction", "rollback_fraction", "workers",
                           "verify_after_wave", "backend", "resume",
                           "metrics_dump"), prefix)
        return RolloutSpec(
            version=data.get("version", 1),
            wave_fractions=tuple(data.get("wave_fractions", (0.05, 0.25, 1.0))),
            failure_threshold=data.get("failure_threshold", 0.10),
            tamper_fraction=data.get("tamper_fraction", 0.0),
            rollback_fraction=data.get("rollback_fraction", 0.0),
            workers=data.get("workers", 0),
            verify_after_wave=data.get("verify_after_wave", False),
            backend=data.get("backend", "serial"),
            resume=data.get("resume", False),
            metrics_dump=data.get("metrics_dump"),
        )


# ---- fault sweeps -----------------------------------------------------------


@dataclass(frozen=True)
class FaultSpec:
    """One seeded fault-injection sweep (see :mod:`repro.faults`).

    ``count=None`` sweeps every enumerated site; ``kinds``/``profiles``
    default to the full set.  The default ``backend="serial"`` grades
    the faults in this process; ``backend="process"`` runs the sweep on
    a pool of ``workers`` processes by shipping device snapshots to
    them.  ``warmup_steps`` advances the honest device before the
    snapshot is taken, so faults land mid-workload instead of at reset.
    """

    seed: int = 0
    count: Optional[int] = None
    kinds: Tuple[str, ...] = ("imem-flip", "insn-skip", "reg-corrupt",
                              "periph-corrupt")
    profiles: Tuple[str, ...] = ("none", "casu", "eilid")
    backend: str = "serial"
    workers: int = 4
    warmup_steps: int = 0
    max_cycles: int = 2_000_000

    def validate(self, prefix="faults"):
        from repro.faults.campaign import FAULT_BACKENDS, FAULT_PROFILES
        from repro.faults.sites import FAULT_KINDS

        _require(_int_like(self.seed) and self.seed >= 0,
                 f"{prefix}.seed", "must be an integer >= 0")
        if self.count is not None:
            _require(_int_like(self.count) and self.count >= 1,
                     f"{prefix}.count", "must be an integer >= 1 (or null "
                     "to sweep every site)")
        _require(len(self.kinds) > 0, f"{prefix}.kinds",
                 "at least one fault kind is required")
        unknown = sorted(set(self.kinds) - set(FAULT_KINDS))
        _require(not unknown, f"{prefix}.kinds",
                 f"unknown fault kind(s) {', '.join(map(repr, unknown))}; "
                 f"one of {', '.join(FAULT_KINDS)}")
        _require(len(self.profiles) > 0, f"{prefix}.profiles",
                 "at least one defense profile is required")
        unknown = sorted(set(self.profiles) - set(FAULT_PROFILES))
        _require(not unknown, f"{prefix}.profiles",
                 f"unknown profile(s) {', '.join(map(repr, unknown))}; "
                 f"one of {', '.join(FAULT_PROFILES)}")
        _require(self.backend in FAULT_BACKENDS, f"{prefix}.backend",
                 f"unknown backend {self.backend!r}; "
                 f"one of {', '.join(FAULT_BACKENDS)}")
        _require(_int_like(self.workers) and self.workers >= 1,
                 f"{prefix}.workers", "must be an integer >= 1")
        _require(_int_like(self.warmup_steps) and self.warmup_steps >= 0,
                 f"{prefix}.warmup_steps", "must be an integer >= 0")
        _require(_int_like(self.max_cycles) and self.max_cycles >= 1,
                 f"{prefix}.max_cycles", "must be an integer >= 1")
        return self

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "count": self.count,
            "kinds": list(self.kinds),
            "profiles": list(self.profiles),
            "backend": self.backend,
            "workers": self.workers,
            "warmup_steps": self.warmup_steps,
            "max_cycles": self.max_cycles,
        }

    @staticmethod
    def from_dict(data: dict, prefix="faults") -> "FaultSpec":
        _check_keys(data, ("seed", "count", "kinds", "profiles", "backend",
                           "workers", "warmup_steps", "max_cycles"), prefix)
        spec = FaultSpec(
            seed=data.get("seed", 0),
            count=data.get("count"),
            kinds=tuple(data.get("kinds", FaultSpec.kinds)),
            profiles=tuple(data.get("profiles", FaultSpec.profiles)),
            backend=data.get("backend", "serial"),
            workers=data.get("workers", 4),
            warmup_steps=data.get("warmup_steps", 0),
            max_cycles=data.get("max_cycles", 2_000_000),
        )
        return spec


# ---- static analysis --------------------------------------------------------


@dataclass(frozen=True)
class AnalyzeSpec:
    """One static-analysis run over the scenario's firmware image.

    ``rules`` selects the rule groups (default: all of them --
    ``stack``, ``regions``, ``coverage``); ``stack_margin`` is the
    minimum stack headroom (bytes) below which the stack rule warns;
    ``irq_nesting`` is the worst-case number of nested interrupts the
    stack bound assumes.
    """

    rules: Tuple[str, ...] = ("stack", "regions", "coverage")
    stack_margin: int = 64
    irq_nesting: int = 1

    def validate(self, prefix="analyze"):
        from repro.analyze.runner import RULE_GROUPS

        _require(len(self.rules) > 0, f"{prefix}.rules",
                 "at least one rule group is required")
        unknown = sorted(set(self.rules) - set(RULE_GROUPS))
        _require(not unknown, f"{prefix}.rules",
                 f"unknown rule group(s) {', '.join(map(repr, unknown))}; "
                 f"one of {', '.join(RULE_GROUPS)}")
        _require(_int_like(self.stack_margin) and self.stack_margin >= 0,
                 f"{prefix}.stack_margin", "must be an integer >= 0")
        _require(_int_like(self.irq_nesting) and self.irq_nesting >= 0,
                 f"{prefix}.irq_nesting", "must be an integer >= 0")
        return self

    def to_dict(self) -> dict:
        return {
            "rules": list(self.rules),
            "stack_margin": self.stack_margin,
            "irq_nesting": self.irq_nesting,
        }

    @staticmethod
    def from_dict(data: dict, prefix="analyze") -> "AnalyzeSpec":
        _check_keys(data, ("rules", "stack_margin", "irq_nesting"), prefix)
        return AnalyzeSpec(
            rules=tuple(data.get("rules", AnalyzeSpec.rules)),
            stack_margin=data.get("stack_margin", 64),
            irq_nesting=data.get("irq_nesting", 1),
        )


_ALERT_OVERRIDE_KEYS = ("threshold", "window", "min_events", "severity")


def _validate_alerts(alerts, prefix: str):
    """Value-shape checks for ``FleetSpec.alerts`` (see its docstring)."""
    from repro.obs.alerts import RULE_REGISTRY

    if alerts is True:
        return
    _require(isinstance(alerts, dict), prefix,
             "must be True (default rules) or a {rule: config} mapping")
    for name, value in alerts.items():
        _require(name in RULE_REGISTRY, f"{prefix}.{name}",
                 f"unknown alert rule; one of {', '.join(RULE_REGISTRY)}")
        if isinstance(value, bool) or value is None:
            continue
        if isinstance(value, (int, float)):
            continue
        _require(isinstance(value, dict), f"{prefix}.{name}",
                 "must be a bool, a threshold number, or an override dict")
        for key, override in value.items():
            _require(key in _ALERT_OVERRIDE_KEYS, f"{prefix}.{name}.{key}",
                     f"unknown override; one of "
                     f"{', '.join(_ALERT_OVERRIDE_KEYS)}")
            if key == "severity":
                _require(isinstance(override, str) and override,
                         f"{prefix}.{name}.severity",
                         "must be a non-empty string")
            else:
                _require(isinstance(override, (int, float))
                         and not isinstance(override, bool),
                         f"{prefix}.{name}.{key}", "must be a number")
        if "window" in value:
            _require(value["window"] > 0, f"{prefix}.{name}.window",
                     "must be > 0 seconds")
        if "min_events" in value:
            _require(value["min_events"] >= 1, f"{prefix}.{name}.min_events",
                     "must be >= 1")


@dataclass(frozen=True)
class FleetSpec:
    """Shape of a managed-fleet scenario (devices share one image).

    ``store`` makes the verifier's registry durable: a filesystem path
    (``.db``/``.sqlite`` -> SQLite, anything else -> JSON lines) that
    device records -- lifecycle, versions, nonce high-water marks --
    are persisted to and restored from across process restarts.

    ``events`` does the same for the longitudinal telemetry log (same
    suffix dispatch); without it the fleet still records events, but
    only in memory for the life of the process.

    ``alerts`` switches the live alert engine on over that event
    stream: ``True`` attaches the default rule panel, a dict tunes it
    per rule -- each key a rule name (``quarantine-rate``,
    ``wave-stall``, ``violation-surge``, ``replay-burst``), each value
    ``False`` (drop), ``True`` (defaults), a number (threshold
    override) or a dict of ``threshold``/``window``/``min_events``/
    ``severity`` overrides.
    """

    size: int = 100
    loss: float = 0.0
    reorder: float = 0.0
    seed: int = 0
    max_attempts: int = 4
    verify_traces: bool = False
    run_cycles: int = 2_000
    store: Optional[str] = None
    events: Optional[str] = None
    alerts: Optional[object] = None
    rollout: Optional[RolloutSpec] = None

    def validate(self, prefix="fleet"):
        _require(self.size >= 0, f"{prefix}.size", "must be >= 0")
        for name in ("loss", "reorder"):
            _require(0.0 <= getattr(self, name) <= 1.0,
                     f"{prefix}.{name}", "must be in [0, 1]")
        _require(self.max_attempts >= 1, f"{prefix}.max_attempts",
                 "must be >= 1")
        _require(self.run_cycles >= 0, f"{prefix}.run_cycles", "must be >= 0")
        if self.store is not None:
            _require(isinstance(self.store, str) and self.store,
                     f"{prefix}.store", "must be a non-empty path string")
        if self.events is not None:
            _require(isinstance(self.events, str) and self.events,
                     f"{prefix}.events", "must be a non-empty path string")
        if self.alerts is not None:
            _validate_alerts(self.alerts, f"{prefix}.alerts")
        if self.rollout is not None:
            self.rollout.validate(f"{prefix}.rollout")
        return self

    def to_dict(self) -> dict:
        return {
            "size": self.size,
            "loss": self.loss,
            "reorder": self.reorder,
            "seed": self.seed,
            "max_attempts": self.max_attempts,
            "verify_traces": self.verify_traces,
            "run_cycles": self.run_cycles,
            "store": self.store,
            "events": self.events,
            "alerts": self.alerts,
            "rollout": None if self.rollout is None else self.rollout.to_dict(),
        }

    @staticmethod
    def from_dict(data: dict, prefix="fleet") -> "FleetSpec":
        _check_keys(data, ("size", "loss", "reorder", "seed", "max_attempts",
                           "verify_traces", "run_cycles", "store", "events",
                           "alerts", "rollout"),
                    prefix)
        rollout = data.get("rollout")
        return FleetSpec(
            size=data.get("size", 100),
            loss=data.get("loss", 0.0),
            reorder=data.get("reorder", 0.0),
            seed=data.get("seed", 0),
            max_attempts=data.get("max_attempts", 4),
            verify_traces=data.get("verify_traces", False),
            run_cycles=data.get("run_cycles", 2_000),
            store=data.get("store"),
            events=data.get("events"),
            alerts=data.get("alerts"),
            rollout=None if rollout is None
            else RolloutSpec.from_dict(rollout, f"{prefix}.rollout"),
        )


# ---- peripheral config value shapes -----------------------------------------


def _int_like(value) -> bool:
    if isinstance(value, bool):
        return False
    if isinstance(value, int):
        return True
    if isinstance(value, str):
        try:
            int(value)
        except ValueError:
            return False
        return True
    return False


def _require_int_list(values, field_name, what):
    _require(isinstance(values, (list, tuple)) and values
             and all(_int_like(v) for v in values),
             field_name, f"{what} must be a non-empty list of integers")


def _validate_peripheral_config(name: str, config: dict):
    """Value-shape checks, so a typo'd document fails at validate()
    with a field-naming SpecError instead of a mid-run traceback."""
    prefix = f"peripherals.{name}"
    if name == "gpio" and "inputs" in config:
        _require_int_list(config["inputs"], f"{prefix}.inputs", "inputs")
    elif name == "adc":
        channels = config.get("channels")
        if channels is not None:
            _require(isinstance(channels, dict), f"{prefix}.channels",
                     "must map channel numbers to sample lists")
            for channel, values in channels.items():
                _require(_int_like(channel), f"{prefix}.channels",
                         f"channel key {channel!r} must be an integer")
                _require_int_list(values, f"{prefix}.channels",
                                  f"channel {channel} samples")
        if "hold" in config:
            _require(_int_like(config["hold"]) and int(config["hold"]) >= 1,
                     f"{prefix}.hold", "must be an integer >= 1")
    elif name == "uart":
        rx = config.get("rx")
        if rx is not None:
            _require(isinstance(rx, (list, tuple)), f"{prefix}.rx",
                     "must be a list of [cycle, byte] pairs")
            for entry in rx:
                _require(isinstance(entry, (list, tuple)) and len(entry) == 2
                         and all(_int_like(v) for v in entry),
                         f"{prefix}.rx",
                         f"entry {entry!r} must be a [cycle, byte] pair")
        if "rx_irq" in config:
            _require(isinstance(config["rx_irq"], bool), f"{prefix}.rx_irq",
                     "must be a boolean")
    elif name == "ultrasonic" and "echo_widths" in config:
        _require_int_list(config["echo_widths"], f"{prefix}.echo_widths",
                          "echo_widths")


# ---- the scenario -----------------------------------------------------------


@dataclass
class ScenarioSpec:
    """One complete scenario: firmware + security + stimulus + shape.

    ``workload`` is derived, never stored: ``"fleet"`` when *fleet* is
    set, ``"attack"`` when *attack* is set, ``"run"`` otherwise.
    """

    name: str = "scenario"
    firmware: FirmwareSpec = FirmwareSpec()
    security: str = "eilid"
    peripherals: Dict[str, dict] = field(default_factory=dict)
    attack: Optional[str] = None
    limits: LimitsSpec = LimitsSpec()
    fleet: Optional[FleetSpec] = None

    @property
    def workload(self) -> str:
        if self.fleet is not None:
            return "fleet"
        if self.attack is not None:
            return "attack"
        return "run"

    # ---- validation -------------------------------------------------------

    def validate(self) -> "ScenarioSpec":
        _require(isinstance(self.name, str) and self.name, "name",
                 "must be a non-empty string")
        _require(self.security in SECURITY_PROFILES, "security",
                 f"unknown security profile {self.security!r}; "
                 f"one of {', '.join(SECURITY_PROFILES)}")
        _require(not (self.attack and self.fleet), "attack",
                 "a scenario is either an attack or a fleet, not both")
        if self.attack is not None:
            from repro.attacks import ATTACKS

            _require(self.attack in ATTACKS, "attack",
                     f"unknown attack {self.attack!r}; "
                     f"one of {', '.join(sorted(ATTACKS))}")
            # The attack harness owns its firmware, peripherals and
            # execution budget; reject customisation rather than
            # silently running something other than what was asked for.
            _require(not self.peripherals, "peripherals",
                     "attack scenarios use the victim's fixed peripherals")
            _require(self.firmware == FirmwareSpec(), "firmware",
                     "attack scenarios run the attack's own firmware; "
                     "leave firmware unset")
            _require(self.limits == LimitsSpec(), "limits",
                     "attack scenarios use the harness's execution "
                     "budget; leave limits unset")
        elif self.fleet is not None:
            self.fleet.validate()
            _require(not self.peripherals, "peripherals",
                     "fleet devices use the firmware's default peripherals")
            # Any deviation from the default means the author is trying
            # to pick the fleet image: validate it fully rather than
            # silently falling back to the built-in fleet-node app.
            if self.firmware != FirmwareSpec():
                self.firmware.validate()
        else:
            self.firmware.validate()
        self._validate_peripherals()
        self.limits.validate()
        return self

    def _validate_peripherals(self):
        _require(isinstance(self.peripherals, dict), "peripherals",
                 "must be a mapping of peripheral name to config")
        for name, config in self.peripherals.items():
            _require(name in PERIPHERAL_NAMES, "peripherals",
                     f"malformed peripheral name {name!r}; "
                     f"one of {', '.join(PERIPHERAL_NAMES)}")
            _require(isinstance(config, dict), f"peripherals.{name}",
                     "config must be a mapping")
            _check_keys(config, PERIPHERAL_CONFIG_KEYS[name],
                        f"peripherals.{name}")
            _validate_peripheral_config(name, config)

    # ---- serialisation ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "version": SPEC_VERSION,
            "name": self.name,
            "firmware": self.firmware.to_dict(),
            "security": self.security,
            "peripherals": {name: dict(config)
                            for name, config in self.peripherals.items()},
            "attack": self.attack,
            "limits": self.limits.to_dict(),
            "fleet": None if self.fleet is None else self.fleet.to_dict(),
        }

    def to_json(self, indent=None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @staticmethod
    def from_dict(data: dict) -> "ScenarioSpec":
        _require(isinstance(data, dict), "scenario",
                 "a scenario document must be a mapping")
        _check_keys(data, ("schema", "version", "name", "firmware",
                           "security", "peripherals", "attack", "limits",
                           "fleet"), "scenario")
        schema = data.get("schema", SCHEMA)
        _require(schema == SCHEMA, "schema",
                 f"unsupported schema {schema!r}; expected {SCHEMA!r}")
        version = data.get("version", SPEC_VERSION)
        _require(isinstance(version, int) and 1 <= version <= SPEC_VERSION,
                 "version", f"unsupported spec version {version!r}")
        fleet = data.get("fleet")
        return ScenarioSpec(
            name=data.get("name", "scenario"),
            firmware=FirmwareSpec.from_dict(data.get("firmware", {})),
            security=data.get("security", "eilid"),
            peripherals=data.get("peripherals", {}) or {},
            attack=data.get("attack"),
            limits=LimitsSpec.from_dict(data.get("limits", {})),
            fleet=None if fleet is None else FleetSpec.from_dict(fleet),
        )

    @staticmethod
    def from_json(text: str) -> "ScenarioSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise SpecError("scenario", f"not valid JSON: {error}") from None
        return ScenarioSpec.from_dict(data)

    def with_(self, **changes) -> "ScenarioSpec":
        """A modified copy (specs are cheap value objects)."""
        return replace(self, **changes)


def as_spec(spec) -> "ScenarioSpec":
    """Coerce a ScenarioSpec / dict / JSON string into a ScenarioSpec."""
    if isinstance(spec, ScenarioSpec):
        return spec
    if isinstance(spec, dict):
        return ScenarioSpec.from_dict(spec)
    if isinstance(spec, str):
        return ScenarioSpec.from_json(spec)
    raise SpecError("scenario",
                    f"expected a ScenarioSpec, dict or JSON string, "
                    f"got {type(spec).__name__}")
