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

Each spec dataclass's field list is the one place its keys, defaults
and value types are written: ``to_dict``/``from_dict`` (and the JSON
convenience wrappers) are derived from it and round-trip without loss,
and ``validate()`` checks every value against its annotation before
the spec's own range and membership rules.  Either way a bad field
raises :class:`SpecError` naming it, so a config file typo fails
loudly instead of silently running the wrong scenario.
"""

import json
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Optional, Tuple, Union, get_args, get_origin

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
        self.detail = message
        super().__init__(f"{field_name}: {message}")


def require(condition, field_name, message):
    if not condition:
        raise SpecError(field_name, message)


def _check_keys(data: dict, allowed, field_name: str):
    require(isinstance(data, dict), field_name,
            f"must be a JSON object, got {_json_type(data)}")
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise SpecError(
            field_name,
            f"unknown key(s) {', '.join(map(repr, unknown))}; "
            f"accepted: {', '.join(sorted(allowed))}")


# ---- fields: the one declaration of each key, default and type -------------


def _json_value(value):
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if isinstance(value, (tuple, list)):
        return [_json_value(item) for item in value]
    if isinstance(value, dict):
        return {key: _json_value(item) for key, item in value.items()}
    return value


def fields_to_dict(obj, **computed) -> dict:
    """*obj*'s dataclass fields as a JSON object, in declaration order.

    Tuples become lists and nested specs or results their own
    ``to_dict()``.  *computed* keys replace a field's value in place
    (a rounding) or follow the fields (a derived property).
    """
    doc = {f.name: _json_value(getattr(obj, f.name)) for f in fields(obj)}
    doc.update(computed)
    return doc


def _path(prefix: str, name: str) -> str:
    return f"{prefix}.{name}" if prefix else name


def _nested_spec(annotation):
    """The spec class *annotation* names, through ``Optional``."""
    for kind in (annotation, *get_args(annotation)):
        if isinstance(kind, type) and issubclass(kind, _Spec):
            return kind
    return None


def fields_from_dict(cls, data, prefix: str):
    """Build spec class *cls* from a JSON object naming only its fields.

    An omitted key keeps the field default, a list becomes a tuple
    where one is declared, and a nested spec parses under its field
    path (``fleet.rollout``).  Values are checked by ``validate()``.
    """
    _check_keys(data, [f.name for f in fields(cls)], prefix or "scenario")
    values = {}
    for spec_field in fields(cls):
        if spec_field.name not in data:
            continue
        value = data[spec_field.name]
        nested = _nested_spec(spec_field.type)
        if nested is not None and value is not None:
            value = fields_from_dict(nested, value,
                                     _path(prefix, spec_field.name))
        elif isinstance(value, list) and get_origin(spec_field.type) is tuple:
            value = tuple(value)
        values[spec_field.name] = value
    return cls(**values)


_JSON_TYPES = {type(None): "null", bool: "boolean", int: "integer",
               float: "number", str: "string", list: "list", tuple: "list",
               dict: "object"}


def _json_type(value) -> str:
    return _JSON_TYPES.get(type(value), type(value).__name__)


def _fits(annotation, value) -> bool:
    """Does *value* have the type *annotation* declares?

    A bool is never a number, an int is a float, ``Optional`` admits
    None, ``Tuple[X, ...]`` wants a list or tuple of X, and ``object``
    admits anything (its field's validator owns the shape).
    """
    origin = get_origin(annotation)
    if origin is Union:
        return any(_fits(kind, value) for kind in get_args(annotation))
    if origin is tuple:
        item = get_args(annotation)[0]
        return (isinstance(value, (list, tuple))
                and all(_fits(item, entry) for entry in value))
    if origin is dict:
        return isinstance(value, dict)
    if annotation is object:
        return True
    if annotation is type(None):
        return value is None
    if isinstance(value, bool):
        return annotation is bool
    if annotation is float:
        return isinstance(value, (int, float))
    return isinstance(value, annotation)


def _describe(annotation) -> str:
    """'an integer', 'a list of strings', 'a string or null', ..."""
    origin = get_origin(annotation)
    if origin is Union:
        return " or ".join(_describe(kind) for kind in get_args(annotation))
    if origin is tuple:
        return f"a list of {_JSON_TYPES[get_args(annotation)[0]]}s"
    if annotation is type(None):
        return "null"
    name = _JSON_TYPES.get(annotation, "object")
    return f"{'an' if name[0] in 'aeiou' else 'a'} {name}"


def check_field_types(obj, prefix: str = ""):
    """Raise :class:`SpecError` naming the first field of dataclass
    *obj* whose value does not fit its annotation."""
    for spec_field in fields(obj):
        value = getattr(obj, spec_field.name)
        require(_fits(spec_field.type, value),
                _path(prefix, spec_field.name),
                f"must be {_describe(spec_field.type)}, "
                f"got {_json_type(value)}")


class _Spec:
    """Field-derived ``to_dict``/``from_dict`` and type-checked
    ``validate()`` for the spec dataclasses.

    ``PREFIX`` is the field path a spec parses and validates under
    when it stands alone; subclasses add their range and membership
    rules in ``_check``.
    """

    PREFIX = ""

    def to_dict(self) -> dict:
        return fields_to_dict(self)

    @classmethod
    def from_dict(cls, data, prefix: Optional[str] = None):
        return fields_from_dict(
            cls, data, cls.PREFIX if prefix is None else prefix)

    def validate(self, prefix: Optional[str] = None):
        prefix = self.PREFIX if prefix is None else prefix
        check_field_types(self, prefix)
        self._check(prefix)
        return self

    def _check(self, prefix: str):
        pass


# ---- firmware ---------------------------------------------------------------


@dataclass(frozen=True)
class FirmwareSpec(_Spec):
    """What runs on the device(s): one of three source kinds.

    * ``kind="app"``    -- *app* names a registered Table IV application;
    * ``kind="minicc"`` -- *source* is mini-C text, compiled on build;
    * ``kind="asm"``    -- *source* is raw assembly.  ``link_rom``
      additionally links the trusted ROM (needed for the secure-update
      routine); ``variant="eilid"`` runs the instrumenter over it.
    """

    PREFIX = "firmware"

    kind: str = "app"
    app: Optional[str] = None
    source: Optional[str] = None
    variant: str = "eilid"
    name: str = "scenario"
    link_rom: bool = True

    def _check(self, prefix):
        require(self.kind in FIRMWARE_KINDS, f"{prefix}.kind",
                f"unknown firmware kind {self.kind!r}; "
                f"one of {', '.join(FIRMWARE_KINDS)}")
        require(self.variant in VARIANTS, f"{prefix}.variant",
                f"unknown variant {self.variant!r}; "
                f"one of {', '.join(VARIANTS)}")
        if self.kind == "app":
            require(self.app, f"{prefix}.app",
                    "a registered application name is required "
                    "when kind is 'app'")
            from repro.apps.registry import APPS

            require(self.app in APPS, f"{prefix}.app",
                    f"unknown application {self.app!r}; "
                    f"one of {', '.join(sorted(APPS))}")
            require(self.source is None, f"{prefix}.source",
                    "must be omitted when kind is 'app'")
        else:
            require(self.source, f"{prefix}.source",
                    f"source text is required when kind is {self.kind!r}")
            require(self.app is None, f"{prefix}.app",
                    f"must be omitted when kind is {self.kind!r}")


# ---- evidence / execution limits --------------------------------------------


@dataclass(frozen=True)
class LimitsSpec(_Spec):
    """Evidence bounds and run budgets (None = device defaults)."""

    PREFIX = "limits"

    max_events: Optional[int] = None
    trace_capacity: Optional[int] = None
    decode_cache: Optional[bool] = None
    max_cycles: int = 2_000_000
    max_steps: Optional[int] = None

    def _check(self, prefix):
        if self.max_events is not None:
            require(self.max_events >= 1, f"{prefix}.max_events",
                    "must be >= 1")
        if self.trace_capacity is not None:
            require(self.trace_capacity >= 0, f"{prefix}.trace_capacity",
                    "must be >= 0 (0 disables recording)")
        require(self.max_cycles > 0, f"{prefix}.max_cycles", "must be > 0")
        if self.max_steps is not None:
            require(self.max_steps > 0, f"{prefix}.max_steps", "must be > 0")

    def device_kwargs(self) -> dict:
        """The knobs forwarded to :class:`repro.device.Device`."""
        return {
            "max_events": self.max_events,
            "trace_capacity": self.trace_capacity,
            "decode_cache": self.decode_cache,
        }


# ---- fleet ------------------------------------------------------------------


@dataclass(frozen=True)
class RolloutSpec(_Spec):
    """One staged firmware campaign, including adversarial knobs.

    The campaign offers to the live simulated devices in turn.
    ``resume`` skips devices whose (durable) registry record already
    shows the target version -- the continuation path after a killed
    campaign.  The knobs shared with
    :class:`~repro.fleet.campaign.CampaignConfig` obey its rules.
    """

    PREFIX = "fleet.rollout"

    version: int = 1
    wave_fractions: Tuple[float, ...] = (0.05, 0.25, 1.0)
    failure_threshold: float = 0.10
    tamper_fraction: float = 0.0
    rollback_fraction: float = 0.0
    verify_after_wave: bool = False
    resume: bool = False
    # After every wave's durability flush, write the process metrics
    # snapshot to this path (``.prom`` suffix -> Prometheus text,
    # anything else -> the JSON envelope; atomic replace either way).
    metrics_dump: Optional[str] = None

    def campaign_config(self):
        """The :class:`~repro.fleet.campaign.CampaignConfig` this plan
        runs with; building it applies the shared rollout rules."""
        from repro.fleet.campaign import CampaignConfig

        own = {spec_field.name for spec_field in fields(self)}
        return CampaignConfig(**{
            spec_field.name: getattr(self, spec_field.name)
            for spec_field in fields(CampaignConfig)
            if spec_field.name in own})

    def _check(self, prefix):
        from repro.fleet.campaign import check_target_version

        try:
            check_target_version(self.version)
            self.campaign_config()
        except SpecError as error:
            raise SpecError(f"{prefix}.{error.field}", error.detail) from None
        for name in ("tamper_fraction", "rollback_fraction"):
            require(0.0 <= getattr(self, name) <= 1.0,
                    f"{prefix}.{name}", "must be in [0, 1]")


# ---- fault sweeps -----------------------------------------------------------


@dataclass(frozen=True)
class FaultSpec(_Spec):
    """One seeded fault-injection sweep (see :mod:`repro.faults`).

    ``count=None`` sweeps every enumerated site; ``kinds``/``profiles``
    default to the full set.  The default ``backend="serial"`` grades
    the faults in this process; ``backend="process"`` runs the sweep on
    a pool of ``workers`` processes (0 = up to eight, one per CPU) by
    shipping device snapshots to them.  ``warmup_steps`` advances the
    honest device before the snapshot is taken, so faults land
    mid-workload instead of at reset.
    """

    PREFIX = "faults"

    seed: int = 0
    count: Optional[int] = None
    kinds: Tuple[str, ...] = ("imem-flip", "insn-skip", "reg-corrupt",
                              "periph-corrupt")
    profiles: Tuple[str, ...] = ("none", "casu", "eilid")
    backend: str = "serial"
    workers: int = 0
    warmup_steps: int = 0
    max_cycles: int = 2_000_000

    def _check(self, prefix):
        from repro.faults.campaign import FAULT_BACKENDS, FAULT_PROFILES
        from repro.faults.sites import FAULT_KINDS

        require(self.seed >= 0, f"{prefix}.seed", "must be an integer >= 0")
        if self.count is not None:
            require(self.count >= 1, f"{prefix}.count",
                    "must be an integer >= 1 (or null to sweep every site)")
        require(len(self.kinds) > 0, f"{prefix}.kinds",
                "at least one fault kind is required")
        unknown = sorted(set(self.kinds) - set(FAULT_KINDS))
        require(not unknown, f"{prefix}.kinds",
                f"unknown fault kind(s) {', '.join(map(repr, unknown))}; "
                f"one of {', '.join(FAULT_KINDS)}")
        require(len(self.profiles) > 0, f"{prefix}.profiles",
                "at least one defense profile is required")
        unknown = sorted(set(self.profiles) - set(FAULT_PROFILES))
        require(not unknown, f"{prefix}.profiles",
                f"unknown profile(s) {', '.join(map(repr, unknown))}; "
                f"one of {', '.join(FAULT_PROFILES)}")
        require(self.backend in FAULT_BACKENDS, f"{prefix}.backend",
                f"unknown backend {self.backend!r}; "
                f"one of {', '.join(FAULT_BACKENDS)}")
        require(self.workers >= 0, f"{prefix}.workers",
                "must be an integer >= 0 (0 = auto)")
        require(self.warmup_steps >= 0, f"{prefix}.warmup_steps",
                "must be an integer >= 0")
        require(self.max_cycles >= 1, f"{prefix}.max_cycles",
                "must be an integer >= 1")


# ---- static analysis --------------------------------------------------------


@dataclass(frozen=True)
class AnalyzeSpec(_Spec):
    """One static-analysis run over the scenario's firmware image.

    ``rules`` selects the rule groups (default: all of them --
    ``stack``, ``regions``, ``coverage``); ``stack_margin`` is the
    minimum stack headroom (bytes) below which the stack rule warns;
    ``irq_nesting`` is the worst-case number of nested interrupts the
    stack bound assumes.
    """

    PREFIX = "analyze"

    rules: Tuple[str, ...] = ("stack", "regions", "coverage")
    stack_margin: int = 64
    irq_nesting: int = 1

    def _check(self, prefix):
        from repro.analyze.runner import RULE_GROUPS

        require(len(self.rules) > 0, f"{prefix}.rules",
                "at least one rule group is required")
        unknown = sorted(set(self.rules) - set(RULE_GROUPS))
        require(not unknown, f"{prefix}.rules",
                f"unknown rule group(s) {', '.join(map(repr, unknown))}; "
                f"one of {', '.join(RULE_GROUPS)}")
        require(self.stack_margin >= 0, f"{prefix}.stack_margin",
                "must be an integer >= 0")
        require(self.irq_nesting >= 0, f"{prefix}.irq_nesting",
                "must be an integer >= 0")


_ALERT_OVERRIDE_KEYS = ("threshold", "window", "min_events", "severity")


def _validate_alerts(alerts, prefix: str):
    """Value-shape checks for ``FleetSpec.alerts`` (see its docstring)."""
    from repro.obs.alerts import RULE_REGISTRY

    if alerts is True:
        return
    require(isinstance(alerts, dict), prefix,
            "must be True (default rules) or a {rule: config} mapping")
    for name, value in alerts.items():
        require(name in RULE_REGISTRY, f"{prefix}.{name}",
                f"unknown alert rule; one of {', '.join(RULE_REGISTRY)}")
        if isinstance(value, bool) or value is None:
            continue
        if isinstance(value, (int, float)):
            continue
        require(isinstance(value, dict), f"{prefix}.{name}",
                "must be a bool, a threshold number, or an override dict")
        for key, override in value.items():
            require(key in _ALERT_OVERRIDE_KEYS, f"{prefix}.{name}.{key}",
                    f"unknown override; one of "
                    f"{', '.join(_ALERT_OVERRIDE_KEYS)}")
            if key == "severity":
                require(isinstance(override, str) and override,
                        f"{prefix}.{name}.severity",
                        "must be a non-empty string")
            else:
                require(isinstance(override, (int, float))
                        and not isinstance(override, bool),
                        f"{prefix}.{name}.{key}", "must be a number")
        if "window" in value:
            require(value["window"] > 0, f"{prefix}.{name}.window",
                    "must be > 0 seconds")
        if "min_events" in value:
            require(value["min_events"] >= 1, f"{prefix}.{name}.min_events",
                    "must be >= 1")


@dataclass(frozen=True)
class FleetSpec(_Spec):
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

    PREFIX = "fleet"

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

    def _check(self, prefix):
        require(self.size >= 0, f"{prefix}.size", "must be >= 0")
        for name in ("loss", "reorder"):
            require(0.0 <= getattr(self, name) <= 1.0,
                    f"{prefix}.{name}", "must be in [0, 1]")
        require(self.max_attempts >= 1, f"{prefix}.max_attempts",
                "must be >= 1")
        require(self.run_cycles >= 0, f"{prefix}.run_cycles", "must be >= 0")
        for name in ("store", "events"):
            require(getattr(self, name) != "", f"{prefix}.{name}",
                    "must be a non-empty path string")
        if self.alerts is not None:
            _validate_alerts(self.alerts, f"{prefix}.alerts")
        if self.rollout is not None:
            self.rollout.validate(f"{prefix}.rollout")


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
    require(isinstance(values, (list, tuple)) and values
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
            require(isinstance(channels, dict), f"{prefix}.channels",
                    "must map channel numbers to sample lists")
            for channel, values in channels.items():
                require(_int_like(channel), f"{prefix}.channels",
                        f"channel key {channel!r} must be an integer")
                _require_int_list(values, f"{prefix}.channels",
                                  f"channel {channel} samples")
        if "hold" in config:
            require(_int_like(config["hold"]) and int(config["hold"]) >= 1,
                    f"{prefix}.hold", "must be an integer >= 1")
    elif name == "uart":
        rx = config.get("rx")
        if rx is not None:
            require(isinstance(rx, (list, tuple)), f"{prefix}.rx",
                    "must be a list of [cycle, byte] pairs")
            for entry in rx:
                require(isinstance(entry, (list, tuple)) and len(entry) == 2
                        and all(_int_like(v) for v in entry),
                        f"{prefix}.rx",
                        f"entry {entry!r} must be a [cycle, byte] pair")
        if "rx_irq" in config:
            require(isinstance(config["rx_irq"], bool), f"{prefix}.rx_irq",
                    "must be a boolean")
    elif name == "ultrasonic" and "echo_widths" in config:
        _require_int_list(config["echo_widths"], f"{prefix}.echo_widths",
                          "echo_widths")


# ---- the scenario -----------------------------------------------------------


@dataclass
class ScenarioSpec(_Spec):
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

    def _check(self, prefix):
        require(self.name, "name", "must be a non-empty string")
        require(self.security in SECURITY_PROFILES, "security",
                f"unknown security profile {self.security!r}; "
                f"one of {', '.join(SECURITY_PROFILES)}")
        require(not (self.attack and self.fleet), "attack",
                "a scenario is either an attack or a fleet, not both")
        if self.attack is not None:
            from repro.attacks import ATTACKS

            require(self.attack in ATTACKS, "attack",
                    f"unknown attack {self.attack!r}; "
                    f"one of {', '.join(sorted(ATTACKS))}")
            # The attack harness owns its firmware, peripherals and
            # execution budget; reject customisation rather than
            # silently running something other than what was asked for.
            require(not self.peripherals, "peripherals",
                    "attack scenarios use the victim's fixed peripherals")
            require(self.firmware == FirmwareSpec(), "firmware",
                    "attack scenarios run the attack's own firmware; "
                    "leave firmware unset")
            require(self.limits == LimitsSpec(), "limits",
                    "attack scenarios use the harness's execution "
                    "budget; leave limits unset")
        elif self.fleet is not None:
            self.fleet.validate()
            require(not self.peripherals, "peripherals",
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

    def _validate_peripherals(self):
        for name, config in self.peripherals.items():
            require(name in PERIPHERAL_NAMES, "peripherals",
                    f"malformed peripheral name {name!r}; "
                    f"one of {', '.join(PERIPHERAL_NAMES)}")
            _check_keys(config, PERIPHERAL_CONFIG_KEYS[name],
                        f"peripherals.{name}")
            _validate_peripheral_config(name, config)

    # ---- serialisation ----------------------------------------------------

    def to_dict(self) -> dict:
        return {"schema": SCHEMA, "version": SPEC_VERSION,
                **fields_to_dict(self)}

    def to_json(self, indent=None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_dict(cls, data) -> "ScenarioSpec":
        require(isinstance(data, dict), "scenario",
                "a scenario document must be a mapping")
        data = dict(data)
        schema = data.pop("schema", SCHEMA)
        require(schema == SCHEMA, "schema",
                f"unsupported schema {schema!r}; expected {SCHEMA!r}")
        version = data.pop("version", SPEC_VERSION)
        require(isinstance(version, int) and 1 <= version <= SPEC_VERSION,
                "version", f"unsupported spec version {version!r}")
        if "peripherals" in data and data["peripherals"] is None:
            data["peripherals"] = {}  # null means no overrides
        return fields_from_dict(cls, data, "")

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
