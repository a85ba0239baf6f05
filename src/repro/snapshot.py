"""Portable device snapshots: a versioned, JSON-safe state codec.

A :class:`DeviceSnapshot` captures *everything mutable* about a running
:class:`repro.device.Device` -- CPU registers, the memory image as a
delta against the loaded firmware (the program's one image, which
every device of the program shares and only reads), interrupt lines,
every peripheral's latches and schedules, the branch-trace ring, the
monitor's update session, the update engine's monotonic version, and
the device event log -- in a plain dict of JSON types.  Restoring a
snapshot into a freshly built device of the same program/security
produces a device that executes **bit-identically** to the original.
Restore type-checks what it adopts, down to the items of its logs,
queues and the trace ring (the ``state_*`` helpers below), so a
malformed document raises :class:`SnapshotError` at the boundary
rather than a ``TypeError`` inside a later run.

The document is the one definition of device state: two devices of one
program are in the same state exactly when their documents are equal.
Its memory section is :func:`memory_delta`, the one page compare
(:func:`changed_pages`, which a parked bus keeps as ``bytes``), and
:meth:`repro.device.Device.state_digest` hashes its JSON -- a
fixed-size fingerprint to store; live comparisons compare documents.

Three consumers:

* the fleet layer ships snapshots through ``campaign.py``'s
  process-shard wire format, so pool workers resurrect *arbitrary*
  (including adversarially mutated) device state instead of rebuilding
  honest devices from registry records;
* the fault-injection campaigns (:mod:`repro.faults`) snapshot an
  honest device once, then restore+mutate per fault site;
* the differential tests compare documents at every lockstep boundary
  (``tests/conftest.py``) and pin each whole run's digest
  (``tests/step_goldens.json``).

Versioning: every wire document carries ``{"codec": WIRE_VERSION}``.
The fleet record codec (:mod:`repro.fleet.store`) shares the same
constant, so a rolling upgrade where parent and workers disagree fails
loudly (:class:`SnapshotError` / ``FleetError``) instead of
misinterpreting fields.

Restore and the decode cache: restoring a memory image is an arbitrary
memory mutation, so :meth:`repro.memory.bus.Bus.restore_memory` drops
the device's *entire* decoded-instruction cache -- the same contract as
self-modifying code, just wholesale.  The device then adopts the
program's shared entries again wherever its words equal the image's
(see :mod:`repro.cpu.core`).
"""

import json
from typing import Any, Dict, List

from repro.errors import ReproError

# Version of both the snapshot codec and the fleet process-shard record
# codec (repro.fleet.store imports this).  Bump on any incompatible
# change to either wire form.
WIRE_VERSION = 1

# Memory deltas are emitted per fixed-size page: cheap to diff with
# slice compares, compact for the near-empty deltas of idle devices.
PAGE_SIZE = 256
CHUNK_SIZE = 4096


class SnapshotError(ReproError):
    """Raised for malformed, mismatched, or wrong-version snapshots."""


def check_wire_version(doc: Dict[str, Any], what: str = "snapshot") -> None:
    """Reject documents from a different codec generation.

    A missing field is rejected too: every writer since the field was
    introduced stamps it, so absence means "not a {what} document".
    """
    if not isinstance(doc, dict):
        raise SnapshotError(f"{what} must be a dict, got {type(doc).__name__}")
    got = doc.get("codec")
    if got != WIRE_VERSION:
        raise SnapshotError(
            f"{what} codec version mismatch: expected {WIRE_VERSION}, "
            f"got {got!r} (parent and worker builds out of sync?)")


OPTIONAL_INT = (int, type(None))  # a *kind*: an integer or null


def state_int(state: Dict[str, Any], key: str, optional: bool = False):
    """``state[key]`` of a snapshot or other wire document if it is an
    integer (JSON true/false are not), or None when *optional*.
    Anything else raises ValueError, so a wrongly typed leaf fails at
    the boundary instead of inside a later run."""
    value = state[key]
    if type(value) is int or (optional and value is None):
        return value
    raise ValueError(f"field {key!r} must be an integer, got {value!r}")


def state_value(state: Dict[str, Any], key: str, kind):
    """``state[key]`` if it is a *kind* (see :func:`_conforms`)."""
    value = state[key]
    if _conforms((value,), kind):
        return value
    raise ValueError(f"field {key!r} must be {_kind_name(kind)}, "
                     f"got {value!r}")


def state_str(state: Dict[str, Any], key: str, allowed=None) -> str:
    """``state[key]`` if it is a string (one of *allowed*, if given)."""
    return state_value(state, key, str if allowed is None else allowed)


def state_dict(state: Dict[str, Any], key: str) -> dict:
    """``state[key]`` if it is an object."""
    return state_value(state, key, dict)


def state_list(state: Dict[str, Any], key: str, item=None) -> list:
    """``state[key]`` if it is a list (a log, queue or schedule), and
    with *item*, one whose every item is an *item* (see
    :func:`_conforms`)."""
    value = state[key]
    if type(value) is not list:
        raise ValueError(f"field {key!r} must be a list, got {value!r}")
    if item is not None and not _conforms(value, item):
        bad = next(entry for entry in value if not _conforms((entry,), item))
        raise ValueError(f"field {key!r} must hold "
                         f"{_kind_name(item)} items, got {bad!r}")
    return value


def state_rows(state: Dict[str, Any], key: str, *kinds) -> List[tuple]:
    """``state[key]`` as tuples: a list whose every item is a list of
    ``len(kinds)`` fields, field i a ``kinds[i]`` (see
    :func:`_conforms`).  Checked a column at a time, so a full trace
    ring costs a few set builds rather than a call per field."""
    rows = state_list(state, key)
    if not rows:
        return []
    width = len(kinds)
    if not (_conforms(rows, list) and set(map(len, rows)) == {width}
            and all(_conforms(column, kind)
                    for column, kind in zip(zip(*rows), kinds))):
        bad = next(row for row in rows if not (
            type(row) is list and len(row) == width
            and all(_conforms((field,), kind)
                    for field, kind in zip(row, kinds))))
        raise ValueError(
            f"field {key!r} must hold "
            f"[{', '.join(map(_kind_name, kinds))}] items, got {bad!r}")
    return list(map(tuple, rows))


def state_counts(state: Dict[str, Any], key: str) -> Dict[str, int]:
    """``state[key]`` if it is an object of integer counts."""
    counts = state_dict(state, key)
    return {name: state_int(counts, name) for name in counts}


def _conforms(values, kind) -> bool:
    """Whether every value is a *kind*: a type, matched exactly (JSON
    true/false are not integers), a tuple of such types, or a
    collection of the allowed strings or integers."""
    types = set(map(type, values))
    if isinstance(kind, type):
        return types <= {kind}
    if _is_types(kind):
        return types <= set(kind)
    return types <= {str, int} and set(values).issubset(kind)


def _is_types(kind) -> bool:
    return isinstance(kind, tuple) and all(isinstance(k, type) for k in kind)


def _kind_name(kind) -> str:
    if isinstance(kind, type):
        return {dict: "object", type(None): "null"}.get(kind, kind.__name__)
    if _is_types(kind):
        return " or ".join(map(_kind_name, kind))
    return "one of " + ", ".join(map(repr, sorted(kind)))


def changed_pages(mem, baseline) -> list:
    """Pages of *mem* that differ from *baseline*, as ``(addr, bytes)``.

    The one page compare, under every snapshot and every parked bus.
    An unchanged image costs one compare at C speed.  Otherwise 4 KB
    chunks are compared as bytes slices, and pages only inside a chunk
    that differs.  *baseline* is only read: devices share their
    program's image.
    """
    if mem == baseline:
        return []
    pages = []
    for chunk in range(0, len(mem), CHUNK_SIZE):
        end = chunk + CHUNK_SIZE
        if mem[chunk:end] == baseline[chunk:end]:
            continue
        for start in range(chunk, end, PAGE_SIZE):
            page = mem[start:start + PAGE_SIZE]
            if page != baseline[start:start + PAGE_SIZE]:
                pages.append((start, bytes(page)))
    return pages


def memory_delta(mem, baseline) -> list:
    """:func:`changed_pages` in the wire form, ``[addr, hex]``."""
    return [[start, page.hex()] for start, page in changed_pages(mem, baseline)]


def apply_memory_delta(mem, baseline, delta) -> None:
    """Rebuild *mem* in place: baseline image plus differing pages."""
    mem[:] = baseline
    for entry in delta:
        try:
            start, data = entry
            payload = bytes.fromhex(data)
        except (TypeError, ValueError) as error:
            raise SnapshotError(f"malformed memory delta entry: {error}")
        if not 0 <= start <= len(mem) - len(payload):
            raise SnapshotError(
                f"memory delta page at 0x{start:04x} outside address space")
        mem[start:start + len(payload)] = payload


class DeviceSnapshot:
    """A captured device state with a dict/JSON wire form.

    Thin immutable wrapper over the wire dict; :meth:`from_dict` /
    :meth:`from_json` validate the codec version at the boundary so a
    mismatched document never reaches ``Device.restore``.
    """

    __slots__ = ("_doc",)

    def __init__(self, doc: Dict[str, Any]):
        check_wire_version(doc, "device snapshot")
        self._doc = doc

    def to_dict(self) -> Dict[str, Any]:
        return self._doc

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "DeviceSnapshot":
        return cls(doc)

    def to_json(self) -> str:
        return json.dumps(self._doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DeviceSnapshot":
        try:
            doc = json.loads(text)
        except ValueError as error:
            raise SnapshotError(f"snapshot is not valid JSON: {error}")
        return cls(doc)
