"""``Device.restore`` is an untrusted-input boundary: whatever document
arrives, it either restores or raises :class:`SnapshotError`.

The regression tests pin single-field corruptions of a live
light_sensor EILID snapshot that used to escape as other exceptions, or
were accepted and crashed the next run inside the simulator.  The
property feeds seeded single-field mutations of the same document to
``restore``.
"""

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import FirmwareSpec, build_firmware
from repro.apps.registry import APPS
from repro.device import build_device
from repro.snapshot import SnapshotError

APP = APPS["light_sensor"]
# Values a corrupted JSON field might carry, wrong-typed or out of range.
BAD_VALUES = (None, "x", -1, [], {}, 1.5, True, 2 ** 40)


@pytest.fixture(scope="module")
def program():
    return build_firmware(FirmwareSpec(kind="app", app=APP.name,
                                       variant="eilid")).program


@pytest.fixture(scope="module")
def snapshot_doc(program):
    device = build_device(program, security="eilid",
                          peripherals=APP.make_peripherals())
    device.run(max_cycles=15_000)
    return json.loads(device.snapshot().to_json())


def mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = copy.deepcopy(value)
    return doc


def restored(program, doc):
    device = build_device(program, security="eilid",
                          peripherals=APP.make_peripherals())
    device.restore(doc)
    return device


@pytest.mark.parametrize("path,value", [
    (("peripherals", "adc", "channel_counts"), None),  # was AttributeError
    (("interrupts", "pending"), {}),  # was MemoryAccessError
    (("interrupts", "pending"), "x"),  # was MemoryAccessError
    (("cpu", "regs"), {}),  # was IndexError
])
def test_malformed_field_raises_snapshot_error(program, snapshot_doc, path,
                                               value):
    with pytest.raises(SnapshotError):
        restored(program, mutated(snapshot_doc, path, value))


def test_short_register_file_is_rejected_at_restore(program, snapshot_doc):
    # Once accepted, after which the next run raised IndexError.
    doc = mutated(snapshot_doc, ("cpu", "regs"), snapshot_doc["cpu"]["regs"][:4])
    with pytest.raises(SnapshotError, match="16 integer registers"):
        restored(program, doc)


def test_boolean_register_is_rejected(program, snapshot_doc):
    # JSON true is not a register value; it was restored as 1.
    regs = list(snapshot_doc["cpu"]["regs"])
    regs[4] = True
    with pytest.raises(SnapshotError, match="16 integer registers"):
        restored(program, mutated(snapshot_doc, ("cpu", "regs"), regs))


def _field_paths(node, prefix=()):
    """Every named field of the document, nested sections included."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield prefix + (key,)
            yield from _field_paths(value, prefix + (key,))


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_snapshot_raises_only_snapshot_error(program, snapshot_doc,
                                                     data):
    paths = sorted(_field_paths(snapshot_doc))
    path = data.draw(st.sampled_from(paths), label="field")
    value = data.draw(st.sampled_from(BAD_VALUES), label="value")
    try:
        restored(program, mutated(snapshot_doc, path, value))
    except SnapshotError:
        pass
