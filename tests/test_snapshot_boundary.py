"""``Device.restore`` is an untrusted-input boundary: whatever document
arrives, it either restores or raises :class:`SnapshotError`.

The regression tests pin single-field corruptions of a live
light_sensor EILID snapshot that used to escape as other exceptions, or
were accepted and crashed the next run inside the simulator.  The
properties feed seeded mutations to ``restore`` -- of one named field,
or of one item (or one field of an item) of an adopted list: a log,
queue, schedule or the trace ring -- and put every document it accepts
through its evidence accessors, a run, a W^X violation, a snapshot and
an attestation report.
"""

import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import FirmwareSpec, build_firmware
from repro.apps.registry import APPS
from repro.casu.update import UpdateKey, UpdatePackage
from repro.device import build_device
from repro.isa.registers import PC
from repro.memory.map import DMEM_START
from repro.peripherals import Uart, ports
from repro.snapshot import SnapshotError

APP = APPS["light_sensor"]
# Values a corrupted JSON field might carry, wrong-typed or out of range.
BAD_VALUES = (None, "x", -1, [], {}, 1.5, True, 2 ** 40)
# ... and what a corrupted list item might: a row of the wrong width, a
# word that names something else (an edge kind, a port).
ITEM_VALUES = BAD_VALUES + ([0, 0], "jump")
# Small rings, so the busy snapshot's evidence logs are full.
LIMITS = {"max_events": 4, "trace_capacity": 64}


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


@pytest.fixture(scope="module")
def busy_doc(program):
    """A snapshot whose adopted lists are all populated: a rejected
    update, a W^X violation and its reset, then UART traffic (bytes
    scheduled, received and sent) and LCD and violation-port writes."""
    uart = Uart(rx_schedule=[(15_100, 0x41), (15_200, 0x42),
                             (10 ** 9, 0x43), (10 ** 9 + 1, 0x44)])
    device = build_device(program, security="eilid",
                          peripherals={**APP.make_peripherals(), "uart": uart},
                          **LIMITS)
    device.run(max_cycles=15_000)
    device.apply_update(UpdatePackage.make(UpdateKey.derive("not-this-one"),
                                           0xE800, b"\x00\x00", 1))
    device.cpu.regs[PC] = DMEM_START + 0x100
    assert device.run(max_cycles=200, stop_on_done=False).violations
    device.run(max_cycles=500)
    for port, value in ((ports.UART_TX, 0x48), (ports.UART_TX, 0x49),
                        (ports.LCD_CMD, 0x01), (ports.LCD_DATA, 0x41),
                        (ports.LCD_DATA, 0x42), (ports.VIOLATION_PORT, 7),
                        (ports.VIOLATION_PORT, 8)):
        device.bus.write_word(port, value)  # as a store would
    device.bus.trace = []
    return json.loads(device.snapshot().to_json())


def restored(program, doc, **limits):
    device = build_device(program, security="eilid",
                          peripherals=APP.make_peripherals(), **limits)
    device.restore(doc)
    return device


def exercised(device):
    """An accepted document must be usable: its evidence reads, it runs
    on, executes from DMEM (a W^X violation), snapshots, attests, and
    its evidence still reads."""
    device.output_events()
    device.trace_snapshot().consistent()
    device.run(max_cycles=20_000)
    device.cpu.regs[PC] = DMEM_START + 0x100
    device.run(max_cycles=200, stop_on_done=False)
    device.snapshot().to_json()
    device.attestation_report()
    device.output_events()
    device.trace_snapshot().consistent()


@pytest.mark.parametrize("path,value", [
    (("peripherals", "adc", "channel_counts"), None),  # was AttributeError
    (("interrupts", "pending"), {}),  # was MemoryAccessError
    (("interrupts", "pending"), "x"),  # was MemoryAccessError
    (("cpu", "regs"), {}),  # was IndexError
    # Accepted, after which a later run, snapshot or report raised
    # TypeError.  (events_dropped and trace.dropped only once their
    # rings evict.)
    (("reset_count",), None),
    (("violation_count",), None),
    (("events_dropped",), None),
    (("trace", "total"), None),
    (("trace", "digest"), 1.5),
    (("trace", "dropped"), None),
    (("peripherals", "adc", "sample_count"), None),
    (("peripherals", "adc", "channel_counts", "0"), 1.5),
    (("peripherals", "uart", "tx_log"), "x"),
    (("peripherals", "lcd", "command_log"), "x"),
    (("peripherals", "lcd", "data_log"), "x"),
    (("peripherals", "harness", "violation_writes"), "x"),
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


def test_mutated_snapshot_raises_only_snapshot_error(program, snapshot_doc):
    paths = sorted(_field_paths(snapshot_doc))

    # Nested, so a failing example is reported without hypothesis
    # rewriting this module to pin it.
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(data=st.data())
    def check(data):
        path = data.draw(st.sampled_from(paths), label="field")
        value = data.draw(st.sampled_from(BAD_VALUES), label="value")
        try:
            device = restored(program, mutated(snapshot_doc, path, value))
        except SnapshotError:
            return
        exercised(device)

    check()


def _item_paths(node, prefix=()):
    """The first two items of every non-empty list in the document, and
    each field of those items (nested objects' fields included)."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _item_paths(value, prefix + (key,))
    elif isinstance(node, list):
        for position, item in enumerate(node[:2]):
            yield prefix + (position,)
            if isinstance(item, list):
                for index in range(len(item)):
                    yield prefix + (position, index)
            else:
                yield from _field_paths(item, prefix + (position,))


def test_busy_snapshot_populates_every_adopted_list(busy_doc):
    peripherals = busy_doc["peripherals"]
    for items in (busy_doc["events"], busy_doc["trace"]["edges"],
                  busy_doc["update_engine"]["history"],
                  peripherals["uart"]["rx_schedule"],
                  peripherals["uart"]["rx_fifo"],
                  peripherals["uart"]["tx_log"],
                  peripherals["lcd"]["command_log"],
                  peripherals["lcd"]["data_log"],
                  peripherals["harness"]["violation_writes"],
                  *(peripherals[name]["events"]
                    for name in ("gpio", "harness", "lcd", "uart"))):
        assert items
    assert {event["kind"] for event in busy_doc["events"][:2]} == \
        {"violation", "reset"}


@pytest.mark.parametrize("path,value,field", [
    # Restored, after which consistent() or output_events() raised
    # TypeError.
    (("trace", "edges", 0, 0), "x", "edges"),
    (("trace", "edges", 1, 2), None, "edges"),
    (("peripherals", "gpio", "events", 0, 1), 1.5, "events"),
    (("peripherals", "uart", "events", 0, 0), None, "events"),
    # Restored, with a row of the wrong width, an edge kind or event
    # kind nothing knows, or a boolean byte.
    (("peripherals", "uart", "tx_log", 1), [0, 0, 0], "tx_log"),
    (("trace", "edges", 0, 2), "x", "edges"),
    (("events", 1, "kind"), "x", "kind"),
    (("peripherals", "uart", "rx_fifo", 0), True, "rx_fifo"),
    (("events", 0, "violation", "pc"), "x", "pc"),
    # Restored, after which attestation_report() raised AttributeError.
    (("events", 0, "violation"), None, "violation"),
])
def test_malformed_list_item_raises_snapshot_error(program, busy_doc, path,
                                                   value, field):
    with pytest.raises(SnapshotError, match=repr(field)):
        restored(program, mutated(busy_doc, path, value), **LIMITS)


def test_mutated_list_item_raises_only_snapshot_error(program, busy_doc):
    paths = list(_item_paths(busy_doc))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def check(data):
        path = data.draw(st.sampled_from(paths), label="item")
        value = data.draw(st.sampled_from(ITEM_VALUES), label="value")
        try:
            device = restored(program, mutated(busy_doc, path, value),
                              **LIMITS)
        except SnapshotError:
            return
        exercised(device)

    check()
