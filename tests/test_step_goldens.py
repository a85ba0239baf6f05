"""Whole-run step semantics, pinned.

Every Table IV app -- original and EILID image -- runs to DONE under
each security profile, and every attack in :data:`repro.attacks.ATTACKS`
runs against each profile.  Each run's cycles, instructions, steps,
violation reasons and the digests of its output events, branch trace
and final device snapshot must equal ``step_goldens.json``.  A change
to the CPU, bus, monitor, peripherals or trace recorder that moves any
simulated step shows up here as a mismatch, whole program by whole
program.

The same runs carry the monitor's refinement check: every step of the
EILID images under ``eilid``, of the original images under ``casu`` and
of every attack under ``casu`` and ``eilid`` is also checked against
the monitor's rule table (``conftest.refined``).

Regenerate only for an intended change of step semantics::

    PYTHONPATH=src python tests/test_step_goldens.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.apps.registry import APPS, TABLE_IV_ORDER
from repro.attacks import ATTACKS
from repro.device import SECURITY_LEVELS
from conftest import refined

GOLDENS = Path(__file__).with_name("step_goldens.json")
VARIANTS = ("original", "eilid")
# (variant, security) app runs checked against the rule table.
REFINED_APPS = {("eilid", "eilid"), ("original", "casu")}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _device_digests(device) -> dict:
    trace = device.trace_snapshot()
    return {
        "cycles": device.cycle,
        "instructions": device.cpu.instruction_count,
        "reset_count": device.reset_count,
        "outputs": _sha(json.dumps(device.output_events())),
        "trace": [trace.digest_hex, trace.total, trace.dropped],
        "snapshot": _sha(device.snapshot().to_json()),
    }


def app_run(app_name: str, variant: str, security: str) -> dict:
    from repro.api import FirmwareSpec, build_firmware
    from repro.device import build_device

    app = APPS[app_name]
    program = build_firmware(FirmwareSpec(kind="app", app=app_name,
                                          variant=variant)).program
    device = build_device(program, security=security,
                          peripherals=app.make_peripherals())
    result = device.run(max_cycles=app.max_cycles)
    doc = {
        "steps": result.steps,
        "done": result.done,
        "done_value": result.done_value,
        "violations": [v.reason.value for v in result.violations],
    }
    doc.update(_device_digests(device))
    return doc


def attack_run(name: str, security: str) -> dict:
    """One attack; steps are counted at ``Cpu.step``, the one call
    every executed step makes, whichever device API drove it."""
    from repro.cpu.core import Cpu

    original = Cpu.__dict__["step"]
    steps = [0]

    def counting_step(cpu):
        steps[0] += 1
        return original(cpu)

    Cpu.step = counting_step
    try:
        result = ATTACKS[name](security)
    finally:
        Cpu.step = original
    doc = {
        "steps": steps[0],
        "outcome": result.outcome.value,
        "violations": [v.reason.value for v in result.violations],
    }
    doc.update(_device_digests(result.device))
    return doc


def app_cases():
    return [(app, variant, security) for app in TABLE_IV_ORDER
            for variant in VARIANTS for security in SECURITY_LEVELS]


def attack_cases():
    return [(name, security) for name in ATTACKS
            for security in SECURITY_LEVELS]


def _key(*parts) -> str:
    return "/".join(parts)


def capture() -> dict:
    return {
        "apps": {_key(*case): app_run(*case) for case in app_cases()},
        "attacks": {_key(*case): attack_run(*case) for case in attack_cases()},
    }


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDENS.read_text())


def test_goldens_cover_every_case(goldens):
    assert sorted(goldens["apps"]) == sorted(_key(*c) for c in app_cases())
    assert sorted(goldens["attacks"]) == \
        sorted(_key(*c) for c in attack_cases())


def assert_refines(refinement, steps):
    assert refinement.steps == steps
    assert not refinement.divergences, refinement.divergences[0]


@pytest.mark.parametrize("app,variant,security", app_cases())
def test_app_run_matches_golden(goldens, app, variant, security):
    checked = (variant, security) in REFINED_APPS
    with refined(checked) as refinement:
        doc = app_run(app, variant, security)
    assert doc == goldens["apps"][_key(app, variant, security)]
    assert_refines(refinement, doc["steps"] if checked else 0)


@pytest.mark.parametrize("name,security", attack_cases())
def test_attack_matches_golden(goldens, name, security):
    checked = security != "none"
    with refined(checked) as refinement:
        doc = attack_run(name, security)
    assert doc == goldens["attacks"][_key(name, security)]
    assert_refines(refinement, doc["steps"] if checked else 0)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDENS.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDENS}")
