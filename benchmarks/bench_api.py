"""Facade overhead gates: repro.api vs direct Device construction.

The public scenario API must stay a zero-cost abstraction on the hot
path: a ``Session`` run is spec validation + a cached firmware lookup +
the very same ``Device`` inner loop.  This bench drives the
monitored-run microbench (security="casu") both ways and asserts the
facade adds < 5% wall-clock overhead, and, exactly, that it adds a
constant number of bytecodes per run and none per step.
"""

import gc
import time

from bench_micro import _bytecodes
from repro.api import FirmwareSpec, LimitsSpec, ScenarioSpec, Session
from repro.api.firmware import build_firmware
from repro.device import build_device
from repro.obs.metrics import METRICS

FACADE_OVERHEAD_CEILING = 1.05  # the satellite gate: < 5%

STEPS = 20_000
REPS = 7

# The step-loop shapes the Table IV apps hit (no DONE write: the run
# is bounded by max_steps on both paths).
_HOT_LOOP = """
    .text
    .global main
main:
    mov #0, r10
loop:
    add #1, r10
    mov r10, &0x0200
    add &0x0200, r11
    bit #1, r11
    jnz odd
    xor #0x5a5a, r12
odd:
    cmp #0, r10
    jnz loop
    jmp loop
"""

_FIRMWARE = FirmwareSpec(kind="asm", source=_HOT_LOOP, variant="original",
                         name="bench-api", link_rom=False)


def _spec(steps=STEPS):
    return ScenarioSpec(
        name="bench-api",
        firmware=_FIRMWARE,
        security="casu",
        limits=LimitsSpec(max_cycles=100_000_000, max_steps=steps),
    )


def _direct_run(program, steps=STEPS):
    device = build_device(program, security="casu")
    result = device.run_steps(steps, stop_on_done=True)
    assert result.steps == steps
    return result


def _facade_run(steps=STEPS):
    outcome = Session(_spec(steps)).run()
    assert outcome.steps == steps
    return outcome


def _timed(fn, *args):
    started = time.perf_counter()
    fn(*args)
    return time.perf_counter() - started


def test_bench_facade_overhead(benchmark):
    program = build_firmware(_FIRMWARE).program
    _direct_run(program)  # warm both paths (decode cache is per-device,
    _facade_run()         # but parse/build caches are process-wide)

    # Interleave the two paths so machine-load drift hits both equally,
    # and compare best-of (the runs execute the identical inner loop).
    direct = facade = float("inf")
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(REPS):
            direct = min(direct, _timed(_direct_run, program))
            facade = min(facade, _timed(_facade_run))
    finally:
        if gc_was_enabled:
            gc.enable()
    ratio = facade / direct
    benchmark.extra_info["direct_s"] = round(direct, 4)
    benchmark.extra_info["facade_s"] = round(facade, 4)
    benchmark.extra_info["ratio"] = round(ratio, 4)
    benchmark.pedantic(_facade_run, rounds=1, iterations=1)
    print(f"\nfacade {facade:.4f}s vs direct {direct:.4f}s "
          f"(ratio {ratio:.3f}, monitored {STEPS} steps)")
    assert ratio < FACADE_OVERHEAD_CEILING, (
        f"facade run is {100 * (ratio - 1):.1f}% slower than direct "
        f"Device construction (gate: <5%)")


def test_bench_facade_adds_no_bytecodes_per_step(benchmark):
    """The exact form of the overhead gate above: from 10,000 to 20,000
    steps, ``Session(spec).run()`` and ``build_device`` + ``run_steps``
    grow by the same bytecode count, so the facade adds a constant per
    run and nothing per step.  Each count is taken right after a run of
    the same side and length, so both sides count warm paths: a first
    run fills process-wide caches (the firmware cache, the program's
    decode table, the compiled steps) that later runs only read.  The
    one data-dependent path left is the metrics registry's: each run
    closes a span (``interpreter.batch`` for ``run_steps``,
    ``session.run`` for the facade), whose duration histogram stores a
    new minimum or maximum in 3 more bytecodes, so a count moved by 3
    with the host's speed.  The registry is reset before each count, so
    every count starts it from the same empty state."""
    program = build_firmware(_FIRMWARE).program
    sides = {"direct": lambda steps: _direct_run(program, steps),
             "facade": _facade_run}

    def measure():
        counts = {}
        for name, run in sides.items():
            for steps in (10_000, 20_000):
                run(steps)
                METRICS.reset()
                counts[name, steps] = _bytecodes(lambda: run(steps))
        return counts

    counts = benchmark.pedantic(measure, rounds=1, iterations=1)
    growth = {name: counts[name, 20_000] - counts[name, 10_000]
              for name in sides}
    benchmark.extra_info["bytecodes_per_10k_steps"] = growth["direct"]
    benchmark.extra_info["facade_bytecodes_per_run"] = (
        counts["facade", 10_000] - counts["direct", 10_000])
    assert growth["direct"] > 0
    assert growth["facade"] == growth["direct"], (
        f"from 10,000 to 20,000 steps the facade run grows by "
        f"{growth['facade']} bytecodes and the direct run by "
        f"{growth['direct']}: the facade adds work per step")
