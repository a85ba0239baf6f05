"""Table IV regeneration: per-app build + run benchmarks.

Run with ``pytest benchmarks/ --benchmark-only``.  The session prints
the full measured-vs-paper Table IV at the end (the same rows the paper
reports: compile time, binary size, running time, and the averages).
"""

import pytest

from repro.api import FirmwareSpec, build_firmware
from repro.apps.registry import APPS, TABLE_IV_ORDER
from repro.device import build_device
from repro.eval.table4 import averages, measure_table4, render_table4
from repro.minicc import compile_c


@pytest.mark.parametrize("name", TABLE_IV_ORDER)
def test_bench_original_build(benchmark, name, builder):
    """Compile-time column, original variant."""
    spec = APPS[name]
    asm = compile_c(spec.c_source, spec.name)

    benchmark(builder.build_original, asm, f"{spec.name}.s")


@pytest.mark.parametrize("name", TABLE_IV_ORDER)
def test_bench_eilid_build(benchmark, name, builder):
    """Compile-time column, EILID variant (three-build Fig. 2 flow)."""
    spec = APPS[name]
    asm = compile_c(spec.c_source, spec.name)

    benchmark(builder.build_eilid, asm, f"{spec.name}.s")


@pytest.mark.parametrize("name", TABLE_IV_ORDER)
def test_bench_eilid_run(benchmark, name):
    """Running-time column: simulated execution of the EILID variant.

    (The interesting number is the *device cycle count*, printed by the
    table; the wall-clock benchmark tracks simulator throughput.)
    """
    spec = APPS[name]
    program = build_firmware(FirmwareSpec(kind="app", app=name,
                                          variant="eilid")).program

    def run_once():
        device = build_device(program, security="eilid",
                              peripherals=spec.make_peripherals())
        run = device.run(max_cycles=spec.max_cycles)
        assert run.done and not run.violations
        return run.cycles

    cycles = benchmark.pedantic(run_once, rounds=1, iterations=1)
    benchmark.extra_info["device_cycles"] = cycles
    benchmark.extra_info["run_time_us_at_100MHz"] = cycles / 100.0


def test_print_table4(capsys):
    """Regenerate and print the full Table IV (measured vs paper)."""
    rows = measure_table4(repeats=3)
    table = render_table4(rows)
    avg = averages(rows)
    with capsys.disabled():
        print("\n" + table + "\n")
    # Shape assertions (the EXPERIMENTS.md acceptance bands).
    assert 5.0 < avg["run_pct"] < 10.0
    assert 7.0 < avg["size_pct"] < 16.0
    assert avg["compile_pct"] > 0
