"""Fault-sweep throughput gates for the snapshot-shipping backends.

A :class:`repro.faults.FaultCampaign` runs each fault on a freshly
restored snapshot, so sweep throughput is the snapshot codec's real
price: serialise, ship, restore, run, grade.  The workload is a tiny
hand-written firmware (a few dozen cycles to DONE) so the gate
measures the campaign machinery, not the victim's runtime:

* the process backend must clear an absolute faults/s floor
  everywhere -- the shard path (snapshot dict through pickle, worker
  rebuild + restore) regressing shows up even single-core;
* on >= 4 usable cores (the CI runners) the process backend must
  clear 1.5x the serial backend, which grades on one core -- same
  arming rule as bench_fleet;
* serial and process sweeps of the same seeded plan must agree
  outcome-for-outcome (the acceptance invariant rides the bench).

Emits ``BENCH_faults.json`` -- a consolidated artifact with a seeded
``history`` list folding in previous runs of the file, so the perf
trajectory is non-empty from the first CI run (uploaded next to the
fleet-trajectory artifacts).

Reference numbers (2-vCPU container, CPython 3.11, median of five
runs on a noisy shared host): ~210 faults/s serial, ~290 faults/s
process (worker spawn amortised over one 48-fault plan); the floor is
set at 15 to stay immune to runner variance.
"""

import json
import os
import time

from repro.api.firmware import build_firmware
from repro.api.spec import FirmwareSpec
from repro.cfg import recover_cfg
from repro.faults import FaultCampaign, enumerate_sites, expand_plan

# A short branchy loop that latches its checksum as the DONE value and
# streams partial sums to GPIO (so escape grading has real outputs).
_BENCH_ASM = """
    .text
    .global main
main:
    mov #0, r10
    mov #0, r11
loop:
    add #1, r10
    add r10, r11
    mov r11, &0x0010
    bit #1, r10
    jnz skip
    xor #0x0f0f, r12
skip:
    cmp #32, r10
    jnz loop
    mov r11, &0x0070
parked:
    jmp parked
"""

SPEC = FirmwareSpec(kind="asm", source=_BENCH_ASM, name="fault-bench",
                    variant="original", link_rom=False)
FAULTS = 48
SEED = 11
WORKERS = 4
# Absolute floor on the process backend (reference ~290 faults/s on
# two vCPUs); only a broken shard path gets anywhere near it.
PROCESS_FLOOR_FAULTS_PER_SEC = 15
SPEEDUP_FLOOR = 1.5
ARTIFACT = "BENCH_faults.json"


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _plan():
    cfg = recover_cfg(build_firmware(SPEC).program, name="fault-bench")
    sites = enumerate_sites(cfg)
    assert sites, "bench firmware produced no fault sites"
    return expand_plan(sites, seed=SEED, count=FAULTS, name="fault-bench")


def _sweep(backend, plan):
    report = FaultCampaign(SPEC, plan, profiles=("none",), backend=backend,
                           workers=WORKERS).run()
    assert report.tally("none").total == FAULTS
    return report


def test_bench_fault_sweep_backends(benchmark, seeded_history):
    plan = _plan()

    def measure():
        return _sweep("serial", plan), _sweep("process", plan)

    serial, process = benchmark.pedantic(measure, rounds=1, iterations=1)

    # Same seed, same tallies -- sharding must not change the science.
    assert [t.to_dict() for t in serial.tallies] == \
           [t.to_dict() for t in process.tallies]
    assert serial.outcomes == process.outcomes

    cores = _usable_cores()
    speedup = (process.faults_per_sec / serial.faults_per_sec
               if serial.faults_per_sec else 0.0)
    benchmark.extra_info["cores"] = cores
    benchmark.extra_info["serial_faults_per_sec"] = \
        round(serial.faults_per_sec, 1)
    benchmark.extra_info["process_faults_per_sec"] = \
        round(process.faults_per_sec, 1)
    benchmark.extra_info["process_speedup"] = round(speedup, 2)

    entry = {
        "ts": round(time.time(), 3),
        "faults": FAULTS,
        "seed": SEED,
        "serial_faults_per_sec": round(serial.faults_per_sec, 1),
        "process_faults_per_sec": round(process.faults_per_sec, 1),
        "process_speedup": round(speedup, 2),
        "cores": cores,
    }
    doc = {
        "schema": "eilid.bench.faults",
        "version": 1,
        "plan": {"name": plan.name, "seed": plan.seed, "faults": len(plan)},
        "serial": serial.to_dict(),
        "process": process.to_dict(),
        "history": seeded_history(ARTIFACT, entry),
    }
    with open(ARTIFACT, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2)

    assert process.faults_per_sec >= PROCESS_FLOOR_FAULTS_PER_SEC
    if cores >= 4:
        assert speedup >= SPEEDUP_FLOOR, (
            f"process backend {process.faults_per_sec:.1f} faults/s is "
            f"only {speedup:.2f}x the serial backend's "
            f"{serial.faults_per_sec:.1f} faults/s on {cores} cores "
            f"(need >= {SPEEDUP_FLOOR}x)")
