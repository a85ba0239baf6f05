"""Fleet-scale baseline: devices/sec the verifier can drive.

Numbers later scaling PRs (async transports, distributed verifiers)
measure themselves against:

* enroll + staged rollout throughput for a 1000-device fleet -- the
  full authenticated path per device (key derivation, enrollment
  handshake, per-device package MAC, device-side verify, simulated
  ROM copy on the device CPU, MAC'd ack);
* attestation round-trips/sec -- heartbeat evidence collection;
* process-backend rollout throughput vs the serial backend: serial
  offers to the live devices one after another on one core, the
  process backend shards the work across workers that rebuild their
  devices from record snapshots.  On a >=4-core machine (the CI
  runners) the process backend must clear 1.5x the serial backend's
  devices/sec at 4 workers; everywhere it must clear an absolute
  floor, since the sharding overhead (snapshot, pickle, rebuild,
  merge) is real and a regression there shows up even single-core.

The interpreter hot-path PR (decoded-instruction cache + zero-alloc
step loop) lifted the reference machine from ~500 to ~1000+ dev/s on
the full enroll+rollout path; the CI floor is set at 400 dev/s (4x the
original bar) to stay immune to runner-hardware variance while still
catching any real regression of the batched device loop.
"""

import os
import time

from repro.fleet import CampaignConfig, CampaignStatus, FleetSimulation

FLEET_SIZE = 1000


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def enroll_and_rollout():
    started = time.perf_counter()
    fleet = FleetSimulation(size=FLEET_SIZE)
    report = fleet.rollout(version=1)
    elapsed = time.perf_counter() - started
    return fleet, report, elapsed


def test_bench_fleet_rollout_1k(benchmark):
    fleet, report, elapsed = benchmark.pedantic(
        enroll_and_rollout, rounds=1, iterations=1)
    assert report.status is CampaignStatus.COMPLETE
    assert report.applied == FLEET_SIZE
    devices_per_sec = FLEET_SIZE / elapsed
    benchmark.extra_info["devices"] = FLEET_SIZE
    benchmark.extra_info["enroll_rollout_devices_per_sec"] = round(devices_per_sec)
    benchmark.extra_info["rollout_devices_per_sec"] = round(report.devices_per_sec)
    # CI floor with hardware-variance margin; the reference machine does
    # ~1040 dev/s (the >=1000 dev/s target of the hot-path PR).
    assert devices_per_sec >= 400


def _rollout_devices_per_sec(backend: str, workers: int,
                             size: int = FLEET_SIZE) -> float:
    """Rollout-only throughput (enrollment excluded) for one backend."""
    fleet = FleetSimulation(size=size)
    report = fleet.rollout(version=1, config=CampaignConfig(
        backend=backend, workers=workers))
    assert report.status is CampaignStatus.COMPLETE
    assert report.applied == size
    return report.devices_per_sec


def test_bench_fleet_process_backend_speedup(benchmark):
    """The sharding gate: process >= 1.5x serial dev/s at 4 workers.

    The ratio assertion arms only on machines with >= 4 usable cores
    (the CI runners qualify): below that the GIL-free backend has
    nothing to parallelise onto and the honest expectation is a
    *slowdown* -- there the absolute floor still catches regressions
    in the sharding path itself (snapshot, pickle, rebuild, merge).
    """
    workers = 4

    def measure():
        serial = _rollout_devices_per_sec("serial", workers)
        process = _rollout_devices_per_sec("process", workers)
        return serial, process

    serial_dps, process_dps = benchmark.pedantic(
        measure, rounds=1, iterations=1)
    cores = _usable_cores()
    speedup = process_dps / serial_dps if serial_dps else 0.0
    benchmark.extra_info["cores"] = cores
    benchmark.extra_info["serial_devices_per_sec"] = round(serial_dps)
    benchmark.extra_info["process_devices_per_sec"] = round(process_dps)
    benchmark.extra_info["process_speedup"] = round(speedup, 2)
    # Absolute floor: a 2-vCPU container does ~2300 dev/s through the
    # full shard path (serial ~2700); 250 leaves hardware-variance room.
    assert process_dps >= 250
    if cores >= 4:
        assert speedup >= 1.5, (
            f"process backend {process_dps:.0f} dev/s is only "
            f"{speedup:.2f}x the serial backend's {serial_dps:.0f} "
            f"dev/s on {cores} cores (need >= 1.5x)")


def test_bench_fleet_attestation_roundtrips(benchmark):
    fleet = FleetSimulation(size=300)

    def sweep():
        results = fleet.attest_all()
        assert all(result.ok for result in results.values())
        return results

    started = time.perf_counter()
    benchmark.pedantic(sweep, rounds=1, iterations=1)
    elapsed = time.perf_counter() - started
    roundtrips_per_sec = len(fleet.registry) / elapsed
    benchmark.extra_info["attest_roundtrips_per_sec"] = round(roundtrips_per_sec)
    assert roundtrips_per_sec >= 100
